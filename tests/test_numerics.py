import math

import pytest

from twistlab.numerics import (ExtrapolationDivergenceError,
                               IndeterminateRatioError, PHI_LADDER,
                               guarded_ratio, richardson_limit)


def test_phi_ladder_is_halving():
    assert PHI_LADDER == (1e-3, 5e-4, 2.5e-4)


def test_richardson_limit_exact_on_quartic():
    h = 1e-3
    f = lambda x: 3.5 + 2.0 * x**2 - 7.0 * x**4
    assert richardson_limit([f(h), f(h / 2), f(h / 4)]) == pytest.approx(3.5, abs=1e-15)


def test_richardson_limit_divergence_detected():
    with pytest.raises(ExtrapolationDivergenceError):
        richardson_limit([1.0, 10.0, 100.0])
    with pytest.raises(ExtrapolationDivergenceError):
        richardson_limit([1.0, math.nan, 2.0])


def test_richardson_limit_needs_three_rungs():
    with pytest.raises(ValueError):
        richardson_limit([1.0, 2.0])


def test_guarded_ratio():
    assert guarded_ratio(4.0, 2.0) == 2.0
    with pytest.raises(IndeterminateRatioError) as info:
        guarded_ratio(1e-14, 1e-13)
    assert info.value.numerator == 1e-14
    # one side alive keeps the ratio defined
    assert guarded_ratio(1.0, 1e-14) > 0
