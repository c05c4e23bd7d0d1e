import pytest

from twistlab.numerics import IndeterminateRatioError, guarded_ratio


def test_guarded_ratio():
    assert guarded_ratio(4.0, 2.0) == 2.0
    with pytest.raises(IndeterminateRatioError) as info:
        guarded_ratio(1e-14, 1e-13)
    assert info.value.numerator == 1e-14
    # one side alive keeps the ratio defined
    assert guarded_ratio(1.0, 1e-14) > 0


def test_centred_moments_of_an_eigenvector_and_a_reflection():
    import numpy as np

    from twistlab.numerics import centred_moments

    psi = np.array([0.6, 0.8j])
    # A = diag(2, -1): <A> = 0.36 * 2 - 0.64, Var = 0.36 * 4 + 0.64 - <A>^2
    mean, var = centred_moments(psi, np.array([2.0, -1.0]) * psi)
    assert mean == pytest.approx(0.08, abs=1e-15)
    assert var == pytest.approx(2.08 - 0.08**2, abs=1e-15)
    # an eigenvector has no spread at all, not a rounding-sized negative one
    assert centred_moments(psi, 3.0 * psi) == (pytest.approx(3.0, abs=1e-15), 0.0)
