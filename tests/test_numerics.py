import ast
import math
from pathlib import Path

import numpy as np
import pytest

import twistlab.numerics as numerics
from twistlab.numerics import IndeterminateRatioError, centred_moments, guarded_ratio, mom_limit
from twistlab.optimizer import maximize_limit, maximize_slope_ratio


def test_guarded_ratio():
    assert guarded_ratio(4.0, 2.0) == 2.0
    with pytest.raises(IndeterminateRatioError) as info:
        guarded_ratio(1e-14, 1e-13)
    assert info.value.numerator == 1e-14
    # one side alive keeps the ratio defined
    assert guarded_ratio(1.0, 1e-14) > 0


def test_centred_moments_of_an_eigenvector_and_a_reflection():
    psi = np.array([0.6, 0.8j])
    # A = diag(2, -1): <A> = 0.36 * 2 - 0.64, Var = 0.36 * 4 + 0.64 - <A>^2
    mean, var = centred_moments(psi, np.array([2.0, -1.0]) * psi)
    assert mean == pytest.approx(0.08, abs=1e-15)
    assert var == pytest.approx(2.08 - 0.08**2, abs=1e-15)
    # an eigenvector has no spread at all, not a rounding-sized negative one
    assert centred_moments(psi, 3.0 * psi) == (pytest.approx(3.0, abs=1e-15), 0.0)


# (numerator, denominator) just inside and just outside the one 0/0 rule
ZERO_OVER_ZERO = [(0.99e-12, 0.99e-12, True), (1.01e-12, 0.99e-12, False)]
EDGE_IDS = ["zero-over-zero", "determinate"]


@pytest.mark.parametrize("num, den, zero_over_zero", ZERO_OVER_ZERO, ids=EDGE_IDS)
def test_guarded_ratio_raises_exactly_at_zero_over_zero(num, den, zero_over_zero):
    if zero_over_zero:
        with pytest.raises(IndeterminateRatioError):
            guarded_ratio(num, den)
    else:
        assert guarded_ratio(num, den) == num / den


def _x_ratio(num, den):
    """P, C and B whose ratio term at n = x is num / den, with P = 0 and a
    determinate 0 / 1 at y."""
    return np.zeros((2, 2)), np.array([math.sqrt(num), 0.0]), np.array([den, 1.0])


@pytest.mark.parametrize("num, den, zero_over_zero", ZERO_OVER_ZERO, ids=EDGE_IDS)
def test_mom_limit_is_nan_exactly_at_zero_over_zero(num, den, zero_over_zero):
    value = float(mom_limit(*_x_ratio(num, den), np.array([[1.0, 0.0, 0.0]]))[0])
    assert math.isnan(value) == zero_over_zero
    if not zero_over_zero:
        assert value == pytest.approx(num / den, rel=1e-12)


@pytest.mark.parametrize("num, den, zero_over_zero", ZERO_OVER_ZERO, ids=EDGE_IDS)
def test_maximize_limit_counts_zero_over_zero_as_zero(num, den, zero_over_zero):
    best = maximize_limit(*_x_ratio(num, den))
    assert abs(best.direction.nx) == 1.0
    if zero_over_zero:
        assert (best.value, best.kind) == (0.0, "lower_bound")
    else:
        assert best.value == pytest.approx(num / den, rel=1e-12)
        assert best.kind == "attained"


@pytest.mark.parametrize("num, den, zero_over_zero", ZERO_OVER_ZERO, ids=EDGE_IDS)
def test_maximize_slope_ratio_leaves_zero_over_zero_out(num, den, zero_over_zero):
    # Sigma's eigen-axis x carries num / den, the y-z plane carries 1
    best = maximize_slope_ratio(np.array([math.sqrt(num), 1.0, 0.0]), np.diag([den, 1.0, 1.0]))
    if zero_over_zero:
        assert best.value == pytest.approx(1.0, rel=1e-12)
        assert best.kind == "lower_bound"
    else:
        assert best.value == pytest.approx(1.0 + num / den, rel=1e-12)
        assert best.kind == "attained"


def test_only_numerics_indeterminate_compares_with_the_threshold():
    # docstrings may name INDETERMINATE_ATOL; code outside numerics may not, and
    # inside numerics only indeterminate compares with it
    def uses(tree):
        return any((isinstance(node, ast.Name) and node.id == "INDETERMINATE_ATOL")
                   or (isinstance(node, ast.Attribute) and node.attr == "INDETERMINATE_ATOL")
                   or (isinstance(node, ast.alias) and node.name == "INDETERMINATE_ATOL")
                   for node in ast.walk(tree))

    source = Path(numerics.__file__)
    trees = {path.name: ast.parse(path.read_text()) for path in source.parent.glob("*.py")}
    assert len(trees) >= 7
    assert [name for name, tree in sorted(trees.items())
            if name != source.name and uses(tree)] == []
    compares = [node for node in ast.walk(trees[source.name])
                if isinstance(node, ast.Compare) and uses(node)]
    predicate = next(node for node in trees[source.name].body
                     if isinstance(node, ast.FunctionDef) and node.name == "indeterminate")
    assert compares and all(any(node is inner for inner in ast.walk(predicate))
                            for node in compares)
