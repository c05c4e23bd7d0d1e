import math

import numpy as np
import pytest

from twistlab.numerics import IndeterminateRatioError
from twistlab.oat_metrology import qfi_closed_form
from twistlab.optimizer import (FULL_SPHERE, HEMISPHERE, SphereDomain,
                                maximize_on_sphere, maximize_quadratic_form,
                                maximize_slope_ratio)
from twistlab.spin_core import Direction


def _pointwise(f):
    """The vectorized objective, (k, 3) unit vectors -> k values, of f(Direction)."""
    return lambda units: np.array([f(Direction(*u)) for u in units])


def test_domain_validation():
    with pytest.raises(ValueError):
        SphereDomain(xi_lo=-0.1)
    with pytest.raises(ValueError):
        SphereDomain(theta_lo=1.0, theta_hi=0.5)
    with pytest.raises(ValueError):
        SphereDomain(xi_cells=3)


def test_north_pole_objective():
    res = maximize_on_sphere(lambda units: units[:, 2])
    assert res.value == pytest.approx(1.0, abs=1e-8)
    assert res.xi < 1e-4


def test_qfi_heisenberg_limit_objective():
    res = maximize_on_sphere(_pointwise(lambda d: qfi_closed_form(100, math.pi / 2, d.xi, d.theta)))
    assert res.value == pytest.approx(10000.0, rel=1e-12)
    assert abs(res.xi - math.pi / 2) < 1e-5


def test_degenerate_maxima_value_unique():
    # two symmetric peaks at theta and theta + pi; either argmax is fine
    res = maximize_on_sphere(_pointwise(lambda d: math.sin(d.xi) ** 2 * math.cos(2 * d.theta)))
    assert res.value == pytest.approx(1.0, abs=1e-8)


def test_monotone_refinement_and_determinism():
    def wiggly(d):
        return math.sin(3 * d.xi) * math.cos(2 * d.theta) + 0.3 * math.cos(7 * d.xi)

    res1 = maximize_on_sphere(_pointwise(wiggly))
    res2 = maximize_on_sphere(_pointwise(wiggly))
    assert (res1.value, res1.xi, res1.theta) == (res2.value, res2.xi, res2.theta)

    xg, tg = FULL_SPHERE.grid()
    grid_best = max(wiggly(Direction.from_angles(x, t)) for x in xg for t in tg)
    assert res1.value >= grid_best


def test_zoom_follows_a_narrow_ridge():
    # the maximum (xi, theta) = (1.39, 1.3) sits on a steep diagonal ridge;
    # a zoom that only shrinks stops about 1e-4 below it
    def ridge(units):
        xi = np.arccos(np.clip(units[:, 2], -1.0, 1.0))
        theta = np.arctan2(units[:, 1], units[:, 0])
        return -1e3 * (xi - 1.0 - 0.3 * theta) ** 2 - (theta - 1.3) ** 2

    res = maximize_on_sphere(ridge)
    assert res.converged
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert (res.xi, res.theta) == pytest.approx((1.39, 1.3), abs=1e-6)


def test_non_finite_points_skipped():
    def holey(d):
        if 0.4 < d.theta < 0.9:
            return math.nan
        return -((d.xi - 1.0) ** 2) - (d.theta + 2.0) ** 2

    res = maximize_on_sphere(_pointwise(holey))
    assert res.skipped > 0
    assert res.value == pytest.approx(0.0, abs=1e-8)


def test_hemisphere_bounds_respected():
    res = maximize_on_sphere(_pointwise(lambda d: math.sin(d.theta)), domain=HEMISPHERE)
    assert 0.0 <= res.theta <= math.pi
    assert res.value == pytest.approx(1.0, abs=1e-8)


def _random_spd(rng, scale=1.0):
    a = rng.normal(size=(3, 3))
    return scale * (a @ a.T + 0.1 * np.eye(3))


def test_quadratic_form_matches_search_and_stays_in_hemisphere():
    rng = np.random.default_rng(5)
    for _ in range(5):
        m = _random_spd(rng)
        exact = maximize_quadratic_form(m)
        search = maximize_on_sphere(lambda units: np.einsum("ki,ij,kj->k", units, m, units))
        assert exact.value == pytest.approx(search.value, rel=1e-9)
        n = exact.direction.as_array()
        assert n @ m @ n == pytest.approx(exact.value, rel=1e-12)
        assert exact.direction.ny > 0


def test_quadratic_form_degenerate_top_takes_first_axis():
    # x-y plateau: the x axis lies in the top eigenspace, so it is the argmax
    res = maximize_quadratic_form(np.diag([5.0, 5.0, 1.0]))
    assert res.value == 5.0
    assert (res.direction.nx, res.direction.ny, res.direction.nz) == (-1.0, 0.0, 0.0)
    # y-z plane: x is orthogonal to it, so y is taken
    res = maximize_quadratic_form(np.diag([1.0, 3.0, 3.0]))
    assert res.direction.ny == pytest.approx(1.0, abs=1e-15)
    # a rotated degenerate plane gives the same answer on every call
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(3, 3)))
    m = q @ np.diag([2.0, 2.0, 0.5]) @ q.T
    first = maximize_quadratic_form(m)
    assert first == maximize_quadratic_form(m.copy())
    assert first.value == pytest.approx(2.0, rel=1e-12)


def test_slope_ratio_is_the_best_readout():
    rng = np.random.default_rng(9)
    for _ in range(5):
        sigma = _random_spd(rng)
        slope = rng.normal(size=3)
        exact = maximize_slope_ratio(slope, sigma)
        assert exact.value == pytest.approx(slope @ np.linalg.solve(sigma, slope), rel=1e-12)
        m = exact.direction.as_array()
        assert (m @ slope) ** 2 / (m @ sigma @ m) == pytest.approx(exact.value, rel=1e-12)
        assert m[1] > 0
        search = maximize_on_sphere(
            lambda units: (units @ slope) ** 2 / np.einsum("ki,ij,kj->k", units, sigma, units),
            domain=HEMISPHERE)
        assert search.value <= exact.value * (1 + 1e-12)
        assert search.value == pytest.approx(exact.value, rel=1e-8)


def test_slope_ratio_zero_over_zero_raises():
    # a readout axis with no variance and no slope is 0/0, as in guarded_ratio
    sigma = np.diag([0.0, 2.0, 1.0])
    with pytest.raises(IndeterminateRatioError):
        maximize_slope_ratio(np.array([0.0, 1.0, 1.0]), sigma)
    # a small but determinate eigenvalue is kept
    res = maximize_slope_ratio(np.array([1e-3, 1.0, 0.0]), np.diag([1e-6, 2.0, 1.0]))
    assert res.value == pytest.approx(1.0 + 0.5, rel=1e-12)
