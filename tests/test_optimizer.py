import numpy as np
import pytest

from sphere_oracle import sphere_search
from twistlab.closed_form import (Direction, IndeterminateRatioError, ScanRecord, SphereMaximum,
                                  _in_hemisphere, maximize_quadratic_form)
from twistlab.numerics import mom_limit
from twistlab.optimizer import JointMaximum, _symmetric_eigen, maximize_limit, maximize_slope_ratio


def _random_spd(rng, scale=1.0):
    a = rng.normal(size=(3, 3))
    return scale * (a @ a.T + 0.1 * np.eye(3))


def _random_block_spd(rng, x_wins):
    """M_xx (+) a positive definite (y, z) block, the form of every caller's matrix,
    with M_xx 1.5 or 0.5 times the block's top eigenvalue (give or take 20%): a
    near tie would leave the grid oracle on the saddle of the smaller one."""
    m = np.zeros((3, 3))
    a = rng.normal(size=(2, 2))
    m[1:, 1:] = a @ a.T + 0.1 * np.eye(2)
    m[0, 0] = (1.5 if x_wins else 0.5) * rng.uniform(0.8, 1.2) * np.linalg.eigvalsh(m)[-1]
    return m


def test_quadratic_form_matches_search_and_stays_in_hemisphere():
    rng = np.random.default_rng(5)
    for i in range(8):
        m = _random_block_spd(rng, x_wins=i % 2 == 0)
        exact = maximize_quadratic_form(m)
        search, _ = sphere_search(lambda units: np.einsum("ki,ij,kj->k", units, m, units))
        assert exact.value == pytest.approx(search, rel=1e-9)
        assert exact.value == pytest.approx(np.linalg.eigvalsh(m)[-1], rel=1e-14)
        n = exact.direction.as_array()
        assert n @ m @ n == pytest.approx(exact.value, rel=1e-12)
        assert n[1] > 0 or (n[1] == 0 and n[0] == -1.0)


def test_quadratic_form_degenerate_top_takes_first_axis():
    # M_xx ties the block's top eigenvalue: x
    res = maximize_quadratic_form(np.diag([5.0, 5.0, 1.0]))
    assert res.value == 5.0
    assert (res.direction.nx, res.direction.ny, res.direction.nz) == (-1.0, 0.0, 0.0)
    c, s = np.cos(0.4), np.sin(0.4)
    block = np.array([[c, -s], [s, c]]) @ np.diag([2.0, 0.5]) @ np.array([[c, s], [-s, c]])
    m = np.zeros((3, 3))
    m[0, 0], m[1:, 1:] = 2.0 * (1 + 1e-14), block
    res = maximize_quadratic_form(m)
    assert (res.direction.nx, res.direction.ny, res.direction.nz) == (-1.0, 0.0, 0.0)
    assert res.value == pytest.approx(2.0, rel=1e-13)
    # a degenerate block above M_xx, exactly (its eigenvector formula gives the
    # zero vector there) and within 1e-14: y
    for zz in (3.0, 3.0 * (1 - 1e-14)):
        res = maximize_quadratic_form(np.diag([1.0, 3.0, zz]))
        assert (res.direction.nx, res.direction.ny, res.direction.nz) == (0.0, 1.0, 0.0)
        assert res.value == 3.0
    # all three tie: x
    res = maximize_quadratic_form(np.diag([3.0, 3.0, 3.0]))
    assert (res.direction.nx, res.direction.ny, res.direction.nz) == (-1.0, 0.0, 0.0)


@pytest.mark.parametrize("a,d", [(2.0, 1.0), (1.0, 2.0)])
def test_quadratic_form_eigenvector_keeps_its_digits(a, d):
    # the block eigenvector's small component is b / |a - d| to the last digit,
    # whichever diagonal entry is larger
    m = np.array([[0.0, 0.0, 0.0], [0.0, a, 1e-20], [0.0, 1e-20, d]])
    n = maximize_quadratic_form(m).direction.as_array()
    small = n[2] if a > d else n[1]
    assert small == pytest.approx(1e-20, rel=1e-15)


def test_quadratic_form_takes_entries_past_the_square_root_of_overflow():
    # the block eigenvector has entries of the matrix's size; its norm is scaled
    m = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
    huge, plain = maximize_quadratic_form(1e300 * m), maximize_quadratic_form(m)
    assert huge.value == pytest.approx(1e300 * plain.value, rel=1e-15)
    assert np.allclose(huge.direction.as_array(), plain.direction.as_array(), rtol=0, atol=1e-15)


@pytest.mark.parametrize("entry", [(0, 1), (0, 2), (1, 0), (2, 0)])
def test_quadratic_form_rejects_x_couplings(entry):
    m = np.diag([1.0, 2.0, 3.0])
    m[entry] = 1e-300
    with pytest.raises(ValueError, match="couples x"):
        maximize_quadratic_form(m)


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
        search, _ = sphere_search(
            lambda units: (units @ slope) ** 2 / np.einsum("ki,ij,kj->k", units, sigma, units))
        assert search <= exact.value * (1 + 1e-12)
        assert search == pytest.approx(exact.value, rel=1e-8)


def test_slope_ratio_zero_over_zero_raises():
    # only when every readout axis has no variance and no slope (0/0, as in guarded_ratio)
    with pytest.raises(IndeterminateRatioError):
        maximize_slope_ratio(np.zeros(3), np.diag([0.0, 1e-13, 0.0]))
    # one 0/0 axis is left out: its ratio is >= 0, so the rest is a lower bound
    res = maximize_slope_ratio(np.array([0.0, 1.0, 1.0]), np.diag([0.0, 2.0, 1.0]))
    assert res.kind == "lower_bound"
    assert res.value == 0.5 + 1.0
    assert res.direction.nx == 0.0
    # a small but determinate eigenvalue is kept
    res = maximize_slope_ratio(np.array([1e-3, 1.0, 0.0]), np.diag([1e-6, 2.0, 1.0]))
    assert res.value == pytest.approx(1.0 + 0.5, rel=1e-12)
    assert res.kind == "attained"


def _random_limit(rng):
    """P's (y, z) block and C's and B's (x, y) diagonals of a limit L(n), shaped as
    on the ring: a random positive semidefinite block, a random and a positive diagonal."""
    a = rng.normal(size=(2, 2))
    return a.T @ a, rng.normal(size=2), rng.uniform(0.1, 3.0, size=2)


def test_limit_matches_search_and_is_attained():
    rng = np.random.default_rng(17)
    for _ in range(8):
        p, c, b = _random_limit(rng)
        exact = maximize_limit(p, c, b)
        search, _ = sphere_search(lambda units: mom_limit(p, c, b, units))
        assert search <= exact.value * (1 + 1e-12)
        assert exact.value == pytest.approx(search, rel=1e-9)
        n = exact.direction.as_array()
        assert mom_limit(p, c, b, n[None])[0] == exact.value
        # the argmax is x or lies in the y-z plane; either way in the reported hemisphere
        assert n[1] > 0 or (n[1] == 0 and n[0] == -1.0)


def test_limit_tie_takes_x_and_never_zero_over_zero():
    # the ring's t = pi/2 structure: L = 10 at x, at y and on the x-z and y-z
    # great circles, while n = z itself is 0/0
    p, c, b = np.diag([0.0, 10.0]), np.array([-10.0, -15.0]), np.array([10.0, 22.5])
    res = maximize_limit(p, c, b)
    assert (res.direction.nx, res.direction.ny, res.direction.nz) == (-1.0, 0.0, 0.0)
    assert res.value == pytest.approx(10.0, rel=1e-15)


def test_limit_near_zero_over_zero_reports_its_lower_bound():
    # L -> 20 near z, where n = z itself is 0/0, against 10 at x: z is reported
    # with its bound n^T P n = 20
    p, c, b = np.diag([0.0, 20.0]), np.array([-10.0, -15.0]), np.array([10.0, 22.5])
    res = maximize_limit(p, c, b)
    assert (res.direction.nx, res.direction.ny, abs(res.direction.nz)) == (0.0, 0.0, 1.0)
    assert res.value == 20.0
    assert res.kind == "lower_bound"
    assert maximize_limit(p / 2, c, b).kind == "attained"


def _seeded_spd(rng, condition):
    """Q diag(lambda) Q^T with eigenvalues from 1 to condition, in a random basis."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    lam = np.array([1.0, condition ** rng.uniform(0.0, 1.0), condition])
    sigma = (q * lam) @ q.T
    return (sigma + sigma.T) / 2.0


@pytest.mark.parametrize("seed", range(6))
def test_slope_ratio_matches_eigh_on_seeded_matrices(seed):
    # eigh (LAPACK, here only as the oracle) and Jacobi are both backward stable, so
    # they agree to 1e-14 of what a relative change of Sigma moves to first order:
    # ||Sigma|| ||Sigma^-1 D||^2 for the value and the condition number for the
    # readout (measured 4.6e-16 and 6.5e-16).  Relative to the value itself they
    # differ by up to 8.4e-9 at condition 1e8, where D^T Sigma^-1 D has no more digits
    rng = np.random.default_rng(seed)
    for condition in (1.0, 10.0, 1e4, 1e8):
        sigma = _seeded_spd(rng, condition) * 10.0 ** rng.uniform(-3, 3)
        slope = rng.normal(size=3)
        w, v = np.linalg.eigh(sigma)
        components = v.T @ slope
        value, readout = float(np.sum(components**2 / w)), v @ (components / w)
        readout *= np.sign(readout[1]) / np.linalg.norm(readout)
        best = maximize_slope_ratio(slope, sigma)
        scale = w[-1] * float(np.sum((components / w) ** 2))
        assert abs(best.value - value) <= 1e-14 * scale
        assert np.max(np.abs(best.direction.as_array() - readout)) <= 1e-14 * condition


def test_slope_ratio_keeps_the_digits_of_graded_matrices():
    # Sigma = G A G, A well conditioned with unit diagonal, G from 1e-6 to 1e2:
    # eigenvalues from about 1e-12 to 1e4.  Jacobi's relative stopping rule keeps
    # the small eigenvalues' digits; a tridiagonal reduction need not
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    rng = np.random.default_rng(23)
    for _ in range(20):
        g = np.array([1e-6, 10.0 ** rng.uniform(-6, 2), 1e2])
        rng.shuffle(g)
        b = rng.normal(size=(3, 3))
        a = b @ b.T + 3.0 * np.eye(3)
        a /= np.sqrt(np.outer(np.diag(a), np.diag(a)))
        sigma = a * np.outer(g, g)
        sigma = (sigma + sigma.T) / 2.0
        slope = rng.normal(size=3)
        x = mp.lu_solve(mp.matrix(sigma.tolist()), mp.matrix(slope.tolist()))
        exact = float(mp.fsum(mp.mpf(float(d)) * xi for d, xi in zip(slope, x)))
        readout = np.array([float(xi) for xi in x])
        readout *= np.sign(readout[1]) / np.linalg.norm(readout)
        best = maximize_slope_ratio(slope, sigma)
        assert abs(best.value / exact - 1.0) <= 1e-14
        assert np.max(np.abs(best.direction.as_array() - readout)) <= 1e-14


@pytest.mark.parametrize("sigma", [np.eye(3), np.diag([2.0, 2.0, 0.5]), np.diag([0.5, 2.0, 2.0])],
                         ids=["identity", "xy-plane", "yz-plane"])
def test_slope_ratio_on_exactly_degenerate_matrices(sigma):
    # any basis of a degenerate eigenspace gives the same Sigma^-1 D
    slope = np.array([0.3, 1.1, -0.7])
    best = maximize_slope_ratio(slope, sigma)
    want = slope / np.diag(sigma)
    assert best.value == pytest.approx(float(slope @ want), rel=1e-15)
    assert np.max(np.abs(best.direction.as_array() - want / np.linalg.norm(want))) <= 1e-15
    assert best.kind == "attained"


def test_slope_ratio_leaves_out_a_rotated_zero_over_zero_axis():
    # the mean spin of a coherent state along a general u: no variance, no slope
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    sigma = (q * np.array([0.0, 2.0, 1.0])) @ q.T
    slope = q @ np.array([0.0, 1.0, 1.0])
    best = maximize_slope_ratio(slope, (sigma + sigma.T) / 2.0)
    assert best.kind == "lower_bound"
    assert best.value == pytest.approx(0.5 + 1.0, rel=1e-14)
    assert abs(best.direction.as_array() @ q[:, 0]) <= 1e-14


def test_symmetric_eigen_is_ascending_and_orthonormal():
    rng = np.random.default_rng(8)
    for _ in range(20):
        sigma = _seeded_spd(rng, 10.0 ** rng.uniform(0, 8)) - 0.5 * np.eye(3)
        w, v = _symmetric_eigen(sigma)
        assert list(w) == sorted(w)
        # a few roundings: 8.9e-16 and 9.7e-16 measured (eigh: 7.8e-16 and 1.8e-15)
        assert np.max(np.abs(v.T @ v - np.eye(3))) <= 4e-15
        assert np.max(np.abs((v * w) @ v.T - sigma)) <= 4e-15 * np.max(np.abs(sigma))


def test_symmetric_eigen_refuses_nan():
    sigma = np.eye(3)
    sigma[0, 1] = sigma[1, 0] = np.nan
    with pytest.raises(ArithmeticError, match="did not converge"):
        _symmetric_eigen(sigma)


@pytest.mark.parametrize("vec", [(np.nan, 0.0, 0.0), (0.0, 1.0, np.inf), (0.0, 0.0, 0.0)])
def test_in_hemisphere_refuses_a_non_finite_vector(vec):
    # next() over no nonzero component once raised StopIteration
    with pytest.raises(ArithmeticError, match="no direction"):
        _in_hemisphere(np.array(vec))


def test_quadratic_form_refuses_nan():
    with pytest.raises(ArithmeticError, match="no direction"):
        maximize_quadratic_form(np.diag([1.0, np.nan, 0.5]))


def test_results_are_records_with_their_fields_and_defaults():
    best = SphereMaximum(Direction.from_angles(0.3, 0.4), 2.0)
    assert best._fields == ("direction", "value", "kind") and best.kind == "attained"
    assert (best.xi, best.theta) == pytest.approx((0.3, 0.4), abs=1e-15)
    assert JointMaximum._fields == ("rotation", "readout", "value", "limit", "limit_kind", "kind")
    assert JointMaximum._field_defaults == {"limit_kind": "attained", "kind": "attained"}
    assert ScanRecord._fields[-1] == "q" and ScanRecord._field_defaults == {"q": None}
