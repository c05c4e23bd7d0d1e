import ast
import math
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import twistlab.closed_form as cf
import twistlab.lattice_fr as lat
import twistlab.numerics as numerics
import twistlab.oat_metrology as oat
import twistlab.spin_core as sc
from dicke_oracle import dense_spin_matrices, limit_terms
from ring_oracle import ring_counts
from twistlab.closed_form import (Direction, IndeterminateRatioError, covariance_matrix,
                                  guarded_ratio, ising_covariance)
from twistlab.numerics import centred_moments, mom_limit, mom_limit_matrices
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


def _blas_untwist_moments(chi, untwist, axis, spin_apply):
    # untwist_moments as @ and vdot (BLAS) wrote it, with the slope 2 Im<J_a psi|G psi>
    psi = chi * untwist
    g_psi = (axis @ spin_apply(chi)) * untwist
    applied = spin_apply(psi)
    centred = applied - (applied @ psi.conj()).real[:, None] * psi
    return 2.0 * (applied.conj() @ g_psi).imag, (centred.conj() @ centred.T).real


def _blas_mom_limit_terms(plus, twist, spin_apply):
    # mom_limit_terms as @ and vdot (BLAS) write it, from g_i = G_i|+> = i h_i: the
    # residual drops g's complex overlaps with |+> and with the one row J_z|+> (norm^2 S/4)
    g = spin_apply(plus * twist) * twist.conj()
    j_plus = spin_apply(plus)
    half = round(2.0 * float(np.vdot(plus, j_plus[0]).real)) / 2.0
    j_z = j_plus[2]
    q = g - np.outer(g @ plus.conj(), plus) - np.outer(g @ j_z.conj(), j_z) / (half / 2.0)
    k_q = spin_apply(q)[0] - half * q
    a = 2.0 * (j_plus[1:].conj() @ g.T).imag
    return a, 2.0 * (q.conj() @ k_q.T).real, (k_q.conj() @ k_q.T).real


@pytest.mark.parametrize("n", [1, 2, 50, 1000])
def test_contractions_match_their_blas_forms(n):
    # einsum over float views against the @ and vdot forms (BLAS here, as the oracle):
    # every result within 1e-14 of its largest entry, or of 1 where it is rounding
    m = sc._m(n)
    twist = np.exp(-1j * (0.3 / math.sqrt(n)) * m * m)
    plus = sc.coherent_state(n, 1.0).amplitudes
    d = Direction.from_angles(1.1, 0.4)
    chi = sc.rotate(sc.CollectiveState(n, plus * twist), d, 0.05).amplitudes
    applied = d.as_array() @ sc._spin_apply(chi)
    mean = float(np.vdot(chi, applied).real)
    centred = applied - mean * chi
    pairs = [
        ((numerics.along(d.as_array(), sc._spin_apply(chi)),), (applied,)),
        (centred_moments(chi, applied), (mean, float(np.vdot(centred, centred).real))),
        (numerics.untwist_moments(chi, twist.conj(), d.as_array(), sc._spin_apply),
         _blas_untwist_moments(chi, twist.conj(), d.as_array(), sc._spin_apply)),
        (numerics.mom_limit_terms(plus, twist, sc._spin_apply),
         _blas_mom_limit_terms(plus, twist, sc._spin_apply)),
    ]
    for got, want in pairs:
        for g, w in zip(got, want):
            scale = max(float(np.max(np.abs(w))), 1.0)
            assert np.max(np.abs(np.subtract(g, w))) <= 1e-14 * scale, (g, w)


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


def test_only_closed_form_indeterminate_compares_with_the_threshold():
    # docstrings may name INDETERMINATE_ATOL; code outside closed_form may not, and
    # inside closed_form only indeterminate compares with it
    def uses(tree):
        return any((isinstance(node, ast.Name) and node.id == "INDETERMINATE_ATOL")
                   or (isinstance(node, ast.Attribute) and node.attr == "INDETERMINATE_ATOL")
                   or (isinstance(node, ast.alias) and node.name == "INDETERMINATE_ATOL")
                   for node in ast.walk(tree))

    source = Path(cf.__file__)
    trees = {path.name: ast.parse(path.read_text()) for path in source.parent.glob("*.py")}
    assert len(trees) >= 8
    assert [name for name, tree in sorted(trees.items())
            if name != source.name and uses(tree)] == []
    compares = [node for node in ast.walk(trees[source.name])
                if isinstance(node, ast.Compare) and uses(node)]
    predicate = next(node for node in trees[source.name].body
                     if isinstance(node, ast.FunctionDef) and node.name == "indeterminate")
    assert compares and all(any(node is inner for inner in ast.walk(predicate))
                            for node in compares)


@pytest.mark.parametrize("n,t,rtol", [(100, 1e-6, 1e-5), (40, 1e-4, 1e-8)])
def test_dicke_b_keeps_its_digits(n, t, rtol):
    # B = H - (4/S) E^T E by difference read B_yy -1.07e-14 for 3.27e-18 (N = 100)
    # and 9e-4 off (N = 40); the Gram form measured 4.0e-6 and 5.6e-9
    pytest.importorskip("mpmath")
    _, _, b = mom_limit_matrices(*oat._mom_limit_terms(n, t), n)
    for value, exact in zip(b, limit_terms(n, t)[2]):
        assert abs(value - exact) <= rtol * exact


@pytest.mark.parametrize("n", [4, 10, 50, 200])
def test_dicke_limit_terms_match_the_oracle(n):
    # A, C and B against limit_terms at 60 digits.  Measured: A within 5.9e-15 of its
    # largest entry and C_xx, B_xx within 4.4e-14 relative; C_yy and B_yy lose digits
    # as eps / t^2, at most 1.45 eps / t^2 (3.2e-2 at N = 4, t = 1e-7)
    pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    for t in (0.5, 1e-2, 1e-4, 1e-5, 1e-6, 1e-7):
        a, c, b = oat._mom_limit_terms(n, t)
        exact_a, exact_c, exact_b = limit_terms(n, t)
        exact_a = np.array(exact_a, dtype=float)
        assert np.max(np.abs(a - exact_a)) <= 1e-14 * np.max(np.abs(exact_a)), t
        for i, rtol in enumerate((1e-13, 1e-13 + 2.0 * eps / t**2)):  # x, then y
            for got, want in ((c[i, i], float(exact_c[i])), (b[i, i], float(exact_b[i]))):
                assert abs(got - want) <= rtol * abs(want), (t, i)


def _limit_term_cases():
    for n in (4, 5, 10, 50, 200, 1000, 10**4):
        yield n, partial(oat._mom_limit_terms, n)
    for n in range(2, 13, 2):
        for k in range(1, n // 2 + 1):
            yield n + 2, partial(lat._mom_limit_terms, lat.build_system(n, k))


@pytest.mark.parametrize("t", [1.5, 0.3, 1e-2, 1e-4, 1e-7])
def test_limit_terms_have_one_sign(t):
    # C_ii = -2 sum_n n w_n <= 0 and B_ii = sum_n n^2 w_n >= 0 over the residual's flip
    # numbers n >= 2.  B's diagonal is a sum of squares, so it is >= 0 exactly; rounding
    # in 2 Re<q_i|K q_i> is at most about eps S |q_i| |K q_i|, with |q_i| <= S/2 and
    # |K q_i|^2 = B_ii, so C_ii may exceed 0 by eps S^2 sqrt(B_ii).  Measured: none does,
    # on Dicke N = 4 to 10^4 and on every ring of 4 to 14 sites, down to t = 1e-7
    eps = np.finfo(float).eps
    for n_spins, terms in _limit_term_cases():
        _, c, b = terms(t)
        c, b = np.diag(c), np.diag(b)
        assert np.all(b >= 0.0), (n_spins, b)
        assert np.all(c <= eps * n_spins**2 * np.sqrt(b)), (n_spins, c)


@pytest.mark.parametrize("n,k", [(2, 1), (4, 1), (10, 1), (10, 5), (12, 1), (12, 5), (12, 6)])
def test_ring_b_is_non_negative_at_small_t(n, k):
    # B is a variance rate: the difference form gave -1.6e-15 to -3.6e-15 on the
    # 12-site rings and at (4, 1)
    system = lat.build_system(n, k)
    _, _, b = mom_limit_matrices(*lat._mom_limit_terms(system, 1e-6), system.n_sites)
    assert np.all(b >= 0.0)


def test_dicke_b_is_non_negative_at_large_n():
    # the difference form gave B_yy = -1.8e-11 here
    n = 10**5
    _, _, b = mom_limit_matrices(*oat._mom_limit_terms(n, n**-1.5), n)
    assert np.all(b >= 0.0)


@pytest.mark.parametrize("n", [10**4, 10**5])
def test_dicke_limit_terms_hold_few_states(n):
    # J applied to |+> and the three h_i stacked together, 12 states of which six were
    # read, traced 42 states at both N
    tracemalloc.start()
    try:
        oat._mom_limit_terms(n, n**-0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 16 * (n + 1)


def test_only_closed_form_calls_expm1():
    # the small-t powers of every closed form are taken in closed_form alone, so they
    # cannot split into two copies with two sets of edge cases again
    def uses(tree):
        return any((isinstance(node, ast.Name) and node.id == "expm1")
                   or (isinstance(node, ast.Attribute) and node.attr == "expm1")
                   or (isinstance(node, ast.alias) and node.name == "expm1")
                   for node in ast.walk(tree))

    source = Path(cf.__file__)
    trees = {path.name: ast.parse(path.read_text()) for path in source.parent.glob("*.py")}
    assert len(trees) >= 8
    assert [name for name, tree in sorted(trees.items()) if uses(tree)] == [source.name]


DICKE_N = (1, 2, 3, 100, 10**4, 10**5, 10**6)
DICKE_T = (1e-7, 1e-4, 0.05, 0.7, 1.2, math.pi / 2)
RINGS = ((4, 1), (12, 3), (12, 6), (98, 24), (98, 49), (998, 10), (998, 250), (998, 499))
RING_T = (1e-6, 1e-3, 0.3, 1.0, math.pi / 2)

# relative errors (xx, yy, yz) of the two Sigma functions before they shared
# ising_covariance, against 50 digits, rounded up; points not listed were all
# below 5e-16.  A 1.0 is an entry that underflows to 0 in double precision.
# keys: (N, index into DICKE_T) and (N, K, index into RING_T)
SEPARATE_FORMS_ERRORS = {
    (100, 0): (6.8e-15, 6.4e-17, 2.1e-16),
    (100, 1): (6.6e-15, 5.3e-17, 2.8e-15),
    (100, 2): (4.5e-17, 1.5e-16, 3.6e-15),
    (100, 3): (1.8e-23, 0.0, 5.2e-15),
    (100, 4): (5.8e-17, 5.8e-17, 6.4e-16),
    (100, 5): (3.7e-31, 3.7e-29, 1.0),
    (10000, 0): (9.5e-13, 3.0e-17, 4.0e-14),
    (10000, 1): (2.4e-13, 2.0e-18, 2.7e-13),
    (10000, 2): (1.7e-17, 1.8e-22, 3.7e-13),
    (10000, 3): (0.0, 0.0, 1.0),
    (10000, 4): (0.0, 0.0, 1.0),
    (10000, 5): (3.8e-29, 3.8e-25, 1.0),
    (100000, 0): (1.1e-11, 3.9e-17, 4.0e-13),
    (100000, 1): (6.8e-14, 6.8e-17, 2.7e-12),
    (100000, 2): (0.0, 0.0, 3.7e-12),
    (100000, 3): (0.0, 0.0, 1.0),
    (100000, 4): (0.0, 0.0, 1.0),
    (100000, 5): (3.8e-28, 3.8e-23, 1.0),
    (1000000, 0): (3.0e-11, 5.2e-17, 4.0e-12),
    (1000000, 1): (1.8e-14, 8.1e-17, 2.7e-11),
    (1000000, 2): (0.0, 0.0, 1.0),
    (1000000, 3): (0.0, 0.0, 1.0),
    (1000000, 4): (0.0, 0.0, 1.0),
    (1000000, 5): (3.8e-27, 3.8e-21, 1.0),
    (12, 3, 0): (2.5e-15, 2.5e-18, 2.9e-16),
    (12, 3, 3): (1.9e-15, 2.0e-16, 3.7e-16),
    (12, 6, 0): (8.7e-16, 6.2e-17, 5.6e-16),
    (12, 6, 1): (1.2e-15, 5.5e-17, 1.4e-16),
    (12, 6, 2): (4.4e-16, 3.9e-17, 5.9e-16),
    (12, 6, 3): (7.0e-17, 1.5e-16, 8.5e-16),
    (98, 24, 0): (1.4e-15, 4.5e-17, 2.1e-15),
    (98, 24, 1): (1.8e-15, 1.4e-17, 3.2e-16),
    (98, 24, 2): (1.1e-18, 7.9e-16, 2.2e-15),
    (98, 24, 3): (1.7e-15, 1.3e-16, 4.1e-15),
    (98, 24, 4): (7.5e-33, 0.0, 1.0),
    (98, 49, 0): (8.5e-15, 3.0e-17, 4.4e-15),
    (98, 49, 1): (9.6e-15, 3.9e-17, 7.2e-16),
    (98, 49, 2): (3.1e-16, 2.1e-16, 4.2e-15),
    (98, 49, 3): (1.6e-15, 4.4e-16, 8.7e-15),
    (98, 49, 4): (0.0, 3.7e-31, 1.0),
    (998, 10, 0): (1.1e-13, 4.0e-17, 8.9e-16),
    (998, 10, 1): (5.5e-14, 2.9e-17, 1.8e-16),
    (998, 10, 2): (1.1e-14, 5.2e-16, 1.1e-15),
    (998, 10, 3): (2.8e-13, 3.8e-17, 1.8e-15),
    (998, 250, 0): (1.1e-13, 6.1e-18, 2.3e-14),
    (998, 250, 1): (1.5e-14, 5.1e-16, 4.0e-15),
    (998, 250, 2): (1.1e-14, 7.2e-16, 2.2e-14),
    (998, 250, 3): (4.3e-14, 1.5e-16, 4.4e-14),
    (998, 250, 4): (7.5e-33, 0.0, 1.0),
    (998, 499, 0): (6.6e-14, 7.4e-18, 4.5e-14),
    (998, 499, 1): (1.6e-14, 1.5e-16, 7.8e-15),
    (998, 499, 2): (2.5e-16, 2.5e-16, 4.4e-14),
    (998, 499, 3): (1.8e-16, 3.8e-16, 8.8e-14),
    (998, 499, 4): (0.0, 3.8e-30, 1.0),
}


# RING_T index where cos t > 0 >= cos 2t: there the cosine powers are taken in 40-digit
# decimal on every platform, which puts every ring entry within 2.4e-16, so the separate
# forms' errors (Sigma_yz 8.8e-14 at (998, 499)) no longer bound them
RING_DECIMAL_T = 3


def _assert_within_twice_the_separate_forms(sigma, exact, key, fresh=False):
    bounds = (0.0, 0.0, 0.0) if fresh else SEPARATE_FORMS_ERRORS.get(key, (0.0, 0.0, 0.0))
    for value, ref, bound in zip((sigma[0][0], sigma[1][1], sigma[1][2]), exact, bounds):
        assert math.isfinite(value), key
        error = abs(value - ref) / abs(ref) if ref != 0 else abs(value - ref)
        assert error <= max(2.0 * bound, 1e-15), (key, float(error))


@pytest.mark.parametrize("n", DICKE_N)
def test_dicke_covariance_keeps_its_digits(n):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    big = mp.mpf(n)
    for j, t in enumerate(DICKE_T):
        c, s = mp.cos(mp.mpf(t)), mp.cos(2 * mp.mpf(t))
        # A + B - C, A - B and Y of the textbook form, each over 4
        a, b = (big * big + big) / 2, big * (big - 1) / 2 * s ** (n - 2)
        exact = ((a + b - big * big * c ** (2 * n - 2)) / 4, (a - b) / 4,
                 big * (big - 1) * c ** (n - 2) * mp.sin(mp.mpf(t)) / 4)
        sigma = covariance_matrix(n, t)
        assert sigma[2][2] == n / 4.0
        _assert_within_twice_the_separate_forms(sigma, exact, (n, j))


@pytest.mark.parametrize("n,k", RINGS)
def test_ring_covariance_keeps_its_digits(n, k):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    m, (one, both) = n + 2, ring_counts(n + 2, k)
    big = mp.mpf(m)
    for j, t in enumerate(RING_T):
        c, s = mp.cos(mp.mpf(t)), mp.cos(2 * mp.mpf(t))
        ends = [(c ** int(o), s ** int(b)) for o, b in zip(one, both)]
        # the per-distance sums with their M^2/4-sized terms left to cancel
        exact = (big * big / 4 * (1 - c ** (4 * k))
                 - big / 8 * mp.fsum((1 - e) + (1 - e * f) for e, f in ends),
                 big / 4 + big / 8 * mp.fsum(e * (1 - f) for e, f in ends),
                 big * k * mp.sin(mp.mpf(t)) * c ** (2 * k - 1) / 2)
        fresh = j == RING_DECIMAL_T
        sigma = cf.fr_covariance_matrix(n, k, t)
        _assert_within_twice_the_separate_forms(sigma, exact, (n, k, j), fresh)


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_complete_graph_class_matches_the_dense_state(n):
    # N = 1 has no pairs and N = 2 none next to both ends
    jx, jy, jz, _, _ = dense_spin_matrices(n)
    plus = np.sqrt([math.comb(n, ell) for ell in range(n + 1)]) / 2.0 ** (n / 2)
    for t in (1e-3, 0.3, 0.7, 1.0, 1.4, math.pi / 2):
        psi = np.exp(-1j * t * np.diag(jz).real ** 2) * plus
        applied = [op @ psi for op in (jx, jy, jz)]
        means = [np.vdot(psi, a).real for a in applied]
        dense = np.array([[np.vdot(a, b).real - ma * mb for b, mb in zip(applied, means)]
                          for a, ma in zip(applied, means)])
        sigma = ising_covariance(n, n - 1, (0,), (n - 2,), (n - 1,), t)
        assert np.max(np.abs(sigma - dense)) <= 1e-13 * n * n, (n, t)


def test_dicke_covariance_is_one_class_in_constant_memory():
    tracemalloc.start()
    try:
        covariance_matrix(10**7, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000


# numpy's elementwise kernels that the closed-form layer once ran on 1- to 7-element
# arrays: each first call of a (ufunc, dtype) loop faults numpy code into the job
CLOSED_FORM_REFUSED = ("exp", "expm1", "sum", "maximum", "where", "arange", "hypot", "sign",
                       "einsum")
CLOSED_FORMS = {
    "fr_covariance_matrix": lambda t: cf.fr_covariance_matrix(998, 300, t),
    "covariance_matrix": lambda t: covariance_matrix(1000, t),
    "fr_max_qfi": lambda t: (cf.fr_max_qfi(98, 10, t), cf.fr_max_qfi(998, 300, t)),
    "max_qfi_over_directions": lambda t: cf.max_qfi_over_directions(1000, t),
    "fr_variance_analytic": lambda t: lat.fr_variance_analytic(98, 10, t, 1.1, 0.4),
    "qfi_closed_form": lambda t: oat.qfi_closed_form(1000, t, 1.1, 0.4),
}


@pytest.mark.parametrize("t", [1e-6, 0.3, 0.7])
@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_closed_forms_below_pi_over_4_run_in_python_floats(monkeypatch, name, t):
    # cos t and cos 2t are positive: the class sums, Sigma, its block maximum and
    # n^T Sigma n are plain floats, with the same bits (repr) as an unpatched call
    def refuse(*args, **kwargs):
        raise RuntimeError("numpy kernel called")

    expected = repr(CLOSED_FORMS[name](t))
    with monkeypatch.context() as patch:
        for attr in CLOSED_FORM_REFUSED:
            patch.setattr(np, attr, refuse)
        got = repr(CLOSED_FORMS[name](t))
    assert got == expected
