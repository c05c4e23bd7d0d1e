"""The 0/0 guard, the centred moments of one collective operator, the protocol
moments (D, Sigma) and their reciprocal error, the phi -> 0 Taylor terms, matrices
and limit, and the closed-form twisted covariance with its small-t powers."""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

# numerator/denominator threshold below which a ratio is declared 0/0
INDETERMINATE_ATOL = 1e-12


class IndeterminateRatioError(ArithmeticError):
    """Raised when both the squared signal derivative and the variance vanish.

    Marks a 0/0 point of the method-of-moments error (e.g. phi = k pi / N for
    the interaction-time-pi/2 protocol); evaluate at a nearby phi instead.
    """

    def __init__(self, numerator: float, denominator: float):
        super().__init__(
            f"indeterminate ratio: numerator {numerator:.3e} and denominator "
            f"{denominator:.3e} both below {INDETERMINATE_ATOL:g}")
        self.numerator = numerator
        self.denominator = denominator


def indeterminate(numerator, denominator):
    """Whether numerator / denominator is 0/0: both below INDETERMINATE_ATOL,
    elementwise over arrays.  Every 0/0 test in the package is this one."""
    return (numerator < INDETERMINATE_ATOL) & (denominator < INDETERMINATE_ATOL)


def guarded_ratio(numerator: float, denominator: float) -> float:
    if indeterminate(numerator, denominator):
        raise IndeterminateRatioError(numerator, denominator)
    return numerator / denominator


def re_inner(subscripts: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re(x^* y) contracted by einsum subscripts over the float views of x and y (last axis
    contiguous), which pair re with re and im with im: no conj() copy, and no BLAS."""
    return np.einsum(subscripts, x.view(float), y.view(float))


def along(weights: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_a weights[a, ...] stack[a]: real weights on a (k, L) complex stack's float view."""
    return np.einsum("a...,al->...l", weights, stack.view(float)).view(complex)


def centred_moments(psi: np.ndarray, applied: np.ndarray) -> tuple[float, float]:
    """<A> and Var(A) = ||(A - <A>) psi||^2 from psi and applied = A psi, A hermitian.

    The centred form is non-negative by construction and keeps a variance that
    is tiny next to <A^2> (a true zero reads as rounding, not as cancellation).
    """
    mean = float(re_inner("i,i", psi, applied))
    centred = mean * psi
    np.subtract(applied, centred, out=centred)  # one state of scratch
    return mean, float(re_inner("i,i", centred, centred))


def untwist_moments(chi: np.ndarray, untwist, axis: np.ndarray,
                    spin_apply: Callable[[np.ndarray], np.ndarray]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """D = d<J>/dphi and the covariance matrix Sigma of J in psi = U chi.

    chi is the state just after the sensing rotation exp(-i phi n.J), n = axis, and
    U = diag(untwist) the layer after it (1 for none); spin_apply maps states along the
    last axis to the (J_x, J_y, J_z) stack on a new first axis.  d psi/dphi = -i G psi
    with G psi = U (n.J) chi, so the slope is exact: D_a = 2 Re<J_a psi|d psi/dphi>.
    Sigma is centred, Re<(J_a - <J_a>) psi|(J_b - <J_b>) psi>: the best readout's
    variance can be tiny next to <(m.J)^2>, and must not be picked by rounding.
    """
    psi, d_psi = chi * untwist, along(axis, spin_apply(chi))
    d_psi *= -1j * untwist
    applied = spin_apply(psi)
    slope = 2.0 * re_inner("ai,i->a", applied, d_psi)
    for row, mean in zip(applied, re_inner("ai,i->a", applied, psi)):
        row -= mean * psi  # centred in place: no second stack
    return slope, re_inner("ai,bi->ab", applied, applied)


def mom_reciprocal(slope: np.ndarray, covariance: np.ndarray, readout: np.ndarray) -> float:
    """(m.D)^2 / m^T Sigma m, the reciprocal method-of-moments error of readout m;
    a 0/0 point (indeterminate) raises IndeterminateRatioError."""
    return guarded_ratio(float(np.einsum("i,i", readout, slope)) ** 2,
                         max(float(np.einsum("i,ij,j", readout, covariance, readout)), 0.0))


def mom_limit_terms(plus: np.ndarray, twist: np.ndarray,
                    spin_apply: Callable[[np.ndarray], np.ndarray]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A, E, F and B: the phi-Taylor terms of <J> and Sigma in the twist-untwist state.

    The protocol state is exp(-i phi G)|+> with G = sum_i n_i G_i and
    G_i = U^dag J_i U, |+> the x-polarized product state of S spins and
    U = diag(twist) the twist.  spin_apply maps states along the last axis to
    the (J_x, J_y, J_z) stack on a new first axis.  From h_i = -i G_i|+> and
    K h_i, where K = J_x - S/2 annihilates |+>, and with b = y, z:
      - the transverse slope at 0 is (A n)_b, A_bi = 2 Re<J_b +|h_i>;
      - the x slope grows as phi n^T F n, F_ij = 2 Re<h_i|K|h_j>;
      - Cov(J_x, J_b) grows as phi (E n)_b, E_bi = Re<J_b +|K h_i>;
      - Var(J_x) grows as phi^2 n^T H n, H = B + (4/S) E^T E, with B_ij =
        Re<r_i|r_j> the Gram matrix of the residuals r_i = K h_i - (4/S)
        sum_b E_bi J_b|+> of K h_i after its overlap with J_y|+> and J_z|+>;
      - the transverse covariance at 0 is (S/4) I.
    B is the Schur complement H - (4/S) E^T E, formed as a Gram matrix so that
    it is >= 0 by construction: the difference cancels to rounding at small t.
    No G^2|+> is needed: it enters only through <+|K|G^2 +> = 0.  The twist
    is diagonal and J a sum of one-site terms, so this costs a few stack
    applications, and every product is a real part (re_inner).
    """
    h = spin_apply(plus * twist) * (-1j * twist.conj())
    j_plus = spin_apply(plus)
    # <+|J_x|+> = S/2 is a half-integer, so rounding makes it exact
    half = round(2.0 * float(re_inner("i,i", plus, j_plus[0]))) / 2.0
    k_h = np.stack([spin_apply(h_i)[0] - half * h_i for h_i in h])  # only J_x h_i is read
    j_perp = j_plus[1:]  # J_y|+>, J_z|+>
    a, e = 2.0 * re_inner("bl,il->bi", j_perp, h), re_inner("bl,il->bi", j_perp, k_h)
    f = 2.0 * re_inner("il,jl->ij", h, k_h)
    k_h -= (2.0 / half) * along(e, j_perp)
    return a, e, f, re_inner("il,jl->ij", k_h, k_h)  # B, from the residuals made in place


def mom_limit_matrices(a: np.ndarray, e: np.ndarray, f: np.ndarray, b: np.ndarray,
                       n_spins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P, C and B of the phi -> 0 best-readout limit n^T P n + (n^T C n)^2 / n^T B n,
    from the Taylor terms A, E, F, B of mom_limit_terms on S = n_spins spins:
    P as its 2x2 (y, z) block and C, B as the diagonals of their (x, y) blocks.

    With the transverse covariance (S/4) I at phi = 0, the best readout's
    D^T Sigma^-1 D tends to the transverse term plus the x Schur-complement
    term, which gives P = (4/S) A^T A, C = F - (4/S) sym(E^T A) and
    B = H - (4/S) E^T E, the Gram matrix that mom_limit_terms returns.  The rest
    of these matrices vanishes by symmetry, for any twist U that is diagonal
    and even in z (J_z^2, or a ring's ZZ sum):
      - R = exp(-i pi J_x) maps J_y, J_z to -J_y, -J_z and keeps J_x, |+> (up
        to a phase) and U.  So R g_x is g_x and R g_y, R g_z are -g_y, -g_z
        (times that phase), and K commutes with R: A's and E's x columns and
        F's and B's x-y and x-z entries are odd under R and vanish.  P's x row
        and column, and C's and B's x-y entries, vanish with them.
      - A z rotation commutes with the twist, so the z row and column of C and
        B cancel.
    Every dropped entry is rounding; dropping it keeps that rounding from
    making a false ratio at n = z, and it splits optimizer.maximize_limit into
    one ratio and one 2x2 block.
    """
    c = (np.diag(f) - (4.0 / n_spins) * np.einsum("bi,bi->i", e, a))[:2]
    return (4.0 / n_spins) * np.einsum("bi,bj->ij", a[:, 1:], a[:, 1:]), c, np.diag(b)[:2]


def mom_limit(p: np.ndarray, c: np.ndarray, b: np.ndarray, units: np.ndarray) -> np.ndarray:
    """L(n) = n^T P n + (n^T C n)^2 / n^T B n at each row n of a (k, 3) array.

    P is given as its 2x2 (y, z) block and C, B as the diagonals of their
    (x, y) blocks, as mom_limit_matrices returns them: every other entry
    vanishes by the symmetries of the twist.  A 0/0 ratio term (indeterminate)
    gives nan.
    """
    yz, xy_sq = units[:, 1:], units[:, :2] ** 2
    num, den = np.einsum("ki,i->k", xy_sq, c) ** 2, np.einsum("ki,i->k", xy_sq, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(indeterminate(num, den), np.nan, num / den)
    return np.einsum("ki,ij,kj->k", yz, p, yz) + ratio


def _cos_logs(t: float) -> tuple[float, float] | None:
    """(log cos t, log cos 2t) as log1p(-2 sin^2(t/2)) and log1p(-2 sin^2 t), so that
    small t keeps its digits; None where cos t or cos 2t is not positive."""
    if math.cos(t) <= 0.0 or math.cos(2.0 * t) <= 0.0:
        return None
    return math.log1p(-2.0 * math.sin(t / 2.0) ** 2), math.log1p(-2.0 * math.sin(t) ** 2)


def _cos_power(power, t: float):
    """cos^power(t) elementwise: exp(power log cos t) where _cos_logs has logs, and
    elsewhere a direct power in long double, since a power k of the rounded cos t is
    k roundings off (8.8e-14 at k = 997, t = 1; an 80-bit long double leaves one).
    The direct power is returned in long double, so that differences of powers
    keep its digits."""
    logs = _cos_logs(t)
    if logs is None:
        return np.cos(np.longdouble(t)) ** np.asarray(power)
    return np.exp(np.multiply(power, logs[0]))


def cos2_power_m1(k: int, t: float) -> float:
    """cos(2t)^k - 1 as expm1(k log cos 2t) where _cos_logs has the log, so that small
    t keeps its digits, and as _cos_power's direct power less one elsewhere."""
    logs = _cos_logs(t)
    return math.expm1(k * logs[1]) if logs else float(_cos_power(k, 2.0 * t) - 1)


def heisenberg_gap(c: float) -> float:
    """1 - exp(-2 c^2), the long-range Heisenberg factor, as -expm1(-2 c^2) for small c."""
    return -math.expm1(-2.0 * c * c)


def ising_covariance(n_spins: int, degree: int, one, both, weight, t: float) -> np.ndarray:
    """Sigma_ab = Re<J_a J_b> - <J_a><J_b> of exp(-i t h)|+>^{(M)}, M = n_spins, for
    h = (1/2) sum over the edges of a graph of Z_r Z_s whose sites all have q = degree.

    Pair class p: o_p = one[p] other sites are next to exactly one end, b_p =
    both[p] next to both, and a site has w_p = weight[p] partners in it (sum_p w_p
    = M - 1).  The complete graph (J_z^2 less N/4) is the class (0, M - 2, M - 1), a
    ring one class per distance.  With c = cos t, s = cos 2t (Foss-Feig et al.,
    PRA 87, 042101 (2013)), Sigma_zz = M/4, Sigma_yz = (M q/4) c^(q-1) sin t,
      Sigma_xx = (M/4)(1 - c^2q) + (M/8) sum_p w_p [(c^o_p - c^2q) + (c^o_p s^b_p - c^2q)],
      Sigma_yy = M/4 + (M/8) sum_p w_p c^o_p (1 - s^b_p).
    Powers are exps of the logs of _cos_logs where it has them, and _cos_power's
    direct powers elsewhere.
    The bracket's terms cancel to O(t^2): it is c^2q expm1(A + B) - (c^o_p - c^2q)
    expm1(B), with x = log c, y = log(s/c^4) = log1p(-tan^4 t), a_p = q - b_p - o_p/2
    the ends' adjacency, A + B = b_p y - 4 a_p x, B = 2(b_p - a_p) x + b_p y and
    c^o_p - c^2q = -c^o_p expm1((2q - o_p) x): nothing cancels or overflows.
    """
    m, one, both = float(n_spins), np.asarray(one), np.asarray(both)
    logs = _cos_logs(t)
    if logs is None:
        full, end = _cos_power(2 * degree, t), _cos_power(one, t)
        s_both = _cos_power(both, 2.0 * t)
        edge, pair = 1.0 - full, (end - full) + (end * s_both - full)
        transverse = end * (1.0 - s_both)
    else:
        x, log_s = logs
        y, adjacent = math.log1p(-math.tan(t) ** 4), degree - both - one / 2.0
        full, end = 2 * degree * x, one * x
        edge = -math.expm1(full)
        pair = (math.exp(full) * np.expm1(both * y - 4.0 * adjacent * x) + np.exp(end)
                * np.expm1(full - end) * np.expm1(2.0 * (both - adjacent) * x + both * y))
        transverse = -np.exp(end) * np.expm1(both * log_s)
    xx = float((m / 4.0) * edge + (m / 8.0) * np.sum(weight * pair))
    yy = float(m / 4.0 + (m / 8.0) * np.sum(weight * transverse))
    yz = m * degree * float(_cos_power(degree - 1, t)) * math.sin(t) / 4.0
    return np.array([[xx, 0.0, 0.0], [0.0, yy, yz], [0.0, yz, m / 4.0]])
