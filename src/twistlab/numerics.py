"""The indeterminate-ratio guard, the centred moments of one collective
operator, the protocol moments (D, Sigma) and their reciprocal error, and the
phi-Taylor terms of phi -> 0 limits, the matrices they give and the limit."""
from __future__ import annotations

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


def centred_moments(psi: np.ndarray, applied: np.ndarray) -> tuple[float, float]:
    """<A> and Var(A) = ||(A - <A>) psi||^2 from psi and applied = A psi, A hermitian.

    The centred form is non-negative by construction and keeps a variance that
    is tiny next to <A^2> (a true zero reads as rounding, not as cancellation).
    """
    mean = float(np.vdot(psi, applied).real)
    centred = applied - mean * psi
    return mean, float(np.vdot(centred, centred).real)


def untwist_moments(chi: np.ndarray, untwist, axis: np.ndarray,
                    spin_apply: Callable[[np.ndarray], np.ndarray]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """D = d<J>/dphi and the covariance matrix Sigma of J in psi = U chi.

    chi is the state just after the sensing rotation exp(-i phi n.J), n = axis,
    and U = diag(untwist) the layer after it (1 for none); spin_apply maps
    states along the last axis to the (J_x, J_y, J_z) stack on a new first
    axis.  d psi/dphi = -i G psi with G psi = U (n.J) chi, so the slope is
    exact: D_a = 2 Im<J_a psi|G psi>.  Sigma is centred,
    Re<(J_a - <J_a>) psi|(J_b - <J_b>) psi>: the best readout's variance can
    be tiny next to <(m.J)^2>, and the best readout must not be picked by rounding.
    """
    psi = chi * untwist
    g_psi = (axis @ spin_apply(chi)) * untwist
    applied = spin_apply(psi)
    slope = 2.0 * (applied.conj() @ g_psi).imag
    centred = applied - (applied @ psi.conj()).real[:, None] * psi
    return slope, (centred.conj() @ centred.T).real


def mom_reciprocal(slope: np.ndarray, covariance: np.ndarray, readout: np.ndarray) -> float:
    """(m.D)^2 / m^T Sigma m, the reciprocal method-of-moments error of readout m;
    a 0/0 point (indeterminate) raises IndeterminateRatioError."""
    return guarded_ratio(float(readout @ slope) ** 2,
                         max(float(readout @ covariance @ readout), 0.0))


def mom_limit_terms(plus: np.ndarray, twist: np.ndarray,
                    spin_apply: Callable[[np.ndarray], np.ndarray]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A, E, F and H: the phi-Taylor terms of <J> and Sigma in the twist-untwist state.

    The protocol state is exp(-i phi G)|+> with G = sum_i n_i G_i and
    G_i = U^dag J_i U, |+> the x-polarized product state of S spins and
    U = diag(twist) the twist.  spin_apply maps states along the last axis to
    the (J_x, J_y, J_z) stack on a new first axis.  From g_i = G_i|+> and
    K g_i, where K = J_x - S/2 annihilates |+>, and with b = y, z:
      - the transverse slope at 0 is (A n)_b, A_bi = 2 Im<+|J_b|g_i>;
      - the x slope grows as phi n^T F n, F_ij = 2 Re<g_i|K|g_j>;
      - Cov(J_x, J_b) grows as phi (E n)_b, E_bi = Im<+|J_b K|g_i>;
      - Var(J_x) grows as phi^2 n^T H n, H_ij = Re<g_i|K^2|g_j>;
      - the transverse covariance at 0 is (S/4) I.
    No G^2|+> is needed: it enters only through <+|K|G^2 +> = 0.  The twist
    is diagonal and J a sum of one-site terms, so this costs a few stack
    applications.
    """
    g = spin_apply(plus * twist) * twist.conj()
    applied = spin_apply(np.vstack([plus, g]))
    # <+|J_x|+> = S/2 is a half-integer, so rounding makes it exact
    half = round(2.0 * float(np.vdot(plus, applied[0, 0]).real)) / 2.0
    k_g = applied[0, 1:] - half * g
    j_perp = applied[1:, 0]  # J_y|+>, J_z|+>
    a = 2.0 * (j_perp.conj() @ g.T).imag
    e = (j_perp.conj() @ k_g.T).imag
    f = 2.0 * (g.conj() @ k_g.T).real
    h = (k_g.conj() @ k_g.T).real
    return a, e, f, h


def mom_limit_matrices(a: np.ndarray, e: np.ndarray, f: np.ndarray, h: np.ndarray,
                       n_spins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P, C and B of the phi -> 0 best-readout limit n^T P n + (n^T C n)^2 / n^T B n,
    from the Taylor terms A, E, F, H of mom_limit_terms on S = n_spins spins:
    P as its 2x2 (y, z) block and C, B as the diagonals of their (x, y) blocks.

    With the transverse covariance (S/4) I at phi = 0, the best readout's
    D^T Sigma^-1 D tends to the transverse term plus the x Schur-complement
    term, which gives P = (4/S) A^T A, C = F - (4/S) sym(E^T A) and
    B = H - (4/S) E^T E.  The rest of these matrices vanishes by symmetry,
    for any twist U that is diagonal and even in z (J_z^2, or a ring's ZZ sum):
      - R = exp(-i pi J_x) maps J_y, J_z to -J_y, -J_z and keeps J_x, |+> (up
        to a phase) and U.  So R g_x is g_x and R g_y, R g_z are -g_y, -g_z
        (times that phase), and K commutes with R: A's and E's x columns and
        F's and H's x-y and x-z entries are odd under R and vanish.  P's x row
        and column, and C's and B's x-y entries, vanish with them.
      - A z rotation commutes with the twist, so the z row and column of C and
        B cancel.
    Every dropped entry is rounding; dropping it keeps that rounding from
    making a false ratio at n = z, and it splits optimizer.maximize_limit into
    one ratio and one 2x2 block.
    """
    c = np.diag(f - (4.0 / n_spins) * e.T @ a)[:2]
    b = np.diag(h - (4.0 / n_spins) * e.T @ e)[:2]
    return (4.0 / n_spins) * a[:, 1:].T @ a[:, 1:], c, b


def mom_limit(p: np.ndarray, c: np.ndarray, b: np.ndarray, units: np.ndarray) -> np.ndarray:
    """L(n) = n^T P n + (n^T C n)^2 / n^T B n at each row n of a (k, 3) array.

    P is given as its 2x2 (y, z) block and C, B as the diagonals of their
    (x, y) blocks, as mom_limit_matrices returns them: every other entry
    vanishes by the symmetries of the twist.  A 0/0 ratio term (indeterminate)
    gives nan.
    """
    yz, xy_sq = units[:, 1:], units[:, :2] ** 2
    num, den = (xy_sq @ c) ** 2, xy_sq @ b
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(indeterminate(num, den), np.nan, num / den)
    return np.einsum("ki,ij,kj->k", yz, p, yz) + ratio
