"""What the statevector paths share: the checked, read-only state fields and the centred
moments of one collective operator; and the ring's protocol moments (D, Sigma) and phi -> 0
Taylor terms and matrices.  The closed forms are in closed_form, and the Dicke protocol's
moments and phi -> 0 limit, on Python floats, in dicke_sums and oat_metrology."""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .closed_form import NORM_ATOL, StateNormError


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _unit_amplitudes(amplitudes, size: int) -> np.ndarray:
    """A state's amplitudes checked to be size long (ValueError) and of unit norm
    (StateNormError): the array given, made read-only, copied only into contiguous complex."""
    amps = np.ascontiguousarray(amplitudes, dtype=complex)
    if amps.shape != (size,):
        raise ValueError(f"expected {size} amplitudes, got shape {amps.shape}")
    norm = math.sqrt(np.einsum("i,i", amps.view(float), amps.view(float)))
    if not abs(norm - 1.0) <= NORM_ATOL:  # a nan norm fails too
        raise StateNormError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
    return _readonly(amps)


class _Frozen:
    """Fields named in __slots__, set once in __init__ by object.__setattr__ and
    read-only after; equality is identity, as for anything that holds arrays."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copies and pickles are built, and checked, anew
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


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
    variance can be tiny next to <(m.J)^2>, and must not be picked by rounding.  The
    slope is summed from the centred rows too: Re<psi|d psi/dphi> = Re(-i <chi|n.J|chi>)
    = 0, so <J_a> psi adds nothing to D_a but products of order N^2/4 that cancel.
    """
    psi, d_psi = chi * untwist, along(axis, spin_apply(chi))
    d_psi *= -1j * untwist
    applied = spin_apply(psi)
    for row, mean in zip(applied, re_inner("ai,i->a", applied, psi)):
        row -= mean * psi  # centred in place: no second stack
    return 2.0 * re_inner("ai,i->a", applied, d_psi), re_inner("ai,bi->ab", applied, applied)


def mom_limit_terms(plus: np.ndarray, twist: np.ndarray,
                    spin_apply: Callable[[np.ndarray], np.ndarray]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A, C and B: the phi-Taylor terms of <J> and Sigma in the twist-untwist state.

    The protocol state is exp(-i phi G)|+> with G = sum_i n_i G_i and
    G_i = U^dag J_i U, |+> the x-polarized product state of S spins and
    U = diag(twist) the twist.  spin_apply maps states along the last axis to
    the (J_x, J_y, J_z) stack on a new first axis.  K = J_x - S/2 is minus the
    number of flipped spins.  h_i = -i G_i|+> less its no-flip part <+|h_i>|+> and
    its one-flip part (2/S) sum_b A_bi J_b|+> (b = y, z; J_y|+> = -i J_z|+> spans
    that part of any symmetric or translation-invariant h) is the residual q_i,
    with weight w_n on n >= 2 flips:
      - the transverse slope at 0 is (A n)_b, A_bi = 2 Re<J_b +|h_i>;
      - the x slope grows as phi n^T F n, F = C - (2/S) A^T A, with
        C_ij = 2 Re<q_i|K q_j> and C_ii = -2 sum_n n w_n;
      - Var(J_x) grows as phi^2 n^T H n, H = B + (1/S) A^T A, with
        B_ij = Re<K q_i|K q_j> and B_ii = sum_n n^2 w_n;
      - the transverse covariance at 0 is (S/4) I.
    So C, F <= 0 and B, H >= 0 are each a sum of terms of one sign: nothing
    cancels at small t.  No G^2|+> is needed: it enters only through
    <+|K|G^2 +> = 0.  The twist is diagonal and J a sum of one-site terms, so this
    costs a few stack applications, and every product is a real part (re_inner).
    """
    h = spin_apply(plus * twist) * (-1j * twist.conj())
    j_plus = spin_apply(plus)
    # <+|J_x|+> = S/2 is a half-integer, so rounding makes it exact
    half = round(2.0 * float(re_inner("i,i", plus, j_plus[0]))) / 2.0
    a = 2.0 * re_inner("bl,il->bi", j_plus[1:], h)
    # h becomes q in place: less its one flip, then its no flip (<+|h_i> = -i<G_i>)
    h -= along(a / half, j_plus[1:])
    h -= np.multiply.outer(1j * re_inner("l,il->i", 1j * plus, h), plus)
    del j_plus  # freed before K is applied
    k_q = np.stack([spin_apply(q_i)[0] - half * q_i for q_i in h])  # only J_x q_i is read
    return a, 2.0 * re_inner("il,jl->ij", h, k_q), re_inner("il,jl->ij", k_q, k_q)


def mom_limit_matrices(a: np.ndarray, c: np.ndarray, b: np.ndarray,
                       n_spins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P, C and B of the phi -> 0 best-readout limit n^T P n + (n^T C n)^2 / n^T B n,
    from the Taylor terms A, C, B of mom_limit_terms on S = n_spins spins:
    P as its 2x2 (y, z) block and C, B as the diagonals of their (x, y) blocks.

    With the transverse covariance (S/4) I at phi = 0, the best readout's
    D^T Sigma^-1 D tends to the transverse term, P = (4/S) A^T A, plus the x
    Schur-complement term, (n^T F n + (2/S)|A n|^2)^2 / (n^T H n - (1/S)|A n|^2)
    = (n^T C n)^2 / n^T B n.  The rest of these matrices vanishes by symmetry, for
    any twist U that is diagonal and even in z (J_z^2, or a ring's ZZ sum):
      - R = exp(-i pi J_x) maps J_y, J_z to -J_y, -J_z and keeps J_x, |+> (up
        to a phase), U and each flip number.  So A's x column and C's and B's
        x-y and x-z entries are odd under R and vanish, and so do P's x row and
        column.
      - J_z commutes with U, so h_z = -i J_z|+> is all one flip and q_z = 0: C's
        and B's z rows and columns are rounding.
    Dropping every such entry keeps that rounding from making a false ratio at
    n = z, and it splits optimizer.maximize_limit into one ratio and one 2x2 block.
    """
    return ((4.0 / n_spins) * np.einsum("bi,bj->ij", a[:, 1:], a[:, 1:]), np.diag(c)[:2],
            np.diag(b)[:2])
