"""Exact maximization over unit-sphere directions: the largest (m.D)^2 / m^T Sigma m is
D^T Sigma^-1 D (a 3x3 cyclic Jacobi eigen-decomposition), and the largest phi -> 0 limit
n^T P n + (n^T C n)^2 / n^T B n the top eigenvalue of an x (+) (y, z) block matrix
(closed_form.maximize_quadratic_form).  Nothing here calls BLAS or LAPACK (products are
einsum without optimize), and everything is deterministic, so repeated runs are
bit-identical."""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .closed_form import (Direction, IndeterminateRatioError, SphereMaximum, _in_hemisphere,
                          indeterminate, maximize_quadratic_form)
from .numerics import mom_limit

# Jacobi leaves a_pq alone once |a_pq| <= JACOBI_RTOL sqrt(|a_pp a_qq|) (Demmel and
# Veselic, SIAM J. Matrix Anal. Appl. 13, 1204 (1992)); a 3x3 converges in a few sweeps
JACOBI_RTOL = float(np.finfo(float).eps)
JACOBI_MAX_SWEEPS = 32


class JointMaximum(NamedTuple):
    """Best rotation and readout of a protocol, with the reciprocal error they reach
    and the phi -> 0 limit that chose the rotation (kind and limit_kind as
    SphereMaximum.kind, for value and limit)."""

    rotation: Direction
    readout: Direction
    value: float
    limit: float
    limit_kind: str = "attained"
    kind: str = "attained"


def _symmetric_eigen(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (columns) of a real symmetric 3x3
    matrix by cyclic Jacobi rotations, in pure Python.

    A pair is rotated only while |a_pq| > JACOBI_RTOL sqrt(|a_pp a_qq|).  With this
    relative rule the small eigenvalues of a graded matrix keep their relative
    digits, which a tridiagonal reduction (LAPACK's eigh) does not promise:
    D^T Sigma^-1 D weights those eigenvalues most.  No convergence in
    JACOBI_MAX_SWEEPS sweeps (a nan entry) raises ArithmeticError."""
    a = [[float(x) for x in row] for row in np.asarray(matrix, dtype=float)]
    v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            apq = a[p][q]
            if abs(apq) <= JACOBI_RTOL * math.sqrt(abs(a[p][p])) * math.sqrt(abs(a[q][q])):
                continue
            rotated = True
            # tan of the rotation angle, the smaller root of t^2 + 2 theta t - 1 = 0
            theta = (a[q][q] - a[p][p]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            a[p][p] -= t * apq
            a[q][q] += t * apq
            a[p][q] = a[q][p] = 0.0
            arp, arq = a[r][p], a[r][q]
            a[r][p] = a[p][r] = c * arp - s * arq
            a[r][q] = a[q][r] = s * arp + c * arq
            for row in v:
                row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
        if not rotated:
            order = sorted(range(3), key=lambda i: a[i][i])
            return np.array([a[i][i] for i in order]), np.array(v)[:, order]
    raise ArithmeticError(f"Jacobi eigen-decomposition did not converge in "
                          f"{JACOBI_MAX_SWEEPS} sweeps")


def maximize_slope_ratio(slope: np.ndarray, covariance: np.ndarray) -> SphereMaximum:
    """Largest (m.D)^2 / (m^T Sigma m) over readouts m: D^T Sigma^-1 D at m ~ Sigma^-1 D.

    This is the optimal linear readout of Gessner, Smerzi and Pezze,
    PRL 122, 090503 (2019), summed over Sigma's eigenvectors (_symmetric_eigen:
    Sigma is a general matrix).  A term whose squared slope component over
    eigenvalue is 0/0 (numerics.indeterminate), as along the mean spin of a nearly
    coherent state, is left out: its ratio is >= 0, so the rest is a lower bound, reported with kind
    "lower_bound" at the readout of the other terms.  Only when every term is 0/0
    does it raise IndeterminateRatioError.
    """
    w, v = _symmetric_eigen(covariance)
    components = np.einsum("ij,i->j", v, np.asarray(slope, dtype=float))
    terms = [(float(c * c), max(float(lam), 0.0)) for c, lam in zip(components, w)]
    kept = ~indeterminate(*np.array(terms).T)
    if not kept.any():
        raise IndeterminateRatioError(max(num for num, _ in terms), max(den for _, den in terms))
    value = sum(num / den for (num, den), keep in zip(terms, kept) if keep)
    weights = np.divide(components, w, out=np.zeros_like(w), where=kept)
    d = _in_hemisphere(np.einsum("ij,j->i", v, weights))
    return SphereMaximum(d, float(value), "attained" if kept.all() else "lower_bound")


def maximize_limit(p: np.ndarray, c: np.ndarray, b: np.ndarray) -> SphereMaximum:
    """Largest L(n) = n^T P n + (n^T C n)^2 / n^T B n over unit n (numerics.mom_limit),
    P given as its (y, z) block and C, B >= 0 as their (x, y) diagonals: exp(-i pi J_x)
    keeps |+> and the twist and flips J_y and J_z, so no other entry survives.

    With r_a = C_aa^2 / B_aa, the ratio term is at most r_x n_x^2 + r_y n_y^2,
    since a^2 / b is convex and of degree one in (a, b), and equals it at x and
    on the y-z plane.  So max_n L is the top eigenpair of R = r_x (+) (P + r_y
    e_y e_y^T) (maximize_quadratic_form, x first on ties).  A 0/0 r_a
    (numerics.indeterminate, as when the y entries are rounding at small t) counts
    as 0: the ratio term is >= 0, so L is reported at the argmax, or n^T P n with
    kind "lower_bound" where L is 0/0 there."""
    num, den = np.asarray(c, dtype=float) ** 2, np.asarray(b, dtype=float)
    determinate = ~indeterminate(num, den)
    r = np.zeros((3, 3))
    r[1:, 1:] = p
    r[[0, 1], [0, 1]] += np.divide(num, den, out=np.zeros(2), where=determinate)
    d = maximize_quadratic_form(r).direction
    n = d.as_array()
    value = float(mom_limit(p, c, b, n[None])[0])
    if np.isnan(value):
        return SphereMaximum(d, float(np.einsum("i,ij,j", n[1:], p, n[1:])), "lower_bound")
    return SphereMaximum(d, value)
