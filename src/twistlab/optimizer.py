"""Exact maximization over unit-sphere directions.  The largest n^T M n of an
x (+) (y, z) block matrix is a closed-form top eigenvalue, the largest
(m.D)^2 / m^T Sigma m is D^T Sigma^-1 D (a 3x3 cyclic Jacobi eigen-decomposition),
and the largest phi -> 0 limit n^T P n + (n^T C n)^2 / n^T B n is the top
eigenvalue of one such block matrix.  Nothing here calls BLAS or LAPACK (products are
einsum without optimize), and everything is deterministic, so repeated runs are
bit-identical."""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .numerics import IndeterminateRatioError, indeterminate, mom_limit
from .spin_core import Direction

# top eigenvalues closer than this (relative) span one degenerate eigenspace
DEGENERACY_RTOL = 1e-12

# Jacobi leaves a_pq alone once |a_pq| <= JACOBI_RTOL sqrt(|a_pp a_qq|) (Demmel and
# Veselic, SIAM J. Matrix Anal. Appl. 13, 1204 (1992)); a 3x3 converges in a few sweeps
JACOBI_RTOL = float(np.finfo(float).eps)
JACOBI_MAX_SWEEPS = 32


class SphereMaximum(NamedTuple):
    """The argmax, its angles and the value there: "attained" by the objective, or a
    "lower_bound" on it where the objective is 0/0 (see maximize_limit).  A record:
    a tuple, made without checks."""

    direction: Direction
    value: float
    kind: str = "attained"

    @property
    def xi(self) -> float:
        return self.direction.xi

    @property
    def theta(self) -> float:
        return self.direction.theta


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


def _in_hemisphere(vec) -> Direction:
    """The one of +-vec/|vec| with n_y > 0, else n_x < 0, else n_z > 0 (components
    below 1e-12 taken as zero, so that rounding does not pick the sign), where every
    objective here, even in its direction, reports its argmax.  In Python floats."""
    x, y, z = (float(c) for c in vec)
    norm = math.hypot(x, y, z)  # scaled: no overflow for entries past 1e154
    if not 0.0 < norm < math.inf:  # zero, inf or nan: ArithmeticError
        raise ArithmeticError(f"no direction along the vector {vec!r}")
    unit = (x / norm, y / norm, z / norm)
    sign = next(math.copysign(1.0, c) for c in (unit[1], -unit[0], unit[2]) if abs(c) > 1e-12)
    return Direction.from_vector(*(sign * c + 0.0 for c in unit))  # no -0.0


def maximize_quadratic_form(matrix: np.ndarray) -> SphereMaximum:
    """Largest n^T M n over unit n for a real symmetric 3x3 M = M_xx (+) [[a, b], [b, d]]:
    max(M_xx, l), l = (a + d)/2 + hypot((a - d)/2, b), at x or at the longer of the
    block's eigenvectors (b, l - a) and (l - d, b), which keeps its digits.  Within
    DEGENERACY_RTOL, x wins a tie with l and a degenerate block gives y.  A nonzero
    x-y or x-z entry raises ValueError.  M is read into Python floats, an ndarray or
    nested sequences alike."""
    (xx, xy, xz), (yx, a, b), (zx, _, d) = ([float(v) for v in row] for row in matrix)
    if xy or xz or yx or zx:
        raise ValueError("the matrix couples x to y or z; expected M_xx (+) a (y, z) block")
    half_diff = (a - d) / 2.0
    half_gap = math.hypot(half_diff, b)
    top = (a + d) / 2.0 + half_gap
    tol = DEGENERACY_RTOL * max(abs(xx), abs(a + d) / 2.0 + half_gap)
    vec = (0.0, half_gap + half_diff, b) if half_diff >= 0.0 else (0.0, b, half_gap - half_diff)
    if xx >= top - tol:
        vec, top = (1.0, 0.0, 0.0), max(xx, top)
    elif 2.0 * half_gap <= tol:
        vec = (0.0, 1.0, 0.0)
    return SphereMaximum(_in_hemisphere(vec), top)


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
