"""Maximization over unit-sphere directions, exact by 3x3 linear algebra.

The largest n^T M n is the top eigenvalue of M, the largest
(m.D)^2 / m^T Sigma m is D^T Sigma^-1 D, and the largest phi -> 0
best-readout limit n^T P n + (n^T C n)^2 / n^T B n is the larger of one
ratio C_xx^2 / B_xx and the top eigenvalue of one 2x2 block.  Everything is
deterministic and numpy only, so repeated runs are bit-identical.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import IndeterminateRatioError, indeterminate, mom_limit
from .spin_core import Direction

# top eigenvalues closer than this (relative) span one degenerate eigenspace
DEGENERACY_RTOL = 1e-12


@dataclass(frozen=True)
class SphereMaximum:
    """The argmax, its angles and the value there: "attained" by the objective, or a
    "lower_bound" on it where the objective is 0/0 (see maximize_limit)."""

    direction: Direction
    value: float
    kind: str = "attained"

    @property
    def xi(self) -> float:
        return self.direction.xi

    @property
    def theta(self) -> float:
        return self.direction.theta


@dataclass(frozen=True)
class JointMaximum:
    """Best rotation and readout of a protocol, with the reciprocal error they reach
    and the phi -> 0 limit that chose the rotation (kind and limit_kind as
    SphereMaximum.kind, for value and limit)."""

    rotation: Direction
    readout: Direction
    value: float
    limit: float
    limit_kind: str = "attained"
    kind: str = "attained"


def _in_hemisphere(vec: np.ndarray) -> Direction:
    """The one of +-vec/|vec| with n_y > 0, else n_x < 0, else n_z > 0, with
    components below 1e-12 taken as zero so that rounding does not pick the sign.
    Every objective here is even in its direction, so this is where the argmax
    is reported."""
    unit = vec / np.linalg.norm(vec)
    sign = next(np.sign(c) for c in (unit[1], -unit[0], unit[2]) if abs(c) > 1e-12)
    return Direction.from_vector(*(float(c) + 0.0 for c in sign * unit))  # no -0.0


def maximize_quadratic_form(matrix: np.ndarray) -> SphereMaximum:
    """Largest n^T M n over unit n for a real symmetric 3x3 M: its top eigenpair.

    The argmax is the projection onto the top eigenspace of the coordinate
    axis that it keeps longest (x before y before z on ties), so a degenerate
    top eigenvalue still gives one fixed direction.
    """
    w, v = np.linalg.eigh(np.asarray(matrix, dtype=float))
    top = float(w[-1])
    space = v[:, w >= top - DEGENERACY_RTOL * float(np.max(np.abs(w)))]
    projector = space @ space.T
    d = _in_hemisphere(projector[:, np.argmax(np.diag(projector))])
    return SphereMaximum(d, top)


def maximize_slope_ratio(slope: np.ndarray, covariance: np.ndarray) -> SphereMaximum:
    """Largest (m.D)^2 / (m^T Sigma m) over readouts m: D^T Sigma^-1 D at m ~ Sigma^-1 D.

    This is the optimal linear readout of Gessner, Smerzi and Pezze,
    PRL 122, 090503 (2019).  The sum runs over Sigma's eigenvectors.  A term
    whose squared slope component over eigenvalue is 0/0
    (numerics.indeterminate), as along the mean spin of a nearly coherent
    state, is left out: since the ratio it stands for is >= 0, the rest of the
    sum is a lower bound, reported with kind "lower_bound" at the readout of
    the other terms.  Only when every term is 0/0 does it raise
    IndeterminateRatioError.
    """
    w, v = np.linalg.eigh(np.asarray(covariance, dtype=float))
    components = v.T @ np.asarray(slope, dtype=float)
    terms = [(float(c * c), max(float(lam), 0.0)) for c, lam in zip(components, w)]
    kept = ~indeterminate(*np.array(terms).T)
    if not kept.any():
        raise IndeterminateRatioError(max(num for num, _ in terms), max(den for _, den in terms))
    value = sum(num / den for (num, den), keep in zip(terms, kept) if keep)
    d = _in_hemisphere(v @ np.divide(components, w, out=np.zeros_like(w), where=kept))
    return SphereMaximum(d, float(value),
                         "attained" if kept.all() else "lower_bound")


def maximize_limit(p: np.ndarray, c: np.ndarray, b: np.ndarray) -> SphereMaximum:
    """Largest L(n) = n^T P n + (n^T C n)^2 / n^T B n over unit n (numerics.mom_limit),
    P given as its (y, z) block and C, B as their (x, y) diagonals, B >= 0.

    With r_a = C_aa^2 / B_aa, the ratio term is at most r_x n_x^2 + r_y n_y^2,
    since a^2 / b is convex and of degree one in (a, b), and equals it at x and
    on the y-z plane.  So max_n L = max(r_x, lambda_max(P + r_y e_y e_y^T)), the
    top eigenvalue of R = r_x (+) (P + r_y e_y e_y^T), attained at x or at the
    2x2 block's top eigenvector: R's top eigenpair (maximize_quadratic_form, x
    first on ties).  A 0/0 r_a (C_aa^2 over B_aa, numerics.indeterminate, as
    when t is so small that the y entries are rounding) counts as 0: the ratio
    term is >= 0, so n^T P n is a lower bound on L there.  The value is L
    at the reported direction, or n^T P n with kind "lower_bound" where that is 0/0.
    """
    num, den = np.asarray(c, dtype=float) ** 2, np.asarray(b, dtype=float)
    determinate = ~indeterminate(num, den)
    r = np.zeros((3, 3))
    r[1:, 1:] = p
    r[[0, 1], [0, 1]] += np.divide(num, den, out=np.zeros(2), where=determinate)
    d = maximize_quadratic_form(r).direction
    n = d.as_array()
    value = float(mom_limit(p, c, b, n[None])[0])
    if np.isnan(value):
        return SphereMaximum(d, float(n[1:] @ p @ n[1:]), "lower_bound")
    return SphereMaximum(d, value)
