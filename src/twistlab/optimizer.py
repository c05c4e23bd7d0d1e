"""Maximization over unit-sphere directions, exact by 3x3 linear algebra.

The largest n^T M n is the top eigenvalue of M, the largest
(m.D)^2 / m^T Sigma m is D^T Sigma^-1 D, and the largest phi -> 0
best-readout limit n^T P n + (n^T C n)^2 / n^T B n is the largest top
eigenvalue of P + 2 mu C - mu^2 B over one scalar mu.  Everything is
deterministic and numpy only, so repeated runs are bit-identical.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import INDETERMINATE_ATOL, IndeterminateRatioError, mom_limit
from .spin_core import Direction

# top eigenvalues closer than this (relative) span one degenerate eigenspace
DEGENERACY_RTOL = 1e-12

# mu points of the batched eigvalsh that brackets each eigen-branch's maximum
MU_POINTS = 257
# bisection steps on a branch's slope: its bracket shrinks by 2^-48 from two grid steps
BISECTIONS = 48


@dataclass(frozen=True)
class SphereMaximum:
    """The argmax, its angles and the value there: "attained" by the objective, or a
    "lower_bound" on it where the objective is 0/0 (see maximize_limit)."""

    direction: Direction
    xi: float
    theta: float
    value: float
    kind: str = "attained"


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
    return SphereMaximum(d, d.xi, d.theta, top)


def maximize_slope_ratio(slope: np.ndarray, covariance: np.ndarray) -> SphereMaximum:
    """Largest (m.D)^2 / (m^T Sigma m) over readouts m: D^T Sigma^-1 D at m ~ Sigma^-1 D.

    This is the optimal linear readout of Gessner, Smerzi and Pezze,
    PRL 122, 090503 (2019).  The sum runs over Sigma's eigenvectors.  A term
    whose squared slope component and eigenvalue both fall below
    INDETERMINATE_ATOL is 0/0, as along the mean spin of a nearly coherent
    state: it is left out, and since the ratio it stands for is >= 0, the rest
    of the sum is a lower bound, reported with kind "lower_bound" at the
    readout of the other terms.  Only when every term is 0/0 does it raise
    IndeterminateRatioError.
    """
    w, v = np.linalg.eigh(np.asarray(covariance, dtype=float))
    components = v.T @ np.asarray(slope, dtype=float)
    terms = [(float(c * c), max(float(lam), 0.0)) for c, lam in zip(components, w)]
    kept = np.array([num >= INDETERMINATE_ATOL or den >= INDETERMINATE_ATOL
                     for num, den in terms])
    if not kept.any():
        raise IndeterminateRatioError(max(num for num, _ in terms), max(den for _, den in terms))
    value = sum(num / den for (num, den), keep in zip(terms, kept) if keep)
    d = _in_hemisphere(v @ np.divide(components, w, out=np.zeros_like(w), where=kept))
    return SphereMaximum(d, d.xi, d.theta, float(value),
                         "attained" if kept.all() else "lower_bound")


def maximize_limit(p: np.ndarray, c: np.ndarray, b: np.ndarray) -> SphereMaximum:
    """Largest L(n) = n^T P n + (n^T C n)^2 / n^T B n over unit n (numerics.mom_limit),
    P 3x3 and C, B given as their (x, y) blocks, B positive semidefinite.

    Since (n^T C n)^2 / n^T B n is the largest 2 mu n^T C n - mu^2 n^T B n over
    mu, max_n L is the largest f(mu), the top eigenvalue of
    M(mu) = P + 2 mu C - mu^2 B, and the argmax's mu = n^T C n / n^T B n lies
    between the extreme eigenvalues of (C, B) on B's range.  M's three
    eigen-branches cross where z decouples, so each branch's maximum is
    bracketed by one batched eigvalsh over MU_POINTS, and its stationary point
    v^T (C - mu B) v = 0, v the branch's eigenvector, is found by bisection.
    The nine eigenvectors there are the candidates, ranked by eigenvalue, which
    is a lower bound on L(v).  At a 0/0 candidate (its ratio term below
    INDETERMINATE_ATOL over and under, as when t is so small that C's and B's
    y entries are rounding) the rank is n^T P n instead: B is positive
    semidefinite, so the ratio term is >= 0 and n^T P n is a lower bound on L
    there too.  Ties within DEGENERACY_RTOL go to the largest |n_x|, then |n_y|
    (x before y before z, as in maximize_quadratic_form).  The value is L at
    the reported direction, or n^T P n with kind "lower_bound" where that is 0/0.
    """
    c3, b3 = (np.pad(np.asarray(m, dtype=float), (0, 1)) for m in (c, b))
    w, u = np.linalg.eigh(b)
    keep = w > DEGENERACY_RTOL * max(w[-1], 0.0)
    root = u[:, keep] / np.sqrt(w[keep])  # B^-1/2 on B's range
    ratios = np.linalg.eigvalsh(root.T @ c @ root) if keep.any() else np.zeros(1)

    def matrices(mu: np.ndarray) -> np.ndarray:
        return p + 2.0 * mu[:, None, None] * c3 - mu[:, None, None] ** 2 * b3

    mus = np.linspace(ratios[0], ratios[-1], MU_POINTS)
    top = np.argmax(np.linalg.eigvalsh(matrices(mus)), axis=0)
    lo, hi = mus[np.maximum(top - 1, 0)], mus[np.minimum(top + 1, MU_POINTS - 1)]
    branch = np.arange(3)
    for _ in range(BISECTIONS):
        mid = (lo + hi) / 2.0
        v = np.linalg.eigh(matrices(mid))[1][branch, :, branch]
        rising = np.einsum("ki,kij,kj->k", v, c3 - mid[:, None, None] * b3, v) > 0.0
        lo, hi = np.where(rising, mid, lo), np.where(rising, hi, mid)
    lam, vec = np.linalg.eigh(matrices((lo + hi) / 2.0))
    lam, candidates = lam.ravel(), vec.transpose(0, 2, 1).reshape(-1, 3)
    bound = np.isnan(mom_limit(p, c, b, candidates))
    lam[bound] = np.einsum("ki,ij,kj->k", candidates[bound], p, candidates[bound])
    tied = candidates[lam >= lam.max() - DEGENERACY_RTOL * abs(lam.max())]
    d = _in_hemisphere(max(tied, key=lambda n: tuple(np.abs(n))))
    n = d.as_array()
    value = float(mom_limit(p, c, b, n[None])[0])
    if np.isnan(value):
        return SphereMaximum(d, d.xi, d.theta, float(n @ p @ n), "lower_bound")
    return SphereMaximum(d, d.xi, d.theta, value)
