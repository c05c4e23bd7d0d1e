"""Maximization over unit-sphere directions.

Quadratic objectives are maximized exactly by 3x3 linear algebra: the largest
n^T M n is the top eigenvalue of M, and the largest (m.D)^2 / m^T Sigma m is
D^T Sigma^-1 D.  Any other objective is evaluated vectorized, on a (k, 3)
array of unit vectors at a time: a fixed (polar, azimuth) grid, then a zoom
onto the best point.  Everything is deterministic and numpy only, so repeated
runs are bit-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import guarded_ratio
from .spin_core import Direction

# top eigenvalues closer than this (relative) span one degenerate eigenspace
DEGENERACY_RTOL = 1e-12

# points per axis in one zoom level; the next box spans one step of this
# level's points either side of the best, (ZOOM_POINTS - 1) / 2 times narrower
ZOOM_POINTS = 9
# zoom until the box half-width in (polar, azimuth) is below this (radians)
ZOOM_ATOL = 1e-10
# cap on zoom levels, shrinking or not: a box that keeps moving along a ridge
# covers this many box widths before the search stops unconverged
ZOOM_MAX_LEVELS = 200


@dataclass(frozen=True)
class SphereDomain:
    """Rectangle in (polar, azimuth) space with a grid resolution per axis."""

    xi_lo: float = 0.0
    xi_hi: float = math.pi
    theta_lo: float = -math.pi
    theta_hi: float = math.pi
    xi_cells: int = 24
    theta_cells: int = 24

    def __post_init__(self) -> None:
        if not (0.0 <= self.xi_lo < self.xi_hi <= math.pi):
            raise ValueError("polar range must satisfy 0 <= lo < hi <= pi")
        if not (-math.pi <= self.theta_lo < self.theta_hi <= math.pi):
            raise ValueError("azimuth range must satisfy -pi <= lo < hi <= pi")
        if min(self.xi_cells, self.theta_cells) < 4:
            raise ValueError("grid resolution must be at least 4 per axis")

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        # polar rows at cell centres: a row at a pole would be one point repeated
        step = (self.xi_hi - self.xi_lo) / self.xi_cells
        xi = self.xi_lo + (np.arange(self.xi_cells) + 0.5) * step
        th = np.linspace(self.theta_lo, self.theta_hi, self.theta_cells)
        return xi, th


FULL_SPHERE = SphereDomain()
# azimuth restricted to (0, pi]: m and -m give the same reciprocal error and
# n and -n the same QFI, so exact maximizers report their argmax here; the
# ring protocol search maximizes its phi -> 0 limit, even in n, here
HEMISPHERE = SphereDomain(theta_lo=1e-6, theta_hi=math.pi)


@dataclass(frozen=True)
class SphereMaximum:
    direction: Direction
    xi: float
    theta: float
    value: float
    converged: bool
    skipped: int = 0


@dataclass(frozen=True)
class JointMaximum:
    """Best rotation and readout of a protocol, with the reciprocal error they reach
    and the phi -> 0 limit that chose the rotation."""

    rotation: Direction
    readout: Direction
    value: float
    limit: float
    skipped: int = 0


def _evaluate(objective: Callable[[np.ndarray], np.ndarray], xi: np.ndarray,
              theta: np.ndarray) -> np.ndarray:
    """objective at the unit vectors n(xi, theta); non-finite values become -inf."""
    units = np.stack([np.sin(xi) * np.cos(theta), np.sin(xi) * np.sin(theta), np.cos(xi)],
                     axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.asarray(objective(units), dtype=float)
    return np.where(np.isfinite(values), values, -np.inf)


def maximize_on_sphere(objective: Callable[[np.ndarray], np.ndarray],
                       domain: SphereDomain = FULL_SPHERE) -> SphereMaximum:
    """Maximize a vectorized objective, a (k, 3) array of unit vectors -> k values.

    A non-finite value marks a point to skip; `skipped` counts them on the grid.
    The domain's grid comes first.  Then each zoom level evaluates a
    ZOOM_POINTS x ZOOM_POINTS box around the best point so far, starting one
    grid step wide.  When the level's best lies on an edge of its box inside
    the domain, the maximum may lie beyond it (a narrow ridge does this), so
    the next box moves there at the same width; otherwise it shrinks.  The
    zoom stops when the box is narrower than ZOOM_ATOL, and the value never
    drops below the grid's best.  `converged` says the zoom got there within
    ZOOM_MAX_LEVELS levels.
    """
    xg, tg = domain.grid()
    xi, theta = (a.ravel() for a in np.meshgrid(xg, tg, indexing="ij"))
    values = _evaluate(objective, xi, theta)
    skipped = int(np.count_nonzero(np.isneginf(values)))
    k = int(np.argmax(values))
    best, best_xi, best_theta = float(values[k]), float(xi[k]), float(theta[k])
    half = np.array([xg[1] - xg[0], tg[1] - tg[0]])
    offsets = np.linspace(-1.0, 1.0, ZOOM_POINTS)
    for _ in range(ZOOM_MAX_LEVELS):
        if half.max() <= ZOOM_ATOL:
            break
        xs = np.clip(best_xi + half[0] * offsets, domain.xi_lo, domain.xi_hi)
        ts = np.clip(best_theta + half[1] * offsets, domain.theta_lo, domain.theta_hi)
        values = _evaluate(objective, *(a.ravel() for a in np.meshgrid(xs, ts, indexing="ij")))
        k = int(np.argmax(values))
        gain = float(values[k]) - best
        i, j = divmod(k, ZOOM_POINTS)
        on_edge = ((i in (0, ZOOM_POINTS - 1) and domain.xi_lo < xs[i] < domain.xi_hi)
                   or (j in (0, ZOOM_POINTS - 1) and domain.theta_lo < ts[j] < domain.theta_hi))
        if gain > 0.0:
            best, best_xi, best_theta = float(values[k]), float(xs[i]), float(ts[j])
        if not (gain > 0.0 and on_edge):
            half /= (ZOOM_POINTS - 1) / 2
    converged = math.isfinite(best) and half.max() <= ZOOM_ATOL
    return SphereMaximum(Direction.from_angles(best_xi, best_theta),
                         best_xi, best_theta, best, converged, skipped)


def _in_hemisphere(vec: np.ndarray) -> Direction:
    """The one of +-vec/|vec| inside HEMISPHERE: n_y > 0, else n_x < 0, else n_z > 0,
    with components below 1e-12 taken as zero so that rounding does not pick the sign."""
    unit = vec / np.linalg.norm(vec)
    sign = next(np.sign(c) for c in (unit[1], -unit[0], unit[2]) if abs(c) > 1e-12)
    return Direction.from_vector(*(float(c) for c in sign * unit))


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
    return SphereMaximum(d, d.xi, d.theta, top, converged=True)


def maximize_slope_ratio(slope: np.ndarray, covariance: np.ndarray) -> SphereMaximum:
    """Largest (m.D)^2 / (m^T Sigma m) over readouts m: D^T Sigma^-1 D at m ~ Sigma^-1 D.

    This is the optimal linear readout of Gessner, Smerzi and Pezze,
    PRL 122, 090503 (2019).  The sum runs over Sigma's eigenvectors, each term
    through guarded_ratio, so a term whose squared slope component and
    eigenvalue both fall below INDETERMINATE_ATOL raises IndeterminateRatioError.
    """
    w, v = np.linalg.eigh(np.asarray(covariance, dtype=float))
    components = v.T @ np.asarray(slope, dtype=float)
    value = sum(guarded_ratio(float(c * c), max(float(lam), 0.0))
                for c, lam in zip(components, w))
    d = _in_hemisphere(v @ (components / w))
    return SphereMaximum(d, d.xi, d.theta, float(value), converged=True)
