"""Maximization over unit-sphere directions.

Quadratic objectives are maximized exactly by 3x3 linear algebra: the largest
n^T M n is the top eigenvalue of M, and the largest (m.D)^2 / m^T Sigma m is
D^T Sigma^-1 D.  Any other objective gets a coarse grid scan followed by
Nelder-Mead refinement from the best grid cells plus fixed analytic seeds.
Everything is deterministic: no randomness is used, so repeated runs are
bit-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .numerics import guarded_ratio
from .spin_core import Direction

# equatorial x / equatorial y / near-pole starts; asymptotically optimal axes
ANALYTIC_SEEDS = ((math.pi / 2, 0.0), (math.pi / 2, math.pi / 2), (1e-6, 0.0))

# top eigenvalues closer than this (relative) span one degenerate eigenspace
DEGENERACY_RTOL = 1e-12


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

    def contains(self, xi: float, theta: float) -> bool:
        return self.xi_lo <= xi <= self.xi_hi and self.theta_lo <= theta <= self.theta_hi


FULL_SPHERE = SphereDomain()
# azimuth restricted to (0, pi]: m and -m give the same reciprocal error and
# n and -n the same QFI, so exact maximizers report their argmax here; the
# ring protocol search also keeps its rotations here
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
    """Best rotation and readout of a protocol, with the reciprocal error they reach."""

    rotation: Direction
    readout: Direction
    value: float
    converged: bool
    skipped: int = 0


def _evaluate(objective: Callable[[float, float], float], xi: float, theta: float) -> float:
    try:
        v = float(objective(xi, theta))
    except (ArithmeticError, FloatingPointError):
        return -math.inf
    return v if math.isfinite(v) else -math.inf


def maximize_on_sphere(
    objective: Callable[[Direction], float],
    domain: SphereDomain = FULL_SPHERE,
    extra_seeds: Iterable[tuple[float, float]] = (),
    top_cells: int = 3,
    maxiter: int = 200,
) -> SphereMaximum:
    """Maximize objective(direction); refined value never drops below the grid value."""
    # imported on first use: it would add 0.35-0.55 s to every CLI start, and
    # fr_optimal_protocol is the only caller
    from scipy.optimize import minimize

    def f(xi: float, theta: float) -> float:
        return objective(Direction.from_angles(xi, theta))

    xg, tg = domain.grid()
    values = np.empty((len(xg), len(tg)))
    skipped = 0
    for i, xi in enumerate(xg):
        for j, th in enumerate(tg):
            values[i, j] = _evaluate(f, xi, th)
            if not math.isfinite(values[i, j]):
                skipped += 1
    order = np.argsort(values, axis=None)[::-1]
    starts = [(float(xg[k // len(tg)]), float(tg[k % len(tg)])) for k in order[:top_cells]]
    starts += [s for s in ANALYTIC_SEEDS if domain.contains(*s)]
    starts += [s for s in extra_seeds if domain.contains(*s)]

    best_xi, best_theta = starts[0]
    best = values.flat[order[0]]
    converged = False
    bounds = [(domain.xi_lo, domain.xi_hi), (domain.theta_lo, domain.theta_hi)]
    for start in starts:
        res = minimize(lambda p: -_evaluate(f, p[0], p[1]), np.asarray(start),
                       method="Nelder-Mead", bounds=bounds,
                       options={"maxiter": maxiter, "fatol": 1e-10, "xatol": 1e-10})
        if -res.fun > best:
            best = -res.fun
            best_xi, best_theta = float(res.x[0]), float(res.x[1])
            converged = converged or bool(res.success)
        elif res.success:
            converged = True
    return SphereMaximum(Direction.from_angles(best_xi, best_theta),
                         best_xi, best_theta, float(best), converged, skipped)


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
