"""Test oracle for the exact direction maximizers: a dense (polar, azimuth)
grid, then a zoom onto its best point.  It shares no code with them."""
import math

import numpy as np

from twistlab.closed_form import Direction

# points per axis of one zoom box; each box is half as wide as the last
ZOOM_POINTS = 9


def sphere_search(objective, xi=(0.0, math.pi), theta=(-math.pi, math.pi), cells=32,
                  atol=1e-10):
    """(value, Direction) of the largest finite value of a vectorized objective,
    a (k, 3) array of unit vectors -> k values, over a box in (polar, azimuth).

    A cells x cells grid at cell centres, then ZOOM_POINTS x ZOOM_POINTS boxes
    around the best point so far, starting one cell wide either side, until the
    box half-width is below atol (radians).
    """
    def best_of(xs, ts):
        xs, ts = (a.ravel() for a in np.meshgrid(xs, ts, indexing="ij"))
        units = np.stack([np.sin(xs) * np.cos(ts), np.sin(xs) * np.sin(ts), np.cos(xs)], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.asarray(objective(units), dtype=float)
        values = np.where(np.isfinite(values), values, -np.inf)
        k = int(np.argmax(values))
        return float(values[k]), float(xs[k]), float(ts[k])

    half = np.array([(xi[1] - xi[0]) / cells, (theta[1] - theta[0]) / cells])
    centres = (np.arange(cells) + 0.5) / cells
    best = best_of(xi[0] + centres * (xi[1] - xi[0]), theta[0] + centres * (theta[1] - theta[0]))
    offsets = np.linspace(-1.0, 1.0, ZOOM_POINTS)
    while half.max() > atol:
        level = best_of(np.clip(best[1] + half[0] * offsets, *xi),
                        np.clip(best[2] + half[1] * offsets, *theta))
        if level[0] > best[0]:
            best = level
        half /= 2.0
    return best[0], Direction.from_angles(best[1], best[2])
