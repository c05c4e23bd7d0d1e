"""Richardson extrapolation of phi -> 0 limits and the indeterminate-ratio guard."""
from __future__ import annotations

import math
from typing import Sequence

# angles at which phi -> 0 limits are sampled (halving ladder)
PHI_LADDER = (1e-3, 5e-4, 2.5e-4)

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


class ExtrapolationDivergenceError(ArithmeticError):
    """Richardson corrections grew instead of shrinking; no phi -> 0 limit found."""


def richardson_limit(values: Sequence[float]) -> float:
    """Limit of an even series v(h) = L + a h^2 + b h^4 sampled at (h, h/2, h/4)."""
    if len(values) != 3:
        raise ValueError("need samples at h, h/2, h/4")
    r1 = [(4.0 * values[i + 1] - values[i]) / 3.0 for i in range(2)]
    r2 = (16.0 * r1[1] - r1[0]) / 15.0
    if not math.isfinite(r2):
        raise ExtrapolationDivergenceError(f"extrapolation produced {r2!r}")
    # corrections must shrink level over level (floor absorbs evaluation noise)
    first_level = abs(r1[1] - values[2])
    second_level = abs(r2 - r1[1])
    if second_level > 0.25 * first_level + 1e-9 * abs(r2) + 1e-300:
        raise ExtrapolationDivergenceError(
            f"Richardson corrections grew: level-1 {first_level:.3e}, level-2 {second_level:.3e}")
    return r2


def guarded_ratio(numerator: float, denominator: float) -> float:
    if numerator < INDETERMINATE_ATOL and denominator < INDETERMINATE_ATOL:
        raise IndeterminateRatioError(numerator, denominator)
    return numerator / denominator
