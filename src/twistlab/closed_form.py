"""Closed forms on the standard library alone, so phase-diagram, fr-qfi and fr-variance
without --brute never load numpy: directions, the 0/0 guard, Sigma (nested tuples) of the
twisted complete graph and range-K ring, its exact maximum, the q scan and fr-qfi's two
overlays.  The paper's other forms are test oracles, in tests/dicke_oracle.py and
tests/ring_oracle.py."""
from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import NamedTuple, Sequence

NORM_ATOL = 1e-12
# numerator/denominator threshold below which a ratio is declared 0/0
INDETERMINATE_ATOL = 1e-12
# top eigenvalues closer than this (relative) span one degenerate eigenspace
DEGENERACY_RTOL = 1e-12
# significant digits of the cosines and powers taken where cos t or cos 2t <= 0
COS_DIGITS = 40


class StateNormError(ArithmeticError):
    """A state the program built is off unit norm by more than NORM_ATOL: a
    numerical failure, not a bad input."""


class Direction(namedtuple("Direction", "nx ny nz")):
    """Unit vector on the Bloch sphere, n = (sin xi cos theta, sin xi sin theta, cos xi):
    a tuple of its components, checked as it is made."""

    __slots__ = ()

    def __new__(cls, nx: float, ny: float, nz: float) -> "Direction":
        norm = math.sqrt(nx**2 + ny**2 + nz**2)
        if not abs(norm - 1.0) <= NORM_ATOL:  # a nan component fails too
            raise ValueError(f"direction must be unit length, got |n| = {norm!r}")
        return tuple.__new__(cls, (nx, ny, nz))

    @classmethod
    def _make(cls, iterable) -> "Direction":  # so that _replace checks too
        return cls(*iterable)

    @classmethod
    def from_vector(cls, nx: float, ny: float, nz: float) -> "Direction":
        norm = math.sqrt(nx * nx + ny * ny + nz * nz)
        if norm == 0.0:
            raise ValueError("zero vector has no direction")
        return cls(nx / norm, ny / norm, nz / norm)

    @classmethod
    def from_angles(cls, xi: float, theta: float) -> "Direction":
        return cls(math.sin(xi) * math.cos(theta), math.sin(xi) * math.sin(theta), math.cos(xi))

    @property
    def xi(self) -> float:
        """Polar angle in [0, pi], from atan2 so that it keeps its digits near the poles."""
        return math.atan2(math.hypot(self.nx, self.ny), self.nz)

    @property
    def theta(self) -> float:
        """Azimuth in [-pi, pi); 0 at the poles by convention."""
        th = math.atan2(self.ny, self.nx)
        return -math.pi if th == math.pi else th

    def as_array(self):
        import numpy as np  # the statevector paths alone take arrays
        return np.array([self.nx, self.ny, self.nz])


X_AXIS = Direction(1.0, 0.0, 0.0)
Y_AXIS = Direction(0.0, 1.0, 0.0)
Z_AXIS = Direction(0.0, 0.0, 1.0)


class IndeterminateRatioError(ArithmeticError):
    """Raised when both the squared mean slope and the variance vanish.

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


def _cos_logs(t: float) -> tuple[float, float] | None:
    """(log cos t, log cos 2t) as log1p(-2 sin^2(t/2)) and log1p(-2 sin^2 t), so that
    small t keeps its digits; None where cos t or cos 2t is not positive."""
    if math.cos(t) <= 0.0 or math.cos(2.0 * t) <= 0.0:
        return None
    return math.log1p(-2.0 * math.sin(t / 2.0) ** 2), math.log1p(-2.0 * math.sin(t) ** 2)


def _digits():
    """A decimal context of COS_DIGITS digits; only a run that takes one loads decimal."""
    from decimal import Context, localcontext
    return localcontext(Context(prec=COS_DIGITS))


def _decimal_cos(t: float):
    """cos t good to COS_DIGITS digits, which its powers and their differences in _digits()
    keep (a power k of the rounded cos t is k roundings off: 8.8e-14 at k = 997, t = 1):
    t's exact value, reduced mod 2 pi beyond 2 pi with pi to as many more digits as t has
    before its point, and a Taylor series, each with 30 guard digits (no double is within
    4.7e-19 of a zero of cos).  So every platform has the same digits."""
    from decimal import Context, Decimal, localcontext

    x, digits = Decimal(t), COS_DIGITS + 30
    if abs(t) > 2.0 * math.pi:  # within 2 pi no term of the series reaches 100
        with localcontext(Context(prec=digits + 2 + x.adjusted())):
            lasts, term, pi, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
            while pi != lasts:  # the series of the decimal module's documentation
                lasts, n, na, d, da = pi, n + na, na + 8, d + da, da + 32
                term = term * n / d
                pi += term
            x = x.remainder_near(2 * pi)
    with localcontext(Context(prec=digits)):
        square, lasts, term, total, i = -x * x, 0, Decimal(1), Decimal(1), 0
        while total != lasts:
            lasts, i = total, i + 2
            term = term * square / (i * (i - 1))
            total += term
    return total


def ising_covariance(n_spins: int, degree: int, one, both, weight, t: float) -> tuple:
    """Sigma_ab = Re<J_a J_b> - <J_a><J_b> of exp(-i t h)|+>^{(M)}, M = n_spins, as nested
    tuples, for h = (1/2) sum over the edges of a graph of Z_r Z_s of degree q at every site.

    Pair class p, given as equal-length int sequences: o_p = one[p] other sites are
    next to exactly one end, b_p = both[p] next to both, and a site has w_p = weight[p]
    partners in it (sum_p w_p = M - 1).  The complete graph (J_z^2 less N/4) is the
    one class ((0,), (M - 2,), (M - 1,)), a range-K ring its O(K) distinct distances.
    With c = cos t, s = cos 2t (Foss-Feig et al., PRA 87, 042101 (2013)),
    Sigma_zz = M/4, Sigma_yz = (M q/4) c^(q-1) sin t,
      Sigma_xx = (M/4)(1 - c^2q) + (M/8) sum_p w_p [(c^o_p - c^2q) + (c^o_p s^b_p - c^2q)],
      Sigma_yy = M/4 + (M/8) sum_p w_p c^o_p (1 - s^b_p).
    Where _cos_logs has logs, powers are math.exp of them, in one pass over the classes
    in Python floats, and each class sum is a math.fsum; elsewhere c and s are taken
    once, by _decimal_cos, and each power of them, sum and entry is formed in _digits().
    The bracket's terms cancel to O(t^2): it is c^2q expm1(A + B) - (c^o_p - c^2q)
    expm1(B), with x = log c, y = log(s/c^4) = log1p(-tan^4 t), a_p = q - b_p - o_p/2
    the ends' adjacency, A + B = b_p y - 4 a_p x, B = 2(b_p - a_p) x + b_p y and
    c^o_p - c^2q = -c^o_p expm1((2q - o_p) x): nothing cancels or overflows.
    """
    if not math.isfinite(2.0 * t):  # cos 2t is the widest cosine taken
        raise OverflowError(f"interaction time {t!r}: 2t overflows to infinity")
    m, logs = float(n_spins), _cos_logs(t)
    if logs is None:
        with _digits():
            c, s = _decimal_cos(t), _decimal_cos(2.0 * t)
            full, pair, transverse, classes = c ** (2 * degree), 0, 0, {}
            for o, b, w in zip(one, both, weight):  # each (o_p, b_p) power taken once
                classes[o, b] = classes.get((o, b), 0) + w
            for (o, b), w in classes.items():
                end, s_both = c ** o, s ** b
                pair += w * ((end - full) + (end * s_both - full))
                transverse += w * end * (1 - s_both)
            xx = float(n_spins * (2 * (1 - full) + pair) / 8)
            yy, yz_power = float(n_spins * (2 + transverse) / 8), float(c ** (degree - 1))
    else:
        x, log_s = logs
        y, full = math.log1p(-math.tan(t) ** 4), 2 * degree * x
        edge, c_full, pairs, transverses = -math.expm1(full), math.exp(full), [], []
        for o, b, w in zip(one, both, weight):
            adjacent, end = degree - b - o / 2.0, o * x
            c_end, expm1_b = math.exp(end), math.expm1(2.0 * (b - adjacent) * x + b * y)
            pairs.append(w * (c_full * math.expm1(b * y - 4.0 * adjacent * x)
                              + c_end * math.expm1(full - end) * expm1_b))
            transverses.append(w * (-c_end * math.expm1(b * log_s)))
        xx = (m / 4.0) * edge + (m / 8.0) * math.fsum(pairs)
        yy = m / 4.0 + (m / 8.0) * math.fsum(transverses)
        yz_power = math.exp((degree - 1) * x)
    yz = m * degree * yz_power * math.sin(t) / 4.0
    return (xx, 0.0, 0.0), (0.0, yy, yz), (0.0, yz, m / 4.0)


def _quadratic(sigma, xi: float, theta: float) -> float:
    """n^T Sigma n at n(xi, theta), as math.fsum of its nine products in Python floats."""
    n = Direction.from_angles(xi, theta)
    return math.fsum(a * s * b for a, row in zip(n, sigma) for s, b in zip(row, n))


class SphereMaximum(NamedTuple):
    """The argmax, its angles and the value there: "attained" by the objective, or a
    "lower_bound" on it where it is 0/0 (optimizer.maximize_limit).  A record, unchecked."""

    direction: Direction
    value: float
    kind: str = "attained"

    @property
    def xi(self) -> float:
        return self.direction.xi

    @property
    def theta(self) -> float:
        return self.direction.theta


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


def maximize_quadratic_form(matrix) -> SphereMaximum:
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


def _max_qfi(sigma) -> SphereMaximum:
    """QFI maximized over rotation directions: 4 lambda_max(Sigma) and its eigenvector.
    exp(-i pi J_x) keeps the twisted state up to a phase and flips J_y and J_z, so
    Sigma_xy = Sigma_xz = 0 and maximize_quadratic_form has it (the factor 4 is exact)."""
    best = maximize_quadratic_form(sigma)
    return best._replace(value=4.0 * best.value)


def covariance_matrix(n_particles: int, t: float) -> tuple:
    """Sigma of e^{-it Jz^2}|zeta=1> (QFI(n) = 4 n^T Sigma n): complete-graph ising_covariance."""
    if n_particles < 1:
        raise ValueError("need at least one particle")
    return ising_covariance(n_particles, n_particles - 1, (0,), (n_particles - 2,),
                            (n_particles - 1,), t)


def qfi_closed_form(n_particles: int, t: float, xi: float, theta: float) -> float:
    """QFI of the twisted probe on the rotation path n(xi, theta): three-term closed form."""
    return 4.0 * _quadratic(covariance_matrix(n_particles, t), xi, theta)


def max_qfi_over_directions(n_particles: int, t: float) -> SphereMaximum:
    """The Dicke probe's QFI maximized over rotation directions (_max_qfi)."""
    return _max_qfi(covariance_matrix(n_particles, t))


class ScanRecord(NamedTuple):
    """One row of a phase-diagram or protocol sweep: a record, made without checks."""

    n_particles: int
    t: float
    qfi_max: float
    argmax_xi: float
    argmax_theta: float
    regime: str
    q: float | None = None


def classify_regime(n_particles: int, t: float, value: float) -> str:
    """Map a scan point to a phase label by predictor thresholds (labels are descriptive)."""
    n = float(n_particles)
    plateau = n * (n + 1) / 2.0
    if value >= 0.9 * n * n:
        return "heisenberg_limit"
    if abs(value - plateau) <= 0.01 * plateau:
        return "plateau"
    if t >= math.pi / 2 - 2.5 / math.sqrt(n):
        return "ghz_edge"
    if value <= 3.0 * n:
        return "sql"
    alpha = -math.log(t) / math.log(n) if 0 < t < 1 else 0.0
    return "sub_heisenberg" if alpha > 0.55 else "heisenberg_transition"


def linspace(start: float, stop: float, points: int) -> list[float]:
    """points evenly spaced floats from start to stop, each start + i step with the last
    stop, as numpy.linspace forms them, so the grid has its bits."""
    if points < 2:
        return [start][:points]
    step = (stop - start) / (points - 1)
    return [start + i * step for i in range(points - 1)] + [stop]


def default_q_grid(n_particles: int, points: int = 60) -> list[float]:
    """Interaction-time exponents covering SQL through the t = pi/2 endpoint."""
    if n_particles < 2:
        raise ValueError("the grid t = N^q needs at least two particles")
    return linspace(-2.5, math.log(math.pi / 2) / math.log(n_particles), points)


def phase_diagram_scan(n_particles: int, q_grid: Sequence[float] | None = None) -> list[ScanRecord]:
    """Direction-maximized QFI against the interaction-time exponent q (t = N^q)."""
    records = []
    for q in map(float, default_q_grid(n_particles) if q_grid is None else q_grid):
        try:
            t = min(float(n_particles) ** q, math.pi / 2)
        except OverflowError:  # N^q past the largest float is past pi/2 too
            t = math.pi / 2
        if t <= 0.0:
            raise ValueError("interaction time must be positive")
        best = max_qfi_over_directions(n_particles, t)
        records.append(ScanRecord(
            n_particles=n_particles, t=t, q=q, qfi_max=best.value,
            argmax_xi=best.xi, argmax_theta=best.theta,
            regime=classify_regime(n_particles, t, best.value)))
    return records


def _check_system_args(n_particles: int, range_k: int) -> int:
    if n_particles < 2 or n_particles % 2:
        raise ValueError("n_particles must be even and at least 2")
    if not 1 <= range_k <= n_particles // 2:
        raise ValueError(f"range K must satisfy 1 <= K <= N/2 = {n_particles // 2}, got {range_k}")
    return n_particles + 2


@functools.lru_cache
def _ring_classes(n_sites: int, range_k: int) -> tuple[tuple[int, ...], ...]:
    """The ring's distinct pair classes d = 1..min(2K+1, M/2), as three tuples of Python
    ints (one, both, weight) made in one loop over d, once per (M, K): sites other than
    0 and d within range of exactly one / both endpoints, and partners per site.  d and
    M-d count alike (weight 2, 1 at d = M/2); d = 2K+1 < M/2 stands for all M-1-4K
    distances up to M-2K-1, each (4K, 0).  The (2K+1)-site windows around 0 and d overlap
    in c(d) sites, both endpoints among them when a(d) = [d <= K]: both = c - 2a."""
    width, top = 2 * range_k + 1, min(2 * range_k + 1, n_sites // 2)
    one, both, weight = [], [], []
    for d in range(1, top + 1):
        in_range = int(d <= range_k)
        both.append(max(0, width - d) + max(0, width - (n_sites - d)) - 2 * in_range)
        one.append(2 * (2 * range_k - in_range) - 2 * both[-1])
        weight.append(2 if d < top else n_sites + 1 - 2 * top)
    return tuple(one), tuple(both), tuple(weight)


def fr_covariance_matrix(n_particles: int, range_k: int, t: float) -> tuple:
    """Sigma_ab = Re<J_a J_b> - <J_a><J_b> of exp(-i t H_K)|+>^{(N+2)} in closed form:
    ising_covariance with the ring's O(K) pair classes (_ring_classes), exact for
    every legal K."""
    m = _check_system_args(n_particles, range_k)
    return ising_covariance(m, 2 * range_k, *_ring_classes(m, range_k), t)


def fr_variance_analytic(n_particles: int, range_k: int, t: float, xi: float, theta: float,
                         branch: str = "auto") -> float:
    """Var(n.J) = n^T Sigma n of the twisted ring state.

    branch serves perfbench/checks.py, which passes each fr-qfi row's "branch"
    column here: "auto", the one closed form, is its only value, and any other
    raises ValueError."""
    if branch != "auto":
        raise ValueError(f"unknown branch {branch!r}; the ring's closed form is 'auto'")
    return _quadratic(fr_covariance_matrix(n_particles, range_k, t), xi, theta)


def fr_max_qfi(n_particles: int, range_k: int, t: float) -> SphereMaximum:
    """The ring's QFI maximized over rotation directions (_max_qfi)."""
    return _max_qfi(fr_covariance_matrix(n_particles, range_k, t))


def qfi_decibels(value: float, n_sites: int) -> float:
    """10 log10 of the SQL-normalized QFI (decibel axis for phase-diagram plots)."""
    return 10.0 * math.log10(value / n_sites)


def overlay_inter(n_particles: int, t: float) -> float:
    """fr-qfi's overlay_inter: the paper's intermediate-range form (N + 2)/sin^2 t on the
    QFI scale, at its best direction.  ValueError where sin t = 0 or the value overflows."""
    sin2 = math.sin(t) ** 2
    scale = (n_particles + 2.0) / sin2 if sin2 else math.inf
    if not math.isfinite(scale):
        raise ValueError(f"inter1 diverges where sin t = 0 or M/sin^2 t overflows (t = {t!r})")
    return scale


def overlay_largescale(n_particles: int, t: float) -> float:
    """fr-qfi's overlay_largescale: the paper's large-scale form on the QFI scale,
    (N^2 - 4)/2 cos^2 t + (N + 2)/2 (3 + 2 cos^2 t)."""
    n, ct2 = float(n_particles), math.cos(t) ** 2
    return (n * n - 4.0) / 2.0 * ct2 + (n + 2.0) / 2.0 * (3.0 + 2.0 * ct2)
