"""Metrology of one-axis-twisted probes.

Closed-form and numeric quantum Fisher information for e^{-it Jz^2}|zeta=1>,
twist-untwist protocol states, the method-of-moments estimation error of a
total-spin readout, small-angle analytics, asymptotic regime predictors, and
the interaction-time phase-diagram scan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import spin_core as sc
from .numerics import (IndeterminateRatioError, centred_moments, cos2_power_m1, guarded_ratio,
                       heisenberg_gap, ising_covariance, mom_limit_terms, mom_reciprocal,
                       re_inner, untwist_moments)
from .optimizer import SphereMaximum, maximize_quadratic_form, maximize_slope_ratio
from .spin_core import Direction, X_AXIS, Y_AXIS

VARIANTS = ("rotation_only", "twist_untwist", "twist_untwist_realigned", "mach_zehnder")


@dataclass(frozen=True)
class ProtocolSpec:
    """One run of the interferometric sequence: twist by t, sense by one rotation
    exp(-i phi a.J) (`sensing`), then untwist (rotation_only does not).

    The realignment exp(+i realign_angle a.J) follows sensing about its axis, so
    twist_untwist_realigned senses about a = rotation by angle - realign_angle.
    mach_zehnder's exp(+i angle J_z) between pi/2 pulses is exp(-i angle J_a)
    about a = mz_axis, realigned about a: it senses by angle - realign_angle,
    and rotation is not used.
    """

    n_particles: int
    twist_time: float
    angle: float
    rotation: Direction
    variant: str = "twist_untwist"
    realign_angle: float = 0.0
    mz_axis: str = "y"

    def __post_init__(self) -> None:
        if self.n_particles < 1:
            raise ValueError("need at least one particle")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.variant == "mach_zehnder" and self.mz_axis not in ("x", "y"):
            raise ValueError("mach_zehnder axis must be 'x' or 'y'")

    @property
    def sensing(self) -> tuple[Direction, float]:
        """The axis a and the angle phi of the one sensing rotation exp(-i phi a.J)."""
        if self.variant == "mach_zehnder":
            return (X_AXIS if self.mz_axis == "x" else Y_AXIS), self.angle - self.realign_angle
        if self.variant == "twist_untwist_realigned":
            return self.rotation, self.angle - self.realign_angle
        return self.rotation, self.angle


@dataclass(frozen=True)
class ScanRecord:
    """One row of a phase-diagram or protocol sweep."""

    n_particles: int
    t: float
    qfi_max: float
    argmax_xi: float
    argmax_theta: float
    regime: str
    q: float | None = None


def _quadratic_qfi(sigma: np.ndarray, xi: float, theta: float) -> float:
    n = Direction.from_angles(xi, theta).as_array()
    return 4.0 * float(np.einsum("i,ij,j", n, sigma, n))


def covariance_matrix(n_particles: int, t: float) -> np.ndarray:
    """Sigma of e^{-it Jz^2}|zeta=1> (QFI(n) = 4 n^T Sigma n): complete-graph ising_covariance."""
    if n_particles < 1:
        raise ValueError("need at least one particle")
    return ising_covariance(n_particles, n_particles - 1, 0, n_particles - 2, n_particles - 1, t)


def qfi_closed_form(n_particles: int, t: float, xi: float, theta: float) -> float:
    """QFI of the twisted probe on the rotation path n(xi, theta): three-term closed form."""
    return _quadratic_qfi(covariance_matrix(n_particles, t), xi, theta)


def qfi_numeric(n_particles: int, t: float, direction: Direction) -> float:
    """4 Var(n.J) in e^{-it Jz^2}|zeta=1>, built state-side as a cross-check of the closed form."""
    state = sc.oat_evolve(sc.coherent_state(n_particles, 1.0), t)
    return 4.0 * sc.variance(state, direction)


def max_qfi_over_directions(n_particles: int, t: float) -> SphereMaximum:
    """QFI maximized over rotation directions: 4 lambda_max(Sigma) and its eigenvector.

    exp(-i pi J_x) keeps e^{-it Jz^2}|zeta=1> up to a phase and flips J_y and J_z,
    so Sigma_xy = Sigma_xz = 0 and the top eigenpair is closed form
    (maximize_quadratic_form)."""
    return maximize_quadratic_form(4.0 * covariance_matrix(n_particles, t))


def _sensed(spec: ProtocolSpec) -> tuple[np.ndarray, np.ndarray | float]:
    """chi, the twisted probe just after the sensing rotation, and the diagonal of
    the untwist exp(+i t Jz^2) after it (1 for rotation_only)."""
    m = sc._m(spec.n_particles)
    twist = np.exp(-1j * spec.twist_time * m * m)
    probe = sc.CollectiveState(spec.n_particles,
                               sc.coherent_state(spec.n_particles, 1.0).amplitudes * twist)
    chi = sc.rotate(probe, *spec.sensing).amplitudes
    return chi, 1.0 if spec.variant == "rotation_only" else twist.conj()


def protocol_state(spec: ProtocolSpec) -> sc.CollectiveState:
    """Compose the probe state for the given protocol variant."""
    chi, untwist = _sensed(spec)
    return sc.CollectiveState(spec.n_particles, chi * untwist)


def signal(spec: ProtocolSpec, readout: Direction) -> float:
    return sc.expectation(protocol_state(spec), readout)


def protocol_moments(spec: ProtocolSpec) -> tuple[np.ndarray, np.ndarray]:
    """D = d<J>/dphi and the centred covariance matrix Sigma of J in the protocol
    state (see untwist_moments)."""
    return untwist_moments(*_sensed(spec), spec.sensing[0].as_array(), sc._spin_apply)


def mom_reciprocal_error(spec: ProtocolSpec, readout: Direction) -> float:
    """(d<m.J>/dphi)^2 / Var(m.J): reciprocal of the asymptotic method-of-moments error.

    The derivative is exact (see protocol_moments).  A 0/0 point (both
    pieces below 1e-12) raises IndeterminateRatioError.
    """
    return mom_reciprocal(*protocol_moments(spec), readout.as_array())


def optimal_readout(spec: ProtocolSpec) -> SphereMaximum:
    """The readout m that maximizes mom_reciprocal_error(spec, m), and that maximum:
    D^T Sigma^-1 D at m ~ Sigma^-1 D (see maximize_slope_ratio)."""
    return maximize_slope_ratio(*protocol_moments(spec))


def _mom_limit_terms(n_particles: int,
                     t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A, E, F and B of mom_limit_terms for the twist-untwist protocol on N spins,
    with U = exp(-i t Jz^2): Jz and U are diagonal and J tridiagonal, so this
    costs O(N)."""
    m = sc._m(n_particles)  # Jz eigenvalues
    return mom_limit_terms(sc.coherent_state(n_particles, 1.0).amplitudes,
                           np.exp(-1j * t * m * m), sc._spin_apply)


def mom_reciprocal_at_zero(spec: ProtocolSpec, readout: Direction) -> float:
    """phi -> 0 limit of mom_reciprocal_error, exact from the state's phi-Taylor terms.

    At phi = 0 the state is |+x>, whose covariance is (N/4) on the plane
    transverse to x.  A readout m with a transverse part tends to
    (m_perp . A n)^2 / ((N/4)|m_perp|^2); at m = +-x that is 0/0, and the
    limit is the next order, (n^T F n)^2 / n^T H n (A, E, F, B, H as in
    mom_limit_terms; limit_variance_rate).  spec.angle is not used.
    """
    if spec.variant != "twist_untwist":
        raise ValueError("the phi -> 0 limit is defined for the twist_untwist variant")
    a, e, f, b = _mom_limit_terms(spec.n_particles, spec.twist_time)
    n, m_perp = spec.rotation.as_array(), readout.as_array()[1:]
    try:
        return guarded_ratio(float(np.einsum("b,bi,i", m_perp, a, n)) ** 2,
                             spec.n_particles / 4.0 * float(np.einsum("b,b", m_perp, m_perp)))
    except IndeterminateRatioError:
        return guarded_ratio(float(np.einsum("i,ij,j", n, f, n)) ** 2,
                             limit_variance_rate(e, b, n, spec.n_particles))


def limit_variance_rate(e: np.ndarray, b: np.ndarray, rotation: np.ndarray,
                        n_spins: int) -> float:
    """Var(J_x) / phi^2 as phi -> 0 along rotation n, from E and B of mom_limit_terms
    on S = n_spins spins: n^T H n = n^T B n + (4/S)|E n|^2, a sum of non-negative
    terms."""
    e_n = np.einsum("bi,i->b", e, rotation)
    return float(np.einsum("i,ij,j", rotation, b, rotation) + 4.0 / n_spins * np.sum(e_n * e_n))


def small_phi_slope(n_particles: int, t: float) -> float:
    """Exact finite-N coefficient of phi in d<Jx>/dphi for the x-rotation twist-untwist probe.

    In the powers of c = cos 2t its N^3 terms cancel down to about -2 N (N - 1) t^2.
    With g_k = c^k - 1 (numerics.cos2_power_m1) it is
        (N (N - 1)/8) g_1 (4 - (N - 2) g_(N-3)) + (N/4) (N (1 + g_(N-2)) g_1 + g_(N-2)),
    in which nothing cancels."""
    if n_particles < 3:
        raise ValueError("third moments need at least three particles")
    n = float(n_particles)
    g1, g2, g3 = (cos2_power_m1(k, t) for k in (1, n_particles - 2, n_particles - 3))
    return n * (n - 1.0) / 8.0 * g1 * (4.0 - (n - 2.0) * g3) + n / 4.0 * (n * (1.0 + g2) * g1 + g2)


def small_phi_variance_rate(n_particles: int, t: float) -> float:
    """Var(Jx)/phi^2 as phi -> 0 for the x-rotation twist-untwist probe: ||K g_x||^2,
    limit_variance_rate along x."""
    if n_particles < 4:
        raise ValueError("fourth moments need at least four particles")
    _, e, _, b = _mom_limit_terms(n_particles, t)
    return limit_variance_rate(e, b, X_AXIS.as_array(), n_particles)


def ghz_parity_error(n_particles: int, phi: float) -> float:
    """(Delta phi)^2 for the rotated polar-superposition probe with an X^{xN} parity readout.

    The rotation e^{-i phi Jz} is the phase e^{-i phi m_ell}, and d<P>/dphi =
    i<[Jz, P]> along it is exact.  Var(P) is centred, ||(P - <P>) psi||^2: where
    <P> is near -+1, as at N phi near a multiple of pi, 1 - <P>^2 would keep only
    a few digits.
    """
    m = sc._m(n_particles)
    amps = sc.ghz_state(n_particles).amplitudes * np.exp(-1j * phi * m)
    flipped = amps[::-1].copy()  # X^{xN} maps ell -> N - ell; contiguous, for re_inner
    var = centred_moments(amps, flipped)[1]
    der = 2.0 * float(re_inner("i,i", amps, 1j * m * flipped))  # -2 Im<psi|Jz P psi>
    return 1.0 / guarded_ratio(der * der, var)


SUB_HEISENBERG_PEAK_COEFF = 24 ** (1 / 6) * 2 ** (2 / 3) / 2.0


def asymptotic_predictor(regime: str, n_particles: int, c: float = 1.0,
                         xi: float = math.pi / 2, theta: float | None = None) -> float:
    """Named large-N formulas for the phase-diagram regimes (overlay values, not oracles)."""
    n = float(n_particles)
    if regime == "sql":
        th = math.pi / 2 if theta is None else theta
        return n * (math.sin(xi) ** 2 * math.sin(th) ** 2 + math.cos(xi) ** 2)
    if regime in ("plateau", "constant_time"):  # any fixed t in (0, pi/2) reaches the plateau
        return n * (n + 1) / 2.0
    if regime == "heisenberg_scaling":
        return n * n * heisenberg_gap(c) / 2.0
    if regime == "heisenberg_limit":
        return n * n
    if regime == "ghz_edge":
        sign = 1.0 if n_particles % 2 == 0 else -1.0
        th = (0.0 if n_particles % 2 == 0 else math.pi / 2) if theta is None else theta
        damp = sign * math.cos(2 * th) * math.exp(-2.0 * c * c)
        return math.sin(xi) ** 2 * ((n * n / 2.0) * (1.0 + damp) + (n / 2.0) * (1.0 - damp))
    if regime == "sub_heisenberg_peak_time":
        return SUB_HEISENBERG_PEAK_COEFF / n ** (2 / 3)
    if regime == "sub_heisenberg":
        # no closed-form constant exists here; evaluate at the squeezing-peak time
        t_peak = SUB_HEISENBERG_PEAK_COEFF / n ** (2 / 3)
        return qfi_closed_form(n_particles, t_peak, math.pi / 2, math.pi / 2)
    raise ValueError(f"unknown regime {regime!r}")


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


def default_q_grid(n_particles: int, points: int = 60) -> np.ndarray:
    """Interaction-time exponents covering SQL through the t = pi/2 endpoint."""
    q_max = math.log(math.pi / 2) / math.log(n_particles)
    return np.linspace(-2.5, q_max, points)


def phase_diagram_scan(n_particles: int, q_grid: Sequence[float] | None = None) -> list[ScanRecord]:
    """Direction-maximized QFI against the interaction-time exponent q (t = N^q)."""
    grid = default_q_grid(n_particles) if q_grid is None else np.asarray(q_grid, dtype=float)
    records = []
    for q in grid:
        t = min(float(n_particles) ** float(q), math.pi / 2)
        if t <= 0.0:
            raise ValueError("interaction time must be positive")
        best = max_qfi_over_directions(n_particles, t)
        records.append(ScanRecord(
            n_particles=n_particles, t=t, q=float(q), qfi_max=best.value,
            argmax_xi=best.xi, argmax_theta=best.theta,
            regime=classify_regime(n_particles, t, best.value)))
    return records


def _wallis(m: int) -> float:
    """W(m) = (2/pi) integral of cos(t)^(2m) over [0, pi/2] = C(2m, m) / 4^m,
    as prod_j (1 - 1/(2j)) summed in logs, so large m neither overflows nor
    costs a big-integer binomial."""
    return math.exp(math.fsum(np.log1p(-0.5 / np.arange(1, m + 1))))


def time_averaged_qfi(n_particles: int, xi: float, theta: float) -> float:
    """(2/pi) integral of the closed form over t in [0, pi/2], as an exact finite sum.

    Over the half period cos(t)^(2(N-1)) averages to W(N-1), cos(2t)^(N-2) to
    W((N-2)/2) for even N and to 0 for odd N, and cos(t)^(N-2) sin t to
    2/(pi (N-1)).  The result tends to N(N+1)/2 only as N -> infinity: at
    xi = pi/2, theta = 0 it sits below by a relative ~0.33/sqrt(N) for even N
    and ~1.13/sqrt(N) for odd N.
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    n = float(n_particles)
    even = _wallis((n_particles - 2) // 2) if n_particles % 2 == 0 else 0.0
    # 4 Sigma = [[A + B - C, 0, 0], [0, A - B, Y], [0, Y, N]] is linear in the terms
    a, b, c = (n * n + n) / 2.0, (n * (n - 1) / 2.0) * even, n * n * _wallis(n_particles - 1)
    y = 2.0 * n / math.pi if n_particles > 1 else 0.0
    averaged = np.array([[a + b - c, 0.0, 0.0], [0.0, a - b, y], [0.0, y, n]]) / 4.0
    return _quadratic_qfi(averaged, xi, theta)
