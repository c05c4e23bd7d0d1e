"""Metrology of one-axis-twisted probes.

The protocol variants as one sensing rotation each (sensing), the moments of the
twist, sense and untwist protocol, the method-of-moments estimation error of a
total-spin readout at phi -> 0, and the GHZ parity error.  The twisted probe's QFI
is in closed_form, and its numeric cross-check in dicke_sums.
"""
from __future__ import annotations

import numpy as np

from . import spin_core as sc
from .closed_form import Direction, IndeterminateRatioError, X_AXIS, Y_AXIS, guarded_ratio
from .closed_form import qfi_closed_form  # read here by perfbench/checks.py
from .numerics import centred_moments, mom_limit_terms, re_inner, untwist_moments

VARIANTS = ("rotation_only", "twist_untwist", "twist_untwist_realigned", "mach_zehnder")


def sensing(variant: str, rotation: Direction, angle: float, realign_angle: float = 0.0,
            mz_axis: str = "y") -> tuple[Direction, float, bool]:
    """The axis a and the angle phi of a variant's one sensing rotation exp(-i phi a.J),
    and whether the untwist follows it (rotation_only has none).

    The realignment exp(+i realign_angle a.J) follows sensing about its axis, so
    twist_untwist_realigned senses about a = rotation by angle - realign_angle.
    mach_zehnder's exp(+i angle J_z) between pi/2 pulses is exp(-i angle J_a)
    about a = mz_axis, realigned about a: it senses by angle - realign_angle,
    and rotation is not used.  The other two do not realign.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant == "mach_zehnder":
        if mz_axis not in ("x", "y"):
            raise ValueError("mach_zehnder axis must be 'x' or 'y'")
        return (X_AXIS if mz_axis == "x" else Y_AXIS), angle - realign_angle, True
    if variant == "twist_untwist_realigned":
        return rotation, angle - realign_angle, True
    return rotation, angle, variant == "twist_untwist"


def _sensed(n_particles: int, t: float, phi: float, rotation: Direction,
            untwist: bool = True) -> tuple[np.ndarray, np.ndarray | float]:
    """chi, the probe twisted by t just after the sensing rotation exp(-i phi n.J)
    about n = rotation, and the diagonal of the untwist exp(+i t Jz^2) after it
    (1 without the untwist)."""
    twist = sc._twist_phases(n_particles, t)
    probe = sc.CollectiveState(n_particles, sc.coherent_state(n_particles, 1.0).amplitudes * twist)
    return sc.rotate(probe, rotation, phi).amplitudes, twist.conj() if untwist else 1.0


def protocol_moments(n_particles: int, t: float, phi: float, rotation: Direction,
                     untwist: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """D = d<J>/dphi and the centred covariance matrix Sigma of J in the state twisted
    by t, sensed by exp(-i phi n.J) about n = rotation and, with untwist, untwisted
    (see untwist_moments): what numerics.mom_reciprocal and
    optimizer.maximize_slope_ratio take."""
    return untwist_moments(*_sensed(n_particles, t, phi, rotation, untwist),
                           rotation.as_array(), sc._spin_apply)


def _mom_limit_terms(n_particles: int, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A, C <= 0 and B >= 0 of mom_limit_terms for the twist-untwist protocol on N
    spins, with U = exp(-i t Jz^2): Jz and U are diagonal and J tridiagonal, so
    this costs O(N)."""
    return mom_limit_terms(sc.coherent_state(n_particles, 1.0).amplitudes,
                           sc._twist_phases(n_particles, t), sc._spin_apply)


def mom_reciprocal_at_zero(n_particles: int, t: float, rotation: Direction) -> float:
    """phi -> 0 limit of the reciprocal method-of-moments error of the twist-untwist
    protocol about n = rotation, read out along n, exact from the state's phi-Taylor
    terms.

    At phi = 0 the state is |+x>, whose covariance is (N/4) on the plane
    transverse to x.  With a transverse part n_perp the limit is
    (n_perp . A n)^2 / ((N/4)|n_perp|^2); at n = +-x that is 0/0, and the
    limit is the next order, (n^T F n)^2 / n^T H n, with n^T F n = n^T C n -
    (2/N)|A n|^2 <= 0 and n^T H n = n^T B n + (1/N)|A n|^2 >= 0 (A, C, B as in
    mom_limit_terms).  A 0/0 point raises IndeterminateRatioError.
    """
    a, c, b = _mom_limit_terms(n_particles, t)
    n = rotation.as_array()
    n_perp = n[1:]
    try:
        return guarded_ratio(float(np.einsum("b,bi,i", n_perp, a, n)) ** 2,
                             n_particles / 4.0 * float(np.einsum("b,b", n_perp, n_perp)))
    except IndeterminateRatioError:
        slope = (np.einsum("i,ij,j", n, c, n)
                 - 2.0 / n_particles * np.einsum("bi,i,bj,j", a, n, a, n))
        rate = np.einsum("i,ij,j", n, b, n) + np.einsum("bi,i,bj,j", a, n, a, n) / n_particles
        return guarded_ratio(float(slope) ** 2, float(rate))


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
