"""Metrology of one-axis-twisted probes on numpy states: the method-of-moments
estimation error of a total-spin readout at phi -> 0, and the GHZ parity error.  The
twisted probe's QFI is in closed_form; its numeric cross-check, the protocol variants
and the twist, sense and untwist protocol's moments at finite phi are in dicke_sums.
"""
from __future__ import annotations

import numpy as np

from . import spin_core as sc
from .closed_form import Direction, IndeterminateRatioError, guarded_ratio
from .closed_form import qfi_closed_form  # read here by perfbench/checks.py
from .numerics import centred_moments, mom_limit_terms, re_inner


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
