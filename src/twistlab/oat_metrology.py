"""Metrology of one-axis-twisted probes: the method-of-moments error of a total-spin readout
at phi -> 0, on Python floats over the probe's window (dicke_sums), and the GHZ parity
error, whose numpy state alone loads numpy and spin_core.  The twisted probe's QFI is in
closed_form; its numeric cross-check and the protocol's moments at finite phi in dicke_sums.
"""
from __future__ import annotations

import math

from .closed_form import Direction, IndeterminateRatioError, guarded_ratio
from .closed_form import qfi_closed_form  # read here by perfbench/checks.py
from .dicke_sums import _ladders, _probe, _re_dot


def _expm1j(theta: float) -> complex:
    """e^{i theta} - 1, as (-2 sin^2(theta/2), sin theta): every digit at small theta."""
    half_sin = math.sin(theta / 2.0)
    return complex(-2.0 * half_sin * half_sin, math.sin(theta))


def mom_reciprocal_at_zero(n_particles: int, t: float, rotation: Direction) -> float:
    """phi -> 0 limit of the reciprocal method-of-moments error of the twist-untwist
    protocol about n = rotation, read out along n, exact from the state's phi-Taylor
    terms.

    At phi = 0 the state is |+x>, whose covariance is (N/4) on the plane
    transverse to x.  With a transverse part n_perp the limit is
    (n_perp . A n)^2 / ((N/4)|n_perp|^2); at n = +-x that is 0/0, and the
    limit is the next order, (n^T F n)^2 / n^T H n, with n^T F n = n^T C n -
    (2/N)|A n|^2 <= 0 and n^T H n = n^T B n + (1/N)|A n|^2 >= 0 (A, C, B as in
    numerics.mom_limit_terms).  A 0/0 point raises IndeterminateRatioError.

    Each term is linear or quadratic in h_n = -i U^dag (n.J) U|+>, U = exp(-i t Jz^2):
    (A n)_b = 2 Re<J_b +|h_n> (b = y, z); q_n is h_n less its one flip (A n).J_perp|+>/(N/2)
    and no flip <+|h_n>|+>; n^T C n = 2 Re<q_n|K q_n> and n^T B n = ||K q_n||^2, K = J_x -
    N/2.  At t = 0, h_n = -i (n.J)|+> has no q_n and (A n)_b = (n_z, -n_y) N/2, so n_perp.A n
    = 0: only d_n = h_n + i (n.J)|+> is summed.  As U^dag J+ U = J+ e^{i t (2 Jz - 1)}, row m
    of d_n is -i (c (e^{i t (2m - 1)} - 1) J+ + c* (e^{-i t (2m + 1)} - 1) J-)|+>, c = (n_x -
    i n_y)/2: no phase t m^2 is rounded, and nothing of order N cancels at small t.  The
    vectors span the probe's window and two beyond each end; every sum is a math.fsum.
    """
    n = n_particles
    lo, plus = _probe(n, 0.0)
    half = n / 2.0
    if not math.isfinite(t * half * half):  # as the twisted probe, _probe(n, t), checks
        raise OverflowError(f"interaction time {t!r}: t (N/2)^2 overflows to infinity")
    first = lo - 2
    m = [(n - 2.0 * ell) / 2.0 for ell in range(first, n - first + 1)]
    plus = [0j, 0j] + plus + [0j, 0j]
    raised, lowered = _ladders(n, first, plus)
    c = complex(rotation.nx, -rotation.ny) / 2.0
    # a ladder entry is nonzero only inside the basis, where t |2 m -+ 1| <= t (N/2)^2
    d = [-1j * ((c * (_expm1j(t * (2.0 * mm - 1.0)) * r) if r else 0j)
                + (c.conjugate() * (_expm1j(-t * (2.0 * mm + 1.0)) * w) if w else 0j))
         for mm, r, w in zip(m, raised, lowered)]
    j_perp = ([(r - w) / 2j for r, w in zip(raised, lowered)], [mm * p for mm, p in zip(m, plus)])
    a_d = [2.0 * _re_dot(j, d) for j in j_perp]
    no_flip = 1j * _re_dot([1j * p for p in plus], d)  # <+|d_n> is imaginary
    q = [x - (a_d[0] * y + a_d[1] * z) / half - no_flip * p
         for x, y, z, p in zip(d, *j_perp, plus)]
    raised, lowered = _ladders(n, first, q)
    k_q = [(r + w) / 2.0 - half * x for r, w, x in zip(raised, lowered, q)]
    try:
        return guarded_ratio(math.fsum((rotation.ny * a_d[0], rotation.nz * a_d[1])) ** 2,
                             n / 4.0 * math.fsum((rotation.ny ** 2, rotation.nz ** 2)))
    except IndeterminateRatioError:
        a_sq = math.fsum(((rotation.nz * half + a_d[0]) ** 2, (a_d[1] - rotation.ny * half) ** 2))
        slope = math.fsum((2.0 * _re_dot(q, k_q), -2.0 / n * a_sq))
        rate = math.fsum((_re_dot(k_q, k_q), a_sq / n))
        return guarded_ratio(slope ** 2, rate)


def ghz_parity_error(n_particles: int, phi: float) -> float:
    """(Delta phi)^2 for the rotated polar-superposition probe with an X^{xN} parity readout.

    The rotation e^{-i phi Jz} is the phase e^{-i phi m_ell}, and d<P>/dphi =
    i<[Jz, P]> along it is exact.  Var(P) is centred, ||(P - <P>) psi||^2: where
    <P> is near -+1, as at N phi near a multiple of pi, 1 - <P>^2 would keep only
    a few digits.
    """
    import numpy as np  # the one numpy state here, as verify's ghz suite alone runs it

    from . import spin_core as sc
    from .numerics import centred_moments, re_inner

    m = sc._m(n_particles)
    amps = sc.ghz_state(n_particles).amplitudes * np.exp(-1j * phi * m)
    flipped = amps[::-1].copy()  # X^{xN} maps ell -> N - ell; contiguous, for re_inner
    var = centred_moments(amps, flipped)[1]
    der = 2.0 * float(re_inner("i,i", amps, 1j * m * flipped))  # -2 Im<psi|Jz P psi>
    return 1.0 / guarded_ratio(der * der, var)
