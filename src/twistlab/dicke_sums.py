"""The twisted probe's numeric QFI as a sum over its Dicke amplitudes, on Python floats
with math alone, so that qfi and verify's closed-form suite never load numpy.

e^{-it Jz^2}|zeta=1> has amplitudes sqrt(C(N, ell)/2^N) e^{-i t m_ell^2}, m_ell =
(N - 2 ell)/2 as in spin_core.  Only O(sqrt(N)) of the magnitudes are nonzero in
doubles: those kept, down to TAIL of the peak's square, number min(N + 1, about
37 sqrt(N)), and n.J moves ell by at most one, so the sum costs as many steps.
"""
from __future__ import annotations

import math

from .closed_form import Direction

# squared magnitude, relative to the peak, below which the probe's tails are left out
TAIL = 1e-300


def _magnitudes(n: int) -> tuple[int, list[float]]:
    """(lo, b): the unit-norm magnitudes b = sqrt(C(N, ell)/2^N) for ell = lo..N - lo,
    those whose square is at least TAIL times the peak's.  The squares are taken by the
    ratio C(N, ell + 1)/C(N, ell) = (N - ell)/(ell + 1) outward from the middle and
    mirrored, ell -> N - ell, so b is symmetric to the bit; a math.fsum scales them."""
    upper = [1.0]  # from ell = ceil(N/2), relative to the peak
    ell = (n + 1) // 2
    while ell < n and (r := upper[-1] * (n - ell) / (ell + 1)) >= TAIL:
        upper.append(r)
        ell += 1
    squares = (upper[::-1] if n % 2 else upper[:0:-1]) + upper
    total = math.fsum(squares)
    return n - ell, [math.sqrt(s / total) for s in squares]


def qfi_numeric(n_particles: int, t: float, direction: Direction) -> float:
    """4 Var(n.J) in e^{-it Jz^2}|zeta=1>, summed state-side as a cross-check of the
    closed form: 4 ||(n.J - <n.J>) psi||^2, the centred form, so that a true zero
    reads as rounding.  (n.J) psi is n_z m psi + c J+ psi + c* J- psi in one pass,
    c = (n_x - i n_y)/2 and <ell - 1|J+|ell> = <ell|J-|ell - 1> = sqrt(ell (N - ell + 1))."""
    n = n_particles
    if n < 1:
        raise ValueError("need at least one particle")
    half = n / 2.0
    if not math.isfinite(t * half * half):  # the largest phase, as in spin_core._twist_phases
        raise OverflowError(f"interaction time {t!r}: t (N/2)^2 overflows to infinity")
    lo, mags = _magnitudes(n)
    ells = range(lo - 1, n - lo + 2)  # the support and one beyond each end, where psi is 0
    m = [(n - 2.0 * ell) / 2.0 for ell in ells]
    psi = [0j]
    for b, m_ell in zip(mags, m[1:]):
        phase = t * m_ell * m_ell
        psi.append(complex(b * math.cos(phase), -b * math.sin(phase)))
    psi.append(0j)
    ladder = [math.sqrt(ell * (n - ell + 1)) for ell in ells[1:]]  # between ell - 1 and ell
    c = complex(direction.nx, -direction.ny) / 2.0
    raised = [c * (s * p) for s, p in zip(ladder, psi[1:])] + [0j]
    lowered = [0j] + [c.conjugate() * (s * p) for s, p in zip(ladder, psi)]
    applied = [direction.nz * m_ell * p + r + w
               for m_ell, p, r, w in zip(m, psi, raised, lowered)]
    mean = math.fsum(p.real * a.real + p.imag * a.imag for p, a in zip(psi, applied))
    centred = [a - mean * p for p, a in zip(psi, applied)]
    return 4.0 * math.fsum(d.real * d.real + d.imag * d.imag for d in centred)
