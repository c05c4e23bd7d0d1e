"""The Dicke backend's sums on Python floats (math, and array for the rotation's matrix), so
that qfi, mom and verify's closed-form and qcri suites never load numpy: the twisted probe's numeric QFI, the sensing
rotation, and the twist, sense and untwist protocol's moments and reciprocal error.

e^{-it Jz^2}|zeta=1> has amplitudes sqrt(C(N, ell)/2^N) e^{-i t m_ell^2}, m_ell =
(N - 2 ell)/2 as in spin_core.  Only O(sqrt(N)) of the magnitudes are nonzero in
doubles: those kept, down to TAIL of the peak's square, number min(N + 1, about
13.6 sqrt(N)), the window ell = lo..N - lo.  n.J moves ell by at most one, so a sum
over the probe costs as many steps, and each term of the rotation's series widens the
window by one on each side.
"""
from __future__ import annotations

import math
from array import array

from .closed_form import (NORM_ATOL, Direction, StateNormError, X_AXIS, Y_AXIS,
                          guarded_ratio)

# squared magnitude, relative to the peak, below which the probe's tails are left out
TAIL = 1e-40
# |J_k| below which the rotation series stops, once k is past its argument
BESSEL_CUTOFF = 1e-17
# window entries that one term of the rotation series updates at a time
BLOCK = 4096

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


def _probe(n: int, t: float) -> tuple[int, list[complex]]:
    """(lo, psi): e^{-it Jz^2}|zeta=1> at ell = lo..N - lo (_magnitudes' window).
    ValueError below one particle; OverflowError where t (N/2)^2, the largest phase,
    is not finite, as in spin_core._twist_phases."""
    if n < 1:
        raise ValueError("need at least one particle")
    half = n / 2.0
    if not math.isfinite(t * half * half):
        raise OverflowError(f"interaction time {t!r}: t (N/2)^2 overflows to infinity")
    lo, mags = _magnitudes(n)
    psi = []
    for ell, b in enumerate(mags, lo):
        m = (n - 2.0 * ell) / 2.0
        phase = t * m * m
        psi.append(complex(b * math.cos(phase), -b * math.sin(phase)))
    return lo, psi


def _ladders(n: int, first: int, vec: list[complex]) -> tuple[list[complex], list[complex]]:
    """(J+ vec, J- vec) for vec at ell = first.., zero at both ends, so that neither
    leaves the list: <ell - 1|J+|ell> = <ell|J-|ell - 1> = sqrt(ell (N - ell + 1)), 0
    outside 1 <= ell <= N, where a window padded past the basis ends reaches."""
    s = [math.sqrt(ell * (n - ell + 1)) if 0 < ell <= n else 0.0
         for ell in range(first + 1, first + len(vec))]
    return ([a * p for a, p in zip(s, vec[1:])] + [0j],
            [0j] + [a * p for a, p in zip(s, vec)])


def _dot_apply(n: int, first: int, vec: list[complex], direction: Direction) -> list[complex]:
    """(n.J) vec for vec at ell = first.., zero at both ends: n_z m vec + c J+ vec + c* J- vec
    in one pass, c = (n_x - i n_y)/2."""
    raised, lowered = _ladders(n, first, vec)
    c = complex(direction.nx, -direction.ny) / 2.0
    return [direction.nz * ((n - 2.0 * ell) / 2.0) * p + c * r + c.conjugate() * w
            for ell, p, r, w in zip(range(first, first + len(vec)), vec, raised, lowered)]


def _re_dot(x: list[complex], y: list[complex]) -> float:
    """Re<x|y>, summed by math.fsum."""
    return math.fsum(a.real * b.real + a.imag * b.imag for a, b in zip(x, y))


def qfi_numeric(n_particles: int, t: float, direction: Direction) -> float:
    """4 Var(n.J) in e^{-it Jz^2}|zeta=1>, summed state-side as a cross-check of the
    closed form: 4 ||(n.J - <n.J>) psi||^2, the centred form, so that a true zero
    reads as rounding."""
    lo, psi = _probe(n_particles, t)
    psi = [0j] + psi + [0j]  # the window and one beyond each end, where psi is 0
    applied = _dot_apply(n_particles, lo - 1, psi, direction)
    mean = _re_dot(psi, applied)
    return 4.0 * math.fsum(d.real * d.real + d.imag * d.imag
                           for d in (a - mean * p for p, a in zip(psi, applied)))


def _bessel_j(z: float) -> list[float]:
    """J_k(z) for z >= 0 and k = 0..K, K the first order above z with |J_K| < BESSEL_CUTOFF.

    Miller's backward recurrence J_{k-1} = (2k/z) J_k - J_{k+1}, started far enough above z
    that the start's error has died out by order K, and normalized by J_0^2 + 2 sum_k J_k^2 = 1
    (all terms positive), with the sign fixed by J_0 + 2 sum_k J_2k = 1.  Lest 2k/z overflow,
    it runs on u_k = J_k 2^sk: u_{k-1} = (2k/z 2^-s) u_k - 4^-s u_{k+1}, exact in powers of two.
    """
    if z == 0.0:
        return [1.0]
    top = int(z + 12.5 * z ** (1.0 / 3.0)) + 10
    s = max(0, -64 - math.frexp(z)[1])  # the least s >= 0 with z 2^s >= 2^-65
    zs, drop = math.ldexp(z, s), math.ldexp(1.0, -2 * s)
    above, here = 0.0, 1.0  # u_{top+1} and u_top, up to a common factor
    vals = [here]
    for k in range(top, 0, -1):
        above, here = here, (2.0 * k / zs) * here - drop * above
        vals.append(here)
    j = [math.ldexp(v, -s * k) for k, v in enumerate(reversed(vals))]  # far orders underflow
    peak = max(abs(v) for v in j)
    j = [v / peak for v in j]
    scale = math.copysign(1.0 / math.sqrt(math.fsum([j[0] ** 2] + [2.0 * v * v for v in j[1:]])),
                          math.fsum([j[0]] + [2.0 * v for v in j[2::2]]))
    j = [v * scale for v in j]
    return j[:next(k for k, v in enumerate(j) if k > z and abs(v) < BESSEL_CUTOFF) + 1]


def rotate(n: int, lo: int, amps: list[complex], direction: Direction,
           angle: float) -> tuple[int, list[complex]]:
    """exp(-i angle n.J) on the Dicke state whose amplitudes amps sit at ell = lo..N - lo
    (zero elsewhere), as (first, the rotated amplitudes at ell = first..N - first), by a
    Chebyshev series in n.J (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).

    n.J = D T D^dag with D = diag(e^{i ell theta}) and T real symmetric tridiagonal: diagonal
    n_z m_ell, off-diagonals sin(xi)/2 sqrt(k (N - k + 1)).  T's spectrum is m = -N/2..N/2, so
    X = T/(N/2) has its spectrum in [-1, 1], and with z = angle N/2
        exp(-i z X) = J_0(z) + 2 sum_k (-i)^k J_k(z) T_k(X),
    T_k the Chebyshev polynomials: T_{k+1}(X)v = 2X T_k(X)v - T_{k-1}(X)v.  T_k(X)v is
    nonzero at most k beyond amps each way, so term k costs the window it reaches, O(sqrt N)
    for the probe while k << sqrt(N), BLOCK entries at a time.  About N|angle|/2 terms
    are needed, so the angle is first reduced mod 4 pi by math.remainder (exact, the
    identity on |angle| <= 2 pi): exp(-4 pi i n.J) = 1 on every Dicke space, but
    exp(-2 pi i n.J) = (-1)^N.  A result off unit norm by more than NORM_ATOL raises
    StateNormError.
    """
    if math.isinf(angle):  # phi - realign_phi can overflow; remainder would raise ValueError
        raise OverflowError("the rotation angle overflowed to infinity")
    half = n / 2.0
    z = math.remainder(angle, 4.0 * math.pi) * half
    # J_k(-z) = (-1)^k J_k(z), so the k-th coefficient is 2 J_k(|z|) (-i s)^k, s = sign(z)
    s = math.copysign(1.0, z)
    powers = (1.0, -1j * s, -1.0, 1j * s)
    coeffs = _bessel_j(abs(z))
    first = max(lo - (len(coeffs) - 1), 0)
    # position p holds ell = first - 1 + p: the window at p = 1..size, a zero at each end
    size = n + 1 - 2 * first
    theta = math.atan2(direction.ny, direction.nx)
    # 2X, as the recurrence takes it: the diagonal at p, and the off-diagonal between p - 1
    # and p (zero at p = 0, and sqrt(ell (N - ell + 1)) = 0 at ell = N + 1)
    scale = 2.0 * direction.nz / half
    diag = array("d", [0.0, *(scale * ((n - 2.0 * ell) / 2.0)
                              for ell in range(first, n - first + 1)), 0.0])
    scale = 2.0 * math.hypot(direction.nx, direction.ny) / n
    off = array("d", [0.0, *(scale * math.sqrt(ell * (n - ell + 1))
                             for ell in range(first, n - first + 2))])
    cur = [0j] * (size + 2)
    start, stop = lo - first + 1, lo - first + len(amps)  # amps' ends
    cur[start:stop + 1] = [a * complex(math.cos(theta * ell), -math.sin(theta * ell))
                           for ell, a in enumerate(amps, lo)]
    prev = [0j] * (size + 2)
    out = [coeffs[0] * v for v in cur]
    for k in range(1, len(coeffs)):
        coeff = 2.0 * coeffs[k] * powers[k % 4]
        for i in range(max(start - k, 1), min(stop + k, size) + 1, BLOCK):
            j = min(i + BLOCK, stop + k + 1, size + 1)
            step = [d * c + e * below + f * above - q for d, c, e, below, f, above, q in zip(
                diag[i:j], cur[i:j], off[i:j], cur[i - 1:j - 1], off[i + 1:j + 1],
                cur[i + 1:j + 1], prev[i:j])]
            if k == 1:  # T_1(X)v = X v, and prev is 0: halving 2X v is exact
                step = [0.5 * v for v in step]
            prev[i:j] = step  # T_{k-2}(X)v, read for the last time above
            out[i:j] = [o + coeff * v for o, v in zip(out[i:j], step)]
        prev, cur = cur, prev
    del prev, cur  # freed before the result is built
    out = [o * complex(math.cos(theta * ell), math.sin(theta * ell))
           for ell, o in enumerate(out[1:-1], first)]
    norm = math.sqrt(math.fsum(v.real * v.real + v.imag * v.imag for v in out))
    if not abs(norm - 1.0) <= NORM_ATOL:  # a nan norm fails too
        raise StateNormError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
    return first, out


def protocol_moments(n_particles: int, t: float, phi: float, rotation: Direction,
                     untwist: bool = True) -> tuple[tuple, tuple]:
    """D = d<J>/dphi and the centred covariance matrix Sigma of J, as a 3-tuple and nested
    3-tuples, in psi = U chi: chi the probe twisted by t and sensed by exp(-i phi n.J)
    about n = rotation, U the untwist exp(+i t Jz^2) (1 without it).  What mom_reciprocal
    and optimizer.maximize_slope_ratio take.

    d psi/dphi = -i U (n.J) chi, so the slope is exact: D_a = 2 Re<J_a psi|d psi/dphi>.
    Sigma is centred, Re<(J_a - <J_a>) psi|(J_b - <J_b>) psi>: the best readout's
    variance can be tiny next to <(m.J)^2>, and must not be picked by rounding.  Every
    sum is a math.fsum over the rotated window and one beyond each end.
    """
    n = n_particles
    first, chi = rotate(n, *_probe(n, t), rotation, phi)
    ells = range(first - 1, n - first + 2)  # the window and one beyond each end
    m = [(n - 2.0 * ell) / 2.0 for ell in ells]
    chi = [0j] + chi + [0j]
    g = _dot_apply(n, first - 1, chi, rotation)
    if untwist:  # |m| <= N/2 inside [0, N], where t m^2 is finite; chi is 0 beyond
        u = [complex(math.cos(t * mm * mm), math.sin(t * mm * mm)) if 0 <= ell <= n else 0j
             for ell, mm in zip(ells, m)]
        psi, d_psi = [a * b for a, b in zip(u, chi)], [-1j * (a * b) for a, b in zip(u, g)]
    else:
        psi, d_psi = chi, [-1j * b for b in g]
    raised, lowered = _ladders(n, first - 1, psi)
    applied = ([(r + w) / 2.0 for r, w in zip(raised, lowered)],
               [(r - w) / 2j for r, w in zip(raised, lowered)],
               [mm * p for mm, p in zip(m, psi)])
    slope = tuple(2.0 * _re_dot(a, d_psi) for a in applied)
    centred = [[x - mean * p for x, p in zip(a, psi)]
               for a, mean in ((a, _re_dot(a, psi)) for a in applied)]
    xx, yy, zz = (_re_dot(a, a) for a in centred)
    xy, xz, yz = (_re_dot(centred[a], centred[b]) for a, b in ((0, 1), (0, 2), (1, 2)))
    return slope, ((xx, xy, xz), (xy, yy, yz), (xz, yz, zz))


def mom_reciprocal(slope, covariance, readout) -> float:
    """(m.D)^2 / m^T Sigma m, the reciprocal method-of-moments error of readout m, over
    3-sequences (nested for Sigma), each sum a math.fsum; a 0/0 point (indeterminate)
    raises IndeterminateRatioError."""
    numerator = math.fsum(a * b for a, b in zip(readout, slope)) ** 2
    denominator = math.fsum(a * s * b for a, row in zip(readout, covariance)
                            for s, b in zip(row, readout))
    return guarded_ratio(numerator, max(denominator, 0.0))
