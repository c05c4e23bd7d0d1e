"""Test oracles for the Dicke backend.

Dense collective spin matrices over the basis ell = 0..N (Jz eigenvalue
m = N/2 - ell), from the textbook ladder formula J+|j, m> = sqrt(j(j+1) -
m(m+1)) |j, m+1> with j = N/2: they share no code with the library and take O(N^2)
memory.  The paper's Dicke closed forms that no command evaluates: the
asymptotic regime predictors, the small-phi slope and the time-averaged QFI,
over closed_form's cosine powers and quadratic form.  The numpy references that
dicke_sums and oat_metrology are gated against: the (Jx, Jy, Jz) stack on the full
(N + 1)-long vector (spin_apply, over ladder), the Chebyshev rotation and the protocol
moments on it (numpy_rotate, numpy_protocol_moments), the protocol moments in long
double (extended_protocol_moments), the phi -> 0 Taylor terms and limit by
numerics.mom_limit_terms (numpy_limit_terms, numpy_mom_reciprocal_at_zero) and the same
terms in 60-digit mpmath (limit_terms), and expectation and variance, <n.J> and Var(n.J)
from a one-buffer n.J on that ladder.  And helpers over the library: mom, the reciprocal
method-of-moments error that several test modules read, and rotate_state and
protocol_state, dicke_sums' rotation and protocol state as CollectiveStates."""
import math
from collections import namedtuple

import numpy as np

from twistlab import dicke_sums as ds
from twistlab import spin_core as sc
from twistlab.closed_form import (IndeterminateRatioError, _cos_logs, _decimal_cos, _digits,
                                  _quadratic, guarded_ratio, qfi_closed_form)
from twistlab.numerics import along, centred_moments, mom_limit_terms

Axis = namedtuple("Axis", "nx ny nz")
X, Y, Z = Axis(1.0, 0.0, 0.0), Axis(0.0, 1.0, 0.0), Axis(0.0, 0.0, 1.0)


def dense_spin_matrices(n):
    """(Jx, Jy, Jz, J+, J-) as dense (N+1) x (N+1) complex matrices."""
    j = n / 2.0
    m = j - np.arange(n + 1)
    jp = np.zeros((n + 1, n + 1), dtype=complex)
    for ell in range(1, n + 1):
        # m + 1 sits at index ell - 1
        jp[ell - 1, ell] = np.sqrt(j * (j + 1) - m[ell] * (m[ell] + 1))
    jm = jp.conj().T
    return (jp + jm) / 2, (jp - jm) / 2j, np.diag(m).astype(complex), jp, jm


def ladder(n):
    """sqrt(k (N - k + 1)) for k = 1..N: <ell = k-1|J+|ell = k> = <k|J-|k-1>."""
    k = np.arange(1, n + 1, dtype=float)
    return np.sqrt(k * (n - k + 1.0))


def spin_apply(amps):
    """(Jx, Jy, Jz)|amps>, stacked on a new first axis, for states along the last axis."""
    s = ladder(amps.shape[-1] - 1)
    raised, lowered = np.zeros_like(amps), np.zeros_like(amps)
    raised[..., :-1] = s * amps[..., 1:]
    lowered[..., 1:] = s * amps[..., :-1]
    return np.stack(((raised + lowered) / 2.0, (raised - lowered) / 2j,
                     sc._m(amps.shape[-1] - 1) * amps))


def dense_dot(n, direction):
    """n.J as a dense matrix."""
    jx, jy, jz, _, _ = dense_spin_matrices(n)
    return direction.nx * jx + direction.ny * jy + direction.nz * jz


def dense_rotation(n, direction, angle):
    """exp(-i angle n.J) from the eigensystem of the dense n.J."""
    w, v = np.linalg.eigh(dense_dot(n, direction))
    return (v * np.exp(-1j * angle * w)) @ v.conj().T


def literal_protocol_state(n, t, angle, rotation, variant, realign_angle=0.0, mz_axis="y"):
    """The protocol's layers one at a time on a dense vector, starting from |+x>:
      - the twist exp(-i t Jz^2);
      - mach_zehnder: a pi/2 pulse (about x for mz_axis y, about y for mz_axis
        x), sensing exp(+i angle Jz), the inverse pulse, and the realignment
        exp(+i realign_angle J_a) about a = mz_axis;
      - the other variants: sensing exp(-i angle n.J) about the rotation n, and
        for twist_untwist_realigned the realignment exp(+i realign_angle n.J);
      - the untwist exp(+i t Jz^2), except for rotation_only."""
    psi = np.sqrt([math.comb(n, ell) for ell in range(n + 1)]) / 2.0 ** (n / 2)
    jz_sq = np.diag(dense_spin_matrices(n)[2]).real ** 2
    psi = np.exp(-1j * t * jz_sq) * psi
    if variant == "mach_zehnder":
        pulse = X if mz_axis == "y" else Y
        quarter = -np.pi / 2 if mz_axis == "y" else np.pi / 2
        psi = dense_rotation(n, pulse, quarter) @ psi
        psi = dense_rotation(n, Z, -angle) @ psi
        psi = dense_rotation(n, pulse, -quarter) @ psi
        psi = dense_rotation(n, Y if mz_axis == "y" else X, -realign_angle) @ psi
    else:
        psi = dense_rotation(n, rotation, angle) @ psi
        if variant == "twist_untwist_realigned":
            psi = dense_rotation(n, rotation, -realign_angle) @ psi
    if variant != "rotation_only":
        psi = np.exp(1j * t * jz_sq) * psi
    return psi


def limit_terms(n, t, dps=60):
    """(A, (C_xx, C_yy), (B_xx, B_yy)) of the phi -> 0 limit of the twist-untwist
    protocol, in mpmath at dps digits, with g_i = U^dag J_i U|+> = i h_i, K = J_x - N/2
    and b = y, z:
      - A_bi = 2 Im<J_b +|g_i>, as a 2 x 3 list;
      - C_ii = 2 Re<q_i|K q_i> from the residual q_i = g_i - <+|g_i>|+> -
        (4/N) <J_z +|g_i> J_z|+>, its one flip taken along the one complex row J_z|+>;
      - B_ii = H_ii - (4/N) sum_b E_bi^2, with H_ii = ||K g_i||^2 and
        E_bi = Im<J_b +|K g_i>, the difference left to cancel at that precision.
    Sums over the ell where C(N, ell)/2^N >= 10^(-2 dps), |+>'s squares dropped beyond
    being far below dps digits of any term, and three beyond each end, which K g_i
    reaches: all N + 1 entries up to N = 398 at 60 digits, some 6000 at N = 10^5 and 40."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = dps
    j = mp.mpf(n) / 2
    lo, square = n // 2, mp.binomial(n, n // 2) / mp.mpf(2) ** n
    while lo > 0 and square * lo / (n - lo + 1) >= mp.mpf(10) ** (-2 * dps):
        square, lo = square * lo / (n - lo + 1), lo - 1  # C(N, lo - 1) / C(N, lo)
    ells = range(max(lo - 3, 0), min(n - lo + 3, n) + 1)
    size = len(ells) - 1
    m = [j - ell for ell in ells]
    plus = [mp.sqrt(mp.binomial(n, ell)) / mp.mpf(2) ** j if lo <= ell <= n - lo else mp.mpf(0)
            for ell in ells]
    twist = [mp.expj(-mp.mpf(t) * mm * mm) for mm in m]
    ladder = [mp.sqrt(j * (j + 1) - mm * (mm + 1)) for mm in m]

    def raised(v):  # J+ moves weight from index ell to ell - 1
        return [ladder[i + 1] * v[i + 1] for i in range(size)] + [mp.mpc(0)]

    def lowered(v):
        return [mp.mpc(0)] + [ladder[i + 1] * v[i] for i in range(size)]

    def spin(axis, v):
        up, down = raised(v), lowered(v)
        if axis == "x":
            return [(a + b) / 2 for a, b in zip(up, down)]
        if axis == "y":
            return [(a - b) / 2j for a, b in zip(up, down)]
        return [mm * a for mm, a in zip(m, v)]

    def dot(a, b):
        return mp.fsum(mp.conj(x) * y for x, y in zip(a, b))

    def k(v):
        return [a - j * b for a, b in zip(spin("x", v), v)]

    twisted = [u * p for u, p in zip(twist, plus)]
    j_perp = [spin(b, plus) for b in ("y", "z")]
    g = [[mp.conj(u) * a for u, a in zip(twist, spin(axis, twisted))] for axis in "xyz"]
    a = [[2 * mp.im(dot(row, g_i)) for g_i in g] for row in j_perp]
    c, b = [], []
    for g_i in g[:2]:
        zero, one = dot(plus, g_i), dot(j_perp[1], g_i) * 4 / mp.mpf(n)
        q = [x - zero * p - one * z for x, p, z in zip(g_i, plus, j_perp[1])]
        c.append(2 * mp.re(dot(q, k(q))))
        k_g = k(g_i)
        e = [mp.im(dot(row, k_g)) for row in j_perp]
        b.append(mp.re(dot(k_g, k_g)) - 4 / mp.mpf(n) * mp.fsum(x * x for x in e))
    return a, c, b


def numpy_limit_terms(n, t):
    """A, C <= 0 and B >= 0 of numerics.mom_limit_terms for the twist-untwist protocol on
    N spins, with U = exp(-i t Jz^2), from the numpy coherent state and spin_apply."""
    return mom_limit_terms(sc.coherent_state(n, 1.0).amplitudes, sc._twist_phases(n, t),
                           spin_apply)


def numpy_mom_reciprocal_at_zero(n, t, rotation):
    """oat_metrology.mom_reciprocal_at_zero from the (3, N + 1) Taylor terms of
    numpy_limit_terms: (n_perp . A n)^2 / ((N/4)|n_perp|^2), and at n = +-x, where that
    is 0/0, (n^T C n - (2/N)|A n|^2)^2 / (n^T B n + (1/N)|A n|^2)."""
    a, c, b = numpy_limit_terms(n, t)
    v = rotation.as_array()
    n_perp = v[1:]
    try:
        return guarded_ratio(float(np.einsum("b,bi,i", n_perp, a, v)) ** 2,
                             n / 4.0 * float(np.einsum("b,b", n_perp, n_perp)))
    except IndeterminateRatioError:
        slope = (np.einsum("i,ij,j", v, c, v)
                 - 2.0 / n * np.einsum("bi,i,bj,j", a, v, a, v))
        rate = np.einsum("i,ij,j", v, b, v) + np.einsum("bi,i,bj,j", a, v, a, v) / n
        return guarded_ratio(float(slope) ** 2, float(rate))


def mom(n, t, phi, rotation, readout, untwist=True):
    """The reciprocal method-of-moments error of the protocol, read out along readout."""
    return ds.mom_reciprocal(*ds.protocol_moments(n, t, phi, rotation, untwist), readout)


def rotate_state(state, direction, angle):
    """dicke_sums.rotate on a CollectiveState, called with lo = 0 on its whole basis."""
    first, amps = ds.rotate(state.n_particles, 0, state.amplitudes.tolist(), direction, angle)
    assert first == 0
    return sc.CollectiveState(state.n_particles, amps)


def protocol_state(n, t, phi, rotation, untwist=True):
    """The protocol's state: dicke_sums' sensed probe on the whole basis, untwisted
    (without untwist, the sensed probe)."""
    first, chi = ds.rotate(n, *ds._probe(n, t), rotation, phi)
    amps = np.zeros(n + 1, dtype=complex)
    amps[first:n + 1 - first] = chi
    if untwist:
        amps *= sc._twist_phases(n, t).conj()
    return sc.CollectiveState(n, amps)


def numpy_rotate(state, direction, angle):
    """exp(-i angle n.J)|state> by dicke_sums.rotate's Chebyshev series and coefficients,
    on the whole (N + 1)-long numpy vector: n.J = D T D^dag, D = diag(e^{i ell theta}),
    X = T/(N/2), and exp(-i z X) = J_0(z) + 2 sum_k (-i)^k J_k(z) T_k(X), z = angle N/2."""
    if math.isinf(angle):
        raise OverflowError("the rotation angle overflowed to infinity")
    n = state.n_particles
    half = n / 2.0
    z = math.remainder(angle, 4.0 * math.pi) * half
    s = math.copysign(1.0, z)
    powers = (1.0, -1j * s, -1.0, 1j * s)
    coeffs = ds._bessel_j(abs(z))
    phase = np.exp(1j * math.atan2(direction.ny, direction.nx) * np.arange(n + 1))
    diag = (direction.nz / half * sc._m(n)).astype(complex)
    off = (math.hypot(direction.nx, direction.ny) / n * ladder(n)).astype(complex)
    prev, cur = None, state.amplitudes * phase.conj()
    out = coeffs[0] * cur
    for k in range(1, len(coeffs)):
        nxt = diag * cur
        nxt[:-1] += off * cur[1:]
        nxt[1:] += off * cur[:-1]
        if k > 1:
            nxt *= 2.0
            nxt -= prev
        prev, cur = cur, nxt
        out += (2.0 * coeffs[k] * powers[k % 4]) * cur
    return sc.CollectiveState(n, out * phase)


def numpy_protocol_moments(n, t, phi, rotation, untwist=True):
    """(D, Sigma) of dicke_sums.protocol_moments from numpy states: the coherent probe,
    twisted, rotated by numpy_rotate, and numerics.untwist_moments' products, each summed
    by math.fsum.  D's products are of order N^2/4 and cancel: summed by einsum, D_x read
    4.2e-6 for 0 at N = 10^5, t = pi/4, phi = 0, 8.3e-11 of N/2."""
    twist = sc._twist_phases(n, t)
    probe = sc.CollectiveState(n, sc.coherent_state(n, 1.0).amplitudes * twist)
    chi = numpy_rotate(probe, rotation, phi).amplitudes
    u = twist.conj() if untwist else 1.0
    psi, d_psi = chi * u, -1j * u * along(rotation.as_array(), spin_apply(chi))
    applied = spin_apply(psi)

    def re(x, y):  # the products below 1e-40 of the largest change no digit and slow fsum
        prod = x.view(float) * y.view(float)
        return math.fsum(prod[np.abs(prod) >= 1e-40 * np.max(np.abs(prod))].tolist())

    centred = [a - re(a, psi) * psi for a in applied]
    return ([2.0 * re(a, d_psi) for a in applied],
            [[re(a, b) for b in centred] for a in centred])


def _extended_bessel_j(z):
    """J_k(z), z >= 0, in long double for k = 0.. past z until |J_k| < 1e-22: Miller's
    backward recurrence, normalized by J_0^2 + 2 sum_k J_k^2 = 1 and signed by
    J_0 + 2 sum_k J_2k = 1, with no scaling (long double's range holds its growth)."""
    if z == 0.0:
        return np.ones(1, dtype=np.longdouble)
    top = int(z + 12.5 * z ** (1.0 / 3.0)) + 30
    vals = np.zeros(top + 2, dtype=np.longdouble)
    vals[top] = 1.0
    zl = np.longdouble(z)
    for k in range(top, 0, -1):
        vals[k - 1] = (np.longdouble(2 * k) / zl) * vals[k] - vals[k + 1]
    j = vals[:-1] / np.max(np.abs(vals))
    j *= np.sign(j[0] + 2 * np.sum(j[2::2])) / np.sqrt(j[0] ** 2 + 2 * np.sum(j[1:] ** 2))
    return j[:next(k for k in range(top) if k > z and abs(j[k]) < 1e-22) + 1]


def extended_protocol_moments(n, t, phi, rotation, untwist=True):
    """(D, Sigma) of dicke_sums.protocol_moments in long double (x86-64: 64-bit significand,
    eleven bits past a double's), a reference for the series' and the sums' arithmetic.

    It takes the same double inputs as both double paths: the twist phases fl(fl(t m) m),
    the rotation's z = remainder(phi, 4 pi) N/2 and its phases fl(theta ell).  At N = 10^5
    those roundings alone move D by up to 2.6e-10 of N/2 (t = 0.3, phi = 0.05), far more
    than the two double paths differ, so a reference that took t m^2 exactly would not show
    which path's arithmetic is off.  Everything after them is long double: the probe's
    magnitudes by the binomial ratio recurrence, Miller's Bessel coefficients, the
    Chebyshev series on the window it reaches, the J stack and numpy's pairwise sums."""
    ld = np.longdouble
    ell = np.arange(n + 1)
    ratios = np.array([(n - e) / ld(e + 1) for e in range((n + 1) // 2, n)], dtype=ld)
    upper = np.concatenate(([ld(1)], np.cumprod(ratios)))  # from ell = ceil(N/2), exact mirror
    squares = np.concatenate((upper[::-1] if n % 2 else upper[:0:-1], upper))
    mags = np.sqrt(squares / np.sum(squares))
    m = (n - 2.0 * ell) / 2.0
    twist = t * m * m  # the doubles that both double paths take
    psi0 = mags * (np.cos(twist.astype(ld)) - 1j * np.sin(twist.astype(ld)))
    lo = int(np.argmax(squares >= 1e-60))  # the window, beyond which the probe is below 1e-30
    gauge = (math.atan2(rotation.ny, rotation.nx) * ell).astype(ld)
    gauge = np.cos(gauge) + 1j * np.sin(gauge)
    half = ld(n) / 2
    z = math.remainder(phi, 4.0 * math.pi) * (n / 2.0)
    coeffs = _extended_bessel_j(abs(z))
    powers = (1.0, -1j * math.copysign(1.0, z), -1.0, 1j * math.copysign(1.0, z))
    diag = ld(rotation.nz) * m.astype(ld) / half
    ells = np.arange(1, n + 1, dtype=ld)
    ladder = np.sqrt(ells * (n + 1 - ells))  # <ell - 1|J+|ell>, ell = 1..N
    off = np.sqrt(ld(rotation.nx) ** 2 + ld(rotation.ny) ** 2) / n * ladder
    cur = psi0 * gauge.conj()
    cur[:lo], cur[n + 1 - lo:] = 0, 0
    prev = np.zeros_like(cur)
    out = coeffs[0] * cur
    a, b = lo, n + 1 - lo  # the slice where T_k(X)v can be nonzero
    for k in range(1, len(coeffs)):
        a, b = max(a - 1, 0), min(b + 1, n + 1)
        nxt = diag[a:b] * cur[a:b]
        nxt[:-1] += off[a:b - 1] * cur[a + 1:b]
        nxt[1:] += off[a:b - 1] * cur[a:b - 1]
        if k > 1:
            nxt = 2 * nxt - prev[a:b]
        prev[a:b] = cur[a:b]
        cur[a:b] = nxt
        out[a:b] += (2 * coeffs[k] * powers[k % 4]) * nxt
    chi = out * gauge

    def stack(v):  # (J_x, J_y, J_z) v
        raised, lowered = np.zeros_like(v), np.zeros_like(v)
        raised[:-1], lowered[1:] = ladder * v[1:], ladder * v[:-1]
        return [(raised + lowered) / 2, (raised - lowered) / 2j, m.astype(ld) * v]

    g = sum(ld(c) * a for c, a in zip(rotation, stack(chi)))
    u = np.cos(twist.astype(ld)) + 1j * np.sin(twist.astype(ld)) if untwist else 1
    psi, d_psi = u * chi, -1j * u * g

    def re(x, y):
        return np.sum(x.real * y.real + x.imag * y.imag)

    applied = stack(psi)
    centred = [a - re(a, psi) * psi for a in applied]
    return ([float(2 * re(a, d_psi)) for a in applied],
            [[float(re(a, b)) for b in centred] for a in centred])


def direction_apply(amps, direction):
    """(n.J)|amps> for one state, built in one buffer: n_z m_ell amps plus c J+ amps and
    c* J- amps, c = (n_x - i n_y)/2, since J+ and J- move ell by one; no (Jx, Jy, Jz) stack."""
    s, c = ladder(amps.size - 1), complex(direction.nx, -direction.ny) / 2.0
    out = amps * (direction.nz * sc._m(amps.size - 1))
    out[:-1] += c * (s * amps[1:])
    out[1:] += c.conjugate() * (s * amps[:-1])
    return out


def expectation(state, direction):
    """<state|n.J|state>."""
    return centred_moments(state.amplitudes, direction_apply(state.amplitudes, direction))[0]


def variance(state, direction):
    """Var(n.J) = ||(n.J - <n.J>)|state>||^2: the centred form, non-negative by construction."""
    return centred_moments(state.amplitudes, direction_apply(state.amplitudes, direction))[1]


def cos2_power_m1(k, t):
    """cos(2t)^k - 1 as expm1(k log cos 2t) where _cos_logs has the log, so that small
    t keeps its digits, and from _decimal_cos's power elsewhere."""
    if logs := _cos_logs(t):
        return math.expm1(k * logs[1])
    with _digits():
        return float(_decimal_cos(2.0 * t) ** k - 1)


def heisenberg_gap(c):
    """1 - exp(-2 c^2), the long-range Heisenberg factor, as -expm1(-2 c^2) for small c."""
    return -math.expm1(-2.0 * c * c)


def small_phi_slope(n_particles, t):
    """Exact finite-N coefficient of phi in d<Jx>/dphi for the x-rotation twist-untwist probe.

    In the powers of c = cos 2t its N^3 terms cancel down to about -2 N (N - 1) t^2.
    With g_k = c^k - 1 (cos2_power_m1) it is
        (N (N - 1)/8) g_1 (4 - (N - 2) g_(N-3)) + (N/4) (N (1 + g_(N-2)) g_1 + g_(N-2)),
    in which nothing cancels."""
    if n_particles < 3:
        raise ValueError("third moments need at least three particles")
    n = float(n_particles)
    g1, g2, g3 = (cos2_power_m1(k, t) for k in (1, n_particles - 2, n_particles - 3))
    return n * (n - 1.0) / 8.0 * g1 * (4.0 - (n - 2.0) * g3) + n / 4.0 * (n * (1.0 + g2) * g1 + g2)


SUB_HEISENBERG_PEAK_COEFF = 24 ** (1 / 6) * 2 ** (2 / 3) / 2.0


def asymptotic_predictor(regime, n_particles, c=1.0, xi=math.pi / 2, theta=None):
    """Named large-N formulas for the phase-diagram regimes."""
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
        # with s = sign cos 2 theta and g = heisenberg_gap(c), 1 +- s e^(-2c^2) is
        # (1 +- s) -+ s g, and 1 + s, 1 - s are 2 cos^2 theta, 2 sin^2 theta (swapped for
        # odd N): where one is small, both terms of its sum are >= 0, so neither cancels
        s, gap = sign * math.cos(2 * th), heisenberg_gap(c)
        cos2, sin2 = 2.0 * math.cos(th) ** 2, 2.0 * math.sin(th) ** 2
        plus, minus = (cos2, sin2) if sign > 0 else (sin2, cos2)
        return math.sin(xi) ** 2 * ((n * n / 2.0) * (plus - s * gap)
                                    + (n / 2.0) * (minus + s * gap))
    if regime == "sub_heisenberg_peak_time":
        return SUB_HEISENBERG_PEAK_COEFF / n ** (2 / 3)
    if regime == "sub_heisenberg":
        # no closed-form constant exists here; evaluate at the squeezing-peak time
        t_peak = SUB_HEISENBERG_PEAK_COEFF / n ** (2 / 3)
        return qfi_closed_form(n_particles, t_peak, math.pi / 2, math.pi / 2)
    raise ValueError(f"unknown regime {regime!r}")


def _wallis(m):
    """W(m) = (2/pi) integral of cos(t)^(2m) over [0, pi/2] = C(2m, m) / 4^m,
    as prod_j (1 - 1/(2j)) summed in logs, so large m neither overflows nor
    costs a big-integer binomial."""
    return math.exp(math.fsum(np.log1p(-0.5 / np.arange(1, m + 1))))


def time_averaged_qfi(n_particles, xi, theta):
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
    return _quadratic([[a + b - c, 0.0, 0.0], [0.0, a - b, y], [0.0, y, n]], xi, theta)
