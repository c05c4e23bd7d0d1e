"""Test oracles for the Dicke backend.

Dense collective spin matrices over the basis ell = 0..N (Jz eigenvalue
m = N/2 - ell), from the textbook ladder formula J+|j, m> = sqrt(j(j+1) -
m(m+1)) |j, m+1> with j = N/2: they share no code with spin_core and take O(N^2)
memory.  The paper's Dicke closed forms that no command evaluates: the
asymptotic regime predictors, the small-phi slope and the time-averaged QFI,
over closed_form's cosine powers and quadratic form.  And two helpers over the
library: mom, the reciprocal method-of-moments error that several test modules
read, and expectation, <n.J> from spin_core's one-buffer n.J."""
import math
from collections import namedtuple

import numpy as np

from twistlab import spin_core as sc
from twistlab.closed_form import _cos_logs, _decimal_cos, _digits, _quadratic, qfi_closed_form
from twistlab.numerics import centred_moments, mom_reciprocal
from twistlab.oat_metrology import protocol_moments

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
    Sums over the N + 1 ladder entries, so it is slow beyond N ~ 10^3."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = dps
    j = mp.mpf(n) / 2
    m = [j - ell for ell in range(n + 1)]
    plus = [mp.sqrt(mp.binomial(n, ell)) / mp.mpf(2) ** j for ell in range(n + 1)]
    twist = [mp.expj(-mp.mpf(t) * mm * mm) for mm in m]
    ladder = [mp.sqrt(j * (j + 1) - m[ell] * (m[ell] + 1)) for ell in range(n + 1)]

    def raised(v):  # J+ moves weight from index ell to ell - 1
        return [ladder[ell + 1] * v[ell + 1] for ell in range(n)] + [mp.mpc(0)]

    def lowered(v):
        return [mp.mpc(0)] + [ladder[ell + 1] * v[ell] for ell in range(n)]

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


def mom(n, t, phi, rotation, readout, untwist=True):
    """The reciprocal method-of-moments error of the protocol, read out along readout."""
    return mom_reciprocal(*protocol_moments(n, t, phi, rotation, untwist), readout.as_array())


def expectation(state, direction):
    """<state|n.J|state>."""
    return centred_moments(state.amplitudes, sc._direction_apply(state.amplitudes, direction))[0]


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
