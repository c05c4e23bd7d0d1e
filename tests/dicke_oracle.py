"""Test oracle for the Dicke backend: dense collective spin matrices over the
basis ell = 0..N (Jz eigenvalue m = N/2 - ell), from the textbook ladder
formula J+|j, m> = sqrt(j(j+1) - m(m+1)) |j, m+1> with j = N/2.  It shares no
code with spin_core and takes O(N^2) memory.  Only mom, the library's reciprocal
method-of-moments error that several test modules read, calls twistlab."""
from collections import namedtuple
from math import comb

import numpy as np

from twistlab.numerics import mom_reciprocal
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
    psi = np.sqrt([comb(n, ell) for ell in range(n + 1)]) / 2.0 ** (n / 2)
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
