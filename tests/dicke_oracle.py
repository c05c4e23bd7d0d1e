"""Test oracle for the Dicke backend: dense collective spin matrices over the
basis ell = 0..N (Jz eigenvalue m = N/2 - ell), from the textbook ladder
formula J+|j, m> = sqrt(j(j+1) - m(m+1)) |j, m+1> with j = N/2.  It shares no
code with spin_core and takes O(N^2) memory."""
from collections import namedtuple
from math import comb

import numpy as np

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
