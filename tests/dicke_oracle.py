"""Test oracle for the Dicke backend: dense collective spin matrices over the
basis ell = 0..N (Jz eigenvalue m = N/2 - ell), from the textbook ladder
formula J+|j, m> = sqrt(j(j+1) - m(m+1)) |j, m+1> with j = N/2.  It shares no
code with spin_core and takes O(N^2) memory."""
import numpy as np


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
