"""Test oracles for the ring statevector kernels: the literal double-window
Hamiltonian sum over a (2^M, M) table of Z eigenvalues, and dense collective
spin matrices built by Kronecker products.  They share no code with
lattice_fr, and both take O(M 2^M) memory or more."""
import numpy as np

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.diag([1.0, -1.0]).astype(complex),
}


def double_window_h_diag(n_sites, range_k):
    """(1/4) sum_j sum_{0 < |i - j| <= K} z_i z_j per basis state (bit i = site i,
    bit value 1 = Z eigenvalue -1): each distance d pairs every site with the
    one d further round the ring, counted once from each endpoint."""
    idx = np.arange(2**n_sites, dtype=np.int64)
    z = 1.0 - 2.0 * ((idx[:, None] >> np.arange(n_sites)[None, :]) & 1)
    h = np.zeros(2**n_sites)
    for d in range(1, range_k + 1):
        h += 0.5 * np.einsum("ij,ij->i", z, np.roll(z, -d, axis=1))
    return h


def dense_collective_spin(n_sites, axis):
    """sum_s sigma^axis_s / 2 as a dense 2^M x 2^M matrix, site 0 the least
    significant bit."""
    total = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
    for s in range(n_sites):
        op = np.eye(1, dtype=complex)
        for q in reversed(range(n_sites)):
            op = np.kron(op, PAULI[axis] if q == s else np.eye(2, dtype=complex))
        total += op / 2.0
    return total
