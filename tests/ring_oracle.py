"""Test oracles for the ring: the literal double-window Hamiltonian sum over a
(2^M, M) table of Z eigenvalues and dense collective spin matrices built by
Kronecker products, both O(M 2^M) memory or more, for the statevector kernels;
the ring's pair counts per distance d = 1..M-1, and the paper's short- and
long-range closed forms of the twisted state's covariance, for
lattice_fr.fr_covariance_matrix.  They share no code with lattice_fr."""
import math

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


def ring_counts(n_sites, range_k):
    """Per pair offset d = 1..M-1: sites other than 0 and d within range of exactly
    one / both endpoints.  The (2K+1)-site windows around 0 and d overlap in c(d)
    sites, both endpoints among them when a(d) = [distance <= K]: both = c - 2a.
    O(M) arrays; lattice_fr sums the ring's O(K) distinct classes instead."""
    d = np.arange(1, n_sites, dtype=np.int64)
    width = 2 * range_k + 1
    overlap = np.maximum(0, width - d) + np.maximum(0, width - (n_sites - d))
    in_range = (np.minimum(d, n_sites - d) <= range_k).astype(np.int64)
    both = overlap - 2 * in_range
    return 2 * (2 * range_k - in_range) - 2 * both, both


def _one_minus_cospow(power, t):
    """1 - cos^power t where cos t > 0, without cancelling at small t: log cos t
    is log1p(-2 sin^2(t/2)), which keeps the digits that cos t rounds away."""
    return -math.expm1(power * math.log1p(-2 * math.sin(t / 2) ** 2))


def short_range_terms(n_particles, range_k, t):
    """(P, Q) of the paper's short-range form, exact for 4K < N + 2: the
    theta-independent and the cos(2 theta) brackets multiplying sin^2(xi)/2.  g2 and
    g3 resum (r^j - 1)/(r - 1), r = cos 2t / cos^2 t, as nonnegative cosine powers,
    so that t = pi/4 stays regular."""
    m, k = n_particles + 2, range_k
    ct, c2t, st = math.cos(t), math.cos(2 * t), math.sin(t)
    s1 = ct ** (2 * k) * _one_minus_cospow(2 * k, t) / st**2
    s2 = (ct / st) ** 2 * _one_minus_cospow(2 * k, t)
    p = m / 2 + (m / 4) * (m - 1 - 4 * k) * ct ** (4 * k) + (m / 2) * (s1 + s2)
    g2 = sum(ct ** (4 * k - 2 * j) * c2t**j for j in range(1, k + 1))
    g3 = sum(ct ** (2 * (k - j)) * c2t ** (k - 1 + j) for j in range(k))
    return p, (m / 4) * (m - 1 - 4 * k) * ct ** (4 * k) + (m / 2) * (g2 + g3)


def long_range_terms(n_particles, range_k, t):
    """(P, Q) of the paper's long-range form, exact for 3K >= N."""
    m, k = n_particles + 2, range_k
    ell = m - 2 * k
    ct, c2t, st = math.cos(t), math.cos(2 * t), math.sin(t)
    edge = (m * (3 * k - m + 1) / 2) * ct ** (2 * (m - 1 - 2 * k))
    far = (m / 4) * (m - 1 - 2 * k) * ct ** (2 * (m - 2 - 2 * k))
    p = (m / 2) * _one_minus_cospow(2 * ell, t) / st**2 + edge + far
    g1 = sum(ct ** (2 * j) * c2t ** (2 * k - 1 - j) for j in range(1, ell))
    return p, (m / 2) * g1 + edge * c2t ** (4 * k - m) + far * c2t ** (4 * k - m + 2)


def regime_covariance(n_particles, range_k, t, terms):
    """Sigma of exp(-i t H_K)|+> from a form's (P, Q): Sigma_xx = (P + Q)/2 -
    (M^2/4) cos^4K t, Sigma_yy = (P - Q)/2, Sigma_yz = (M K/2) sin t cos^(2K-1) t and
    Sigma_zz = M/4."""
    m, k = n_particles + 2, range_k
    p, q = terms(n_particles, range_k, t)
    xx = (p + q) / 2 - (m * m / 4) * math.cos(t) ** (4 * k)
    yz = m * k * math.sin(t) * math.cos(t) ** (2 * k - 1) / 2
    return np.array([[xx, 0.0, 0.0], [0.0, (p - q) / 2, yz], [0.0, yz, m / 4]])
