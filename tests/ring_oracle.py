"""Test oracles for the ring: the literal double-window Hamiltonian sum over a
(2^M, M) table of Z eigenvalues and dense collective spin matrices built by
Kronecker products, both O(M 2^M) memory or more, for the statevector kernels;
the ring's pair counts per distance d = 1..M-1, and the paper's short- and
long-range closed forms of the twisted state's covariance, for
lattice_fr.fr_covariance_matrix.  They share no code with lattice_fr.  And the
paper's overlay formulas for the finite-range phase-diagram plots, of which
fr-qfi prints two (closed_form.overlay_inter and overlay_largescale)."""
import math

import numpy as np

from dicke_oracle import heisenberg_gap

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


def _bestshort_gaps(x):
    """h = 1 - 2x e^-x - e^-2x and g = e^-x - 1 + x, both >= 0.  From x = 1 up they are
    taken directly (a few roundings of a term <= 1); below it, where their leading
    terms cancel, as the series h = sum_{j>=3} (-1)^j (2j - 2^j) x^j/j! and
    g = sum_{j>=2} (-x)^j/j!, summed to j = 27, where 2^j x^j/j! < 1.3e-20."""
    if x >= 1.0:
        return 1.0 - 2.0 * x * math.exp(-x) - math.exp(-2.0 * x), math.exp(-x) - 1.0 + x
    h = g = 0.0
    term = -x  # (-x)^j / j!
    for j in range(2, 28):
        term *= -x / j
        h += (2 * j - 2**j) * term
        g += term
    return h, g


def fr_interpolation_forms(which, n_particles, t=0.0, range_k=1, c=1.0, xi=math.pi / 2,
                           theta=math.pi / 2):
    """The paper's overlay formulas for the finite-range phase-diagram plots.

    inter1, largescale and longrange_heisenberg are on the QFI scale, as
    fr_max_qfi; bestshort and inter2 are on the variance scale, Var(n.J) along
    (xi, theta), a quarter of the QFI at the best direction."""
    n = float(n_particles)
    m = n + 2.0
    if which == "inter1":
        sin2 = math.sin(t) ** 2
        scale = m / sin2 if sin2 else math.inf
        if not math.isfinite(scale):
            raise ValueError(f"inter1 diverges where sin t = 0 or M/sin^2 t overflows (t = {t!r})")
        return scale * math.sin(xi) ** 2 + m * math.cos(xi) ** 2
    if which == "bestshort":  # bracket = [h(x) + 2 sin^2(theta) e^-x g(x)] / c^2, x = 2c^2
        x = 2.0 * c * c
        if x == 0.0:  # h/c^2 ~ 8c^4/3 and g/c^2 ~ 2c^2: the form tends to 0
            return 0.0
        h, g = _bestshort_gaps(x)
        return (m * range_k * math.sin(xi) ** 2 / 4.0
                * (h + 2.0 * math.sin(theta) ** 2 * math.exp(-x) * g) / (c * c))
    if which == "inter2":
        ct2 = math.cos(t) ** 2
        return (math.sin(xi) ** 2 / 8.0
                * (ct2 * (n * n - 4.0) + 2.0 * m * (1.0 + ct2) + m)  # (1 - c^4)/s^2 = 1 + c^2
                + m / 4.0 * math.cos(xi) ** 2)
    if which == "largescale":
        ct2 = math.cos(t) ** 2
        return (n * n - 4.0) / 2.0 * ct2 + m / 2.0 * (3.0 + 2.0 * ct2)
    if which == "longrange_heisenberg":
        return n * n * heisenberg_gap(c) / 2.0
    raise ValueError(f"unknown interpolation form {which!r}")
