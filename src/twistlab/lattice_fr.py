"""Finite-range one-axis twisting on a periodic spin-1/2 ring.

The ring has n_particles + 2 sites (n_particles even), coupled by uniform ZZ
interactions over a range of K lattice spacings.  Diagonal evolution and
product rotations act on the full 2^(N+2) statevector.  The Hamiltonian's
diagonal is stored as a small-integer count of unlike pairs per basis state,
read per range distance from one uint8 popcount table over the basis
(_popcounts, which J_z and the Dicke embedding read too): it takes at most
K(N+2) + 1 levels, so a twist phase is one exp over that level table
gathered by the count.  The protocol moments come from one (Jx, Jy, Jz)
stack written in place, and one direction's moments from (n.J)|psi> built in
one buffer, so every statevector kernel holds O(2^(N+2)) numbers, never a
table of per-site values or an operator matrix.  The analytic
covariance of the twisted product state is numerics.ising_covariance over exact
per-distance neighbor counts (valid for every legal K).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import (centred_moments, heisenberg_gap, ising_covariance, mom_limit,
                       mom_limit_matrices, mom_limit_terms, mom_reciprocal, untwist_moments)
from .optimizer import (JointMaximum, SphereMaximum, maximize_limit, maximize_quadratic_form,
                        maximize_slope_ratio)
from .spin_core import (Direction, CollectiveState, _binomial_amplitudes, _readonly,
                        _unit_amplitudes)

BRUTE_FORCE_MAX_SITES = 14

# fr_optimal_protocol reports -n in place of n only for a larger relative gain:
# below it the two differ by rounding or by an odd-in-phi part too small to matter
FLIP_RTOL = 1e-9


def _check_system_args(n_particles: int, range_k: int) -> int:
    if n_particles < 2 or n_particles % 2:
        raise ValueError("n_particles must be even and at least 2")
    if not 1 <= range_k <= n_particles // 2:
        raise ValueError(f"range K must satisfy 1 <= K <= N/2 = {n_particles // 2}, got {range_k}")
    return n_particles + 2


@dataclass(frozen=True, eq=False)
class LatticeSystem:
    """Diagonal of the range-K Ising Hamiltonian over the computational basis.

    Bit i of a basis index is site i (site 0 = least significant bit); bit
    value 1 means Z eigenvalue -1.  Entry for bitstring b is
    (1/4) sum_j sum_{i=j-K..j+K, i != j} z_i z_j with indices mod M = N+2.
    Each distance d counts every pair twice, and z_i z_{i+d} = -1 exactly where
    b and its rotation rot_d(b) = ((b >> d) | (b << (M - d))) mod 2^M differ,
    so h(b) = (1/2) sum_{d=1..K} (M - 2 popcount(b XOR rot_d(b))).

    unlike holds that sum of popcounts, read from the table _popcounts(M) and
    summed in the smallest unsigned dtype that holds K M, and
    h(b) = (K M - 2 unlike(b)) / 2 takes one of K M + 1 levels.
    """

    n_particles: int
    range_k: int
    unlike: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.n_particles + 2

    def _levels(self) -> np.ndarray:
        top = self.range_k * self.n_sites
        return 0.5 * (top - 2 * np.arange(top + 1))

    @property
    def h_diag(self) -> np.ndarray:
        """h(b) over the basis, as float64 (built on each access)."""
        return _readonly(self._levels()[self.unlike])

    def phases(self, t: float) -> np.ndarray:
        """exp(-i t h(b)) over the basis (t < 0 untwists): the exp of each level,
        gathered by unlike, with the same values as the exp taken entry by entry."""
        return np.exp(-1j * t * self._levels())[self.unlike]


@dataclass(frozen=True, eq=False)
class LatticeState:
    """Normalized 2^n_sites statevector; keeps the array it is given and makes it read-only."""

    n_sites: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _unit_amplitudes(self.amplitudes, 2**self.n_sites))


def _popcounts(n_sites: int) -> np.ndarray:
    """popcount(b) for every b < 2^n_sites, as uint8, by doubling in one array: the
    counts in [2^s, 2^(s+1)) are those below 2^s plus one (bit s set)."""
    pop = np.zeros(2**n_sites, dtype=np.uint8)
    for s in range(n_sites):
        np.add(pop[:2**s], 1, out=pop[2**s:2**(s + 1)])
    return pop


def build_system(n_particles: int, range_k: int) -> LatticeSystem:
    """Sum unlike(b) = sum_{d<=K} popcount(b ^ rot_d(b)) from the popcount table."""
    m = _check_system_args(n_particles, range_k)
    if m > BRUTE_FORCE_MAX_SITES:
        raise ValueError(f"statevector systems are capped at {BRUTE_FORCE_MAX_SITES} sites")
    pop, idx = _popcounts(m), np.arange(2**m)
    unlike = np.zeros(2**m, np.min_scalar_type(range_k * m))  # at most K M unlike pairs
    for d in range(1, range_k + 1):
        rot = (idx << (m - d)) & (2**m - 1)
        rot |= idx >> d
        rot ^= idx  # bit i set where z_i != z_{i+d}
        unlike += pop[rot]
    return LatticeSystem(n_particles, range_k, _readonly(unlike))


def plus_state(n_sites: int) -> LatticeState:
    return LatticeState(n_sites, np.full(2**n_sites, 2.0 ** (-n_sites / 2), dtype=complex))


def fr_evolve(state: LatticeState, system: LatticeSystem, t: float) -> LatticeState:
    """Diagonal phase multiply exp(-i t h(b)); t < 0 untwists."""
    if system.n_sites != state.n_sites:
        raise ValueError("system and state sizes differ")
    phases = system.phases(t)
    phases *= state.amplitudes
    return LatticeState(state.n_sites, phases)


def lattice_rotate(state: LatticeState, direction: Direction, angle: float) -> LatticeState:
    """Product rotation exp(-i angle n.sigma/2) applied site by site."""
    return LatticeState(state.n_sites, _site_rotate(state.amplitudes.copy(), direction, angle))


def _site_halves(*arrays: np.ndarray):
    """Per site s of the first array's 2^M-long last axis, views of each array with
    bit s on axis 2: [:, :, 0] is the half with site s up (bit value 0, Z = +1) and
    [:, :, 1] the half with it down.  Every per-site kernel here loops over these."""
    n_sites = arrays[0].shape[-1].bit_length() - 1
    for s in range(n_sites):
        shape = (-1, 2 ** (n_sites - s - 1), 2, 2**s)
        yield tuple(x.reshape(shape) for x in arrays)


def _jz_diagonal(n_sites: int) -> np.ndarray:
    """J_z over the basis: M/2 - popcount(b), as float64."""
    return np.subtract(n_sites / 2.0, _popcounts(n_sites), dtype=float)


def _spin_apply(amps: np.ndarray) -> np.ndarray:
    """(Jx, Jy, Jz)|amps> for states along the last axis (2^M long, so M is
    read from it), as one (3,) + amps.shape array.

    Rows 0 and 1 of the output first accumulate J+ and J- with one strided add
    per site, and row 2 holds their difference while they become Jx and Jy;
    Jz is diagonal, (M/2 - popcount(b)) amps.  Beyond the output, memory is
    J_z's float64 diagonal and the uint8 popcount table it is read from.
    """
    n_sites = amps.shape[-1].bit_length() - 1
    out = np.zeros((3,) + amps.shape, dtype=complex)
    raised, lowered, jz = out
    for a, up, down in _site_halves(amps, raised, lowered):
        up[:, :, 0] += a[:, :, 1]  # sigma+ takes bit value 1 (Z = -1) to 0 (Z = +1)
        down[:, :, 1] += a[:, :, 0]
    np.subtract(raised, lowered, out=jz)
    raised += lowered
    raised /= 2.0
    np.divide(jz, 2j, out=lowered)
    np.multiply(amps, _jz_diagonal(n_sites), out=jz)
    return out


def _direction_apply(amps: np.ndarray, direction: Direction) -> np.ndarray:
    """(n.J)|amps> for one state, built in one buffer: n_z J_z amps plus, per site,
    c J+ and c* J- with c = (n_x - i n_y)/2, since n_x J_x + n_y J_y = c J+ + c* J-.
    No (Jx, Jy, Jz) stack is formed (_spin_apply gives that stack)."""
    n_sites = amps.shape[-1].bit_length() - 1
    c = complex(direction.nx, -direction.ny) / 2.0
    out = amps * (direction.nz * _jz_diagonal(n_sites))
    for a, o in _site_halves(amps, out):
        o[:, :, 0] += c * a[:, :, 1]
        o[:, :, 1] += c.conjugate() * a[:, :, 0]
    return out


def lattice_moments(state: LatticeState, direction: Direction) -> tuple[float, float]:
    """<n.J> and Var(n.J) = ||(n.J - <n.J>)|state>||^2, without materializing matrices."""
    amps = state.amplitudes
    return centred_moments(amps, _direction_apply(amps, direction))


def lattice_variance(state: LatticeState, direction: Direction) -> float:
    """Var(n.J), centred: non-negative by construction."""
    return lattice_moments(state, direction)[1]


def dicke_to_lattice(state: CollectiveState) -> LatticeState:
    """Embed a symmetric Dicke-basis state into the full ring statevector (N sites)."""
    m = state.n_particles
    weights = 2.0 ** (-m / 2.0) / _binomial_amplitudes(m, 0.5, 0.5)  # 1/sqrt(C(m, k))
    return LatticeState(m, (state.amplitudes * weights)[_popcounts(m)])


# ---------------------------------------------------------------------------
# analytic variance of exp(-i t H_K)|+>^{(N+2)}


def _ring_counts(n_sites: int, range_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per pair offset d = 1..M-1: sites other than 0 and d within range of exactly
    one / both endpoints.  The (2K+1)-site windows around 0 and d overlap in c(d)
    sites, both endpoints among them when a(d) = [distance <= K]: both = c - 2a."""
    d = np.arange(1, n_sites, dtype=np.int64)
    width = 2 * range_k + 1
    overlap = np.maximum(0, width - d) + np.maximum(0, width - (n_sites - d))
    in_range = (np.minimum(d, n_sites - d) <= range_k).astype(np.int64)
    both = overlap - 2 * in_range
    return 2 * (2 * range_k - in_range) - 2 * both, both


def fr_covariance_matrix(n_particles: int, range_k: int, t: float) -> np.ndarray:
    """Sigma_ab = Re<J_a J_b> - <J_a><J_b> of exp(-i t H_K)|+>^{(N+2)} in closed form:
    numerics.ising_covariance with the per-distance pair classes of _ring_counts,
    exact for every legal K."""
    m = _check_system_args(n_particles, range_k)
    return ising_covariance(m, 2 * range_k, *_ring_counts(m, range_k), 1, t)


def fr_variance_analytic(n_particles: int, range_k: int, t: float, xi: float, theta: float,
                         branch: str = "auto") -> float:
    """Var(n.J) = n^T Sigma n of the twisted ring state.

    branch serves perfbench/checks.py, which passes each fr-qfi row's "branch"
    column here: "auto", the one closed form, is its only value, and any other
    raises ValueError."""
    if branch != "auto":
        raise ValueError(f"unknown branch {branch!r}; the ring's closed form is 'auto'")
    n = Direction.from_angles(xi, theta).as_array()
    return float(np.einsum("i,ij,j", n, fr_covariance_matrix(n_particles, range_k, t), n))


def qfi_decibels(value: float, n_sites: int) -> float:
    """10 log10 of the SQL-normalized QFI (decibel axis for phase-diagram plots)."""
    return 10.0 * math.log10(value / n_sites)


def fr_max_qfi(n_particles: int, range_k: int, t: float) -> SphereMaximum:
    """Ring QFI maximized over rotation directions: 4 lambda_max(Sigma) and its eigenvector.

    exp(-i pi J_x) keeps exp(-i t H_K)|+> up to a phase and flips J_y and J_z, so
    Sigma_xy = Sigma_xz = 0 and the top eigenpair is closed form
    (maximize_quadratic_form)."""
    return maximize_quadratic_form(4.0 * fr_covariance_matrix(n_particles, range_k, t))


def fr_interpolation_forms(which: str, n_particles: int, t: float = 0.0, range_k: int = 1,
                           c: float = 1.0, xi: float = math.pi / 2,
                           theta: float = math.pi / 2) -> float:
    """The paper's overlay formulas for the finite-range phase-diagram plots.

    inter1, largescale and longrange_heisenberg are on the QFI scale, as
    fr_max_qfi; bestshort and inter2 are on the variance scale, Var(n.J) along
    (xi, theta), a quarter of the QFI at the best direction."""
    n = float(n_particles)
    m = n + 2.0
    if which == "inter1":
        return m / math.sin(t) ** 2 * math.sin(xi) ** 2 + m * math.cos(xi) ** 2
    if which == "bestshort":
        e2 = math.exp(-2.0 * c * c)
        e4 = math.exp(-4.0 * c * c)
        return (m * range_k * math.sin(xi) ** 2 / 4.0
                * ((1.0 - e2) / c**2 - 2.0 * e2
                   + math.cos(2 * theta) * ((e2 - e4) / c**2 - 2.0 * e2)))
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


# ---------------------------------------------------------------------------
# finite-range twist-untwist protocols (brute-force statevector)


def _site_rotate(amps: np.ndarray, direction: Direction, angle: float) -> np.ndarray:
    """exp(-i angle n.sigma/2) on every site of amps, a complex array, in place."""
    nx, ny, nz = direction.nx, direction.ny, direction.nz
    ns = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])  # n.sigma, bit value 0 first
    u = math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * ns
    for (a,) in _site_halves(amps):
        a0 = a[:, :, 0].copy()
        a[:, :, 0] = u[0, 0] * a0 + u[0, 1] * a[:, :, 1]
        a[:, :, 1] = u[1, 0] * a0 + u[1, 1] * a[:, :, 1]
    return amps


def _sensed(system: LatticeSystem, t: float, phi: float,
            rotation: Direction) -> tuple[np.ndarray, np.ndarray]:
    """chi = exp(-i phi n.J) U|+>^{(N+2)}, U = exp(-i t H_K), and the diagonal of
    the untwist U^dag that follows it."""
    untwist = system.phases(-t)
    chi = untwist.conj() * 2.0 ** (-system.n_sites / 2)  # U|+>: |+> is 2^(-M/2) everywhere
    return _site_rotate(chi, rotation, phi), untwist


def fr_protocol_state(system: LatticeSystem, t: float, phi: float,
                      rotation: Direction) -> LatticeState:
    """exp(+i t H_K) exp(-i phi n.J) exp(-i t H_K)|+>^{(N+2)}."""
    chi, untwist = _sensed(system, t, phi, rotation)
    return LatticeState(system.n_sites, chi * untwist)


def _fr_moments(system: LatticeSystem, t: float, phi: float,
                rotation: Direction) -> tuple[np.ndarray, np.ndarray]:
    """D = d<J>/dphi and the centred covariance matrix of J in the twist-untwist
    state U^dag chi at phi (see _sensed and untwist_moments)."""
    if phi == 0.0:
        raise ValueError("phi must be nonzero; the phi -> 0 point is 0/0 (use a small phi)")
    return untwist_moments(*_sensed(system, t, phi, rotation), rotation.as_array(), _spin_apply)


def fr_mom_reciprocal(system: LatticeSystem, t: float, phi: float, rotation: Direction,
                      readout: Direction) -> float:
    """Reciprocal method-of-moments error for the finite-range twist-untwist protocol.

    Brute-force statevector evaluation with the exact slope of _fr_moments.
    """
    return mom_reciprocal(*_fr_moments(system, t, phi, rotation), readout.as_array())


def fr_optimal_readout(system: LatticeSystem, t: float, phi: float,
                       rotation: Direction) -> SphereMaximum:
    """The readout that maximizes fr_mom_reciprocal, and that maximum:
    D^T Sigma^-1 D at m ~ Sigma^-1 D (see maximize_slope_ratio)."""
    return maximize_slope_ratio(*_fr_moments(system, t, phi, rotation))


def _mom_limit_terms(system: LatticeSystem, t: float) -> tuple[np.ndarray, ...]:
    """A, E, F and B of mom_limit_terms for the ring, with U = exp(-i t H_K)."""
    return mom_limit_terms(plus_state(system.n_sites).amplitudes, system.phases(t), _spin_apply)


def fr_mom_limit(system: LatticeSystem, t: float) -> Callable[[np.ndarray], np.ndarray]:
    """phi -> 0 limit of fr_optimal_readout(system, t, phi, n).value, vectorized over
    a (k, 3) array of rotations n (numerics.mom_limit).  A 0/0 point gives nan."""
    p, c, b = mom_limit_matrices(*_mom_limit_terms(system, t), system.n_sites)
    return lambda n: mom_limit(p, c, b, n)


def fr_optimal_protocol(system: LatticeSystem, t: float, phi: float) -> JointMaximum:
    """The rotation that maximizes the phi -> 0 limit fr_mom_limit, its exact best
    readout at phi, and the reciprocal error they reach at phi.

    The limit is even in n and is maximized exactly by maximize_limit, which
    reports its argmax with n_y > 0, else n_x < 0; where several directions
    tie (the whole x-z great circle at t = pi/2), it takes the one nearest x.
    At finite phi, n and -n differ (rotating about -n senses -phi), so -n is
    reported when its reciprocal error at phi is larger by more than FLIP_RTOL.
    """
    best = maximize_limit(*mom_limit_matrices(*_mom_limit_terms(system, t), system.n_sites))
    rotation = best.direction
    flipped = Direction(-rotation.nx, -rotation.ny, -rotation.nz)
    readout, other = (fr_optimal_readout(system, t, phi, d) for d in (rotation, flipped))
    if other.value > readout.value * (1.0 + FLIP_RTOL):
        rotation, readout = flipped, other
    return JointMaximum(rotation, readout.direction, readout.value, best.value, best.kind,
                        readout.kind)
