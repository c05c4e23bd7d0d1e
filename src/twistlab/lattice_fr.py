"""Finite-range one-axis twisting on a periodic spin-1/2 ring.

The ring has n_particles + 2 sites (n_particles even), coupled by uniform ZZ
interactions over a range of K lattice spacings.  Diagonal evolution and
product rotations act on the full 2^(N+2) statevector.  The Hamiltonian's
diagonal is stored as a small-integer count of unlike pairs per basis state,
read per range distance from one uint8 popcount table over the basis
(_popcounts, which J_z reads too): it takes at most K(N+2) + 1 levels, so a
twist phase is one exp over that level table gathered by the count.  The
protocol moments (fr_protocol_moments) come from one (Jx, Jy, Jz) stack
written in place, and one direction's moments from (n.J)|psi> built in one
buffer, so every statevector kernel holds O(2^(N+2)) numbers, never a table
of per-site values or an operator matrix.  The ring's closed forms are in closed_form.
"""
from __future__ import annotations

import math

import numpy as np

from .closed_form import Direction, _check_system_args
from .closed_form import fr_variance_analytic  # read here by perfbench/checks.py
from .numerics import (_Frozen, _readonly, _unit_amplitudes, centred_moments, mom_limit_matrices,
                       mom_limit_terms, untwist_moments)

BRUTE_FORCE_MAX_SITES = 20

# fr_optimal_protocol reports -n in place of n only for a larger relative gain:
# below it the two differ by rounding or by an odd-in-phi part too small to matter
FLIP_RTOL = 1e-9


class LatticeSystem(_Frozen):
    """Diagonal of the range-K Ising Hamiltonian over the computational basis.

    Bit i of a basis index is site i (site 0 = least significant bit); bit
    value 1 means Z eigenvalue -1.  Entry for bitstring b is
    (1/4) sum_j sum_{i=j-K..j+K, i != j} z_i z_j with indices mod M = N+2.
    Each distance d counts every pair twice, and z_i z_{i+d} = -1 exactly where
    b and its rotation rot_d(b) = ((b >> d) | (b << (M - d))) mod 2^M differ,
    so h(b) = (1/2) sum_{d=1..K} (M - 2 popcount(b XOR rot_d(b))).

    unlike holds that sum of popcounts, read from the table _popcounts(M) and
    summed in the smallest unsigned dtype that holds K M, and
    h(b) = (K M - 2 unlike(b)) / 2 takes one of K M + 1 levels.  Its fields are
    read-only, as a state's are.
    """

    __slots__ = ("n_particles", "range_k", "unlike")

    def __init__(self, n_particles: int, range_k: int, unlike: np.ndarray) -> None:
        object.__setattr__(self, "n_particles", n_particles)
        object.__setattr__(self, "range_k", range_k)
        object.__setattr__(self, "unlike", unlike)

    @property
    def n_sites(self) -> int:
        return self.n_particles + 2

    def _levels(self) -> np.ndarray:
        top = self.range_k * self.n_sites
        return 0.5 * (top - 2 * np.arange(top + 1))

    def phases(self, t: float) -> np.ndarray:
        """exp(-i t h(b)) over the basis (t < 0 untwists): the exp of each level,
        gathered by unlike, with the same values as the exp taken entry by entry.
        OverflowError where t K M/2, the largest phase, is not finite."""
        if not math.isfinite(t * (self.range_k * self.n_sites / 2.0)):
            raise OverflowError(f"interaction time {t!r}: t K M/2 overflows to infinity")
        return np.exp(-1j * t * self._levels())[self.unlike]


class LatticeState(_Frozen):
    """Normalized 2^n_sites statevector; keeps the array it is given and makes it read-only."""

    __slots__ = ("n_sites", "amplitudes")

    def __init__(self, n_sites: int, amplitudes: np.ndarray) -> None:
        object.__setattr__(self, "n_sites", n_sites)
        object.__setattr__(self, "amplitudes", _unit_amplitudes(amplitudes, 2**n_sites))


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


def fr_protocol_moments(system: LatticeSystem, t: float, phi: float,
                        rotation: Direction) -> tuple[np.ndarray, np.ndarray]:
    """D = d<J>/dphi and the centred covariance matrix of J in the twist-untwist
    state U^dag chi at phi (see _sensed and untwist_moments): the arguments of
    dicke_sums.mom_reciprocal and optimizer.maximize_slope_ratio."""
    if phi == 0.0:
        raise ValueError("phi must be nonzero; the phi -> 0 point is 0/0 (use a small phi)")
    return untwist_moments(*_sensed(system, t, phi, rotation), rotation.as_array(), _spin_apply)


def _mom_limit_terms(system: LatticeSystem, t: float) -> tuple[np.ndarray, ...]:
    """A, C <= 0 and B >= 0 of mom_limit_terms for the ring, with U = exp(-i t H_K)."""
    return mom_limit_terms(plus_state(system.n_sites).amplitudes, system.phases(t), _spin_apply)


def fr_optimal_protocol(system: LatticeSystem, t: float, phi: float) -> JointMaximum:
    """The rotation that maximizes the phi -> 0 limit of the best readout's
    reciprocal error, its exact best readout at phi, and the reciprocal error
    they reach at phi.

    The limit is even in n and is maximized exactly by maximize_limit, which
    reports its argmax with n_y > 0, else n_x < 0; where several directions
    tie (the whole x-z great circle at t = pi/2), it takes the one nearest x.
    At finite phi, n and -n differ (rotating about -n senses -phi), so -n is
    reported when its reciprocal error at phi is larger by more than FLIP_RTOL.
    """
    from .optimizer import JointMaximum, maximize_limit, maximize_slope_ratio

    best = maximize_limit(*mom_limit_matrices(*_mom_limit_terms(system, t), system.n_sites))
    rotation = best.direction
    flipped = Direction(-rotation.nx, -rotation.ny, -rotation.nz)
    readout, other = (maximize_slope_ratio(*fr_protocol_moments(system, t, phi, d))
                      for d in (rotation, flipped))
    if other.value > readout.value * (1.0 + FLIP_RTOL):
        rotation, readout = flipped, other
    return JointMaximum(rotation, readout.direction, readout.value, best.value, best.kind,
                        readout.kind)
