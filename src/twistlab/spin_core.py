"""Exact Dicke-basis representation of symmetric collective spins.

All states of N spin-1/2 particles live in the (N+1)-dimensional symmetric
subspace, indexed by the excitation number ell = 0..N (number of particles in
the single-particle state |1>).  With that ordering J_z is diagonal with
eigenvalue (N - 2*ell)/2, so one-axis twisting is a pure diagonal phase
multiply.  States and operators are immutable; every operation returns a new
object, so everything here is safe to call concurrently.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

NORM_ATOL = 1e-12
HERMITICITY_ATOL = 1e-12
IMAG_TOL = 1e-10
VARIANCE_FLOOR = -1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Direction:
    """Unit vector on the Bloch sphere, n = (sin xi cos theta, sin xi sin theta, cos xi)."""

    nx: float
    ny: float
    nz: float

    def __post_init__(self) -> None:
        norm = math.sqrt(self.nx**2 + self.ny**2 + self.nz**2)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"direction must be unit length, got |n| = {norm!r}")

    @classmethod
    def from_vector(cls, nx: float, ny: float, nz: float) -> "Direction":
        norm = math.sqrt(nx * nx + ny * ny + nz * nz)
        if norm == 0.0:
            raise ValueError("zero vector has no direction")
        return cls(nx / norm, ny / norm, nz / norm)

    @classmethod
    def from_angles(cls, xi: float, theta: float) -> "Direction":
        return cls(math.sin(xi) * math.cos(theta), math.sin(xi) * math.sin(theta), math.cos(xi))

    @property
    def xi(self) -> float:
        """Polar angle in [0, pi]."""
        return math.acos(min(1.0, max(-1.0, self.nz)))

    @property
    def theta(self) -> float:
        """Azimuth in [-pi, pi); 0 at the poles by convention."""
        th = math.atan2(self.ny, self.nx)
        return -math.pi if th == math.pi else th

    def as_array(self) -> np.ndarray:
        return np.array([self.nx, self.ny, self.nz])

    def stereographic(self) -> complex:
        """Projection from the south pole: zeta = tan(xi/2) e^{i theta}; inf at the pole."""
        if self.nz <= -1.0 + 1e-15:
            return complex(math.inf, 0.0)
        return math.tan(self.xi / 2) * cmath.exp(1j * self.theta)


X_AXIS = Direction(1.0, 0.0, 0.0)
Y_AXIS = Direction(0.0, 1.0, 0.0)
Z_AXIS = Direction(0.0, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class CollectiveState:
    """Normalized amplitude vector over the Dicke basis, index ell = 0..N."""

    n_particles: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n_particles < 1:
            raise ValueError("need at least one particle")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.n_particles + 1,):
            raise ValueError(f"expected {self.n_particles + 1} amplitudes, got shape {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", _readonly(amps.copy()))

    def overlap(self, other: "CollectiveState") -> complex:
        """<self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class CollectiveOperator:
    """Operator matrix in the Dicke basis (same ell-ordering as CollectiveState)."""

    n_particles: int
    matrix: np.ndarray
    hermitian: bool = True

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.n_particles + 1
        if mat.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got {mat.shape}")
        if self.hermitian and np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_ATOL:
            raise ValueError("matrix marked hermitian is not hermitian")
        object.__setattr__(self, "matrix", _readonly(mat.copy()))


def _log_binomial(n: int) -> np.ndarray:
    """log C(n, ell) for ell = 0..n: the log of the exact integer binomial, to a few ulp.

    Differences of log-gamma values lose about 1e-16 * n log n to cancellation,
    which pushes the coherent-state norm past NORM_ATOL at scattered n from
    about 1400 up; the integers themselves carry no rounding.
    """
    half = np.empty(n // 2 + 1)
    c = 1
    for ell in range(n // 2 + 1):
        half[ell] = math.log(c)
        c = c * (n - ell) // (ell + 1)
    return np.concatenate((half, half[:(n + 1) // 2][::-1]))


def coherent_state(n_particles: int, zeta: complex) -> CollectiveState:
    """SU(2) coherent state |zeta>, zeta the stereographic coordinate from the south pole.

    zeta = 0 is the north pole (all particles in |0>), zeta = inf the south pole,
    zeta = 1 the +x-polarized product state.
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    amps = np.zeros(n_particles + 1, dtype=complex)
    z = complex(zeta)
    if cmath.isinf(z):
        amps[-1] = 1.0
        return CollectiveState(n_particles, amps)
    r = abs(z)
    if r == 0.0:
        amps[0] = 1.0
        return CollectiveState(n_particles, amps)
    ell = np.arange(n_particles + 1)
    # magnitudes in log space so large N and extreme zeta stay finite
    if r <= 1.0:
        log_den = 0.5 * n_particles * np.log1p(r * r)
    else:
        log_den = n_particles * math.log(r) + 0.5 * n_particles * np.log1p(r**-2)
    mag = np.exp(0.5 * _log_binomial(n_particles) + ell * math.log(r) - log_den)
    phase = (z / r) ** ell
    return CollectiveState(n_particles, mag * phase)


def ghz_state(n_particles: int) -> CollectiveState:
    """Equal superposition of the two polar Dicke states, (|N,0> + |0,N>)/sqrt(2)."""
    amps = np.zeros(n_particles + 1, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return CollectiveState(n_particles, amps)


# bounded because an entry holds five dense (N+1)^2 complex matrices (1.3 GB at
# N = 4000).  Two entries hold the N of up to two row threads; with three or more
# row threads on distinct N (twist-untwist-scan --threads >= 3) calls re-miss
# and rebuild, which costs about 0.1 s at N = 1300 against seconds of eigh per row
@lru_cache(maxsize=2)
def _spin_matrices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(jx, jy, jz, jplus, jminus) for N particles, Dicke ell-ordering."""
    ell = np.arange(n + 1)
    jz = np.diag((n - 2.0 * ell) / 2.0).astype(complex)
    jp = np.zeros((n + 1, n + 1), dtype=complex)
    for k in range(1, n + 1):
        jp[k - 1, k] = math.sqrt(k * (n - k + 1))
    jm = jp.conj().T
    jx = (jp + jm) / 2
    jy = (jp - jm) / 2j
    return tuple(_readonly(m) for m in (jx, jy, jz, jp, jm))  # type: ignore[return-value]


_KINDS = ("jx", "jy", "jz", "jplus", "jminus", "dot", "parity_x")


def collective_operator(n_particles: int, kind: str, direction: Direction | None = None) -> CollectiveOperator:
    """Build a collective operator: jx, jy, jz, jplus, jminus, parity_x, or dot(direction)."""
    if n_particles < 1:
        raise ValueError("need at least one particle")
    kind = kind.lower()
    if kind not in _KINDS:
        raise ValueError(f"unknown operator kind {kind!r}; expected one of {_KINDS}")
    jx, jy, jz, jp, jm = _spin_matrices(n_particles)
    if kind == "jx":
        return CollectiveOperator(n_particles, jx)
    if kind == "jy":
        return CollectiveOperator(n_particles, jy)
    if kind == "jz":
        return CollectiveOperator(n_particles, jz)
    if kind == "jplus":
        return CollectiveOperator(n_particles, jp, hermitian=False)
    if kind == "jminus":
        return CollectiveOperator(n_particles, jm, hermitian=False)
    if kind == "parity_x":
        # X^{xN} maps ell -> N - ell
        return CollectiveOperator(n_particles, np.eye(n_particles + 1, dtype=complex)[::-1])
    if direction is None:
        raise ValueError("kind 'dot' needs a direction")
    return CollectiveOperator(n_particles, direction.nx * jx + direction.ny * jy + direction.nz * jz)


@lru_cache(maxsize=128)
def _dot_eigensystem(n: int, direction: Direction) -> tuple[np.ndarray, np.ndarray]:
    mat = collective_operator(n, "dot", direction).matrix
    w, v = np.linalg.eigh(mat)
    return _readonly(w), _readonly(v)


def rotate(state: CollectiveState, direction: Direction, angle: float) -> CollectiveState:
    """exp(-i angle n.J)|state> via the spectral decomposition of the hermitian n.J."""
    w, v = _dot_eigensystem(state.n_particles, direction)
    amps = v @ (np.exp(-1j * angle * w) * (v.conj().T @ state.amplitudes))
    return CollectiveState(state.n_particles, amps)


def oat_evolve(state: CollectiveState, t: float, sign: int = 1) -> CollectiveState:
    """One-axis twisting exp(-i sign t Jz^2): diagonal phases exp(-i sign t m_ell^2)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 (twist) or -1 (untwist)")
    ell = np.arange(state.n_particles + 1)
    m = (state.n_particles - 2.0 * ell) / 2.0
    return CollectiveState(state.n_particles, state.amplitudes * np.exp(-1j * sign * t * m * m))


def expectation(state: CollectiveState, op: CollectiveOperator) -> float:
    """<state|op|state> for hermitian op."""
    if op.n_particles != state.n_particles:
        raise ValueError("operator and state particle numbers differ")
    if not op.hermitian:
        raise ValueError("expectation requires a hermitian operator")
    val = complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))
    if abs(val.imag) >= IMAG_TOL:
        raise ValueError(f"expectation of hermitian operator came out complex: {val!r}")
    return val.real


def variance(state: CollectiveState, op: CollectiveOperator) -> float:
    """Var = <M^2> - <M>^2, clamped to 0 when within -1e-10 of zero."""
    if op.n_particles != state.n_particles:
        raise ValueError("operator and state particle numbers differ")
    if not op.hermitian:
        raise ValueError("variance requires a hermitian operator")
    applied = op.matrix @ state.amplitudes
    mean = complex(np.vdot(state.amplitudes, applied))
    if abs(mean.imag) >= IMAG_TOL:
        raise ValueError(f"expectation of hermitian operator came out complex: {mean!r}")
    var = float(np.vdot(applied, applied).real - mean.real**2)
    if var < VARIANCE_FLOOR:
        raise ValueError(f"variance {var!r} below the numerical floor; operator likely invalid")
    return max(var, 0.0)


def husimi_q(state: CollectiveState, xi, theta) -> np.ndarray:
    """Husimi Q(xi, theta) = |<coherent(xi, theta)|state>|^2, broadcasting over grids.

    Raw overlap-squared in [0, 1]; the (N+1)/(4 pi) quasi-probability density
    factor is deliberately left to the caller.
    """
    n = state.n_particles
    xi = np.asarray(xi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    xi_b, theta_b = np.broadcast_arrays(xi, theta)
    ell = np.arange(n + 1)
    # coherent amplitudes c_ell = sqrt(C(N,ell)) cos^{N-ell}(xi/2) sin^ell(xi/2) e^{i ell theta}
    half = xi_b[..., None] / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # a zero exponent contributes nothing even where the log diverges at the poles
        cos_term = np.where(ell == n, 0.0, (n - ell) * np.log(np.cos(half)))
        sin_term = np.where(ell == 0, 0.0, ell * np.log(np.sin(half)))
        logmag = 0.5 * _log_binomial(n) + cos_term + sin_term
    mag = np.where(np.isneginf(logmag), 0.0, np.exp(logmag))
    overlap = np.sum(mag * np.exp(-1j * ell * theta_b[..., None]) * state.amplitudes, axis=-1)
    q = np.abs(overlap) ** 2
    return q if q.shape else float(q)
