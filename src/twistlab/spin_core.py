"""Exact Dicke-basis representation of symmetric collective spins.

All states of N spin-1/2 particles live in the (N+1)-dimensional symmetric subspace, indexed
by the excitation number ell = 0..N (number of particles in the single-particle state |1>).
With that ordering J_z is diagonal with eigenvalue (N - 2*ell)/2, so one-axis twisting is a
pure diagonal phase multiply.  A collective operator linear in J is applied in O(N): one n.J
in one buffer, or the (Jx, Jy, Jz) stack.  States are immutable; every operation returns a
new object, so everything here is safe to call concurrently.
"""
from __future__ import annotations

import math

import numpy as np

from .closed_form import Direction
from .numerics import _Frozen, _unit_amplitudes, centred_moments


class CollectiveState(_Frozen):
    """Normalized Dicke amplitudes, ell = 0..N; keeps the array it is given, made read-only."""

    __slots__ = ("n_particles", "amplitudes")

    def __init__(self, n_particles: int, amplitudes: np.ndarray) -> None:
        if n_particles < 1:
            raise ValueError("need at least one particle")
        object.__setattr__(self, "n_particles", n_particles)
        object.__setattr__(self, "amplitudes", _unit_amplitudes(amplitudes, n_particles + 1))


# Stirling's error log(k!) - log(sqrt(2 pi k) (k/e)^k) for k = 0..15 (0 at k = 0)
_STIRLERR_TABLE = np.array([0.0] + [math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k
                                    - 0.5 * math.log(2.0 * math.pi) for k in range(1, 16)])


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x log(x/m) + m - x for x > 0, m >= 0 (inf at m = 0), broadcasting.  Where
    |x - m| < 0.1 (x + m) that form cancels, and on those entries alone it is
    (x - m) v + 2 x sum_{j >= 1} v^(2j+1)/(2j+1) with v = (x - m)/(x + m): there
    |v| < 0.1, so eight terms reach a relative 1e-17."""
    with np.errstate(divide="ignore"):
        out = x * np.log(x / m) - (x - m)
    near = np.abs(x - m) < 0.1 * (x + m)
    x, m = np.broadcast_to(x, near.shape)[near], np.broadcast_to(m, near.shape)[near]
    v = (x - m) / (x + m)
    v2 = v * v
    odd = 1.0 / 17.0  # sum_{j=1..8} v^(2j-2)/(2j+1) by Horner's rule
    for j in range(15, 1, -2):
        odd = odd * v2 + 1.0 / j
    out[near] = (x - m) * v + 2.0 * x * v * v2 * odd
    return out


def _stirlerr(lo: int, hi: int) -> np.ndarray:
    """Stirling's error at k = lo..hi-1: the table below 16, its series from 16 up."""
    k = np.maximum(np.arange(lo, hi, dtype=float), 16.0)
    kk = k * k
    err = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * kk)) / kk) / kk) / kk) / k
    err[:max(16 - lo, 0)] = _STIRLERR_TABLE[lo:hi]
    return err


def _binomial_amplitudes(n: int, p, q, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """sqrt(C(n, ell) p^ell q^(n - ell)) for ell = lo..hi-1 (default 0..n) on a new
    last axis, over the shape of p and q = 1 - p.  q is passed apart so that both
    keep their digits near a pole, and p = 0 or q = 0 gives the pole exactly.

    Loader's saddle-point form (C. Loader, "Fast and Accurate Computation of
    Binomial Probabilities", 2000; R's dbinom): n log q and n log p at ell = 0, n,
        log pmf = stirlerr(n) - stirlerr(ell) - stirlerr(n - ell)
                  - bd0(ell, n p) - bd0(n - ell, n q) - log(2 pi ell (n - ell)/n)/2
    between, every term O(1) near the peak: O(hi - lo) work, each entry the same
    bits as in the full range, and the log to a few ulp at any n.
    """
    hi = n + 1 if hi is None else hi
    a, b = max(lo, 1), min(hi, n)  # the inner ell of the range
    p, q = np.asarray(p, dtype=float)[..., None], np.asarray(q, dtype=float)[..., None]
    inner = np.arange(a, b)
    log_pmf = np.empty(p.shape[:-1] + (hi - lo,))
    with np.errstate(divide="ignore"):  # the poles, each where it is in range
        log_pmf[..., :a - lo], log_pmf[..., b - lo:] = n * np.log(q), n * np.log(p)
    err = _stirlerr(a, b)  # at ell; at n - ell too where the range is its own mirror
    mirror = err if a + b == n + 1 else _stirlerr(n - b + 1, n - a + 1)
    log_pmf[..., a - lo:b - lo] = (_stirlerr(n, n + 1)[0] - err - mirror[::-1]
                                   - 0.5 * np.log(2.0 * math.pi * inner * (n - inner) / n)
                                   - _bd0(inner, n * p) - _bd0(n - inner, n * q))
    return np.exp(0.5 * log_pmf)


def coherent_state(n_particles: int, zeta: complex) -> CollectiveState:
    """SU(2) coherent state |zeta>, zeta the stereographic coordinate from the south pole.

    zeta = 0 is the north pole (all particles in |0>), zeta = inf the south pole,
    zeta = 1 the +x-polarized product state.  Amplitudes are binomial ones with
    p = r^2/(1 + r^2), r = |zeta|, times the phases (zeta/r)^ell.
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    z = complex(zeta)
    r = abs(z)
    s = r * r if r <= 1.0 else r**-2.0  # min(r^2, r^-2), so that p and q keep their digits
    pq = (s / (1.0 + s), 1.0 / (1.0 + s))
    mag = _binomial_amplitudes(n_particles, *(pq if r <= 1.0 else pq[::-1]))
    # (zeta/r)^ell by repeated products, each scaled to unit modulus: |phase| = 1 to
    # rounding at any N, and zeta/r = +-1, +-i gives its powers exactly
    unit = z / r if 0.0 < r < math.inf else 1.0
    phase = np.cumprod(np.concatenate(([1.0 + 0.0j], np.full(n_particles, unit))))
    phase /= np.abs(phase)
    return CollectiveState(n_particles, mag * phase)


def ghz_state(n_particles: int) -> CollectiveState:
    """Equal superposition of the two polar Dicke states, (|N,0> + |0,N>)/sqrt(2)."""
    amps = np.zeros(n_particles + 1, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return CollectiveState(n_particles, amps)


def _m(n: int) -> np.ndarray:
    """Jz eigenvalues m_ell = (N - 2 ell)/2."""
    return (n - 2.0 * np.arange(n + 1)) / 2.0


def _ladder(n: int) -> np.ndarray:
    """sqrt(k (N - k + 1)) for k = 1..N: <ell = k-1|J+|ell = k> = <k|J-|k-1>."""
    k = np.arange(1, n + 1, dtype=float)
    return np.sqrt(k * (n - k + 1.0))


def _spin_apply(amps: np.ndarray) -> np.ndarray:
    """(Jx, Jy, Jz)|amps>, stacked on a new first axis, for states along the last axis."""
    s = _ladder(amps.shape[-1] - 1)
    raised, lowered = np.zeros_like(amps), np.zeros_like(amps)
    raised[..., :-1] = s * amps[..., 1:]
    lowered[..., 1:] = s * amps[..., :-1]
    return np.stack(((raised + lowered) / 2.0, (raised - lowered) / 2j,
                     _m(amps.shape[-1] - 1) * amps))


# |J_k| below which the rotation series stops, once k is past its argument
BESSEL_CUTOFF = 1e-17


def _bessel_j(z: float) -> np.ndarray:
    """J_k(z) for z >= 0 and k = 0..K, K the first order above z with |J_K| < BESSEL_CUTOFF.

    Miller's backward recurrence J_{k-1} = (2k/z) J_k - J_{k+1}, started far enough above z
    that the start's error has died out by order K, and normalized by J_0^2 + 2 sum_k J_k^2 = 1
    (all terms positive), with the sign fixed by J_0 + 2 sum_k J_2k = 1.  Lest 2k/z overflow,
    it runs on u_k = J_k 2^sk: u_{k-1} = (2k/z 2^-s) u_k - 4^-s u_{k+1}, exact in powers of two.
    """
    if z == 0.0:
        return np.ones(1)
    top = int(z + 12.5 * z ** (1.0 / 3.0)) + 10
    s = max(0, -64 - math.frexp(z)[1])  # the least s >= 0 with z 2^s >= 2^-65
    zs, drop = math.ldexp(z, s), math.ldexp(1.0, -2 * s)
    above, here = 0.0, 1.0  # u_{top+1} and u_top, up to a common factor
    vals = [here]
    for k in range(top, 0, -1):
        above, here = here, (2.0 * k / zs) * here - drop * above
        vals.append(here)
    j = np.ldexp(np.array(vals[::-1]), -s * np.arange(top + 1))  # far orders underflow to 0
    j /= np.max(np.abs(j))
    j *= math.copysign(1.0 / math.sqrt(j[0] ** 2 + 2.0 * np.sum(j[1:] ** 2)),
                       j[0] + 2.0 * np.sum(j[2::2]))
    beyond = np.flatnonzero((np.arange(top + 1) > z) & (np.abs(j) < BESSEL_CUTOFF))
    return j[:beyond[0] + 1]


def rotate(state: CollectiveState, direction: Direction, angle: float) -> CollectiveState:
    """exp(-i angle n.J)|state> by a Chebyshev series in n.J (Tal-Ezer & Kosloff, 1984).

    n.J = D T D^dag with D = diag(e^{i ell theta}) and T real symmetric tridiagonal: diagonal
    n_z m_ell, off-diagonals sin(xi)/2 sqrt(k (N - k + 1)).  T's spectrum is m = -N/2..N/2, so
    X = T/(N/2) has its spectrum in [-1, 1], and with z = angle N/2
        exp(-i z X) = J_0(z) + 2 sum_k (-i)^k J_k(z) T_k(X),
    T_k the Chebyshev polynomials: T_{k+1}(X)v = 2X T_k(X)v - T_{k-1}(X)v.  Two T_k(X)v
    are held, and each term is added to the sum as it is made: no matrix product, so no
    BLAS.  Each term costs O(N) and about N|angle|/2 terms are needed, so the angle is first
    reduced mod 4 pi by math.remainder (exact, the identity on |angle| <= 2 pi):
    exp(-4 pi i n.J) = 1 on every Dicke space, but exp(-2 pi i n.J) = (-1)^N.
    """
    if math.isinf(angle):  # phi - realign_phi can overflow; remainder would raise ValueError
        raise OverflowError("the rotation angle overflowed to infinity")
    n = state.n_particles
    half = n / 2.0
    z = math.remainder(angle, 4.0 * math.pi) * half
    # J_k(-z) = (-1)^k J_k(z), so the k-th coefficient is 2 J_k(|z|) (-i s)^k, s = sign(z)
    s = math.copysign(1.0, z)
    powers = (1.0, -1j * s, -1.0, 1j * s)
    coeffs = _bessel_j(abs(z)).tolist()
    phase = np.exp(1j * math.atan2(direction.ny, direction.nx) * np.arange(n + 1))
    # X held complex, so that no product casts a real factor
    diag = (direction.nz / half * _m(n)).astype(complex)
    off = (math.hypot(direction.nx, direction.ny) / n * _ladder(n)).astype(complex)
    prev, cur = None, state.amplitudes * phase.conj()
    out = coeffs[0] * cur
    for k in range(1, len(coeffs)):
        nxt = diag * cur
        nxt[:-1] += off * cur[1:]
        nxt[1:] += off * cur[:-1]
        if k > 1:
            nxt *= 2.0
            nxt -= prev
        prev, cur = cur, nxt
        out += (2.0 * coeffs[k] * powers[k % 4]) * cur
    return CollectiveState(n, out * phase)


def _twist_phases(n: int, t: float) -> np.ndarray:
    """exp(-i t m_ell^2) over the Dicke basis, the diagonal of exp(-i t Jz^2); t < 0
    untwists.  OverflowError where t (N/2)^2, the largest phase, is not finite."""
    half = n / 2.0
    if not math.isfinite(t * half * half):  # the product below at m = N/2
        raise OverflowError(f"interaction time {t!r}: t (N/2)^2 overflows to infinity")
    m = _m(n)
    return np.exp(-1j * t * m * m)


def oat_evolve(state: CollectiveState, t: float) -> CollectiveState:
    """One-axis twisting exp(-i t Jz^2): diagonal phases exp(-i t m_ell^2); t < 0 untwists."""
    return CollectiveState(state.n_particles,
                           state.amplitudes * _twist_phases(state.n_particles, t))


def _direction_apply(amps: np.ndarray, direction: Direction) -> np.ndarray:
    """(n.J)|amps> for one state, built in one buffer: n_z m_ell amps plus c J+ amps and
    c* J- amps, c = (n_x - i n_y)/2, since J+ and J- move ell by one; no (Jx, Jy, Jz) stack."""
    s, c = _ladder(amps.size - 1), complex(direction.nx, -direction.ny) / 2.0
    out = amps * (direction.nz * _m(amps.size - 1))
    out[:-1] += c * (s * amps[1:])
    out[1:] += c.conjugate() * (s * amps[:-1])
    return out


def variance(state: CollectiveState, direction: Direction) -> float:
    """Var(n.J) = ||(n.J - <n.J>)|state>||^2: the centred form, non-negative by construction."""
    return centred_moments(state.amplitudes, _direction_apply(state.amplitudes, direction))[1]


# ell indices that husimi_q sums at once
ELL_BLOCK = 64


def husimi_q(state: CollectiveState, xi, theta) -> np.ndarray:
    """Husimi Q(xi, theta) = |<coherent(xi, theta)|state>|^2, broadcasting over grids.

    Raw overlap-squared in [0, 1]; the (N+1)/(4 pi) quasi-probability density
    factor is deliberately left to the caller.

    The overlap is sum_ell mag_ell(xi) e^{-i ell theta} a_ell, summed ELL_BLOCK
    indices at a time, blocks of zero amplitudes left out: one broadcast einsum
    (numpy's own loops, no BLAS) meets each block's magnitudes, on xi's shape, with
    its phased amplitudes, on theta's, each point's sum over ell in one inner loop.
    So a grid holds O((n_xi + n_theta) ELL_BLOCK + n_xi n_theta) numbers.
    """
    n = state.n_particles
    xi, theta = np.asarray(xi, dtype=float), np.asarray(theta, dtype=float)
    shape = np.broadcast_shapes(xi.shape, theta.shape)
    rank = max(len(shape), 1)  # both padded to the result's rank, so that axes line up
    xi, theta = (a.reshape((1,) * (rank - a.ndim) + a.shape) for a in (xi, theta))
    # coherent amplitudes c_ell = sqrt(C(N,ell)) cos^{N-ell}(xi/2) sin^ell(xi/2) e^{i ell theta}
    sin2, cos2 = np.sin(xi / 2.0) ** 2, np.cos(xi / 2.0) ** 2
    overlap = np.zeros((shape or (1,)) + (2,))
    for lo in range(0, n + 1, ELL_BLOCK):
        amps = state.amplitudes[lo:lo + ELL_BLOCK]
        if not amps.any():  # as in the far tails of a large-N probe
            continue
        mag = _binomial_amplitudes(n, sin2, cos2, lo, lo + amps.size)
        phased = np.multiply.outer(theta, -1j * np.arange(lo, lo + amps.size))
        np.exp(phased, out=phased)
        phased *= amps
        # each point dots its real magnitudes with both planes: no complex copy of them
        planes = np.stack((phased.real, phased.imag), axis=-2)
        del phased  # the complex table goes before the einsum's output comes
        overlap += np.einsum("...l,...kl->...k", mag, planes)
    q = overlap[..., 0] ** 2 + overlap[..., 1] ** 2
    return q if shape else float(q[0])
