import cmath
import decimal
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from dicke_oracle import dense_dot, dense_spin_matrices, expectation
from twistlab import spin_core as sc
from twistlab.closed_form import NORM_ATOL, Direction, X_AXIS, Y_AXIS, Z_AXIS
from twistlab.numerics import StateNormError, along, centred_moments
from twistlab.spin_core import (ELL_BLOCK, coherent_state, ghz_state, husimi_q, oat_evolve,
                                rotate, variance)

EPS = np.finfo(float).eps


def stereographic(direction):
    """Projection from the south pole: zeta = tan(xi/2) e^{i theta}; inf at the pole."""
    if direction.nz <= -1.0 + 1e-15:
        return complex(math.inf, 0.0)
    theta = direction.theta  # e^{i theta} with the bits of cmath.exp
    return math.tan(direction.xi / 2) * complex(math.cos(theta), math.sin(theta))


def overlap_mod(a, b):
    return abs(np.vdot(a.amplitudes, b.amplitudes))


class TestDirection:
    def test_round_trip_angles(self):
        for xi in (0.3, 1.2, 2.8):
            for theta in (-2.5, 0.0, 0.4, 3.0):
                d = Direction.from_angles(xi, theta)
                assert abs(d.xi - xi) < 1e-12
                assert abs(d.theta - theta) < 1e-12

    @pytest.mark.parametrize("xi", [1e-9, 1e-12, 1e-300, 1e-5])
    def test_round_trip_near_the_poles(self, xi):
        # acos(n_z) read 0 below xi ~ 1e-8, where cos xi rounds to 1
        for theta in (-2.5, 0.5):
            assert Direction.from_angles(xi, theta).xi == pytest.approx(xi, rel=1e-12, abs=0)
            south = Direction.from_angles(math.pi - xi, theta)
            assert math.pi - south.xi == pytest.approx(xi, rel=1e-6, abs=2 * EPS)

    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            Direction(1.0, 1.0, 0.0)
        d = Direction.from_vector(1.0, 1.0, 0.0)
        assert abs(np.linalg.norm(d.as_array()) - 1.0) < 1e-12
        with pytest.raises(ValueError, match="zero vector"):
            Direction.from_vector(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("components", [(math.nan, 0.0, 0.0), (0.0, math.nan, 1.0),
                                            (math.inf, 0.0, 0.0)])
    def test_non_finite_components_rejected(self, components):
        # |norm - 1| > atol is false for a nan norm
        with pytest.raises(ValueError, match="unit length"):
            Direction(*components)

    @pytest.mark.parametrize("angles", [(math.nan, 0.0), (0.3, math.nan)])
    def test_non_finite_angles_rejected(self, angles):
        with pytest.raises(ValueError, match="unit length"):
            Direction.from_angles(*angles)

    def test_stereographic(self):
        assert stereographic(Direction.from_angles(math.pi / 2, 0.0)) == pytest.approx(1.0)
        assert stereographic(Direction(0.0, 0.0, 1.0)) == 0.0
        assert math.isinf(abs(stereographic(Direction(0.0, 0.0, -1.0))))

    def test_stereographic_phase_has_the_bits_of_cmath_exp(self):
        # cos + i sin in place of cmath.exp(i theta): the same bits, since exp(+-0) = 1
        for xi, theta in itertools.product((1e-9, 0.4, 2.0, math.pi - 1e-6),
                                           (-math.pi, -2.9, -1e-300, 0.0, 0.7, 3.1)):
            d = Direction.from_angles(xi, theta)
            assert stereographic(d) == math.tan(d.xi / 2) * cmath.exp(1j * d.theta)

    def test_equal_by_value_read_only_and_checked(self):
        d = Direction(0.6, 0.0, 0.8)
        assert d == Direction(nx=0.6, ny=0.0, nz=0.8) and len({d, Direction(0.6, 0.0, 0.8)}) == 1
        assert d != Direction(0.8, 0.0, 0.6) and pickle.loads(pickle.dumps(d)) == d
        with pytest.raises(AttributeError):
            d.nx = 1.0
        with pytest.raises(AttributeError):
            d.extra = 1.0
        with pytest.raises(ValueError, match="unit length"):
            d._replace(nz=0.0)


class TestCoherentState:
    def test_north_pole(self):
        s = coherent_state(2, 0.0)
        assert np.allclose(s.amplitudes, [1.0, 0.0, 0.0], atol=1e-15)

    def test_single_qubit_plus(self):
        s = coherent_state(1, 1.0)
        assert np.allclose(s.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-14)

    def test_binomial_n4(self):
        s = coherent_state(4, 1.0)
        expected = [0.25, 0.5, math.sqrt(6) / 4, 0.5, 0.25]
        assert np.allclose(s.amplitudes, expected, atol=1e-14)

    def test_south_pole_infinity(self):
        s = coherent_state(3, math.inf)
        assert s.amplitudes[-1] == 1.0

    def test_extreme_zeta_and_large_n(self):
        for zeta in (1e12, 1e-12, 1e12j):
            s = coherent_state(300, zeta)
            assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.02])
    def test_binomial_amplitudes_match_exact_integers(self, p):
        # p + q = 1 exactly, so the exact values are the kernel's target
        q = 1.0 - p
        p = 1.0 - q
        P, Q = decimal.Decimal(p), decimal.Decimal(q)
        for n in (1, 2, 3, 10, 11, 1000):
            with decimal.localcontext() as ctx:
                ctx.prec = 60
                exact = np.array([float((math.comb(n, ell) * P**ell * Q ** (n - ell)).sqrt())
                                  for ell in range(n + 1)])
            got = sc._binomial_amplitudes(n, p, q)
            normal = exact > 1e-300
            # 1e-13 relative, plus the few ulp of log(a) that exp(log a) carries in
            # the far tails (2.1e-13 relative at a ~ 1e-290)
            rel = np.abs(got[normal] / exact[normal] - 1.0)
            assert np.all(rel <= 1e-13 + 4 * EPS * np.abs(np.log(exact[normal]))), n
            assert np.all(got[~normal] < 1e-299), n

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 1000])
    def test_binomial_amplitudes_ranges_are_slices(self, n):
        # each range entry carries the bits of the full call: blocks at both poles,
        # across the 16-entry Stirling table's edge and its mirror n - ell = 15, 16
        p = np.array([0.0, 1e-300, 0.02, 0.3, 0.5, 0.9, 1.0])[:, None]
        full = sc._binomial_amplitudes(n, p, 1.0 - p)
        cuts = {0, 1, 14, 15, 16, 17, 40, n - 17, n - 16, n - 15, n - 1, n, n + 1}
        edges = sorted(c for c in cuts if 0 <= c <= n + 1)
        for lo, hi in itertools.combinations(edges, 2):
            got = sc._binomial_amplitudes(n, p, 1.0 - p, lo, hi)
            assert got.shape == (7, 1, hi - lo)
            assert np.array_equal(got, full[..., lo:hi]), (lo, hi)

    def test_binomial_amplitudes_broadcast_over_p(self):
        p = np.array([[0.0, 0.25], [0.5, 1.0]])
        got = sc._binomial_amplitudes(3, p, 1.0 - p)
        assert got.shape == (2, 2, 4)
        assert np.array_equal(got[0, 0], [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(got[1, 1], [0.0, 0.0, 0.0, 1.0])
        assert got[0, 1] == pytest.approx(sc._binomial_amplitudes(3, 0.25, 0.75), rel=1e-15)

    @pytest.mark.parametrize("n", [300_000, 1_000_000])
    def test_norm_at_large_n(self, n):
        # logs of the exact binomials put it off by 1.9e-12 at 3e5 and 1.6e-11 at 1e6
        s = coherent_state(n, 1.0)
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 1e-15

    def test_amplitude_next_to_a_pole(self):
        # |zeta| = 1e12: q = 1e-24 is passed apart from p, so it keeps its digits
        s = coherent_state(300, 1e12)
        assert s.amplitudes[-2] == pytest.approx(math.sqrt(300) * 1e-12, rel=1e-13, abs=0)

    @pytest.mark.parametrize("zeta", [complex(np.exp(0.123j)), 0.3 + 0.7j], ids=["unit", "generic"])
    @pytest.mark.parametrize("n", [100_000, 1_000_000])
    def test_norm_off_the_axes(self, n, zeta):
        # the phases (zeta/r)^ell once drifted off unit modulus: 2.2e-12 at 1e5 for e^0.123i
        s = coherent_state(n, zeta)
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 1e-15

    def test_phases_on_the_imaginary_axis_are_exact(self):
        # amplitudes[-1] was 1 - 2.5e-14i
        amps = coherent_state(300, 1e12j).amplitudes
        powers_of_i = np.array([1, 1j, -1, -1j])[np.arange(301) % 4]
        assert amps[-1] == 1.0
        assert np.array_equal(amps, np.abs(amps) * powers_of_i)

    def test_negative_real_zeta_has_real_amplitudes(self):
        amps = coherent_state(300, -1.0).amplitudes
        assert np.all(amps.imag == 0.0)
        assert np.array_equal(np.sign(amps.real), (-1.0) ** np.arange(301))

    def test_norm_holds_where_log_gamma_differences_broke_it(self):
        for n in (1410, 1609, 1651, 4000):
            s = coherent_state(n, 1.0)
            assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= NORM_ATOL

    def test_invalid_state_rejected(self):
        with pytest.raises(StateNormError):
            sc.CollectiveState(2, np.array([1.0, 1.0, 0.0]))
        with pytest.raises(ValueError):
            sc.CollectiveState(2, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="at least one particle"):
            sc.CollectiveState(0, np.array([1.0]))



def stack_matrices(n):
    """The (Jx, Jy, Jz) matrices that sc._spin_apply applies, column by column."""
    return sc._spin_apply(np.eye(n + 1, dtype=complex)).transpose(0, 2, 1)


class TestOperators:
    def test_jz_diagonal(self):
        jz = stack_matrices(2)[2]
        assert np.allclose(jz, np.diag([1.0, 0.0, -1.0]))

    def test_jplus_ladder(self):
        jx, jy, _ = stack_matrices(2)
        jp = jx + 1j * jy
        nz = jp[np.abs(jp) > 1e-15]
        assert np.allclose(nz, math.sqrt(2))

    def test_parity_is_all_spin_flip(self):
        # X^{xN} is the reversal ell -> N - ell: it takes |N,0> to |0,N>, zeta to
        # 1/zeta, and exp(-i pi Jx) = (-i)^N X^{xN}
        p = coherent_state(3, 0.0).amplitudes[::-1]
        assert np.allclose(p, np.eye(4)[3])
        zeta = 0.4 - 0.7j
        flipped = coherent_state(5, zeta).amplitudes[::-1]
        assert abs(abs(np.vdot(coherent_state(5, 1 / zeta).amplitudes, flipped)) - 1.0) < 1e-12
        s = coherent_state(5, zeta)
        assert np.max(np.abs(rotate(s, X_AXIS, math.pi).amplitudes
                             - (-1j) ** 5 * s.amplitudes[::-1])) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 30])
    def test_su2_algebra(self, n):
        jx, jy, jz, jp, jm = dense_spin_matrices(n)
        assert np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) < 1e-12
        assert np.max(np.abs(jp - (jx + 1j * jy))) < 1e-12
        assert np.max(np.abs(jm - (jx - 1j * jy))) < 1e-12
        j = n / 2.0
        casimir = jx @ jx + jy @ jy + jz @ jz
        assert np.max(np.abs(casimir - j * (j + 1) * np.eye(n + 1))) < 1e-12

    @pytest.mark.parametrize("n", [2, 5, 12, 30])
    def test_parity_properties(self, n):
        # P = reversal: P^2 = I and [P, Jx] = 0
        rng = np.random.default_rng(n)
        v = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        jx = dense_spin_matrices(n)[0]
        assert np.max(np.abs(v[::-1][::-1] - v)) < 1e-12
        assert np.max(np.abs((jx @ v)[::-1] - jx @ v[::-1])) < 1e-12

    def test_apply_matches_assembled_matrix(self):
        # the stack against the oracle's matrices, on a batch of rows and on one row
        rng = np.random.default_rng(5)
        n = 9
        batch = rng.normal(size=(4, n + 1)) + 1j * rng.normal(size=(4, n + 1))
        dense = np.stack(dense_spin_matrices(n)[:3])
        got = sc._spin_apply(batch)
        assert got.shape == (3, 4, n + 1)
        assert np.max(np.abs(got - np.einsum("aij,rj->ari", dense, batch))) < 1e-13
        d = Direction.from_angles(0.9, -2.1)
        v = batch[1]
        assert np.max(np.abs(d.as_array() @ sc._spin_apply(v) - dense_dot(n, d) @ v)) < 1e-13


class TestRotate:
    def test_zero_angle_identity(self):
        s = coherent_state(6, 0.7 + 0.2j)
        r = rotate(s, Direction.from_angles(1.0, 2.0), 0.0)
        assert np.max(np.abs(r.amplitudes - s.amplitudes)) < 1e-14

    def test_z_rotation_shifts_azimuth(self):
        for n, phi in ((5, 0.7), (12, -1.3)):
            rotated = rotate(coherent_state(n, 1.0), Z_AXIS, phi)
            target = coherent_state(n, np.exp(1j * phi))
            assert abs(overlap_mod(rotated, target) - 1.0) < 1e-12

    def test_x_pi_on_x_polarized(self):
        s = coherent_state(4, 1.0)
        r = rotate(s, X_AXIS, math.pi)
        assert abs(overlap_mod(r, s) - 1.0) < 1e-12

    def test_additivity(self):
        s = coherent_state(9, 0.3 - 1.1j)
        d = Direction.from_angles(0.9, -2.1)
        once = rotate(s, d, 0.8 + 0.5)
        twice = rotate(rotate(s, d, 0.8), d, 0.5)
        assert np.max(np.abs(once.amplitudes - twice.amplitudes)) < 1e-11

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(2, 40))
            amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            s = sc.CollectiveState(n, amps / np.linalg.norm(amps))
            d = Direction.from_angles(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
            r = rotate(s, d, rng.uniform(-3, 3))
            assert abs(np.linalg.norm(r.amplitudes) - 1.0) < 1e-12


class TestChebyshevRotation:
    DIRECTIONS = (X_AXIS, Y_AXIS, Z_AXIS, Direction.from_angles(0.9, -2.1),
                  Direction.from_angles(2.4, 0.7))

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 300])
    def test_matches_expm_of_the_assembled_matrix(self, n):
        rng = np.random.default_rng(n)
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        s = sc.CollectiveState(n, amps / np.linalg.norm(amps))
        for d in self.DIRECTIONS:
            w, v = np.linalg.eigh(dense_dot(n, d))
            for phi in (1e-3, 0.05, math.pi / 2, math.pi, -2.3):
                expm = v @ (np.exp(-1j * phi * w) * (v.conj().T @ s.amplitudes))
                assert np.max(np.abs(rotate(s, d, phi).amplitudes - expm)) < 1e-13

    def test_bessel_reference_values(self):
        assert sc._bessel_j(1.0)[:2] == pytest.approx([0.7651976865579666, 0.4400505857449335],
                                                      rel=0, abs=1e-15)
        assert sc._bessel_j(100.0)[0] == pytest.approx(0.019985850304223122, rel=0, abs=1e-15)
        assert np.array_equal(sc._bessel_j(0.0), [1.0])

    @pytest.mark.parametrize("z", [1e-6, 0.5, 31.4, 2500.0])
    def test_bessel_series_stops_past_its_argument(self, z):
        j = sc._bessel_j(z)
        assert j.size - 1 > z
        assert abs(j[-1]) < sc.BESSEL_CUTOFF
        assert np.all(np.abs(j[:-1][np.arange(j.size - 1) > z]) >= sc.BESSEL_CUTOFF)

    # one recurrence factor 2k/z, or its product down from the top order, once overflowed
    # here: inf, then NaN, then an IndexError
    TINY = (1e-20, 1e-139, 2e-148, 1e-300, 5e-324)

    @pytest.mark.parametrize("z", TINY)
    def test_bessel_at_tiny_arguments_is_its_taylor_terms(self, z):
        j = sc._bessel_j(z)
        assert j.size == 2 and j[0] == 1.0
        assert j[1] == pytest.approx(z / 2, rel=EPS, abs=5e-324)

    @pytest.mark.parametrize("angle", TINY)
    def test_tiny_angle_returns_the_state(self, angle):
        s = coherent_state(20, 1.0)
        assert np.max(np.abs(rotate(s, Y_AXIS, angle).amplitudes - s.amplitudes)) <= 1e-15

    def test_huge_angle_is_reduced_mod_4pi(self):
        # unreduced, the series would need about |angle| N / 2 terms, a count 1e308 overflows
        s = coherent_state(7, 0.3 - 1.1j)
        d = Direction.from_angles(0.9, -2.1)
        reduced = math.remainder(1e308, 4.0 * math.pi)
        assert np.array_equal(rotate(s, d, 1e308).amplitudes, rotate(s, d, reduced).amplitudes)

    @pytest.mark.parametrize("n", [7, 8, 301])
    def test_period_is_4pi_and_2pi_gives_the_parity(self, n):
        # exp(-2 pi i n.J) = (-1)^N, so a 2 pi reduction would flip odd-N states
        rng = np.random.default_rng(n)
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        s = sc.CollectiveState(n, amps / np.linalg.norm(amps))
        d = Direction.from_angles(0.9, -2.1)
        phi = 1.3
        base = rotate(s, d, phi).amplitudes
        for k in (1, 3, -2):
            shifted = rotate(s, d, phi + 4.0 * math.pi * k).amplitudes
            assert np.max(np.abs(shifted - base)) < 1e-12
        half_turn = rotate(s, d, phi + 2.0 * math.pi).amplitudes
        assert np.max(np.abs(half_turn - (-1) ** n * base)) < 1e-12

    def test_norm_at_large_n(self):
        s = coherent_state(10000, 0.3 + 0.8j)
        r = rotate(s, Direction.from_angles(1.2, 0.4), math.pi / 2)
        assert abs(np.linalg.norm(r.amplitudes) - 1.0) < 1e-12

    def test_working_memory_is_a_fixed_number_of_states(self):
        # two Chebyshev terms, the next one, the running sum, the phases and X's two
        # diagonals; a block of 32 terms summed by one matrix product traced 40-44 states here
        n = 100_000
        s = coherent_state(n, 1.0)
        tracemalloc.start()
        try:
            rotate(s, Direction.from_angles(1.1, 0.4), 1e-3)  # 94 terms
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 16 * (n + 1)

    def test_working_set_is_at_most_ten_states(self):
        # a ring of three real-and-imaginary rows and two parity sums traced 14.5 states
        n = 100_000
        s = coherent_state(n, 1.0)
        tracemalloc.start()
        try:
            rotate(s, Direction.from_angles(1.1, 0.4), 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 16 * (n + 1)

    @pytest.mark.parametrize("alpha", [0.3, -1.1])
    @pytest.mark.parametrize("n", [7, 1000, 10_000])
    def test_y_rotation_turns_a_coherent_state_amplitude_by_amplitude(self, n, alpha):
        # exp(-i alpha J_y) takes xi = pi/2 to pi/2 + alpha at theta = 0; -alpha is 0.09 or
        # more off, so this pins the sign convention
        r = rotate(coherent_state(n, 1.0), Y_AXIS, alpha)
        target = coherent_state(n, math.tan((math.pi / 2 + alpha) / 2))
        assert np.max(np.abs(r.amplitudes - target.amplitudes)) < 1e-12


class TestOatEvolve:
    def test_zero_time_identity(self):
        s = coherent_state(7, 1.0)
        assert np.array_equal(oat_evolve(s, 0.0).amplitudes, s.amplitudes)

    def test_yurke_stoler_cat(self):
        s = oat_evolve(coherent_state(4, 1.0), math.pi / 2)
        # equal-weight superposition of the two antipodal equatorial coherent states
        for zeta in (1.0, -1.0):
            w = abs(np.vdot(coherent_state(4, zeta).amplitudes, s.amplitudes)) ** 2
            assert abs(w - 0.5) < 1e-12
        expected = np.array([0.25, -0.5j, math.sqrt(6) / 4, -0.5j, 0.25])
        assert np.max(np.abs(s.amplitudes - expected)) < 1e-14

    def test_untwist_inverts_twist(self):
        s = coherent_state(11, 0.4 + 0.9j)
        round_trip = oat_evolve(oat_evolve(s, 0.37), -0.37)
        assert np.max(np.abs(round_trip.amplitudes - s.amplitudes)) < 1e-14


class TestMoments:
    def test_x_polarized_is_jx_eigenstate(self):
        for n in (2, 7, 20):
            s = coherent_state(n, 1.0)
            assert abs(expectation(s, X_AXIS) - n / 2) < 1e-12
            assert variance(s, X_AXIS) < 1e-12

    def test_centred_variance_of_an_eigenstate(self):
        # <Jx^2> - <Jx>^2 would cancel 2.5e5-sized terms here
        assert variance(coherent_state(1000, 1.0), X_AXIS) <= 1e-18

    def test_binomial_jz_variance(self):
        for n in (2, 9, 33):
            s = coherent_state(n, 1.0)
            assert abs(variance(s, Z_AXIS) - n / 4) < 1e-10

    @pytest.mark.parametrize("n", [1, 6, 25])
    def test_moments_match_the_dense_oracle(self, n):
        rng = np.random.default_rng(n)
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        s = sc.CollectiveState(n, amps / np.linalg.norm(amps))
        psi = s.amplitudes
        for d in (X_AXIS, Y_AXIS, Z_AXIS, Direction.from_angles(2.2, 0.4)):
            op = dense_dot(n, d)
            mean = np.vdot(psi, op @ psi).real
            assert expectation(s, d) == pytest.approx(mean, abs=1e-12)
            assert variance(s, d) == pytest.approx(np.vdot(psi, op @ op @ psi).real - mean**2,
                                                   abs=1e-11)

    @pytest.mark.parametrize("n", [10, 1000, 100_000])
    def test_one_direction_matches_the_stack(self, n):
        # n.J in one buffer against the weighted (Jx, Jy, Jz) stack it replaced; the mean's
        # scale is floored at N/2 and the variance's at N/4, the unentangled probe's, as
        # qfi's rel_diff floors it: a zero such as <J_y> rounds differently on each path
        directions = (X_AXIS, Y_AXIS, Z_AXIS, Direction.from_angles(2.2, 0.4),
                      Direction.from_angles(0.3, -2.9), Direction.from_angles(1.9, 1.3))
        for t in (0.0, n ** -0.5, 0.3):
            s = oat_evolve(coherent_state(n, 1.0), t)
            for d in directions:
                stack = along(d.as_array(), sc._spin_apply(s.amplitudes))
                mean, var = centred_moments(s.amplitudes, stack)
                assert abs(expectation(s, d) - mean) <= 1e-13 * max(abs(mean), n / 2)
                assert abs(variance(s, d) - var) <= 1e-13 * max(var, n / 4)

    def test_one_direction_holds_few_states(self):
        # the (Jx, Jy, Jz) stack and its weighted sum traced 8.5 states here
        n = 100_000
        s = oat_evolve(coherent_state(n, 1.0), 0.01)
        tracemalloc.start()
        try:
            variance(s, Direction.from_angles(1.1, 0.4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.25 * 16 * (n + 1)

    def test_ghz_parity_signal(self):
        n = 6
        for phi in (0.13, 0.7, 1.9):
            state = rotate(ghz_state(n), Z_AXIS, phi)
            val = np.vdot(state.amplitudes, state.amplitudes[::-1]).real  # <X^{xN}>
            assert abs(val - math.cos(n * phi)) < 1e-12


class TestHusimi:
    def test_self_overlap_is_one(self):
        s = coherent_state(8, 1.0)
        assert husimi_q(s, math.pi / 2, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_antipode_vanishes(self):
        s = coherent_state(8, 1.0)
        assert husimi_q(s, math.pi / 2, math.pi) < 1e-12

    def test_resolution_of_identity(self):
        # midpoint quadrature of (N+1)/(4 pi) * Q over the sphere
        n = 5
        state = oat_evolve(coherent_state(n, 1.0), 0.4)
        nx, nt = 240, 480
        xi = (np.arange(nx) + 0.5) * math.pi / nx
        th = -math.pi + (np.arange(nt) + 0.5) * 2 * math.pi / nt
        q = husimi_q(state, xi[:, None], th[None, :])
        integral = np.sum(q * np.sin(xi)[:, None]) * (math.pi / nx) * (2 * math.pi / nt)
        assert abs(integral * (n + 1) / (4 * math.pi) - 1.0) < 1e-3

    def test_values_in_unit_interval(self):
        s = oat_evolve(coherent_state(12, 1.0), 1.1)
        q = husimi_q(s, np.linspace(0, math.pi, 40)[:, None],
                     np.linspace(-math.pi, math.pi, 40)[None, :])
        assert np.all(q >= 0.0) and np.all(q <= 1.0 + 1e-12)

    @pytest.mark.parametrize("t", [0.1, 1.3])
    def test_matches_coherent_state_overlap(self, t):
        n = 1000
        state = oat_evolve(coherent_state(n, 1.0), t)
        xi = np.linspace(0.0, math.pi, 13)  # both poles included
        theta = np.linspace(-math.pi, math.pi, 17)
        q = husimi_q(state, xi[:, None], theta[None, :])
        expected = np.array([[abs(np.vdot(coherent_state(
            n, stereographic(Direction.from_angles(x, th))).amplitudes,
            state.amplitudes)) ** 2 for th in theta] for x in xi])
        assert np.max(np.abs(q - expected)) <= 1e-13

    def test_broadcasting_contract(self):
        state = oat_evolve(coherent_state(10, 1.0), 0.4)
        assert isinstance(husimi_q(state, 0.7, 0.2), float)
        xi, theta = np.linspace(0.1, 3.0, 5), np.linspace(-3.0, 3.0, 5)
        paired = husimi_q(state, xi, theta)
        assert paired.shape == (5,)
        assert paired[2] == pytest.approx(husimi_q(state, xi[2], theta[2]), abs=1e-15)
        theta7 = np.linspace(-3.0, 3.0, 7)
        grid = husimi_q(state, xi[:, None], theta7[None, :])
        assert grid.shape == (5, 7)
        assert grid[3, 4] == pytest.approx(husimi_q(state, xi[3], theta7[4]), abs=1e-15)

    def test_grid_memory_is_linear_in_points(self):
        # one (n_xi, n_theta, N+1) complex array would take 118 MB here
        state = oat_evolve(coherent_state(1000, 1.0), 0.1)
        xi = np.linspace(0.0, math.pi, 61)
        theta = np.linspace(-math.pi, math.pi, 121)
        tracemalloc.start()
        try:
            husimi_q(state, xi[:, None], theta[None, :])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    def test_magnitudes_are_not_cast_to_complex(self):
        # the 1.94 MB phase table and 0.49 MB of magnitudes; a complex copy of the
        # magnitudes took the traced peak to 3.5 MB
        state = oat_evolve(coherent_state(1000, 1.0), 0.1)
        xi = np.linspace(0.0, math.pi, 61)
        theta = np.linspace(-math.pi, math.pi, 121)
        tracemalloc.start()
        try:
            husimi_q(state, xi[:, None], theta[None, :])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0e6

    def test_working_memory_is_bounded(self):
        # one ell block's magnitudes and phase planes plus the grid's overlap; the
        # whole grid's magnitudes and phase table took the traced peak to 2.73 MB
        state = oat_evolve(coherent_state(1000, 1.0), 0.1)
        xi = np.linspace(0.0, math.pi, 61)
        theta = np.linspace(-math.pi, math.pi, 121)
        tracemalloc.start()
        try:
            husimi_q(state, xi[:, None], theta[None, :])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0e6

    def test_working_memory_is_independent_of_n(self):
        # the whole grid's magnitudes held 113.7 MB here; now one ell block's
        state = oat_evolve(coherent_state(100_000, 1.0), 0.01)
        xi = np.linspace(0.0, math.pi, 61)
        theta = np.linspace(-math.pi, math.pi, 121)
        tracemalloc.start()
        try:
            husimi_q(state, xi[:, None], theta[None, :])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6

    def test_blocks_compute_every_point_alike(self):
        # ell spans several blocks, the last one short; each point equals its own
        # single-point call
        state = oat_evolve(coherent_state(3 * ELL_BLOCK + 5, 1.0), 0.1)
        xi = np.linspace(0.0, math.pi, 13)
        theta = np.linspace(-math.pi, math.pi, 17)
        grid = husimi_q(state, xi[:, None], theta[None, :])
        points = [[husimi_q(state, x, th) for th in theta] for x in xi]
        assert np.array_equal(grid, points)
        assert np.array_equal(husimi_q(state, xi[None, :], theta[:, None]), grid.T)
