import copy
import math
import pickle
import tracemalloc
from functools import partial

import numpy as np
import pytest

from dicke_oracle import asymptotic_predictor, expectation, rotate_state, variance
from ring_oracle import (dense_collective_spin, double_window_h_diag, fr_interpolation_forms,
                         long_range_terms, regime_covariance, ring_counts, short_range_terms)
from sphere_oracle import mom_limit, sphere_search
from twistlab import closed_form as cf
from twistlab import lattice_fr as lat
from twistlab.closed_form import (Direction, IndeterminateRatioError, X_AXIS, Y_AXIS, Z_AXIS,
                                  fr_max_qfi, fr_variance_analytic, ising_covariance)
from twistlab.lattice_fr import (build_system, fr_evolve, fr_optimal_protocol, fr_protocol_moments,
                                 lattice_moments, lattice_variance, plus_state)
from twistlab.dicke_sums import mom_reciprocal
from twistlab.numerics import StateNormError, centred_moments, mom_limit_matrices
from twistlab.optimizer import maximize_limit, maximize_slope_ratio
from twistlab.spin_core import CollectiveState, _binomial_amplitudes, coherent_state, oat_evolve

PI = math.pi


def h_diag(system):
    """h(b) over the basis, as float64: the level of each unlike count."""
    return system._levels()[system.unlike]


def lattice_rotate(state, direction, angle):
    """Product rotation exp(-i angle n.sigma/2) of a copy of state, site by site."""
    return lat.LatticeState(state.n_sites, lat._site_rotate(state.amplitudes.copy(), direction,
                                                            angle))


def dicke_to_lattice(state):
    """A symmetric Dicke-basis state embedded into the full statevector of N sites."""
    m = state.n_particles
    weights = 2.0 ** (-m / 2.0) / _binomial_amplitudes(m, 0.5, 0.5)  # 1/sqrt(C(m, k))
    return lat.LatticeState(m, (state.amplitudes * weights)[lat._popcounts(m)])


def fr_protocol_state(system, t, phi, rotation):
    """exp(+i t H_K) exp(-i phi n.J) exp(-i t H_K)|+>^{(N+2)}, from lattice_fr._sensed."""
    chi, untwist = lat._sensed(system, t, phi, rotation)
    return lat.LatticeState(system.n_sites, chi * untwist)


def _pointwise(f):
    """The vectorized objective, (k, 3) unit vectors -> k values, of f(Direction)."""
    return lambda units: np.array([f(Direction(*u)) for u in units])


def brute_variance(n, k, t, xi, theta):
    system = build_system(n, k)
    state = fr_evolve(plus_state(system.n_sites), system, t)
    return lattice_variance(state, Direction.from_angles(xi, theta))


class TestBuildSystem:
    def test_hand_counts_four_sites(self):
        system = build_system(2, 1)
        assert system.n_sites == 4
        assert h_diag(system)[0] == pytest.approx(2.0)       # 0000
        assert h_diag(system)[0b0101] == pytest.approx(-2.0)  # Neel string

    def test_global_flip_symmetry(self):
        system = build_system(4, 2)
        dim = 2**system.n_sites
        flipped = (dim - 1) ^ np.arange(dim)
        assert np.array_equal(h_diag(system), h_diag(system)[flipped])

    def test_translation_symmetry(self):
        system = build_system(4, 1)
        m = system.n_sites
        idx = np.arange(2**m)
        rotated = ((idx << 1) & (2**m - 1)) | (idx >> (m - 1))
        assert np.allclose(h_diag(system), h_diag(system)[rotated])

    @pytest.mark.parametrize("m", [4, 6, 8, 10, 12, 14])
    def test_matches_double_window_oracle(self, m):
        n = m - 2
        for k in range(1, n // 2 + 1) if m <= 12 else (1, n // 2):
            assert np.array_equal(h_diag(build_system(n, k)), double_window_h_diag(m, k))

    @pytest.mark.parametrize("m", [4, 6, 8, 10, 12, 14])
    def test_phases_gather_equals_direct_exp(self, m):
        n = m - 2
        for k in range(1, n // 2 + 1):
            system = build_system(n, k)
            for t in (0.0, 1e-6, 0.37, PI / 2, 2.9):
                for signed in (t, -t):
                    assert np.array_equal(system.phases(signed),
                                          np.exp(-1j * signed * h_diag(system)))

    def test_unlike_count_is_small_and_read_only(self):
        system = build_system(12, 6)
        assert system.unlike.dtype == np.uint8
        assert not system.unlike.flags.writeable
        for n in range(2, 13, 2):  # summed in its final dtype at every legal size
            for k in range(1, n // 2 + 1):
                assert build_system(n, k).unlike.dtype == np.min_scalar_type(k * (n + 2))

    def test_popcount_matches_int_bit_count(self):
        pop = lat._popcounts(16)
        assert pop.dtype == np.uint8
        assert np.array_equal(pop, [b.bit_count() for b in range(2**16)])

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_system(3, 1)
        with pytest.raises(ValueError):
            build_system(4, 3)
        with pytest.raises(ValueError):
            build_system(4, 0)

    def test_state_checks(self):
        with pytest.raises(StateNormError):
            lat.LatticeState(2, np.array([1.0, 1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            lat.LatticeState(2, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("make", [lambda a: lat.LatticeState(2, a),
                                      lambda a: CollectiveState(3, a)],
                             ids=["lattice", "dicke"])
    def test_both_state_classes_check_alike(self, make):
        with pytest.raises(ValueError, match=r"^expected 4 amplitudes, got shape \(2,\)$"):
            make(np.array([1.0, 0.0]))
        with pytest.raises(StateNormError, match="^state norm deviates from 1 by 4.142e-01$"):
            make(np.array([1.0, 1.0, 0.0, 0.0]))
        with pytest.raises(StateNormError, match="^state norm deviates from 1 by nan$"):
            make(np.array([np.nan, 0.0, 0.0, 0.0]))
        source = np.array([0, 1, 0, 0])
        state = make(source)
        source[1] = 0
        assert state.amplitudes.dtype == complex and not state.amplitudes.flags.writeable
        assert state.amplitudes[1] == 1.0

    @pytest.mark.parametrize("make", [lambda: lat.plus_state(2), lambda: build_system(4, 1),
                                      lambda: CollectiveState(3, np.full(4, 0.5))],
                             ids=["lattice", "system", "dicke"])
    def test_array_holders_are_read_only_and_equal_only_to_themselves(self, make):
        held = make()
        for name in held.__slots__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(held, name, None)
            with pytest.raises(AttributeError):
                delattr(held, name)
        twin = copy.copy(held)  # rebuilt through the constructor, on the same arrays
        assert held == held and twin != held and len({held, twin}) == 2
        assert all(getattr(twin, f) is getattr(held, f) for f in held.__slots__)
        assert type(pickle.loads(pickle.dumps(held))) is type(held)

    @pytest.mark.parametrize("make", [lambda a: lat.LatticeState(2, a),
                                      lambda a: CollectiveState(3, a)],
                             ids=["lattice", "dicke"])
    def test_both_state_classes_keep_a_complex_array(self, make):
        # a contiguous complex array is the state's own, read-only from then on;
        # anything else is copied and the source is left as it was
        source = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
        assert make(source).amplitudes is source
        assert not source.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            source[1] = 0.0
        strided = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0], dtype=complex)[::2]
        assert make(strided).amplitudes.flags.c_contiguous and strided.flags.writeable


class TestEvolveAndRotate:
    def test_zero_time_identity(self):
        system = build_system(4, 1)
        s = plus_state(6)
        assert np.array_equal(fr_evolve(s, system, 0.0).amplitudes, s.amplitudes)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sizes differ"):
            fr_evolve(plus_state(8), build_system(4, 1), 0.3)

    def test_untwist_inverts_twist(self):
        system = build_system(4, 2)
        s = plus_state(6)
        rt = fr_evolve(fr_evolve(s, system, 0.83), system, -0.83)
        assert np.max(np.abs(rt.amplitudes - s.amplitudes)) < 1e-14

    def test_basis_state_gets_unit_modulus_phase(self):
        system = build_system(2, 1)
        amps = np.zeros(16, dtype=complex)
        amps[0] = 1.0
        evolved = fr_evolve(lat.LatticeState(4, amps), system, 0.7)
        assert abs(abs(evolved.amplitudes[0]) - 1.0) < 1e-14

    def test_rotate_zero_angle(self):
        s = plus_state(4)
        r = lattice_rotate(s, Direction.from_angles(1.0, 0.3), 0.0)
        assert np.max(np.abs(r.amplitudes - s.amplitudes)) < 1e-14

    def test_z_pi_flips_plus_to_minus(self):
        s = plus_state(4)
        r = lattice_rotate(s, Z_AXIS, PI)
        minus = np.ones(16, dtype=complex)
        signs = np.array([(-1) ** int(i).bit_count() for i in range(16)])
        minus = (minus * signs) / 4.0
        assert abs(abs(np.vdot(minus, r.amplitudes)) - 1.0) < 1e-12

    def test_agrees_with_dicke_rotation(self):
        n = 6
        state = oat_evolve(coherent_state(n, 1.0), 0.0)  # symmetric product state
        d = Direction.from_angles(0.8, -1.9)
        rotated_dicke = rotate_state(state, d, 0.53)
        rotated_ring = lattice_rotate(dicke_to_lattice(state), d, 0.53)
        for probe in (X_AXIS, Y_AXIS, Z_AXIS, d):
            ring_mean, ring_var = lattice_moments(rotated_ring, probe)
            assert ring_mean == pytest.approx(expectation(rotated_dicke, probe), abs=1e-10)
            assert ring_var == pytest.approx(variance(rotated_dicke, probe), abs=1e-10)


class TestLatticeMoments:
    def test_plus_state_moments(self):
        s = plus_state(6)
        assert lattice_moments(s, X_AXIS)[0] == pytest.approx(3.0, abs=1e-12)
        assert lattice_variance(s, X_AXIS) == pytest.approx(0.0, abs=1e-12)
        assert lattice_variance(s, Z_AXIS) == pytest.approx(6 / 4, abs=1e-12)

    @pytest.mark.parametrize("m", [8, 10, 12, 14])
    def test_variance_along_the_bloch_vector_vanishes(self, m):
        # a rotated |+>^M is a coherent state: its spin along <J> has no spread,
        # a true zero that <(n.J)^2> - <n.J>^2 would miss by rounding
        for axis in (Z_AXIS, Direction.from_angles(0.4, 1.0)):
            for angle in (0.3, -0.3, 1.9, -1.9):
                state = lattice_rotate(plus_state(m), axis, angle)
                bloch = [lattice_moments(state, a)[0] for a in (X_AXIS, Y_AXIS, Z_AXIS)]
                assert abs(lattice_variance(state, Direction.from_vector(*bloch))) <= 1e-20

    @pytest.mark.parametrize("m", [4, 6, 8, 10, 12, 14])
    def test_one_direction_matches_the_stack(self, m):
        # (n.J)psi in one buffer against the contracted (Jx, Jy, Jz) stack, kept here
        # as the oracle; named axes included, where c or n_z is zero
        rng = np.random.default_rng(m)
        amps = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
        state = lat.LatticeState(m, amps / np.linalg.norm(amps))
        stack = lat._spin_apply(state.amplitudes)
        for d in (X_AXIS, Y_AXIS, Z_AXIS, Direction.from_angles(1.234, 2.345),
                  Direction.from_angles(0.3, -0.8)):
            want = d.as_array() @ stack
            got = lat._direction_apply(state.amplitudes, d)
            assert np.max(np.abs(got - want)) <= 1e-13
            mean, var = lattice_moments(state, d)
            want_mean, want_var = centred_moments(state.amplitudes, want)
            assert mean == pytest.approx(want_mean, rel=1e-13, abs=1e-13)
            assert var == pytest.approx(want_var, rel=1e-13)

    @pytest.mark.parametrize("m", [10, 12, 14])
    def test_variance_holds_one_state_of_scratch(self, m):
        # (n.J)psi and its centred copy, and no (Jx, Jy, Jz) stack: 2.5 states traced
        # at M = 10 to 14, where the stack made 5
        state = fr_evolve(plus_state(m), build_system(m - 2, (m - 2) // 2), 0.7)
        tracemalloc.start()
        try:
            lattice_variance(state, Direction.from_angles(1.1, 0.4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 16 * 2**m

    def test_brute_row_holds_few_states(self):
        # the system is built first (popcount table, index and rotation arrays); the
        # fr-variance --brute row then holds psi, (n.J)psi and its centred copy
        from twistlab.cli import _fr_variance_row

        system, built = _traced_bytes(lambda: build_system(14, 7))
        assert built <= 1.8 * 16 * 2**16
        assert _traced_states(lambda: _fr_variance_row(14, 7, 0.7, 1.1, 0.4, system), 16) <= 3.2

    def test_matches_dense_operator(self):
        rng = np.random.default_rng(17)
        m = 6
        amps = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
        state = lat.LatticeState(m, amps / np.linalg.norm(amps))
        d = Direction.from_angles(1.234, 2.345)
        dense = sum(c * dense_collective_spin(m, a) for c, a in zip((d.nx, d.ny, d.nz), "xyz"))
        mean, var = lattice_moments(state, d)
        vec = state.amplitudes
        dense_mean = float(np.vdot(vec, dense @ vec).real)
        assert mean == pytest.approx(dense_mean, abs=1e-12)
        assert var == pytest.approx(float(np.vdot(vec, dense @ dense @ vec).real) - dense_mean**2,
                                    abs=1e-12)

    def test_zero_z_mean_after_twist(self):
        system = build_system(6, 2)
        state = fr_evolve(plus_state(8), system, 0.9)
        assert abs(lattice_moments(state, Z_AXIS)[0]) < 1e-14

    def test_translation_invariance_of_moments(self):
        system = build_system(4, 2)
        m = system.n_sites
        state = fr_evolve(plus_state(m), system, 0.7)
        state = lattice_rotate(state, Direction.from_angles(0.9, 0.4), 0.3)
        idx = np.arange(2**m)
        rolled = ((idx << 1) & (2**m - 1)) | (idx >> (m - 1))
        rolled_state = lat.LatticeState(m, state.amplitudes[np.argsort(rolled)])
        for d in (X_AXIS, Y_AXIS, Z_AXIS):
            assert lattice_moments(rolled_state, d)[0] == pytest.approx(
                lattice_moments(state, d)[0], abs=1e-12)


class TestSpinApply:
    @pytest.mark.parametrize("m", [1, 5, 8])
    def test_matches_dense_spin_matrices(self, m):
        rng = np.random.default_rng(m)
        batch = rng.normal(size=(4, 2**m)) + 1j * rng.normal(size=(4, 2**m))
        batch /= np.linalg.norm(batch, axis=1, keepdims=True)
        dense = np.stack([dense_collective_spin(m, a) for a in "xyz"])
        want = np.einsum("aij,rj->ari", dense, batch)
        got = lat._spin_apply(batch)
        assert got.shape == (3, 4, 2**m)
        assert np.max(np.abs(got - want)) <= 1e-14
        single = lat._spin_apply(batch[2])
        assert single.shape == (3, 2**m)
        assert np.max(np.abs(single - want[:, 2])) <= 1e-14

    @pytest.mark.parametrize("m", [10, 12, 14])
    def test_memory_is_linear_in_the_dimension(self, m):
        # a fixed number of 2^M vectors at every M, no (2^M, M) table
        tracemalloc.start()
        try:
            system = build_system(m - 2, (m - 2) // 2)
            state = fr_evolve(plus_state(m), system, 0.7)
            lattice_variance(state, Direction.from_angles(1.1, 0.4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 16 * 2**m


class TestAnalyticVariance:
    def test_zero_time_coherent_limit(self):
        for n, k in ((6, 2), (10, 5)):
            for xi, theta in ((0.7, 1.1), (PI / 2, 0.0), (0.2, -2.0)):
                expected = (n + 2) / 4 * (math.sin(xi) ** 2 * math.sin(theta) ** 2
                                          + math.cos(xi) ** 2)
                assert fr_variance_analytic(n, k, 0.0, xi, theta) == pytest.approx(
                    expected, abs=1e-12)

    @pytest.mark.parametrize("sites", [6, 8])
    def test_matches_brute_force(self, sites):
        rng = np.random.default_rng(sites)
        n = sites - 2
        for k in range(1, n // 2 + 1):
            for _ in range(6):
                t = float(rng.uniform(1e-3, PI / 2))
                xi = float(rng.uniform(0.1, PI - 0.1))
                theta = float(rng.uniform(-PI, PI))
                assert fr_variance_analytic(n, k, t, xi, theta) == pytest.approx(
                    brute_variance(n, k, t, xi, theta), rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("n, k", [(8, 2), (12, 3), (12, 6)])
    def test_xx_keeps_its_digits_at_small_t(self, n, k):
        # (jm_sq + jm_jp)/2 - jp_mean^2 cancelled M^2/4-sized terms: 8.9e-5 off at
        # (8, 2) and 6.0e-4 at (12, 6) for t = 1e-6
        system = build_system(n, k)
        for t in (1e-6, 1e-4, 1e-3, 0.1, 0.7, 1.2, PI / 2):
            brute = lattice_variance(fr_evolve(plus_state(n + 2), system, t), X_AXIS)
            xx = cf.fr_covariance_matrix(n, k, t)[0][0]
            assert xx == pytest.approx(brute, rel=1e-12, abs=0), t

    def test_tiny_time_against_brute_force(self):
        for k in (1, 3):
            for t in (1e-8, 1e-5, 1e-3):
                analytic = fr_variance_analytic(6, k, t, 0.9, 0.7)
                assert analytic == pytest.approx(brute_variance(6, k, t, 0.9, 0.7),
                                                 rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 20, 98, 998])
    def test_paper_regime_forms_hold_in_their_ranges(self, n):
        # the short-range form is exact for 4K < N + 2 and the long-range form for
        # 3K >= N; outside those they are off (3.2e-2 at (6, 2), 1.2e-2 at (98, 25)),
        # and below t = 1e-2 their Sigma_xx cancels as 1/t^2
        cases = [(k, short_range_terms) for k in range(1, n // 2 + 1) if 4 * k < n + 2]
        cases += [(k, long_range_terms) for k in range(1, n // 2 + 1) if 3 * k >= n]
        for k, terms in cases:
            for t in (0.01, 0.1, 0.3, 0.7, PI / 4, 1.0, 1.2, PI / 2):
                sigma = cf.fr_covariance_matrix(n, k, t)
                error = np.max(np.abs(regime_covariance(n, k, t, terms) - sigma))
                assert error <= 1e-9 * np.max(np.abs(sigma)), (k, t, terms.__name__)

    def test_quarter_pi_regular(self):
        # cos 2t vanishes at t = pi/4
        for k in (2, 4):
            v = fr_variance_analytic(10, k, PI / 4, 1.0, 0.5)
            assert math.isfinite(v)
            assert v == pytest.approx(brute_variance(10, k, PI / 4, 1.0, 0.5), rel=1e-11)

    def test_branch_validation(self):
        # "auto" is the one closed form; the benchmark check passes it by name
        for branch in ("smallk", "bigk", "mediumk"):
            with pytest.raises(ValueError, match="closed form is 'auto'"):
                fr_variance_analytic(6, 2, 0.3, 1.0, 0.0, branch)


class TestMaxQfiAndForms:
    @pytest.mark.parametrize("n,k,t", [(998, 499, 1e-6), (9998, 4999, 1e-7), (98, 25, 1.2),
                                       (40, 3, 1e-3), (60, 20, 2.0)])
    def test_yy_keeps_its_digits(self, n, k, t):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        one, both = ring_counts(n + 2, k)
        ct, c2t = mp.cos(mp.mpf(t)), mp.cos(2 * mp.mpf(t))
        exact = (n + 2) * (mp.mpf(1) / 4 + mp.fsum(
            ct ** int(o) * (1 - c2t ** int(b)) for o, b in zip(one, both)) / 8)
        # (jm_jp - jm_sq)/2 taken directly is 2.2e-11 off at (998, 499, 1e-6)
        assert abs(cf.fr_covariance_matrix(n, k, t)[1][1] - float(exact)) <= 1e-15 * float(exact)

    def test_doubled_sql_endpoint(self):
        res = fr_max_qfi(98, 49, PI / 2)
        assert res.value == pytest.approx(200.0, rel=1e-9)

    def test_short_time_sql(self):
        res = fr_max_qfi(10, 3, 1e-8)
        assert res.value == pytest.approx(12.0, rel=1e-6)

    @pytest.mark.parametrize("sites", [8, 10, 12])
    def test_no_heisenberg_limit_at_half_range(self, sites):
        n = sites - 2
        res = fr_max_qfi(n, n // 2, PI / 2)
        assert res.value < 3 * sites

    @pytest.mark.parametrize("n,k,t", [(8, 2, 0.4), (10, 5, 1.2), (98, 25, 0.6), (98, 49, 0.9),
                                       (998, 300, 0.05)])
    def test_exact_maximum_matches_sphere_search(self, n, k, t):
        exact = fr_max_qfi(n, k, t)
        search, _ = sphere_search(
            _pointwise(lambda d: 4 * fr_variance_analytic(n, k, t, d.xi, d.theta)))
        assert abs(exact.value - search) <= 1e-9 * exact.value
        assert 4 * fr_variance_analytic(n, k, t, exact.xi, exact.theta) == pytest.approx(
            exact.value, rel=1e-12)

    def test_interpolation_forms(self):
        assert fr_interpolation_forms("inter1", 98, t=PI / 2) == pytest.approx(100.0)
        assert fr_interpolation_forms("largescale", 98, t=PI / 2) == pytest.approx(150.0)
        expected = 400**2 * (1 - math.exp(-2)) / 2
        assert fr_interpolation_forms("longrange_heisenberg", 400, c=1.0) == pytest.approx(expected)
        assert math.isfinite(fr_interpolation_forms("bestshort", 98, range_k=25, c=1.0))
        assert math.isfinite(fr_interpolation_forms("inter2", 98, t=0.6))
        with pytest.raises(ValueError):
            fr_interpolation_forms("bogus", 10)

    def test_bestshort_is_a_quarter_of_the_qfi_in_the_limit(self):
        # bestshort is on the variance scale; at t = 1/sqrt(K) and M = 100 K + 2 the
        # ratio is 1.2013, 1.0203 and 1.0020 at K = 10, 100 and 1000
        ratios = []
        for k in (10, 100, 1000):
            t, n = 1.0 / math.sqrt(k), 100 * k
            best = max(fr_interpolation_forms("bestshort", n, range_k=k, c=1.0, theta=theta)
                       for theta in (0.0, PI / 2))  # linear in cos 2 theta
            ratios.append(fr_max_qfi(n, k, t).value / (4.0 * best))
        assert ratios[0] > ratios[1] > ratios[2] > 1.0
        assert ratios[1] - 1.0 <= 2.5e-2 and ratios[2] - 1.0 <= 2.5e-3

    def test_inter2_keeps_its_digits_at_small_t(self):
        # (1 - cos^4 t)/sin^2 t raised ZeroDivisionError at t = 0 and was 1.1e-12,
        # 3.3e-9 and 3.2e-5 off at t = 1e-3, 1e-5 and 1e-7
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 60
        n, m = 98, 100
        assert fr_interpolation_forms("inter2", n, t=0.0) == (n * n - 4 + 4 * m + m) / 8
        for t in (1e-3, 1e-5, 1e-7):
            c2, s2 = mp.cos(mp.mpf(t)) ** 2, mp.sin(mp.mpf(t)) ** 2
            exact = (c2 * (n * n - 4) + 2 * m * (1 - c2 * c2) / s2 + m) / 8
            got = fr_interpolation_forms("inter2", n, t=t)
            assert abs(got - exact) <= 4e-16 * exact, t

    def test_longrange_heisenberg_keeps_its_digits_at_small_c(self):
        # 1 - exp(-2 c^2) left 5.3e-12 and 2.2e-5 of relative error at c = 1e-3 and 1e-6
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 60
        for c in (1e-3, 1e-6):
            exact = 400**2 * (1 - mp.exp(-2 * mp.mpf(c) ** 2)) / 2
            forms = (fr_interpolation_forms("longrange_heisenberg", 400, c=c),
                     asymptotic_predictor("heisenberg_scaling", 400, c=c))
            for got in forms:
                assert abs(got - exact) <= 4e-16 * exact, c

    def test_bestshort_keeps_its_digits_at_small_c(self):
        # (1 - e^-2c^2)/c^2 - 2 e^-2c^2 and its cos 2 theta partner cancel: at (98, 5),
        # theta = pi/2 the form gave -0.0139 at c = 1e-6, 0 at 1e-8 and 7.6e-6 off at
        # 1e-3.  The paper's form loses about 48 digits at c = 1e-8, hence 100 here.
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 100
        n, k = 98, 5
        for c in np.geomspace(1e-8, 5.0, 61).tolist() + [1e-6, 1e-3, 0.5, 0.7071, 1.0]:
            big_c = mp.mpf(c)
            e2, e4 = mp.exp(-2 * big_c**2), mp.exp(-4 * big_c**2)
            for theta in (0.0, 1e-5, 0.7, 1.3, PI / 2, 3.0):
                exact = (n + 2) * k / mp.mpf(4) * ((1 - e2) / big_c**2 - 2 * e2 + mp.cos(
                    2 * mp.mpf(theta)) * ((e2 - e4) / big_c**2 - 2 * e2))
                got = fr_interpolation_forms("bestshort", n, range_k=k, c=c, theta=theta)
                assert abs(got - exact) <= 4e-15 * exact, (c, theta)

    def test_bestshort_is_zero_at_c_zero(self):
        # h/c^2 ~ 8c^4/3 and g/c^2 ~ 2c^2, so the form tends to 0; at c = 0, and where
        # c^2 underflows, its 0/0 raised ZeroDivisionError
        for c in (0.0, -0.0, 1e-170):
            for theta in (0.0, 1.3, PI / 2):
                assert fr_interpolation_forms("bestshort", 98, range_k=5, c=c, theta=theta) == 0.0

    @pytest.mark.parametrize("t", [0.0, -0.0])
    def test_inter1_names_its_divergence_where_sin_t_is_zero(self, t):
        # m / sin^2 t raised ZeroDivisionError, an ArithmeticError, which the CLI
        # reports as a numerical failure
        for inter1 in (partial(fr_interpolation_forms, "inter1"), cf.overlay_inter):
            with pytest.raises(ValueError, match="inter1 diverges where sin t = 0"):
                inter1(98, t=t)

    def test_largescale_equals_four_times_inter2_max(self):
        for t in (0.3, 0.8, 1.3):
            v2 = fr_interpolation_forms("inter2", 98, t=t, xi=PI / 2)
            assert fr_interpolation_forms("largescale", 98, t=t) == pytest.approx(4 * v2, rel=1e-12)


def _traced_bytes(call):
    """call()'s result and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def _traced_states(call, n_sites):
    """The tracemalloc peak of call() in states of 2^n_sites complex numbers."""
    return _traced_bytes(call)[1] / (16 * 2**n_sites)


class TestFrProtocols:
    @pytest.mark.parametrize("m", [12, 14])
    def test_protocol_holds_few_states(self, m):
        # a copy of every state built, J applied to |+> and the three h_i at once and
        # a separate centred J stack traced 27 and 26 states at M = 12 and 14
        system = build_system(m - 2, m // 2 - 1)
        assert _traced_states(lambda: fr_optimal_protocol(system, 0.7, 1e-3), m) <= 18

    @pytest.mark.parametrize("m", [12, 14])
    def test_moments_hold_few_states(self, m):
        # 14 and 13 states at M = 12 and 14 with the |+> detour and the centred stack
        system, rotation = build_system(m - 2, m // 2 - 1), Direction.from_angles(1.1, 0.4)
        assert _traced_states(lambda: fr_protocol_moments(system, 0.7, 1e-3, rotation), m) <= 9

    def test_zero_time_sql(self):
        mom = mom_reciprocal(*fr_protocol_moments(build_system(8, 2), 0.0, 0.3, Z_AXIS),
                             X_AXIS.as_array())
        assert mom == pytest.approx(10.0, abs=1e-7)

    def test_phi_zero_rejected(self):
        with pytest.raises(ValueError):
            mom_reciprocal(*fr_protocol_moments(build_system(8, 2), 0.3, 0.0, Y_AXIS),
                           X_AXIS.as_array())

    def test_never_exceeds_qfi(self):
        rng = np.random.default_rng(23)
        system = build_system(8, 3)
        for _ in range(10):
            t = float(rng.uniform(0.05, PI / 2))
            phi = float(rng.uniform(5e-4, 0.3))
            rot = Direction.from_angles(rng.uniform(0, PI), rng.uniform(0, PI))
            m = Direction.from_angles(rng.uniform(0, PI), rng.uniform(0, PI))
            try:
                mom = mom_reciprocal(*fr_protocol_moments(system, t, phi, rot), m.as_array())
            except IndeterminateRatioError:
                continue
            state = fr_evolve(plus_state(10), system, t)
            qfi = 4 * lattice_variance(state, rot)
            assert mom <= qfi + 1e-6

    def test_protocol_state_round_trip(self):
        system = build_system(6, 2)
        state = fr_protocol_state(system, 0.4, 0.0, Y_AXIS)
        assert abs(abs(np.vdot(plus_state(8).amplitudes, state.amplitudes)) - 1.0) < 1e-12

    @pytest.mark.parametrize("sites", [4, 6, 8, 10, 12, 14])
    def test_protocol_state_is_twist_rotate_untwist(self, sites):
        # oracle: the literal composition, twist, rotate about n by phi, untwist
        n = sites - 2
        cases = [(0.7, 0.3, Direction.from_angles(1.0, 0.5)), (1e-4, 1e-3, X_AXIS),
                 (PI / 2, -0.8, Direction.from_angles(2.2, -1.3)), (1.3, 2.5, Y_AXIS)]
        for k in sorted({1, n // 2}):
            system = build_system(n, k)
            for t, phi, rotation in cases:
                twisted = fr_evolve(plus_state(sites), system, t)
                oracle = fr_evolve(lattice_rotate(twisted, rotation, phi), system, -t)
                state = fr_protocol_state(system, t, phi, rotation)
                assert np.max(np.abs(state.amplitudes - oracle.amplitudes)) <= 1e-15

    def test_joint_optimizer_beats_fixed_axes(self):
        system = build_system(6, 1)
        t, phi = 0.6, 1e-3
        res = fr_optimal_protocol(system, t, phi)
        fixed = mom_reciprocal(*fr_protocol_moments(system, t, phi, Y_AXIS), Y_AXIS.as_array())
        assert res.value >= fixed - 1e-9


    def test_optimal_readout_is_the_reciprocal_error_at_the_readout(self):
        system = build_system(8, 2)
        t, phi = 0.6, 1e-3
        for rotation in (Y_AXIS, Direction.from_angles(1.0, 0.5)):
            best = maximize_slope_ratio(*fr_protocol_moments(system, t, phi, rotation))
            at_best = mom_reciprocal(*fr_protocol_moments(system, t, phi, rotation),
                                     best.direction.as_array())
            assert at_best == pytest.approx(best.value, rel=1e-9)
            for readout in (X_AXIS, Y_AXIS, Z_AXIS):
                fixed = mom_reciprocal(*fr_protocol_moments(system, t, phi, rotation),
                                       readout.as_array())
                assert fixed <= best.value * (1 + 1e-9)

    def test_optimal_readout_indeterminate_for_z_rotation(self):
        # a z rotation commutes with the twist, so the probe stays coherent and
        # its mean-spin axis, at azimuth phi, has neither variance nor slope
        with pytest.raises(IndeterminateRatioError):
            mom_reciprocal(*fr_protocol_moments(build_system(6, 2), 0.7, 1e-3, Z_AXIS),
                           Direction.from_angles(PI / 2, 1e-3).as_array())
        # the best readout leaves that axis out: the transverse ones give the SQL, M
        best = maximize_slope_ratio(*fr_protocol_moments(build_system(6, 2), 0.7, 1e-3, Z_AXIS))
        assert best.kind == "lower_bound"
        assert best.value == pytest.approx(8.0, rel=1e-12)
        assert abs(best.direction.nx) <= 1e-3

    def test_protocol_reaches_qfi_at_half_range(self):
        # K = N/2, t = pi/2: the ring QFI is 20 and the search reaches it
        system = build_system(8, 4)
        res = fr_optimal_protocol(system, PI / 2, 1e-3)
        qfi = fr_max_qfi(8, 4, PI / 2).value
        assert 0.999 * qfi <= res.value <= qfi
        assert res.limit == pytest.approx(qfi, rel=1e-12)
        at_best = mom_reciprocal(*fr_protocol_moments(system, PI / 2, 1e-3, res.rotation),
                                 res.readout.as_array())
        assert at_best == pytest.approx(res.value, rel=1e-9)

    @pytest.mark.parametrize("sites", [6, 8, 10, 12, 14])
    def test_half_period_tie_gives_the_x_rotation(self, sites):
        # at t = pi/2 the limit is the same all along the x-z great circle, and
        # n = z is 0/0: a z rotation commutes with the twist
        n = sites - 2
        res = fr_optimal_protocol(build_system(n, 1), PI / 2, 1e-3)
        assert abs(abs(res.rotation.nx) - 1.0) <= 1e-12
        # the readout was determinate: maximize_slope_ratio raises on 0/0
        assert math.isfinite(res.value) and res.value <= fr_max_qfi(n, 1, PI / 2).value

    def test_x_optimum_is_exactly_x(self):
        res = fr_optimal_protocol(build_system(8, 2), 1.217, 1e-3)
        assert abs(abs(res.rotation.nx) - 1.0) <= 1e-12
        assert abs(res.rotation.ny) <= 1e-12 and abs(res.rotation.nz) <= 1e-12

    def test_reported_value_is_the_reciprocal_error_at_the_protocol(self):
        system = build_system(8, 2)
        res = fr_optimal_protocol(system, 0.7, 1e-3)
        at_best = mom_reciprocal(*fr_protocol_moments(system, 0.7, 1e-3, res.rotation),
                                 res.readout.as_array())
        assert at_best == pytest.approx(res.value, rel=1e-12)

    def test_small_t_limit_is_a_lower_bound_at_the_qfi(self):
        # C_yy = -5.94e-14 and B_yy = 8.91e-14 here, within 6e-10 of a 40-digit evaluation
        # of the same residual: both sit below the 0/0 rule's 1e-12, so the limit is 0/0
        # on the y-z plane, where the optimum lies, and its bound n^T P n reaches the QFI
        res = fr_optimal_protocol(build_system(10, 3), 1e-4, 0.1)
        qfi = fr_max_qfi(10, 3, 1e-4).value
        assert res.limit_kind == "lower_bound"
        assert res.limit == pytest.approx(qfi, rel=1e-12)
        assert res.value == pytest.approx(qfi, rel=1e-9)
        assert fr_optimal_protocol(build_system(8, 2), 0.7, 1e-3).limit_kind == "attained"

    @pytest.mark.parametrize("t, kind", [(1e-2, "attained"), (3e-3, "lower_bound"),
                                         (1e-3, "lower_bound"), (1e-4, "lower_bound"),
                                         (1e-5, "lower_bound")])
    def test_small_t_readout_is_a_lower_bound_at_the_limit(self, t, kind):
        # the nearly coherent state's mean-spin axis is 0/0 at phi (slope^2 6.0e-22 over
        # variance 3.7e-14 at t = 3e-3); it is left out of the best-readout sum
        res = fr_optimal_protocol(build_system(10, 3), t, 1e-3)
        assert res.kind == kind
        assert abs(res.value / res.limit - 1.0) <= 1e-8
        assert res.value <= fr_max_qfi(10, 3, t).value * (1 + 1e-12)


class TestMomLimit:
    def test_limit_of_the_best_readout(self):
        # F(phi) = L + a phi + O(phi^2), so the +-phi mean is O(phi^2) from L
        system = build_system(8, 2)
        t, phi = 0.7, 1e-4
        limit = partial(mom_limit, *mom_limit_matrices(*lat._mom_limit_terms(system, t),
                                                       system.n_sites))
        for rotation in (Direction.from_angles(1.0, 0.5), Direction.from_angles(0.3, 2.0),
                         Direction.from_angles(2.0, 1.2)):
            mean = sum(maximize_slope_ratio(*fr_protocol_moments(system, t, p, rotation)).value
                       for p in (phi, -phi)) / 2
            assert limit(rotation.as_array()[None])[0] == pytest.approx(mean, rel=1e-6)

    @pytest.mark.parametrize("t", [1e-6, 1e-3, 0.05, 0.37, 0.7, 1.1, PI / 2])
    def test_symmetry_zeroes_the_x_couplings(self, t):
        # exp(-i pi J_x) keeps |+> and the twist and flips J_y and J_z, so A's x
        # column and C's and B's x-y and x-z entries, which mom_limit_matrices
        # drops, are rounding
        for n in range(2, 13, 2):
            for k in range(1, n // 2 + 1):
                system = build_system(n, k)
                a, c, b = lat._mom_limit_terms(system, t)
                for full, odd in ((a, a[:, 0]), (c, np.r_[c[0, 1:], c[1:, 0]]),
                                  (b, np.r_[b[0, 1:], b[1:, 0]])):
                    assert np.max(np.abs(odd)) <= 1e-14 * np.max(np.abs(full)), (n, k)

    @pytest.mark.parametrize("t", [0.3, 0.7])
    @pytest.mark.parametrize("k, sites", [(1, range(6, 15, 2)), (2, range(10, 15, 2))])
    def test_terms_are_extensive_on_long_rings(self, k, sites, t):
        # a term of P, C or B couples sites s and u with |s - u| <= 2K through their range-K
        # neighbours, a window of at most 4K + 1 sites, which on M >= 4K + 2 sites never
        # meets itself round the ring: P, C and B are M times fixed per-site matrices,
        # measured within 3.0e-13 of the M = 4K + 2 ring's
        per_site = []
        for m in sites:
            p, c, b = mom_limit_matrices(*lat._mom_limit_terms(build_system(m - 2, k), t), m)
            per_site.append(np.r_[p.ravel(), c, b] / m)
        for other in per_site[1:]:
            assert np.all(np.abs(other - per_site[0]) <= 1e-12 * np.abs(per_site[0])), other

    @pytest.mark.parametrize("n,k,t", [(8, 2, 0.7), (8, 1, 0.2), (8, 4, 1.2), (10, 3, 1.2),
                                       (12, 6, 0.05), (10, 5, PI / 2)])
    def test_search_matches_dense_grid_and_eigen_oracle(self, n, k, t):
        system = build_system(n, k)
        p, c, b = mom_limit_matrices(*lat._mom_limit_terms(system, t), system.n_sites)
        limit = partial(mom_limit, p, c, b)
        best = maximize_limit(p, c, b)
        assert limit(best.direction.as_array()[None])[0] == best.value
        xi, theta = (a.ravel() for a in np.meshgrid(np.linspace(0, PI, 361),
                                                    np.linspace(0, PI, 361), indexing="ij"))
        with np.errstate(divide="ignore", invalid="ignore"):
            grid = limit(np.stack([np.sin(xi) * np.cos(theta), np.sin(xi) * np.sin(theta),
                                   np.cos(xi)], axis=1))
        grid_max = float(np.max(grid[np.isfinite(grid)]))
        # a grid point is at most half a step (pi/720) off the argmax in each angle
        assert grid_max <= best.value * (1 + 1e-12)
        assert best.value - grid_max <= 1e-5 * best.value
        search, _ = sphere_search(limit)
        assert search <= best.value * (1 + 1e-12)
        assert best.value == pytest.approx(search, rel=1e-9)
        # (n^T C n)^2 / n^T B n = max over mu of 2 mu n^T C n - mu^2 n^T B n, so the
        # maximum over n is the largest lambda_max(P + 2 mu C - mu^2 B) over mu, with
        # P, C and B embedded back into 3x3 matrices
        p = np.pad(p, ((1, 0), (1, 0)))
        c, b = np.diag(np.pad(c, (0, 1))), np.diag(np.pad(b, (0, 1)))
        alpha = np.linspace(-math.atan(1e3), math.atan(1e3), 20001)
        for _ in range(40):
            mu = np.tan(alpha)[:, None, None]
            top = np.linalg.eigvalsh(p + 2 * mu * c - mu**2 * b)[:, -1]
            centre, step = alpha[np.argmax(top)], alpha[1] - alpha[0]
            alpha = np.linspace(centre - step, centre + step, 21)
        assert best.value == pytest.approx(float(np.max(top)), rel=1e-9)

    @pytest.mark.parametrize("n,k", [(10, 3), (8, 1), (12, 3), (12, 6)])
    @pytest.mark.parametrize("t", [1e-4, 1e-5, 1e-6])
    def test_small_t_maximum_is_the_qfi(self, n, k, t):
        # leaving the 0/0 y-z plane out once reported L = 1e-7 QFI at +-x
        system = build_system(n, k)
        terms = lat._mom_limit_terms(system, t)
        best = maximize_limit(*mom_limit_matrices(*terms, system.n_sites))
        assert best.kind == "lower_bound"
        assert best.value == pytest.approx(fr_max_qfi(n, k, t).value, rel=1e-12)
        assert abs(best.direction.nx) <= 1e-12


def _ring_counts_loop(n_sites, range_k):
    one = [0] * (n_sites - 1)
    both = [0] * (n_sites - 1)
    for d in range(1, n_sites):
        for s in range(n_sites):
            if s in (0, d):
                continue
            near_i = min(s, n_sites - s) <= range_k
            near_j = min(abs(s - d), n_sites - abs(s - d)) <= range_k
            if near_i and near_j:
                both[d - 1] += 1
            elif near_i or near_j:
                one[d - 1] += 1
    return one, both


def test_ring_counts_match_literal_loop():
    for n_sites in range(4, 41, 2):
        for k in range(1, (n_sites - 2) // 2 + 1):
            one, both = ring_counts(n_sites, k)
            assert (one.tolist(), both.tolist()) == _ring_counts_loop(n_sites, k), (n_sites, k)


def test_ring_classes_expand_to_the_per_distance_counts():
    # each class (one, both) repeated weight times is the multiset of the M - 1 distances
    for n_sites in range(4, 41, 2):
        for k in range(1, (n_sites - 2) // 2 + 1):
            one, both, weight = cf._ring_classes(n_sites, k)
            assert len(one) <= 2 * k + 1 and min(weight) >= 1, (n_sites, k)
            expanded = sorted(c for c, w in zip(zip(one, both), weight) for _ in range(w))
            assert expanded == sorted(zip(*_ring_counts_loop(n_sites, k))), (n_sites, k)


def _class_path_error(n, k, t):
    """Largest |class path - per-distance oracle| over Sigma, in units of its largest entry."""
    m, (one, both) = n + 2, ring_counts(n + 2, k)
    oracle = ising_covariance(m, 2 * k, one.tolist(), both.tolist(), [1] * (m - 1), t)
    sigma = np.array(cf.fr_covariance_matrix(n, k, t))
    return np.max(np.abs(sigma - oracle)) / np.max(np.abs(oracle))


CLASS_T = (1e-6, 1e-4, 0.3, 0.7854, 1.0, 1.5)


@pytest.mark.parametrize("t", CLASS_T)
def test_ring_classes_match_the_per_distance_sum(t):
    # every legal (N, K) with N < 240; the sums differ only in order and grouping
    worst = max(_class_path_error(n, k, t) for n in range(2, 240, 2) for k in range(1, n // 2 + 1))
    assert worst <= 2e-15, t


@pytest.mark.parametrize("n,k", [(10**6 - 2, 1000), (10**4 - 2, 10)])
def test_ring_classes_match_the_per_distance_sum_on_large_rings(n, k):
    for t in CLASS_T:
        assert _class_path_error(n, k, t) <= 2e-15, t


def test_ring_covariance_is_o_k_in_memory():
    # the per-distance arrays traced 640 MB here
    _, peak = _traced_bytes(lambda: cf.fr_covariance_matrix(10**7 - 2, 100, 0.7))
    assert peak < 64_000


def _window_counts(n_sites, range_k, d):
    """(one, both) of the pair (0, d), counted from the sites within K of each end."""
    def near(c):
        return {(c + j) % n_sites for j in range(-range_k, range_k + 1)} - {0, d}
    a, b = near(0), near(d)
    return len(a ^ b), len(a & b)


def test_billion_site_ring_covariance_keeps_its_digits():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    n, k, t = 10**9 - 2, 10, 0.3
    m = n + 2
    sigma, peak = _traced_bytes(lambda: cf.fr_covariance_matrix(n, k, t))
    assert peak < 10_000
    # distances within 4K + 2 of 0 or of M counted one by one; every d between has
    # disjoint windows, so one counted representative stands for all of them
    edge = list(range(1, 4 * k + 3)) + list(range(m - 4 * k - 2, m))
    classes = [(_window_counts(m, k, d), 1) for d in edge]
    classes.append((_window_counts(m, k, m // 2), m - 1 - len(edge)))
    c, s = mp.cos(mp.mpf(t)), mp.cos(2 * mp.mpf(t))
    big = mp.mpf(m)
    exact = (big * big / 4 * (1 - c ** (4 * k))
             - big / 8 * mp.fsum(w * ((1 - c**o) + (1 - c**o * s**b)) for (o, b), w in classes),
             big / 4 + big / 8 * mp.fsum(w * c**o * (1 - s**b) for (o, b), w in classes),
             big * k * mp.sin(mp.mpf(t)) * c ** (2 * k - 1) / 2)
    for value, ref in zip((sigma[0][0], sigma[1][1], sigma[1][2]), exact):
        assert abs(value - float(ref)) <= 2e-15 * abs(float(ref))
