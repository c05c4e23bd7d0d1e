import math
import random
import sys

import numpy as np
import pytest

import twistlab.dicke_sums as ds
import twistlab.spin_core as sc
from dicke_oracle import (asymptotic_predictor, dense_dot, dense_spin_matrices, expectation,
                          extended_protocol_moments, literal_protocol_state, mom,
                          limit_terms, numpy_limit_terms, numpy_mom_reciprocal_at_zero,
                          numpy_protocol_moments, protocol_state, rotate_state,
                          small_phi_slope, time_averaged_qfi, variance)
from sphere_oracle import sphere_search
from twistlab.closed_form import (Direction, IndeterminateRatioError, X_AXIS, Y_AXIS, Z_AXIS,
                                  _decimal_cos, _digits, covariance_matrix, default_q_grid,
                                  indeterminate, max_qfi_over_directions, phase_diagram_scan,
                                  qfi_closed_form)
from twistlab.dicke_sums import VARIANTS, _magnitudes, protocol_moments, qfi_numeric, sensing
from twistlab.numerics import centred_moments, mom_limit_matrices
from twistlab.oat_metrology import ghz_parity_error, mom_reciprocal_at_zero
from twistlab.optimizer import maximize_limit, maximize_slope_ratio
from twistlab.spin_core import coherent_state

PI = math.pi


def variant_state(n, t, angle, rotation, variant, realign_angle=0.0, mz_axis="y"):
    """protocol_state of a variant, through its one sensing rotation."""
    axis, phi, untwist = sensing(variant, rotation, angle, realign_angle, mz_axis)
    return protocol_state(n, t, phi, axis, untwist)


def _pointwise(f):
    """The vectorized objective, (k, 3) unit vectors -> k values, of f(Direction)."""
    return lambda units: np.array([f(Direction(*u)) for u in units])


def overlap_mod(a, b):
    return abs(np.vdot(a.amplitudes, b.amplitudes))


class TestQfiClosedForm:
    def test_heisenberg_limit_even_n(self):
        for n in (4, 10, 100):
            assert qfi_closed_form(n, PI / 2, PI / 2, 0.0) == pytest.approx(n * n, rel=1e-12)

    def test_sql_at_zero_time(self):
        for n in (3, 10, 57):
            assert qfi_closed_form(n, 0.0, PI / 2, PI / 2) == pytest.approx(n, rel=1e-12)

    def test_plateau_value(self):
        val = qfi_closed_form(100, 100 ** (-1 / 10), PI / 2, 0.0)
        assert val == pytest.approx(5050.0, rel=0.01)

    # 4 Sigma_xx = A + B - C against 60-digit references; the direct sum of its
    # N^2-sized terms is 1.2e-6, 5.6% and 56% off at the first three points.  The
    # last two have cos 2t < 0, where the direct form is kept
    @pytest.mark.parametrize("n,t,exact", [
        (1000, 1e-4, 0.020029550438117737),
        (1000, 1e-6, 1.9980004955093273e-6),
        (10000, 1e-6, 1.9998499550088332e-4),
        (10000, 0.01, 19981882.14837278),
        (4, 0.3, 1.9235839355239562),
        (100, 0.8, 5050.0),
        (7, 1.5, 8.0299657528729886),
    ])
    def test_x_variance_keeps_its_digits(self, n, t, exact):
        assert 4 * covariance_matrix(n, t)[0][0] == pytest.approx(exact, rel=2e-12)

    def test_x_variance_vanishes_at_zero_time(self):
        for n in (1, 2, 1000, 10000):
            assert covariance_matrix(n, 0.0)[0][0] == 0.0

    def test_matches_numeric_on_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 51))
            t = float(rng.uniform(1e-4, PI / 2))
            xi = float(rng.uniform(0, PI))
            theta = float(rng.uniform(-PI, PI))
            closed = qfi_closed_form(n, t, xi, theta)
            numeric = qfi_numeric(n, t, Direction.from_angles(xi, theta))
            assert closed == pytest.approx(numeric, rel=1e-9)


class TestQfiNumeric:
    # relative, floored at N, to the numpy state of spin_core; the sum keeps the magnitudes
    # down to 1e-40 of the peak's square, so at N = 10^6 some 13600 of them
    @pytest.mark.parametrize("n", [1, 2, 3, 20, 1000, 1279, 4000, 300000, 10**6])
    def test_matches_the_numpy_state(self, n):
        lo, mags = _magnitudes(n)
        assert abs(math.fsum(b * b for b in mags) - 1.0) <= 4 * sys.float_info.epsilon
        assert mags == mags[::-1] and len(mags) == n + 1 - 2 * lo
        rng = random.Random(n)
        directions = [X_AXIS, Y_AXIS, Z_AXIS] + [
            Direction.from_angles(rng.uniform(0, PI), rng.uniform(-PI, PI)) for _ in range(2)]
        probe = coherent_state(n, 1.0)
        for t in (0.0, 1e-4, 0.3, PI / 4 - 1e-12, PI / 4 + 1e-12, PI / 2, -0.4):
            state = sc.oat_evolve(probe, t)
            for d in directions:
                reference = 4.0 * variance(state, d)
                assert abs(qfi_numeric(n, t, d) - reference) <= 1e-13 * max(reference, n)

    def test_checks_its_inputs(self):
        with pytest.raises(ValueError, match="need at least one particle"):
            qfi_numeric(0, 0.3, X_AXIS)
        # t (N/2)^2 overflows where 4t, which the closed form takes, does not
        with pytest.raises(OverflowError, match="interaction time 4.49e\\+307"):
            qfi_numeric(20, 4.49e307, Y_AXIS)

    def test_cat_state_value(self):
        assert qfi_numeric(4, PI / 2, X_AXIS) == pytest.approx(16.0, abs=1e-10)

    def test_coherent_sql(self):
        assert qfi_numeric(10, 0.0, Z_AXIS) == pytest.approx(10.0, abs=1e-10)

    def test_untwist_layer_does_not_change_qfi(self):
        # 4 Var(n.J) of the twisted probe vs of the full twist-untwist family
        n, t = 12, 0.4
        d = Direction.from_angles(1.1, 0.6)
        base = qfi_numeric(n, t, d)
        state = protocol_state(n, t, 0.0, d)
        # conjugate the generator through the untwist layer: QFI of the protocol
        # family equals 4 Var of the conjugated generator in the final state
        tw = np.exp(-1j * t * ((n - 2.0 * np.arange(n + 1)) / 2.0) ** 2)
        op = np.conj(tw)[:, None] * dense_dot(n, d) * tw[None, :]
        psi = state.amplitudes
        assert 4 * centred_moments(psi, op @ psi)[1] == pytest.approx(base, rel=1e-9)


@pytest.mark.parametrize("n", [1, 4, 5, 20])
def test_ladders_on_a_window_padded_past_both_basis_ends(n):
    # the whole basis and two zeros beyond each end, as mom_reciprocal_at_zero pads a
    # full-basis window: sqrt(ell (N - ell + 1)) is taken as 0 outside 1 <= ell <= N
    # (at ell = -1 it raised ValueError: math domain error)
    rng = random.Random(n)
    amps = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n + 1)]
    raised, lowered = ds._ladders(n, -2, [0j, 0j] + amps + [0j, 0j])
    _, _, _, j_plus, j_minus = dense_spin_matrices(n)
    for got, matrix in ((raised, j_plus), (lowered, j_minus)):
        assert got[:2] == [0j, 0j] and got[-2:] == [0j, 0j]
        assert np.max(np.abs(np.array(got[2:-2]) - matrix @ np.array(amps))) <= 1e-14 * n


class TestMaxQfi:
    def test_global_maximum_at_pi_over_2(self):
        res = max_qfi_over_directions(100, PI / 2)
        assert res.value == pytest.approx(10000.0, rel=1e-12)
        assert abs(res.xi - PI / 2) < 1e-6

    def test_short_time_sql(self):
        res = max_qfi_over_directions(100, 1e-6)
        assert res.value == pytest.approx(100.0, rel=0.01)

    def test_constant_time_superposition_value(self):
        # at any fixed t in (0, pi/2) the maximum is the plateau N(N + 1)/2
        for n in (100, 1000):
            for t in (PI / 3, 0.7):
                res = max_qfi_over_directions(n, t)
                assert res.value == pytest.approx(n * (n + 1) / 2, rel=1e-12)
                assert asymptotic_predictor("constant_time", n) == pytest.approx(res.value,
                                                                                 rel=1e-12)

    def test_covariance_reproduces_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            t = float(rng.uniform(0.0, PI / 2))
            xi, theta = float(rng.uniform(0, PI)), float(rng.uniform(-PI, PI))
            d = Direction.from_angles(xi, theta).as_array()
            assert 4 * d @ covariance_matrix(n, t) @ d == pytest.approx(
                qfi_closed_form(n, t, xi, theta), rel=1e-10, abs=1e-10 * n)

    @pytest.mark.parametrize("n", [1, 2, 3, 10**4, 10**6, 10**7])
    def test_yy_keeps_its_digits(self, n):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        for t in (1e-8, 1e-6, 1e-3, 0.5, 0.8, 1.5):
            big = mp.mpf(n)
            exact = (big * big + big) / 2 - big * (big - 1) / 2 * mp.cos(2 * mp.mpf(t)) ** (n - 2)
            # the direct form was 1.1e-5 off at N = 1e6, t = 1e-6
            assert abs(4 * covariance_matrix(n, t)[1][1] - float(exact)) <= 1e-15 * float(exact)

    @pytest.mark.parametrize("n,t", [(10, 0.3), (100, 0.05), (100, 0.6), (1000, 0.01)])
    def test_exact_maximum_matches_sphere_search(self, n, t):
        exact = max_qfi_over_directions(n, t)
        search, _ = sphere_search(_pointwise(lambda d: qfi_closed_form(n, t, d.xi, d.theta)))
        assert abs(exact.value - search) <= 1e-9 * exact.value
        assert qfi_closed_form(n, t, exact.xi, exact.theta) == pytest.approx(exact.value, rel=1e-12)
        assert exact.direction.ny > -1e-12


class TestProtocolState:
    def test_zero_twist_is_plain_rotation(self):
        expected = rotate_state(coherent_state(6, 1.0), Y_AXIS, 0.4)
        assert np.max(np.abs(protocol_state(6, 0.0, 0.4, Y_AXIS).amplitudes
                             - expected.amplitudes)) < 1e-13

    def test_cat_protocol_amplitudes(self):
        n, phi = 4, 0.23
        state = protocol_state(n, PI / 2, phi, X_AXIS)
        target = (math.cos(n * phi / 2) * coherent_state(n, 1.0).amplitudes
                  - math.sin(n * phi / 2) * coherent_state(n, -1.0).amplitudes)
        phase = np.vdot(target, state.amplitudes)
        phase /= abs(phase)
        assert np.max(np.abs(state.amplitudes - phase * target)) < 1e-12

    def test_realignment_cancels_rotation(self):
        state = variant_state(8, 0.6, 0.31, Y_AXIS, "twist_untwist_realigned", 0.31)
        assert overlap_mod(state, coherent_state(8, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_realigned_equals_shifted_twist_untwist(self):
        n, t, phi, delta = 10, 0.5, 0.4, 0.11
        d = Direction.from_angles(1.2, -0.7)
        realigned = variant_state(n, t, phi, d, "twist_untwist_realigned", phi - delta)
        shifted = protocol_state(n, t, delta, d)
        assert overlap_mod(realigned, shifted) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_mach_zehnder_matches_realigned(self, axis):
        n, t, phi, phi2 = 7, 0.45, 0.27, 0.1
        direction = X_AXIS if axis == "x" else Y_AXIS
        mz = variant_state(n, t, phi, direction, "mach_zehnder", phi2, axis)
        re = variant_state(n, t, phi, direction, "twist_untwist_realigned", phi2)
        assert overlap_mod(mz, re) == pytest.approx(1.0, abs=1e-10)

    def test_variant_validation(self):
        with pytest.raises(ValueError, match="unknown variant"):
            sensing("bogus", X_AXIS, 0.1)
        with pytest.raises(ValueError, match="mach_zehnder axis"):
            sensing("mach_zehnder", X_AXIS, 0.1, mz_axis="z")
        with pytest.raises(ValueError, match="at least one particle"):
            protocol_moments(0, 0.1, 0.1, X_AXIS)


# (variant, mz_axis) pairs: the four variants, mach_zehnder with both pulse frames
VARIANT_CASES = [(v, "y") for v in VARIANTS] + [("mach_zehnder", "x")]


def _random_case(rng):
    """N, t, angle, rotation and realign_angle of one random protocol."""
    return (int(rng.integers(1, 31)), float(rng.uniform(0.0, PI / 2)),
            float(rng.uniform(-1.0, 1.0)),
            Direction.from_angles(rng.uniform(0, PI), rng.uniform(-PI, PI)),
            float(rng.uniform(-0.5, 0.5)))


class TestOneSensingRotation:
    """Every variant is its one sensing rotation: checked against the layer-by-layer
    protocol built from dense matrices and eigh."""

    @pytest.mark.parametrize("variant,mz_axis", VARIANT_CASES)
    def test_state_matches_literal_layers(self, variant, mz_axis):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n, t, angle, rotation, realign = _random_case(rng)
            literal = literal_protocol_state(n, t, angle, rotation, variant, realign, mz_axis)
            state = variant_state(n, t, angle, rotation, variant, realign, mz_axis)
            assert abs(np.vdot(literal, state.amplitudes)) >= 1.0 - 1e-12

    @pytest.mark.parametrize("variant,mz_axis", VARIANT_CASES)
    def test_moments_match_literal_layers(self, variant, mz_axis):
        rng = np.random.default_rng(12)
        h = 1e-5
        for _ in range(6):
            n, t, angle, rotation, realign = _random_case(rng)
            jx, jy, jz = dense_spin_matrices(n)[:3]

            def mean(psi):
                return np.array([np.vdot(psi, j @ psi).real for j in (jx, jy, jz)])

            def literal(a):
                return literal_protocol_state(n, t, a, rotation, variant, realign, mz_axis)

            axis, phi, untwist = sensing(variant, rotation, angle, realign, mz_axis)
            slope, covariance = protocol_moments(n, t, phi, axis, untwist)
            difference = (mean(literal(angle + h)) - mean(literal(angle - h))) / (2 * h)
            assert np.max(np.abs(slope - difference)) <= 1e-7 * n * n
            psi = literal(angle)
            applied = [j @ psi for j in (jx, jy, jz)]
            second = np.array([[np.vdot(a, b).real for b in applied] for a in applied])
            expected = second - np.outer(mean(psi), mean(psi))
            assert np.max(np.abs(covariance - expected)) <= 1e-13 * n * n

    @pytest.mark.parametrize("variant,mz_axis", VARIANT_CASES)
    def test_moments_rotate_once(self, variant, mz_axis, monkeypatch):
        calls = []

        rotate = ds.rotate

        def counted(*args, **kwargs):
            calls.append(args)
            return rotate(*args, **kwargs)

        monkeypatch.setattr(ds, "rotate", counted)
        axis, phi, untwist = sensing(variant, Direction.from_angles(1.0, 0.4), 0.2, 0.1, mz_axis)
        protocol_moments(12, 0.3, phi, axis, untwist)
        assert len(calls) == 1


# the gate's grid: N, t, phi and three seeded axes besides x, y and z
GATE_N = (1, 2, 3, 20, 151, 1000, 1400, 10**4, 10**5)
GATE_T = (0.0, 1e-4, 0.3, PI / 4, PI / 2, -0.4)
GATE_PHI = (0.0, 1e-9, 0.05, 0.2, 3.0, 4 * PI + 0.1, -0.7)
_AXIS_RNG = random.Random(52)
GATE_AXES = (X_AXIS, Y_AXIS, Z_AXIS) + tuple(
    Direction.from_angles(_AXIS_RNG.uniform(0, PI), _AXIS_RNG.uniform(-PI, PI)) for _ in range(3))
# the rotation's series has about |phi| N / 2 terms, each up to O(N) on Python floats: the
# gate takes every grid point with |phi| N up to 1000 (the benchmark's largest is 200).  Out
# are N = 1000 and 1400 at phi = 3, N = 10^4 at 0.2, 3 and -0.7, and N = 10^5 at 0.05 and
# up, which runs apart: there the two paths differ by up to 1.3e-11 of N/2, over the bound
# (test_large_n_against_long_double)
GATE_PHI_N = 1000


def _gate_points(n):
    """(t, phi, axis, untwist) of the grid at N."""
    return [(t, phi, d, untwist) for t in GATE_T for phi in GATE_PHI for d in GATE_AXES
            for untwist in (True, False) if abs(math.remainder(phi, 4 * PI)) * n <= GATE_PHI_N]


def _floored_errors(got, want, n):
    """The largest |D - D_ref| and |Sigma - Sigma_ref|, relative and floored at N/2 and N/4,
    the unentangled probe's |<J>| and variance."""
    slope, covariance = np.asarray(got[0]), np.asarray(got[1])
    ref_slope, ref_covariance = np.asarray(want[0]), np.asarray(want[1])
    return (np.max(np.abs(slope - ref_slope)) / max(np.max(np.abs(ref_slope)), n / 2),
            np.max(np.abs(covariance - ref_covariance)) / max(np.max(np.abs(ref_covariance)),
                                                              n / 4))


class TestProtocolMoments:
    """dicke_sums.protocol_moments, on Python floats over the probe's window, against the
    numpy path on the whole basis and against the exact forms at phi = 0."""

    @pytest.mark.parametrize("n", GATE_N)
    def test_matches_the_numpy_path(self, n):
        # measured up to 2.1e-12 on D and 6.8e-14 on Sigma over the grid in BENCH_52.json;
        # the reference sums its products by math.fsum, as its einsum sums were the looser
        # side (see test_matches_the_exact_forms_at_zero_phi)
        for point in _gate_points(n):
            errors = _floored_errors(protocol_moments(n, *point), numpy_protocol_moments(n, *point),
                                     n)
            assert max(errors) <= 1e-11, (point, errors)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="long double is no wider than a double on this platform")
    @pytest.mark.parametrize("axis", [X_AXIS, Y_AXIS], ids=["x", "y"])
    def test_large_n_against_long_double(self, axis):
        # N = 10^5, phi = 0.05, t = pi/4 with the untwist, where the numpy path and this one
        # differ most (1.28e-11 of N/2 about y, over the gate's 1e-11).  Against the same
        # computation in long double neither double path holds 1e-11 over the 72 grid points
        # there: this one is off by up to 1.52e-11 (about x) and the numpy path by 1.17e-11.
        # D's products of order N^2/4 cancel to order N/2, so one rounding of the amplitudes
        # moves D by about N eps of N/2: that is the bound here
        n = 10**5
        point = (PI / 4, 0.05, axis, True)
        errors = _floored_errors(protocol_moments(n, *point), extended_protocol_moments(n, *point),
                                 n)
        assert max(errors) <= n * np.finfo(float).eps, errors

    @pytest.mark.parametrize("n", GATE_N)
    def test_matches_the_exact_forms_at_zero_phi(self, n):
        # without the untwist the state is the twisted probe: Sigma is the closed form and
        # D = n x <J>, <J> = (N/2 cos^(N-1) t, 0, 0).  The numpy path with einsum sums was
        # 2.6e-12 off on D at N = 10^4 (D_x = 1.3e-8 for 0 at t = 1e-4) and 8.3e-11 at 10^5
        for t in GATE_T:
            with _digits():
                mean = n / 2.0 * float(_decimal_cos(t) ** (n - 1))
            sigma = covariance_matrix(n, t)
            for d in GATE_AXES:
                exact = (0.0, d.nz * mean, -d.ny * mean), sigma
                slope_error, sigma_error = _floored_errors(protocol_moments(n, t, 0.0, d, False),
                                                           exact, n)
                assert slope_error <= 1e-12 and sigma_error <= 1e-13, (t, d)


class TestMomReciprocal:
    def test_rotation_only_sql(self):
        for n in (4, 10):
            assert mom(n, 0.0, 0.3, Z_AXIS, X_AXIS, untwist=False) == pytest.approx(n, abs=1e-9)

    def test_cat_heisenberg(self):
        assert mom(8, PI / 2, 0.19, X_AXIS, X_AXIS) == pytest.approx(64.0, abs=1e-9)

    def test_indeterminate_at_special_angles(self):
        n = 8
        with pytest.raises(IndeterminateRatioError):
            mom(n, PI / 2, 2 * PI / n, X_AXIS, X_AXIS)

    def test_never_exceeds_qfi(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 31))
            t = float(rng.uniform(0, PI / 2))
            phi = float(rng.uniform(0.02, 1.2))
            rot = Direction.from_angles(rng.uniform(0, PI), rng.uniform(-PI, PI))
            m = Direction.from_angles(rng.uniform(0, PI), rng.uniform(-PI, PI))
            try:
                value = mom(n, t, phi, rot, m)
            except IndeterminateRatioError:
                continue
            assert value <= qfi_numeric(n, t, rot) + 1e-6


class TestOptimalReadout:
    # (N, t, phi, rotation, untwist): twist_untwist twice, then twist_untwist_realigned
    # at angle 0.2 and realign_angle 0.1, which senses by 0.2 - 0.1, and rotation_only
    SPECS = [(100, 0.1, 1e-3, Y_AXIS, True),
             (20, 20 ** -0.5, 1e-3, X_AXIS, True),
             (30, 0.7, 0.2 - 0.1, Direction.from_angles(1.1, -0.4), True),
             (26, 0.36, 0.22, Direction.from_angles(0.5, 2.0), False)]

    @pytest.mark.parametrize("spec", SPECS)
    def test_value_is_the_reciprocal_error_at_the_readout(self, spec):
        n, t, phi, rotation, untwist = spec
        best = maximize_slope_ratio(*protocol_moments(*spec))
        assert best.direction.ny > -1e-12  # the readout hemisphere, up to rounding
        at_best = mom(n, t, phi, rotation, best.direction, untwist)
        assert at_best == pytest.approx(best.value, rel=1e-9)
        for readout in (X_AXIS, Y_AXIS, Z_AXIS, Direction.from_angles(0.7, 0.3)):
            assert mom(n, t, phi, rotation, readout, untwist) <= best.value * (1 + 1e-9)
        assert best.value <= qfi_numeric(n, t, rotation) + 1e-6

    def test_cat_protocol_reaches_heisenberg_limit(self):
        for n in (4, 8, 12):
            best = maximize_slope_ratio(*protocol_moments(n, PI / 2, 0.19, X_AXIS))
            assert best.value == pytest.approx(n * n, rel=1e-9)

    def test_indeterminate_point_raises(self):
        # phi = pi/N: the probe returns to a coherent state, whose mean-spin
        # axis has neither variance nor slope; read out there, the error is 0/0
        with pytest.raises(IndeterminateRatioError):
            mom(4, PI / 2, PI / 4, X_AXIS, X_AXIS)
        # the best readout leaves that axis out, and no other axis carries a slope
        best = maximize_slope_ratio(*protocol_moments(4, PI / 2, PI / 4, X_AXIS))
        assert best.kind == "lower_bound"
        assert 0.0 <= best.value <= 1e-20


class TestMomAtZero:
    def test_cat_limit(self):
        assert mom_reciprocal_at_zero(4, PI / 2, X_AXIS) == pytest.approx(16.0, rel=1e-9)

    def test_matches_slope_and_variance_rate(self):
        n, t = 20, 0.2
        limit = mom_reciprocal_at_zero(n, t, X_AXIS)
        predicted = small_phi_slope(n, t) ** 2 / numpy_limit_terms(n, t)[2][0, 0]
        assert limit == pytest.approx(predicted, rel=1e-12)

    def test_generic_rotation_is_approached_as_phi_squared(self):
        # the +-phi mean cancels the odd part, so its gap to the limit is O(phi^2):
        # measured 9.8e-7 at phi = 1e-6 and 9.8e-9 at 1e-7
        n = 100
        axis = Direction.from_angles(0.9, 2.1)
        limit = mom_reciprocal_at_zero(n, n**-0.1, axis)

        def gap(phi):
            mean = sum(mom(n, n**-0.1, p, axis, axis) for p in (phi, -phi)) / 2.0
            return abs(mean - limit) / limit

        coarse, fine = gap(1e-6), gap(1e-7)
        assert fine < 1e-7
        assert 80.0 < coarse / fine < 125.0

    @pytest.mark.parametrize("n,t,axis", [(100, 1.0, Y_AXIS), (20, 20**-0.5, Z_AXIS)])
    def test_vanishing_slope_is_a_true_zero(self, n, t, axis):
        limit = mom_reciprocal_at_zero(n, t, axis)
        assert 0.0 <= limit <= 1e-12 * n**2

    @pytest.mark.parametrize("n, times", [(n, None) for n in (4, 5, 20, 200)]
                             + [(2000, (2.5e-7, 1e-3))])
    def test_matches_the_60_digit_terms(self, n, times):
        # against limit_terms, from A where n_perp != 0 and from C_xx^2 / B_xx at +-x.  The
        # root, |n_perp.A n| / (sqrt(N)/2 |n_perp|), sums terms up to about N^(3/2) min(1, Nt),
        # so it is held to that many ulps beyond 2.5e-13 of itself (5e-13 of the limit):
        # measured 8.5e-16 relative at +-x and 7.6e-14 at the other axes, and at most 0.25
        # of the bound where the limit is all but zero (y at t >= pi/4: 5e-64 at N = 4,
        # t = pi/2; 1.2e-10 at N = 20, t = 2, 2.2e-10 off, 0.06 of the bound)
        mpmath = pytest.importorskip("mpmath")
        for t in times or _limit_times(n):
            a, c, b = limit_terms(n, t)
            for axis in _limit_axes(n):
                with mpmath.workdps(60):
                    if axis.ny == axis.nz == 0.0:
                        num, den = c[0] ** 2, b[0]
                    else:
                        v = [mpmath.mpf(x) for x in axis]
                        a_n = [mpmath.fsum(x * y for x, y in zip(row, v)) for row in a]
                        num = (v[1] * a_n[0] + v[2] * a_n[1]) ** 2
                        den = n * (v[1] ** 2 + v[2] ** 2) / 4
                    num, den, want = float(num), float(den), float(num / den)
                if indeterminate(num, den):
                    with pytest.raises(IndeterminateRatioError):
                        mom_reciprocal_at_zero(n, t, axis)
                    continue
                got = mom_reciprocal_at_zero(n, t, axis)
                floor = sys.float_info.epsilon * n**1.5 * min(1.0, n * t)
                assert abs(math.sqrt(got) - math.sqrt(want)) <= (
                    2.5e-13 * math.sqrt(want) + floor), (n, t, axis)

    @pytest.mark.parametrize("n", [4, 5, 20, 200, 2000, 10**5])
    def test_matches_the_numpy_terms(self, n):
        # against numpy_limit_terms' (3, N + 1) stacks, whose sums round each twist phase
        # t m^2 and cancel terms of order N at small t: within 5e-10 of the root (1e-9 of
        # the limit) and 4 N^(3/2) ulps (measured at most 0.43 of that bound, 1.7 N^(3/2)
        # ulps at N = 10^5, t = pi/4, y), and 0/0 at the same points
        for t in _limit_times(n):
            for axis in _limit_axes(n):
                try:
                    want = numpy_mom_reciprocal_at_zero(n, t, axis)
                except IndeterminateRatioError:
                    with pytest.raises(IndeterminateRatioError):
                        mom_reciprocal_at_zero(n, t, axis)
                    continue
                got = mom_reciprocal_at_zero(n, t, axis)
                floor = 4.0 * sys.float_info.epsilon * n**1.5
                assert abs(math.sqrt(got) - math.sqrt(want)) <= (
                    5e-10 * math.sqrt(want) + floor), (n, t, axis)

    def test_checks_its_inputs(self):
        with pytest.raises(ValueError, match="need at least one particle"):
            mom_reciprocal_at_zero(0, 0.3, X_AXIS)
        with pytest.raises(OverflowError, match="interaction time 4.49e\\+307"):
            mom_reciprocal_at_zero(20, 4.49e307, Y_AXIS)


def _limit_times(n):
    """The interaction times of the phi -> 0 limit's accuracy scan at N."""
    return (1e-7, 1e-5, n**-1.5, n**-0.5, 0.3, PI / 4, PI / 2, 2.0)


def _limit_axes(n):
    """x, y, z and two directions drawn with seed N: the scan's rotations at N."""
    rng = random.Random(n)
    return [X_AXIS, Y_AXIS, Z_AXIS] + [
        Direction.from_angles(rng.uniform(0, PI), rng.uniform(-PI, PI)) for _ in range(2)]


def _richardson_derivative(f, x, h):
    """f'(x) from central differences at steps h, h/2, h/4, extrapolated to O(h^6)."""
    d = [(f(x + s) - f(x - s)) / (2.0 * s) for s in (h, h / 2, h / 4)]
    r1 = (4.0 * d[1] - d[0]) / 3.0
    r2 = (4.0 * d[2] - d[1]) / 3.0
    return (16.0 * r2 - r1) / 15.0


def _fd_slope_oracle(n, t, phi0=4e-4):
    """Finite-difference d<Jx>/dphi per unit phi, extrapolated over the phi0 ladder.

    The signal has an O(phi^3) odd part, so a single probe angle carries an
    O(phi0) bias; extrapolating in phi0 removes it.
    """
    def slope_at(p0):
        def sig(p):
            return expectation(protocol_state(n, t, p, X_AXIS), X_AXIS)
        return _richardson_derivative(sig, p0, p0 / 2) / p0

    f1, f2, f3 = slope_at(phi0), slope_at(phi0 / 2), slope_at(phi0 / 4)
    r1, r2 = 2 * f2 - f1, 2 * f3 - f2
    return (4 * r2 - r1) / 3


SATURATION_N = (10**2, 10**3, 10**4, 10**5)


@pytest.fixture(scope="module")
def saturation():
    """max_n L / max QFI and the kind of max_n L at (N, q), t = N^q (t = pi/2 for
    q None), with P, C and B from the shared builder."""
    table = {}
    for n in SATURATION_N:
        for q in (-1.5, -1.0, -0.5, -0.1, None):
            t = PI / 2 if q is None else n**q
            best = maximize_limit(*mom_limit_matrices(*numpy_limit_terms(n, t), n))
            table[n, q] = best.value / max_qfi_over_directions(n, t).value, best.kind
    return table


class TestSaturation:
    """The paper's claim: the phi -> 0 best-readout error, maximized over
    rotations, reaches the twisted probe's largest QFI."""

    def test_never_above_the_qfi(self, saturation):
        # measured <= 1 + 1.4e-13
        assert max(ratio for ratio, _ in saturation.values()) <= 1 + 1e-12

    @pytest.mark.parametrize("q", [-1.5, -1.0, None])
    def test_reaches_the_qfi_at_short_times_and_at_pi_over_2(self, saturation, q):
        # measured |ratio - 1| <= 2.4e-10 (N = 100, q = -1)
        for n in SATURATION_N:
            assert saturation[n, q][0] >= 1 - 1e-9, n

    def test_inverse_sqrt_n_time_tends_to_a_constant_below_one(self, saturation):
        # measured 0.996876, 0.996962, 0.996974, 0.996975
        ratios = [saturation[n, -0.5][0] for n in SATURATION_N]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert 0.9968 <= ratios[0] and ratios[-1] <= 0.99698

    def test_plateau_deficit_falls_with_n(self, saturation):
        # measured 1.87e-2, 3.33e-3, 5.65e-4, 9.34e-5
        deficits = [1 - saturation[n, -0.1][0] for n in SATURATION_N]
        assert all(a > b for a, b in zip(deficits, deficits[1:]))

    def test_smallest_time_is_a_lower_bound(self, saturation):
        # at N = 10^5, t = N^-1.5 the 60-digit limit_terms gives C_yy = -2.2499e-15 and
        # B_yy = 3.3749e-15, and the state path -2.2600e-15 and 3.29e-13 (B_yy is mostly
        # rounding): both sit below the 0/0 rule's 1e-12, so C_yy^2 / B_yy is 0/0
        assert saturation[10**5, -1.5][1] == "lower_bound"


class TestSmallPhiForms:
    def test_slope_vanishes_at_zero_time(self):
        for n in (3, 8, 25):
            assert abs(small_phi_slope(n, 0.0)) < 1e-9 * n**3

    def test_slope_matches_finite_difference(self):
        slope = small_phi_slope(20, 0.2)
        assert slope == pytest.approx(_fd_slope_oracle(20, 0.2), rel=1e-6)

    def test_slope_keeps_its_digits(self):
        # the powers of cos 2t cancelled: at (2000, 1e-7) the slope read +2.38e-7 for
        # -7.996e-8, and at (10^5, 1e-8) it was 1.6e4 off, relative
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 60
        for n in (3, 4, 5, 10, 20, 100, 2000, 10**4, 10**5, 10**6):
            big = mp.mpf(n)
            for t in (1e-8, 1e-7, 1e-5, 1e-3, 0.1, 0.5, 0.78, 1.0, 1.5, 1.57, 1.5707):
                c = mp.cos(2 * mp.mpf(t))
                # the textbook form, its N^3 terms left to cancel in 60 digits
                exact = (-(big / 8) * (big * big + big + big * (big - 1) * c ** (n - 2))
                         + (big * (big - 1) * (big - 2) / 2 * (c ** (n - 3) + c)
                            + big * big * c ** (n - 1) + 2 * big * (big - 1) * c) / 4)
                # where cos 2t <= 0 the power is a 40-digit decimal one, on every platform
                assert abs(small_phi_slope(n, t) - exact) <= 1e-13 * abs(exact), (n, t)

    @pytest.mark.parametrize("n, t, rtol", [(2000, 1e-7, 1e-13), (10**4, 1e-7, 5e-13),
                                            (10**5, 1e-7, 1e-12), (10**6, 1e-8, 1e-9)])
    def test_limit_term_c_xx_is_the_slope(self, n, t, rtol):
        # A's x column vanishes, so C_xx = F_xx is the slope.  C = F - (4/S) sym(E^T A)
        # by difference read +1.8e-7 for -2.0e-6 at (10^4, 1e-7); the residual's C_xx
        # measured 2.6e-14, 1.1e-13, 2.5e-13 and 2.8e-10 off
        c_xx, slope = numpy_limit_terms(n, t)[1][0, 0], small_phi_slope(n, t)
        assert abs(c_xx - slope) <= rtol * abs(slope)

    def test_slope_asymptotic_scaling(self):
        n, alpha = 200, 0.25
        slope = small_phi_slope(n, n**-alpha)
        assert slope**2 == pytest.approx(n ** (6 - 4 * alpha) / 16, rel=0.05)

    def test_variance_rate_asymptotics(self):
        n, alpha = 200, 0.25
        t = n**-alpha
        rate = numpy_limit_terms(n, t)[2][0, 0]
        assert rate == pytest.approx(n ** (4 - 4 * alpha) / 8, rel=0.10)
        assert rate == pytest.approx(n**4 / 8 * math.sin(t) ** 4, rel=0.10)

    @pytest.mark.parametrize("n,t", [(6, 0.8), (20, 0.2)])
    def test_variance_rate_matches_centred_oracle(self, n, t):
        # the +-phi mean of the centred variance over phi^2 is O(phi^2) from the
        # rate: measured 5.0e-10 and 3.3e-10 relative at phi = 1e-5 for these points
        phi = 1e-5
        jx = dense_spin_matrices(n)[0]
        total = 0.0
        for p in (phi, -phi):
            psi = protocol_state(n, t, p, X_AXIS).amplitudes
            applied = jx @ psi
            centred = applied - np.vdot(psi, applied).real * psi
            total += np.vdot(centred, centred).real
        assert numpy_limit_terms(n, t)[2][0, 0] == pytest.approx(total / (2 * phi**2),
                                                                    rel=1e-8)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            small_phi_slope(2, 0.1)


class TestGhzParity:
    @pytest.mark.parametrize("n", [2, 4, 6, 10])
    def test_error_is_inverse_n_squared(self, n):
        rng = np.random.default_rng(n)
        drawn = 0
        while drawn < 10:
            phi = float(rng.uniform(0.05, 1.4))
            if abs(math.sin(n * phi)) < 0.2:  # stay generic: away from fringe extrema
                continue
            drawn += 1
            assert abs(ghz_parity_error(n, phi) - 1.0 / n**2) < 1e-12

    def test_near_a_fringe_extremum(self):
        # N phi is 7.3e-6 from 3 pi: 1 - <P>^2 kept five digits of Var(P) here
        assert abs(ghz_parity_error(10, 0.9424785235958599) - 0.01) <= 1e-12

    def test_indeterminate_at_fringe_extrema(self):
        with pytest.raises(IndeterminateRatioError):
            ghz_parity_error(4, 0.0)


class TestPredictors:
    def test_plateau(self):
        assert asymptotic_predictor("plateau", 100) == 5050.0

    def test_heisenberg_scaling_constant(self):
        expected = 400**2 * (1 - math.exp(-2)) / 2
        assert asymptotic_predictor("heisenberg_scaling", 400, c=1.0) == pytest.approx(expected)

    def test_ghz_edge_small_c_limit(self):
        assert asymptotic_predictor("ghz_edge", 40, c=1e-9) == pytest.approx(1600.0, rel=1e-6)

    def test_sql_default_direction(self):
        assert asymptotic_predictor("sql", 64) == pytest.approx(64.0)

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_heisenberg_limit_is_the_pi_over_2_maximum(self, n):
        assert asymptotic_predictor("heisenberg_limit", n) == pytest.approx(
            max_qfi_over_directions(n, PI / 2).value, rel=1e-12)

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_sub_heisenberg_is_the_closed_form_at_the_peak_time(self, n):
        t_peak = asymptotic_predictor("sub_heisenberg_peak_time", n)
        assert asymptotic_predictor("sub_heisenberg_peak_time", 8 * n) == pytest.approx(
            t_peak / 4, rel=1e-12)  # t ~ N^(-2/3)
        assert asymptotic_predictor("sub_heisenberg", n) == qfi_closed_form(n, t_peak, PI / 2,
                                                                             PI / 2)

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            asymptotic_predictor("warp_drive", 10)


class TestPhaseDiagram:
    def test_scan_covers_phases(self):
        records = phase_diagram_scan(30)
        assert len(records) == 60
        assert records[-1].t == pytest.approx(PI / 2, abs=1e-12)
        assert records[-1].qfi_max == pytest.approx(900.0, rel=1e-9)
        assert records[-1].regime == "heisenberg_limit"
        assert records[0].qfi_max == pytest.approx(30.0, rel=0.02)
        assert records[0].regime == "sql"
        labels = {r.regime for r in records}
        assert "plateau" in labels

    def test_explicit_grid(self):
        records = phase_diagram_scan(16, q_grid=[-0.5])
        assert len(records) == 1
        assert records[0].t == pytest.approx(0.25)

    def test_default_grid_needs_two_particles(self):
        # at N = 1, t = N^q is 1 for every q: the grid's end divided by log 1
        for call in (default_q_grid, phase_diagram_scan):
            with pytest.raises(ValueError, match="at least two particles"):
                call(1)


class TestTimeAveragedQfi:
    def test_needs_a_particle(self):
        with pytest.raises(ValueError):
            time_averaged_qfi(0, PI / 2, 0.0)

    def test_polar_axis_gives_sql(self):
        assert time_averaged_qfi(50, 0.0, 0.0) == pytest.approx(50.0, rel=1e-6)

    def test_sin_squared_scaling(self):
        n = 200
        base = time_averaged_qfi(n, 0.0, 0.0)
        full = time_averaged_qfi(n, PI / 2, 0.0) - base
        for xi in (PI / 6, PI / 4):
            gain = time_averaged_qfi(n, xi, 0.0) - base
            assert gain == pytest.approx(math.sin(xi) ** 2 * full, rel=0.02)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 11, 200, 201, 10**4, 10**5 + 1, 10**6])
    def test_keeps_its_digits(self, n):
        # the same Wallis sum at 50 digits, W(m) = Gamma(m + 1/2) / (sqrt(pi) Gamma(m + 1)),
        # at the float angles; the worst case measured 3.5e-16
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50

        def wallis(m):
            return mp.gamma(m + mp.mpf(0.5)) / (mp.sqrt(mp.pi) * mp.gamma(m + 1))

        big = mp.mpf(n)
        a = (big * big + big) / 2
        b = big * (big - 1) / 2 * wallis((n - 2) // 2) if n % 2 == 0 else 0
        c, y = big * big * wallis(n - 1), 2 * big / mp.pi if n > 1 else 0
        for xi, theta in ((PI / 2, 0.0), (PI / 2, PI / 2), (0.7, 0.3), (1e-8, 0.0)):
            nx = mp.sin(mp.mpf(xi)) * mp.cos(mp.mpf(theta))
            ny, nz = mp.sin(mp.mpf(xi)) * mp.sin(mp.mpf(theta)), mp.cos(mp.mpf(xi))
            exact = nx**2 * (a + b - c) + ny**2 * (a - b) + 2 * ny * nz * y + nz**2 * big
            got = time_averaged_qfi(n, xi, theta)
            assert abs(got - exact) <= 2e-15 * exact, (xi, theta)
