import math

import numpy as np
import pytest

import twistlab.oat_metrology as oat
import twistlab.spin_core as sc
from dicke_oracle import dense_dot, dense_spin_matrices, literal_protocol_state
from sphere_oracle import sphere_search
from twistlab.numerics import IndeterminateRatioError, centred_moments, mom_limit_matrices
from twistlab.oat_metrology import (VARIANTS, ProtocolSpec, asymptotic_predictor,
                                    covariance_matrix, ghz_parity_error,
                                    max_qfi_over_directions,
                                    mom_reciprocal_at_zero, mom_reciprocal_error,
                                    optimal_readout, phase_diagram_scan,
                                    protocol_moments, protocol_state,
                                    qfi_closed_form, qfi_numeric, signal,
                                    small_phi_slope, small_phi_variance_rate,
                                    time_averaged_qfi)
from twistlab.optimizer import maximize_limit
from twistlab.spin_core import (Direction, X_AXIS, Y_AXIS, Z_AXIS, coherent_state,
                                rotate)

PI = math.pi


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
        assert 4 * covariance_matrix(n, t)[0, 0] == pytest.approx(exact, rel=2e-12)

    def test_x_variance_vanishes_at_zero_time(self):
        for n in (1, 2, 1000, 10000):
            assert covariance_matrix(n, 0.0)[0, 0] == 0.0

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
    def test_cat_state_value(self):
        assert qfi_numeric(4, PI / 2, X_AXIS) == pytest.approx(16.0, abs=1e-10)

    def test_coherent_sql(self):
        assert qfi_numeric(10, 0.0, Z_AXIS) == pytest.approx(10.0, abs=1e-10)

    def test_untwist_layer_does_not_change_qfi(self):
        # 4 Var(n.J) of the twisted probe vs of the full twist-untwist family
        n, t = 12, 0.4
        d = Direction.from_angles(1.1, 0.6)
        base = qfi_numeric(n, t, d)
        spec = ProtocolSpec(n, t, 0.0, d)
        state = protocol_state(spec)
        # conjugate the generator through the untwist layer: QFI of the protocol
        # family equals 4 Var of the conjugated generator in the final state
        tw = np.exp(-1j * t * ((n - 2.0 * np.arange(n + 1)) / 2.0) ** 2)
        op = np.conj(tw)[:, None] * dense_dot(n, d) * tw[None, :]
        psi = state.amplitudes
        assert 4 * centred_moments(psi, op @ psi)[1] == pytest.approx(base, rel=1e-9)


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
            assert abs(4 * covariance_matrix(n, t)[1, 1] - float(exact)) <= 1e-15 * float(exact)

    @pytest.mark.parametrize("n,t", [(10, 0.3), (100, 0.05), (100, 0.6), (1000, 0.01)])
    def test_exact_maximum_matches_sphere_search(self, n, t):
        exact = max_qfi_over_directions(n, t)
        search, _ = sphere_search(_pointwise(lambda d: qfi_closed_form(n, t, d.xi, d.theta)))
        assert abs(exact.value - search) <= 1e-9 * exact.value
        assert qfi_closed_form(n, t, exact.xi, exact.theta) == pytest.approx(exact.value, rel=1e-12)
        assert exact.direction.ny > -1e-12


class TestProtocolState:
    def test_zero_twist_is_plain_rotation(self):
        spec = ProtocolSpec(6, 0.0, 0.4, Y_AXIS)
        expected = rotate(coherent_state(6, 1.0), Y_AXIS, 0.4)
        assert np.max(np.abs(protocol_state(spec).amplitudes - expected.amplitudes)) < 1e-13

    def test_cat_protocol_amplitudes(self):
        n, phi = 4, 0.23
        spec = ProtocolSpec(n, PI / 2, phi, X_AXIS)
        state = protocol_state(spec)
        target = (math.cos(n * phi / 2) * coherent_state(n, 1.0).amplitudes
                  - math.sin(n * phi / 2) * coherent_state(n, -1.0).amplitudes)
        phase = np.vdot(target, state.amplitudes)
        phase /= abs(phase)
        assert np.max(np.abs(state.amplitudes - phase * target)) < 1e-12

    def test_realignment_cancels_rotation(self):
        spec = ProtocolSpec(8, 0.6, 0.31, Y_AXIS, variant="twist_untwist_realigned",
                            realign_angle=0.31)
        assert overlap_mod(protocol_state(spec), coherent_state(8, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_realigned_equals_shifted_twist_untwist(self):
        n, t, phi, delta = 10, 0.5, 0.4, 0.11
        d = Direction.from_angles(1.2, -0.7)
        realigned = protocol_state(ProtocolSpec(n, t, phi, d, variant="twist_untwist_realigned",
                                                realign_angle=phi - delta))
        shifted = protocol_state(ProtocolSpec(n, t, delta, d))
        assert overlap_mod(realigned, shifted) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_mach_zehnder_matches_realigned(self, axis):
        n, t, phi, phi2 = 7, 0.45, 0.27, 0.1
        direction = X_AXIS if axis == "x" else Y_AXIS
        mz = protocol_state(ProtocolSpec(n, t, phi, direction, variant="mach_zehnder",
                                         realign_angle=phi2, mz_axis=axis))
        re = protocol_state(ProtocolSpec(n, t, phi, direction,
                                         variant="twist_untwist_realigned", realign_angle=phi2))
        assert overlap_mod(mz, re) == pytest.approx(1.0, abs=1e-10)

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            ProtocolSpec(4, 0.1, 0.1, X_AXIS, variant="bogus")
        with pytest.raises(ValueError):
            ProtocolSpec(4, 0.1, 0.1, X_AXIS, variant="mach_zehnder", mz_axis="z")


# (variant, mz_axis) pairs: the four variants, mach_zehnder with both pulse frames
VARIANT_CASES = [(v, "y") for v in VARIANTS] + [("mach_zehnder", "x")]


def _random_spec(rng, variant, mz_axis):
    return ProtocolSpec(int(rng.integers(1, 31)), float(rng.uniform(0.0, PI / 2)),
                        float(rng.uniform(-1.0, 1.0)),
                        Direction.from_angles(rng.uniform(0, PI), rng.uniform(-PI, PI)),
                        variant=variant, realign_angle=float(rng.uniform(-0.5, 0.5)),
                        mz_axis=mz_axis)


def _literal(spec, angle=None):
    return literal_protocol_state(spec.n_particles, spec.twist_time,
                                  spec.angle if angle is None else angle, spec.rotation,
                                  spec.variant, spec.realign_angle, spec.mz_axis)


class TestOneSensingRotation:
    """Every variant is its one sensing rotation: checked against the layer-by-layer
    protocol built from dense matrices and eigh."""

    @pytest.mark.parametrize("variant,mz_axis", VARIANT_CASES)
    def test_state_matches_literal_layers(self, variant, mz_axis):
        rng = np.random.default_rng(11)
        for _ in range(10):
            spec = _random_spec(rng, variant, mz_axis)
            overlap = abs(np.vdot(_literal(spec), protocol_state(spec).amplitudes))
            assert overlap >= 1.0 - 1e-12

    @pytest.mark.parametrize("variant,mz_axis", VARIANT_CASES)
    def test_moments_match_literal_layers(self, variant, mz_axis):
        rng = np.random.default_rng(12)
        h = 1e-5
        for _ in range(6):
            spec = _random_spec(rng, variant, mz_axis)
            n = spec.n_particles
            jx, jy, jz = dense_spin_matrices(n)[:3]

            def mean(psi):
                return np.array([np.vdot(psi, j @ psi).real for j in (jx, jy, jz)])

            slope, covariance = protocol_moments(spec)
            difference = (mean(_literal(spec, spec.angle + h))
                          - mean(_literal(spec, spec.angle - h))) / (2 * h)
            assert np.max(np.abs(slope - difference)) <= 1e-7 * n * n
            psi = _literal(spec)
            applied = [j @ psi for j in (jx, jy, jz)]
            second = np.array([[np.vdot(a, b).real for b in applied] for a in applied])
            expected = second - np.outer(mean(psi), mean(psi))
            assert np.max(np.abs(covariance - expected)) <= 1e-13 * n * n

    @pytest.mark.parametrize("variant,mz_axis", VARIANT_CASES)
    def test_moments_rotate_once(self, variant, mz_axis, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return rotate(*args, **kwargs)

        monkeypatch.setattr(sc, "rotate", counted)
        protocol_moments(ProtocolSpec(12, 0.3, 0.2, Direction.from_angles(1.0, 0.4),
                                      variant=variant, realign_angle=0.1, mz_axis=mz_axis))
        assert len(calls) == 1


class TestMomReciprocal:
    def test_rotation_only_sql(self):
        for n in (4, 10):
            spec = ProtocolSpec(n, 0.0, 0.3, Z_AXIS, variant="rotation_only")
            assert mom_reciprocal_error(spec, X_AXIS) == pytest.approx(n, abs=1e-9)

    def test_cat_heisenberg(self):
        spec = ProtocolSpec(8, PI / 2, 0.19, X_AXIS)
        assert mom_reciprocal_error(spec, X_AXIS) == pytest.approx(64.0, abs=1e-9)

    def test_indeterminate_at_special_angles(self):
        n = 8
        spec = ProtocolSpec(n, PI / 2, 2 * PI / n, X_AXIS)
        with pytest.raises(IndeterminateRatioError):
            mom_reciprocal_error(spec, X_AXIS)

    def test_never_exceeds_qfi(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 31))
            t = float(rng.uniform(0, PI / 2))
            phi = float(rng.uniform(0.02, 1.2))
            rot = Direction.from_angles(rng.uniform(0, PI), rng.uniform(-PI, PI))
            m = Direction.from_angles(rng.uniform(0, PI), rng.uniform(-PI, PI))
            spec = ProtocolSpec(n, t, phi, rot)
            try:
                mom = mom_reciprocal_error(spec, m)
            except IndeterminateRatioError:
                continue
            assert mom <= qfi_numeric(n, t, rot) + 1e-6


class TestOptimalReadout:
    SPECS = [ProtocolSpec(100, 0.1, 1e-3, Y_AXIS),
             ProtocolSpec(20, 20 ** -0.5, 1e-3, X_AXIS),
             ProtocolSpec(30, 0.7, 0.2, Direction.from_angles(1.1, -0.4),
                          variant="twist_untwist_realigned", realign_angle=0.1),
             ProtocolSpec(26, 0.36, 0.22, Direction.from_angles(0.5, 2.0),
                          variant="rotation_only")]

    @pytest.mark.parametrize("spec", SPECS)
    def test_value_is_the_reciprocal_error_at_the_readout(self, spec):
        best = optimal_readout(spec)
        assert best.direction.ny > -1e-12  # the readout hemisphere, up to rounding
        assert mom_reciprocal_error(spec, best.direction) == pytest.approx(best.value, rel=1e-9)
        for readout in (X_AXIS, Y_AXIS, Z_AXIS, Direction.from_angles(0.7, 0.3)):
            assert mom_reciprocal_error(spec, readout) <= best.value * (1 + 1e-9)
        assert best.value <= qfi_numeric(spec.n_particles, spec.twist_time, spec.rotation) + 1e-6

    def test_cat_protocol_reaches_heisenberg_limit(self):
        for n in (4, 8, 12):
            best = optimal_readout(ProtocolSpec(n, PI / 2, 0.19, X_AXIS))
            assert best.value == pytest.approx(n * n, rel=1e-9)

    def test_indeterminate_point_raises(self):
        # phi = pi/N: the probe returns to a coherent state, whose mean-spin
        # axis has neither variance nor slope; read out there, the error is 0/0
        spec = ProtocolSpec(4, PI / 2, PI / 4, X_AXIS)
        with pytest.raises(IndeterminateRatioError):
            mom_reciprocal_error(spec, X_AXIS)
        # the best readout leaves that axis out, and no other axis carries a slope
        best = optimal_readout(spec)
        assert best.kind == "lower_bound"
        assert 0.0 <= best.value <= 1e-20


class TestMomAtZero:
    def test_cat_limit(self):
        spec = ProtocolSpec(4, PI / 2, 0.0, X_AXIS)
        assert mom_reciprocal_at_zero(spec, X_AXIS) == pytest.approx(16.0, rel=1e-9)

    def test_matches_slope_and_variance_rate(self):
        n, t = 20, 0.2
        spec = ProtocolSpec(n, t, 0.0, X_AXIS)
        limit = mom_reciprocal_at_zero(spec, X_AXIS)
        predicted = small_phi_slope(n, t) ** 2 / small_phi_variance_rate(n, t)
        assert limit == pytest.approx(predicted, rel=1e-12)

    def test_generic_rotation_is_approached_as_phi_squared(self):
        # the +-phi mean cancels the odd part, so its gap to the limit is O(phi^2):
        # measured 9.8e-7 at phi = 1e-6 and 9.8e-9 at 1e-7
        n = 100
        axis = Direction.from_angles(0.9, 2.1)
        spec = ProtocolSpec(n, n**-0.1, 0.0, axis)
        limit = mom_reciprocal_at_zero(spec, axis)

        def gap(phi):
            mean = sum(mom_reciprocal_error(ProtocolSpec(n, n**-0.1, p, axis), axis)
                       for p in (phi, -phi)) / 2.0
            return abs(mean - limit) / limit

        coarse, fine = gap(1e-6), gap(1e-7)
        assert fine < 1e-7
        assert 80.0 < coarse / fine < 125.0

    @pytest.mark.parametrize("n,t,axis", [(100, 1.0, Y_AXIS), (20, 20**-0.5, Z_AXIS)])
    def test_vanishing_slope_is_a_true_zero(self, n, t, axis):
        limit = mom_reciprocal_at_zero(ProtocolSpec(n, t, 0.0, axis), axis)
        assert 0.0 <= limit <= 1e-12 * n**2

    def test_requires_twist_untwist(self):
        spec = ProtocolSpec(6, 0.2, 0.0, X_AXIS, variant="rotation_only")
        with pytest.raises(ValueError):
            mom_reciprocal_at_zero(spec, X_AXIS)


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
            return signal(ProtocolSpec(n, t, p, X_AXIS), X_AXIS)
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
            best = maximize_limit(*mom_limit_matrices(*oat._mom_limit_terms(n, t), n))
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
        # at N = 10^5, t = N^-1.5 C_yy^2 / B_yy is 0/0: both are rounding
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
        wider = np.finfo(np.longdouble).eps < np.finfo(float).eps
        for n in (3, 4, 5, 10, 20, 100, 2000, 10**4, 10**5, 10**6):
            big = mp.mpf(n)
            for t in (1e-8, 1e-7, 1e-5, 1e-3, 0.1, 0.5, 0.78, 1.0, 1.5, 1.57, 1.5707):
                c = mp.cos(2 * mp.mpf(t))
                # the textbook form, its N^3 terms left to cancel in 60 digits
                exact = (-(big / 8) * (big * big + big + big * (big - 1) * c ** (n - 2))
                         + (big * (big - 1) * (big - 2) / 2 * (c ** (n - 3) + c)
                            + big * big * c ** (n - 1) + 2 * big * (big - 1) * c) / 4)
                # where cos 2t <= 0 the power is direct: k roundings without a wider long double
                bound = 1e-13 if math.cos(2 * t) > 0 or wider else 1e-13 + n * 2.3e-16
                assert abs(small_phi_slope(n, t) - exact) <= bound * abs(exact), (n, t)

    def test_slope_asymptotic_scaling(self):
        n, alpha = 200, 0.25
        slope = small_phi_slope(n, n**-alpha)
        assert slope**2 == pytest.approx(n ** (6 - 4 * alpha) / 16, rel=0.05)

    def test_variance_rate_asymptotics(self):
        n, alpha = 200, 0.25
        t = n**-alpha
        rate = small_phi_variance_rate(n, t)
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
            psi = protocol_state(ProtocolSpec(n, t, p, X_AXIS)).amplitudes
            applied = jx @ psi
            centred = applied - np.vdot(psi, applied).real * psi
            total += np.vdot(centred, centred).real
        assert small_phi_variance_rate(n, t) == pytest.approx(total / (2 * phi**2), rel=1e-8)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            small_phi_slope(2, 0.1)
        with pytest.raises(ValueError):
            small_phi_variance_rate(3, 0.1)


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
