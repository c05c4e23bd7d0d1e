"""End-to-end acceptance suite.

Each test pins one headline capability at its stated tolerance and prints a
single PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see
them).  Tolerances are deliberate contracts; do not loosen them to make a
red test green.
"""
import math
from functools import partial

import numpy as np
import pytest

from dicke_oracle import expectation, mom, small_phi_slope, time_averaged_qfi
from ring_oracle import fr_interpolation_forms
from sphere_oracle import sphere_search
import twistlab.spin_core as sc
from twistlab import closed_form as cf
from twistlab import lattice_fr as lat
from twistlab import oat_metrology as oat
from twistlab.cli import main as cli_main
from twistlab.closed_form import Direction, IndeterminateRatioError, X_AXIS, Y_AXIS, Z_AXIS
from twistlab.numerics import mom_limit, mom_limit_matrices
from twistlab.optimizer import maximize_slope_ratio

PI = math.pi


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def test_01_qfi_closed_form_vs_brute_force():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        t = float(rng.uniform(1e-9, PI / 2))
        xi = float(rng.uniform(0.0, PI))
        theta = float(rng.uniform(-PI, PI))
        closed = oat.qfi_closed_form(n, t, xi, theta)
        numeric = oat.qfi_numeric(n, t, Direction.from_angles(xi, theta))
        worst = max(worst, abs(closed - numeric) / max(abs(numeric), 1e-300))
    report("01 qfi-closed-form-vs-brute-force", worst < 1e-9,
           f"100 draws, max rel diff {worst:.3e} < 1e-9")


def test_02_ghz_parity_pipeline():
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (2, 4, 6, 10):
        for _ in range(10):
            phi = float(rng.uniform(0.05, 1.5))
            worst = max(worst, abs(oat.ghz_parity_error(n, phi) - 1.0 / n**2))
    report("02 ghz-parity-error", worst < 1e-12,
           f"N in 2,4,6,10 x 10 angles, max |err - 1/N^2| {worst:.3e} < 1e-12")


def test_03_rotation_only_sql():
    worst = 0.0
    for n in (4, 10, 50):
        value = mom(n, 0.0, 0.3, Z_AXIS, X_AXIS, untwist=False)
        worst = max(worst, abs(value - n))
    report("03 rotation-only-sql", worst < 1e-9,
           f"N in 4,10,50: max |reciprocal - N| {worst:.3e} < 1e-9")


def test_04_cat_protocol_heisenberg():
    worst = 0.0
    for n in (4, 8, 12):
        value = mom(n, PI / 2, 0.19, X_AXIS, X_AXIS)
        worst = max(worst, abs(value - n * n))
    indeterminate_ok = True
    for n, k in ((4, 1), (8, 3), (12, 5)):
        try:
            mom(n, PI / 2, k * PI / n, X_AXIS, X_AXIS)
            indeterminate_ok = False
        except IndeterminateRatioError:
            pass
    report("04 cat-protocol-heisenberg", worst < 1e-9 and indeterminate_ok,
           f"N in 4,8,12: max |reciprocal - N^2| {worst:.3e} < 1e-9; "
           f"phi = k pi/N flagged indeterminate: {indeterminate_ok}")


def test_05_qfi_plateau():
    n = 100
    plateau = n * (n + 1) / 2
    worst = 0.0
    for t in np.linspace(0.3, 1.2, 20):
        value = cf.max_qfi_over_directions(n, float(t)).value
        worst = max(worst, abs(value - plateau) / plateau)
    report("05 qfi-plateau", worst < 0.01,
           f"N=100, 20 times in [0.3, 1.2]: max rel dev from 5050 is {worst:.3e} < 1%")


def test_06_heisenberg_scaling_constant():
    n = 400
    t = 1.0 / math.sqrt(n)
    target = n * n * (1 - math.exp(-2)) / 2
    value = cf.max_qfi_over_directions(n, t).value
    rel = abs(value - target) / target
    report("06 heisenberg-scaling-constant", rel < 0.05,
           f"N=400, t=N^-1/2: max QFI {value:.1f} vs N^2(1-e^-2)/2 = {target:.1f}, "
           f"rel dev {rel:.3e} < 5%")


def _richardson_derivative(f, x, h):
    """f'(x) from central differences at steps h, h/2, h/4, extrapolated to O(h^6)."""
    d = [(f(x + s) - f(x - s)) / (2.0 * s) for s in (h, h / 2, h / 4)]
    r1 = (4.0 * d[1] - d[0]) / 3.0
    r2 = (4.0 * d[2] - d[1]) / 3.0
    return (16.0 * r2 - r1) / 15.0


def _fd_slope(n, t, phi0=4e-4):
    def slope_at(p0):
        def sig(p):
            chi, untwist = oat._sensed(n, t, p, X_AXIS)
            return expectation(sc.CollectiveState(n, chi * untwist), X_AXIS)
        return _richardson_derivative(sig, p0, p0 / 2) / p0

    f1, f2, f3 = slope_at(phi0), slope_at(phi0 / 2), slope_at(phi0 / 4)
    r1, r2 = 2 * f2 - f1, 2 * f3 - f2
    return (4 * r2 - r1) / 3


def test_07_twist_untwist_saturation_and_slope():
    n = 100
    t = n ** (-1 / 10)
    limit = oat.mom_reciprocal_at_zero(n, t, X_AXIS)
    qfi = cf.max_qfi_over_directions(n, t).value
    ratio = limit / qfi
    slope = small_phi_slope(20, 0.2)
    fd = _fd_slope(20, 0.2)
    slope_rel = abs(slope - fd) / abs(fd)
    report("07 twist-untwist-saturation", ratio >= 0.90 and slope_rel < 1e-6,
           f"N=100, t=N^-0.1: phi->0 reciprocal {limit:.1f} is {ratio:.3f} of max QFI "
           f"{qfi:.1f} (need >= 0.90); slope formula vs finite difference rel "
           f"{slope_rel:.3e} < 1e-6")


def test_08_small_time_readout_optimization():
    n = 100
    t = n ** (-1 / 2)
    phi = 1e-3
    path_qfi = oat.qfi_numeric(n, t, Y_AXIS)

    best = maximize_slope_ratio(*oat.protocol_moments(n, t, phi, Y_AXIS))
    yy = mom(n, t, phi, Y_AXIS, Y_AXIS)
    rel = abs(best.value - path_qfi) / path_qfi
    report("08 small-time-readout-optimization", rel < 0.02 and yy < best.value,
           f"N=100, t=N^-0.5, phi=1e-3: optimized readout {best.value:.1f} within "
           f"{rel:.3e} of the rotation-path QFI {path_qfi:.1f} (< 2%); fixed y/y "
           f"{yy:.1f} strictly below")
    at_best = mom(n, t, phi, Y_AXIS, best.direction)
    assert abs(at_best - best.value) <= 1e-9 * best.value, (at_best, best.value)


def test_09_ring_variance_formulas():
    rng = np.random.default_rng(31)
    worst = 0.0
    cases = 0
    for sites in (6, 8, 10, 12):
        n = sites - 2
        for k in range(1, n // 2 + 1):
            system = lat.build_system(n, k)
            for _ in range(10):
                t = float(rng.uniform(1e-3, PI / 2))
                xi = float(rng.uniform(0.1, PI - 0.1))
                theta = float(rng.uniform(-PI, PI))
                state = lat.fr_evolve(lat.plus_state(sites), system, t)
                brute = lat.lattice_variance(state, Direction.from_angles(xi, theta))
                analytic = lat.fr_variance_analytic(n, k, t, xi, theta)
                worst = max(worst, abs(analytic - brute) / max(abs(brute), 1e-300))
                cases += 1
    report("09 ring-variance-formulas", worst < 1e-9,
           f"{cases} cases over 6-12 sites, all legal K: max rel err {worst:.3e} < 1e-9")


def test_10_ring_phase_diagram_overlays():
    n = 98
    worst_small, worst_large = 0.0, 0.0
    for t in np.linspace(0.4, 1.2, 17):
        t = float(t)
        v25 = cf.fr_max_qfi(n, 25, t).value
        inter1 = fr_interpolation_forms("inter1", n, t=t)
        worst_small = max(worst_small, abs(v25 - inter1) / inter1)
        v49 = cf.fr_max_qfi(n, 49, t).value
        large = fr_interpolation_forms("largescale", n, t=t)
        worst_large = max(worst_large, abs(v49 - large) / large)
    endpoint = cf.fr_max_qfi(98, 49, PI / 2).value
    end_rel = abs(endpoint - 200.0) / 200.0
    report("10 ring-phase-diagram-overlays",
           worst_small < 0.05 and worst_large < 0.05 and end_rel < 0.02,
           f"K=25 vs inter1 max dev {worst_small:.3e}, K=49 vs largescale max dev "
           f"{worst_large:.3e} (< 5%); doubled-SQL endpoint {endpoint:.2f} within "
           f"{end_rel:.3e} of 200 (< 2%)")


# rotations of reference joint-protocol optima, from the y-tilted family that
# is optimal for these ranges; the best readout for a rotation is exact
REFERENCE_ROTATIONS = {2: (0.00020, 0.86559, 0.50076), 4: (0.00010, 0.92735, 0.37419)}


def test_11_ring_joint_protocol_optimization():
    n, phi = 8, 1e-3
    grid = [(j + 1) * (PI / 2) / 40 for j in range(40)]
    details = []
    ok = True
    for k in (2, 4):
        system = lat.build_system(n, k)
        best_by_t = [lat.fr_optimal_protocol(system, t, phi) for t in grid]
        idx = int(np.argmax([b.value for b in best_by_t]))
        t_best, achieved = grid[idx], best_by_t[idx].value
        # re-refine from the reference rotation: search the phi -> 0 limit in a
        # box around it, then take that rotation's exact best readout
        ref = Direction.from_vector(*REFERENCE_ROTATIONS[k])
        limit = partial(mom_limit, *mom_limit_matrices(*lat._mom_limit_terms(system, t_best),
                                                       system.n_sites))
        _, refined = sphere_search(limit,
                                   xi=(max(ref.xi - 0.1, 0.0), min(ref.xi + 0.1, PI)),
                                   theta=(max(ref.theta - 0.1, -PI), min(ref.theta + 0.1, PI)))
        ref_value = maximize_slope_ratio(*lat.fr_protocol_moments(system, t_best, phi,
                                                                  refined)).value
        qfi = cf.fr_max_qfi(n, k, t_best).value
        gap = abs(achieved - qfi)
        vec_rel = abs(achieved - ref_value) / achieved
        ok = ok and gap < 1.0 and vec_rel < 1e-3
        details.append(f"K={k}: t*={t_best:.3f}, mom* {achieved:.3f} vs QFI {qfi:.3f} "
                       f"(gap {gap:.3f} < 1), reference-vector refinement within {vec_rel:.2e}")
    report("11 ring-joint-protocol-optimization", ok, "; ".join(details))


def _wallis(m: int) -> float:
    """(2/pi) * integral of cos(t)^(2m) over [0, pi/2] = C(2m, m) / 4^m (exact ints)."""
    return math.comb(2 * m, m) / 4**m


def _exact_time_average(n: int) -> float:
    """A(N): the (2/pi) time average of the closed form at xi = pi/2, theta = 0."""
    value = n * (n + 1) / 2 - n * n * _wallis(n - 1)
    if n % 2 == 0:  # the cos(2t)^(N-2) term averages to zero for odd N
        value += n * (n - 1) / 2 * _wallis((n - 2) // 2)
    return value


def test_12_time_averaged_qfi():
    """Exact finite-N time average and its 1/sqrt(N) approach to N(N+1)/2.

    At xi = pi/2, theta = 0 the closed form is
    N(N+1)/2 + N(N-1)/2 cos(2t)^(N-2) - N^2 cos(t)^(2(N-1)), and its (2/pi)
    average over t in [0, pi/2] is a sum of Wallis integrals
    W(m) = C(2m, m) / 4^m:

        A(N) = N(N+1)/2 + N(N-1)/2 W((N-2)/2) - N^2 W(N-1),

    the middle term present for even N only.  With W(m) ~ 1/sqrt(pi m) the
    relative deficit 1 - A/(N(N+1)/2) tends to c/sqrt(N), where
    c = 2(1 - 1/sqrt(2))/sqrt(pi) ~ 0.3305 for even N and 2/sqrt(pi) ~ 1.128
    for odd N.  N(N+1)/2 is therefore the N -> infinity limit only: at
    N = 200 the exact deficit is 2.35%, so a 2% gate against N(N+1)/2 there
    contradicts the derivation (it holds for even N from about 276 up).

    Checked here: the program's average equals A(200) within its quadrature
    tolerance 1e-6 N^2, and deficit * sqrt(N) is positive and within 1% of
    its constant for even N in 200, 800, 3200 and odd N in 201, 801.
    """
    n = 200
    value = time_averaged_qfi(n, PI / 2, 0.0)
    exact = _exact_time_average(n)
    exact_ok = abs(value - exact) <= 1e-6 * n * n

    constants = {0: 2 * (1 - 1 / math.sqrt(2)) / math.sqrt(PI), 1: 2 / math.sqrt(PI)}
    worst = 0.0
    approach_ok = True
    for m in (200, 800, 3200, 201, 801):
        plateau = m * (m + 1) / 2
        deficit = 1 - time_averaged_qfi(m, PI / 2, 0.0) / plateau
        dev = abs(deficit * math.sqrt(m) / constants[m % 2] - 1)
        worst = max(worst, dev)
        approach_ok = approach_ok and deficit > 0 and dev < 0.01
    report("12 time-averaged-qfi", exact_ok and approach_ok,
           f"N=200, xi=pi/2, theta=0: average {value:.6f} vs exact {exact:.6f} "
           f"(tol {1e-6 * n * n:.0e}); deficit*sqrt(N) off 0.3305 (even) / "
           f"1.128 (odd) by at most {worst:.4f} at N=200..3200 (gate 1%)")


def test_13_property_suite():
    # QCRI dominance on random protocol draws
    rng = np.random.default_rng(1234)
    variants = ("rotation_only", "twist_untwist", "twist_untwist_realigned")
    checked = 0
    qcri_ok = True
    while checked < 200:
        n = int(rng.integers(2, 41))
        t = float(rng.uniform(0.0, PI / 2))
        phi = float(rng.uniform(0.02, 1.2))
        rot = Direction.from_angles(rng.uniform(0, PI), rng.uniform(-PI, PI))
        m = Direction.from_angles(rng.uniform(0, PI), rng.uniform(-PI, PI))
        variant = variants[int(rng.integers(0, 3))]
        axis, angle, untwist = oat.sensing(variant, rot, phi, float(rng.uniform(-0.4, 0.4)))
        try:
            value = mom(n, t, angle, axis, m, untwist)
        except IndeterminateRatioError:
            continue
        checked += 1
        qcri_ok = qcri_ok and value <= oat.qfi_numeric(n, t, rot) + 1e-6

    # unitarity / normalization / algebra spot checks
    algebra_ok = True
    for n in (1, 7, 19, 30):
        jx, jy, jz = sc._spin_apply(np.eye(n + 1, dtype=complex)).transpose(0, 2, 1)
        algebra_ok = algebra_ok and np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) < 1e-12
    state = sc.coherent_state(25, 0.3 + 0.8j)
    for _ in range(5):
        state = sc.rotate(state, Direction.from_angles(rng.uniform(0, PI),
                                                       rng.uniform(-PI, PI)),
                          float(rng.uniform(-2, 2)))
        state = sc.oat_evolve(state, float(rng.uniform(0, 1.5)))
        algebra_ok = algebra_ok and abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12

    # deterministic CLI reruns are byte-identical apart from `#` comments
    import io
    from contextlib import redirect_stdout

    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli_main(argv) == 0
        return "\n".join(ln for ln in buf.getvalue().splitlines() if not ln.startswith("#"))

    args = ["phase-diagram", "--n", "40", "--q-points", "10"]
    determinism_ok = run(args) == run(args)

    report("13 property-suite", qcri_ok and algebra_ok and determinism_ok,
           f"QCRI on 200 protocol draws: {qcri_ok}; algebra/unitarity: {algebra_ok}; "
           f"deterministic reruns: {determinism_ok}")


def test_14_longrange_heisenberg_dicke_limit():
    """The paper's long-range form N^2 (1 - e^{-2c^2})/2 as the Dicke limit at t = c/sqrt(N).

    With c = 1, max QFI / form - 1 falls as 1/N: (ratio - 1) N reads 2.8402, 2.8615,
    2.8636, 2.86383 and 2.86386 at N = 10^2..10^6, its corrections falling tenfold a
    decade.  Checked here: (ratio - 1) N rises monotonically and each decade's step is
    at most a fifth of the one before, so the product has a limit and the form is the
    N -> infinity limit of the QFI, approached from above.
    """
    scaled = []
    for n in (10**2, 10**3, 10**4, 10**5, 10**6):
        ratio = (cf.max_qfi_over_directions(n, 1.0 / math.sqrt(n)).value
                 / fr_interpolation_forms("longrange_heisenberg", n, c=1.0))
        scaled.append((ratio - 1.0) * n)
    steps = np.diff(scaled)
    ok = bool(scaled[0] > 0 and np.all(steps > 0) and np.all(steps[1:] <= steps[:-1] / 5))
    report("14 longrange-heisenberg-dicke-limit", ok,
           f"(max QFI / form - 1) N at t = 1/sqrt(N), N = 1e2..1e6: "
           f"{', '.join(f'{v:.5f}' for v in scaled)} (rising, steps shrinking >= 5x)")


def test_15_longrange_heisenberg_ring_limit():
    """The same form as the ring's limit at K = M/2 - 1, t = c/sqrt(M), M = N + 2 sites.

    With c = 1, (fr_max_qfi / form - 1) M reads 5.41, 5.25 and 5.24 at M = 10^2, 10^3
    and 10^4.  Checked here: it falls with M and is within 0.05 of 5.24 from M = 10^3
    on, so the form is the all-to-all ring's M -> infinity limit too.
    """
    scaled = []
    for m in (10**2, 10**3, 10**4):
        n = m - 2
        ratio = (cf.fr_max_qfi(n, m // 2 - 1, 1.0 / math.sqrt(m)).value
                 / fr_interpolation_forms("longrange_heisenberg", n, c=1.0))
        scaled.append((ratio - 1.0) * m)
    ok = scaled[0] > scaled[1] > scaled[2] and all(abs(v - 5.24) <= 0.05 for v in scaled[1:])
    report("15 longrange-heisenberg-ring-limit", ok,
           f"(max QFI / form - 1) M at K = M/2 - 1, t = 1/sqrt(M), M = 1e2..1e4: "
           f"{', '.join(f'{v:.4f}' for v in scaled)} (falling, within 0.05 of 5.24 from 1e3)")


def test_16_bestshort_ring_limit():
    """The paper's short-range form as the ring's limit at t = c/sqrt(K), M = 100 K + 2 sites.

    bestshort is on the variance scale, so its QFI is 4 max_theta bestshort (the form is
    linear in cos 2 theta, so theta in {0, pi/2} is exact).  With c = 1, (max QFI / that - 1) K
    reads 2.01270, 2.02695, 2.03310, 2.03498 and 2.03565 at K = 10, 30, 100, 300 and 1000, the
    same digits at M = 20 K.  Checked here: it rises monotonically and each step is at most
    half the one before, so the deficit falls as 1/K and the form is the K -> infinity limit.
    """
    scaled = []
    for k in (10, 30, 100, 300, 1000):
        n = 100 * k
        best = max(fr_interpolation_forms("bestshort", n, range_k=k, c=1.0, theta=theta)
                   for theta in (0.0, PI / 2))
        ratio = cf.fr_max_qfi(n, k, 1.0 / math.sqrt(k)).value / (4.0 * best)
        scaled.append((ratio - 1.0) * k)
    steps = np.diff(scaled)
    ok = bool(scaled[0] > 0 and np.all(steps > 0) and np.all(steps[1:] <= steps[:-1] / 2))
    report("16 bestshort-ring-limit", ok,
           f"(max QFI / (4 bestshort) - 1) K at t = 1/sqrt(K), M = 100 K + 2, K = 10..1000: "
           f"{', '.join(f'{v:.5f}' for v in scaled)} (rising, steps shrinking >= 2x)")
