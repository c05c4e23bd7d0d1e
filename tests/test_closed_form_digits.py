"""The ring overlays inter1, inter2 and largescale and every asymptotic_predictor
regime (test oracles) against the same formula at 50 digits, at the same float
arguments, fr-qfi's two overlays against the oracle bit for bit, and the
extended-precision cosine powers against 60 digits.

Each form is held to ULPS ulps of its value times a condition number stated
with it: 1 where the formula is a sum of non-negative terms, each a product of
a few roundings, so that no sum cancels; more where a rounded input enters a
power or a difference (see each case).  A form that fails is rewritten, as
ghz_edge was, and the bound is not widened.
"""
import math
import platform
import random
import sys

import numpy as np
import pytest

from dicke_oracle import SUB_HEISENBERG_PEAK_COEFF, asymptotic_predictor
from ring_oracle import fr_interpolation_forms
from twistlab import closed_form as cf

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp.clone()
mp.dps = 50

ULPS = 4
EPS = np.finfo(float).eps
PI = math.pi

NS = [10, 11, 100, 1001, 10**4, 10**5 + 1, 10**6]
TIMES = np.geomspace(1e-8, PI / 2, 33).tolist() + [1e-3, 0.5, 1.0, 1.5, PI / 2]
CS = np.geomspace(1e-8, 10.0, 33).tolist() + [1e-5, 1e-3, 0.5, 1.0]
ANGLES = [PI / 2, 0.7, 1e-8, 3.0]


def assert_digits(got, exact, cond, where):
    assert abs(got - exact) <= ULPS * EPS * cond * abs(exact), (where, float(got / exact - 1))


@pytest.mark.parametrize("n", NS)
def test_inter1(n):
    m = mp.mpf(n + 2)
    for t in TIMES:
        for xi in ANGLES:
            sx = mp.sin(mp.mpf(xi)) ** 2
            exact = m / mp.sin(mp.mpf(t)) ** 2 * sx + m * (1 - sx)
            assert_digits(fr_interpolation_forms("inter1", n, t=t, xi=xi), exact, 1, (t, xi))


@pytest.mark.parametrize("n", NS)
def test_inter2(n):
    # the paper's (1 - cos^4 t)/sin^2 t, which the code takes as 1 + cos^2 t
    big, m = mp.mpf(n), mp.mpf(n + 2)
    for t in TIMES:
        c2, s2 = mp.cos(mp.mpf(t)) ** 2, mp.sin(mp.mpf(t)) ** 2
        for xi in ANGLES:
            sx = mp.sin(mp.mpf(xi)) ** 2
            exact = (sx / 8 * (c2 * (big * big - 4) + 2 * m * (1 - c2 * c2) / s2 + m)
                     + m / 4 * (1 - sx))
            assert_digits(fr_interpolation_forms("inter2", n, t=t, xi=xi), exact, 1, (t, xi))


@pytest.mark.parametrize("n", NS)
def test_largescale(n):
    big, m = mp.mpf(n), mp.mpf(n + 2)
    for t in TIMES:
        c2 = mp.cos(mp.mpf(t)) ** 2
        exact = (big * big - 4) / 2 * c2 + m / 2 * (3 + 2 * c2)
        assert_digits(fr_interpolation_forms("largescale", n, t=t), exact, 1, t)


@pytest.mark.parametrize("n", NS)
def test_fr_qfi_overlays_are_the_forms_bit_for_bit(n):
    # fr-qfi's two columns, from the library, are inter1 at xi = pi/2 and largescale: where
    # the form adds M cos^2(pi/2) ~ 3.7e-33 M to M/sin^2 t >= M, it is below half an ulp
    draws = random.Random(n)
    for t in TIMES + [draws.uniform(1e-8, PI / 2) for _ in range(2000)]:
        assert cf.overlay_inter(n, t) == fr_interpolation_forms("inter1", n, t=t), t
        assert cf.overlay_largescale(n, t) == fr_interpolation_forms("largescale", n, t=t), t


@pytest.mark.parametrize("n", NS)
def test_sql_plateau_and_limit(n):
    big = mp.mpf(n)
    for xi in ANGLES:
        for theta in ANGLES:
            sx, st = mp.sin(mp.mpf(xi)) ** 2, mp.sin(mp.mpf(theta)) ** 2
            exact = big * (sx * st + mp.cos(mp.mpf(xi)) ** 2)
            assert_digits(asymptotic_predictor("sql", n, xi=xi, theta=theta), exact, 1,
                          (xi, theta))
    for regime in ("plateau", "constant_time"):
        assert_digits(asymptotic_predictor(regime, n), big * (big + 1) / 2, 1, regime)
    assert_digits(asymptotic_predictor("heisenberg_limit", n), big * big, 1, "limit")


@pytest.mark.parametrize("n", NS)
def test_heisenberg_scaling(n):
    big = mp.mpf(n)
    for c in CS:
        exact = big * big * (1 - mp.exp(-2 * mp.mpf(c) ** 2)) / 2
        assert_digits(asymptotic_predictor("heisenberg_scaling", n, c=c), exact, 1, c)


@pytest.mark.parametrize("n", NS)
def test_ghz_edge(n):
    # sin^2 xi [(N^2/2)(1 + s e^(-2c^2)) + (N/2)(1 - s e^(-2c^2))], s = +-cos 2 theta (+ for
    # even N), theta 0 for even N and pi/2 for odd N by default.  Where s = -1, 1 + s e
    # formed by subtraction was 2.65e-12 off at (10^6, c = 1e-3) and 8.3e-12 at c = 1e-5
    big, sign = mp.mpf(n), 1 if n % 2 == 0 else -1
    for theta in (None, 0.0, PI / 2, 1e-6, PI / 2 - 1e-6, 0.3, 1.2):
        th = (0.0 if n % 2 == 0 else PI / 2) if theta is None else theta
        s = sign * mp.cos(2 * mp.mpf(th))
        for c in CS:
            damp = s * mp.exp(-2 * mp.mpf(c) ** 2)
            for xi in (PI / 2, 0.7):
                exact = mp.sin(mp.mpf(xi)) ** 2 * (big * big / 2 * (1 + damp)
                                                   + big / 2 * (1 - damp))
                got = asymptotic_predictor("ghz_edge", n, c=c, xi=xi, theta=theta)
                assert_digits(got, exact, 1, (theta, c, xi))


def _peak_time(n):
    return mp.mpf(24) ** (mp.mpf(1) / 6) * mp.mpf(2) ** (mp.mpf(2) / 3) / 2 / mp.mpf(n) ** (
        mp.mpf(2) / 3)


@pytest.mark.parametrize("n", NS)
def test_sub_heisenberg(n):
    # t_peak = C / N^(2/3): the float exponent 2/3 is 3.7e-17 off, which moves N^(2/3)
    # by (2/3) ln N of that, 1.2 ulps at N = 10^6: condition number 1 + ln N / 2
    t_peak = _peak_time(n)
    assert_digits(SUB_HEISENBERG_PEAK_COEFF, _peak_time(1), 1, "coefficient")
    cond_t = 1 + math.log(n) / 2
    assert_digits(asymptotic_predictor("sub_heisenberg_peak_time", n), t_peak, cond_t, "t")
    # the QFI along y at t_peak, N + N (N - 1)/2 (1 - cos(2t)^(N-2)) (covariance_matrix's
    # Sigma_yy), whose log-derivative in t is below 2: condition number 2 cond_t
    big = mp.mpf(n)
    exact = big + big * (big - 1) / 2 * (1 - mp.cos(2 * t_peak) ** (n - 2))
    assert_digits(asymptotic_predictor("sub_heisenberg", n), exact, 2 * cond_t, "qfi")


# (k, t) of cos^k t where cos t or cos 2t <= 0, and cos^k 2t at t = pi/4 +- 1e-9, where
# cos 2t is near 0.  Measured: every power within 2.5e-40 of 60 digits, and each rounds
# to the float that the 60-digit value rounds to
POWERS = [(997, 1.0), (41, 3.0), (1000, 1e10), (7, 1e300)] + [
    (k, 2.0 * t) for t in (PI / 4 - 1e-9, PI / 4 + 1e-9) for k in (1, 3, 41, 997)]


@pytest.mark.parametrize("k, t", POWERS)
def test_decimal_powers(k, t):
    mp60 = mpmath.mp.clone()
    mp60.dps = 60
    exact = mp60.cos(mp60.mpf(t)) ** k
    with cf._digits():
        got = cf._decimal_cos(t) ** k
    assert abs(mp60.mpf(str(got)) - exact) <= 1e-38 * abs(exact)
    if abs(exact) >= sys.float_info.min:  # a normal float: the correctly rounded one
        assert abs(float(got) - exact) <= (EPS / 2 + 1e-38) * abs(exact)


LONG_DOUBLE_IS_WIDER = np.finfo(np.longdouble).eps < np.finfo(float).eps


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or not LONG_DOUBLE_IS_WIDER, reason="needs x86-64's 80-bit long double")
@pytest.mark.parametrize("k, t", POWERS)
def test_decimal_powers_match_long_double(k, t):
    # the 80-bit power of the long double cosine, the route these powers took before,
    # rounds to the same float
    with cf._digits():
        got = float(cf._decimal_cos(t) ** k)
    assert got == float(np.cos(np.longdouble(t)) ** k)
