import cmath
import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from scipy import special as sps

from photonstat import specfun
from photonstat.errors import DomainError, PoleError, RangeOverflowError
from photonstat.gaussian_state import OneModeGaussianState, _generating_record, r_matrix
from photonstat.specfun import (
    LogSigned,
    _log_row_sums,
    assoc_legendre,
    gauss_2f1_terminating,
    hermite,
    hermite_2d,
    hermite_sequence_log,
    laguerre_half,
    laguerre_half_sequence,
    log_cauchy_rows,
    log_factorial,
    log_factorials,
    log_powers,
    log_signed_values,
    logsigned_sum,
)


def hermite_series(n, z):
    """Independent oracle: explicit monomial sum H_n(z) = n! sum_m (-1)^m (2z)^(n-2m) / (m! (n-2m)!)."""
    total = 0j
    for m in range(n // 2 + 1):
        total += (
            (-1) ** m
            * (2 * z) ** (n - 2 * m)
            / (math.factorial(m) * math.factorial(n - 2 * m))
        )
    return math.factorial(n) * total


class TestHermite:
    def test_degree_zero_is_one(self):
        for z in (0, 2.5, 1 + 3j, -7.2):
            assert hermite(0, z) == 1

    def test_degree_one(self):
        assert hermite(1, 2 + 0j) == 4

    def test_even_value_at_origin(self):
        # closed form H_{2m}(0) = (-1)^m (2m)!/m!
        assert hermite(4, 0) == 12

    def test_recurrence_matches_series(self):
        zs = [0.0, 0.5, -1.0, 3.0, 5.0, 2 + 2j, -4 + 3j, 5j]
        for n in range(21):
            for z in zs:
                ref = hermite_series(n, complex(z))
                got = hermite(n, z)
                assert abs(got - ref) <= 1e-10 * max(abs(ref), 1.0)

    def test_matches_scipy_on_real_axis(self):
        for n in (3, 7, 12, 25):
            for x in (-2.5, 0.3, 4.0):
                assert hermite(n, x).real == pytest.approx(
                    float(sps.eval_hermite(n, x)), rel=1e-10
                )

    def test_conjugate_symmetry(self):
        for n in (3, 8, 15):
            for z in (1 + 2j, -0.5 + 0.25j, 3 - 4j):
                a = hermite(n, z.conjugate())
                b = hermite(n, z).conjugate()
                assert abs(a - b) <= 1e-14 * max(abs(a), 1.0)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            hermite(-1, 0.5)

    def test_overflow_raises_and_log_path_survives(self):
        with pytest.raises(RangeOverflowError):
            hermite(800, 30.0)
        mag, ph = hermite_sequence_log(30.0, 800)
        assert math.isfinite(mag[-1])
        assert abs(abs(ph[-1]) - 1) < 1e-12

    @pytest.mark.parametrize("n, z", [(2, 1e200), (5, math.inf), (5, math.nan)])
    def test_recurrence_past_the_double_range_raises(self, n, z):
        # the recurrence leaves NaN behind, which used to come back as nan+nanj
        with pytest.raises(RangeOverflowError):
            hermite(n, z)


class TestHermiteSequenceLog:
    @pytest.mark.parametrize(
        "z, n_max", [(0, 60), (0.3, 60), (0.3 + 0.2j, 60), (2j, 60), (30.0, 800)]
    )
    def test_matches_mpmath(self, z, n_max):
        # z = 30 passes the 1e250 rescale near n = 150; a log-magnitude near
        # 3000 is compared relative to itself, a small one absolutely
        mag, ph = hermite_sequence_log(z, n_max)
        assert mag.shape == ph.shape == (n_max + 1,)
        with mpmath.workdps(40):
            for n in range(n_max + 1):
                ref = mpmath.hermite(n, mpmath.mpmathify(z))
                if ref == 0:
                    assert mag[n] == -np.inf and ph[n] == 0
                    continue
                ref_mag = float(mpmath.log(abs(ref)))
                assert abs(mag[n] - ref_mag) <= 1e-13 * max(1.0, abs(ref_mag))
                assert abs(ph[n] - complex(ref / abs(ref))) <= 1e-13

    # the first is the Hermite argument of the squeezed/correlated law at
    # r = 5.6e-309, theta = 0.3, <q> = 1, <p> = -0.5
    @pytest.mark.parametrize("z", [7.105742417331425e153 - 2.3047768063542277e153j, -1e200, 1e300j])
    def test_argument_whose_square_overflows(self, z):
        # H_2 = (2z)^2 - 2 overflowed: NaN for the first, inf for the second
        mag, ph = hermite_sequence_log(z, 40)
        with mpmath.workdps(40):
            for n in range(41):
                ref = mpmath.hermite(n, mpmath.mpmathify(z))
                ref_mag = float(mpmath.log(abs(ref)))
                assert abs(mag[n] - ref_mag) <= 1e-13 * max(1.0, abs(ref_mag))
                assert abs(ph[n] - complex(ref / abs(ref))) <= 1e-13

    @pytest.mark.parametrize("scale", [1, 0.3, 1e-160])
    @pytest.mark.parametrize("z, n_max", [(0.7, 60), (0.4 - 1.1j, 60), (30.0, 400)])
    def test_scaled_matches_mpmath(self, z, n_max, scale):
        # s^n H_n(z / s); z = 30 passes the 1e250 rescale at every scale
        mag, ph = hermite_sequence_log(z, n_max, scale)
        with mpmath.workdps(40):
            s = mpmath.mpf(scale)
            for n in range(n_max + 1):
                ref = s**n * mpmath.hermite(n, mpmath.mpmathify(z) / s)
                ref_mag = float(mpmath.log(abs(ref)))
                assert abs(mag[n] - ref_mag) <= 1e-13 * max(1.0, abs(ref_mag)), n
                assert abs(ph[n] - complex(ref / abs(ref))) <= 1e-13, n

    @pytest.mark.parametrize("z", [0.7, -0.4 + 1.1j, 1e200])
    def test_scale_zero_gives_the_powers_of_2z(self, z):
        mag, ph = hermite_sequence_log(z, 300, 0.0)
        n = np.arange(301)
        assert np.allclose(mag, n * math.log(abs(2 * z)), rtol=1e-13, atol=1e-13)
        assert np.allclose(ph, np.exp(1j * n * cmath.phase(z)), atol=1e-12)

    @pytest.mark.parametrize("z", [0.3, 30.0, 0.3 + 0.2j, 7.1e153 - 2.3e153j])
    def test_scale_one_is_the_unscaled_sequence(self, z):
        default = hermite_sequence_log(z, 300)
        for scale in (1, 1.0):
            scaled = hermite_sequence_log(z, 300, scale)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(default, scaled))

    @pytest.mark.parametrize("z", [0, 0.3, -1.7, 30.0, 2.5 + 0j])
    def test_real_argument_gives_exact_real_phases(self, z):
        mag, ph = hermite_sequence_log(z, 300)
        assert ph.dtype == np.float64
        assert set(np.unique(ph)) <= {-1.0, 0.0, 1.0}
        assert np.array_equal(ph == 0, mag == -np.inf)


class TestHermite2d:
    def test_degree_zero_is_one(self):
        rm = r_matrix(OneModeGaussianState(1.5, 0.9, 0.3))
        assert hermite_2d(0, rm, 0, 0) == 1

    def test_symmetric_input_is_real(self):
        rm = r_matrix(OneModeGaussianState(1.5, 0.9, 0.3))
        y = 0.7 - 0.2j
        for n in range(8):
            val = hermite_2d(n, rm, y, y.conjugate())
            assert abs(val.imag) <= 1e-12 * max(abs(val), 1.0)

    def test_vanishing_off_diagonal_collapses_to_first_term(self):
        # det Sigma = 1/4 makes r12 = 0; the sum must equal its k = 0 term
        rm = r_matrix(OneModeGaussianState.squeezed_vacuum(0.8))
        assert rm.r12 == pytest.approx(0.0, abs=1e-15)
        y1, y2 = 0.4 + 0.1j, 0.4 - 0.1j
        rho = cmath.sqrt(rm.r11 * rm.r22)
        s1 = cmath.sqrt(rm.r11)
        s2 = rho / s1
        z1 = (rm.r11 * y1 + rm.r12 * y2) / (2 * s1)
        z2 = (rm.r12 * y1 + rm.r22 * y2) / (2 * s2)
        for n in range(1, 7):
            k0 = (rho / 2) ** n * hermite(n, z1) * hermite(n, z2)
            got = hermite_2d(n, rm, y1, y2)
            assert abs(got - k0) <= 1e-12 * max(abs(k0), 1e-30)

    def test_vacuum_r_matrix_annihilates_positive_degrees(self):
        rm = r_matrix(OneModeGaussianState.vacuum())
        for n in range(1, 10):
            assert hermite_2d(n, rm, 0, 0) == 0

    def test_matches_plain_double_sum(self):
        # the defining finite sum in plain complex arithmetic, for small n
        rm = r_matrix(OneModeGaussianState(1.4, 0.7, 0.25, 0.6, -0.3))
        y1, y2 = 0.35 - 0.2j, 0.35 + 0.2j
        rho = cmath.sqrt(rm.r11 * rm.r22)
        s1 = cmath.sqrt(rm.r11)
        z1 = (rm.r11 * y1 + rm.r12 * y2) / (2 * s1)
        z2 = (rm.r12 * y1 + rm.r22 * y2) / (2 * (rho / s1))
        c = -2 * rm.r12 / rho
        for n in range(25):
            ref = math.factorial(n) ** 2 * (rho / 2) ** n * sum(
                c**k / (math.factorial(k) * math.factorial(n - k) ** 2)
                * hermite(n - k, z1) * hermite(n - k, z2)
                for k in range(n + 1)
            )
            got = hermite_2d(n, rm, y1, y2)
            assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_non_finite_argument_raises(self):
        rm = r_matrix(OneModeGaussianState(1.2, 0.8, 0.2, 0.5, -0.7))
        with pytest.raises(RangeOverflowError):
            hermite_2d(4, rm, math.inf, 1)


# displaced valid states; the first is the one whose sqrt(R11 R22) / sqrt(R11)
# misses conj(sqrt(R11)) by an ulp
_DISPLACED_STATES = [
    OneModeGaussianState(1.2, 0.8, 0.2, 0.5, -0.7),
    OneModeGaussianState(1.4, 0.7, 0.25, 0.6, -0.3),
    OneModeGaussianState.squeezed_correlated(1.0, 0.7, 0.8, -0.5),
    OneModeGaussianState(3.0, 0.4, -0.6, -4.0, 2.5),
    OneModeGaussianState(0.9, 2.5, -0.4, 10.0, -6.0),
]


def _hermite_arguments(r, w1, w2):
    _, s1, s2 = specfun._roots(r)
    return w1 / (2 * s1), w2 / (2 * s2)


def _counted_hermite_sequences(monkeypatch):
    """Patch hermite_sequence_log to record its arguments; return the list
    and the original function."""
    calls, seq = [], specfun.hermite_sequence_log
    monkeypatch.setattr(
        specfun, "hermite_sequence_log", lambda z, n: calls.append(z) or seq(z, n)
    )
    return calls, seq


class TestHermite2dFactors:
    N = 200

    @pytest.mark.parametrize("state", _DISPLACED_STATES)
    def test_conjugate_arguments_take_one_recurrence(self, monkeypatch, state):
        # the route's arguments: z2 = conj(z1), so B = |H_m(z1)|^2 / m!^2
        rec = _generating_record(state)
        w1, w2 = rec.w, rec.w.conjugate()
        z1, z2 = _hermite_arguments(rec, w1, w2)
        assert z2 == z1.conjugate() and z1.imag
        calls, seq = _counted_hermite_sequences(monkeypatch)
        _, (b_mag, b_ph), _ = specfun.hermite_2d_factors(self.N, rec, w1, w2)
        assert calls == [z1]
        assert b_ph.dtype == np.float64
        # the product of the two recurrences, rounded as written
        h1_mag, h1_ph = seq(z1, self.N)
        h2_mag, h2_ph = seq(z2, self.N)
        assert np.iscomplexobj(h1_ph)
        re = h1_ph.real * h2_ph.real - h1_ph.imag * h2_ph.imag
        im = h1_ph.real * h2_ph.imag + h1_ph.imag * h2_ph.real
        assert not im.any()
        assert b_ph.tobytes() == re.tobytes()
        assert b_mag.tobytes() == (h1_mag + h2_mag - 2 * log_factorials(self.N)).tobytes()

    @pytest.mark.parametrize(
        "state",
        [OneModeGaussianState(1.3, 0.7, 0.25), OneModeGaussianState.squeezed_vacuum(3.0),
         OneModeGaussianState(0.8, -0.4, 0.1)],
    )
    def test_centered_arguments_take_the_closed_form(self, monkeypatch, state):
        # H_2j(0) = (-1)^j (2j)! / j! and H_2j+1(0) = 0: B[2j] = 1 / j!^2
        rec = _generating_record(state)
        assert rec.w == 0 and specfun._roots(rec)[0] != 0
        calls, _ = _counted_hermite_sequences(monkeypatch)
        for n in (0, 1, 7, 8, self.N):
            _, (b_mag, b_ph), _ = specfun.hermite_2d_factors(n, rec, 0j, 0j)
            assert b_ph.dtype == np.float64 and len(b_mag) == len(b_ph) == n + 1
            assert (b_mag[1::2] == -np.inf).all() and (b_ph[1::2] == 0).all()
            assert b_mag[::2].tobytes() == (-2 * log_factorials(n // 2)).tobytes()
            assert (b_ph[::2] == 1).all()
        assert calls == []

    @pytest.mark.parametrize(
        "state",
        [OneModeGaussianState(1.3, 0.7, 0.25), OneModeGaussianState(0.8, 0.4, 0.1),
         OneModeGaussianState.squeezed_vacuum(0.8), OneModeGaussianState(0.8, -0.4, 0.1)],
    )
    def test_centered_value_matches_the_generating_function(self, state):
        # H_nn^R(0, 0) / n!^2 is the coefficient of (t1 t2)^n in
        # exp(-(R11 t1^2 + 2 R12 t1 t2 + R22 t2^2) / 2):
        # sum over k = n mod 2 of (-R12)^k / k! (R11 R22 / 4)^i / i!^2, i = (n - k) / 2
        rm = r_matrix(state)
        with mpmath.workdps(40):
            r11, r22 = mpmath.mpc(rm.r11), mpmath.mpc(rm.r22)
            r12 = mpmath.mpf(rm.r12)
            for n in (0, 1, 2, 5, 10, 41, 80):
                ref = mpmath.factorial(n) ** 2 * mpmath.fsum(
                    (-r12) ** k / mpmath.factorial(k)
                    * (r11 * r22 / 4) ** ((n - k) // 2) / mpmath.factorial((n - k) // 2) ** 2
                    for k in range(n % 2, n + 1, 2)
                )
                got = hermite_2d(n, rm, 0, 0)
                assert abs(mpmath.mpc(got) - ref) <= 1e-13 * abs(ref) + 1e-300

    def test_other_arguments_take_two_recurrences(self, monkeypatch):
        r = _generating_record(OneModeGaussianState(1.2, 0.8, 0.2, 0.5, -0.7))
        w1, w2 = 0.4 + 0.3j, -0.2 + 0.5j
        z1, z2 = _hermite_arguments(r, w1, w2)
        calls, seq = _counted_hermite_sequences(monkeypatch)
        _, (b_mag, b_ph), _ = specfun.hermite_2d_factors(40, r, w1, w2)
        assert calls == [z1, z2]
        (h1_mag, h1_ph), (h2_mag, h2_ph) = seq(z1, 40), seq(z2, 40)
        assert np.array_equal(b_ph, h1_ph * h2_ph)
        assert np.array_equal(b_mag, h1_mag + h2_mag - 2 * log_factorials(40))


class TestLaguerreHalf:
    def test_degree_zero(self):
        for x in (0.0, 1.7, -2.0):
            assert laguerre_half(0, x) == 1.0

    def test_degree_one(self):
        for x in (0.0, 0.3, 2.0):
            assert laguerre_half(1, x) == pytest.approx(0.5 - x, abs=1e-15)

    def test_value_at_origin(self):
        # L_n^a(0) = binom(n + a, n); for n = 2, a = -1/2 this is 3/8
        assert laguerre_half(2, 0.0) == pytest.approx(3 / 8, abs=1e-15)

    def test_matches_scipy(self):
        for n in (3, 10, 30):
            for x in (0.0, 0.7, 3.5):
                assert laguerre_half(n, x) == pytest.approx(
                    float(sps.eval_genlaguerre(n, -0.5, x)), rel=1e-10
                )

    @pytest.mark.parametrize("z", [0.25, -0.25, 0.5, -0.5])
    @pytest.mark.parametrize("x", [0.0, 1.0, 2.5, 4.0])
    def test_generating_function(self, z, x):
        seq = log_signed_values(*laguerre_half_sequence(x, 60))
        lhs = math.fsum(z**n * L.real for n, L in enumerate(seq))
        rhs = (1 - z) ** -0.5 * math.exp(x * z / (z - 1))
        assert lhs == pytest.approx(rhs, abs=1e-8)


    def test_returns_complex_array(self):
        for x in (1.5, 0.2 - 0.7j):
            seq = log_signed_values(*laguerre_half_sequence(x, 40))
            assert isinstance(seq, np.ndarray) and seq.dtype == np.complex128
            assert seq.shape == (41,)
        mag, ph = laguerre_half_sequence(1.5, 40)
        assert ph.dtype == np.float64 and set(np.unique(ph)) <= {-1.0, 1.0}
        assert not np.count_nonzero(log_signed_values(mag, ph).imag)
        assert log_signed_values(*laguerre_half_sequence(1.5, 0)).tolist() == [1]
        assert log_signed_values(*laguerre_half_sequence(1.5, 1)).tolist() == [1, -1]

    @pytest.mark.parametrize("x, n_max", [(1e6, 200), (-1e3, 400), (1e5j, 200)])
    def test_overflow_raises(self, x, n_max):
        with pytest.raises(RangeOverflowError, match="exceeds the double range"):
            log_signed_values(*laguerre_half_sequence(x, n_max))

    def test_scalar_raises_where_a_step_overflows(self):
        # L_2(1e300) ~ 5e599: the step to it overflows and leaves NaN behind
        with pytest.raises(RangeOverflowError, match="left the double range"):
            laguerre_half(2, 1e300)

    def test_non_real_argument_rejected(self):
        # the imaginary part was dropped: L_2(1j) = -1/8 - 1.5i came back -0.125
        with pytest.raises(DomainError, match="real argument"):
            laguerre_half(2, 1j)
        assert laguerre_half(2, 1 + 0j) == laguerre_half(2, 1.0)

    def test_rescaled_values_within_the_double_range(self):
        # the values pass 1e250 at n = 213 and end near 1.9e287
        seq = log_signed_values(*laguerre_half_sequence(-1000.0, 260))
        with mpmath.workdps(30):
            for n in (200, 240, 260):
                ref = mpmath.laguerre(n, -0.5, -1000)
                assert seq[n].real == pytest.approx(float(ref), rel=1e-12)

    @pytest.mark.parametrize(
        "x, scale",
        [(0.0, 1.0), (0.7, 1.0), (3.5, 1.0), (-5.0, 1.0), (-0.3, 0.995), (-2.0, -0.5),
         (-1.5, -0.6), (-0.05, -0.9), (-3.0, 0.1), (1.5 - 0.5j, 0.8),
         # x = 0, the closed form a^n (1/2)_n / n!
         (0.0, math.tanh(3.0)), (0.0, -0.995), (0.0, 0.5), (0.0, -0.3), (0.0, 0.0)],
    )
    def test_scaled_sequence_matches_mpmath(self, x, scale):
        # M_n = a^n L_n^{-1/2}(x / a), within 1e-14 of the largest |M_n|
        n_max = 300
        mag, ph = laguerre_half_sequence(x, n_max, scale)
        if complex(x).imag == 0:
            assert ph.dtype == np.float64
            if scale:
                assert set(np.unique(ph)) <= {-1.0, 1.0}
        seq = log_signed_values(mag, ph)
        with mpmath.workdps(40):
            if scale:
                ref = [scale**n * mpmath.laguerre(n, -0.5, mpmath.mpmathify(x) / scale)
                       for n in range(n_max + 1)]
            else:
                ref = [(-mpmath.mpmathify(x)) ** n / mpmath.factorial(n)
                       for n in range(n_max + 1)]
            top = max(abs(e) for e in ref)
            assert max(abs(mpmath.mpc(v) - e) for v, e in zip(seq.tolist(), ref)) <= 1e-14 * top

    @pytest.mark.parametrize("x", [1.5, -0.8, 0.3 + 0.4j])
    def test_zero_scale_gives_the_exponential_series(self, x):
        # M_n = (-x)^n / n!, where L_n(x / a) has no limit
        seq = log_signed_values(*laguerre_half_sequence(x, 40, 0.0))
        with mpmath.workdps(30):
            for n, value in enumerate(seq.tolist()):
                exact = (-mpmath.mpmathify(x)) ** n / mpmath.factorial(n)
                assert abs(mpmath.mpc(value) - exact) <= 1e-13 * abs(exact)

    def test_nearly_double_root_keeps_its_precision(self):
        # the route's factors of the squeezed vacuum at r = 3, N = 4096,
        # and of a slightly displaced state: (n+1) M_{n+1} = ((2n + 1/2) a
        # - x) M_n - (n - 1/2) a^2 M_{n-1} as written loses 3e-11 (x = 0)
        # and 1.3e-10 (x = -1e-3) relative by n = 4096.  x = 0 takes the
        # closed form (8.3e-15), x = -1e-3 the difference form (4.5e-15);
        # the reference is that three-term recurrence at 30 digits
        a = math.tanh(3.0)
        for x in (0.0, -1e-3):
            mag, ph = laguerre_half_sequence(x, 4096, a)
            with mpmath.workdps(30):
                am, xm, half = mpmath.mpf(a), mpmath.mpf(x), mpmath.mpf(0.5)
                prev, exact, worst = mpmath.mpf(0), mpmath.mpf(1), 0.0
                for n in range(4097):
                    value = mpmath.exp(mpmath.mpf(mag[n])) * ph[n]
                    worst = max(worst, float(abs(value / exact - 1)))
                    prev, exact = exact, (
                        ((2 * n + half) * am - xm) * exact - (n - half) * am**2 * prev
                    ) / (n + 1)
            assert worst <= 1e-13, x

    def test_closed_form_table_does_not_depend_on_its_growth(self, monkeypatch):
        monkeypatch.setattr(specfun, "_log_half_table", np.zeros(1))
        for n in (3, 10, 700):
            grown = specfun._log_half_rising(n)
        monkeypatch.setattr(specfun, "_log_half_table", np.zeros(1))
        assert np.array_equal(specfun._log_half_rising(700), grown)
        assert not grown.flags.writeable

    def test_zero_argument_at_zero_scale(self):
        # the closed form at a = 0: M_0 = 1 and every other M_n = 0, as the
        # recurrence gave
        mag, ph = laguerre_half_sequence(0.0, 5, 0.0)
        assert mag.tolist() == [0.0] + [-math.inf] * 5
        assert ph.dtype == np.float64 and ph.tolist() == [1.0] + [0.0] * 5


def _assert_log_signed_rows(mag, ph, ref):
    """Every row of (mag, ph) against its mpmath value: the log-magnitude
    within 1e-13 of itself (absolutely below 1), the phase within 1e-13."""
    for n, exact in enumerate(ref):
        ref_mag = float(mpmath.log(abs(exact)))
        assert abs(mag[n] - ref_mag) <= 1e-13 * max(1.0, abs(ref_mag)), n
        assert abs(ph[n] - complex(exact / abs(exact))) <= 1e-13, n


class TestRescalePoints:
    """The recurrences divide their carried values by the newest one once it
    passes 1e250 and add the log of the divisor back onto every later
    entry.  Each run below rescales several times; every row, those on
    both sides of each rescale among them, is checked against the same
    recurrence at 40 digits, so a shift added one row early or late, or
    added twice, shows as an error of about 575 in a log-magnitude."""

    @staticmethod
    def _counted_rescales(monkeypatch):
        calls = []
        rescaled = specfun._rescaled
        monkeypatch.setattr(
            specfun, "_rescaled", lambda *a: calls.append(a) or rescaled(*a)
        )
        return calls

    @pytest.mark.parametrize(
        "x, scale, n_max, rescales",
        [(-400.0, 0.9, 600, 1), (-5000.0, 0.9, 600, 3), (3000.0, -0.8, 600, 2),
         (-3000.0 + 1000.0j, 0.7, 400, 2)],
    )
    def test_laguerre_rows_across_every_rescale(self, monkeypatch, x, scale, n_max, rescales):
        calls = self._counted_rescales(monkeypatch)
        mag, ph = laguerre_half_sequence(x, n_max, scale)
        assert len(calls) >= rescales
        with mpmath.workdps(40):
            # L_n^{-1/2}(y) at y = x / a, then M_n = a^n L_n
            y, a, half = mpmath.mpmathify(x) / scale, mpmath.mpf(scale), mpmath.mpf(0.5)
            lag = [mpmath.mpf(1), half - y]
            for n in range(1, n_max):
                lag.append(((2 * n + half - y) * lag[n] - (n - half) * lag[n - 1]) / (n + 1))
            _assert_log_signed_rows(mag, ph, [a**n * v for n, v in enumerate(lag)])

    @pytest.mark.parametrize(
        "z, n_max, rescales", [(40.0, 1000, 7), (-25.0, 1000, 6), (20.0 - 15.0j, 600, 4)]
    )
    def test_hermite_rows_across_every_rescale(self, monkeypatch, z, n_max, rescales):
        calls = self._counted_rescales(monkeypatch)
        mag, ph = hermite_sequence_log(z, n_max)
        assert len(calls) >= rescales
        with mpmath.workdps(40):
            zm = mpmath.mpmathify(z)
            her = [mpmath.mpf(1), 2 * zm]
            for n in range(1, n_max):
                her.append(2 * zm * her[n] - 2 * n * her[n - 1])
            _assert_log_signed_rows(mag, ph, her)


class TestAssocLegendre:
    def test_degree_zero(self):
        for x in (-3.0, 0.2, 7.0):
            assert assoc_legendre(0, 0, x) == 1.0

    def test_first_legendre(self):
        for x in (-3.0, 0.2, 7.0):
            assert assoc_legendre(1, 0, x) == x

    def test_second_legendre_outside_unit_interval(self):
        # independent series: P_2(x) = (3x^2 - 1)/2
        assert assoc_legendre(2, 0, 2.0) == pytest.approx(5.5, abs=1e-14)

    def test_order_above_degree_rejected(self):
        with pytest.raises(DomainError):
            assoc_legendre(1, 2, 0.5)

    def test_magnitude_matches_scipy_inside_unit_interval(self):
        for l, m in ((2, 1), (3, 2), (5, 3), (4, 0)):
            for x in (-0.8, 0.1, 0.6):
                ref = abs(float(sps.lpmv(m, l, x)))
                assert abs(assoc_legendre(l, m, x)) == pytest.approx(ref, rel=1e-10)

    def test_seed_value(self):
        # P_m^m = (2m-1)!! |x^2-1|^{m/2}
        x = 3.0
        assert assoc_legendre(2, 2, x) == pytest.approx(3 * (x * x - 1), rel=1e-14)

    def test_seed_past_the_double_range_raises(self):
        # 259!! 8^65 ~ 2.2e316; it used to come back inf
        with pytest.raises(RangeOverflowError, match="left the double range"):
            assoc_legendre(130, 130, 3.0)

    def test_nan_argument_rejected(self):
        # it used to raise RangeOverflowError, as if the value overflowed
        for l, m in ((0, 0), (2, 0), (5, 3)):
            with pytest.raises(DomainError, match="NaN"):
                assoc_legendre(l, m, math.nan)

    def test_rescaled_climb_within_the_double_range(self):
        # P_380(3) ~ 2.4e289 passes 1e250 on the way
        with mpmath.workdps(30):
            ref = mpmath.legendre(380, 3)
        assert assoc_legendre(380, 0, 3.0) == pytest.approx(float(ref), rel=1e-12)


class TestGauss2F1:
    def test_empty_series(self):
        assert gauss_2f1_terminating(0, 0.5, 1.0, 0.7) == 1.0

    def test_two_term_series(self):
        for z in (0.0, 0.4, 1.0, -2.0):
            assert gauss_2f1_terminating(1, 0.5, 1.0, z) == pytest.approx(
                1 - z / 2, abs=1e-15
            )

    def test_chu_vandermonde_value(self):
        assert gauss_2f1_terminating(2, 0.5, 1.0, 1.0) == pytest.approx(3 / 8, abs=1e-15)

    def test_chu_vandermonde_central_binomial(self):
        # at z = 1 the sum telescopes to (2k)! / (4^k (k!)^2); the integer
        # quotient rounds once, so it is the correctly rounded exact value
        for k in range(401):
            ref = math.comb(2 * k, k) / 4**k
            got = gauss_2f1_terminating(k, 0.5, 1.0, 1.0)
            assert abs(got - ref) <= 1e-13 * ref

    def test_unit_argument_without_closed_form_stays_exact(self):
        # c - b <= 0 leaves the Chu-Vandermonde branch; the rational sum
        # 1 - 6 + 9 - 4 vanishes exactly, as (c-b)_3 / (c)_3 = (-1)(0)(1) / 3!
        assert gauss_2f1_terminating(3, 2.0, 1.0, 1.0) == 0.0

    def test_matches_scipy(self):
        for k in (2, 5, 9):
            for z in (0.3, -0.8, 0.95):
                assert gauss_2f1_terminating(k, 0.5, 1.0, z) == pytest.approx(
                    float(sps.hyp2f1(-k, 0.5, 1.0, z)), rel=1e-10
                )

    def test_pole_detected(self):
        for z in (0.5, 1.0):
            with pytest.raises(PoleError):
                gauss_2f1_terminating(3, 0.5, -1.0, z)
        with pytest.raises(PoleError):
            gauss_2f1_terminating(2, 0.5, 0.0, 1.0)

    def test_unreachable_pole_tolerated(self):
        # (b)_j kills the series at j = 2, before (c)_j vanishes at j = 3;
        # the surviving terms are 1 + (-5)(-1)(1/2)/(-3) = 1/6
        assert gauss_2f1_terminating(5, -1.0, -3.0, 0.5) == pytest.approx(
            1 / 6, abs=1e-15
        )


class TestGauss2F1Half:
    """The sequence F_k = 2F1(-k, 1/2; 1; z), z in [0, 2], that the xyt
    route and the two-mode total law share."""

    # every 64th k to 2048 and the last two: mpmath's sum costs O(k) each
    KS = list(range(0, 2049, 64)) + [2047, 2048]

    @pytest.mark.parametrize("z", [1.01, 1.5, 1.99])
    def test_matches_mpmath_past_one(self, z):
        f = specfun._gauss_2f1_half(z, 2048)
        with mpmath.workdps(30):
            for k in self.KS:
                assert abs(f[k] - float(mpmath.hyp2f1(-k, 0.5, 1, z))) <= 2e-16, k

    def test_bounded_by_one(self):
        for z in np.linspace(0.0, 2.0, 41):
            assert np.abs(specfun._gauss_2f1_half(float(z), 512)).max() <= 1.0

    def test_closed_forms_at_the_ends(self):
        assert specfun._gauss_2f1_half(0.0, 300).tolist() == [1.0] * 301
        f = specfun._gauss_2f1_half(2.0, 2049)
        assert not np.count_nonzero(f[1::2])
        for m in (0, 1, 2, 37, 500, 1024):
            ref = math.comb(2 * m, m) / 4**m  # (1/2)_m / m!
            assert abs(f[2 * m] - ref) <= 1e-14 * ref

    def test_just_below_two_the_odd_terms_are_kept(self):
        # rho = 1 - z near -1: F_2m+1 is of order 2 - z = 9.5e-7, not 0
        f = specfun._gauss_2f1_half(2.0 - 2.0**-20, 64)
        with mpmath.workdps(30):
            for k in (1, 2, 3, 31, 63, 64):
                ref = float(mpmath.hyp2f1(-k, 0.5, 1, mpmath.mpf(2.0 - 2.0**-20)))
                assert abs(f[k] - ref) <= 1e-16, k
        assert (f[1::2] > 1e-7).all()

    def test_lengths(self):
        for z in (0.0, 0.5, 2.0):
            assert len(specfun._gauss_2f1_half(z, 0)) == 1
            assert len(specfun._gauss_2f1_half(z, 7)) == 8


class TestLogFactorial:
    def test_small_values(self):
        assert log_factorial(0) == 0.0
        assert log_factorial(1) == 0.0
        assert log_factorial(10) == pytest.approx(math.log(3628800), rel=1e-14)

    def test_large_values_match_lgamma(self):
        for n in (200, 5000):
            assert log_factorial(n) == pytest.approx(math.lgamma(n + 1), rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            log_factorial(-2)

    @pytest.mark.parametrize("n", [2.5, 600.5, 3.0, "3"])
    def test_non_integer_rejected(self, n):
        # 2.5 raised numpy's IndexError and 600.5 returned lgamma(601.5)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            log_factorial(n)

    def test_integer_types_accepted(self):
        for n in (7, 600):
            assert log_factorial(np.int64(n)) == log_factorial(n)

    def test_negative_table_end_rejected(self):
        # the slice [: n_max + 1] used to return 509 entries for n_max = -3
        with pytest.raises(DomainError):
            log_factorials(-3)

    def test_table_equals_scalar_before_and_after_growth(self, monkeypatch):
        monkeypatch.setattr(specfun, "_log_fact_table", specfun._log_fact_table[:512])
        points = (511, 512, 513, 4096, 9000)
        before = [log_factorial(n) for n in points]
        table = log_factorials(9000)
        assert len(specfun._log_fact_table) >= 9001
        assert [float(table[n]) for n in points] == before
        assert [log_factorial(n) for n in points] == before
        assert before[1:] == [math.lgamma(n + 1) for n in points[1:]]
        # a shorter request reads the grown table
        assert log_factorials(600).tolist() == table[:601].tolist()

    def test_table_is_read_only(self):
        for n_max in (10, 2000):
            table = log_factorials(n_max)
            with pytest.raises(ValueError):
                table[0] = 1.0

    def test_concurrent_growth_keeps_every_value(self, monkeypatch):
        # growth replaces the shared table, so a reader racing it still gets
        # the right values from whichever table it holds
        monkeypatch.setattr(specfun, "_log_fact_table", specfun._log_fact_table[:512])
        expected = [log_factorial(n) for n in range(6001)]
        wrong = []

        def reader(seed):
            for i in range(40):
                n_max = 500 + (seed * 997 + i * 613) % 5500
                if log_factorials(n_max).tolist() != expected[: n_max + 1]:
                    wrong.append(n_max)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestLogSigned:
    def test_roundtrip(self):
        # exp/log roundtrips lose ~|log| * eps relative precision
        for z in (3.5, -2.0, 1j, -4 + 3j, 1e-200):
            ls = LogSigned.from_value(z)
            assert cmath.isclose(ls.value(), z, rel_tol=1e-12)

    def test_zero(self):
        ls = LogSigned.from_value(0)
        assert ls.is_zero and ls.value() == 0

    def test_product(self):
        a = LogSigned.from_value(-3.0)
        b = LogSigned.from_value(2j)
        assert cmath.isclose((a * b).value(), -6j, rel_tol=1e-14)

    def test_sum_cancellation_and_order(self):
        terms = [LogSigned.from_value(v) for v in (1e20, -1e20, 3.0)]
        assert logsigned_sum(terms).value() == pytest.approx(3.0, rel=1e-10)
        assert logsigned_sum([]).is_zero

    def test_value_overflow_raises(self):
        with pytest.raises(RangeOverflowError):
            LogSigned(1e4, 1 + 0j).value()


def test_log_signed_subnormal_complex_modulus_has_a_unit_phase():
    # numpy's complex-by-float division takes the reciprocal of the modulus,
    # inf here, and would return inf+infj
    mag, ph = specfun._log_signed(np.array([3e-320 + 4e-320j]))
    assert abs(abs(ph[0]) - 1) <= 1e-15
    assert ph[0] == pytest.approx(0.6 + 0.8j, abs=1e-3)
    assert mag[0] == pytest.approx(math.log(5e-320), rel=1e-4)


def _log_signed(values):
    values = np.asarray(values)
    size = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(size), np.where(size > 0, values / size, 0)


def _cauchy_values(a, b, n_rows=None):
    mag, ph = log_cauchy_rows(*_log_signed(a), *_log_signed(b), n_rows)
    return np.array(log_signed_values(mag, ph))


def _mp_rows(a_mag, a_ph, b_mag, b_ph, n_rows):
    """For each row at 30 digits: its sum sum_k A[k] B[n-k], the sum of its
    term moduli |t|, and the sum of |t| |ln |t||."""
    rows = []
    with mpmath.workdps(30):
        for n in range(n_rows):
            acc, size, weighted = mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(0)
            for k in range(max(0, n - len(b_mag) + 1), min(n + 1, len(a_mag))):
                if a_mag[k] == -np.inf or b_mag[n - k] == -np.inf:
                    continue
                log_term = mpmath.mpf(a_mag[k]) + mpmath.mpf(b_mag[n - k])
                term = mpmath.exp(log_term)
                acc += term * mpmath.mpc(a_ph[k]) * mpmath.mpc(b_ph[n - k])
                size += term
                weighted += term * abs(log_term)
            rows.append((acc, size, weighted))
    return rows


def _assert_matches_mp(a_mag, a_ph, b_mag, b_ph, n_rows=None, rel=1e-13):
    """Each row of the kernel within rel times its sum of term moduli of the
    30-digit sum, and rows whose every term has a zero factor exactly zero.

    A term given by its log t carries the rounding of that log, about
    eps |t| |ln |t||; 1e-14 of the weighted sum covers it.
    """
    mag, ph = log_cauchy_rows(a_mag, a_ph, b_mag, b_ph, n_rows)
    for n, (acc, size, weighted) in enumerate(_mp_rows(a_mag, a_ph, b_mag, b_ph, len(mag))):
        if size == 0:
            assert mag[n] == -np.inf and ph[n] == 0, n
            continue
        with mpmath.workdps(30):
            got = mpmath.exp(mag[n]) * mpmath.mpc(ph[n]) if mag[n] > -np.inf else 0
            assert abs(got - acc) <= rel * (size + weighted / 10), n
    return mag, ph


def _assert_rugged_rows_match_mp(a_mag, a_ph, b_mag, b_ph, single):
    """Each row of the kernel within its relative error bound of the 60-digit
    sum.  A row summed on its own (listed in ``single``) rounds its log once
    more, a few ulps of its |log-magnitude|, on top of the n eps sum|t| / |row|
    of plain summation.  A tilted row also carries the rounding of its shift
    back, a few ulps of the factors' log range in place of its own."""
    mag, ph = log_cauchy_rows(a_mag, a_ph, b_mag, b_ph)
    span = np.abs(a_mag).max() + np.abs(b_mag).max()
    eps = np.finfo(float).eps
    with mpmath.workdps(60):
        for n in range(len(mag)):
            acc, size = mpmath.mpf(0), mpmath.mpf(0)
            ks = range(max(0, n - len(b_mag) + 1), min(n + 1, len(a_mag)))
            for k in ks:
                term = mpmath.exp(mpmath.mpf(a_mag[k]) + mpmath.mpf(b_mag[n - k]))
                acc += term * a_ph[k] * b_ph[n - k]
                size += term
            got = mpmath.exp(mpmath.mpf(mag[n])) * ph[n]
            log_err = 4 * math.ulp(abs(mag[n])) if n in single else 64 * math.ulp(span)
            assert abs(got - acc) <= (log_err + len(ks) * eps * size / abs(acc)) * abs(acc), n


def _gaussian_factor(rng, size, width, complex_phases=False):
    """Log-magnitudes -k^2 / (2 width) with random phases."""
    mag = -np.arange(size) ** 2 / (2.0 * width)
    if complex_phases:
        return mag, np.exp(1j * rng.uniform(0, 6, size))
    return mag, rng.choice([-1.0, 1.0], size)


class TestLogCauchyRows:
    @pytest.mark.parametrize("na, nb", [(1, 1), (5, 9), (40, 25), (90, 120)])
    def test_matches_mpmath(self, na, nb):
        rng = np.random.default_rng(na * 1000 + nb)
        a = rng.normal(size=na) + 1j * rng.normal(size=na)
        b = rng.normal(size=nb) * np.exp(1j * rng.uniform(0, 6, nb))
        _assert_matches_mp(*_log_signed(a), *_log_signed(b))
        _assert_matches_mp(*_log_signed(a.real), *_log_signed(b.real), min(na, nb))

    def test_rows_that_no_single_tilt_holds(self, monkeypatch):
        # row maxima fall like -n^2 / 4, by about 5500 nats over 150 rows,
        # and sag 1400 nats below the chord of the whole span: several tilts
        # are needed
        rng = np.random.default_rng(17)
        spans, single = [], []
        tilted, row_terms = specfun._tilted_rows, specfun._row_terms

        def counted(*args):
            spans.append(args[4:])
            return tilted(*args)

        monkeypatch.setattr(specfun, "_tilted_rows", counted)
        monkeypatch.setattr(
            specfun, "_row_terms", lambda *a: single.append(a[4]) or row_terms(*a)
        )
        for complex_phases in (False, True):
            spans.clear()
            a = _gaussian_factor(rng, 150, 1.0, complex_phases)
            b = _gaussian_factor(rng, 150, 1.0)
            mag, _ = _assert_matches_mp(*a, *b, 150)
            assert mag[149] < mag[0] - 1500
            assert len(spans) > 1
        # rugged factors, log-magnitudes scattered over thousands of nats:
        # tilts leave rows down to spans of one, each summed on its own
        rng = np.random.default_rng(0)
        for _ in range(3):
            single.clear()
            size, width = int(rng.integers(4, 41)), rng.uniform(400, 2000)
            a_mag, b_mag = rng.normal(0, width, size), rng.normal(0, width, size)
            a_ph, b_ph = rng.choice([-1.0, 1.0], size), rng.choice([-1.0, 1.0], size)
            _assert_rugged_rows_match_mp(a_mag, a_ph, b_mag, b_ph, single)
            assert single

    def test_exact_zero_rows_of_the_pure_vacuum_shape(self):
        # A = 0^k and B zero at every odd m: each row is one term, or none
        m = np.arange(40)
        b_mag = np.where(m % 2, -np.inf, -2 * np.array([math.lgamma(k // 2 + 1) for k in m]))
        b_ph = np.where(m % 2, 0.0, 1.0)
        a_mag, a_ph = log_powers(0, 39)
        mag, ph = _assert_matches_mp(a_mag, a_ph, b_mag, b_ph, 40, rel=0)
        assert np.all(mag[1::2] == -np.inf) and np.all(ph[1::2] == 0)
        assert np.array_equal(mag[::2], b_mag[::2]) and np.all(ph[::2] == 1.0)

    def test_exact_zero_rows_in_a_tilted_span(self, monkeypatch):
        # both factors vanish at odd indices and span thousands of nats, so
        # the odd rows are zero by the zero factors of every term
        rng = np.random.default_rng(23)
        single = []
        monkeypatch.setattr(
            specfun, "_log_row_sums", lambda *a: single.append(a) or _log_row_sums(*a)
        )
        a_mag, a_ph = _gaussian_factor(rng, 120, 2.0)
        b_mag, b_ph = _gaussian_factor(rng, 120, 3.0)
        a_mag[1::2] = b_mag[1::2] = -np.inf
        mag, ph = _assert_matches_mp(a_mag, a_ph, b_mag, b_ph, 120)
        assert np.all(mag[1::2] == -np.inf) and np.all(ph[1::2] == 0)
        assert np.all(mag[::2] > -np.inf)
        assert not single  # no row was left to be summed on its own

    def test_row_that_cancels_exactly(self, monkeypatch):
        # row 1 of pn_violation(1.0, 1.5) is 1/4 - 1/4
        from photonstat import photon_dist

        calls = []
        kernel = photon_dist.log_cauchy_rows
        monkeypatch.setattr(
            photon_dist, "log_cauchy_rows", lambda *a: calls.append(a) or kernel(*a)
        )
        photon_dist.pn_violation(1.0, 1.5)
        a_mag, a_ph, b_mag, b_ph, n_rows = calls[0]
        assert math.exp(a_mag[0] + b_mag[1]) == pytest.approx(0.25, rel=1e-15)
        assert a_ph[0] * b_ph[1] == -a_ph[1] * b_ph[0]
        mag, ph = _assert_matches_mp(a_mag, a_ph, b_mag, b_ph, n_rows)
        assert math.exp(mag[1]) <= 1e-15

    def test_rows_past_the_double_range_match_mpmath(self):
        rng = np.random.default_rng(29)
        a_mag, a_ph = _log_signed(rng.normal(size=60) + 1j * rng.normal(size=60))
        b_mag, b_ph = _log_signed(rng.normal(size=50))
        for shift in (-3000.0, 1000.0):
            mag, _ = _assert_matches_mp(a_mag + shift, a_ph, b_mag + shift, b_ph)
            assert np.all(np.abs(mag - 2 * shift) < 20)

    def test_output_does_not_depend_on_memory_offsets(self):
        # the convolution runs on BLAS dot kernels, which may treat aligned
        # and unaligned data differently
        rng = np.random.default_rng(31)
        cases = [
            (*_gaussian_factor(rng, 300, 4.0, True), *_gaussian_factor(rng, 300, 4.0)),
            (*_log_signed(rng.normal(size=65)), *_log_signed(rng.normal(size=65))),
        ]
        for args in cases:
            ref = log_cauchy_rows(*args)
            for offset in range(1, 8):
                moved = []
                for x in args:
                    buf = np.empty(len(x) + offset, dtype=x.dtype)
                    buf[offset:] = x
                    moved.append(buf[offset:])
                got = log_cauchy_rows(*moved)
                for g, r in zip(got, ref):
                    assert g.tobytes() == r.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_inf_factor_rejected(self, bad):
        a_mag, a_ph = _log_signed(np.arange(1.0, 9.0))
        for where in (0, 5):
            mag = a_mag.copy()
            mag[where] = bad
            with pytest.raises(RangeOverflowError, match="left the double range"):
                log_cauchy_rows(mag, a_ph, a_mag, a_ph)
            with pytest.raises(RangeOverflowError, match="left the double range"):
                log_cauchy_rows([0.0, -np.inf], [1.0, 0.0], mag, a_ph)

    def test_matches_convolve(self):
        rng = np.random.default_rng(7)
        for na, nb in ((1, 1), (5, 9), (40, 25), (200, 200)):
            a = rng.normal(size=na) + 1j * rng.normal(size=na)
            b = rng.normal(size=nb) - 0.5j * rng.normal(size=nb)
            ref = np.convolve(a, b)
            got = _cauchy_values(a, b)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
            # leading rows only
            assert np.allclose(_cauchy_values(a, b, min(na, nb)), ref[: min(na, nb)],
                               rtol=1e-13, atol=0)

    def test_real_phases_stay_exactly_real(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=300), rng.normal(size=300)
        mag, ph = log_cauchy_rows(*_log_signed(a + 0j), *_log_signed(b + 0j))
        assert ph.dtype == np.float64
        assert set(np.unique(ph)) <= {-1.0, 1.0}
        values = log_signed_values(mag, ph)
        assert values.dtype == np.complex128
        assert not np.count_nonzero(values.imag)
        ref = np.convolve(a, b)
        assert np.max(np.abs(np.real(values) - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_zero_and_minus_inf_entries(self):
        a = np.array([2.0, 0.0, -1.0, 0.0])
        b = np.array([0.0, 3.0, 0.0])
        mag, ph = log_cauchy_rows(*_log_signed(a), *_log_signed(b))
        assert mag[0] == -np.inf and ph[0] == 0  # every term of row 0 is zero
        assert np.allclose(np.exp(mag) * ph, np.convolve(a, b), rtol=1e-15, atol=0)
        # all-zero factors give all-zero rows, not nan
        mag, ph = log_cauchy_rows([-np.inf] * 3, [0.0] * 3, [0.0, 1.0], [1.0, -1.0])
        assert np.all(mag == -np.inf) and np.all(ph == 0)

    def test_empty_inputs(self):
        for args in (([], [], [], []), ([], [], [0.0], [1.0]), ([0.0], [1.0], [0.0], [1.0], 0)):
            mag, ph = log_cauchy_rows(*args)
            assert mag.size == 0 and ph.size == 0
        # rows past the end of the full product are zero
        mag, ph = log_cauchy_rows([0.0], [1.0], [0.0], [1.0], 3)
        assert list(mag) == [0.0, -np.inf, -np.inf] and list(ph) == [1.0, 0.0, 0.0]

    def test_block_boundaries(self):
        # long factors of unequal lengths: rows past the end of the shorter
        # one read fewer terms than their index
        rng = np.random.default_rng(11)
        for na, nb in ((1000, 1000), (1000, 37), (5000, 3)):
            a = rng.uniform(0.5, 1.5, na) * rng.choice([-1.0, 1.0], na)
            b = rng.uniform(0.5, 1.5, nb) * np.exp(1j * rng.uniform(0, 6, nb))
            ref = np.convolve(a, b)
            got = _cauchy_values(a, b)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "na, nb",
        [(64, 64), (65, 65), (256, 256), (257, 257), (4097, 4097),
         (65, 3), (3, 65), (257, 40), (40, 257), (4097, 2)],
    )
    def test_matches_convolve_across_block_edges(self, na, nb):
        rng = np.random.default_rng(na * 10_000 + nb)
        a = rng.uniform(0.5, 1.5, na) * np.exp(1j * rng.uniform(0, 6, na))
        b = rng.uniform(0.5, 1.5, nb) * rng.choice([-1.0, 1.0], nb)
        ref = np.convolve(a, b)
        got = _cauchy_values(a, b)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        # leading rows only, as the one-mode routes ask for them
        n_rows = min(na, nb)
        assert np.max(np.abs(_cauchy_values(a, b, n_rows) - ref[:n_rows])) <= (
            1e-13 * np.max(np.abs(ref[:n_rows]))
        )

    @staticmethod
    def _span_plan(monkeypatch):
        """Record the spans summed by a tilted convolution and the rows
        summed on their own."""
        spans, single = [], []
        tilted = specfun._tilted_rows
        monkeypatch.setattr(
            specfun, "_tilted_rows", lambda *a: spans.append(a[4:]) or tilted(*a)
        )
        monkeypatch.setattr(
            specfun, "_log_row_sums", lambda *a: single.append(a) or _log_row_sums(*a)
        )
        return spans, single

    @pytest.mark.parametrize(
        "n_rows, na",
        [(1, 1), (33, 33), (64, 64), (65, 65), (129, 129), (257, 257),
         (1025, 1025), (4097, 4097), (8193, 4097), (1999, 1000), (1036, 37),
         (5002, 5000), (10, 10_000)],
    )
    def test_block_plan_fits_the_block(self, monkeypatch, n_rows, na):
        # terms of one order of magnitude: the first span holds every row
        # the product has, of whatever length, and no row is left over
        spans, single = self._span_plan(monkeypatch)
        nb = max(n_rows - na + 1, 2)
        rng = np.random.default_rng(n_rows * 100_000 + na)
        a = rng.uniform(0.5, 1.5, na) * rng.choice([-1.0, 1.0], na)
        b = rng.uniform(0.5, 1.5, nb) * np.exp(1j * rng.uniform(0, 6, nb))
        got = _cauchy_values(a, b, n_rows)
        # (a single row is one term, summed without a convolution)
        assert spans == ([(0, n_rows)] if n_rows > 1 else [])
        assert not single
        ref = np.convolve(a, b)[:n_rows]
        assert got.shape == (n_rows,)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_block_counts(self, monkeypatch):
        spans, single = self._span_plan(monkeypatch)
        rng = np.random.default_rng(13)
        # 64 and 257 rows of like-sized terms take one convolution each
        for n in (64, 257):
            spans.clear()
            _cauchy_values(rng.normal(size=n), rng.normal(size=n), n)
            assert spans == [(0, n)]
        # a factor that is zero past its first entry takes none
        spans.clear()
        log_cauchy_rows(*log_powers(0, 63), *_log_signed(rng.normal(size=64)))
        assert not spans and not single

    def test_rows_beyond_the_double_range(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=50), rng.normal(size=50)
        a_mag, a_ph = _log_signed(a)
        b_mag, b_ph = _log_signed(b)
        mag, ph = log_cauchy_rows(a_mag + 2000.0, a_ph, b_mag - 5000.0, b_ph)
        ref = np.convolve(a, b)
        got = np.exp(mag + 3000.0) * ph
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_overflow_raises(self):
        with pytest.raises(RangeOverflowError):
            log_signed_values([0.0, 710.0], [1.0, -1.0])
        # NaN, as an overflowing recurrence leaves behind, compares False
        with pytest.raises(RangeOverflowError, match="left the double range"):
            log_signed_values([0.0, np.nan, -np.inf], [1.0, 1.0, 0.0])
        values = log_signed_values([709.0, -np.inf], [-1.0, 0.0])
        assert values.dtype == np.complex128
        assert values.tolist() == [-math.exp(709.0), 0j]


class TestLogPowers:
    def test_real_base_has_parity_phases(self):
        mag, ph = log_powers(-2.5, 300)
        assert ph.dtype == np.float64
        assert np.array_equal(ph, np.where(np.arange(301) % 2, -1.0, 1.0))
        assert mag[300] == pytest.approx(300 * math.log(2.5), rel=1e-15)

    def test_zero_base(self):
        mag, ph = log_powers(0, 3)
        assert list(mag) == [0.0, -np.inf, -np.inf, -np.inf]
        assert list(ph) == [1.0, 0.0, 0.0, 0.0]

    def test_complex_base(self):
        z = 0.9 * cmath.exp(0.3j)
        mag, ph = log_powers(z, 40)
        assert np.allclose(np.exp(mag) * ph, z ** np.arange(41), rtol=1e-13, atol=0)

    def test_log_factorials_match_scalar(self):
        table = log_factorials(700)
        assert [float(v) for v in table] == [log_factorial(n) for n in range(701)]
