import cmath
import dataclasses
import functools
import math
import sys
import threading

import mpmath
import numpy as np
import pytest

from photonstat.errors import (
    DivergentSeriesError,
    DomainError,
    InvalidSpecError,
    NormalizationError,
    ParityError,
    RangeOverflowError,
    SingularDenominatorError,
)
from photonstat import gaussian_state, photon_dist, specfun
from photonstat.gaussian_state import (
    OneModeGaussianState,
    XYTState,
    _generating_record,
    from_tau,
    p0,
    r_matrix,
)
from photonstat.photon_dist import (
    Classification,
    DeformationKind,
    DeformationSpec,
    LegendreParams,
    PhotonDistribution,
    TwoModeJointDistribution,
    deformed_distribution,
    deformed_pn,
    distribution_from_values,
    distribution_to_csv,
    distribution_to_json,
    mean_photon_xyt,
    pn_centered_xyt,
    pn_hermite,
    pn_laguerre,
    pn_violation,
    two_mode_joint,
    two_mode_joint_distribution,
    two_mode_p2k,
    two_mode_p2k_distribution,
    two_mode_p2k_sequence,
)
from photonstat.specfun import (
    _legendre_columns,
    _legendre_scaled,
    assoc_legendre,
    log_factorial,
)


def squeezed_vacuum_law(r, n):
    if n % 2:
        return 0.0
    m = n // 2
    return (
        (1 / math.cosh(r))
        * (math.tanh(r) / 2) ** (2 * m)
        * math.exp(log_factorial(2 * m) - 2 * log_factorial(m))
    )


def thermal_law(n_bar, n):
    return n_bar**n / (n_bar + 1) ** (n + 1)


def squeezed_correlated_law(r, theta, mq, mp, n_max):
    """Closed form for the displaced squeezed state (independent of the
    package's R-matrix plumbing)."""
    g = (
        cmath.exp(-1j * theta / 2)
        * math.sqrt(math.tanh(r))
        * (complex(mq, -mp) / 2 + cmath.exp(1j * theta) / math.tanh(r) * complex(mq, mp) / 2)
    )
    P0 = (1 / math.cosh(r)) * math.exp(
        -(mp * mp + mq * mq) / 2
        + (math.tanh(r) / 2) * ((mp * mp - mq * mq) * math.cos(theta) + 2 * mp * mq * math.sin(theta))
    )
    out, h_prev, h = [], 0j, 1 + 0j
    for n in range(n_max + 1):
        out.append(P0 * math.tanh(r) ** n / (math.factorial(n) * 2**n) * abs(h) ** 2)
        h_prev, h = h, 2 * g * h - 2 * n * h_prev
    return out


def squeezed_vacuum_law_mp(r, n_max, digits=30):
    """sech r (tanh r / 2)^(2m) C(2m, m) at n = 2m, in mpmath at ``digits`` digits."""
    with mpmath.workdps(digits):
        t_half = mpmath.tanh(r) / 2
        return [
            mpmath.sech(r) * t_half**n * mpmath.binomial(n, n // 2) if n % 2 == 0 else 0
            for n in range(n_max + 1)
        ]


def two_mode_p2k_mp(s1, s2, k, digits=40):
    """The paper's sqrt((1-s1)(1-s2)) hi^k 2F1(-k, 1/2; 1; 1 - lo/hi) with
    mpmath's 2F1 at ``digits`` digits."""
    with mpmath.workdps(digits):
        lo, hi = mpmath.mpf(min(s1, s2)), mpmath.mpf(max(s1, s2))
        if hi == 0:
            return mpmath.mpf(k == 0)
        front = mpmath.sqrt((1 - lo) * (1 - hi))
        return front * hi**k * mpmath.hyp2f1(-k, 0.5, 1, 1 - lo / hi)


def mp_rel_err(value, ref):
    return float(abs(mpmath.mpf(value) - ref) / ref)


def centered_grid():
    states = []
    for x in np.linspace(0.5, 3.0, 5):
        for y in np.linspace(0.5, 3.0, 5):
            for t in (0.0, 0.25, 0.4):
                if x * y - t * t - 0.25 >= 0.01:
                    states.append(XYTState(float(x), float(y), float(t)))
    return states


def rel_close(a, b, rtol, floor=1e-300):
    return abs(a - b) <= rtol * max(abs(a), abs(b), floor)


class TestHermiteRoute:
    def test_vacuum(self):
        dist = pn_hermite(OneModeGaussianState.vacuum())
        assert dist.values == (1 + 0j,)
        assert dist.classification is Classification.PROBABILITY

    def test_squeezed_vacuum_closed_form(self):
        dist = pn_hermite(OneModeGaussianState.squeezed_vacuum(1.0), 40)
        for n, v in enumerate(dist.values):
            assert rel_close(v, squeezed_vacuum_law(1.0, n), 1e-10)

    def test_thermal_geometric_law(self):
        dist = pn_hermite(OneModeGaussianState(1.0, 1.0, 0.0), 30)
        for n, v in enumerate(dist.values):
            assert v.real == pytest.approx(thermal_law(0.5, n), abs=1e-15)

    def test_displaced_squeezed_matches_closed_form(self):
        for r, theta, mq, mp in [(0.8, 0.0, 1.0, 0.0), (0.5, 1.1, 0.7, -0.4)]:
            state = OneModeGaussianState.squeezed_correlated(r, theta, mq, mp)
            dist = pn_hermite(state, 35)
            ref = squeezed_correlated_law(r, theta, mq, mp, 35)
            for v, e in zip(dist.values, ref):
                assert rel_close(v, e, 1e-11)

    def test_displaced_states_are_normalized(self):
        for state in (
            OneModeGaussianState(1.2, 0.8, 0.2, 0.5, -0.7),
            OneModeGaussianState(1.0, 1.0, 0.0, 0.9, 0.4),  # degenerate diagonal
        ):
            dist = pn_hermite(state)
            assert dist.classification is Classification.PROBABILITY
            assert math.fsum(v.real for v in dist.values) == pytest.approx(
                1.0, abs=1e-9 + dist.tail_bound
            )

    def test_conjugate_hermite_arguments_give_exactly_real_values(self):
        # here R22 = conj(R11) and y2 = conj(y1) to the bit, so z2 = conj(z1)
        # and each H_m(z1) H_m(z2) = |H_m(z1)|^2 must keep phase exactly 1
        state = OneModeGaussianState(0.8, 0.4, 0.1, 0.3, -0.2)
        rm = r_matrix(state)
        assert rm.r22 == rm.r11.conjugate() and rm.y2 == rm.y1.conjugate()
        for n_max in (None, 256):
            assert not np.count_nonzero(pn_hermite(state, n_max).values.imag)

    def test_violation_state_is_complex(self):
        dist = pn_hermite(OneModeGaussianState(-0.75, 5.0, 0.0), 20)
        assert dist.classification is Classification.COMPLEX

    def test_conjugate_roots_are_exact(self):
        # a root pair sqrt(R11 R22) / sqrt(R11) that missed conj(sqrt(R11))
        # by an ulp left imaginary roundoff up to 2.3e-18 in this state's values
        state = OneModeGaussianState(1.2, 0.8, 0.2, 0.5, -0.7)
        for n_max in (None, 256):
            assert not np.count_nonzero(pn_hermite(state, n_max).values.imag)


def squeezed_correlated_law_mp(r, theta, mq, mp, n_max, digits=50):
    """squeezed_correlated_law evaluated in mpmath at ``digits`` digits."""
    with mpmath.workdps(digits):
        r, theta, mq, mp = map(mpmath.mpf, (r, theta, mq, mp))
        t = mpmath.tanh(r)
        g = mpmath.expj(-theta / 2) * mpmath.sqrt(t) * (
            mpmath.mpc(mq, -mp) / 2 + mpmath.expj(theta) / t * mpmath.mpc(mq, mp) / 2
        )
        p0 = mpmath.sech(r) * mpmath.exp(
            -(mp * mp + mq * mq) / 2
            + t / 2 * ((mp * mp - mq * mq) * mpmath.cos(theta) + 2 * mp * mq * mpmath.sin(theta))
        )
        out, h_prev, h, fact = [], mpmath.mpc(0), mpmath.mpc(1), mpmath.mpf(1)
        for n in range(n_max + 1):
            fact *= max(n, 1)
            out.append(p0 * t**n / (fact * 2**n) * abs(h) ** 2)
            h_prev, h = h, 2 * g * h - 2 * n * h_prev
        return out


class TestHighPrecisionReference:
    """All three routes at N = 1024 against a 50-digit closed form."""

    R, THETA, MQ, MP = 1.0, 0.7, 0.8, -0.5
    N = 1024

    @staticmethod
    def rel_err(value, ref):
        return abs(mpmath.mpc(value) - ref) / ref

    @pytest.mark.parametrize("route", [pn_hermite, pn_laguerre])
    def test_displaced_squeezed_state(self, route):
        ref = squeezed_correlated_law_mp(self.R, self.THETA, self.MQ, self.MP, self.N)
        state = OneModeGaussianState.squeezed_correlated(self.R, self.THETA, self.MQ, self.MP)
        dist = route(state, self.N)
        assert dist.truncation == self.N
        assert min(ref) > 1e-150  # every term is a normal double
        assert max(self.rel_err(v, e) for v, e in zip(dist.values, ref)) <= 1e-9

    def test_centered_covariance_route(self):
        ref = squeezed_correlated_law_mp(self.R, self.THETA, 0.0, 0.0, self.N)
        state = OneModeGaussianState.squeezed_correlated(self.R, self.THETA)
        dist = pn_centered_xyt(XYTState(state.sigma_pp, state.sigma_qq, state.sigma_pq), self.N)
        assert dist.truncation == self.N
        for n, (v, e) in enumerate(zip(dist.values, ref)):
            if n % 2:
                # exact zeros of the pure state; det misses 1/4 by roundoff
                assert e == 0 and abs(v) <= 1e-15
            else:
                assert self.rel_err(v, e) <= 1e-9


class TestSqueezedVacuumAtTheCap:
    """Both Gaussian routes of a squeezed vacuum at r = 3, N = 4096, against
    the 50-digit closed form.  At r = 2.97 the float product
    sigma_pp sigma_qq misses 1/4, R12 is roundoff instead of 0, and the
    Hermite rows span about 27000 nats: they need several tilts."""

    @pytest.mark.parametrize("r", [3.0, 2.97])
    @pytest.mark.parametrize("route", [pn_hermite, pn_laguerre])
    def test_matches_closed_form(self, monkeypatch, route, r):
        spans = []
        tilted = specfun._tilted_rows
        monkeypatch.setattr(specfun, "_tilted_rows", lambda *a: spans.append(a) or tilted(*a))
        dist = route(OneModeGaussianState.squeezed_vacuum(r))
        assert dist.truncation == 4096
        if route is pn_hermite and r == 2.97:
            assert len(spans) > 1
        ref = squeezed_vacuum_law_mp(r, 4096, digits=50)
        with mpmath.workdps(50):
            for n, (v, e) in enumerate(zip(dist.values.tolist(), ref)):
                if n % 2:
                    assert abs(v) <= 1e-15
                elif e >= 1e-250:
                    # the terms near n = 4096 are formed from log-magnitudes
                    # near 2.7e4, whose rounding alone is 6e-12 relative
                    assert abs(mpmath.mpc(v) - e) <= 5e-11 * e


class TestTailNoiseFloor:
    """Roundoff-level odd terms of a pure squeezed vacuum do not drive
    adaptive truncation to the cap."""

    NOISY_R = 0.0506  # sigma_pp * sigma_qq misses 1/4 by an ulp

    @pytest.mark.parametrize("route", [pn_hermite, pn_laguerre])
    @pytest.mark.parametrize("r", [NOISY_R, 1.0])
    def test_squeezed_vacuum_converges(self, route, r):
        state = OneModeGaussianState.squeezed_vacuum(r)
        if r == self.NOISY_R:
            assert state.sigma_pp * state.sigma_qq != 0.25
        dist = route(state)
        assert math.isfinite(dist.tail_bound) and dist.tail_bound < 1e-12
        # without the floor the noisy state runs on until its law underflows, N = 248
        assert dist.truncation <= (64 if r == self.NOISY_R else 256)
        spec = DeformationSpec(DeformationKind.SQUEEZED_VACUUM, r=r)
        for n, v in enumerate(dist.values):
            e = deformed_pn(spec, n)
            assert abs(v - e) <= 1e-9 * abs(e) + 1e-14


def random_states(seed, count, valid):
    """Centered and displaced covariances, each clearing (valid) or
    violating det Sigma >= 1/4; the violating ones include negative
    variances and negative determinants."""
    rng = np.random.default_rng(seed)
    states = []
    while len(states) < count:
        x, y = rng.uniform(-1.0, 4.0, 2)
        t = rng.uniform(-1.5, 1.5)
        mq, mp = rng.uniform(-2.0, 2.0, 2) * (len(states) % 2)
        state = OneModeGaussianState(float(x), float(y), float(t), float(mq), float(mp))
        if (state.det >= 0.25) == valid and abs(4 * state.det + 2 * state.trace + 1) > 0.1:
            states.append(state)
    return states


def decay_ratio(state):
    """q = max(|a+|, |a-|) of the law of the state's generating record."""
    law = _generating_record(state).law
    return max(abs(law.a_plus), abs(law.a_minus))


def state_cut(state, n_max=None):
    """:func:`photon_dist._decay_cut` of a state, read from its record's law."""
    return photon_dist._decay_cut(_generating_record(state).law, n_max)


class TestDecayRatioTruncation:
    """Gaussian series sized once from the decay ratio q of their
    generating function, with a proven tail bound."""

    @pytest.mark.parametrize("valid", [True, False])
    def test_q_is_the_larger_laguerre_base(self, valid):
        for state in random_states(7, 40, valid):
            rm = r_matrix(state)
            rho = cmath.sqrt(rm.r11 * rm.r22)
            ref = max(abs(rm.r12 - rho), abs(rm.r12 + rho))
            q = decay_ratio(state)
            assert q == pytest.approx(ref, rel=1e-14)

    def test_known_ratios(self):
        for n_bar in (0.5, 1.0, 10.0):
            q = decay_ratio(OneModeGaussianState.thermal(n_bar))
            assert q == pytest.approx(n_bar / (n_bar + 1), rel=1e-15)
        for r in (0.1, 1.0, 3.0):
            q = decay_ratio(OneModeGaussianState.squeezed_vacuum(r))
            assert q == pytest.approx(math.tanh(r), rel=1e-12)

    def test_centered_terms_within_the_geometric_envelope(self):
        states = [st.to_state() for st in centered_grid()[::4]] + [
            OneModeGaussianState(0.3, 0.3, 0.0),  # SignedReal, q = 0.25
            OneModeGaussianState(0.2, 0.6, 0.1),  # SignedReal, q = 0.48
            OneModeGaussianState(0.9, -0.4, 0.3),  # SignedReal, q = 28
            OneModeGaussianState(-0.75, 5.0, 0.0),  # Complex, q = 5
            OneModeGaussianState(-1.0, 3.0, 0.2),  # Complex, q = 3.0
        ]
        seen = set()
        for state in states:
            q = decay_ratio(state)
            dist = pn_hermite(state, 120)
            seen.add(dist.classification)
            log_p0 = math.log(abs(p0(state)))
            for n, v in enumerate(dist.values):
                if v:
                    assert math.log(abs(v)) <= log_p0 + n * math.log(q) + 1e-9
        assert seen == set(Classification)

    @pytest.mark.parametrize("route", [pn_hermite, pn_laguerre])
    @pytest.mark.parametrize(
        "case", ["thermal-1", "thermal-10", "squeezed-1", "squeezed-2", "displaced"]
    )
    def test_omitted_mass_within_tail_bound(self, route, case):
        kind, _, arg = case.partition("-")
        if kind == "thermal":
            state = OneModeGaussianState.thermal(float(arg))
        elif kind == "squeezed":
            state = OneModeGaussianState.squeezed_vacuum(float(arg))
        else:
            state = OneModeGaussianState.squeezed_correlated(1.0, 0.7, 0.8, -0.5)
        dist = route(state)
        n = dist.truncation
        with mpmath.workdps(50):
            if kind == "thermal":
                n_bar = mpmath.mpf(arg)
                omitted = (n_bar / (n_bar + 1)) ** (n + 1)
            elif kind == "squeezed":
                omitted = 1 - mpmath.fsum(squeezed_vacuum_law_mp(float(arg), n, digits=50))
            else:
                omitted = 1 - mpmath.fsum(squeezed_correlated_law_mp(1.0, 0.7, 0.8, -0.5, n))
            assert 0 < omitted <= dist.tail_bound <= 1e-12
        assert dist.classification is Classification.PROBABILITY

    @pytest.mark.parametrize(
        "state",
        [
            OneModeGaussianState.thermal(1.0),
            OneModeGaussianState.squeezed_vacuum(1.0),
            OneModeGaussianState(0.8, 0.4, 0.1),
            OneModeGaussianState(1.2, 0.8, 0.2, 0.5, -0.7),
            OneModeGaussianState.squeezed_correlated(1.0, 0.0, 1.0, 0.5),
        ],
    )
    def test_series_evaluated_once(self, monkeypatch, state):
        calls, passes = [], []
        kernel, sequence = photon_dist.log_cauchy_rows, photon_dist._gauss_2f1_half

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(photon_dist, "log_cauchy_rows", counted)
        monkeypatch.setattr(photon_dist, "_gauss_2f1_half", lambda *a: passes.append(a) or sequence(*a))
        n_cut = state_cut(state)[0]
        for route in (pn_hermite, pn_laguerre):
            calls.clear()
            assert route(state).truncation <= n_cut
            assert len(calls) == 1
        if state.is_centered:
            # one pass of the 2F1 sequence, and no Cauchy product
            calls.clear()
            xyt = XYTState(state.sigma_pp, state.sigma_qq, state.sigma_pq)
            assert pn_centered_xyt(xyt).truncation <= n_cut
            assert not calls and len(passes) == 1

    @pytest.mark.parametrize("n_max", [None, 256])
    @pytest.mark.parametrize("means", [(0.0, 0.0), (0.6, -0.5)])
    def test_one_convolution_per_kernel_call(self, monkeypatch, n_max, means):
        # a squeezed thermal state of mean photon number 0.95, as routes_mixed draws
        r, theta, nu = 0.3, 1.0, 2.9 / math.cosh(0.6)
        ch, sh = math.cosh(2 * r), math.sinh(2 * r)
        sigmas = (nu / 2 * (ch + math.cos(theta) * sh), nu / 2 * (ch - math.cos(theta) * sh),
                  nu / 2 * math.sin(theta) * sh)
        state = OneModeGaussianState(*sigmas, *means)
        calls, convolutions, passes = [], [], []
        kernel, convolve = photon_dist.log_cauchy_rows, specfun._convolve_rows
        sequence = photon_dist._gauss_2f1_half
        monkeypatch.setattr(photon_dist, "log_cauchy_rows", lambda *a: calls.append(a) or kernel(*a))
        monkeypatch.setattr(specfun, "_convolve_rows", lambda *a: convolutions.append(a) or convolve(*a))
        monkeypatch.setattr(photon_dist, "_gauss_2f1_half", lambda *a: passes.append(a) or sequence(*a))
        for route in (pn_hermite, pn_laguerre):
            calls.clear()
            convolutions.clear()
            assert route(state, n_max).classification is Classification.PROBABILITY
            assert calls and len(convolutions) == len(calls)
        if state.is_centered:
            # the xyt route runs one pass of the 2F1 sequence and no kernel
            calls.clear()
            convolutions.clear()
            dist = pn_centered_xyt(XYTState(*sigmas), n_max)
            assert dist.classification is Classification.PROBABILITY
            assert not calls and not convolutions and len(passes) == 1

    def test_equivalent_laws_share_the_cutoff(self):
        for r, theta, mq, mp in [(0.7, 0.5, 0.3, -0.2), (1.0, 0.0, 1.0, 0.5), (0.2, 1.0, 0.0, 0.0)]:
            spec = DeformationSpec(
                DeformationKind.SQUEEZED_CORRELATED, r=r, theta=theta, mean_q=mq, mean_p=mp
            )
            law = deformed_distribution(spec)
            dist = pn_hermite(OneModeGaussianState.squeezed_correlated(r, theta, mq, mp))
            # the law reads its cutoff from tanh r and g, the route from its
            # record: one bound, rounded two ways.  The law's odd terms of a
            # centered state are exact zeros, dropped from its end; the
            # route's are roundoff
            assert law.tail_bound == pytest.approx(dist.tail_bound, rel=1e-12)
            assert 0 <= dist.truncation - law.truncation <= 1
            for v, e in zip(dist.values, law.values):
                assert abs(v - e) <= 1e-9 * abs(e) + 1e-15

    def test_cap_reports_the_bound_it_reached(self):
        dist = pn_hermite(OneModeGaussianState.squeezed_vacuum(3.0))
        assert dist.truncation == 4096
        assert 1e-12 < dist.tail_bound < 1e-6

    def test_q_above_one_keeps_doubling(self):
        assert state_cut(OneModeGaussianState(-0.75, 5.0, 0.0)) is None

    def test_q_of_one_on_a_clear_violation_keeps_doubling(self):
        # q is exactly 1, and det = 0 misses 1/4 by far more than its
        # rounding error
        state = OneModeGaussianState(0.5, 0.0, 0.0)
        assert decay_ratio(state) == 1.0
        assert state_cut(state) is None

    @pytest.mark.parametrize("r", [18.5, 20.0, 19.06, 25.0])
    def test_q_rounding_to_one_on_a_valid_state_is_past_the_cap(self, r):
        # tanh r, the state's q, rounds to 1 although det = 1/4: the law
        # lies far past the cap, and the sampled doubling loop used to end
        # in a normalization error.  At r = 19.06 and 25 the float det is
        # 0.24999999999999997, one ulp short of 1/4 but within its rounding
        # error, and read as a violation it ended in normalization-error
        # ("sums to 5.39e-07 against tail bound 1.08e-06").  Sigma > 0 decides
        # it, whatever the float det
        state = OneModeGaussianState.squeezed_vacuum(r)
        if r in (18.5, 20.0):
            assert state.det == 0.25
        else:
            assert 0 < state.det < 0.25 and state.sigma_pp > 0
        for route in (pn_hermite, pn_laguerre):
            with pytest.raises(RangeOverflowError, match="past the cap"):
                route(state)
        for spec in (
            DeformationSpec(DeformationKind.SQUEEZED_VACUUM, r=r),
            DeformationSpec(DeformationKind.SQUEEZED_CORRELATED, r=r, theta=0.3, mean_q=1.0),
        ):
            with pytest.raises(RangeOverflowError, match="past the cap"):
                deformed_distribution(spec)

    @pytest.mark.parametrize(
        "r, reason", [(16.0, "tail bound at the N = 4096 cap"), (19.0, "decay ratio rounds to 1")]
    )
    @pytest.mark.parametrize("route", [pn_hermite, pn_laguerre])
    def test_ratios_rounding_onto_q_or_one_are_past_the_cap(self, route, r, reason):
        # a displaced state with q within a few ulps of 1: rho = q + (1 - q) 2^-k
        # rounds onto q = -a+ for some k (a bare ZeroDivisionError in
        # c+ / (rho + a+)) or onto 1; at r = 19 every rho does
        state = OneModeGaussianState.squeezed_correlated(r, 0.3, 1.0)
        with pytest.raises(RangeOverflowError, match=reason):
            route(state)

    @pytest.mark.parametrize("r", [400.0, 700.0])
    def test_closed_law_past_the_double_range_is_past_the_cap(self, r):
        # e^(2r) leaves the double range, so no state is built, while the
        # weights have not all underflowed: the doubling loop ended in a
        # normalization error ("sums to 1.77e-173" at r = 400)
        for spec in (
            DeformationSpec(DeformationKind.SQUEEZED_VACUUM, r=r),
            DeformationSpec(DeformationKind.SQUEEZED_CORRELATED, r=r, mean_q=1.0),
        ):
            assert deformed_pn(spec, 0) > 0
            with pytest.raises(RangeOverflowError, match="decay ratio rounds to 1"):
                deformed_distribution(spec)

    @pytest.mark.parametrize("route", [pn_hermite, pn_laguerre])
    @pytest.mark.parametrize("n_max", [None, 16])
    def test_one_generating_record_per_route_call(self, monkeypatch, route, n_max):
        records = []
        build = photon_dist._generating_record
        monkeypatch.setattr(
            photon_dist, "_generating_record", lambda s: records.append(s) or build(s)
        )
        route(OneModeGaussianState(1.2, 0.8, 0.2, 0.5, -0.7), n_max)
        assert len(records) == 1


class TestOneRecordPerState:
    """A state object keeps the generating record and the cutoff its first
    route call computed, in its instance dict, and never by value."""

    STATE = (1.2, 0.8, 0.2, 0.5, -0.7)

    @staticmethod
    def counted(monkeypatch):
        calls = {"record": 0, "cut": 0}
        record, cut = photon_dist._generating_record, photon_dist._decay_cut

        def counted_record(state):
            calls["record"] += 1
            return record(state)

        def counted_cut(law, n_max):
            calls["cut"] += 1
            return cut(law, n_max)

        monkeypatch.setattr(photon_dist, "_generating_record", counted_record)
        monkeypatch.setattr(photon_dist, "_decay_cut", counted_cut)
        return calls

    def test_routes_on_one_object_share_them(self, monkeypatch):
        state = OneModeGaussianState(*self.STATE)
        fresh = [pn_hermite(OneModeGaussianState(*self.STATE)),
                 pn_laguerre(OneModeGaussianState(*self.STATE))]
        calls = self.counted(monkeypatch)
        shared = [pn_hermite(state), pn_laguerre(state), pn_hermite(state, 16)]
        # the adaptive cutoff is kept; the one at an explicit N is not
        assert calls == {"record": 1, "cut": 2}
        for a, b in zip(fresh, shared):
            assert a.values.tobytes() == b.values.tobytes()
            assert (a.truncation, a.tail_bound) == (b.truncation, b.tail_bound)

    @pytest.mark.parametrize("state", [STATE, (1.3, 0.7, 0.25)])
    def test_explicit_and_adaptive_calls_read_one_bound(self, state):
        # an explicit N used to swap the proven bound for the sampled estimate
        n_cut, tail = state_cut(OneModeGaussianState(*state))
        for route in (pn_hermite, pn_laguerre):
            assert route(OneModeGaussianState(*state)).tail_bound == tail
            assert route(OneModeGaussianState(*state), n_cut).tail_bound == tail

    def test_equal_state_computes_its_own(self, monkeypatch):
        # equal under ==, but a zero of the other sign
        first = OneModeGaussianState(1.2, 0.8, 0.2, 0.0, 0.0)
        second = OneModeGaussianState(1.2, 0.8, 0.2, -0.0, 0.0)
        assert first == second and hash(first) == hash(second)
        pn_hermite(first)
        calls = self.counted(monkeypatch)
        pn_hermite(second)
        assert calls == {"record": 1, "cut": 1}

    def test_singular_state_raises_on_every_call(self, monkeypatch):
        state = OneModeGaussianState(-0.5, -0.5, 0.0)  # D = Tr + 2 det + 1/2 = 0
        calls = self.counted(monkeypatch)
        for route in (pn_hermite, pn_laguerre, pn_hermite):
            with pytest.raises(SingularDenominatorError):
                route(state)
        assert calls == {"record": 3, "cut": 0}

    def test_cutoff_that_raises_is_not_kept(self, monkeypatch):
        state = OneModeGaussianState.squeezed_correlated(19.0, 0.3, 1.0)
        calls = self.counted(monkeypatch)
        for route in (pn_hermite, pn_laguerre):
            with pytest.raises(RangeOverflowError):
                route(state)
        assert calls == {"record": 1, "cut": 2}

    def test_threads_sharing_one_object_get_one_law(self):
        # a race on the first call may compute the record or the cutoff
        # twice; both writes hold the same value
        expected = [pn_hermite(OneModeGaussianState(*self.STATE)).values.tobytes(),
                    pn_laguerre(OneModeGaussianState(*self.STATE)).values.tobytes()]
        wrong = []

        def worker(shared):
            for i in range(20):
                route = (pn_hermite, pn_laguerre)[i % 2]
                if route(shared).values.tobytes() != expected[i % 2]:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                shared = OneModeGaussianState(*self.STATE)
                threads = [threading.Thread(target=worker, args=(shared,)) for _ in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

    def test_fields_equality_hash_and_descriptor_are_unchanged(self):
        state, twin = OneModeGaussianState(*self.STATE), OneModeGaussianState(*self.STATE)
        before = (repr(state), hash(state), state.to_dict())
        pn_hermite(state)
        assert state == twin
        assert (repr(state), hash(state), state.to_dict()) == before
        assert [f.name for f in dataclasses.fields(state)] == list(state.to_dict())


class TestDisplacedSqueezedTails:
    """The displaced squeezed/correlated law used to run on to n = 1476
    with an infinite tail: the sampled decay ratio read the factor-2-4
    steps between neighbouring terms as growth."""

    def check(self, dist):
        assert dist.classification is Classification.PROBABILITY
        assert math.isfinite(dist.tail_bound) and dist.tail_bound <= 1e-12
        assert len(dist) < 150

    def test_deformed_law(self):
        spec = DeformationSpec(
            DeformationKind.SQUEEZED_CORRELATED, r=0.7, theta=0.5, mean_q=0.3, mean_p=-0.2
        )
        self.check(deformed_distribution(spec))

    def test_hermite_route(self):
        self.check(pn_hermite(OneModeGaussianState.squeezed_correlated(1.0, 0.0, 1.0, 0.5)))

    def test_law_that_stopped_at_a_dip(self):
        # stopped at a dip of the law, where it was a NormalizationError
        spec = DeformationSpec(
            DeformationKind.SQUEEZED_CORRELATED, r=0.7186721370352377,
            theta=3.589372365483347, mean_q=-0.20798845555731993,
            mean_p=-0.9328659728186599,
        )
        self.check(deformed_distribution(spec))


@functools.lru_cache(maxsize=None)
def gaussian_law_mp(state, n_max, digits=50):
    """P_0 .. P_n_max of a one-mode Gaussian state at ``digits`` digits.

    Coded from Sigma = [[sigma_pp, sigma_pq], [sigma_pq, sigma_qq]] over
    (p, q) and d = (<p>, <q>) alone, with no Hermite, Laguerre, R or w
    code: the Taylor coefficients of the generating function

        sum_n P_n z^n = 2/(1+z) det(I + 2s Sigma)^(-1/2)
                        exp(-s d^T (I + 2s Sigma)^(-1) d),   s = (1-z)/(1+z).

    det(I + 2s Sigma) (1+z)^2 is divided by its value 1 + 2 Tr + 4 det at
    z = 0, so the principal square root is continuous near z = 0 on both
    sides of the uncertainty boundary.
    """
    with mpmath.workdps(digits):
        spp, sqq, spq, mq, mp = map(
            mpmath.mpf,
            (state.sigma_pp, state.sigma_qq, state.sigma_pq, state.mean_q, state.mean_p),
        )
        tr, det = spp + sqq, spp * sqq - spq * spq
        g0 = 1 + 2 * tr + 4 * det

        def gen(z):
            s = (1 - z) / (1 + z)
            g = 1 + 2 * s * tr + 4 * s * s * det  # det(I + 2s Sigma)
            # d^T adj(I + 2s Sigma) d
            quad = (
                mp * mp * (1 + 2 * s * sqq)
                + mq * mq * (1 + 2 * s * spp)
                - 4 * s * spq * mp * mq
            )
            root = mpmath.sqrt(g0) * mpmath.sqrt(g * (1 + z) ** 2 / g0)
            return 2 / root * mpmath.exp(-s * quad / g)

        return tuple(mpmath.taylor(gen, 0, n_max))


class TestGeneratingFunctionReference:
    """Both routes against :func:`gaussian_law_mp`.  The states below sit
    where the routes once read a y of vanishing denominator
    Tr - 2 det - 1/2: coherent states and the state (0.51, 0.5, 0, 1, 0.5)
    raised SingularDenominatorError, and the states near that surface lost
    their normalization (0.5 + 1e-9 summed to 0.535) or precision."""

    N = 40

    @pytest.mark.parametrize("route", [pn_hermite, pn_laguerre])
    @pytest.mark.parametrize(
        "state",
        [
            OneModeGaussianState.coherent(1.0, 0.5),
            OneModeGaussianState.coherent(3.0, -2.0),
            OneModeGaussianState(0.51, 0.5, 0.0, 1.0, 0.5),
            OneModeGaussianState(0.5 + 1e-9, 0.5, 0.0, 1.0, 0.5),
            OneModeGaussianState(
                1.4962646377019382, 0.6273416203605747, 0.3561784527721432,
                -0.8877591285558021, -0.2948158276239994,
            ),
        ]
        + [
            OneModeGaussianState.squeezed_correlated(r, 0.3, 1.0, 0.5)
            for r in (1e-2, 1e-3, 1e-4, 1e-5)
        ],
    )
    def test_route_matches_the_reference(self, route, state):
        ref = gaussian_law_mp(state, self.N)
        dist = route(state, self.N)
        assert dist.classification is Classification.PROBABILITY
        values = list(dist.values.tolist()) + [0j] * (self.N + 1 - len(dist.values))
        with mpmath.workdps(50):
            top = max(abs(e) for e in ref)
            worst = max(abs(mpmath.mpc(v) - e) for v, e in zip(values, ref))
        assert worst <= 1e-13 * top


class TestOneCutoffRule:
    """Every one-mode law with q < 1, the xyt route and the closed squeezed
    laws included, is cut by :func:`photon_dist._decay_cut` from its own
    generating numbers, at an explicit N as well as an adaptive one."""

    LAWS = {
        "xyt": lambda n_max: pn_centered_xyt(XYTState(1.3, 0.7, 0.25), n_max),
        "vacuum": lambda n_max: deformed_distribution(
            DeformationSpec(DeformationKind.SQUEEZED_VACUUM, r=1.0), n_max
        ),
        "correlated": lambda n_max: deformed_distribution(
            DeformationSpec(DeformationKind.SQUEEZED_CORRELATED, r=0.7, theta=0.5,
                            mean_q=0.3, mean_p=-0.2), n_max
        ),
    }

    @pytest.mark.parametrize("n_max", [None, 16])
    def test_no_law_builds_a_record(self, monkeypatch, n_max):
        # the xyt route cut itself through a second record of its state, and
        # the closed laws through a stand-in state
        records = []
        build = photon_dist._generating_record
        monkeypatch.setattr(
            photon_dist, "_generating_record", lambda s: records.append(s) or build(s)
        )
        for law in self.LAWS.values():
            law(n_max)
        assert records == []

    @pytest.mark.parametrize("name", list(LAWS))
    def test_explicit_and_adaptive_calls_read_one_bound(self, monkeypatch, name):
        cuts = []
        cut = photon_dist._decay_cut
        monkeypatch.setattr(
            photon_dist, "_decay_cut", lambda law, n_max: cuts.append(cut(law, n_max)) or cuts[-1]
        )
        adaptive = self.LAWS[name](None)
        explicit = self.LAWS[name](cuts[0][0])
        assert cuts[1] == cuts[0]
        assert explicit.tail_bound == adaptive.tail_bound

    def test_xyt_cutoff_matches_the_routes(self):
        for state in random_states(3, 60, True)[::2] + random_states(3, 60, False)[::2]:
            xyt = XYTState(state.sigma_pp, state.sigma_qq, state.sigma_pq)
            try:
                own = pn_centered_xyt(xyt)
            except (RangeOverflowError, DivergentSeriesError) as exc:
                with pytest.raises(type(exc)):
                    pn_hermite(state)
                continue
            route = pn_hermite(state)
            if route.tail_bound < 1e-12 or own.tail_bound < 1e-12:
                assert abs(own.truncation - route.truncation) <= 1
                assert own.tail_bound == pytest.approx(route.tail_bound, rel=1e-9)

    def test_closed_laws_print_no_infinite_tail(self):
        # the stand-in state's sigmas lose det to cancellation from r ~ 8: at
        # r = 10, <q> = 1 the law came back Probability at N = 4096 with tail
        # inf, keeping 0.0046 of its mass; elsewhere a normalization error
        for r in np.arange(3.0, 20.01, 0.25):
            for theta in (0.0, 1.0):
                for mean_q in (0.0, 1.0):
                    spec = DeformationSpec(
                        DeformationKind.SQUEEZED_CORRELATED, r=float(r), theta=theta, mean_q=mean_q
                    )
                    try:
                        dist = deformed_distribution(spec)
                    except RangeOverflowError as exc:
                        assert "past the cap" in str(exc)
                        continue
                    assert dist.tail_bound < 1
                    assert math.fsum(dist.values.real) >= 1 - dist.tail_bound - 1e-9

    @pytest.mark.parametrize("r, n_max, omitted", [(1.0, 2, 0.1640), (5.0, 100, 0.8920)])
    @pytest.mark.parametrize("route", ["law", pn_hermite, pn_laguerre, pn_centered_xyt])
    def test_explicit_tail_covers_the_omitted_mass(self, route, r, n_max, omitted):
        # the sampled estimates, 0.154 and 0.207, fell short of the omitted
        # mass: a normalization error.  The bound at N is loose (2.40 at r = 1)
        state = OneModeGaussianState.squeezed_vacuum(r)
        if route == "law":
            dist = deformed_distribution(DeformationSpec(DeformationKind.SQUEEZED_VACUUM, r=r), n_max)
        elif route is pn_centered_xyt:
            dist = route(XYTState(state.sigma_pp, state.sigma_qq), n_max)
        else:
            dist = route(state, n_max)
        missing = 1 - math.fsum(dist.values.real)
        assert missing == pytest.approx(omitted, abs=1e-4)
        assert dist.tail_bound >= missing
        assert dist.classification is Classification.PROBABILITY

    @pytest.mark.parametrize("route", [pn_hermite, pn_laguerre])
    def test_explicit_n_keeping_no_mass_raises(self, route):
        # P0 underflows, and every term up to N = 16 with it; the bound at
        # N is inf, which would pass an all-zero table as a probability
        state = OneModeGaussianState.squeezed_correlated(0.5, 0.0, 60.0, 0.0)
        with pytest.raises(RangeOverflowError, match="every term up to N = 16 underflows to 0"):
            route(state, 16)

    @pytest.mark.parametrize("n_max", [None, 16])
    def test_xyt_covariance_past_the_double_range_raises(self, n_max):
        with pytest.raises(RangeOverflowError, match="4 det"):
            pn_centered_xyt(XYTState(1e155, 1e155), n_max)


class TestLawValue:
    """Every one-mode law builds one generating-law value from its own
    numbers; the cutoff reads it, and a proven tail checks its mass."""

    STATE = (1.2, 0.8, 0.2, 0.5, -0.7)
    LAWS = {
        **TestOneCutoffRule.LAWS,
        "hermite": lambda n_max: pn_hermite(OneModeGaussianState(*TestLawValue.STATE), n_max),
        "laguerre": lambda n_max: pn_laguerre(OneModeGaussianState(*TestLawValue.STATE), n_max),
    }
    # displaced positive-definite covariances with det < 1/4, where q < 1:
    # the Hermite route loses their tables to cancellation
    DISPLACED_VIOLATING = [
        OneModeGaussianState(0.18167952100237902, 0.017483699616411906, 0.028158037131206473,
                             -0.6564138200562226, -1.914582857884865),
        OneModeGaussianState(0.28614344862676727, 0.187617130212788, -0.19693965340309813,
                             2.753804003116569, -3.4644889429695773),
    ]

    @pytest.mark.parametrize("n_max", [None, 16])
    @pytest.mark.parametrize("name", list(LAWS))
    def test_each_law_builds_one_value_per_call(self, monkeypatch, name, n_max):
        built = []
        law = gaussian_state._Law
        monkeypatch.setattr(gaussian_state, "_Law", lambda *a: built.append(a) or law(*a))
        monkeypatch.setattr(photon_dist, "_Law", lambda *a: built.append(a) or law(*a))
        self.LAWS[name](n_max)
        assert len(built) == 1

    def test_routes_on_one_object_share_its_value(self, monkeypatch):
        state = OneModeGaussianState(*self.STATE)
        built = []
        law = gaussian_state._Law
        monkeypatch.setattr(gaussian_state, "_Law", lambda *a: built.append(a) or law(*a))
        pn_hermite(state)
        pn_laguerre(state, 16)
        assert len(built) == 1

    @pytest.mark.parametrize("state", DISPLACED_VIOLATING, ids=["det-0.0024", "det-0.015"])
    def test_hermite_table_that_lost_its_mass_raises(self, state):
        # both came back SignedReal, summing to 1.7e17 (N = 711, mean 1.2e20)
        # and to 9.6e12
        with pytest.raises(NormalizationError, match="against proven tail bound"):
            pn_hermite(state)

    @pytest.mark.parametrize("state", DISPLACED_VIOLATING, ids=["det-0.0024", "det-0.015"])
    def test_laguerre_keeps_the_mass_and_matches_the_reference(self, state):
        dist = pn_laguerre(state)
        assert abs(math.fsum(dist.values.real.tolist()) - 1) <= dist.tail_bound + 1e-9
        ref = gaussian_law_mp(state, 40)
        with mpmath.workdps(50):
            top = max(abs(e) for e in ref)
            worst = max(abs(mpmath.mpc(v) - e) for v, e in zip(dist.values[:41].tolist(), ref))
        assert worst <= 1e-12 * top

    def test_only_a_proven_tail_checks_a_signed_or_complex_mass(self):
        for values in ([1.5, -0.1], [1.5 + 0.1j, -0.1]):
            table = np.array(values, dtype=complex)
            verdict = photon_dist._classify(table, 0.0)
            assert verdict is not Classification.PROBABILITY
            with pytest.raises(NormalizationError, match=f"{verdict.value} sequence sums to 1.4"):
                photon_dist._classify(table, 0.0, True)
            assert photon_dist._classify(table, 0.4, True) is verdict

    NEGATIVE_DEFINITE = {
        "hermite": lambda n_max: pn_hermite(OneModeGaussianState(-1.0, -1.0), n_max),
        "laguerre": lambda n_max: pn_laguerre(OneModeGaussianState(-1.0, -1.0), n_max),
        "xyt": lambda n_max: pn_centered_xyt(XYTState(-1.0, -1.0), n_max),
    }

    @pytest.mark.parametrize("n_max", [None, 16])
    @pytest.mark.parametrize("name", list(NEGATIVE_DEFINITE))
    def test_negative_definite_covariance_has_no_law(self, name, n_max):
        # det = 1 read as valid and q = 3 as a q that rounds to 1: "decay
        # ratio rounds to 1: the law lies past the cap"
        with pytest.raises(DivergentSeriesError, match="negative-definite"):
            self.NEGATIVE_DEFINITE[name](n_max)

    @pytest.mark.parametrize("n_max", [None, 16])
    @pytest.mark.parametrize(
        "state",
        [OneModeGaussianState(-0.3, -0.3, 0.0), OneModeGaussianState(-0.3, -0.3, 0.0, 0.5, 0.2)],
        ids=["centered", "displaced"],
    )
    def test_negative_definite_violation_has_no_law(self, state, n_max):
        # det = 0.09 < 1/4 and q = 4: the centered state came back SignedReal
        # at N = 64 with tail inf, the displaced one trimmed at N = 1 with
        # tail 1.09
        with pytest.raises(DivergentSeriesError, match="negative-definite"):
            state_cut(state, n_max)
        for route in (pn_hermite, pn_laguerre):
            with pytest.raises(DivergentSeriesError, match="negative-definite"):
                route(state, n_max)
        if not (state.mean_q or state.mean_p):
            with pytest.raises(DivergentSeriesError, match="negative-definite"):
                pn_centered_xyt(XYTState(-0.3, -0.3), n_max)

    def test_indefinite_violation_keeps_doubling(self):
        # det < 0: the series of pure_boundary's violation cells (x < 0 < y)
        state = OneModeGaussianState(-0.3, 0.9, 0.0)
        assert decay_ratio(state) >= 1
        assert state_cut(state) is None

    def correlated(r):
        return DeformationSpec(
            DeformationKind.SQUEEZED_CORRELATED, r=r, theta=0.3, mean_q=1.0, mean_p=-0.5
        )

    @pytest.mark.parametrize("r", [1e-320, 5e-324, 5.5e-309])
    def test_r_whose_tanh_inverts_to_inf_is_the_coherent_law(self, r):
        # 1 / tanh r is inf, so g was NaN: range-overflow at r = 1e-320.  The
        # scaled Hermite form divides by no tanh r: the closed law at this r
        # is the r = 0 one to the bit
        spec, coherent = TestLawValue.correlated(r), TestLawValue.correlated(0.0)
        law, law_0 = photon_dist._closed_law(spec), photon_dist._closed_law(coherent)
        assert (law.a_plus, law.a_minus) == (-math.tanh(r), math.tanh(r))
        assert (law.c_plus, law.c_minus, law.log_p0) == (law_0.c_plus, law_0.c_minus, law_0.log_p0)
        tiny, zero = deformed_distribution(spec), deformed_distribution(coherent)
        assert tiny.values.tobytes() == zero.values.tobytes()
        assert (tiny.truncation, tiny.tail_bound, tiny.classification) == (
            zero.truncation, zero.tail_bound, zero.classification)
        assert deformed_pn(spec, 3) == deformed_pn(coherent, 3)

    @pytest.mark.parametrize(
        "spec",
        [DeformationSpec(DeformationKind.SQUEEZED_CORRELATED, r=5.6e-309, mean_q=1.0),
         correlated(1e-300)],
        ids=["5.6e-309", "1e-300"],
    )
    def test_r_whose_tanh_inverts_to_a_double_keeps_the_squeezed_law(self, spec):
        law = photon_dist._closed_law(spec)
        assert (law.a_plus, law.a_minus) == (-math.tanh(spec.r), math.tanh(spec.r))
        dist = deformed_distribution(spec)
        assert dist.classification is Classification.PROBABILITY and dist.tail_bound <= 1e-12
        # the law at this r is the r = 0 one to O(r)
        coherent = deformed_distribution(dataclasses.replace(spec, r=0.0))
        assert dist.truncation == coherent.truncation
        for n, value in enumerate(dist.values.real.tolist()):
            assert value == pytest.approx(coherent.values[n].real, rel=1e-14), n

    def test_hermite_argument_whose_square_overflows_keeps_the_coherent_law(self):
        # |g| = 7.5e153: (2g)^2 overflowed to NaN in the Hermite recurrence,
        # "sums to nan", and the unscaled law then lost 2.4e-12 relative to
        # the rounding of its n ln(t / 2) against 2 ln |H_n(g)|.  The scaled
        # argument u = sqrt(t) g is of the order of the displacement
        spec = TestLawValue.correlated(5.6e-309)
        assert abs(photon_dist._squeezed_correlated_amplitude(spec)[2]) < 1
        dist = deformed_distribution(spec)
        assert dist.classification is Classification.PROBABILITY and dist.tail_bound <= 1e-12
        coherent = deformed_distribution(TestLawValue.correlated(0.0))
        for n, value in enumerate(dist.values.real.tolist()):
            assert value == pytest.approx(coherent.values[n].real, rel=1e-14), n


class TestOneSqueezedLaw:
    """The squeezed/correlated law is written once, for every r >= 0, as
    P0 |h_n|^2 / (2^n n!) with h_n = s^n H_n(u / s), s = sqrt(tanh r): no
    division by tanh r, so r = 0 is the coherent law, cut by the same
    proven rule as the Poisson law."""

    ARGS = dict(theta=0.3, mean_q=1.0, mean_p=-0.5)

    @staticmethod
    def reference(r, n_max):
        """The paper's law in g at 50 digits; the Poisson law at r = 0."""
        if r:
            return squeezed_correlated_law_mp(r, 0.3, 1.0, -0.5, n_max)
        with mpmath.workdps(50):
            x_bar = mpmath.mpf(0.625)
            return [mpmath.exp(-x_bar) * x_bar**n / mpmath.factorial(n) for n in range(n_max + 1)]

    @pytest.mark.parametrize("r", [0.0, 1e-320, 5.6e-309, 1e-17, 1e-3, 0.7, 2.0])
    def test_law_matches_a_50_digit_reference(self, r):
        dist = deformed_distribution(DeformationSpec(DeformationKind.SQUEEZED_CORRELATED, r=r,
                                                     **self.ARGS))
        assert dist.classification is Classification.PROBABILITY and dist.tail_bound <= 1e-12
        assert error_to_top(dist.values, self.reference(r, dist.truncation)) <= 1e-14

    @pytest.mark.parametrize(
        "mean_q, mean_p, theta", [(3.0, 0.0, 0.0), (0.0, 2.0, 1.1), (-4.0, 5.0, 2.0)]
    )
    def test_r0_and_poisson_share_one_cut(self, mean_q, mean_p, theta):
        coherent = deformed_distribution(DeformationSpec(
            DeformationKind.SQUEEZED_CORRELATED, theta=theta, mean_q=mean_q, mean_p=mean_p))
        poisson = deformed_distribution(DeformationSpec(
            DeformationKind.POISSON, alpha_mag2=(mean_q * mean_q + mean_p * mean_p) / 2))
        assert coherent.truncation == poisson.truncation
        assert coherent.tail_bound == pytest.approx(poisson.tail_bound, rel=1e-12)
        assert poisson.tail_bound <= 1e-12
        top = np.max(np.abs(poisson.values))
        assert np.max(np.abs(coherent.values - poisson.values)) <= 1e-14 * top

    def test_poisson_law_is_cut_once_with_a_proven_tail(self, monkeypatch):
        # the sampled doubling loop stopped at N = 32
        runs = []
        weights = photon_dist._deformed_weights
        monkeypatch.setattr(photon_dist, "_deformed_weights",
                            lambda spec, n: runs.append(len(n)) or weights(spec, n))
        dist = deformed_distribution(DeformationSpec(DeformationKind.POISSON, alpha_mag2=2.25))
        assert runs == [22] and dist.truncation == 21
        assert dist.tail_bound <= 1e-12
        with mpmath.workdps(30):
            omitted = 1 - mpmath.fsum(mpmath.exp(-2.25) * mpmath.mpf(2.25) ** n / mpmath.factorial(n)
                                      for n in range(22))
        assert 0 < omitted <= dist.tail_bound

    @pytest.mark.parametrize("family", ["correlated", "state"])
    def test_coherent_law_keeps_its_reach(self, family):
        # the candidate rho = 7/8 and 3/4 reach what the doubling loop
        # reached at r = 0 (<q> = 85: N = 4096, sampled tail 3.5e-15)
        if family == "correlated":
            dist = deformed_distribution(
                DeformationSpec(DeformationKind.SQUEEZED_CORRELATED, mean_q=85.0))
            n = 4092
        else:
            dist = pn_hermite(OneModeGaussianState.coherent(77.0, 0.0))
            n = 3399
        assert dist.truncation == n
        assert dist.classification is Classification.PROBABILITY and dist.tail_bound <= 1e-12

    @pytest.mark.parametrize("r", [0.0, 0.5])
    def test_squared_displacement_past_the_double_range_raises_for_one_term_too(self, r):
        # deformed_pn returned 0.0 at r = 0.5 while the table raised; at
        # r = 0 the scaled law would read nan
        spec = DeformationSpec(DeformationKind.SQUEEZED_CORRELATED, r=r, mean_q=1e155)
        for call in (lambda: deformed_pn(spec, 3), lambda: deformed_distribution(spec)):
            with pytest.raises(RangeOverflowError, match="squared displacement"):
                call()

    def test_squeezed_vacuum_at_r0_is_the_vacuum(self):
        dist = deformed_distribution(DeformationSpec(DeformationKind.SQUEEZED_VACUUM))
        assert dist.values.tolist() == [1.0]
        assert (dist.truncation, dist.tail_bound) == (0, 0.0)


class TestSignPattern:
    """Whether q < 1 is read from the sign pattern of Sigma: q < 1 exactly
    when Sigma > 0, so a float q >= 1 on a positive-definite Sigma is
    rounding, whatever its det."""

    @pytest.mark.parametrize(
        "pp, det, sign",
        [(0.5, 0.25, 1), (1e-17, 1e-17, 1), (-0.3, 0.09, -1), (-0.3, -0.27, 0), (0.5, 0.0, 0),
         (0.0, 0.0, 0), (0.5, -0.0, 0)],
    )
    def test_definite(self, pp, det, sign):
        assert gaussian_state._definite(pp, det) == sign

    def test_each_law_carries_its_sign(self):
        assert _generating_record(OneModeGaussianState(-0.3, 0.9)).law.definite == 0
        assert _generating_record(OneModeGaussianState(-0.3, -0.3)).law.definite == -1
        assert _generating_record(OneModeGaussianState(1e-17, 1.0)).law.definite == 1
        spec = DeformationSpec(DeformationKind.SQUEEZED_CORRELATED, r=0.7, mean_q=1.0)
        assert photon_dist._closed_law(spec).definite == 1

    @pytest.mark.parametrize("n_max", [None, 16])
    @pytest.mark.parametrize(
        "route",
        [pn_hermite, pn_laguerre, lambda state, n_max: pn_centered_xyt(
            XYTState(state.sigma_pp, state.sigma_qq, state.sigma_pq), n_max)],
        ids=["hermite", "laguerre", "xyt"],
    )
    def test_positive_definite_q_of_one_is_past_the_cap(self, route, n_max):
        # det = 1e-17 < 1/4 by far more than its rounding, and q rounds to
        # 1: the routes came back SignedReal at the 4096 cap (sampled tail
        # 144, mass 1.0044)
        state = OneModeGaussianState(1e-17, 1.0)
        assert decay_ratio(state) == 1.0
        with pytest.raises(RangeOverflowError, match="decay ratio rounds to 1"):
            route(state, n_max)

    @pytest.mark.parametrize("route", [pn_hermite, pn_laguerre])
    def test_displaced_positive_definite_q_of_one_is_past_the_cap(self, route):
        # trimmed as divergent at N = 30 with tail 0.007
        with pytest.raises(RangeOverflowError, match="decay ratio rounds to 1"):
            route(OneModeGaussianState(1e-17, 1.0, 0.0, 0.3, 0.1))

    def test_indefinite_q_above_one_keeps_doubling_on_the_xyt_route(self, monkeypatch):
        sizes = []
        build = photon_dist._build_distribution
        monkeypatch.setattr(photon_dist, "_build_distribution",
                            lambda series, n_max, cut=None: sizes.append(cut) or build(
                                series, n_max, cut))
        pn_centered_xyt(XYTState(-0.3, 0.9, 0.0))
        assert sizes == [None]


class TestLargeDisplacement:
    """At |mean| of a few tens P0 underflows to 0.0 while the Hermite factors
    of the law overflow.  The law, both routes and the cutoff keep P0 as its
    log (the routes and the cutoff read it from the generating record), so
    the cutoff bounds the tail from the true P0.  Where the law lies past
    the 4096 cap the tail bound there is not below 1, and the call raises."""

    @staticmethod
    def spec(mean_q):
        return DeformationSpec(DeformationKind.SQUEEZED_CORRELATED, r=0.5, mean_q=mean_q)

    def test_law_whose_p0_underflows_matches_mpmath(self):
        dist = deformed_distribution(self.spec(38.0))
        assert dist.classification is Classification.PROBABILITY
        assert dist.truncation == 836
        assert math.fsum(dist.values.real.tolist()) == pytest.approx(1.0, abs=1e-12)
        ref = squeezed_correlated_law_mp(0.5, 0.0, 38.0, 0.0, dist.truncation, digits=60)
        top = max(ref)
        for value, exact in zip(dist.values.tolist(), ref):
            assert abs(mpmath.mpf(value.real) - exact) <= 3e-12 * top

    def test_law_at_mean_q_60_classifies(self):
        dist = deformed_distribution(self.spec(60.0))
        assert dist.classification is Classification.PROBABILITY
        assert math.fsum(dist.values.real.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_law_past_the_cap_raises(self):
        with pytest.raises(RangeOverflowError):
            deformed_distribution(self.spec(200.0))

    @pytest.mark.parametrize("mean_q", [40.0, 60.0, 80.0])
    @pytest.mark.parametrize("route", [pn_hermite, pn_laguerre])
    def test_routes_whose_p0_underflows_match_mpmath(self, route, mean_q):
        # P0 x (P_n / P0) overflowed in the ratio before P0 scaled it down
        dist = route(OneModeGaussianState.squeezed_correlated(0.5, 0.0, mean_q, 0.0))
        assert dist.classification is Classification.PROBABILITY
        assert math.fsum(dist.values.real.tolist()) == pytest.approx(1.0, abs=1e-11)
        ref = squeezed_correlated_law_mp(0.5, 0.0, mean_q, 0.0, dist.truncation)
        top = max(ref)
        for value, exact in zip(dist.values.tolist(), ref):
            assert abs(mpmath.mpf(value.real) - exact) <= 1e-11 * top

    @pytest.mark.parametrize("route", [pn_hermite, pn_laguerre, deformed_distribution])
    def test_tail_bound_at_mean_q_60(self, route):
        # the float floor on P0 left the cutoff a bound of 2.1e131 at N = 2943
        arg = (
            self.spec(60.0) if route is deformed_distribution
            else OneModeGaussianState.squeezed_correlated(0.5, 0.0, 60.0, 0.0)
        )
        assert route(arg).tail_bound <= 1e-11

    @pytest.mark.parametrize("route", [pn_hermite, pn_laguerre])
    def test_routes_past_the_cap_raise(self, route):
        with pytest.raises(RangeOverflowError):
            route(OneModeGaussianState.squeezed_correlated(0.5, 0.0, 100.0, 0.0))

    @pytest.mark.parametrize("route", [pn_hermite, pn_laguerre, deformed_distribution])
    def test_squared_displacement_past_the_double_range_raises(self, route):
        # mean_q**2 raised a bare OverflowError in p0; ln P0 is now -inf
        state = OneModeGaussianState.squeezed_correlated(0.5, 0.0, 1e155, 0.0)
        assert p0(state) == 0.0
        arg = self.spec(1e155) if route is deformed_distribution else state
        with pytest.raises(RangeOverflowError, match="squared displacement"):
            route(arg)

    @pytest.mark.parametrize(
        "kind", [DeformationKind.SQUEEZED_VACUUM, DeformationKind.SQUEEZED_CORRELATED]
    )
    def test_squeeze_past_the_cosh_overflow(self, kind):
        # math.cosh(800) raised a bare OverflowError; every weight underflows,
        # which stopped at N = 32 as "sums to 0 against tail bound 0".  tanh r
        # rounds to 1, so the law lies past the cap before any term is formed
        spec = DeformationSpec(kind, r=800.0, mean_q=1.0)
        assert deformed_pn(spec, 0) == 0.0
        with pytest.raises(RangeOverflowError, match="decay ratio rounds to 1"):
            deformed_distribution(spec)


class TestCapRule:
    """Where the proven tail bound at the 4096 cap is not below 1, the law
    lies past the cap: the squeezed vacuum at r = 4 came back Probability
    with tail 6.99 and 1.9 % of its mass missing."""

    @staticmethod
    def call(route, r):
        if route is deformed_distribution:
            return route(DeformationSpec(DeformationKind.SQUEEZED_VACUUM, r=r))
        return route(OneModeGaussianState.squeezed_vacuum(r))

    @pytest.mark.parametrize("route", [pn_hermite, pn_laguerre, deformed_distribution])
    def test_squeezed_vacuum_at_r_4_raises(self, route):
        with pytest.raises(RangeOverflowError, match="cap is not below 1"):
            self.call(route, 4.0)

    @pytest.mark.parametrize("route", [pn_hermite, pn_laguerre, deformed_distribution])
    def test_squeezed_vacuum_at_r_3_5_classifies(self, route):
        dist = self.call(route, 3.5)
        assert dist.truncation == 4096
        assert 0.01 < dist.tail_bound < 1
        assert dist.classification is Classification.PROBABILITY


class TestAllZeroSeries:
    """A series whose every term underflows has not converged; it stopped
    at N = 32 with "sums to 0 against tail bound 0"."""

    @pytest.mark.parametrize(
        "spec",
        [
            DeformationSpec(DeformationKind.POISSON, alpha_mag2=1e10),
            DeformationSpec(DeformationKind.Q_COHERENT, alpha_mag2=1e10, lam=1e-3),
            DeformationSpec(DeformationKind.SQUEEZED_VACUUM, r=800.0),
        ],
    )
    @pytest.mark.parametrize("n_max", [None, 64])
    def test_raises(self, spec, n_max):
        # the squeezed law stops before its series, at any N: tanh r, its
        # decay ratio, rounds to 1, so it lies past the cap.  The Poisson
        # law's adaptive cut proves its tail at the cap is not below 1
        if spec.kind is DeformationKind.SQUEEZED_VACUUM:
            message = "decay ratio rounds to 1"
        elif spec.kind is DeformationKind.POISSON and n_max is None:
            message = "tail bound at the N = 4096 cap is not below 1"
        else:
            message = "underflows to 0"
        with pytest.raises(RangeOverflowError, match=message):
            deformed_distribution(spec, n_max)

    def test_explicit_values_are_unchanged(self):
        with pytest.raises(NormalizationError, match="sums to 0 "):
            distribution_from_values([0.0, 0.0, 0.0])


def centered_law_mp(x, y, t, n_max, digits=40):
    """P_0 .. P_n_max of the centered state with covariance (x, y, t) at
    ``digits`` digits, coded from Tr and det alone (no Hermite, Laguerre, R
    or root code).  At zero means the generating function of
    :func:`gaussian_law_mp` is 2 (c0 + c1 z + c2 z^2)^(-1/2), with
    c0 = 1 + 2 Tr + 4 det, c1 = 2 - 8 det and c2 = 1 - 2 Tr + 4 det, and the
    coefficients f_n of its root obey

        (n + 1) c0 f_(n+1) = -(n + 1/2) c1 f_n - n c2 f_(n-1),

    from f_0 = c0^(-1/2) on the principal branch (complex where c0 < 0).
    """
    with mpmath.workdps(digits):
        x, y, t = map(mpmath.mpf, (x, y, t))
        tr, det = x + y, x * y - t * t
        c0, c1, c2 = 1 + 2 * tr + 4 * det, 2 - 8 * det, 1 - 2 * tr + 4 * det
        f = [0, 1 / mpmath.sqrt(mpmath.mpc(c0))]  # f_(-1) = 0, f_0
        for n in range(n_max):
            f.append((-(n + mpmath.mpf(0.5)) * c1 * f[-1] - n * c2 * f[-2]) / ((n + 1) * c0))
        return [2 * v for v in f[1:]]


def error_to_top(values, ref):
    """Largest |value - reference| over the largest |reference|, with the
    values zero-extended to the reference's length."""
    values = list(values.tolist()) + [0j] * (len(ref) - len(values))
    with mpmath.workdps(40):
        top = max(abs(e) for e in ref)
        return float(max(abs(mpmath.mpc(v) - e) for v, e in zip(values, ref)) / top)


class TestCenteredReference:
    """The centered Hermite route takes B[m] = |H_m(0)|^2 / m!^2 in closed
    form (1 / j!^2 at m = 2j, 0 at odd m) instead of running the Hermite
    recurrence at 0, and the xyt route sums both photon-number parities in
    one Cauchy product; both against :func:`centered_law_mp`."""

    @pytest.mark.parametrize(
        "sigmas",
        [(1.3, 0.7, 0.25), (0.8, 0.4, 0.1), (2.0, 0.5, 0.6), (1.5, 1.5, 1.2),
         (0.6, 3.0, -0.3), (5.0, 0.2, 0.5)],
    )
    def test_hermite_route_of_correlated_states(self, sigmas):
        ref = centered_law_mp(*sigmas, 256)
        assert error_to_top(pn_hermite(OneModeGaussianState(*sigmas), 256).values, ref) <= 1e-14

    def test_hermite_route_of_the_squeezed_vacuum_at_the_cap(self):
        state = OneModeGaussianState.squeezed_vacuum(3.0)
        ref = centered_law_mp(state.sigma_pp, state.sigma_qq, 0.0, 4096)
        assert error_to_top(pn_hermite(state, 4096).values, ref) <= 1e-14

    @pytest.mark.parametrize(
        "tau, y, verdict",
        [
            (1e-6, 0.7, Classification.SIGNED_REAL),
            (1e-6, 2.0, Classification.SIGNED_REAL),
            (0.5, 0.7, Classification.SIGNED_REAL),
            (0.5, 2.0, Classification.SIGNED_REAL),
            (2.0, 0.7, Classification.COMPLEX),
            (2.0, 2.0, Classification.COMPLEX),
        ],
    )
    def test_xyt_route_of_violating_states(self, tau, y, verdict):
        xyt = from_tau(tau, y)
        dist = pn_centered_xyt(xyt)
        assert dist.classification is verdict
        ref = centered_law_mp(xyt.x, xyt.y, xyt.t, dist.truncation, digits=30)
        # two of these laws grow to their last term, e^113 at (0.5, 0.7) and
        # e^81 at (2, 2), and a value held as its log carries the rounding
        # of that log, eps |ln P|, relative
        top = max(abs(v) for v in dist.values)
        tol = max(1e-14, 2 * np.finfo(float).eps * math.log(top))
        assert error_to_top(dist.values, ref) <= tol


class TestLaguerreRoute:
    def test_vacuum(self):
        dist = pn_laguerre(OneModeGaussianState.vacuum())
        assert dist.values == (1 + 0j,)

    def test_zero_term_is_p0(self):
        from photonstat.gaussian_state import p0

        state = OneModeGaussianState(1.4, 0.7, 0.3)
        dist = pn_laguerre(state, 5)
        assert dist.values[0].real == pytest.approx(p0(state), rel=1e-13)

    def test_matches_hermite_on_centered_states(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            x, y = rng.uniform(0.5, 3.0, 2)
            t = rng.uniform(0.0, 0.4)
            if x * y - t * t - 0.25 < 0.01:
                continue
            state = OneModeGaussianState(float(x), float(y), float(t))
            a = pn_hermite(state, 40)
            b = pn_laguerre(state, 40)
            for va, vb in zip(a.values, b.values):
                assert rel_close(va, vb, 1e-9)

    def test_matches_hermite_on_displaced_states(self):
        for state in (
            OneModeGaussianState(1.2, 0.8, 0.2, 0.5, -0.7),
            OneModeGaussianState(2.0, 0.7, 0.1, -0.6, 0.9),
            OneModeGaussianState.squeezed_correlated(0.6, 0.9, 0.8, -0.3),
        ):
            a = pn_hermite(state, 30)
            b = pn_laguerre(state, 30)
            for va, vb in zip(a.values, b.values):
                assert rel_close(va, vb, 1e-9)


    @pytest.mark.parametrize(
        "state",
        [
            OneModeGaussianState(1.0, 1.0, 0.0, 0.3, 0.2),
            OneModeGaussianState(2.5, 2.5, 0.0, -1.2, 0.4),
        ],
    )
    def test_matches_hermite_on_isotropic_displaced_states(self, state):
        # R11 = R22 = 0: both Laguerre bases are R12 and the displacement
        # enters only through x1 + x2
        a = pn_hermite(state)
        b = pn_laguerre(state)
        assert len(a) == len(b)
        for va, vb in zip(a.values, b.values):
            assert rel_close(va, vb, 1e-9)
        assert b.classification is Classification.PROBABILITY
        assert math.fsum(b.values.real) == pytest.approx(1.0, abs=b.tail_bound + 1e-14)

    @pytest.mark.parametrize("mean_q, mean_p", [(20.0, 10.0), (30.0, 0.0)])
    def test_matches_hermite_at_large_displacement(self, mean_q, mean_p):
        # a Laguerre factor passes 1e284 at n = 424 for (20, 10) and at
        # n = 217 for (30, 0), where it ends near 1e629, past the double
        # range; the recurrence used to raise RangeOverflowError there
        state = OneModeGaussianState(1.2, 0.8, 0.2, mean_q, mean_p)
        a = pn_hermite(state)
        b = pn_laguerre(state)
        assert len(a) == len(b) > 400
        for va, vb in zip(a.values, b.values):
            assert rel_close(va, vb, 1e-9)
        assert b.classification is Classification.PROBABILITY


@pytest.mark.parametrize("route", [pn_hermite, pn_laguerre])
@pytest.mark.parametrize(
    "state",
    [OneModeGaussianState(1.2, 0.8, 0.2, 1e100, 5e99), OneModeGaussianState(1e300, 1e300, 0, 0, 0)],
)
def test_recurrence_past_the_double_range_raises(route, state):
    # a recurrence that overflows leaves NaN log-magnitudes; the Laguerre
    # route summed them to a NormalizationError ("sums to nan"), and both
    # routes did so for the second state
    with pytest.raises(RangeOverflowError):
        route(state, n_max=64)


class TestCenteredXytRoute:
    def test_vacuum(self):
        dist = pn_centered_xyt(XYTState(0.5, 0.5, 0.0))
        assert dist.values == (1 + 0j,)

    def test_squeezed_vacuum_parameters(self):
        r = 1.2
        st = XYTState(math.exp(2 * r) / 2, math.exp(-2 * r) / 2, 0.0)
        dist = pn_centered_xyt(st, 40)
        for n, v in enumerate(dist.values):
            assert rel_close(v, squeezed_vacuum_law(r, n), 1e-10)

    def test_matches_hermite_on_grid(self):
        for st in centered_grid()[::7]:
            a = pn_hermite(st.to_state(), 40)
            b = pn_centered_xyt(st, 40)
            for va, vb in zip(a.values, b.values):
                assert rel_close(va, vb, 1e-9)

    def test_singular_denominator(self):
        # 4 det + 2 Tr + 1 = 0 along x = -(2y+1)/(4y+2)
        with pytest.raises(SingularDenominatorError):
            pn_centered_xyt(XYTState(-0.5, 1.0, 0.0), 10)

    @pytest.mark.parametrize(
        "xyt, n_max, kind, tol",
        [
            ((1.6, 1.1, 0.3), 256, Classification.PROBABILITY, 1e-15),  # the Cauchy route: 1.4e-14
            ((1.6, 1.1, 0.3), 4096, Classification.PROBABILITY, 1e-15),
            ((0.3, 0.6, 0.1), None, Classification.SIGNED_REAL, 1e-15),  # Sigma > 0, det < 1/4
            ((-0.3, 0.9, 0.0), None, Classification.SIGNED_REAL, 3e-15),  # indefinite: doubled
            ((-0.75, 5.0, 0.0), 40, Classification.COMPLEX, 1e-14),  # 4 det + 2 Tr + 1 < 0
        ],
    )
    def test_fifty_digit_reference(self, xyt, n_max, kind, tol):
        dist = pn_centered_xyt(XYTState(*xyt), n_max)
        assert dist.classification is kind
        ref = xyt_law_mp(*xyt, dist.truncation)
        assert np.abs(dist.values - ref).max() <= tol * np.abs(ref).max()
        if kind is Classification.COMPLEX:
            # P0 = -2i |4 det + 2 Tr + 1|^(-1/2): every term purely imaginary
            assert not np.count_nonzero(dist.values.real)

    def test_thermal_terms_to_their_relative_precision(self):
        # each term P0 q^n of thermal(10): the Cauchy route's worst was 5e-13
        dist = pn_centered_xyt(XYTState(10.5, 10.5))
        ref = xyt_law_mp(10.5, 10.5, 0.0, dist.truncation)
        assert np.max(np.abs(dist.values - ref) / np.abs(ref)) <= 3e-14

    def test_p0_of_a_correlated_state(self):
        # P0 = 2 / sqrt(10.24) = 0.625; the Cauchy route gave 0.6249999999999911
        p0_value = pn_centered_xyt(XYTState(1.5, 1.5, 1.2), 256).values[0]
        assert p0_value.imag == 0
        assert abs(p0_value.real - 0.625) <= math.ulp(0.625)

    @pytest.mark.parametrize(
        "xyt", [(1.6, 1.1, 0.3), (0.3, 0.6, 0.1), (-0.3, 0.9, 0.0), (-0.75, 5.0, 0.0), (10.5, 10.5, 0.0),
                (math.exp(2) / 2, math.exp(-2) / 2, 0.0)]
    )
    def test_no_cauchy_product(self, monkeypatch, xyt):
        calls = []
        kernel = photon_dist.log_cauchy_rows
        monkeypatch.setattr(photon_dist, "log_cauchy_rows", lambda *a: calls.append(a) or kernel(*a))
        for n_max in (None, 64):
            pn_centered_xyt(XYTState(*xyt), n_max)
        assert not calls

    def test_pure_state_odd_terms_are_zero(self):
        # det = 1/4 exactly puts z at 2, where F_n's closed form has exact
        # zeros at odd n, as the squeezed vacuum law has
        y = 1.6
        dist = pn_centered_xyt(from_tau(0.0, y), 4096)
        assert not np.count_nonzero(dist.values[1::2])
        r = -0.5 * math.log(2 * y)
        ref = squeezed_vacuum_law_mp(r, 400, digits=50)
        assert max(abs(dist.values[n] - complex(ref[n])) for n in range(401)) <= 1e-15

    def test_growing_terms_past_the_double_range(self):
        # (-a_hi)^256 P0 passes the double range where F_256 keeps P_256
        # inside: the table is the law's, SignedReal, as the Cauchy route gave
        xyt = (-0.44140212335006795, 1.7963999142691391, 0.0)
        dist = pn_centered_xyt(XYTState(*xyt), 256)
        assert (dist.classification, dist.truncation) == (Classification.SIGNED_REAL, 256)
        ref = xyt_law_mp(*xyt, 256)
        assert np.abs(dist.values - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("n_max", [None, 16])
    def test_square_past_the_double_range_raises(self, n_max):
        # (x + y)^2 overflows while 4 det + 2 Tr + 1 does not
        with pytest.raises(RangeOverflowError, match="left the double range"):
            pn_centered_xyt(from_tau(0.5, 1e300), n_max)
        with pytest.raises(RangeOverflowError, match="left the double range"):
            pn_violation(0.5, 1e300, 0.0, n_max)
        with pytest.raises(RangeOverflowError, match="left the double range"):
            pn_violation(0.5, 1e-300, 0.0, n_max)

    def test_positive_denominator_gives_real_values(self):
        # x = -0.25, y = 5: 4 det + 2 Tr + 1 = 5.5 > 0 makes every term real,
        # also past k = 100 where powers of a complex -1 pick up roundoff
        dist = pn_centered_xyt(from_tau(1.5, 5.0))
        assert dist.classification is Classification.SIGNED_REAL
        assert len(dist.values) > 100
        assert all(v.imag == 0 for v in dist.values)


def xyt_law_mp(x, y, t, n_max, digits=50):
    """P_0 .. P_n_max of the centered law of (x, y, t), in mpmath at
    ``digits`` digits from the exact binary inputs, by the recurrence
    (n + 1) P_(n+1) = -(n + 1/2) s P_n - n p P_(n-1), s = a+ + a-,
    p = a+ a-, of the generating function P0 ((1 + a+ z)(1 + a- z))^(-1/2)
    (it satisfies (1 + s z + p z^2) G' = -(s/2 + p z) G)."""
    with mpmath.workdps(digits):
        x, y, t = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(t)
        tr, det = x + y, x * y - t * t
        c = 4 * det + 2 * tr + 1
        root_b = 2 * mpmath.sqrt(tr * tr - 4 * det)
        a_plus, a_minus = (1 - 4 * det - root_b) / c, (1 - 4 * det + root_b) / c
        s, p = a_plus + a_minus, a_plus * a_minus
        law = [2 / mpmath.sqrt(mpmath.mpc(c))]
        law.append(-s / 2 * law[0])
        for n in range(1, n_max):
            law.append((-(n + mpmath.mpf(0.5)) * s * law[n] - n * p * law[n - 1]) / (n + 1))
        return np.array([complex(v) for v in law[: n_max + 1]])


def violation_closed_form(l_max):
    """Independent evaluation of the complex family at tau=4, y=5, t=0."""
    out = []
    for l in range(l_max + 1):
        inner = math.fsum(
            math.factorial(2 * l)
            / (math.factorial(k) * math.factorial(2 * (l - k)) ** 2)
            * (17 / 4096) ** k
            for k in range(l + 1)
        )
        pref = (
            2 ** (6 * l + 0.5)
            * 5 ** (2 * l + 0.5)
            * complex(-215 / 4) ** -(2 * l + 0.5)
        )
        out.append(pref * inner)
    return out


def violation_bases(tau, y, t):
    """The bases bp = (x+y)^2 - 1 - 4 tau and w = x + y + 1 - 4 tau of
    pn_violation, as it forms them."""
    xyt = from_tau(tau, y, t)
    tr = xyt.x + xyt.y
    return tr * tr - 1 - 4 * tau, tr + 1 - 4 * tau


def violation_corner_draws(seed, count):
    """``count`` seeded (tau, y, t) with both bases of pn_violation positive:
    tau is 0, k eps (k <= 60), 10^U(-16, 0) or U(0, 3) in turn; y is
    log-uniform on [1e-3, 1e2], or on every other draw within
    10^U(-9, log10 0.3) of 1/2 (near the vacuum); t is 0 or U(-3, 3).
    Draws outside the corner are drawn again."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        kind = len(out) % 4
        tau = (0.0 if kind == 0 else int(rng.integers(0, 61)) * sys.float_info.epsilon
               if kind == 1 else 10 ** rng.uniform(-16, 0) if kind == 2 else rng.uniform(0, 3))
        if len(out) % 2:
            y = 0.5 + rng.choice((-1, 1)) * 10 ** rng.uniform(-9, math.log10(0.3))
        else:
            y = 10 ** rng.uniform(-3, 2)
        t = 0.0 if rng.random() < 0.5 else rng.uniform(-3, 3)
        tau, y, t = float(tau), float(y), float(t)
        bp, w = violation_bases(tau, y, t)
        if 0 < bp < math.inf and w > 0:
            out.append((tau, y, t))
    return out


def violation_head_mp(tau, bp, w, digits=40):
    """P_0, P_2, P_4 of pn_violation's documented sum, at ``digits`` digits."""
    with mpmath.workdps(digits):
        tau, bp, w = mpmath.mpf(tau), mpmath.mpf(bp), mpmath.mpf(w)
        return [
            float(mpmath.factorial(2 * l) * mpmath.fsum(
                tau ** (2 * (l - i)) / (mpmath.factorial(i) * mpmath.factorial(2 * (l - i)) ** 2)
                * bp**i * mpmath.mpf(2) ** (2 * l - 4 * i + mpmath.mpf(0.5))
                for i in range(l + 1)) / w ** (2 * l + mpmath.mpf(0.5)))
            for l in range(3)
        ]


class _KernelCalled(Exception):
    pass


def _no_kernel(*args, **kwargs):
    """Stands in for the Cauchy kernel where no series may be evaluated."""
    raise _KernelCalled


class TestViolationFamily:
    def test_boundary_is_vacuum(self):
        dist = pn_violation(0.0, 0.5, 0.0)
        assert dist.values == (1 + 0j,)
        assert dist.classification is Classification.PROBABILITY

    def test_closed_complex_form(self):
        dist = pn_violation(4.0, 5.0, 0.0, 24)
        ref = violation_closed_form(12)
        assert dist.classification is Classification.COMPLEX
        for l in range(13):
            got = dist.values[2 * l]
            assert rel_close(got, ref[l], 1e-9)
            # purely imaginary entries
            assert abs(got.real) <= 1e-12 * abs(got)
        for l in range(12):
            assert dist.values[2 * l + 1] == 0

    def test_negative_tau_rejected(self):
        with pytest.raises(DomainError):
            pn_violation(-0.5, 5.0, 0.0)

    def test_zero_y_rejected(self):
        with pytest.raises(SingularDenominatorError):
            pn_violation(1.0, 0.0, 0.0)

    def test_boundary_agreement_with_covariance_route_is_partial(self):
        # at tau = 0 the family coincides with the covariance-sum route only
        # through the one-pair term; the quartic term differs by exactly 2!
        # (the family is self-consistent with its closed complex case, not
        # an analytic continuation of the covariance route)
        y = 5.0
        x = 0.25 / y
        tr = x + y
        bp = tr * tr - 1
        w = tr + 1

        def family_term(l):  # the tau = 0 member: only i = l survives
            return (
                math.factorial(2 * l)
                / math.factorial(l)
                * bp**l
                * 2 ** (0.5 - 2 * l)
                / w ** (2 * l + 0.5)
            )

        b = pn_centered_xyt(from_tau(0.0, y, 0.0), 12)
        for l in (0, 1):
            assert rel_close(family_term(l), b.values[2 * l].real, 1e-12)
        assert family_term(2) / b.values[4].real == pytest.approx(2.0, rel=1e-9)

    def test_positive_divergent_corner_is_flagged(self):
        # between the boundary and the sign flips the family's weights are
        # positive with a divergent tail: no classification fits
        from photonstat.errors import NormalizationError

        with pytest.raises(NormalizationError):
            pn_violation(0.5, 5.0, 0.0, 40)

    def test_head_closed_forms_match_the_series(self):
        # P_0, P_2, P_4 in closed form against the documented sum at 40
        # digits and against the family's own series at N = 4
        for tau, y, t in violation_corner_draws(11, 300):
            bp, w = violation_bases(tau, y, t)
            head = photon_dist._violation_head(tau, bp, w)
            table = photon_dist._violation_series(tau, bp, w)(4)
            assert not table[1::2].any() and not table.imag.any()
            for got, series, ref in zip(head, table[::2].real, violation_head_mp(tau, bp, w)):
                assert rel_close(got, ref, 1e-13), (tau, y, t)
                assert rel_close(got, series, 1e-13), (tau, y, t)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("y", [0.65, 0.7, 0.8])
    def test_ulp_cells_settle_before_any_series(self, monkeypatch, k, y):
        monkeypatch.setattr(photon_dist, "log_cauchy_rows", _no_kernel)
        tau = k * sys.float_info.epsilon
        with pytest.raises(NormalizationError, match="at least P0 \\+ P2 \\+ P4"):
            pn_violation(tau, y)
        # an explicit N builds its one table as asked
        with pytest.raises(_KernelCalled):
            pn_violation(tau, y, 0.0, 32)

    def test_corner_settles_only_where_every_table_raises(self, monkeypatch):
        # wherever the adaptive call raises without a series, the full
        # doubling path on the same series raises NormalizationError too
        draws = violation_corner_draws(5, 600)
        settled = set()
        with monkeypatch.context() as m:
            m.setattr(photon_dist, "log_cauchy_rows", _no_kernel)
            for tau, y, t in draws:
                try:
                    pn_violation(tau, y, t)
                except NormalizationError:
                    settled.add((tau, y, t))
                except _KernelCalled:
                    pass
        tables = 0
        for tau, y, t in draws:
            bp, w = violation_bases(tau, y, t)
            try:
                photon_dist._build_distribution(photon_dist._violation_series(tau, bp, w), None)
                tables += 1
                assert (tau, y, t) not in settled
            except NormalizationError:
                pass
        # the slice holds both outcomes, tau = 0 and near-vacuum y
        assert len(settled) >= 100 and tables >= 50
        assert any(tau == 0 for tau, _, _ in settled)
        assert any(abs(y - 0.5) < 1e-4 for _, y, _ in settled)

    def test_near_vacuum_corner_keeps_its_table(self):
        dist = pn_violation(0.0, 0.4999999666950137)
        assert dist.classification is Classification.PROBABILITY
        assert (dist.truncation, dist.tail_bound) == (32, 0.0)
        with pytest.raises(NormalizationError):
            pn_violation(0.0, 0.49)

    @pytest.mark.parametrize("args, name", [
        ((math.nan, 0.7), "tau"), ((math.inf, 5.0), "tau"),
        ((1.0, math.nan), "y"), ((1.0, 5.0, math.nan), "t"),
    ])
    def test_non_finite_argument_is_named(self, args, name):
        with pytest.raises(DomainError, match=f"^{name} must be finite, got"):
            pn_violation(*args)


class TestClassificationBoundary:
    @pytest.mark.parametrize("y", [1.0, 5.0])
    def test_flip_at_tau_zero(self, y):
        # the covariance route is the classifier: valid states stay
        # probabilities, any tau > 0 shows a negative weight first
        for tau in np.arange(-0.005, 0.0051, 1e-3):
            tau = round(float(tau), 10)
            dist = pn_centered_xyt(from_tau(tau, y, 0.0), 64)
            if tau <= 0:
                assert dist.classification is Classification.PROBABILITY
            else:
                assert dist.classification is not Classification.PROBABILITY

    def test_moderate_tau_is_signed_real(self):
        dist = pn_centered_xyt(from_tau(0.5, 5.0, 0.0), 64)
        assert dist.classification is Classification.SIGNED_REAL

    def test_deep_violation_is_complex(self):
        dist = pn_centered_xyt(from_tau(4.0, 5.0, 0.0), 40)
        assert dist.classification is Classification.COMPLEX


class TestNormalization:
    def test_adaptive_truncation_on_grid(self):
        for st in centered_grid()[::5]:
            dist = pn_hermite(st.to_state())
            total = math.fsum(v.real for v in dist.values)
            assert 1 - dist.tail_bound - 1e-9 <= total <= 1 + 1e-9


def fsum_verdict(values, tail_bound, proven=False):
    """The mass check with ``math.fsum`` alone, the reference that numpy's
    sum must never overrule."""
    imag, real = values.imag, values.real
    if np.count_nonzero(np.abs(imag) >= 1e-12):
        verdict = Classification.COMPLEX
    elif np.count_nonzero(real < -1e-12):
        verdict = Classification.SIGNED_REAL
    else:
        total = math.fsum(real.tolist())
        if 1 - tail_bound - 1e-9 <= total <= 1 + 1e-9:
            return Classification.PROBABILITY
        raise NormalizationError(
            f"nonnegative weight sequence sums to {total:.12g} against tail bound "
            f"{tail_bound:.3g}: the formal series fits no classification"
        )
    if proven:
        total = math.fsum(real.tolist())
        excess = abs(total - 1) - tail_bound - 1e-9
        if excess > 0 and excess > len(values) * sys.float_info.epsilon * np.abs(real).sum():
            raise NormalizationError(
                f"{verdict.value} sequence sums to {total:.12g} against proven tail bound "
                f"{tail_bound:.3g}: the values are not the law's"
            )
    return verdict


def verdict_or_message(classify, values, tail_bound, proven):
    try:
        return classify(values, tail_bound, proven)
    except NormalizationError as exc:
        return str(exc)


def exact_table(size, target, kind, seed):
    """``size`` values whose real parts sum to ``target`` exactly, while
    their float sums round: the shares are doubles of full precision and
    at least 2^-18, so each is a multiple of 2^-70 and their exact sum an
    integer count of 2^-70; the first entry is target minus that sum,
    rounded, and the second its rounding error.  A "signed" table carries
    one entry -2^-7, a "complex" one an imaginary part 1e-6."""
    rng = np.random.default_rng(seed)
    shares = max(1, size - 2 - (kind == "signed"))
    rest = rng.uniform(0.9, 1.1, size - 2) * (target / 2 / shares)
    if kind == "signed":
        rest[-1] = -(2.0**-7)
    scale = 2**70
    left = int(target * scale) - sum(int(v * scale) for v in rest.tolist())
    first = float(left) / scale
    real = np.concatenate(([first, (left - int(first * scale)) / scale], rest))
    values = real.astype(complex)
    if kind == "complex":
        values[1] += 1e-6j
    return values


class TestMassCheck:
    """``_classify`` reads numpy's sum where its rounding bound settles the
    verdict and fsum elsewhere: every verdict, exception and message is the
    fsum rule's, also on sums a few ulps from either end of the window."""

    @staticmethod
    def targets(boundary, slack):
        around = [boundary]
        for step in (math.inf, -math.inf):
            x = boundary
            for _ in range(4):
                x = math.nextafter(x, step)
                around.append(x)
        around += [boundary + f * slack for f in (-2.0, -1.0, 1.0, 2.0)]
        return [t for t in around if t > 0]

    # a signed table needs a positive share beside its negative entry
    @pytest.mark.parametrize(
        "kind, size",
        [(kind, size) for kind in ("probability", "signed", "complex")
         for size in (2, 3, 127, 128, 129, 1000, 4097) if (kind, size) != ("signed", 2)],
    )
    def test_numpy_sum_never_overrules_fsum(self, kind, size):
        proven = kind != "probability"
        outcomes, seed = set(), 0
        for tail in (0.0, 1e-12, 0.5, 1.58):
            slack = size * sys.float_info.epsilon * (1 + 2**-6)
            ends = [1 - tail - 1e-9, 1 + 1e-9]
            if proven:
                ends += [1 + tail + 1e-9 + slack, 1 - tail - 1e-9 - slack]
            for end in ends:
                for target in self.targets(end, slack):
                    seed += 1
                    values = exact_table(size, target, kind, seed)
                    assert math.fsum(values.real.tolist()) == target
                    for proof in {proven, False}:
                        got = verdict_or_message(photon_dist._classify, values, tail, proof)
                        assert got == verdict_or_message(fsum_verdict, values, tail, proof), (
                            size, kind, tail, target, proof)
                        outcomes.add(isinstance(got, Classification))
        # both sides of the windows were reached
        assert outcomes == {True, False}

    def test_long_table_in_the_window_skips_fsum(self, monkeypatch):
        law, signed = exact_table(4097, 1.0, "probability", 1), exact_table(4097, 1.0, "signed", 1)
        monkeypatch.setattr(photon_dist.math, "fsum", None)
        assert photon_dist._classify(law, 0.0) is Classification.PROBABILITY
        assert photon_dist._classify(signed, 0.0, True) is Classification.SIGNED_REAL


class TestMeanPhotonXyt:
    def test_vacuum(self):
        assert mean_photon_xyt(0.5, 0.5) == 0.0

    def test_documented_magnitude(self):
        mean = mean_photon_xyt(-0.75, 5.0)
        assert abs(mean) == pytest.approx(23 / 57, abs=1e-12)
        assert mean > 0  # the sign report; the companion text quotes -23/57

    def test_isotropic_caveat(self):
        # the rational form returns 0 for any x = y; the series mean is
        # x - 1/2 there, which is why this function is quarantined
        assert mean_photon_xyt(1.5, 1.5) == 0.0

    def test_singular(self):
        with pytest.raises(SingularDenominatorError):
            mean_photon_xyt(0.0, 0.5)


class TestTwoModeTotals:
    def test_equal_fractions_collapse(self):
        for s in (0.0, 0.3, 0.8):
            for k in range(12):
                assert two_mode_p2k(s, s, k) == pytest.approx(
                    (1 - s) * s**k, abs=1e-12
                )

    def test_one_sided_squeezing_matches_single_mode_law(self):
        s2 = 0.8
        r = math.atanh(math.sqrt(s2))
        for k in range(31):
            assert two_mode_p2k(0.0, s2, k) == pytest.approx(
                squeezed_vacuum_law(r, 2 * k), rel=1e-10, abs=1e-300
            )

    def test_one_sided_squeezing_central_binomial(self):
        # s1 = 0 puts the 2F1 at z = 1: P_2k = sqrt(1-s) s^k C(2k,k) / 4^k
        for s in (0.25, 0.8):
            for k in range(400):
                ref = math.sqrt(1 - s) * s**k * (math.comb(2 * k, k) / 4**k)
                assert two_mode_p2k(0.0, s, k) == pytest.approx(ref, rel=1e-13)

    def test_zero_pairs(self):
        assert two_mode_p2k(0.3, 0.6, 0) == pytest.approx(
            math.sqrt(0.7) * math.sqrt(0.4), abs=1e-15
        )

    def test_symmetry(self):
        for k in (0, 3, 10):
            assert two_mode_p2k(0.25, 0.8, k) == pytest.approx(
                two_mode_p2k(0.8, 0.25, k), rel=1e-13
            )

    @pytest.mark.parametrize("s1", [0.0, 0.25, 0.5, 0.8])
    @pytest.mark.parametrize("s2", [0.0, 0.25, 0.5, 0.8])
    def test_marginal_normalization(self, s1, s2):
        dist = two_mode_p2k_distribution(s1, s2)
        total = math.fsum(v.real for v in dist.values)
        assert total == pytest.approx(1.0, abs=1e-9 + dist.tail_bound)

    # z / (1 - z) > 1: the positive-term 2F1 series outgrows the double range
    @pytest.mark.parametrize(
        "s1, s2, k", [(0.05, 0.5, 315), (0.01, 0.9, 250), (0.01, 0.9, 1000)]
    )
    def test_large_positive_term_series(self, s1, s2, k):
        assert mp_rel_err(two_mode_p2k(s1, s2, k), two_mode_p2k_mp(s1, s2, k)) <= 1e-12

    def test_distribution_past_the_positive_term_overflow(self):
        dist = two_mode_p2k_distribution(0.01, 0.9)
        assert dist.classification is Classification.PROBABILITY
        total = math.fsum(v.real for v in dist.values)
        assert 1 - dist.tail_bound - 1e-14 <= total <= 1 + 1e-14

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            two_mode_p2k(1.0, 0.5, 1)
        with pytest.raises(DomainError):
            two_mode_p2k(0.5, -0.1, 1)
        with pytest.raises(DomainError):
            two_mode_p2k(0.5, 0.5, -1)


S_GRID = (0.0, 0.05, 0.25, 0.5, 0.8, 0.95, 0.999)


class TestTwoModeSequence:
    K_SAMPLE = (0, 1, 2, 3, 7, 20, 64, 199, 399, 400, 401, 777, 1000, 1199, 1200)

    @pytest.mark.parametrize("s1", S_GRID)
    def test_matches_mpmath(self, s1):
        for s2 in S_GRID:
            seq = two_mode_p2k_sequence(s1, s2, 1200)
            assert seq.shape == (1201,)
            for k in self.K_SAMPLE:
                ref = two_mode_p2k_mp(s1, s2, k)
                if ref < 1e-290:  # the double underflows
                    assert 0 <= seq[k] <= 1e-290
                else:
                    assert mp_rel_err(seq[k], ref) <= 1e-12, (s1, s2, k)

    def test_matches_pointwise_formula(self):
        fractions = (0.0, 0.25, 0.5, 0.8)
        for s1 in fractions:
            for s2 in fractions:
                seq = two_mode_p2k_sequence(s1, s2, 399)
                for k in range(400):
                    assert rel_close(seq[k], two_mode_p2k(s1, s2, k), 1e-12), (s1, s2, k)

    def test_symmetric_exactly(self):
        for s1 in S_GRID:
            for s2 in S_GRID:
                assert np.array_equal(
                    two_mode_p2k_sequence(s1, s2, 300), two_mode_p2k_sequence(s2, s1, 300)
                )

    def test_equal_fractions_are_geometric(self):
        for s in S_GRID:
            seq = two_mode_p2k_sequence(s, s, 500)
            assert seq.tolist() == [(1 - s) * s**k for k in range(501)]

    def test_domain_checks(self):
        for args in ((1.0, 0.5, 3), (0.5, -0.1, 3), (0.5, 0.5, -1)):
            with pytest.raises(DomainError):
                two_mode_p2k_sequence(*args)


def two_mode_sequence_reference(s1, s2, k_max):
    """The pair law by the difference recurrence on a list, each entry
    formed as front * hi**k * F_k: the values the sequence must keep."""
    lo, hi = min(s1, s2), max(s1, s2)
    z = 1 - lo / hi if hi else 0.0
    f, d = [1.0], 0.0
    for k in range(k_max):
        d = (k * (1 - z) * d - 0.5 * z * f[k]) / (k + 1)
        f.append(f[k] + d)
    front = math.sqrt((1 - s1) * (1 - s2))
    return np.array([front * hi**k * f[k] for k in range(k_max + 1)])


class TestTwoModePairCut:
    """The two-mode total law is cut once by ``_decay_cut`` in its pair
    index, with a proven tail bound, from a+- = -s1, -s2."""

    @pytest.mark.parametrize("s1", S_GRID)
    def test_sequence_is_the_reference_to_the_bit(self, s1):
        for s2 in S_GRID:
            assert (two_mode_p2k_sequence(s1, s2, 2048).tobytes()
                    == two_mode_sequence_reference(s1, s2, 2048).tobytes()), (s1, s2)

    @pytest.mark.parametrize("n_max", [None, 64])
    def test_one_sequence_call(self, monkeypatch, n_max):
        calls = []
        seq = photon_dist.two_mode_p2k_sequence
        monkeypatch.setattr(
            photon_dist, "two_mode_p2k_sequence", lambda *a: calls.append(a) or seq(*a)
        )
        dist = two_mode_p2k_distribution(0.25, 0.8, n_max)
        assert calls == [(0.25, 0.8, dist.truncation // 2)]

    def test_cut_of_the_corpus_law(self):
        # the doubling loop stopped at N = 256 on a sampled tail of 7.2e-14
        dist = two_mode_p2k_distribution(0.25, 0.8)
        assert dist.truncation == 258
        assert dist.tail_bound == pytest.approx(9.77e-13, rel=1e-3)

    @pytest.mark.parametrize("n_max", [None, 0, 1, 2, 7, 20, 64, 301])
    @pytest.mark.parametrize("s1, s2", [(0.0, 0.05), (0.05, 0.8), (0.25, 0.8), (0.5, 0.5),
                                        (0.8, 0.95), (0.95, 0.95)])
    def test_tail_bound_covers_the_omitted_mass(self, s1, s2, n_max):
        # past k = 2048 the law is below 0.95^2048 ~ 1e-46
        dist = two_mode_p2k_distribution(s1, s2, n_max)
        law = two_mode_p2k_sequence(s1, s2, 2048)
        k = (dist.truncation if n_max is None else n_max) // 2
        omitted = math.fsum(law[k + 1:].tolist())
        assert dist.tail_bound >= omitted
        assert dist.classification is Classification.PROBABILITY

    def test_law_past_the_cap_raises(self):
        # the doubling loop returned Probability at the cap with a sampled
        # tail of 0.082, 4.3 % of the mass missing
        with pytest.raises(RangeOverflowError, match="N = 4096 cap"):
            two_mode_p2k_distribution(0.95, 0.999)
        dist = two_mode_p2k_distribution(0.95, 0.999, 4096)
        assert dist.tail_bound == pytest.approx(1.8205, rel=1e-4)
        assert dist.tail_bound >= 1 - math.fsum(dist.values.real.tolist())

    @pytest.mark.parametrize("n_max", [6, 7])
    def test_explicit_n_reads_the_bound_at_half_of_it(self, n_max):
        # 2 P0 q^(k+1) / (1 - q) at k = 3, q = 0.8
        dist = two_mode_p2k_distribution(0.25, 0.8, n_max)
        assert dist.truncation == 6
        bound = 2 * math.sqrt(0.75 * 0.2) * 0.8**4 / 0.2
        assert dist.tail_bound == pytest.approx(bound, rel=1e-12)


class TestTwoModeJoint:
    params = LegendreParams(n_factor=0.05, f1=0.8, f2=0.5, f3=0.3)

    def test_zero_pair_is_scale(self):
        assert two_mode_joint(self.params, 0, 0) == pytest.approx(
            self.params.n_factor, abs=1e-15
        )

    def test_equal_indices_drop_factorial_ratio(self):
        # exp(-|ln(n!/n!)|) = 1: the weight reduces to N F2^n L_n(F3)^2
        n = 3
        expected = (
            self.params.n_factor
            * self.params.f2**n
            * assoc_legendre(n, 0, self.params.f3) ** 2
        )
        assert two_mode_joint(self.params, n, n) == pytest.approx(expected, rel=1e-13)

    def test_two_zero_pair(self):
        expected = (
            self.params.n_factor
            * 0.5
            * self.params.f1
            * self.params.f2
            * abs(self.params.f3**2 - 1)
        )
        assert two_mode_joint(self.params, 2, 0) == pytest.approx(expected, rel=1e-13)

    def test_odd_parity_rejected(self):
        with pytest.raises(ParityError):
            two_mode_joint(self.params, 2, 1)

    def test_legendre_factor_past_the_double_range(self):
        # P_200^200(3) = 399!! 8^100 ~ 1e546 overflows as a double; the
        # weight does not (it used to come back inf)
        params = LegendreParams(n_factor=1e-100, f1=0.5, f2=0.5, f3=3.0)
        with mpmath.workdps(30):
            leg = mpmath.fac2(399) * mpmath.mpf(8) ** 100
            ref = (
                mpmath.mpf(1e-100) / mpmath.factorial(400)
                * mpmath.mpf(0.25) ** 200 * leg**2
            )
        assert two_mode_joint(params, 400, 0) == pytest.approx(float(ref), rel=1e-11)

    def test_invariants(self):
        with pytest.raises(DomainError):
            LegendreParams(n_factor=1.0, f1=-0.1, f2=0.5, f3=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_factor", math.nan),
            ("n_factor", -1.0),
            ("n_factor", 0.0),
            ("n_factor", math.inf),
            ("f1", math.inf),
            ("f2", math.nan),
            ("f3", math.nan),
            ("f3", -math.inf),
        ],
    )
    def test_parameters_must_be_finite_and_scales_positive(self, field, value):
        # a NaN N gave a NaN table that passed as normalized, N = -1 made
        # the (2, 0) weight -0.16, and a NaN F3 read as a range overflow
        kwargs = {"n_factor": 0.05, "f1": 0.8, "f2": 0.5, "f3": 0.3, field: value}
        with pytest.raises(DomainError, match=field):
            LegendreParams(**kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_table_rejects_non_finite_entries(self, bad):
        # a NaN entry passed the sign and mass checks, so its entropies
        # came back NaN
        values = np.full((2, 2), 0.1)
        values[1, 0] = bad
        with pytest.raises(DomainError, match="finite"):
            TwoModeJointDistribution(values, (1, 1), 0.0)

    def test_table_builder(self):
        joint = two_mode_joint_distribution(self.params, 8, 8)
        assert joint.values.shape == (9, 9)
        assert (joint.values >= 0).all()
        assert joint.values[1, 2] == 0.0  # odd parity cell

    @staticmethod
    def assert_table_is_cellwise(params, n1_max, n2_max):
        table = two_mode_joint_distribution(params, n1_max, n2_max).values
        assert table.shape == (n1_max + 1, n2_max + 1)
        for n1 in range(n1_max + 1):
            for n2 in range(n2_max + 1):
                cell = two_mode_joint(params, n1, n2) if (n1 + n2) % 2 == 0 else 0.0
                assert table[n1, n2] == cell, (n1, n2)

    @pytest.mark.parametrize("f3", [0.0, 0.3, 1.0, -0.7, 3.0])
    def test_table_cells_equal_the_scalar_weight(self, f3):
        params = LegendreParams(n_factor=0.05, f1=0.8, f2=0.02, f3=f3)
        self.assert_table_is_cellwise(params, 16, 29)
        self.assert_table_is_cellwise(params, 29, 16)

    def test_table_with_rescaled_climb_equals_the_scalar_weight(self):
        # P_l^m(1e6) ~ (2e6)^l passes 1e250 near l = 40, so the columns rescale
        params = LegendreParams(n_factor=0.5, f1=0.9, f2=1e-13, f3=1e6)
        assert _legendre_scaled(48, 2, params.f3)[1] > 0
        self.assert_table_is_cellwise(params, 50, 47)

    def test_table_climbs_once_per_order(self, monkeypatch):
        # every Legendre value of the table comes from one climb per order m
        climbs = []

        def scaled(l, m, x):
            climbs.append(m)
            return _legendre_scaled(l, m, x)

        def columns(x, tops):
            climbs.extend(tops)
            return _legendre_columns(x, tops)

        monkeypatch.setattr(photon_dist, "_legendre_scaled", scaled)
        monkeypatch.setattr(photon_dist, "_legendre_columns", columns, raising=False)
        two_mode_joint_distribution(self.params, 40, 24)
        assert 0 < len(climbs) <= (40 + 24) // 2 + 1

    def test_weight_past_the_double_range_raises(self):
        # F2^300 |P_300(30)|^2 ~ 1e1067: math.exp overflowed with a bare
        # OverflowError
        params = LegendreParams(n_factor=1.0, f1=2.0, f2=2.0, f3=30.0)
        with pytest.raises(RangeOverflowError):
            two_mode_joint(params, 600, 0)
        with pytest.raises(RangeOverflowError):
            two_mode_joint_distribution(params, 600, 0)
        # e^709 is finite, N e^709 is not (it came back inf)
        params = LegendreParams(n_factor=10.0, f1=1.0, f2=math.exp(70.9), f3=1.0)
        with pytest.raises(RangeOverflowError):
            two_mode_joint(params, 10, 10)

    @pytest.mark.parametrize("box", [(-2, 3), (-1, 3), (3, -1)])
    def test_negative_maximum_rejected(self, box):
        with pytest.raises(DomainError):
            two_mode_joint_distribution(self.params, *box)


class TestDeformedFamilies:
    def test_poisson_zero_count(self):
        spec = DeformationSpec(DeformationKind.POISSON, alpha_mag2=1.0)
        assert deformed_pn(spec, 0) == pytest.approx(math.exp(-1), abs=1e-15)

    def test_poisson_mean_and_variance(self):
        x_bar = 1.7
        spec = DeformationSpec(DeformationKind.POISSON, alpha_mag2=x_bar)
        p = [deformed_pn(spec, n) for n in range(80)]
        mean = math.fsum(n * pn for n, pn in enumerate(p))
        var = math.fsum((n - x_bar) ** 2 * pn for n, pn in enumerate(p))
        assert mean == pytest.approx(x_bar, abs=1e-9)
        assert var == pytest.approx(x_bar, abs=1e-9)

    def test_squeezed_vacuum_odd_counts_vanish(self):
        spec = DeformationSpec(DeformationKind.SQUEEZED_VACUUM, r=1.3)
        for n in (1, 3, 7, 21):
            assert deformed_pn(spec, n) == 0.0
        assert deformed_pn(spec, 4) == pytest.approx(
            squeezed_vacuum_law(1.3, 4), rel=1e-13
        )

    def test_single_weight_equals_the_table_past_the_exact_factorials(self):
        # both read the shared log-factorial table, grown past n = 511
        spec = DeformationSpec(DeformationKind.SQUEEZED_VACUUM, r=2.9)
        table = deformed_distribution(spec, 9000).values
        for n in (510, 512, 1024, 4096, 9000):
            assert deformed_pn(spec, n) == table[n].real
        assert table[9000] > 0

    def test_squeezed_correlated_centered_reduces_to_vacuum_law(self):
        spec = DeformationSpec(DeformationKind.SQUEEZED_CORRELATED, r=0.9, theta=0.0)
        for n in range(10):
            assert deformed_pn(spec, n) == pytest.approx(
                squeezed_vacuum_law(0.9, n), rel=1e-12, abs=1e-300
            )

    def test_squeezed_correlated_law_at_r0_is_poisson(self):
        # coherent limit at |alpha|^2 = (q^2 + p^2) / 2, and continuous there
        def law(r, n_max=None):
            spec = DeformationSpec(
                DeformationKind.SQUEEZED_CORRELATED, r=r, theta=0.3, mean_q=1.0, mean_p=-0.5
            )
            return deformed_distribution(spec, n_max)

        def poisson(n_max=None):
            spec = DeformationSpec(DeformationKind.POISSON, alpha_mag2=0.625)
            return deformed_distribution(spec, n_max)

        # one cut for the coherent law, whichever family names it: the two
        # read the same law value, up to the rounding of c+ + c- = 0.625
        at_zero, ref = law(0.0), poisson()
        assert at_zero.truncation == ref.truncation
        assert at_zero.tail_bound == pytest.approx(ref.tail_bound, rel=1e-14)
        assert at_zero.classification is Classification.PROBABILITY
        top = np.max(np.abs(ref.values))
        assert np.max(np.abs(at_zero.values - ref.values)) <= 1e-15 * top
        assert np.max(np.abs(law(1e-6, 40).values - poisson(40).values)) < 1e-6

    def test_q_coherent_supergeometric_tail(self):
        # once n >> 1/lam the term ratio collapses; successive ratios shrink
        spec = DeformationSpec(DeformationKind.Q_COHERENT, alpha_mag2=4.0, lam=2.0)
        p = [deformed_pn(spec, n) for n in range(12)]
        ratios = [p[n + 1] / p[n] for n in range(4, 11)]
        assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1e-3

    def test_f_coherent_conventions_differ(self):
        kw = dict(alpha_mag2=1.5)
        printed = DeformationSpec(DeformationKind.F_COHERENT, **kw)
        plain = DeformationSpec(
            DeformationKind.F_COHERENT, f_convention="factorial", **kw
        )
        assert deformed_pn(printed, 3) != pytest.approx(deformed_pn(plain, 3), rel=1e-3)
        for spec in (printed, plain):
            total = math.fsum(deformed_pn(spec, n) for n in range(200))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_f_values_consumed_and_exhaustion_flagged(self):
        spec = DeformationSpec(
            DeformationKind.F_COHERENT, alpha_mag2=1.0, f_values=(1.0, 2.0)
        )
        with pytest.raises(InvalidSpecError):
            deformed_pn(spec, 1)

    def test_f_values_ending_after_convergence_are_accepted(self):
        # f(n) = 1 + 0.1 n: 100 values end long after the terms fall below
        # eps, though before they underflow; 120 values reach the underflow
        def spec(alpha_mag2, count):
            return DeformationSpec(
                DeformationKind.F_COHERENT, alpha_mag2=alpha_mag2,
                f_values=[1 + 0.1 * n for n in range(count)],
            )

        short = deformed_distribution(spec(0.64, 100))
        full = deformed_distribution(spec(0.64, 120))
        assert short.truncation == full.truncation
        assert short.tail_bound == full.tail_bound
        assert np.array_equal(short.values, full.values)
        # at |alpha|^2 = 4 the 20th term is still far above eps
        with pytest.raises(InvalidSpecError, match="exhausted"):
            deformed_distribution(spec(4.0, 20))

    def test_zero_amplitude_is_deterministic(self):
        for kind in (DeformationKind.POISSON, DeformationKind.Q_COHERENT):
            spec = DeformationSpec(kind, alpha_mag2=0.0, lam=1.0)
            assert deformed_pn(spec, 0) == 1.0
            assert deformed_pn(spec, 5) == 0.0

    @pytest.mark.parametrize("field", ["alpha_mag2", "lam", "r", "theta", "mean_q", "mean_p"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(InvalidSpecError, match=field):
            DeformationSpec(DeformationKind.Q_COHERENT, **{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_f_value_rejected(self, value):
        with pytest.raises(InvalidSpecError, match="f_values"):
            DeformationSpec(
                DeformationKind.F_COHERENT, alpha_mag2=0.8, f_values=(1, value, *range(2, 11))
            )

    def test_q_coherent_needs_positive_lambda(self):
        spec = DeformationSpec(DeformationKind.Q_COHERENT, alpha_mag2=1.0, lam=0.0)
        with pytest.raises(InvalidSpecError):
            deformed_pn(spec, 1)

    def test_distribution_wrapper(self):
        spec = DeformationSpec(DeformationKind.POISSON, alpha_mag2=2.0)
        dist = deformed_distribution(spec)
        assert dist.classification is Classification.PROBABILITY
        assert math.fsum(v.real for v in dist.values) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.5, 3.0])
    def test_squeezed_vacuum_total_mass(self, r):
        # closed form: sum (tanh r / 2)^{2m} (2m)!/(m!)^2 = cosh r
        spec = DeformationSpec(DeformationKind.SQUEEZED_VACUUM, r=r)
        total = math.fsum(deformed_pn(spec, n) for n in range(8001))
        assert total == pytest.approx(1.0, abs=1e-10)


_DEFORMED_SPECS = {
    "poisson": DeformationSpec(DeformationKind.POISSON, alpha_mag2=2.5),
    "f-coherent": DeformationSpec(DeformationKind.F_COHERENT, alpha_mag2=0.64),
    "q-coherent": DeformationSpec(DeformationKind.Q_COHERENT, alpha_mag2=2.0, lam=0.5),
    "squeezed-correlated": DeformationSpec(
        DeformationKind.SQUEEZED_CORRELATED, r=0.9, theta=0.5, mean_q=0.3, mean_p=-0.2
    ),
    "squeezed-vacuum": DeformationSpec(DeformationKind.SQUEEZED_VACUUM, r=1.3),
}


def squeezed_vacuum_reference(r, n):
    """The closed squeezed-vacuum weights at the photon numbers n, by the
    even-index mask: the bytes the table must keep."""
    out = np.zeros(len(n))
    even = n % 2 == 0
    m = n[even] // 2
    t_half = math.tanh(abs(r)) / 2
    if t_half == 0:
        out[even] = m == 0
    else:
        log_fact = specfun.log_factorials(int(n.max()))
        out[even] = np.exp(
            -photon_dist._log_cosh(r) + 2 * m * math.log(t_half) + log_fact[2 * m] - 2 * log_fact[m]
        )
    return out


def legendre_columns_reference(x, tops):
    """Column m of P_l^m(x) = v e^s as a list of (v, s), by one plain climb
    per order with the rescale rule."""
    columns = {}
    for m, l_top in tops.items():
        cur, shift = 1.0, 0.0
        for i in range(1, m + 1):
            cur *= (2 * i - 1) * abs(x * x - 1.0) ** 0.5
            if cur > 1e250:
                cur, shift = 1.0, shift + math.log(cur)
        column, prev = [(cur, shift)], 0.0
        for ll in range(m + 1, l_top + 1):
            prev, cur = cur, ((2 * ll - 1) * x * cur - (ll + m - 1) * prev) / (ll - m)
            if abs(cur) > 1e250:
                peak = abs(cur)
                prev, cur, shift = prev / peak, cur / peak, shift + math.log(peak)
            column.append((cur, shift))
        columns[m] = column
    return columns


def joint_table_reference(params, n1_max, n2_max):
    """The joint table from the cell list of even parity and a flat array
    of (v, s) pairs: the bytes the table must keep."""
    tops = {
        m: max(min(n1_max - m, n2_max + m), min(n2_max - m, n1_max + m))
        for m in range(max(n1_max, n2_max) // 2 + 1)
    }
    columns = legendre_columns_reference(params.f3, tops)
    flat = np.array([entry for column in columns.values() for entry in column])
    start = np.cumsum([0] + [len(column) for column in columns.values()])
    parity = np.add.outer(np.arange(n1_max + 1), np.arange(n2_max + 1)) % 2
    n1, n2 = np.nonzero(parity == 0)
    l, m = (n1 + n2) // 2, abs(n1 - n2) // 2
    cell = start[m] + l - m
    table = np.zeros((n1_max + 1, n2_max + 1))
    table[n1, n2] = photon_dist._joint_weights(params, n1, n2, flat[cell, 0], flat[cell, 1])
    return table


class TestTablesToTheBit:
    """The closed squeezed-vacuum table and the Legendre joint table are
    built by bit operations on flat arrays; their bytes are the mask-built
    tables'."""

    @pytest.mark.parametrize("r", [0.0, 1e-320, 0.3, 1.3, -1.3, 2.85, 5.0, 19.0])
    def test_squeezed_vacuum(self, r):
        spec = DeformationSpec(DeformationKind.SQUEEZED_VACUUM, r=r)
        for n_max in (0, 1, 2, 7, 100, 4096, 9001):
            n = np.arange(n_max + 1)
            ref = squeezed_vacuum_reference(r, n)
            assert photon_dist._deformed_weights(spec, n).tobytes() == ref.tobytes()
            table = deformed_distribution(spec, n_max).values
            assert table.real.tobytes() == ref[: len(table)].tobytes()
        for n in (0, 1, 2, 3, 511, 512, 4096, 9000, 9001):
            assert deformed_pn(spec, n) == squeezed_vacuum_reference(r, np.array([n]))[0]

    @pytest.mark.parametrize(
        "f1, f2, f3",
        [(0.8, 0.02, 0.0), (0.7, 0.4, 0.25), (0.8, 0.5, -0.7), (0.8, 0.02, 3.0),
         (0.9, 1e-13, 1e6)],
    )
    def test_joint(self, f1, f2, f3):
        # f3 = 1e6 rescales both the seeds and the climbs
        params = LegendreParams(n_factor=0.05, f1=f1, f2=f2, f3=f3)
        for box in ((0, 0), (1, 0), (0, 1), (1, 1), (8, 8), (24, 24), (16, 29), (50, 47)):
            table = two_mode_joint_distribution(params, *box).values
            assert table.tobytes() == joint_table_reference(params, *box).tobytes(), box
        for n1, n2 in ((0, 0), (3, 5), (10, 2), (40, 40)):
            ref = joint_table_reference(params, n1, n2)[n1, n2]
            assert two_mode_joint(params, n1, n2) == ref


class TestDeformedTables:
    def test_squeezed_correlated_table(self):
        dist = deformed_distribution(
            DeformationSpec(DeformationKind.SQUEEZED_CORRELATED, r=1.5, mean_q=1.0)
        )
        assert dist.classification is Classification.PROBABILITY
        ref = squeezed_correlated_law_mp(1.5, 0.0, 1.0, 0.0, dist.truncation)
        assert max(abs(mpmath.mpf(v.real) - e) for v, e in zip(dist.values, ref)) <= 1e-14

    def test_squeezed_vacuum_table_at_the_cap(self):
        spec = DeformationSpec(DeformationKind.SQUEEZED_VACUUM, r=2.8)
        dist = deformed_distribution(spec)
        assert dist.classification is Classification.PROBABILITY
        assert dist.truncation == 4096
        ref = squeezed_vacuum_law_mp(2.8, dist.truncation)
        assert max(abs(mpmath.mpf(v.real) - e) for v, e in zip(dist.values, ref)) <= 1e-14

    @pytest.mark.parametrize("name", sorted(_DEFORMED_SPECS))
    def test_pointwise_weight_is_the_table_entry(self, name):
        spec = _DEFORMED_SPECS[name]
        for dist in (deformed_distribution(spec), deformed_distribution(spec, 96)):
            for n, v in enumerate(dist.values.tolist()):
                assert deformed_pn(spec, n) == v, n


def _real_law_with_signed_zeros_and_nans(size=300):
    """A long real table whose real column holds -0.0 and NaN entries."""
    values = np.random.default_rng(19).random(size) / size
    values[[3, 150, size - 1]] = -0.0
    values[[7, 200]] = math.nan
    return values


def _law_with_one_negative_zero_imag(size=400):
    """A long complex table whose imaginary parts are +0.0 but for one -0.0."""
    values = np.random.default_rng(20).random(size).astype(complex) / size
    values[123] = complex(values[123].real, -0.0)
    return values


class TestDistributionPlumbing:
    def test_overflow_while_doubling_propagates(self):
        # the N = 32 pass leaves a tail of ~1e-10, so the loop doubles
        def series(n):
            if n >= 64:
                raise RangeOverflowError("series left the double range")
            return 0.5 ** np.arange(1.0, n + 2) + 0j

        with pytest.raises(RangeOverflowError):
            photon_dist._build_distribution(series, None)
        assert len(photon_dist._build_distribution(series, 32)) == 33

    def test_value_is_zero_extended(self):
        dist = distribution_from_values([0.75, 0.25])
        with pytest.raises(DomainError):
            dist.value(-1)
        assert dist.value(1) == dist.values[1] == 0.25
        assert dist.value(2) == 0j and dist.value(10**6) == 0j

    def test_classification_cases(self):
        assert (
            distribution_from_values([0.5, 0.5]).classification
            is Classification.PROBABILITY
        )
        assert (
            distribution_from_values([1.2, -0.2]).classification
            is Classification.SIGNED_REAL
        )
        assert (
            distribution_from_values([0.5, 0.5j]).classification
            is Classification.COMPLEX
        )

    @pytest.mark.parametrize(
        "imag, verdict",
        [(1e-12, Classification.COMPLEX), (-1e-12, Classification.COMPLEX),
         (9.9e-13, Classification.PROBABILITY), (-9.9e-13, Classification.PROBABILITY),
         (-0.0, Classification.PROBABILITY), (0.0, Classification.PROBABILITY)],
    )
    def test_imaginary_part_reaching_the_tolerance_is_complex(self, imag, verdict):
        values = [0.25, complex(0.5, imag), 0.25]
        assert distribution_from_values(values).classification is verdict

    def test_csv_export(self):
        dist = distribution_from_values([0.75, 0.25])
        text = distribution_to_csv(dist)
        lines = text.splitlines()
        assert lines[0] == "# classification=Probability"
        assert lines[3] == "n,re,im"
        assert lines[4].startswith("0,0.75")
        assert text.endswith("\n")

    @pytest.mark.parametrize(
        "values",
        [
            [0.75, 0.25],
            [0.5 + 0.25j, 0.3 - 1e-13j, 0.2],
            [complex(0.5, -0.0), complex(0.5, -0.0)],
            [complex(-0.0, -0.0), 0.1, complex(0.9, -0.0)],
            [math.nan, complex(math.inf, -math.inf), -math.inf, complex(0.1, math.nan)],
            [5e-324, complex(2.2250738585072014e-308, -4.9e-322), 1 - 1e-16],
            [1.0],
            np.random.default_rng(18).standard_normal(300) * 10.0 ** np.arange(-150, 150),
            # a real table formats only n and re; -0.0 and NaN real parts among them
            _real_law_with_signed_zeros_and_nans(),
            # one -0.0 imaginary part sends a long table to the three-column format
            _law_with_one_negative_zero_imag(),
        ],
    )
    def test_csv_rows_match_the_per_row_format(self, values):
        values = np.asarray(values, dtype=complex)
        dist = PhotonDistribution(values, len(values) - 1, 1e-13, Classification.COMPLEX)
        lines = distribution_to_csv(dist).splitlines()
        assert lines[:4] == [
            "# classification=Complex", f"# truncation={len(values) - 1}",
            f"# tail_bound={format(1e-13, '.17g')}", "n,re,im",
        ]
        assert lines[4:] == [
            f"{n},{format(v.real, '.17g')},{format(v.imag, '.17g')}"
            for n, v in enumerate(values.tolist())
        ]

    def test_json_export_roundtrip(self):
        import json

        dist = distribution_from_values([0.75, 0.25])
        data = json.loads(distribution_to_json(dist))
        assert data["classification"] == "Probability"
        assert data["values"][1] == {"re": 0.25, "im": 0.0}
        assert data["truncation"] == 1


_CONSTRUCTORS = {
    "hermite": lambda: pn_hermite(OneModeGaussianState(1.2, 0.8, 0.2, 0.5, -0.7)),
    "laguerre": lambda: pn_laguerre(OneModeGaussianState(1.2, 0.8, 0.2, 0.5, -0.7)),
    "xyt": lambda: pn_centered_xyt(XYTState(1.0, 0.6, 0.1)),
    "violation": lambda: pn_violation(1.5, 5.0),
    "two-mode": lambda: two_mode_p2k_distribution(0.25, 0.8),
    "deformed": lambda: deformed_distribution(
        DeformationSpec(DeformationKind.POISSON, alpha_mag2=2.0)
    ),
    "from-values": lambda: distribution_from_values([0.75, 0.25]),
}


class TestValuesFormat:
    @pytest.mark.parametrize("name", sorted(_CONSTRUCTORS))
    def test_read_only_complex_array(self, name):
        import json

        dist = _CONSTRUCTORS[name]()
        assert isinstance(dist.values, np.ndarray)
        assert dist.values.dtype == np.complex128 and dist.values.ndim == 1
        assert not dist.values.flags.writeable
        with pytest.raises(ValueError):
            dist.values[0] = 0.5
        assert type(dist.truncation) is int and dist.truncation == len(dist) - 1
        assert type(dist.tail_bound) is float
        data = json.loads(distribution_to_json(dist))
        assert [complex(v["re"], v["im"]) for v in data["values"]] == dist.values.tolist()
        assert data["truncation"] == dist.truncation
        assert data["tail_bound"] == dist.tail_bound
        assert data["classification"] == dist.classification.value

    def test_caller_array_is_not_frozen(self):
        weights = np.array([0.75, 0.25])
        dist = distribution_from_values(weights)
        assert weights.flags.writeable
        weights[0] = 0.0
        assert dist.values[0] == 0.75

    @pytest.mark.parametrize("make", [
        lambda arr: PhotonDistribution(values=arr, truncation=1, tail_bound=0.0,
                                       classification=Classification.PROBABILITY),
        distribution_from_values,
    ], ids=["constructor", "from-values"])
    def test_caller_complex_array_stays_the_callers(self, make):
        # a complex128 array needs no conversion, and is copied all the same
        weights = np.array([0.75, 0.25], dtype=complex)
        dist = make(weights)
        assert weights.flags.writeable and not np.shares_memory(weights, dist.values)
        assert not dist.values.flags.writeable
        weights[0] = 0.0
        assert dist.values.tolist() == [0.75, 0.25]

    def test_library_table_is_wrapped_without_a_copy(self):
        table = np.array([0.75, 0.25, 0.0], dtype=complex)
        dist = photon_dist._finalize(table, 0.0)
        assert np.shares_memory(dist.values, table) and dist.values.tolist() == [0.75, 0.25]
        assert not dist.values.flags.writeable
        assert (dist.truncation, dist.tail_bound, dist.classification) == (
            1, 0.0, Classification.PROBABILITY)


_SQ20 = OneModeGaussianState.squeezed_vacuum(20.0)  # its cutoff raises


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: DeformationSpec(DeformationKind.POISSON, alpha_mag2=-1.0),
         InvalidSpecError, "alpha_mag2 must be nonnegative"),
        (lambda: DeformationSpec(DeformationKind.F_COHERENT, f_convention="double"),
         InvalidSpecError, "unknown f_convention"),
        (lambda: TwoModeJointDistribution(np.zeros(3), (2, 0), 0.0), DomainError, "2-d"),
        (lambda: TwoModeJointDistribution(np.array([[0.5, -0.1]]), (0, 1), 0.0),
         DomainError, "nonnegative"),
        (lambda: TwoModeJointDistribution(np.array([[0.7, 0.4]]), (0, 1), 0.0),
         NormalizationError, "exceeds one"),
        (lambda: deformed_pn(DeformationSpec(DeformationKind.POISSON, alpha_mag2=1.0), -1),
         DomainError, "nonnegative"),
        (lambda: deformed_distribution(
            DeformationSpec(DeformationKind.SQUEEZED_CORRELATED, r=-0.5, mean_q=1.0)),
         InvalidSpecError, "r must be nonnegative"),
        (lambda: deformed_pn(
            DeformationSpec(DeformationKind.SQUEEZED_CORRELATED, r=-0.5, mean_q=1.0), 3),
         InvalidSpecError, "r must be nonnegative"),
        (lambda: deformed_pn(DeformationSpec(
            DeformationKind.F_COHERENT, alpha_mag2=0.8, f_values=(1.0, 0.0, 2.0)), 0),
         InvalidSpecError, r"f\(1\) is zero"),
        (lambda: deformed_pn(
            DeformationSpec(DeformationKind.Q_COHERENT, alpha_mag2=1e5, lam=1e-9), 0),
         DivergentSeriesError, "term-ratio test"),
        (lambda: two_mode_joint(LegendreParams(1.0, 0.5, 0.5, 0.3), -1, 0),
         DomainError, "nonnegative"),
        (lambda: pn_violation(0.45, 1.0), SingularDenominatorError, "4 tau vanishes"),
        (lambda: specfun.hermite_2d(-1, None, 0j, 0j), DomainError, "nonnegative"),
        (lambda: specfun.laguerre_half_sequence(0.5, -1), DomainError, "nonnegative"),
        (lambda: specfun.gauss_2f1_terminating(-1, 0.5, 1.5, 0.3), DomainError, "nonnegative"),
        (lambda: OneModeGaussianState.thermal(-1.0), DomainError, "nonnegative"),
        (lambda: XYTState(math.nan, 0.5), DomainError, "x must be finite"),
        # n_max is checked before the cutoff, which raises on these states
        (lambda: pn_hermite(_SQ20, -1), DomainError, "n_max must be nonnegative"),
        (lambda: pn_laguerre(_SQ20, -1), DomainError, "n_max must be nonnegative"),
        (lambda: pn_centered_xyt(XYTState(_SQ20.sigma_pp, _SQ20.sigma_qq), -1),
         DomainError, "n_max must be nonnegative"),
    ],
    ids=[
        "negative-alpha", "unknown-convention", "joint-1d", "joint-negative", "joint-mass",
        "deformed-negative-n", "correlated-negative-r", "correlated-negative-r-one-term",
        "f-profile-zero", "q-coherent-divergent",
        "joint-negative-index", "violation-singular", "hermite-negative-degree",
        "laguerre-negative-degree", "2f1-negative-order", "thermal-negative", "xyt-nan",
        "hermite-negative-n-max", "laguerre-negative-n-max", "xyt-negative-n-max",
    ],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
