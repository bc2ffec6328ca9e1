import cmath
import math

import mpmath
import numpy as np
import pytest

from photonstat.errors import (
    DomainError,
    InvalidSpecError,
    ParityError,
    RangeOverflowError,
    SingularDenominatorError,
)
from photonstat import photon_dist, specfun
from photonstat.gaussian_state import OneModeGaussianState, XYTState, from_tau, p0, r_matrix
from photonstat.photon_dist import (
    Classification,
    DeformationKind,
    DeformationSpec,
    LegendreParams,
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
    _roots,
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
        # sqrt(R11 R22) / sqrt(R11) misses conj(sqrt(R11)) by an ulp for this
        # state, which left imaginary roundoff up to 2.3e-18 in the values
        state = OneModeGaussianState(1.2, 0.8, 0.2, 0.5, -0.7)
        rm = r_matrix(state)
        _, s1, s2 = _roots(rm)
        assert s2 == s1.conjugate()
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


class TestDecayRatioTruncation:
    """Gaussian series sized once from the decay ratio q of their
    generating function, with a proven tail bound."""

    @pytest.mark.parametrize("valid", [True, False])
    def test_q_is_the_larger_laguerre_base(self, valid):
        for state in random_states(7, 40, valid):
            rm = r_matrix(state)
            rho = cmath.sqrt(rm.r11 * rm.r22)
            ref = max(abs(rm.r12 - rho), abs(rm.r12 + rho))
            q = max(map(abs, photon_dist._generating_roots(state)))
            assert q == pytest.approx(ref, rel=1e-14)

    def test_known_ratios(self):
        for n_bar in (0.5, 1.0, 10.0):
            q = max(map(abs, photon_dist._generating_roots(OneModeGaussianState.thermal(n_bar))))
            assert q == pytest.approx(n_bar / (n_bar + 1), rel=1e-15)
        for r in (0.1, 1.0, 3.0):
            q = max(map(abs, photon_dist._generating_roots(OneModeGaussianState.squeezed_vacuum(r))))
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
            q = max(map(abs, photon_dist._generating_roots(state)))
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
        calls = []
        kernel = photon_dist.log_cauchy_rows

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(photon_dist, "log_cauchy_rows", counted)
        routes = [(pn_hermite, state, 1), (pn_laguerre, state, 1)]
        if state.is_centered:
            # one kernel call per photon-number parity
            xyt = XYTState(state.sigma_pp, state.sigma_qq, state.sigma_pq)
            routes.append((pn_centered_xyt, xyt, 2))
        n_cut = photon_dist._decay_cut(state)[0]
        for route, arg, per_pass in routes:
            calls.clear()
            assert route(arg).truncation <= n_cut
            assert len(calls) == per_pass

    @pytest.mark.parametrize("n_max", [None, 256])
    @pytest.mark.parametrize("means", [(0.0, 0.0), (0.6, -0.5)])
    def test_one_convolution_per_kernel_call(self, monkeypatch, n_max, means):
        # a squeezed thermal state of mean photon number 0.95, as routes_mixed draws
        r, theta, nu = 0.3, 1.0, 2.9 / math.cosh(0.6)
        ch, sh = math.cosh(2 * r), math.sinh(2 * r)
        sigmas = (nu / 2 * (ch + math.cos(theta) * sh), nu / 2 * (ch - math.cos(theta) * sh),
                  nu / 2 * math.sin(theta) * sh)
        state = OneModeGaussianState(*sigmas, *means)
        calls, convolutions = [], []
        kernel, convolve = photon_dist.log_cauchy_rows, specfun._convolve_rows
        monkeypatch.setattr(photon_dist, "log_cauchy_rows", lambda *a: calls.append(a) or kernel(*a))
        monkeypatch.setattr(specfun, "_convolve_rows", lambda *a: convolutions.append(a) or convolve(*a))
        routes = [(pn_hermite, state), (pn_laguerre, state)]
        if state.is_centered:
            routes.append((pn_centered_xyt, XYTState(*sigmas)))
        for route, arg in routes:
            calls.clear()
            convolutions.clear()
            assert route(arg, n_max).classification is Classification.PROBABILITY
            assert calls and len(convolutions) == len(calls)

    def test_equivalent_laws_share_the_cutoff(self):
        for r, theta, mq, mp in [(0.7, 0.5, 0.3, -0.2), (1.0, 0.0, 1.0, 0.5), (0.2, 1.0, 0.0, 0.0)]:
            spec = DeformationSpec(
                DeformationKind.SQUEEZED_CORRELATED, r=r, theta=theta, mean_q=mq, mean_p=mp
            )
            law = deformed_distribution(spec)
            dist = pn_hermite(OneModeGaussianState.squeezed_correlated(r, theta, mq, mp))
            # the law's odd terms of a centered state are exact zeros, dropped
            # from its end; the route's are roundoff
            assert law.tail_bound == dist.tail_bound
            assert 0 <= dist.truncation - law.truncation <= 1
            for v, e in zip(dist.values, law.values):
                assert abs(v - e) <= 1e-9 * abs(e) + 1e-15

    def test_cap_reports_the_bound_it_reached(self):
        dist = pn_hermite(OneModeGaussianState.squeezed_vacuum(3.0))
        assert dist.truncation == 4096
        assert 1e-12 < dist.tail_bound < 1e-6

    def test_q_above_one_keeps_doubling(self):
        assert photon_dist._decay_cut(OneModeGaussianState(-0.75, 5.0, 0.0)) is None


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


class TestLargeDisplacement:
    """At |mean| of a few tens P0 underflows to 0.0 while the Hermite factors
    of the law overflow; the law keeps P0 as its log.  Far past the 4096 cap
    the cutoff's tail bound leaves the double range."""

    @staticmethod
    def spec(mean_q):
        return DeformationSpec(DeformationKind.SQUEEZED_CORRELATED, r=0.5, mean_q=mean_q)

    def test_law_whose_p0_underflows_matches_mpmath(self):
        dist = deformed_distribution(self.spec(38.0))
        assert dist.classification is Classification.PROBABILITY
        assert dist.truncation == 1292
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

    @pytest.mark.parametrize("route", [pn_hermite, pn_laguerre])
    def test_routes_past_the_cap_raise(self, route):
        with pytest.raises(RangeOverflowError):
            route(OneModeGaussianState.squeezed_correlated(0.5, 0.0, 100.0, 0.0))


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

    def test_positive_denominator_gives_real_values(self):
        # x = -0.25, y = 5: 4 det + 2 Tr + 1 = 5.5 > 0 makes every term real,
        # also past k = 100 where powers of a complex -1 pick up roundoff
        dist = pn_centered_xyt(from_tau(1.5, 5.0))
        assert dist.classification is Classification.SIGNED_REAL
        assert len(dist.values) > 100
        assert all(v.imag == 0 for v in dist.values)


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

        at_zero, ref = law(0.0), poisson()
        assert np.array_equal(at_zero.values, ref.values)
        assert at_zero.tail_bound == ref.tail_bound
        assert at_zero.classification is Classification.PROBABILITY
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

    def test_csv_export(self):
        dist = distribution_from_values([0.75, 0.25])
        text = distribution_to_csv(dist)
        lines = text.splitlines()
        assert lines[0] == "# classification=Probability"
        assert lines[3] == "n,re,im"
        assert lines[4].startswith("0,0.75")
        assert text.endswith("\n")

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
