import math

import numpy as np
import pytest

from photonstat.errors import DomainError, RangeOverflowError, SingularDenominatorError
from photonstat.gaussian_state import (
    OneModeGaussianState,
    XYTState,
    _generating_record,
    from_tau,
    p0,
    r_matrix,
    uncertainty_check,
)


def random_valid_states(rng, count):
    """Physical states: positive variances, det >= 1/4, random means."""
    out = []
    while len(out) < count:
        x = rng.uniform(0.5, 4.0)
        y = rng.uniform(0.5, 4.0)
        t_lim = math.sqrt(max(x * y - 0.25, 0.0))
        t = rng.uniform(-0.9, 0.9) * t_lim
        q, p = rng.normal(0, 1, 2)
        state = OneModeGaussianState(x, y, t, q, p)
        if uncertainty_check(state).valid:
            out.append(state)
    return out


class TestSqueezedConstructors:
    """Past |r| = 354.89, e^(2|r|) leaves the double range: squeezed_vacuum
    raised a bare OverflowError there, and squeezed_correlated either that
    (cosh 2r overflowing, from r = 355.25) or a DomainError on sigma_pp."""

    @pytest.mark.parametrize("r", [354.9, -354.9, 355.2, 355.3, 1e4])
    @pytest.mark.parametrize(
        "build", [OneModeGaussianState.squeezed_vacuum,
                  lambda r: OneModeGaussianState.squeezed_correlated(r, 0.3)],
        ids=["vacuum", "correlated"],
    )
    def test_past_the_double_range_raises(self, build, r):
        with pytest.raises(RangeOverflowError, match=r"e\^\(2\|r\|\) exceeds"):
            build(r)

    @pytest.mark.parametrize("r", [354.89, -354.89])
    def test_edge_builds(self, r):
        state = OneModeGaussianState.squeezed_vacuum(r)
        assert max(state.sigma_pp, state.sigma_qq) == math.exp(2 * abs(r)) / 2
        state = OneModeGaussianState.squeezed_correlated(r, 0.3)
        assert math.isfinite(state.sigma_pp + state.sigma_qq + state.sigma_pq)


class TestUncertaintyCheck:
    def test_vacuum_sits_on_the_boundary(self):
        v = uncertainty_check(OneModeGaussianState.vacuum())
        assert v.slack == 0.0 and v.valid

    def test_violating_state(self):
        v = uncertainty_check(OneModeGaussianState(-0.75, 5.0, 0.0))
        assert v.slack == pytest.approx(-4.0, abs=1e-14)
        assert not v.valid

    def test_thermal_slack(self):
        v = uncertainty_check(OneModeGaussianState(1.5, 1.5, 0.0))
        assert v.slack == pytest.approx(2.0, abs=1e-14)
        assert v.valid

    def test_negative_definite_covariance_is_not_valid(self):
        # det = 1 clears 1/4, but Sigma < 0 describes no state
        v = uncertainty_check(OneModeGaussianState(-1.0, -1.0, 0.0))
        assert (v.det_sigma, v.slack, v.valid) == (1.0, 0.75, False)


class TestRMatrix:
    def test_vacuum(self):
        rm = r_matrix(OneModeGaussianState.vacuum())
        assert rm.r11 == 0
        # 1/2 - 2 det = 0 at the vacuum: every positive degree must vanish
        assert rm.r12 == 0.0
        assert rm.y1 == 0

    def test_centered_states_have_zero_arguments(self):
        rm = r_matrix(OneModeGaussianState(1.7, 0.6, 0.2))
        assert rm.y1 == 0 and rm.y2 == 0

    def test_isotropy_kills_diagonal(self):
        rm = r_matrix(OneModeGaussianState(1.3, 1.3, 0.0))
        assert rm.r11 == 0 and rm.r22 == 0

    def test_conjugate_structure(self):
        rng = np.random.default_rng(11)
        for state in random_valid_states(rng, 25):
            rm = r_matrix(state)
            assert abs(rm.r22 - rm.r11.conjugate()) < 1e-14
            assert abs(rm.y2 - rm.y1.conjugate()) < 1e-14
            assert isinstance(rm.r12, float)

    def test_thermal_r12_is_minus_nbar_ratio(self):
        n_bar = 2.0
        rm = r_matrix(OneModeGaussianState.thermal(n_bar))
        assert rm.r12 == pytest.approx(-n_bar / (n_bar + 1), abs=1e-14)

    def test_singular_r_denominator(self):
        # Tr + 2 det + 1/2 = 0 at (1, 1, 3/2)
        with pytest.raises(SingularDenominatorError):
            r_matrix(OneModeGaussianState(1.0, 1.0, 1.5))

    def test_singular_y_denominator(self):
        # Tr - 2 det - 1/2 = 0 for any displaced minimum-uncertainty
        # isotropic state
        with pytest.raises(SingularDenominatorError):
            r_matrix(OneModeGaussianState.coherent(1.0, 0.5))


class TestP0:
    def test_vacuum(self):
        assert p0(OneModeGaussianState.vacuum()) == pytest.approx(1.0, abs=1e-15)

    def test_thermal(self):
        for n_bar in (0.5, 1.0, 4.0):
            assert p0(OneModeGaussianState.thermal(n_bar)) == pytest.approx(
                1 / (n_bar + 1), rel=1e-14
            )

    def test_squeezed_vacuum(self):
        for r in (0.3, 1.0, 2.5):
            assert p0(OneModeGaussianState.squeezed_vacuum(r)) == pytest.approx(
                1 / math.cosh(r), rel=1e-13
            )

    def test_coherent(self):
        q, p = 0.8, -1.1
        assert p0(OneModeGaussianState.coherent(q, p)) == pytest.approx(
            math.exp(-(q * q + p * p) / 2), rel=1e-13
        )

    def test_violation_regime_returns_complex(self):
        val = p0(OneModeGaussianState(-0.75, 5.0, 0.0))
        assert isinstance(val, complex)
        assert val.real == pytest.approx(0.0, abs=1e-15)
        assert val.imag != 0

    def test_bounded_and_tight_only_at_vacuum(self):
        rng = np.random.default_rng(3)
        for state in random_valid_states(rng, 60):
            val = p0(state)
            assert 0 < val <= 1
            is_vacuum = (
                state.sigma_pp == 0.5
                and state.sigma_qq == 0.5
                and state.sigma_pq == 0.0
                and state.is_centered
            )
            if not is_vacuum:
                assert val < 1

    def test_singular_radicand(self):
        # the radicand D / 2 = (Tr + 2 det + 1/2) / 2 = (2 - 5/2 + 1/2) / 2 vanishes
        with pytest.raises(SingularDenominatorError):
            p0(OneModeGaussianState(1.0, 1.0, 1.5))

    def test_underflows_to_zero(self):
        assert p0(OneModeGaussianState.coherent(40.0, 0.0)) == 0.0
        rec = _generating_record(OneModeGaussianState.coherent(40.0, 0.0))
        assert rec.law.log_p0 == pytest.approx(-800.0, rel=1e-15)

    def test_violation_regime_is_on_the_principal_branch(self):
        # D = -12 < 0: P0 = (D / 2)^(-1/2) = -i / sqrt(6)
        state = OneModeGaussianState(-3.0, 1.0, 1.5)
        assert state.trace + 2 * state.det + 0.5 == -12.0
        assert p0(state) == pytest.approx(-1j / math.sqrt(6), rel=1e-15)

    def test_covariance_past_the_double_range_raises(self):
        # sigma_pq**2 raised a bare OverflowError in det
        state = OneModeGaussianState(0.5, 0.5, 1e155)
        assert state.det == -math.inf
        with pytest.raises(RangeOverflowError):
            p0(state)


class TestFromTau:
    def test_boundary_is_vacuum(self):
        assert from_tau(0.0, 0.5, 0.0) == XYTState(0.5, 0.5, 0.0)

    def test_documented_violation_point(self):
        assert from_tau(4.0, 5.0, 0.0).x == pytest.approx(-0.75, abs=1e-15)

    def test_boundary_with_covariance(self):
        st = from_tau(0.0, 2.0, 0.5)
        assert st.x == pytest.approx(0.25, abs=1e-15)
        assert uncertainty_check(st.to_state()).slack == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("y", [0.5, 1.0, 5.0])
    @pytest.mark.parametrize("t", [0.0, 0.3])
    def test_slack_is_minus_tau(self, y, t):
        for tau in np.linspace(0.0, 10.0, 21):
            st = from_tau(float(tau), y, t)
            assert uncertainty_check(st.to_state()).slack == pytest.approx(
                -tau, abs=1e-12
            )

    def test_zero_y_rejected(self):
        with pytest.raises(SingularDenominatorError):
            from_tau(1.0, 0.0, 0.0)


class TestStateDescriptor:
    def test_roundtrip(self):
        st = OneModeGaussianState(1.2, 0.8, 0.1, 0.5, -0.3)
        assert OneModeGaussianState.from_dict(st.to_dict()) == st

    def test_all_fields_required(self):
        with pytest.raises(DomainError):
            OneModeGaussianState.from_dict({"sigma_pp": 0.5, "sigma_qq": 0.5})

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            OneModeGaussianState(math.nan, 0.5, 0.0)

    @pytest.mark.parametrize("value", ["abc", None, {}, 10**400])
    def test_non_numeric_field_rejected(self, value):
        data = {**OneModeGaussianState.vacuum().to_dict(), "mean_p": value}
        with pytest.raises(DomainError, match="field mean_p must be a number"):
            OneModeGaussianState.from_dict(data)
