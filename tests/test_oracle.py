import json
import math

import pytest

from photonstat.errors import DomainError
from photonstat.oracle import (
    oracle_poisson_blocks,
    oracle_squeezed_vacuum,
    oracle_thermal,
    run_suite,
    suite_passed,
    verdicts_to_json_lines,
)


class TestThermalOracle:
    def test_vacuum(self):
        assert oracle_thermal(0.0, 0) == 1.0

    def test_unit_mean(self):
        assert oracle_thermal(1.0, 1) == pytest.approx(0.25, abs=1e-15)

    def test_half_mean_ground(self):
        assert oracle_thermal(0.5, 0) == pytest.approx(2 / 3, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            oracle_thermal(-1.0, 0)


class TestSqueezedVacuumOracle:
    def test_odd_counts_vanish(self):
        for n in (1, 3, 9, 31):
            assert oracle_squeezed_vacuum(1.7, n) == 0.0

    def test_unsqueezed_ground(self):
        assert oracle_squeezed_vacuum(0.0, 0) == 1.0

    def test_two_photon_value(self):
        expected = (1 / math.cosh(1)) * (math.tanh(1) / 2) ** 2 * 2
        assert oracle_squeezed_vacuum(1.0, 2) == pytest.approx(expected, rel=1e-14)


class TestPoissonBlocksOracle:
    def test_pair_masses(self):
        for x in (0.3, 1.0, 4.0):
            assert oracle_poisson_blocks(x, 2, 0) == pytest.approx(
                math.exp(-x) * math.cosh(x), rel=1e-13
            )
            assert oracle_poisson_blocks(x, 2, 1) == pytest.approx(
                math.exp(-x) * math.sinh(x), rel=1e-13
            )

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_total_mass(self, m):
        for x in (0.5, 2.0):
            total = math.fsum(oracle_poisson_blocks(x, m, j) for j in range(m))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_sum(self):
        x, m, j = 1.3, 3, 2
        direct = math.fsum(
            math.exp(-x + (m * k + j) * math.log(x) - math.lgamma(m * k + j + 1))
            for k in range(60)
        )
        assert oracle_poisson_blocks(x, m, j) == pytest.approx(direct, abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            oracle_poisson_blocks(1.0, 3, 3)


@pytest.fixture(scope="module")
def default_verdicts():
    return run_suite()


class TestSuite:
    def test_default_grid_passes(self, default_verdicts):
        assert default_verdicts
        assert suite_passed(default_verdicts)

    def test_documented_discrepancies_are_reported_not_enforced(self, default_verdicts):
        reports = [v for v in default_verdicts if v.name.startswith("report:")]
        assert reports
        # the known slips must remain visible as failed comparisons
        assert any(not v.passed for v in reports)
        assert any("trig-form" in v.name for v in reports)
        assert any("mean-signed" in v.name for v in reports)

    def test_violation_cells_never_classify_as_probability(self, default_verdicts):
        cell = next(
            v for v in default_verdicts if v.name == "violation-grid-classification"
        )
        assert cell.passed
        assert cell.actual == cell.expected

    def test_displaced_states_match_their_laws_on_both_routes(self, default_verdicts):
        displaced = [v for v in default_verdicts if v.name.startswith("displaced:")]
        assert [v.name for v in displaced] == [
            "displaced:hermite[0.0,0.0,1.0,0.5]",
            "displaced:laguerre[0.0,0.0,1.0,0.5]",
            "displaced:hermite[0.7,0.5,0.3,-0.2]",
            "displaced:laguerre[0.7,0.5,0.3,-0.2]",
        ]
        assert all(v.passed for v in displaced)

    def test_json_lines_roundtrip(self, default_verdicts):
        text = verdicts_to_json_lines(default_verdicts)
        rows = [json.loads(line) for line in text.strip().splitlines()]
        assert [r["name"] for r in rows] == [v.name for v in default_verdicts]
        assert [r["pass"] for r in rows] == [v.passed for v in default_verdicts]
        assert all({"name", "expected", "actual", "abs_err", "rel_err", "pass"} <= set(r) for r in rows)

    def test_verdict_invariant(self, default_verdicts):
        for v in default_verdicts:
            if v.passed:
                continue
            # failed verdicts really did miss both tolerances
            assert v.abs_err > 0
