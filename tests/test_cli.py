import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

import pytest

from photonstat import cli, entropy, oracle, photon_dist
from photonstat.cli import main
from photonstat.entropy import PartitionScheme, block_entropies
from photonstat.gaussian_state import OneModeGaussianState, XYTState
from photonstat.photon_dist import (
    DeformationKind,
    DeformationSpec,
    _fmt,
    deformed_distribution,
    distribution_to_csv,
    pn_centered_xyt,
)

# a centered state with det Sigma < 1/4, whose law is a signed real sequence
VIOLATING_STATE = {
    "sigma_pp": 0.3, "sigma_qq": 0.6, "sigma_pq": 0.1, "mean_q": 0.0, "mean_p": 0.0
}


@pytest.fixture
def vacuum_state(tmp_path):
    path = tmp_path / "vacuum.json"
    path.write_text(
        json.dumps(
            {"sigma_pp": 0.5, "sigma_qq": 0.5, "sigma_pq": 0.0, "mean_q": 0.0, "mean_p": 0.0}
        )
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDist:
    def test_vacuum_single_row(self, capsys, vacuum_state):
        code, out, _ = run(capsys, "dist", "--family", "gaussian", "--state", vacuum_state)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# classification=Probability"
        assert lines[-1] == "0,1,0"
        assert len(lines) == 5  # 3 metadata + header + one data row

    def test_squeezed_vacuum_values(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--family", "squeezed-vacuum", "--r", "1.0",
            "--n-max", "8", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        sech = 1 / math.cosh(1.0)
        assert data["values"][0]["re"] == pytest.approx(sech, rel=1e-12)
        assert data["values"][1]["re"] == 0.0
        assert data["values"][2]["re"] == pytest.approx(
            sech * (math.tanh(1.0) / 2) ** 2 * 2, rel=1e-12
        )

    def test_violation_family_is_complex(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--family", "xyt",
            "--x", "-0.75", "--y", "5", "--t", "0", "--tau", "4",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["classification"] == "Complex"
        assert data["values"][0]["im"] == pytest.approx(-0.4313310928137537, rel=1e-12)

    def test_inconsistent_x_tau_rejected(self, capsys):
        code, _, err = run(
            capsys, "dist", "--family", "xyt",
            "--x", "0.3", "--y", "5", "--tau", "4",
        )
        assert code == 1
        assert err.startswith("error: domain-error:")

    def test_x_with_tau_at_zero_y_is_single_line(self, capsys):
        # the implied x once divided by y = 0 in a bare ZeroDivisionError
        code, out, err = run(
            capsys, "dist", "--family", "xyt", "--x", "1", "--y", "0", "--tau", "1"
        )
        assert (code, out) == (1, "")
        assert err == "error: singular-denominator: y must be nonzero to solve for x\n"

    @pytest.mark.parametrize("argv, message", [
        (["--y", "5", "--tau", "nan"], "tau must be finite, got nan"),
        (["--y", "5", "--tau", "1", "--t", "nan"], "t must be finite, got nan"),
        (["--y", "inf", "--tau", "1"], "y must be finite, got inf"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_non_finite_tau_family_argument_is_named(self, capsys, argv, message):
        code, out, err = run(capsys, "dist", "--family", "xyt", *argv)
        assert (code, out, err) == (1, "", f"error: domain-error: {message}\n")

    def test_centered_xyt_family(self, capsys):
        code, out, err = run(
            capsys, "dist", "--family", "xyt", "--x", "0.6", "--y", "0.7", "--t", "0.1"
        )
        assert (code, err) == (0, "")
        assert out == distribution_to_csv(pn_centered_xyt(XYTState(0.6, 0.7, 0.1)))

    def test_two_mode_family(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--family", "two-mode", "--s1", "0", "--s2", "0.5",
            "--n-max", "6", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["values"][0]["re"] == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert data["values"][1]["re"] == 0.0

    def test_missing_arguments(self, capsys):
        code, _, err = run(capsys, "dist", "--family", "xyt")
        assert code == 1
        assert "error:" in err

    def test_laguerre_route_matches_hermite(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(
            json.dumps(
                {"sigma_pp": 1.5, "sigma_qq": 0.9, "sigma_pq": 0.3,
                 "mean_q": 0.0, "mean_p": 0.0}
            )
        )
        outputs = {}
        for route in ("hermite", "laguerre"):
            code, out, _ = run(
                capsys, "dist", "--family", "gaussian", "--state", str(path),
                "--route", route, "--n-max", "12", "--format", "json",
            )
            assert code == 0
            outputs[route] = json.loads(out)["values"]
        for vh, vl in zip(outputs["hermite"], outputs["laguerre"]):
            assert vh["re"] == pytest.approx(vl["re"], rel=1e-10, abs=1e-300)

    def test_output_is_byte_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for target in (a, b):
            code = main(
                ["dist", "--family", "q-coherent", "--alpha", "1.3",
                 "--lambda", "2.0", "--out", str(target)]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestEntropy:
    def test_poisson_parity_report(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "--family", "poisson", "--alpha", "1.0",
            "--partition", "2", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        x = 1.0
        eq_parity = -(
            math.exp(-x) * math.sinh(x) * math.log(math.exp(-x) * math.sinh(x))
            + math.exp(-x) * math.cosh(x) * math.log(math.exp(-x) * math.cosh(x))
        )
        assert data["h_sub2"] == pytest.approx(eq_parity, abs=1e-10)
        assert data["subadditive"] is True

    def test_non_probability_routes_to_complex(self, capsys):
        code, out, err = run(
            capsys, "entropy", "--family", "xyt",
            "--y", "5", "--tau", "4", "--format", "json",
        )
        assert code == 0
        assert "notice:" in err
        data = json.loads(out)
        assert "branch_index" in data
        assert data["information"]["im"] != 0.0


class TestInequality:
    def test_poisson_margin(self, capsys):
        code, out, _ = run(
            capsys, "inequality", "--family", "poisson", "--alpha", "1.0",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["form"] == "block-partition"
        assert data["margin"] >= -1e-12
        assert "parity_entropy_closed_form" in data

    def test_squeezed_vacuum_zero_margin(self, capsys):
        code, out, _ = run(
            capsys, "inequality", "--family", "squeezed-vacuum", "--r", "1.0",
            "--n-max", "600", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["margin"]) < 1e-12

    def test_hermite_form(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(
            json.dumps(
                {"sigma_pp": 1.5, "sigma_qq": 0.9, "sigma_pq": 0.3,
                 "mean_q": 0.0, "mean_p": 0.0}
            )
        )
        code, out, _ = run(
            capsys, "inequality", "--family", "gaussian", "--state", str(path),
            "--form", "hermite", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["form"] == "hermite-pair"
        assert data["margin"] == data["information"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "gaussian", "--state", "STATE", "--form", "hermite"),
            ("--family", "gaussian", "--state", "STATE", "--form", "laguerre"),
            ("--family", "gaussian", "--state", "STATE", "--route", "laguerre"),
            ("--family", "poisson", "--alpha", "1.0", "--partition", "3"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_margin_is_the_printed_information(self, capsys, tmp_path, argv):
        path = tmp_path / "state.json"
        path.write_text(
            json.dumps(
                {"sigma_pp": 0.8, "sigma_qq": 0.4, "sigma_pq": 0.1,
                 "mean_q": 0.3, "mean_p": -0.2}
            )
        )
        argv = [str(path) if a == "STATE" else a for a in argv]
        for fmt in ("json", "csv"):
            code, out, _ = run(capsys, "inequality", *argv, "--format", fmt)
            assert code == 0
            if fmt == "json":
                data = json.loads(out)
            else:
                data = dict(zip(*(line.split(",") for line in out.splitlines())))
            assert data["margin"] == data["information"]

    def test_hermite_form_where_p0_underflows(self, capsys, tmp_path):
        # <q> = 60: P0 underflows to 0.0, and the pair form reports the law anyway
        path = tmp_path / "p0_underflow.json"
        path.write_text(
            json.dumps(
                {"sigma_pp": 0.5 * math.exp(1), "sigma_qq": 0.5 * math.exp(-1),
                 "sigma_pq": 0.0, "mean_q": 60.0, "mean_p": 0.0}
            )
        )
        argv = ("inequality", "--family", "gaussian", "--state", str(path), "--format", "json")
        code, out, err = run(capsys, *argv, "--form", "hermite")
        assert (code, err) == (0, "")
        _, block_out, _ = run(capsys, *argv, "--form", "block")
        data, block = json.loads(out), json.loads(block_out)
        assert data["information"] == block["information"] > 0
        assert data["margin"] == data["information"]

    def test_non_probability_csv_matches_entropy_plus_form(self, capsys):
        argv = ("--family", "xyt", "--y", "5", "--tau", "4")
        _, entropy_csv, _ = run(capsys, "entropy", *argv)
        code, out, err = run(capsys, "inequality", *argv)
        assert code == 0
        assert err.startswith("notice: classification Complex")
        header, row = out.splitlines()
        e_header, e_row = entropy_csv.splitlines()
        assert header == e_header + ",form"
        assert row == e_row + ",complex-blocked"
        _, out_json, _ = run(capsys, "inequality", *argv, "--format", "json")
        assert json.loads(out_json)["form"] == "complex-blocked"

    @pytest.mark.parametrize("form", ["hermite", "laguerre"])
    def test_pair_form_reports_the_entropies_of_its_route(self, capsys, tmp_path, form):
        path = tmp_path / "state.json"
        path.write_text(
            json.dumps(
                {"sigma_pp": 0.8, "sigma_qq": 0.4, "sigma_pq": 0.1,
                 "mean_q": 0.3, "mean_p": -0.2}
            )
        )
        argv = ("--family", "gaussian", "--state", str(path), "--format", "json")
        _, out, _ = run(capsys, "inequality", *argv, "--form", form)
        _, entropy_out, _ = run(capsys, "entropy", *argv, "--route", form)
        data, entropy = json.loads(out), json.loads(entropy_out)
        assert data["form"] == f"{form}-pair"
        assert {k: data[k] for k in entropy} == entropy

    @pytest.mark.parametrize("form", ["hermite", "laguerre"])
    def test_pair_form_evaluates_its_route_once(self, capsys, monkeypatch, tmp_path, form):
        path = tmp_path / "state.json"
        sigmas = {"sigma_pp": 0.8, "sigma_qq": 0.4, "sigma_pq": 0.1}
        path.write_text(json.dumps({**sigmas, "mean_q": 0.3, "mean_p": -0.2}))
        name = f"pn_{form}"
        route, calls = getattr(photon_dist, name), []
        for module in (cli, entropy):
            monkeypatch.setattr(module, name, lambda *a: calls.append(a) or route(*a))
        _, out, _ = run(
            capsys, "inequality", "--family", "gaussian", "--state", str(path),
            "--form", form, "--format", "json",
        )
        assert len(calls) == 1
        monkeypatch.undo()
        margin = getattr(entropy, f"{form}_inequality_margin")(
            OneModeGaussianState(**sigmas, mean_q=0.3, mean_p=-0.2)
        )
        assert json.loads(out)["margin"] == margin

    @pytest.mark.parametrize("form", ["hermite", "laguerre"])
    def test_pair_form_on_a_violating_state_is_the_complex_report(
        self, capsys, tmp_path, form
    ):
        path = tmp_path / "violating.json"
        path.write_text(json.dumps(VIOLATING_STATE))
        argv = ("--family", "gaussian", "--state", str(path), "--format", "json")
        code, out, err = run(capsys, "inequality", *argv, "--form", form)
        assert code == 0
        assert err == "notice: classification SignedReal; reporting complex information\n"
        _, entropy_out, _ = run(capsys, "entropy", *argv, "--route", form)
        assert json.loads(out) == {**json.loads(entropy_out), "form": "complex-blocked"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "gaussian", "--state", "STATE", "--form", "hermite",
             "--partition", "3"),
            ("--family", "gaussian", "--state", "STATE", "--form", "laguerre",
             "--partition", "3"),
            ("--family", "poisson", "--alpha", "1.0", "--form", "hermite"),
            ("--family", "squeezed-vacuum", "--r", "1.0", "--form", "laguerre"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_pair_form_outside_gaussian_pairs_is_domain_error(self, capsys, tmp_path, argv):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({**VIOLATING_STATE, "sigma_pp": 0.8}))
        code, out, err = run(
            capsys, "inequality", *(str(path) if a == "STATE" else a for a in argv)
        )
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: domain-error: --form ")

    def test_subadditive_csv_cell_matches_entropy(self, capsys):
        argv = ("--family", "poisson", "--alpha", "1")

        def subadditive(command):
            code, out, _ = run(capsys, command, *argv)
            assert code == 0
            header, row = out.splitlines()
            return dict(zip(header.split(","), row.split(",")))["subadditive"]

        assert subadditive("inequality") == subadditive("entropy") == "true"


def _flattened(data: dict) -> dict:
    """A JSON report as CSV cells: a complex {"re", "im"} field k as k_re and
    k_im, branch_index as branch, numbers by _fmt, booleans lowercase."""
    cells = {}
    for key, value in data.items():
        if isinstance(value, dict):
            cells[f"{key}_re"], cells[f"{key}_im"] = _fmt(value["re"]), _fmt(value["im"])
        elif isinstance(value, bool):
            cells[key] = str(value).lower()
        else:
            cells["branch" if key == "branch_index" else key] = (
                _fmt(value) if isinstance(value, float) else str(value)
            )
    return cells


class TestReportContract:
    """The CSV of every entropy and inequality report is its JSON, flattened."""

    @pytest.mark.parametrize(
        "argv, complex_fields",
        [
            (("entropy", "--family", "poisson", "--alpha", "1.0"), False),
            (("entropy", "--family", "xyt", "--y", "5", "--tau", "4", "--branch", "1"), True),
            (("inequality", "--family", "poisson", "--alpha", "1.0"), False),
            (("inequality", "--family", "squeezed-vacuum", "--r", "1.0", "--n-max", "600"),
             False),
            (("inequality", "--family", "xyt", "--y", "5", "--tau", "4"), True),
        ],
    )
    def test_csv_is_the_flattened_json(self, capsys, argv, complex_fields):
        code, out_json, err_json = run(capsys, *argv, "--format", "json")
        assert code == 0
        code, out_csv, err_csv = run(capsys, *argv)
        assert code == 0
        assert err_csv == err_json
        data = json.loads(out_json)
        assert ("reading" in data) == complex_fields
        cells = _flattened(data)
        header, row = out_csv.splitlines()
        # the real inequality report sorts its CSV columns
        keys = sorted(cells) if argv[0] == "inequality" and not complex_fields else list(cells)
        assert header.split(",") == keys
        assert row.split(",") == [cells[k] for k in keys]


class TestViolation:
    def test_boundary_in_sweep(self, capsys):
        code, out, _ = run(
            capsys, "violation", "--tau-min", "-0.003", "--tau-max", "0.003",
            "--tau-step", "0.001", "--y", "5", "--n-max", "64",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for row in rows:
            tau = float(row[0])
            assert float(row[2]) == pytest.approx(-tau, abs=1e-12)  # slack
            if tau <= 0:
                assert row[3] == "Probability"
            else:
                assert row[3] != "Probability"

    def test_grid_hits_boundary_exactly(self, capsys):
        # -1 + 10 * 0.1 is the default sweep's eleventh point
        code, out, _ = run(
            capsys, "violation", "--tau-min", "-1", "--tau-max", "0",
            "--tau-step", "0.1", "--y", "5", "--n-max", "16",
        )
        assert code == 0
        row = out.strip().splitlines()[11].split(",")
        assert row[0] == "0"
        assert row[3] == "Probability"

    @pytest.mark.parametrize("k", range(1, 11))
    def test_zero_row_prints_zero_for_any_decimal_start(self, capsys, k):
        start = -k / 10
        code, out, _ = run(
            capsys, "violation", "--tau-min", repr(start), "--tau-max", "0.05",
            "--tau-step", "0.1", "--y", "5", "--n-max", "8",
        )
        assert code == 0
        taus = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert taus[k] == "0"

    def test_documented_cell(self, capsys):
        code, out, _ = run(
            capsys, "violation", "--tau-min", "4", "--tau-max", "4",
            "--tau-step", "1", "--y", "5", "--n-max", "64",
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(-0.75, abs=1e-12)  # x
        assert row[3] == "Complex"
        assert float(row[5]) == pytest.approx(23 / 57, abs=1e-12)  # |mean|

    def test_singular_row(self, capsys):
        # x = -0.5 makes 4 det + 2 Tr + 1 exactly 0: the covariance route
        # has no law, while the tau family still reports its information
        code, out, err = run(
            capsys, "violation", "--y", "1", "--tau-min", "0.75", "--tau-max", "0.75",
            "--tau-step", "0.1",
        )
        assert (code, err) == (0, "")
        row = out.strip().splitlines()[1].split(",")
        assert row[:6] == ["0.75", "-0.5", "-0.75", "Singular", "0.5", "0.5"]
        assert all(math.isfinite(float(v)) for v in row[6:])

    def test_range_overflow_row_does_not_abort_the_sweep(self, capsys):
        # at tau = 0.6000000000000001, x = -0.5000000000000001 leaves
        # 4 det + 2 Tr + 1 a rounding residue; every other cell evaluates
        code, out, err = run(
            capsys, "violation", "--y", "0.7", "--tau-min", "0", "--tau-max", "3",
            "--tau-step", "0.05",
        )
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 61
        labels = {row[0]: row[3] for row in rows}
        assert labels.pop("0.60000000000000009") == "RangeOverflow"
        assert set(labels.values()) <= {"Probability", "SignedReal", "Complex"}
        row = next(row for row in rows if row[3] == "RangeOverflow")
        assert row[4:6] == ["0.5", "0.5"]
        assert all(math.isfinite(float(v)) for v in row[6:])

    def test_nonexistent_rows(self, capsys):
        # a negative-definite covariance with q >= 1 on every row: no law
        # exists, while the mean and, from tau = 0, the tau family evaluate
        code, out, err = run(
            capsys, "violation", "--y", "-1", "--tau-min", "-0.2", "--tau-max", "0.2",
            "--tau-step", "0.1",
        )
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[3] for row in rows] == ["Nonexistent"] * 5
        assert all(math.isfinite(float(row[4])) for row in rows)
        assert [row[6:] for row in rows[:2]] == [["nan"] * 4] * 2
        assert all(math.isfinite(float(v)) for row in rows[3:] for v in row[6:])

    @pytest.mark.parametrize("y", ["1e300", "1e-300"])
    def test_square_past_the_double_range_labels_every_row(self, capsys, y):
        # (x + y)^2 overflows on every row (x is huge at y = 1e-300): the
        # covariance law is labelled RangeOverflow and the tau family's
        # information is nan, with no numpy warning and no abort
        code, out, err = run(capsys, "violation", "--y", y)
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 61
        assert {row[3] for row in rows} == {"RangeOverflow"}
        assert all(row[6:] == ["nan"] * 4 for row in rows)
        assert all(math.isfinite(float(row[4])) for row in rows)


class TestFigures:
    def test_parity_information_endpoints(self, capsys):
        code, out, _ = run(
            capsys, "figures", "--fig", "1",
            "--param-min", "0", "--param-max", "0.1", "--param-step", "0.05",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x_bar,information"
        assert float(lines[1].split(",")[1]) == 0.0

    def test_parity_information_tail(self, capsys):
        code, out, _ = run(
            capsys, "figures", "--fig", "1",
            "--param-min", "20", "--param-max", "20", "--param-step", "1",
        )
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[1])
        assert value == pytest.approx(math.log(2), abs=1e-6)

    @pytest.mark.parametrize(
        "fig, spec, m",
        [
            (2, lambda v: DeformationSpec(DeformationKind.POISSON, alpha_mag2=v), 3),
            (3, lambda v: DeformationSpec(DeformationKind.Q_COHERENT, alpha_mag2=v * v,
                                          lam=2.0), 2),
        ],
    )
    def test_deformed_sweeps_are_block_information(self, capsys, fig, spec, m):
        code, out, _ = run(capsys, "figures", "--fig", str(fig), "--param-max", "0.1")
        assert code == 0
        header, *rows = out.splitlines()
        assert header == f"{'x_bar' if fig == 2 else 'alpha'},information"
        assert len(rows) == (3 if fig == 2 else 5)
        for row in rows:
            value = float(row.split(",")[0])
            n_max = 256 if fig == 2 else None
            info = block_entropies(
                deformed_distribution(spec(value), n_max), PartitionScheme(m)
            ).information
            assert row == f"{_fmt(value)},{_fmt(info)}"

    def test_squeezed_vacuum_triadic_start(self, capsys):
        code, out, _ = run(
            capsys, "figures", "--fig", "4",
            "--param-min", "0", "--param-max", "0", "--param-step", "1",
        )
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[1])
        assert value == pytest.approx(0.0, abs=1e-12)


class TestOracleCommand:
    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, "oracle")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert all(r["pass"] for r in rows if not r["name"].startswith("report:"))


class TestErrorPaths:
    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--family", "nope"])
        assert exc.value.code == 2

    def test_domain_error_is_single_line(self, capsys):
        code, _, err = run(capsys, "dist", "--family", "two-mode", "--s1", "1.5", "--s2", "0")
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("error: domain-error:")

    @pytest.mark.parametrize(
        "flags",
        [
            ("--family", "q-coherent", "--alpha", "1", "--lambda", "nan"),
            ("--family", "q-coherent", "--alpha", "inf", "--lambda", "1"),
            ("--family", "f-coherent", "--alpha", "0.8",
             "--f-values", "1,inf,2,3,4,5,6,7,8,9,10"),
            # a flag the family does not read still has to make a valid spec
            ("--family", "poisson", "--alpha", "1", "--theta", "nan"),
        ],
    )
    def test_non_finite_spec_is_single_line(self, capsys, flags):
        code, out, err = run(capsys, "dist", *flags)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: invalid-spec:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["violation", "--y", "1", "--tau-max", "inf"],
            ["violation", "--y", "1", "--tau-min=-inf"],
            ["violation", "--y", "1", "--tau-step", "nan"],
            ["violation", "--y", "1", "--tau-step", "inf"],
            ["figures", "--fig", "1", "--param-max", "nan"],
            ["figures", "--fig", "2", "--param-min=-inf"],
        ],
        ids=" ".join,
    )
    def test_non_finite_sweep_bound_is_single_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: domain-error: sweep start, stop and step must be finite")

    def test_large_displacement(self, capsys):
        # P0 underflows while the weights' Hermite factors overflow
        code, out, err = run(
            capsys, "dist", "--family", "squeezed-correlated", "--r", "0.5", "--mean-q", "38"
        )
        assert (code, err) == (0, "")
        assert out.startswith("# classification=Probability\n# truncation=836\n")

    def test_displacement_past_the_cap_is_single_line(self, capsys):
        code, out, err = run(
            capsys, "dist", "--family", "squeezed-correlated", "--r", "0.5", "--mean-q", "200"
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: range-overflow:")

    @pytest.mark.parametrize(
        "argv, reason",
        [
            # math.cosh(800) overflowed; tanh r rounds to 1: past the cap
            (["--family", "squeezed-vacuum", "--r", "800"], "range-overflow"),
            (["--family", "squeezed-correlated", "--r", "800", "--mean-q", "1"],
             "range-overflow"),
            # mean_q**2 overflowed in P0; the squared displacement leaves the range
            (["--family", "squeezed-correlated", "--r", "0.5", "--mean-q", "1e155"],
             "range-overflow"),
            # every weight underflows to 0
            (["--family", "poisson", "--alpha", "1e5"], "range-overflow"),
            (["--family", "q-coherent", "--alpha", "1e5", "--lambda", "1e-3"],
             "range-overflow"),
            # mean_q**2 overflowed in the r = 0 (coherent) branch
            (["--family", "squeezed-correlated", "--r", "0", "--mean-q", "1e155"],
             "range-overflow"),
            # tanh r rounds to 1: the law lies past the cap
            (["--family", "squeezed-vacuum", "--r", "20"], "range-overflow"),
            # also where e^(2r) leaves the double range and the weights do not
            # all underflow (was normalization-error)
            (["--family", "squeezed-vacuum", "--r", "400"], "range-overflow"),
            # q within a few ulps of 1 on a displaced state: the cutoff's
            # ratio rounded onto q = -a+ (a bare ZeroDivisionError)
            (["--family", "squeezed-correlated", "--r", "16", "--theta", "0.3",
              "--mean-q", "1"], "range-overflow"),
        ],
    )
    def test_large_finite_flags_are_single_line(self, capsys, argv, reason):
        code, out, err = run(capsys, "dist", *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith(f"error: {reason}:")

    def test_covariance_past_the_double_range(self, capsys, tmp_path):
        # sigma_pq**2 raised a bare OverflowError in det
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps(
                {"sigma_pp": 0.5, "sigma_qq": 0.5, "sigma_pq": 1e155,
                 "mean_q": 0.0, "mean_p": 0.0}
            )
        )
        code, out, err = run(capsys, "dist", "--family", "gaussian", "--state", str(path))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: range-overflow:")

    def test_bad_state_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\"sigma_pp\": 0.5}")
        code, _, err = run(capsys, "dist", "--family", "gaussian", "--state", str(path))
        assert code == 1
        assert "missing fields" in err

    @pytest.mark.parametrize("value", ["abc", None, [0.5]])
    def test_non_numeric_descriptor_field(self, capsys, tmp_path, value):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({**VIOLATING_STATE, "sigma_qq": value}))
        code, out, err = run(capsys, "dist", "--family", "gaussian", "--state", str(path))
        assert (code, out) == (1, "")
        assert err == (
            f"error: domain-error: state descriptor field sigma_qq must be a number, "
            f"got {value!r}\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["violation", "--y", "5", "--tau-step", "0"], "--tau-step must be positive"),
            (["figures", "--fig", "1", "--param-step", "0"], "--param-step must be positive"),
            (["dist", "--family", "gaussian"], "--family gaussian requires --state"),
            (["inequality", "--family", "gaussian"], "--family gaussian requires --state"),
            (["inequality", "--family", "gaussian", "--form", "hermite"],
             "--family gaussian requires --state"),
            (["dist", "--family", "two-mode", "--s1", "0.5"],
             "--family two-mode requires --s1 and --s2"),
            (["dist", "--family", "xyt", "--y", "1"], "--family xyt requires --x or --tau"),
            (["dist", "--family", "f-coherent", "--alpha", "0.8", "--f-values", "1,x"],
             "--f-values must be comma-separated floats"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else "",
    )
    def test_missing_or_bad_flag_is_single_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith(f"error: domain-error: {message}")

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read state file"),
            ("{\"sigma_pp\": ", "state file is not valid JSON"),
            ("[0.5, 0.5, 0, 0, 0]", "state descriptor must be a JSON object"),
        ],
        ids=["missing", "not-json", "not-an-object"],
    )
    def test_unreadable_state_file(self, capsys, tmp_path, content, message):
        path = tmp_path / "state.json"
        if content is not None:
            path.write_text(content)
        code, out, err = run(capsys, "dist", "--family", "gaussian", "--state", str(path))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith(f"error: domain-error: {message}")

    def test_singular_state(self, capsys, tmp_path):
        path = tmp_path / "singular.json"
        path.write_text(
            json.dumps(
                {"sigma_pp": 1.0, "sigma_qq": 1.0, "sigma_pq": 1.5,
                 "mean_q": 0.0, "mean_p": 0.0}
            )
        )
        code, _, err = run(capsys, "dist", "--family", "gaussian", "--state", str(path))
        assert code == 1
        assert err.startswith("error: singular-denominator:")


# arguments that make each subcommand valid on their own
_BASE_ARGS = {
    "dist": ["--family", "poisson"],
    "entropy": ["--family", "poisson"],
    "inequality": ["--family", "poisson"],
    "violation": ["--y", "5"],
    "figures": ["--fig", "1"],
    "oracle": [],
}

_REMOVED_FLAGS = (
    [(cmd, flag, "1e-12") for cmd in _BASE_ARGS for flag in ("--tol-imag", "--tol-neg")]
    + [
        (cmd, flag, value)
        for cmd in ("figures", "oracle")
        for flag, value in (("--n-max", "3"), ("--partition", "3"),
                            ("--branch", "1"), ("--format", "json"))
    ]
    + [("violation", "--format", "json"),
       ("dist", "--partition", "3"), ("dist", "--branch", "1")]
)


class TestOptionSurface:
    @pytest.mark.parametrize(
        "argv",
        [["dist", "--family", "xyt", "--x", "0.2", "--y", "0.3", "--tol-neg", "1"],
         ["oracle", "--empty-grid"]]
        + [[cmd, *_BASE_ARGS[cmd], flag, value] for cmd, flag, value in _REMOVED_FLAGS],
        ids=lambda argv: " ".join(argv),
    )
    def test_removed_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        flag = [a for a in argv if a.startswith("--")][-1]
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cmd, flag, value, message",
        [(cmd, "--n-max", "0", "--n-max must be at least 1")
         for cmd in ("dist", "entropy", "inequality", "violation")]
        + [(cmd, "--partition", "1", "--partition must be at least 2")
           for cmd in ("entropy", "inequality", "violation")],
    )
    def test_shared_option_bounds(self, capsys, cmd, flag, value, message):
        code, out, err = run(capsys, cmd, *_BASE_ARGS[cmd], flag, value)
        assert code == 1
        assert out == ""
        assert err == f"error: domain-error: {message}\n"


def _outcome(capsys, argv, out_path):
    """(exit code, stdout, stderr, --out bytes) of one ``main`` call."""
    if out_path.exists():
        out_path.unlink()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    data = out_path.read_bytes() if out_path.exists() else None
    return code, captured.out, captured.err, data


class TestSharedParser:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_leave_no_state_in_the_parser(self, capsys, tmp_path):
        out_path = tmp_path / "oracle.jsonl"
        calls = [
            ["dist", "--family", "poisson", "--alpha", "1.5"],
            ["dist", "--family", "nope"],
            ["entropy", "--family", "poisson", "--alpha", "1.0", "--format", "json"],
            ["oracle", "--out", str(out_path)],
            ["--help"],
            ["violation", "--y", "5", "--tau-min", "-0.2", "--tau-max", "0.2"],
            ["figures", "--fig", "3", "--param-max", "0.1"],
            ["dist", "--family", "poisson", "--alpha", "1.5"],
        ]
        shared = [_outcome(capsys, argv, out_path) for argv in calls]
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(_outcome(capsys, argv, out_path))
        assert [o[0] for o in shared] == [0, 2, 0, 0, 0, 0, 0, 0]
        assert shared[3][3]  # the oracle's --out bytes
        assert shared[4][1].startswith("usage: photonstat")
        assert shared == fresh

    def test_each_oracle_call_runs_the_suite(self, monkeypatch, tmp_path):
        # only the parser is shared: no verdict or law is kept between calls
        counts = Counter()

        def spy(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        spy(cli, "run_suite")
        for name in ("pn_hermite", "pn_laguerre", "two_mode_p2k_sequence"):
            spy(oracle, name)
        outputs, tallies = [], []
        for path in (tmp_path / "first.jsonl", tmp_path / "second.jsonl"):
            counts.clear()
            assert main(["oracle", "--out", str(path)]) == 0
            outputs.append(path.read_bytes())
            tallies.append(dict(counts))
        assert tallies[0]["run_suite"] == 1
        assert len(tallies[0]) == 4
        assert tallies[0] == tallies[1]
        assert outputs[0] == outputs[1]


def _tool_module(name="cli_corpus"):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCorpus:
    def test_every_invocation_parses(self, capsys):
        # a renamed or dropped flag would turn corpus lines into usage errors
        parser = cli.build_parser()
        for line in _tool_module().INVOCATIONS:
            try:
                parser.parse_args(line.split())
            except SystemExit:
                pytest.fail(f"usage error on corpus line {line!r}: {capsys.readouterr().err}")

    @pytest.mark.parametrize(
        "old, new, summary",
        [
            ("n,p\n0,0.25\n", "n,p\n0,0.25\n", "0 of 2 numbers changed"),
            ("0.5,2\n", "0.25,2\n",
             "1 of 2 numbers changed, largest absolute 0.25, relative 0.5"),
            ("0,-0,1\n", "0,0,1\n", "1 of 3 numbers changed, largest absolute 0, relative 0"),
            ("nan,1\n", "nan,1\n", "0 of 2 numbers changed"),
            ("1,2\n", "1\n", "numbers 2 -> 1, not compared"),
        ],
        ids=["equal", "one-moved", "sign-of-zero", "nan-both-sides", "unequal-counts"],
    )
    def test_corpus_diff_changes(self, old, new, summary):
        assert _tool_module("corpus_diff").changes(old, new) == summary


def test_code_lines_skip_docstrings_comments_and_blanks():
    source = '''"""Module docstring,
on two lines."""

import math  # a trailing comment keeps its line


class A:
    """Class docstring."""

    # a comment line
    def f(self, x):
        """Function docstring."""
        text = """a string that
        spans two lines"""
        return math.sqrt(x), text; y = 1
'''
    # import, class, def, the two lines of text and the return line
    assert _tool_module("code_lines").code_lines(source) == 6


def test_kind_times_summary_pairs_rounds_per_kind():
    old = [{"clean": 1.0, "noisy": 2.0, "rare": 5.0}, {"clean": 1.2, "noisy": 2.0, "rare": 3.0},
           {"clean": 1.1, "noisy": 2.4}]
    new = [{"clean": 0.9, "noisy": 2.1, "rare": 4.0}, {"clean": 1.0, "noisy": 1.8},
           {"clean": 1.05, "noisy": 2.2}]
    kind_times = _tool_module("kind_times")
    got = kind_times.summary(old, new)
    # medians over rounds of each side; a kind counts only where both sides ran it
    assert got["clean"] == (1.1, 1.0, 1.0 / 1.1 - 1, 3)
    assert got["noisy"] == (2.0, 2.1, 2.1 / 2.0 - 1, 2)
    assert got["rare"] == (5.0, 4.0, 4.0 / 5.0 - 1, 1)
    # a run's medians: each round's latencies scaled by the reference over
    # the mean of the kernel times before and after it (factors 1/2, 1/4)
    rounds = [[("clean", 1.0), ("clean", 3.0), ("noisy", 2.0)], [("clean", 4.0), ("noisy", 8.0)]]
    assert kind_times.kind_medians([2.0, 2.0, 6.0], rounds, 1.0) == {
        "raw": {"clean": 3.0, "noisy": 5.0},
        "scaled": {"clean": 1.0, "noisy": 1.5},
    }
