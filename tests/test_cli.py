import json
import math

import pytest

from photonstat.cli import main


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
        assert data["margin"] == pytest.approx(data["information"], abs=1e-10)

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

    def test_subadditive_csv_cell_matches_entropy(self, capsys):
        argv = ("--family", "poisson", "--alpha", "1")

        def subadditive(command):
            code, out, _ = run(capsys, command, *argv)
            assert code == 0
            header, row = out.splitlines()
            return dict(zip(header.split(","), row.split(",")))["subadditive"]

        assert subadditive("inequality") == subadditive("entropy") == "true"


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
        ],
    )
    def test_non_finite_spec_is_single_line(self, capsys, flags):
        code, out, err = run(capsys, "dist", *flags)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: invalid-spec:")

    def test_large_displacement(self, capsys):
        # P0 underflows while the weights' Hermite factors overflow
        code, out, err = run(
            capsys, "dist", "--family", "squeezed-correlated", "--r", "0.5", "--mean-q", "38"
        )
        assert (code, err) == (0, "")
        assert out.startswith("# classification=Probability\n# truncation=1292\n")

    def test_displacement_past_the_cap_is_single_line(self, capsys):
        code, out, err = run(
            capsys, "dist", "--family", "squeezed-correlated", "--r", "0.5", "--mean-q", "200"
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: range-overflow:")

    def test_bad_state_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\"sigma_pp\": 0.5}")
        code, _, err = run(capsys, "dist", "--family", "gaussian", "--state", str(path))
        assert code == 1
        assert "missing fields" in err

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
