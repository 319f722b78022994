"""Command line behaviour: suites, emitters, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

from delpezzo import surfaces
from delpezzo.algebra import ZeroDenominatorError
from delpezzo.cli import load_presentation, main, suite_checks
from delpezzo.numerics import FeasibilityTable
from delpezzo.quotient import BaseRingS, verify_presentation
from delpezzo.reports import failures
from delpezzo.surfaces import FoliationSpec, QuadricChart

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
# one CLI call takes under a second: the bound turns a loop or swell into a failure, not a hang
CLI_TIMEOUT_S = 120
CHARTS = (0, 1, 2, 3)


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "delpezzo", *args],
                          capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S)


class TestVerify:
    def test_numerics_suite_exits_zero(self):
        result = run_cli("verify", "--suite", "numerics")
        assert result.returncode == 0
        assert "failures=0" in result.stdout

    def test_json_report_shape(self):
        result = run_cli("verify", "--suite", "numerics", "--json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["suite"] == "numerics"
        assert payload["counts"]["fail"] == 0
        names = [c["check_name"] for c in payload["checks"]]
        assert names == sorted(names)
        assert all(c["status"] == "pass" for c in payload["checks"])

    def test_presentation_suite_other_chart(self):
        result = run_cli("verify", "--suite", "presentation", "--chart", "2")
        assert result.returncode == 0

    def test_cusp_suite_reports_cramer_identity(self):
        result = run_cli("verify", "--suite", "cusp", "--json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        by_name = {c["check_name"]: c["status"] for c in payload["checks"]}
        assert by_name["cusp.cramer_fourth_power"] == "pass"

    def test_invalid_suite_is_usage_error(self):
        result = run_cli("verify", "--suite", "nonsense")
        assert result.returncode == 2

    def test_invalid_chart_is_usage_error(self):
        result = run_cli("verify", "--suite", "foliations", "--chart", "7")
        assert result.returncode == 2

    def test_suite_checks_cover_every_section(self):
        names = [c.name for c in suite_checks("all", 0)]
        for prefix in ("foliations.", "presentation.", "singular.",
                       "cusp.", "numerics.", "witness."):
            assert any(n.startswith(prefix) for n in names), prefix


class TestFeasibility:
    def test_csv_rows(self):
        result = run_cli("feasibility", "--p", "2", "--d-max", "4", "--q-max", "2")
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "p,d,q,feasible,attained"
        assert "2,1,1,true,true" in lines
        assert "2,2,1,true,true" in lines
        assert "2,3,1,false,false" in lines

    def test_json_summary(self):
        result = run_cli("feasibility", "--p", "3", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["p"] == 3
        assert payload["q_min_by_d"][0] == 2

    def test_non_prime_rejected(self):
        result = run_cli("feasibility", "--p", "4")
        assert result.returncode == 2

    def test_output_directory_env(self, tmp_path):
        result = run_cli("feasibility", "--out", "table.csv",
                         env_extra={"DELPEZZO_OUT_DIR": str(tmp_path)})
        assert result.returncode == 0
        assert (tmp_path / "table.csv").read_text().startswith("p,d,q")

    def test_csv_is_byte_stable(self):
        first = run_cli("feasibility", "--p", "3", "--d-max", "6", "--q-max", "6")
        second = run_cli("feasibility", "--p", "3", "--d-max", "6", "--q-max", "6")
        assert first.stdout == second.stdout


class TestPresentationCommand:
    def test_emit_and_reverify(self, tmp_path):
        out = tmp_path / "pres.json"
        result = run_cli("presentation", "--chart", "0", "--out", str(out))
        assert result.returncode == 0
        payload = json.loads(out.read_text())
        assert [r["name"] for r in payload["relations"]] == \
            [f"r_{i}" for i in range(7)]
        pres = load_presentation(payload)
        ring = BaseRingS(pres.table, pres.chart)
        theta = FoliationSpec.build("deg1", QuadricChart.build(pres.chart)).theta
        assert not failures(verify_presentation(pres, ring, theta))

    def test_round_trip_is_byte_stable(self):
        result = run_cli("presentation", "--chart", "1")
        payload = json.loads(result.stdout)
        again = load_presentation(payload).to_json()
        assert json.dumps(payload, sort_keys=True) == \
            json.dumps(again, sort_keys=True)

    def test_invalid_chart(self):
        result = run_cli("presentation", "--chart", "5")
        assert result.returncode == 2

    @pytest.mark.parametrize("coeff", [1.5, True, "1"], ids=["float", "bool", "str"])
    def test_non_integer_coefficient_is_rejected(self, coeff):
        payload = surfaces.build_presentation(0).to_json()
        payload["relations"][0]["terms"][0]["coeff_num"][0]["coeff"] = coeff
        with pytest.raises(ValueError, match="must be an integer"):
            load_presentation(payload)


class TestInProcessEntry:
    def test_main_returns_exit_code(self, capsys):
        assert main(["verify", "--suite", "numerics"]) == 0
        assert "failures=0" in capsys.readouterr().out

    def test_internal_arithmetic_error_exits_three(self, monkeypatch, capsys):
        def broken():
            raise ArithmeticError("c11/c13 is not a square at depth 3")
        monkeypatch.setattr(surfaces, "cusp_curve", broken)
        assert main(["verify", "--suite", "cusp", "--json"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "ArithmeticError: c11/c13 is not a square" in err

    @pytest.mark.parametrize("error", [OverflowError("total degree 256 exceeds 255"),
                                       ZeroDenominatorError("zero denominator")])
    def test_presentation_arithmetic_error_exits_three(self, monkeypatch, capsys,
                                                       tmp_path, error):
        def broken(fol):
            raise error
        # the command reads surfaces.quotient_presentation at call time
        monkeypatch.setattr(surfaces, "quotient_presentation", broken)
        out = tmp_path / "pres.json"
        assert main(["presentation", "--chart", "0", "--out", str(out)]) == 3
        assert main(["presentation", "--chart", "0"]) == 3
        stdout, err = capsys.readouterr()
        assert stdout == "" and not out.exists()
        assert err.count("\n") == 2 and "Traceback" not in err
        assert f"internal arithmetic error: {type(error).__name__}: {error}\n" in err

    @pytest.mark.parametrize("command", [
        ["feasibility", "--p", "5", "--d-max", "1", "--q-max", "4"],
        ["presentation", "--chart", "0"]])
    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, command, target):
        out = tmp_path / "missing" / "x" if target == "missing directory" else tmp_path
        assert main([*command, "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and list(tmp_path.iterdir()) == []
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"error: cannot write --out {out}: ")

    def test_unwritable_out_exits_two(self, tmp_path):
        result = run_cli("feasibility", "--out", str(tmp_path / "missing" / "x.csv"))
        assert result.returncode == 2
        assert result.stdout == "" and "Traceback" not in result.stderr
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--p", "4"], "p must be prime, got 4"),
        (["--p", "1"], "p must be prime, got 1"),
        (["--p", "7", "--d-max", "0"], "table bounds must be positive"),
        (["--q-max", "0"], "table bounds must be positive")])
    def test_invalid_feasibility_input_is_usage_error(self, capsys, flags, message):
        assert main(["feasibility", *flags]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == f"error: {message}\n"

    def test_feasibility_emit_error_is_not_a_usage_error(self, monkeypatch):
        # only feasibility_region's input checks map to exit 2
        def broken(table):
            raise ValueError("p must be prime, got 2")
        monkeypatch.setattr(FeasibilityTable, "to_csv", broken)
        with pytest.raises(ValueError):
            main(["feasibility", "--p", "2"])

    def test_feasibility_to_stdout(self, capsys):
        assert main(["feasibility", "--p", "5", "--d-max", "1", "--q-max", "4",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["q_min_by_d"] == [4]


class TestByteGate:
    """The geometric outputs keep the sha256 digests recorded for the
    benchmark's output gate."""

    @pytest.mark.parametrize("chart", CHARTS)
    @pytest.mark.parametrize("suite", ["singular", "presentation", "foliations"])
    def test_verify_suite_json(self, gate, stdout_digest, suite, chart):
        argv = ["verify", "--suite", suite, "--chart", str(chart), "--json"]
        assert stdout_digest(argv) == gate[f"{suite}[{chart}]"]

    @pytest.mark.parametrize("chart", CHARTS)
    def test_presentation_emit(self, gate, stdout_digest, chart):
        argv = ["presentation", "--chart", str(chart)]
        assert stdout_digest(argv) == gate[f"emit[{chart}]"]

    def test_verify_cusp_json(self, gate, stdout_digest):
        argv = ["verify", "--suite", "cusp", "--json"]
        assert stdout_digest(argv) == gate["cusp[0]"]
