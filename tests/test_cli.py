import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mzsim import cli

EXPERIMENT_DIR = Path(__file__).resolve().parent.parent / "experiments"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path(name):
    return str(EXPERIMENT_DIR / name)


class TestRun:
    def test_baseline_table(self, capsys):
        code, out, err = run_cli(capsys, "run", path("baseline.mzx"))
        assert code == 0 and err == ""
        assert out.splitlines() == ["detector=X  1"]

    def test_eraser_conditionals(self, capsys):
        code, out, _ = run_cli(capsys, "run", path("eraser.mzx"), "--given", "abs=yes")
        assert code == 0
        lines = out.splitlines()
        assert "detector=X|abs=yes  1" in lines
        assert "detector=Y|abs=yes  0" in lines

    def test_json_shape_and_key_order(self, capsys):
        code, out, _ = run_cli(capsys, "run", path("eraser.mzx"),
                               "--format", "json", "--given", "abs=yes")
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == ["meta", "branches", "conditionals"]
        assert obj["meta"]["mode"] == "analytic"
        assert len(obj["meta"]["sha256"]) == 64
        assert {"record": {"abs": "yes", "detector": "X"}, "probability": 0.5} \
            in [{"record": b["record"], "probability": round(b["probability"], 12)}
                for b in obj["branches"]]
        assert obj["conditionals"][0]["query"] == "detector=X|abs=yes"

    def test_csv_has_17_significant_digits(self, capsys):
        code, out, _ = run_cli(capsys, "run", path("eraser_eta_half.mzx"),
                               "--format", "csv")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("branch,")]
        values = [row.split(",")[-1] for row in rows]
        # Accumulated 1/sqrt(2) factors are not exact, so the %.17g output
        # keeps all 17 digits (e.g. 0.24999999999999989).
        assert all(len(v.replace("0.", "").replace(".", "")) >= 16 for v in values)
        assert sorted(round(float(v), 12) for v in values) == [0.25, 0.25, 0.5]

    def test_sampled_run_reports_seed_and_counts(self, capsys):
        code, out, _ = run_cli(capsys, "run", path("entangler.mzx"),
                               "--shots", "2000", "--seed", "5")
        assert code == 0
        assert "seed: 5  shots: 2000" in out

    def test_sampled_run_frequency_near_half(self, capsys):
        code, out, _ = run_cli(capsys, "run", path("entangler.mzx"),
                               "--shots", "100000", "--seed", "7",
                               "--format", "json")
        obj = json.loads(out)
        x = [b for b in obj["branches"] if b["record"] == {"detector": "X"}][0]
        assert abs(x["frequency"] - 0.5) <= 0.0079

    def test_identical_invocations_byte_identical(self, capsys):
        args = ("run", path("eraser_eta_half.mzx"), "--shots", "5000",
                "--seed", "123", "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        args = ("run", path("eraser.mzx"), "--format", "csv", "--given", "abs=yes")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_invalid_file_exits_1_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.mzx"
        bad.write_text("source A\nbeamsplitter\n")
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 1
        assert "2:1: semantic error: detect required" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "run", path("no_such_file.mzx"))
        assert code == 2
        assert "cannot read" in err

    def test_zero_probability_condition_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "run", path("eraser_closed.mzx"),
                               "--given", "abs=yes")
        assert code == 3
        assert "zero probability" in err

    def test_zero_count_condition_exits_3_when_sampled(self, capsys):
        code, _, err = run_cli(capsys, "run", path("eraser_closed.mzx"),
                               "--shots", "50", "--seed", "1",
                               "--given", "abs=yes")
        assert code == 3

    def test_unbound_parameter_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "run", path("baseline_phase.mzx"))
        assert code == 1
        assert "unbound parameter" in err

    def test_malformed_given_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "run", path("eraser.mzx"), "--given", "abs")
        assert code == 1


class TestSeedResolution:
    def test_env_seed_used_as_default(self, capsys, monkeypatch):
        monkeypatch.setenv("MZX_SEED", "31")
        code, out, _ = run_cli(capsys, "run", path("entangler.mzx"), "--shots", "100")
        assert code == 0 and "seed: 31" in out

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MZX_SEED", "31")
        code, out, _ = run_cli(capsys, "run", path("entangler.mzx"),
                               "--shots", "100", "--seed", "9")
        assert code == 0 and "seed: 9" in out

    def test_default_seed_is_zero(self, capsys, monkeypatch):
        monkeypatch.delenv("MZX_SEED", raising=False)
        code, out, _ = run_cli(capsys, "run", path("entangler.mzx"), "--shots", "100")
        assert code == 0 and "seed: 0" in out

    def test_bad_env_seed_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("MZX_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "run", path("entangler.mzx"), "--shots", "100")
        assert code == 1 and "MZX_SEED" in err


class TestSweep:
    def test_baseline_full_visibility(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", path("baseline_phase.mzx"),
                               "--param", "phi", "--from", "0", "--to", "2pi",
                               "--steps", "64", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "value,prob_x,prob_y"
        assert len(lines) == 66  # header + 64 points + visibility line
        assert lines[-1] == "visibility,1"

    def test_entangler_zero_visibility(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", path("entangler_phase.mzx"),
                               "--param", "phi", "--from", "0", "--to", "2pi",
                               "--steps", "64", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == ["meta", "branches", "conditionals", "visibility"]
        assert abs(obj["visibility"]) <= 1e-10

    def test_conditioned_eraser_full_visibility(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", path("eraser_phase.mzx"),
                               "--param", "phi", "--from", "0", "--to", "2pi",
                               "--steps", "64", "--given", "abs=yes",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["visibility"] - 1.0) <= 1e-10
        assert "given_x" in obj["branches"][0]

    def test_too_few_steps_exits_4(self, capsys):
        code, _, err = run_cli(capsys, "sweep", path("baseline_phase.mzx"),
                               "--param", "phi", "--from", "0", "--to", "1",
                               "--steps", "1")
        assert code == 4

    def test_unknown_parameter_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "sweep", path("baseline_phase.mzx"),
                               "--param", "theta", "--from", "0", "--to", "1",
                               "--steps", "4")
        assert code == 1
        assert "not a free parameter" in err

    def test_bound_parameter_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", path("phase_half_pi.mzx"),
                             "--param", "phi", "--from", "0", "--to", "1",
                             "--steps", "4")
        assert code == 1

    def test_sweep_output_is_deterministic(self, capsys):
        args = ("sweep", path("eraser_phase.mzx"), "--param", "phi",
                "--from", "0", "--to", "2pi", "--steps", "16",
                "--given", "abs=yes", "--format", "csv")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestValidate:
    @pytest.mark.parametrize("name", [p.name for p in sorted(EXPERIMENT_DIR.glob("*.mzx"))])
    def test_shipped_corpus_is_valid(self, capsys, name):
        code, out, _ = run_cli(capsys, "validate", path(name))
        assert code == 0
        assert out == "OK\n"

    def test_missing_detect_diagnosed(self, tmp_path, capsys):
        bad = tmp_path / "bad.mzx"
        bad.write_text("source A\nmirrors\n")
        code, out, err = run_cli(capsys, "validate", str(bad))
        assert code == 1
        assert out == ""
        assert "2:1: semantic error: detect required as final stage" in err

    def test_multiple_diagnostics_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.mzx"
        bad.write_text("source A\nsource B\neraser open\nmirrors\n")
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 1
        assert len(err.splitlines()) >= 3

    def test_unreadable_path_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "validate", path("missing.mzx"))
        assert code == 2


def test_console_entry_point_runs_in_subprocess():
    # The child finds the package the way this process did, also when the
    # source directory came from pytest's `pythonpath` setting.
    src = str(EXPERIMENT_DIR.parent / "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    result = subprocess.run(
        [sys.executable, "-m", "mzsim", "run", path("baseline.mzx")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)})
    assert result.returncode == 0
    assert result.stdout == "detector=X  1\n"
