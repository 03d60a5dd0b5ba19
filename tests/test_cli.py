import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mzsim import cli, dsl

EXPERIMENT_DIR = Path(__file__).resolve().parent.parent / "experiments"


# An empty key or value, or a key given twice, is a flag error: the first
# two used to exit 3 (a zero-probability event), the last to keep `abs=no`.
MALFORMED_GIVEN = [
    ("abs=", "--given expects key=value pairs, got 'abs='"),
    ("=yes", "--given expects key=value pairs, got '=yes'"),
    (" = ", "--given expects key=value pairs, got ' = '"),
    ("abs=yes,", "--given expects key=value pairs, got ''"),
    ("abs=yes,abs=no", "--given repeats the key 'abs'"),
    ("abs=yes, abs =yes", "--given repeats the key 'abs'"),
]


def pruned_file(tmp_path, sweep=False):
    """66 lines whose kept leaves sum to 1 - 1.06e-10: 16 readouts that each
    split 1 %/99 % (a phase of 2 asin(0.1)) drop more than ATOL_DIST_SUM
    below PRUNE_PROB."""
    block = ["beamsplitter", "phase A 0.20033484232311968", "beamsplitter", "wwreadout"]
    lines = ["source A"] + (["phase B phi"] if sweep else []) + block * 16 + ["detect"]
    path = tmp_path / "pruned.mzx"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


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

    def test_single_shot_run(self, capsys):
        code, out, err = run_cli(capsys, "run", path("eraser.mzx"),
                                 "--shots", "1", "--seed", "7", "--format", "csv")
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "kind,label,value",
            "meta,mode,sampled",
            "meta,file_sha256,244eeb044683ab253fba70216a03c305f9dd60033ff081d49c6487824059678d",
            "meta,seed,7",
            "meta,shots,1",
            "branch,abs=no detector=Y,1",
        ]

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

    def test_sampled_condition_on_the_detector(self, capsys):
        # P(Y | detector=X) is 0 whether the leaves are counted or summed.
        for shots in ([], ["--shots", "1000"]):
            code, out, _ = run_cli(capsys, "run", path("eraser.mzx"), "--format", "csv",
                                   "--given", "detector=X", *shots)
            assert code == 0
            assert out.endswith("conditional,detector=X|detector=X,1\n"
                                "conditional,detector=Y|detector=X,0\n")

    def test_pruned_mass_counts_toward_the_sum(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "run", pruned_file(tmp_path), "--format", "csv")
        assert (code, err) == (0, "")
        # The header and two meta lines, then the 14 893 leaves kept at or
        # above PRUNE_PROB.
        assert len(out.splitlines()) == 3 + 14893

    def test_unbound_parameter_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "run", path("baseline_phase.mzx"))
        assert code == 1
        assert "unbound parameter" in err

    def test_malformed_given_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "run", path("eraser.mzx"), "--given", "abs")
        assert code == 1

    @pytest.mark.parametrize("given, message", MALFORMED_GIVEN)
    @pytest.mark.parametrize("shots", [[], ["--shots", "10"]])
    def test_malformed_given_pair_exits_1(self, capsys, given, message, shots):
        code, out, err = run_cli(capsys, "run", path("eraser.mzx"), "--given", given, *shots)
        assert (code, out, err) == (1, "", f"error: {message}\n")


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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exits_1(self, capsys, monkeypatch, seed):
        monkeypatch.delenv("MZX_SEED", raising=False)
        code, out, err = run_cli(capsys, "run", path("eraser_eta_half.mzx"),
                                 "--shots", "100", "--seed", str(seed))
        assert (code, out) == (1, "")
        assert err == f"error: --seed must lie in [0, 2**64), got {seed}\n"

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_env_seed_outside_64_bits_exits_1(self, capsys, monkeypatch, seed):
        monkeypatch.setenv("MZX_SEED", str(seed))
        code, out, err = run_cli(capsys, "run", path("eraser_eta_half.mzx"),
                                 "--shots", "100")
        assert (code, out) == (1, "")
        assert err == f"error: MZX_SEED must lie in [0, 2**64), got {seed}\n"

    def test_largest_seed_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("MZX_SEED", str(2**64 - 1))
        code, out, _ = run_cli(capsys, "run", path("eraser_eta_half.mzx"),
                               "--shots", "100")
        assert code == 0 and f"seed: {2**64 - 1}" in out


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

    @pytest.mark.parametrize("given, message", MALFORMED_GIVEN)
    def test_malformed_given_pair_exits_1(self, capsys, given, message):
        code, out, err = run_cli(capsys, "sweep", path("eraser_phase.mzx"),
                                 "--param", "phi", "--from", "0", "--to", "2pi",
                                 "--steps", "4", "--given", given)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_pruned_mass_counts_toward_the_sum(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "sweep", pruned_file(tmp_path, sweep=True),
                                 "--param", "phi", "--from", "0", "--to", "1", "--steps", "2",
                                 "--format", "csv")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 4

    def test_too_few_steps_exits_4(self, capsys):
        code, _, err = run_cli(capsys, "sweep", path("baseline_phase.mzx"),
                               "--param", "phi", "--from", "0", "--to", "1",
                               "--steps", "1")
        assert code == 4

    def test_too_many_steps_exits_4(self, capsys):
        # Rejected before the grid is built, so this allocates nothing.
        code, out, err = run_cli(capsys, "sweep", path("baseline_phase.mzx"),
                                 "--param", "phi", "--from", "0", "--to", "1",
                                 "--steps", str(cli.MAX_SWEEP_STEPS + 1))
        assert code == 4 and out == ""
        assert err.count("\n") == 1 and f"at most {cli.MAX_SWEEP_STEPS}" in err

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

    @pytest.mark.parametrize("bounds", [("0", "inf"), ("nan", "1"), ("0", "1e308pi"),
                                        ("-1e308", "1e308")])
    def test_non_finite_grid_exits_1(self, capsys, bounds):
        code, out, err = run_cli(capsys, "sweep", path("baseline_phase.mzx"),
                                 "--param", "phi", f"--from={bounds[0]}",
                                 f"--to={bounds[1]}", "--steps", "4")
        assert (code, out) == (1, "")
        assert err == "error: sweep grid contains non-finite values\n"

    @pytest.mark.parametrize("bound, value", [
        ("-pi", -math.pi), ("+pi", math.pi), ("pi", math.pi), ("-2pi", -2 * math.pi),
        ("-0.5pi", -0.5 * math.pi), ("-1e-3", -1e-3)])
    def test_signed_pi_bound_accepted(self, capsys, bound, value):
        # `--from=-pi` and `--from -pi` give the same bytes, and so for `--to`.
        for flag, other in [("--from", "--to=3pi"), ("--to", "--from=3pi")]:
            outputs = []
            for spelling in ([f"{flag}={bound}"], [flag, bound]):
                code, out, err = run_cli(capsys, "sweep", path("baseline_phase.mzx"),
                                         "--param", "phi", *spelling, other,
                                         "--steps", "4", "--format", "json")
                assert (code, err) == (0, "")
                assert json.loads(out)["meta"][flag[2:]] == value
                outputs.append(out)
            assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("bound", ["-", "pipi", "--pi", " x pi ", "-pipi", "-1x"])
    def test_bad_number_error_names_whole_text(self, capsys, bound):
        # After a space, "--pi" reads as an option rather than a value.
        for spelling in [[f"--from={bound}"]] + [["--from", bound]] * (bound != "--pi"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["sweep", path("baseline_phase.mzx"), "--param", "phi",
                          *spelling, "--to=1", "--steps", "4"])
            assert exc.value.code == 2
            assert f"invalid number {bound!r}" in capsys.readouterr().err

    def test_sweep_output_is_deterministic(self, capsys):
        args = ("sweep", path("eraser_phase.mzx"), "--param", "phi",
                "--from", "0", "--to", "2pi", "--steps", "16",
                "--given", "abs=yes", "--format", "csv")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


def eraser_param_file(tmp_path, mode):
    """A file whose one parameter `p` is the eta of an open or closed eraser,
    on its line 6."""
    path = tmp_path / f"eraser_{mode}_param.mzx"
    path.write_text("source A excited\nbeamsplitter\nentangler\nmirrors\nbeamsplitter\n"
                    f"eraser {mode} eta=p\ndetect\n")
    return str(path)


class TestEraserParameter:
    """A closed eraser binds and range-checks its `eta=<param>` as an open
    one does, with the same texts, though it makes no stage."""

    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_run_without_a_binding_exits_1(self, tmp_path, capsys, mode):
        file = eraser_param_file(tmp_path, mode)
        assert run_cli(capsys, "run", file) == (
            1, "", f"error: {file}:6:1: semantic error: unbound parameter 'p'\n")

    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_sweep_outside_the_range_exits_1(self, tmp_path, capsys, mode):
        file = eraser_param_file(tmp_path, mode)
        assert run_cli(capsys, "sweep", file, "--param", "p", "--from", "-5", "--to", "5",
                       "--steps", "2") == (
            1, "", f"error: {file}: eta must lie in (0, 1], got -5.0\n")

    def test_closed_sweep_inside_the_range_is_constant(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "sweep", eraser_param_file(tmp_path, "closed"),
                                 "--param", "p", "--from", "0.25", "--to", "1.25",
                                 "--steps", "4", "--format", "csv")
        assert (code, err) == (0, "")
        header, *rows, _ = out.splitlines()
        assert header == "value,prob_x,prob_y"
        assert [row.split(",")[0] for row in rows] == ["0.25", "0.5", "0.75", "1"]
        assert len({row.split(",", 1)[1] for row in rows}) == 1


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

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_utf8_file_exits_2(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.mzx"
        bad.write_bytes(b"source A\n\xff\ndetect\n")
        code, out, err = run_cli(capsys, command, str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad} is not UTF-8 text: ")

    def test_syntax_error_reported_like_run(self, tmp_path, capsys):
        bad = tmp_path / "bad.mzx"
        bad.write_text("source A\nbeamsplitter 3\ndetect\n")
        _, _, run_err = run_cli(capsys, "run", str(bad))
        code, out, err = run_cli(capsys, "validate", str(bad))
        assert (code, out) == (1, "")
        assert run_err == f"error: {err}"


def child_env(**extra):
    """The environment of a child Python that finds the package the way
    this process did, also when the source directory came from pytest's
    `pythonpath` setting, with `extra` variables set."""
    src = str(EXPERIMENT_DIR.parent / "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths), **extra}


def test_console_entry_point_runs_in_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "mzsim", "run", path("baseline.mzx")],
        capture_output=True, text=True, timeout=60, env=child_env())
    assert result.returncode == 0
    assert result.stdout == "detector=X  1\n"


#: A child that limits its own address space to 800 MiB and then runs `mzx`
#: on its arguments; OPENBLAS_NUM_THREADS=1 keeps numpy's import far below it.
LIMITED_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (800 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))
from mzsim.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_out_of_memory_exits_5_in_one_line(tmp_path):
    # 82 valid lines whose branches double 40 times: the walk runs out of
    # memory long before its last level.
    pytest.importorskip("resource")
    deep = tmp_path / "deep.mzx"
    deep.write_text("source A\n" + "beamsplitter\nwwreadout\n" * 40 + "detect\n")
    result = subprocess.run(
        [sys.executable, "-c", LIMITED_CHILD, "run", str(deep)],
        capture_output=True, text=True, timeout=120, env=child_env(OPENBLAS_NUM_THREADS="1"))
    assert (result.returncode, result.stdout) == (5, "")
    assert result.stderr.startswith("error: out of memory: ")
    assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("command, argv", [
    ("run_analytic", ("run", path("eraser.mzx"))),
    ("sweep", ("sweep", path("eraser_phase.mzx"), "--param", "phi", "--from", "0",
               "--to", "2pi", "--steps", "8")),
])
def test_memory_error_exits_5(capsys, monkeypatch, command, argv):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 TiB")

    monkeypatch.setattr(cli.experiment, command, exhausted)
    assert run_cli(capsys, *argv) == (5, "", "error: out of memory: Unable to allocate 1.00 TiB\n")


def test_parser_is_built_once(capsys, monkeypatch):
    run_cli(capsys, "run", path("baseline.mzx"))
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    sampled = run_cli(capsys, "run", path("eraser.mzx"), "--shots", "100", "--seed", "1",
                      "--format", "json")
    plain = run_cli(capsys, "run", path("eraser.mzx"), "--format", "json")
    assert built == []
    assert (sampled[0], plain[0]) == (0, 0)
    assert json.loads(sampled[1])["meta"]["mode"] == "sampled"
    meta = json.loads(plain[1])["meta"]
    assert (meta["mode"], meta["shots"], meta["seed"]) == ("analytic", None, None)


@pytest.mark.parametrize("argv", [
    ("run", path("eraser.mzx"), "--given", "abs=yes"),
    ("run", path("eraser.mzx"), "--shots", "50"),
    ("sweep", path("eraser_phase.mzx"), "--param", "phi", "--from", "0", "--to", "2pi",
     "--steps", "8", "--given", "abs=no"),
])
def test_each_file_is_validated_once(capsys, monkeypatch, argv):
    checked = []
    check = dsl.validate
    monkeypatch.setattr(dsl, "validate", lambda ast: checked.append(ast) or check(ast))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out
    assert len(checked) == 1
