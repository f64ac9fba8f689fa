"""Command surface: exit codes, report determinism, file formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weylflow import cli, numerics

from trajectory_files import trajectory_from_csv


def run(args):
    return cli.main(args)


def test_unknown_system_exits_2(capsys):
    assert run(["verify", "BOGUS", "all"]) == 2
    assert run(["integrate", "--system", "BOGUS"]) == 2
    assert run(["apply", "BOGUS", "s0"]) == 2
    assert run(["ansatz", "BOGUS"]) == 2
    assert run(["export", "BOGUS"]) == 2
    capsys.readouterr()


def test_verify_divisors_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify", "A4_2", "divisors", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] and doc["counts"]["failed"] == 0
    capsys.readouterr()


def test_verify_brackets_pde(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify", "PDE_A1_1", "brackets", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    names = {c["name"] for c in doc["checks"]}
    assert {"poisson/{K1,K2}", "poisson/{K1,K3}", "poisson/{K2,K3}"} <= names
    capsys.readouterr()


def test_reports_byte_identical_for_same_config(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["verify", "A1_1", "relations", "--seed", "7",
                "--out", str(a)]) == 0
    assert run(["verify", "A1_1", "relations", "--seed", "7",
                "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_apply_translation_offsets(capsys):
    assert run(["apply", "A4_2", "s1 s2 s1 s0", "--params"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parameter_action"]["offset_on_relation"] == ["-2", "1", "0"]
    assert run(["apply", "A1_1", "s1 s0", "--params"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parameter_action"]["offset_on_relation"] == ["-2", "2"]


def test_apply_involution_on_expression(capsys):
    assert run(["apply", "A4_2", "s0 s0", "--expr", "x"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["image"] == "x"


def test_apply_expression_parse_failure_exits_2(capsys):
    assert run(["apply", "A4_2", "s0", "--expr", "x +"]) == 2
    assert run(["apply", "A4_2", "s0", "--expr", "nope"]) == 2
    assert run(["apply", "A4_2", "s9", "--expr", "x"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("expr", [
    "x^40000",          # past the packed degree limit in the parse
    "z^20000",          # past it in the image, z^40000 under s0
    "(x*y + z)^40000",  # past it before the power's first product
])
def test_apply_expression_past_the_degree_limit_exits_2(expr, capsys):
    assert run(["apply", "A4_2", "s0", "--expr", expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the packed monomial limit" in captured.err


@pytest.mark.parametrize("expr", ["x/0", "1/(x-x)", "x/(0*y)", "0^-1"])
def test_apply_expression_division_by_zero_exits_2(expr, capsys):
    assert run(["apply", "A4_2", "s0", "--expr", expr]) == 2
    assert capsys.readouterr().err == "division by zero\n"


def test_apply_output_options_are_exclusive(capsys):
    state = ["--state", "x=1,y=0,z=1,w=2,t=0", "--alpha", "a0=1,a1=0,a2=0"]
    assert run(["apply", "A4_2", "s0", "--expr", "z", *state]) == 2
    assert run(["apply", "A4_2", "s0", "--params", "--expr", "z"]) == 2
    assert run(["apply", "A4_2", "s0", "--params", *state]) == 2
    capsys.readouterr()
    assert run(["apply", "A4_2", "s1 s2 s1 s0", "--params"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"system", "word", "parameter_action"}


def test_apply_state_and_singular_state(capsys):
    assert run(["apply", "A4_2", "s0", "--state", "x=1,y=0,z=1,w=2,t=0",
                "--alpha", "a0=1,a1=0,a2=0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["state"]["z"] == "3/2"
    assert doc["parameters"]["a0"] == "-1"
    # w = 0 sits on the s0 pole
    assert run(["apply", "A4_2", "s0", "--state", "x=1,y=0,z=1,w=0,t=0",
                "--alpha", "a0=1,a1=0,a2=0"]) == 1
    capsys.readouterr()


def test_apply_state_validates_alpha(capsys):
    state = ["apply", "A4_2", "s0", "--state", "x=1,y=1,z=1,w=1"]
    assert run([*state, "--alpha", "a0=1"]) == 2
    assert capsys.readouterr().err == "parameter 'a1' unbound\n"
    # a0 + 2*a1 + 2*a2 = 5, not 1
    assert run([*state, "--alpha", "a0=1,a1=1,a2=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err \
        == "values a0=1, a1=1, a2=1 violate the A4_2 parameter relation\n"


@pytest.mark.parametrize("argv", [
    ["apply", "A4_2", "s0", "--state", "x=1,y=1,z=1,w=1",
     "--alpha", "a0=1,a1=0,a2=0,b=5"],
    ["ansatz", "A1_1", "--alpha", "a0=1/3,a1=2/3,b=5"],
    ["integrate", "--system", "A1_1", "--initial", "x=1/10,y=1/10,z=1/10,w=1/10",
     "--params", "a0=1/3,a1=2/3,b=5", "--span", "0:0.1"],
])
def test_unknown_parameter_names_exit_2(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    system_id = "A4_2" if "A4_2" in argv else "A1_1"
    assert captured.out == ""
    assert captured.err == f"'b' is not a parameter of {system_id}\n"


def test_apply_alpha_needs_state(capsys):
    assert run(["apply", "A4_2", "s0", "--alpha", "a0=1"]) == 2
    assert "--alpha applies only with --state" in capsys.readouterr().err
    assert run(["apply", "A4_2", "s0", "--expr", "z", "--alpha", "a0=1"]) == 2
    capsys.readouterr()


def test_integrate_csv_columns_and_zero_span(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert run(["integrate", "--system", "PDE_A1_1", "--time", "t1",
                "--initial", "q1=1,p1=1,q2=1,p2=1",
                "--params", "a0=1/2,a1=-1/2", "--span", "0:0.05",
                "--method", "rk4", "--step", "0.01", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header == ["time", "q1", "p1", "q2", "p2", "K1", "K2", "K3",
                      "f0", "f1"]
    out2 = tmp_path / "single.csv"
    assert run(["integrate", "--system", "A4_2",
                "--initial", "x=1,y=0,z=1,w=1",
                "--params", "a0=1/3,a1=1/5,a2=2/15", "--span", "0:0",
                "--out", str(out2)]) == 0
    lines = out2.read_text().strip().splitlines()
    assert len(lines) == 2   # header + one sample
    assert lines[0].split(",")[5:] == ["H", "f0", "f1", "f2"]
    capsys.readouterr()


def test_integrate_rk45_step_underflow_writes_partial_trajectory(tmp_path, capsys):
    # rk45's step size underflows near a pole at t ~ 0.514 before the
    # guard event fires; the run still ends flagged with its accepted steps
    out = tmp_path / "traj.csv"
    assert run(["integrate", "--system", "A4_2",
                "--initial", "x=1,y=0,z=1,w=1",
                "--params", "a0=1/3,a1=1/5,a2=2/15", "--span", "0:1",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "singularity guard triggered; trajectory is partial\n"
    times, states, _ = trajectory_from_csv(out.read_text())
    assert times[0] == 0.0
    assert states[0] == (1.0, 0.0, 1.0, 1.0)
    assert 0.5 < times[-1] < 0.53


def test_integrate_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "PDE_A1_1", "time": "t1",
        "initial": "q1=1,p1=1,q2=1,p2=1", "params": "a0=1/2,a1=-1/2",
        "span": "0:0.1", "method": "rk4", "step": 0.01, "format": "csv"}))
    out = tmp_path / "traj.json"
    # --format flag wins over the config's csv
    assert run(["integrate", "--config", str(cfg), "--format", "json",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["system"] == "PDE_A1_1"
    assert len(doc["samples"]) == 11
    capsys.readouterr()


def test_integrate_bad_inputs_exit_2(capsys):
    assert run(["integrate", "--system", "PDE_A1_1", "--span", "zzz"]) == 2
    assert run(["integrate", "--system", "PDE_A1_1", "--time", "t9"]) == 2
    assert run(["integrate", "--system", "PDE_A1_1", "--time", "t1",
                "--initial", "q1=1,p1=1,q2=1,p2=1",
                "--params", "a0=1,a1=1", "--span", "0:1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("extra,message", [
    # rk45 from a zero coordinate with atol 0 or nan never accepted a step
    pytest.param(["--atol", "0"], "atol", id="atol-0"),
    pytest.param(["--atol", "nan"], "atol", id="atol-nan"),
    pytest.param(["--span", "0:nan"], "span", id="span-nan"),
    # rk4 over an infinite span ended in an OverflowError traceback
    pytest.param(["--span", "0:inf", "--method", "rk4", "--step", "1e-2"],
                 "span", id="span-inf"),
    pytest.param(["--method", "rk4", "--step", "inf"], "step", id="step-inf"),
    # values past the double range ended in an OverflowError traceback
    pytest.param(["--system", "A1_1", "--initial", "x=1e400,y=0,z=1,w=1",
                  "--params", "a0=1/3,a1=2/3"],
                 "initial value of 'x'", id="initial-past-double"),
    pytest.param(["--system", "PDE_A1_1", "--initial", "q1=1,p1=1,q2=1,p2=1",
                  "--params", "a0=1e400,a1=-1e400"],
                 "parameter 'a0'", id="parameter-past-double"),
])
def test_integrate_rejects_inputs_that_hang_or_crash(extra, message):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    # a later flag wins, so ``extra`` may replace the system and its values
    argv = ["integrate", "--system", "A4_2", "--initial", "x=1,y=0,z=1,w=1",
            "--params", "a0=1/3,a1=1/5,a2=2/15", "--span", "0:1", *extra]
    child = subprocess.run([sys.executable, "-m", "weylflow", *argv],
                           capture_output=True, text=True, env=env,
                           timeout=60)
    assert child.returncode == 2
    assert message in child.stderr and "Traceback" not in child.stderr
    assert child.stdout == ""


@pytest.mark.parametrize("argv", [
    ["verify", "A1_1", "divisors"],
    ["apply", "A1_1", "s0"],
    ["ansatz", "A1_1"],
    ["export", "A1_1"],
    ["integrate", "--system", "A1_1", "--initial", "x=0,y=0,z=0,w=0",
     "--params", "a0=1/3,a1=2/3", "--span", "0:0.1"],
], ids=lambda argv: argv[0])
def test_unwritable_out_path_exits_2(argv, tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = tmp_path / "missing" / "out"
    child = subprocess.run([sys.executable, "-m", "weylflow", *argv,
                            "--out", str(out)],
                           capture_output=True, text=True, env=env,
                           timeout=60)
    assert child.returncode == 2
    assert child.stdout == ""
    assert "Traceback" not in child.stderr
    lines = child.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"cannot write {str(out)!r}: ")


_A1_1_RUN = ["integrate", "--system", "A1_1", "--initial", "x=1,y=0,z=1,w=1",
             "--method", "rk4", "--step", "1e-4"]


def test_integrate_opens_out_before_it_integrates(tmp_path, monkeypatch,
                                                  capsys):
    def never(*args, **kwargs):
        raise AssertionError("integrated before --out was opened")

    monkeypatch.setattr(numerics, "integrate", never)
    out = tmp_path / "missing" / "x.csv"
    assert run([*_A1_1_RUN, "--params", "a0=1/3,a1=2/3", "--span", "0:1000",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"cannot write {str(out)!r}: ")


def test_integrate_usage_error_leaves_no_out_file(tmp_path, capsys):
    out = tmp_path / "x.csv"
    # the parameters fail the relation inside numerics.integrate
    assert run([*_A1_1_RUN, "--params", "a0=1,a1=2", "--span", "0:1",
                "--out", str(out)]) == 2
    assert "violate the A1_1 parameter relation" in capsys.readouterr().err
    assert not out.exists()


def test_integrate_rejects_bad_initial_state(capsys):
    base = ["integrate", "--system", "A4_2", "--params",
            "a0=1/3,a1=1/5,a2=2/15", "--span", "0:0.01"]
    # w unbound
    assert run(base + ["--initial", "x=1,y=0,z=1"]) == 2
    assert "w" in capsys.readouterr().err
    # a name outside the system
    assert run(base + ["--initial", "x=1,y=0,z=1,w=1,q=3"]) == 2
    assert "'q'" in capsys.readouterr().err
    # a time symbol is allowed and ignored
    assert run(base + ["--initial", "x=1,y=0,z=1,w=1,t=0"]) == 0
    capsys.readouterr()


def test_integrate_rejects_bad_config(tmp_path, capsys):
    assert run(["integrate", "--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["integrate", "--config", str(bad)]) == 2
    assert "cannot read config" in capsys.readouterr().err
    listed = tmp_path / "list.json"
    listed.write_text('["PDE_A1_1"]')
    assert run(["integrate", "--config", str(listed)]) == 2
    assert "not a JSON object" in capsys.readouterr().err


def test_integrate_config_initial_must_be_a_string(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "PDE_A1_1", "initial": 5}))
    assert run(["integrate", "--config", str(cfg)]) == 2
    assert "'initial' must be a string" in capsys.readouterr().err


def test_integrate_config_step_must_be_a_number(tmp_path, capsys):
    config = {"system": "PDE_A1_1", "time": "t1",
              "initial": "q1=1,p1=1,q2=1,p2=1", "params": "a0=1/2,a1=-1/2",
              "span": "0:0.01", "method": "rk4"}
    cfg = tmp_path / "cfg.json"
    for step in ("x", True):
        cfg.write_text(json.dumps({**config, "step": step}))
        assert run(["integrate", "--config", str(cfg)]) == 2
        assert "'step' must be a number" in capsys.readouterr().err
    # null stands for a key that is not given: rk45 is the default method
    cfg.write_text(json.dumps({**config, "method": None, "step": None}))
    assert run(["integrate", "--config", str(cfg)]) == 0
    capsys.readouterr()


def test_integrate_config_rejects_unknown_float_encoding(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "PDE_A1_1", "time": "t1", "initial": "q1=1,p1=1,q2=1,p2=1",
        "params": "a0=1/2,a1=-1/2", "span": "0:0.01", "method": "rk4",
        "step": 0.01, "float_encoding": "oct"}))
    assert run(["integrate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "unknown float encoding 'oct'" in captured.err
    assert captured.out == ""


def test_integrate_hex_encoding_round_trips(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert run(["integrate", "--system", "PDE_A1_1", "--time", "t1",
                "--initial", "q1=1,p1=1,q2=1,p2=1",
                "--params", "a0=1/2,a1=-1/2", "--span", "0:0.05",
                "--method", "rk4", "--step", "0.01",
                "--float-encoding", "hex", "--out", str(out)]) == 0
    times, states, diags = trajectory_from_csv(out.read_text())
    assert times[1] == 0.01
    capsys.readouterr()


def test_ansatz_command(tmp_path, capsys):
    out = tmp_path / "ansatz.json"
    assert run(["ansatz", "A1_1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["membership"] == {"H": True}
    assert doc["nullspace_dimension"] == 3
    assert run(["ansatz", "A4_2", "--alpha", "a0=1,a1=1,a2=1"]) == 2
    assert run(["ansatz", "A4_2", "--charts", "r2,r2"]) == 2
    assert run(["ansatz", "A1_1", "--t-degree", "-1"]) == 2
    capsys.readouterr()


def test_ansatz_unknown_chart_is_named(capsys):
    assert run(["ansatz", "A1_1", "--charts", "r9"]) == 2
    assert capsys.readouterr().err == \
        "A1_1 has no chart 'r9'; its charts are r0, r1\n"


@pytest.mark.parametrize("argv", [
    ["ansatz", "A1_1", "--alpha", "a0=1/2,a1=1/2,a0=1/2"],
    ["integrate", "--system", "A1_1", "--initial", "x=1,y=0,z=1,w=1,x=1",
     "--params", "a0=1/3,a1=2/3", "--span", "0:0.01"],
    ["integrate", "--system", "A1_1", "--initial", "x=1,y=0,z=1,w=1",
     "--params", "a0=1/3,a1=2/3,a1=2/3", "--span", "0:0.01"],
    ["apply", "A1_1", "s0", "--state", "x=1,y=0,z=1,w=1,t=0,w=1",
     "--alpha", "a0=1/3,a1=2/3"],
    ["apply", "A1_1", "s0", "--state", "x=1,y=0,z=1,w=1,t=0",
     "--alpha", "a0=1/3,a0=1/3,a1=2/3"],
])
def test_repeated_assignment_is_a_usage_error(argv, capsys):
    assert run(argv) == 2
    assert "is assigned twice in" in capsys.readouterr().err


def test_export_command(capsys):
    assert run(["export", "PDE_A1_1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc["hamiltonians"]) == ["K1", "K2", "K3"]
    assert doc["relation"]["constant"] == "0"
    assert sorted(doc["generators"]) == ["s0", "s1"]
    assert doc["generators"]["s0"]["rules"]["q1"] == "q1"
    assert doc["fields"]["t1"]["components"]["q2"] == "p1*q2 - 1/2*p2"


def test_seed_recorded_in_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["verify", "A1_1", "divisors", "--seed", "42",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 42
    capsys.readouterr()
