"""Byte-for-byte reports pinned against recorded files.

``tests/golden/export_<sys>.json`` holds ``weylflow export <sys>`` as
transcribed before the systems moved into ``catalog.SPECS``;
``tests/golden/verify_<sys>.json`` holds ``weylflow verify <sys> all --seed 0``
as computed before products and substitution ran on packed exponents;
``perfbench/reference/ansatz_<sys>.json`` holds the default ansatz reports
that the benchmark compares against.  ``tests/golden/integrate_<run>.csv``
holds the trajectories of ``INTEGRATE_RUNS`` as the per-component
evaluators computed them, before each flow was compiled into one function.
The five ``*-rk45`` files were recorded again with scipy's ``solve_ivp``
just before rk45 moved to the in-house Dormand-Prince port, under
``OPENBLAS_CORETYPE=Nehalem``: that OpenBLAS kernel has no fused
multiply-add, so its sums are plain IEEE arithmetic and its bits are the
ones the port reproduces.  The first recording held the bits of the
AVX-512 kernel, which fails on any CPU without it; the six rk4 files are
the first recording.  ``integrate_A1_1-rk4-nonfinite.csv`` was recorded
just before rk4 became one generated loop, to pin its non-finite exit.
``tests/golden/apply_<run>.json`` holds ``weylflow apply`` for ``APPLY_RUNS``
(the README's examples and images that lean on cancellation) as computed
before every ``RationalExpr`` operation cancelled through one ``_reduced``.
"""

import json
from pathlib import Path

import pytest

from weylflow import cli
from weylflow.catalog import SYSTEM_IDS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("system_id", SYSTEM_IDS)
def test_export_matches_golden(system_id, capsys):
    assert cli.main(["export", system_id]) == 0
    expected = (ROOT / "tests" / "golden" / f"export_{system_id}.json").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("system_id", SYSTEM_IDS)
def test_verify_matches_golden(system_id, capsys):
    assert cli.main(["verify", system_id, "all", "--seed", "0"]) == 0
    expected = (ROOT / "tests" / "golden" / f"verify_{system_id}.json").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("system_id", SYSTEM_IDS)
def test_default_ansatz_matches_reference(system_id, capsys):
    assert cli.main(["ansatz", system_id]) == 0
    reference = ROOT / "perfbench" / "reference" / f"ansatz_{system_id}.json"
    assert capsys.readouterr().out == reference.read_text()


@pytest.mark.parametrize("system_id", SYSTEM_IDS)
def test_verify_golden_names_the_benchmark_checks(system_id):
    """The benchmark fails a ``verify`` op whose check names differ from its
    reference, so a new or renamed check must reach both files."""
    def names(path):
        return [c["name"] for c in json.loads(path.read_text())["checks"]]

    golden = ROOT / "tests" / "golden" / f"verify_{system_id}.json"
    reference = ROOT / "perfbench" / "reference" / f"verify_{system_id}.json"
    assert names(golden) == names(reference)


_STARTS = {
    "A4_2": ("t", "x=1,y=0,z=1,w=1", "a0=1/3,a1=1/5,a2=2/15"),
    "A1_1": ("t", "x=1,y=0,z=1,w=1", "a0=1/3,a1=2/3"),
    "PDE_A1_1-t1": ("t1", "q1=1,p1=1,q2=1,p2=1", "a0=1/2,a1=-1/2"),
    "PDE_A1_1-t2": ("t2", "q1=1,p1=1,q2=1,p2=1", "a0=1/2,a1=-1/2"),
    "PDE_A1_1-t3": ("t3", "q1=1,p1=1,q2=1,p2=1", "a0=1/2,a1=-1/2"),
}

# run name -> (integrate arguments, exit code)
INTEGRATE_RUNS = {
    f"{name}-{method}": (
        ["--system", name.split("-")[0], "--time", tsym, "--initial", start,
         "--params", params, "--span", "0:0.02", "--method", method]
        + (["--step", "1e-3"] if method == "rk4" else []), 0)
    for name, (tsym, start, params) in _STARTS.items()
    for method in ("rk4", "rk45")
}
# runs into a movable pole near t = 0.53 and stops there (exit 1)
INTEGRATE_RUNS["A4_2-rk4-pole"] = (
    ["--system", "A4_2", "--initial", "x=1,y=0,z=1,w=1",
     "--params", "a0=1,a1=0,a2=0", "--span", "0:1", "--method", "rk4",
     "--step", "1e-2"], 1)

# no denominator, so no guard: the first step overflows and is not stored
INTEGRATE_RUNS["A1_1-rk4-nonfinite"] = (
    ["--system", "A1_1", "--initial", "x=1e300,y=0,z=1,w=1",
     "--params", "a0=1/3,a1=2/3", "--method", "rk4", "--step", "1e-2"], 1)


@pytest.mark.parametrize("name", sorted(INTEGRATE_RUNS))
def test_integrate_matches_golden(name, tmp_path, capsys):
    argv, code = INTEGRATE_RUNS[name]
    out = tmp_path / "run.csv"
    assert cli.main(["integrate", *argv, "--out", str(out)]) == code
    expected = (ROOT / "tests" / "golden" / f"integrate_{name}.csv").read_text()
    assert out.read_text() == expected
    capsys.readouterr()


# run name -> apply arguments after the subcommand
APPLY_RUNS = {
    "A4_2-s1s2s1s0-params": ["A4_2", "s1 s2 s1 s0", "--params"],
    "A4_2-s0-z": ["A4_2", "s0", "--expr", "z"],
    "A4_2-s2-state": ["A4_2", "s2", "--state", "x=1,y=0,z=1,w=1,t=0",
                      "--alpha", "a0=1/3,a1=1/5,a2=2/15"],
    "A4_2-s1s2s1s0-x": ["A4_2", "s1 s2 s1 s0", "--expr", "x"],
    "A4_2-s2-xy_zw": ["A4_2", "s2", "--expr", "x*y + z/w"],
    "A1_1-s1s0-x": ["A1_1", "s1 s0", "--expr", "x"],
    "PDE_A1_1-s1s0-p1": ["PDE_A1_1", "s1 s0", "--expr", "p1"],
    "PDE_A1_1-s1-q1p1_q2p2": ["PDE_A1_1", "s1", "--expr", "q1*p1 + q2/p2"],
}


@pytest.mark.parametrize("name", sorted(APPLY_RUNS))
def test_apply_matches_golden(name, capsys):
    assert cli.main(["apply", *APPLY_RUNS[name]]) == 0
    expected = (ROOT / "tests" / "golden" / f"apply_{name}.json").read_text()
    assert capsys.readouterr().out == expected
