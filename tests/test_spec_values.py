"""Systems as values: every derivation runs on a spec that is not registered.

A ``SystemSpec`` is a hashable value, and ``build_system`` turns it into the
system that every derivation takes.  So a control system or a mutant spec is
built and checked here without touching any cache; only the ``verify``
command, which looks systems up by name, sees a mutant through a
monkeypatched ``catalog.SPECS``.
"""

import ast
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from weylflow import catalog as cat
from weylflow import cli
from weylflow import holomorphy as hol
from weylflow.symkernel import AffineRelation

SRC = Path(__file__).resolve().parents[1] / "src" / "weylflow"

# Painleve IV, whose affine Weyl group has type A2^(1); with this sign of H
# the parameter relation is a0 + a1 + a2 = -1
PIV = cat.SystemSpec(
    name="PIV", dynamical=("q", "p"), parameters=("a0", "a1", "a2"),
    pairs=(("q", "p"),),
    hamiltonians=(("t", "q^2*p + q*p^2 - t*q*p - a1*p + a2*q"),),
    relation=AffineRelation.make({"a0": 1, "a1": 1, "a2": 1}, -1, "a2"),
    divisors=(("q + p - t", "a0"), ("q", "a1"), ("p", "a2")),
    cartan=((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),
    translations=(),
    alpha_samples=((("a0", F(1, 3)), ("a1", F(1, 5)), ("a2", F(-23, 15))),
                   (("a0", F(2, 7)), ("a1", F(-3, 11)), ("a2", F(-78, 77)))))

# A1_1 with f0 = 2x + z^2, a divisor of no shape the charts handle
F0_MUTANT = cat.SPECS["A1_1"]._replace(
    divisors=(("2*x + z^2", "a0"), ("x + y^2 + w^2 + t", "a1")))


# A1_1 with f0 = x*y, whose exponential series s0(x) does not end
SERIES_MUTANT = cat.SPECS["A1_1"]._replace(
    divisors=(("x*y", "a0"), ("x + y^2 + w^2 + t", "a1")))


def _verify(spec):
    """Every ``verify`` suite's entries on the system of ``spec``."""
    sys_ = cat.build_system(spec)
    return {suite: run(sys_, 0) for suite, run in cli.SUITES.items()}


def test_specs_are_values():
    assert "PIV" not in cat.SPECS
    assert cat.build_system(PIV) is cat.build_system(PIV._replace())
    mutant = cat.build_system(F0_MUTANT)
    assert mutant is not cat.build_system(cat.SPECS["A1_1"])
    assert mutant.id == "A1_1"


def test_equal_specs_written_separately_share_one_system():
    def relation(constant):
        return AffineRelation.make({"a0": 1, "a1": 1, "a2": 1}, constant, "a2")

    r = PIV.relation
    assert AffineRelation(r.terms, r.constant, r.eliminated) == r
    assert relation(-1) == r and hash(relation(-1)) == hash(r)
    assert relation(1) != r
    assert cat.build_system(PIV._replace(relation=relation(-1))) \
        is cat.build_system(PIV)
    assert cat.build_system(PIV._replace(relation=relation(1))) \
        is not cat.build_system(PIV)


def test_piv_control_system_passes_every_suite():
    reports = _verify(PIV)
    checks = [c for entries in reports.values() for c in entries]
    assert [c["name"] for c in checks if not c["passed"]] == []
    assert len(checks) == 26
    # A2^(1): every pair of generators has Coxeter order 3
    assert [c["details"]["order"] for c in reports["relations"]
            if c["name"].startswith("order/")] == [3, 3, 3]
    assert [c["name"] for c in reports["holomorphy"]][:3] \
        == ["roundtrip/r0", "roundtrip/r1", "roundtrip/r2"]
    assert reports["reduction"] == []


@pytest.mark.parametrize("change,failed", [
    # Noumi and Yamada's a0 + a1 + a2 = 1 does not fit this sign of H
    ({"relation": AffineRelation.make({"a0": 1, "a1": 1, "a2": 1}, 1, "a2")},
     {"divisor/f0@t", "polynomial/r0(H)", "symmetry/s0"}),
    ({"cartan": ((2, -1, -1), (-1, 2, -1), (-1, -2, 2))},
     {"relation-preserved/s2", "symmetry/s2"}),
])
def test_piv_perturbed_spec_fails(change, failed):
    reports = _verify(PIV._replace(**change))
    assert {c["name"] for entries in reports.values() for c in entries
            if not c["passed"]} == failed


@pytest.mark.parametrize("sample", [0, 1])
def test_piv_ansatz_recovers_the_hamiltonian(sample):
    sys_ = cat.build_system(PIV)
    alpha = hol.default_alpha_samples(sys_)[sample]
    rep = hol.ansatz_solve(sys_, alpha=alpha)
    assert (rep.rank, rep.nullspace_dimension) == (81, 3)
    assert sorted(rep.nullspace_basis) == ["1", "t", "t^2"]
    assert rep.consistent and rep.membership == (("H", True),)


def test_divisor_without_a_chart_fails_the_holomorphy_suite():
    message = ("divisor z^2 + 2*x has no member of a canonical pair "
               "with coefficient 1")
    reports = _verify(F0_MUTANT)
    assert reports["holomorphy"] == [
        {"name": "charts", "passed": False, "details": {"message": message}}]
    # the other suites still report, and f0 is no longer invariant
    failed = {c["name"] for entries in reports.values() for c in entries
              if not c["passed"]}
    assert failed == {"charts", "symmetry/s0", "divisor/f0@t"}
    with pytest.raises(ValueError, match="no member of a canonical pair"):
        hol.ansatz_solve(cat.build_system(F0_MUTANT))


def test_only_the_catalog_and_one_cli_lookup_name_a_system():
    hits = [path.name for path in sorted(SRC.glob("*.py"))
            for line in path.read_text().splitlines()
            if '"PDE_A1_1"' in line or "SPECS[" in line]
    assert set(hits) <= {"catalog.py", "cli.py"}
    assert hits.count("cli.py") == 1
    for path in SRC.glob("*.py"):
        if path.name == "catalog.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert "SPECS" not in imported, path.name


def test_divisor_whose_series_does_not_end_fails_the_generator_suites(
        monkeypatch, capsys):
    failing = {"name": "generators", "passed": False, "details": {
        "message": "A1_1: the series of s0(x) has not terminated by order 6"}}
    reports = _verify(SERIES_MUTANT)
    assert reports["symmetry"] == [failing]
    assert reports["relations"] == [failing]
    # the checks of H stand; the exponential ones need the generators
    assert [c["name"] for c in reports["brackets"]] \
        == ["dH-dt-equals-partial", "generators"]
    assert reports["brackets"][-1] == failing
    monkeypatch.setitem(cat.SPECS, "A1_1", SERIES_MUTANT)
    assert cli.main(["verify", "A1_1", "all"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and not json.loads(out)["passed"]
