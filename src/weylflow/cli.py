"""Batch command surface for verification, integration, and map application.

Exit codes: 0 every requested check passed, 1 at least one check failed or
an integration stopped early at a movable pole, 2 invalid input (unknown
system, unparseable expression, bad configuration, an ``--out`` file that
cannot be opened).

``main`` runs one command and returns its exit code; ``run`` is the process
entry of ``python -m weylflow`` and of the ``weylflow`` script.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from . import catalog, exprtext, flows, holomorphy, numerics, weyl
from .catalog import HamiltonianSystem, parameter_values, serialize_system
from .exprtext import ParseError
from .symkernel import (DYNAMICAL, DegreeLimitError, Polynomial, RelationError,
                        SymbolError, ZeroDenominatorError, is_identically_equal,
                        poisson_bracket, reduce_parameters)

FORMATS = ("csv", "json")
FLOAT_ENCODINGS = ("decimal", "hex")

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _parse_assignments(text: str) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    if not text:
        return out
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise UsageError(f"expected name=value, got {piece!r}")
        name, value = piece.split("=", 1)
        name = name.strip()
        if name in out:
            raise UsageError(f"{name!r} is assigned twice in {text!r}")
        try:
            out[name] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad rational value {value!r}: {exc}")
    return out


def _parse_span(text: str) -> tuple[float, float]:
    if ":" not in text:
        raise UsageError(f"span must be start:end, got {text!r}")
    a, b = text.split(":", 1)
    try:
        return float(a), float(b)
    except ValueError as exc:
        raise UsageError(str(exc))


def _system(name: Optional[str]) -> HamiltonianSystem:
    """The registered system called ``name``: the one lookup of a name."""
    if name not in catalog.SPECS:
        raise UsageError(f"unknown system {name!r}")
    return catalog.build_system(catalog.SPECS[name])


def _open_out(out: Optional[str]):
    """The ``--out`` file opened for writing, or stdout without one."""
    if not out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w")
    except OSError as exc:
        raise UsageError(f"cannot write {out!r}: {exc}") from None


def _emit(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    with _open_out(out) as fh:
        fh.write(text)


def _check(name: str, passed: bool, **details) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    if details:
        entry["details"] = details
    return entry


def _poly_text(p: Optional[Polynomial]) -> Optional[str]:
    return None if p is None else exprtext.poly_text(p)


# ---------------------------------------------------------------------------
# verify suites


def _generators_failure(sys_: HamiltonianSystem) -> list[dict]:
    """One failing ``generators`` entry when the generators cannot be built
    (a divisor whose exponential series does not end), else none."""
    try:
        weyl.generators(sys_)
    except ValueError as exc:
        return [_check("generators", False, message=str(exc))]
    return []


def _suite_symmetry(sys_: HamiltonianSystem, seed: int) -> list[dict]:
    failure = _generators_failure(sys_)
    if failure:
        return failure
    out = []
    for name, gen in weyl.generators(sys_).items():
        rep = weyl.verify_symmetry(sys_, gen)
        out.append(_check(f"symmetry/{name}", rep.passed,
                          checks=[{"time": c.time_symbol, "variable": c.variable,
                                   "passed": c.passed} for c in rep.checks]))
    return out


def _suite_relations(sys_: HamiltonianSystem, seed: int) -> list[dict]:
    failure = _generators_failure(sys_)
    if failure:
        return failure
    out = []
    gens = weyl.generators(sys_)
    for name, gen in gens.items():
        out.append(_check(f"involution/{name}", weyl.is_involution(gen)))
        out.append(_check(f"relation-preserved/{name}",
                          weyl.preserves_relation(gen)))
    named = weyl.named_maps(sys_)
    for tname, (_, expected) in sys_.spec.translations:
        off = weyl.translation_offset(named[tname])
        out.append(_check(f"translation/{tname}", off == expected,
                          offset=[str(v) for v in off] if off else None))
    cartan = sys_.spec.cartan
    for i, j in combinations(range(len(sys_.generator_names)), 2):
        expected = weyl.coxeter_order(cartan[i][j] * cartan[j][i])
        # the check passes only when the smallest n is the Coxeter order m,
        # so a finite m bounds the search and a wrong Cartan entry fails fast
        max_n = 8 if expected is weyl.EXCEEDS_MAX else expected
        order = weyl.relation_order(sys_, i, j, max_n, seed=seed)
        ok = order == expected
        if order is weyl.EXCEEDS_MAX:
            off = weyl.relation_offset(
                gens[f"s{j}"].action.after(gens[f"s{i}"].action),
                sys_.relation)
            translation = off is not None and any(v != 0 for v in off)
            out.append(_check(
                f"order/s{i}s{j}", ok, order="exceeds-max",
                justification="nonzero-translation" if translation
                else "non-returning-orbit",
                offset=[str(v) for v in off] if off else None))
        else:
            out.append(_check(f"order/s{i}s{j}", ok, order=order))
    return out


def _suite_holomorphy(sys_: HamiltonianSystem, seed: int) -> list[dict]:
    try:
        chart_map = holomorphy.charts(sys_)
    except ValueError as exc:           # a divisor shape with no chart
        return [_check("charts", False, message=str(exc))]
    out = []
    for cname, chart in chart_map.items():
        out.append(_check(f"roundtrip/{cname}",
                          holomorphy.verify_chart_roundtrip(chart),
                          mode="symbolic"))
    for tsym, ham in sys_.hamiltonians:
        hname = sys_.hamiltonian_name(tsym)
        for cname, chart in chart_map.items():
            res = holomorphy.check_polynomiality(chart, ham)
            out.append(_check(f"polynomial/{cname}({hname})", res.passed,
                              witness=_poly_text(res.witness)))
    perturb = sys_.table.symbols(DYNAMICAL)[0]
    perturbed = sys_.hamiltonians[0][1] + Polynomial.variable(sys_.table, perturb)
    rejected = any(not holomorphy.check_polynomiality(c, perturbed).passed
                   for c in chart_map.values())
    out.append(_check(f"perturbation-rejected/H+{perturb}", rejected))
    return out


def _suite_divisors(sys_: HamiltonianSystem, seed: int) -> list[dict]:
    out = []
    for tsym in sys_.times:
        for i in range(len(sys_.divisors)):
            rep = flows.divisor_invariance(sys_, tsym, i)
            constant = rep.affine_constant
            out.append(_check(f"divisor/f{i}@{tsym}", rep.passed,
                              cofactor=_poly_text(rep.cofactor),
                              affine_constant=None if constant is None
                              else str(constant)))
    return out


def _suite_brackets(sys_: HamiltonianSystem, seed: int) -> list[dict]:
    out = []
    if len(sys_.times) > 1:
        for a, b in combinations(sys_.times, 2):
            br = poisson_bracket(sys_.hamiltonian(a), sys_.hamiltonian(b),
                                 sys_.pairing)
            ok = reduce_parameters(br, sys_.relation).is_zero()
            na, nb = sys_.hamiltonian_name(a), sys_.hamiltonian_name(b)
            out.append(_check(f"poisson/{{{na},{nb}}}", ok))
        fields = {t: flows.hamiltonian_vector_field(sys_, t) for t in sys_.times}
        for a, b in combinations(sys_.times, 2):
            br = flows.lie_bracket(fields[a], fields[b])
            ok = all(reduce_parameters(c, sys_.relation).is_zero()
                     for _, c in br.components)
            out.append(_check(f"lie/[{a},{b}]", ok))
        for tsym, ham in sys_.hamiltonians:
            name = sys_.hamiltonian_name(tsym)
            for j in sys_.times:
                d = flows.time_derivative_along(sys_, ham, j)
                ok = reduce_parameters(d, sys_.relation).is_zero()
                out.append(_check(f"first-integral/d{name}_d{j}", ok))
    else:
        tsym = sys_.times[0]
        ham = sys_.hamiltonian(tsym)
        d = flows.time_derivative_along(sys_, ham, tsym)
        expected = reduce_parameters(ham.derivative(tsym), sys_.relation)
        ok = is_identically_equal(reduce_parameters(d, sys_.relation), expected)
        out.append(_check("dH-dt-equals-partial", ok))
    failure = _generators_failure(sys_)
    if failure:
        return out + failure
    g = sys_.table.symbols(DYNAMICAL)[0]
    for i in range(len(sys_.divisors)):
        rep = weyl.exponential_formula_check(
            sys_, i, Polynomial.variable(sys_.table, g))
        out.append(_check(f"exponential/s{i}({g})",
                          rep.terminated and bool(rep.matches),
                          order=rep.order))
    return out


def _suite_reduction(sys_: HamiltonianSystem, seed: int) -> list[dict]:
    if sys_.spec.reduction is None:
        return []
    rep = flows.scalar_reduction_identity(sys_)
    out = [_check(f"reduction/{name}", ok) for name, ok in rep.checks]
    out.append(_check("reduction/polynomial-components", True,
                      derived={name: ok for name, ok in rep.polynomial_components}))
    return out


SUITES = {
    "symmetry": _suite_symmetry,
    "relations": _suite_relations,
    "holomorphy": _suite_holomorphy,
    "divisors": _suite_divisors,
    "brackets": _suite_brackets,
    "reduction": _suite_reduction,
}


def cmd_verify(args: argparse.Namespace) -> int:
    sys_ = _system(args.system)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    checks: list[dict] = []
    for suite in suites:
        checks.extend(SUITES[suite](sys_, args.seed))
    passed = all(c["passed"] for c in checks)
    _emit({
        "system": sys_.id,
        "suite": args.suite,
        "seed": args.seed,
        "passed": passed,
        "counts": {"total": len(checks),
                   "failed": sum(not c["passed"] for c in checks)},
        "checks": checks,
    }, args.out)
    return EXIT_OK if passed else EXIT_FAILED


# integrate --config keys by the type their values must have
_CONFIG_NUMBERS = ("step", "atol", "rtol")
_CONFIG_STRINGS = ("system", "time", "initial", "params", "span", "method",
                   "format", "float_encoding", "out")


def _config_type_error(key: str, value) -> Optional[str]:
    """What ``value`` must be for ``key``, or None when it fits; null
    stands for a key that is not given."""
    if value is None:
        return None
    if key in _CONFIG_NUMBERS and (isinstance(value, bool)
                                   or not isinstance(value, (int, float))):
        return "a number"
    if key in _CONFIG_STRINGS and not isinstance(value, str):
        return "a string"
    return None


def cmd_integrate(args: argparse.Namespace) -> int:
    config: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"cannot read config {args.config!r}: {exc}\n")
            return EXIT_USAGE
        if not isinstance(config, dict):
            sys.stderr.write(f"config {args.config!r} is not a JSON object\n")
            return EXIT_USAGE
        for key, value in config.items():
            wanted = _config_type_error(key, value)
            if wanted:
                sys.stderr.write(f"config {key!r} must be {wanted}, "
                                 f"got {value!r}\n")
                return EXIT_USAGE

    def pick(flag, key, default=None):
        if flag is not None:
            return flag
        value = config.get(key)
        return default if value is None else value

    sys_ = _system(pick(args.system, "system"))
    time_symbol = pick(args.time, "time", sys_.times[0])
    if time_symbol not in sys_.times:
        sys.stderr.write(f"system {sys_.id} has no time {time_symbol!r}\n")
        return EXIT_USAGE
    try:
        initial = _parse_assignments(pick(args.initial, "initial", ""))
        params = _parse_assignments(pick(args.params, "params", ""))
        span = _parse_span(pick(args.span, "span", "0:1"))
    except UsageError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    fmt = pick(args.format, "format", "csv")
    if fmt not in FORMATS:
        sys.stderr.write(f"unknown format {fmt!r}\n")
        return EXIT_USAGE
    encoding = pick(args.float_encoding, "float_encoding", "decimal")
    if encoding not in FLOAT_ENCODINGS:
        sys.stderr.write(f"unknown float encoding {encoding!r}\n")
        return EXIT_USAGE
    method = pick(args.method, "method", "rk45")
    out = pick(args.out, "out")
    # opened before the run, so a path that cannot be written fails at once
    with _open_out(out) as fh:
        try:
            traj = numerics.integrate(
                sys_, time_symbol, initial, params, span, method=method,
                step=pick(args.step, "step"),
                atol=pick(args.atol, "atol"), rtol=pick(args.rtol, "rtol"))
        except (RelationError, SymbolError, ValueError) as exc:
            sys.stderr.write(f"{exc}\n")
            traj = None
        else:
            # written as it is formatted, so the whole text is never held
            if fmt == "csv":
                numerics.trajectory_to_csv(traj, encoding, fh)
            else:
                json.dump(numerics.trajectory_to_json(traj, encoding), fh,
                          sort_keys=True, indent=2)
                fh.write("\n")
    if traj is None:
        if out and os.path.isfile(out):     # not a device such as /dev/null
            os.remove(out)
        return EXIT_USAGE
    if traj.singular_abort:
        sys.stderr.write("singularity guard triggered; trajectory is partial\n")
        return EXIT_FAILED
    return EXIT_OK


def cmd_apply(args: argparse.Namespace) -> int:
    sys_ = _system(args.system)
    if args.alpha is not None and args.state is None:
        sys.stderr.write("--alpha applies only with --state\n")
        return EXIT_USAGE
    word = args.word.split()
    try:
        mapped = weyl.word_map(sys_, word)
    except SymbolError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    doc: dict = {"system": sys_.id, "word": word}
    offset = weyl.translation_offset(mapped)
    doc["parameter_action"] = {
        "matrix": [list(row) for row in mapped.action.matrix],
        "offset_on_relation": [str(v) for v in offset] if offset else None,
    }
    if args.expr is not None:
        try:
            image = weyl.apply_map(mapped, exprtext.parse(args.expr, sys_.table))
        except (ParseError, SymbolError, DegreeLimitError) as exc:
            sys.stderr.write(f"{exc}\n")
            return EXIT_USAGE
        doc["expression"] = args.expr
        doc["image"] = exprtext.expr_text(image)
    elif args.state is not None:
        try:
            state = _parse_assignments(args.state)
            params = parameter_values(sys_,
                                      _parse_assignments(args.alpha or ""))
            new_state, new_params = weyl.apply_to_state(mapped, state, params)
        except (UsageError, SymbolError, RelationError) as exc:
            sys.stderr.write(f"{exc}\n")
            return EXIT_USAGE
        except ZeroDenominatorError as exc:
            sys.stderr.write(f"map is singular at this state: {exc}\n")
            return EXIT_FAILED
        doc["state"] = {n: str(v) for n, v in sorted(new_state.items())}
        doc["parameters"] = {n: str(v) for n, v in sorted(new_params.items())}
    _emit(doc, args.out)
    return EXIT_OK


def cmd_ansatz(args: argparse.Namespace) -> int:
    sys_ = _system(args.system)
    try:
        alpha = _parse_assignments(args.alpha) if args.alpha else None
        chart_names = args.charts.split(",") if args.charts else None
        report = holomorphy.ansatz_solve(sys_, args.t_degree, alpha,
                                         chart_names)
    except (UsageError, RelationError, ValueError) as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    _emit(report.as_dict(), args.out)
    ok = report.consistent and all(ok for _, ok in report.membership)
    return EXIT_OK if ok else EXIT_FAILED


def cmd_export(args: argparse.Namespace) -> int:
    sys_ = _system(args.system)
    doc = serialize_system(sys_)
    doc["generators"] = {name: weyl.serialize_map(gen)
                         for name, gen in weyl.generators(sys_).items()}
    doc["fields"] = {t: flows.serialize_field(
        flows.hamiltonian_vector_field(sys_, t)) for t in sys_.times}
    _emit(doc, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylflow",
        description="Verification engine and numerical laboratory for "
                    "coupled Painleve-type Hamiltonian systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run symbolic verification suites")
    p.add_argument("system")
    p.add_argument("suite", choices=(*SUITES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("integrate", help="integrate one flow, emit a trajectory")
    p.add_argument("--system")
    p.add_argument("--time")
    p.add_argument("--initial", help="comma list name=rational")
    p.add_argument("--params", help="comma list name=rational")
    p.add_argument("--span", help="start:end")
    p.add_argument("--method", choices=("rk4", "rk45"))
    p.add_argument("--step", type=float)
    p.add_argument("--atol", type=float)
    p.add_argument("--rtol", type=float)
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--float-encoding", dest="float_encoding",
                   choices=FLOAT_ENCODINGS)
    p.add_argument("--config", help="JSON config file; flags win")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_integrate)

    p = sub.add_parser("apply", help="apply a word of generators")
    p.add_argument("system")
    p.add_argument("word", help="space-separated map names, leftmost acts first")
    shown = p.add_mutually_exclusive_group()
    shown.add_argument("--expr", help="expression in canonical syntax")
    shown.add_argument("--state", help="comma list name=rational")
    shown.add_argument("--params", action="store_true",
                       help="print only the parameter action (the default)")
    p.add_argument("--alpha", help="parameter values for --state")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("ansatz", help="degree-6 holomorphy ansatz solver")
    p.add_argument("system")
    p.add_argument("--t-degree", dest="t_degree", type=int)
    p.add_argument("--alpha", help="comma list name=rational")
    p.add_argument("--charts", help="comma list of chart names")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ansatz)

    p = sub.add_parser("export", help="serialize a system definition to JSON")
    p.add_argument("system")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_export)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:   # an unknown system or an unopenable --out
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE


def run() -> None:
    """Run the command on ``sys.argv`` and end the process with its code.

    A command's time goes to the interpreter and ``site``, the import of
    every layer, the work, and the exit.  At exit CPython collects garbage
    over every object still tracked: the modules and the cached systems,
    generators and charts, all of which live until then.  ``gc.freeze()``
    moves them out of the collector's reach, which cut the exit of
    ``verify A1_1 divisors`` from about 17 to 5 ms on a 2-vCPU x86_64
    machine and changes no output.  ``main`` leaves the collector alone,
    so in-process callers keep a normal one.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
