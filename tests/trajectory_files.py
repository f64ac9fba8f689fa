"""Readers for the trajectory files `integrate` writes, for the tests.

The inverse of ``numerics.trajectory_to_csv`` and ``trajectory_to_json``:
a cell reads back with ``float`` (decimal) or ``float.fromhex`` (hex), so
both encodings round-trip doubles bit-exactly.
"""

from typing import Mapping

from weylflow.catalog import SPECS


def parse_float(text: str) -> float:
    return float.fromhex(text) if ("0x" in text or "0X" in text) else float(text)


def trajectory_from_csv(text: str) -> tuple[list[float], list[tuple[float, ...]],
                                            dict[str, list[float]]]:
    """(times, states, diagnostics) of a CSV trajectory."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    dynamical = {n for spec in SPECS.values() for n in spec.dynamical}
    diag_names = [n for n in header[1:] if n not in dynamical]
    n_state = len(header) - 1 - len(diag_names)
    times: list[float] = []
    states: list[tuple[float, ...]] = []
    diags: dict[str, list[float]] = {n: [] for n in diag_names}
    for ln in lines[1:]:
        cells = ln.split(",")
        times.append(parse_float(cells[0]))
        states.append(tuple(parse_float(c) for c in cells[1:1 + n_state]))
        for n, c in zip(diag_names, cells[1 + n_state:]):
            diags[n].append(parse_float(c))
    return times, states, diags


def trajectory_from_json(doc: Mapping) -> tuple[list[float], list[tuple[float, ...]],
                                                dict[str, list[float]]]:
    """(times, states, diagnostics) of a parsed JSON trajectory."""
    times = []
    states = []
    diags: dict[str, list[float]] = {}
    for sample in doc["samples"]:
        times.append(parse_float(sample["time"]))
        states.append(tuple(parse_float(v) for v in sample["state"]))
        for n, v in sample["diagnostics"].items():
            diags.setdefault(n, []).append(parse_float(v))
    return times, states, diags
