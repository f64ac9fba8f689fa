"""Byte-for-byte reports pinned against recorded files.

``tests/golden/export_<sys>.json`` holds ``weylflow export <sys>`` as
transcribed before the systems moved into ``catalog.SPECS``;
``perfbench/reference/ansatz_<sys>.json`` holds the default ansatz reports
that the benchmark compares against.
"""

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
def test_default_ansatz_matches_reference(system_id, capsys):
    assert cli.main(["ansatz", system_id]) == 0
    reference = ROOT / "perfbench" / "reference" / f"ansatz_{system_id}.json"
    assert capsys.readouterr().out == reference.read_text()
