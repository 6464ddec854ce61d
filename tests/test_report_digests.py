"""Byte-identity of the CLI reports: `tools/report_digests.py` reruns its
fixed list of CLI runs at seeds 0 and 1, and every digest must equal the
line committed in `report_digests.txt`.  A change that moves a report on
purpose regenerates that file in the same diff, so the diff names each
moved report."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("report_digests.txt")
REGENERATE = ("PYTHONPATH=src python3 tools/report_digests.py --seed 0 1 "
              "> tests/report_digests.txt")


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "report_digests", ROOT / "tools" / "report_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_reports_match_committed_digests():
    tool = load_tool()
    want = DIGESTS.read_text().splitlines()
    if want[0] != tool.versions():
        pytest.fail(f"{DIGESTS.name} was made with '{want[0]}', this run "
                    f"has '{tool.versions()}'; float results may differ "
                    f"across versions, so regenerate it at the parent "
                    f"commit with: {REGENERATE}")
    diff = tool.differences(want, tool.digests([0, 1]))
    assert not diff, "\n".join(
        [*diff, f"a declared report change regenerates the file: {REGENERATE}"])
