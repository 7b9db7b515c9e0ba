"""Pinned `region` rows: every evaluator against values recorded from the dense-joint build.

region_golden.json holds, per command, the CSV rows (id, lhs, rhs, slack,
equality, satisfied), the JSON `worst` id and the `satisfied` flag.  Ids,
flags and `worst` must match exactly, floats to 1e-12.  Several hybrid and
layered rows tie in exact arithmetic, so `worst` also pins the round-off
order of those ties.

region_pins.json holds the sha256 of region.csv and region.json for the
seed-0 benchmark commands (20 hybrid points, macfb, ces2, cl2) and a quick
ces3 search, recorded from the ledger that summed one group per call.  The
1e-12 goldens cannot see a last-bit move; these digests can.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import pytest

from trimac.cli import run

GOLDEN = json.loads((Path(__file__).parent / "region_golden.json").read_text())
PINS = json.loads((Path(__file__).parent / "region_pins.json").read_text())


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_region_rows_match_the_pinned_values(case, tmp_path):
    want = GOLDEN[case]
    assert run(want["argv"] + ["--out-dir", str(tmp_path)]) == 0
    blob = json.loads((tmp_path / "region.json").read_text())
    assert blob["worst"] == want["worst"]
    assert blob["satisfied"] is want["satisfied"]
    with open(tmp_path / "region.csv") as fh:
        rows = [[_cell(c) for c in row] for row in list(csv.reader(fh))[1:]]
    assert len(rows) == len(want["rows"])
    for got, exp in zip(rows, want["rows"]):
        assert got[0] == exp[0]
        assert got[4:] == exp[4:], got[0]
        for g, e in zip(got[1:4], exp[1:4]):
            assert abs(g - e) <= 1e-12, (got[0], g, e)


@pytest.mark.parametrize("name", sorted(PINS))
def test_region_files_keep_their_bytes(name, tmp_path):
    pin = PINS[name]
    assert run(pin["argv"] + ["--out-dir", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == pin["sha256"]
