"""Output check for every workload command.

A command passes when it exits 0, writes its CSV and JSON, satisfies the
invariants of its subcommand, and matches its reference: the golden
outputs recorded for this seed when there are any, else the outputs of the
same command in the run's first repetition.  Integers, strings and
booleans must match exactly and floats to within 1e-12 absolute (the
ROADMAP contract); a byte digest would reject a legal change of summation
order.

Run `python3 perfbench/check.py` for the self-test: a recorded output with
one float moved by 1e-9, and one with an error count off by one, must both
be flagged.
"""

from __future__ import annotations

import copy
import csv
import gzip
import io
import json
import math
import sys
from pathlib import Path

TOL = 1e-12
GOLDEN = Path(__file__).resolve().parent / "golden"


def parse_cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    if text.startswith("np.float64(") and text.endswith(")"):
        # numpy 2 repr of a numpy scalar that reached the CSV writer (a
        # formatting defect of the program, see README.md): read the number
        text = text[len("np.float64("):-1]
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_csv(text: str) -> list[list]:
    return [[parse_cell(cell) for cell in row] for row in csv.reader(io.StringIO(text))]


def read_outputs(out_dir: Path) -> dict:
    """Raw CSV text and parsed JSON of every file the command wrote."""
    found = {}
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
        text = path.read_text()
        found[path.name] = json.loads(text) if path.suffix == ".json" else text
    return found


def diff(got, want, where: str = "") -> list[str]:
    """Differences between two parsed outputs under the tolerance contract."""
    if isinstance(got, bool) or isinstance(want, bool) or got is None or want is None \
            or isinstance(got, str) or isinstance(want, str):
        return [] if type(got) is type(want) and got == want else [f"{where}: {got!r} != {want!r}"]
    if isinstance(got, int) and isinstance(want, int):
        return [] if got == want else [f"{where}: {got} != {want}"]
    if isinstance(got, float) and isinstance(want, float):
        if got == want or (math.isnan(got) and math.isnan(want)) or abs(got - want) <= TOL:
            return []
        return [f"{where}: {got!r} != {want!r} (|diff| {abs(got - want):.3g})"]
    if isinstance(got, dict) and isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for key in want for d in diff(got[key], want[key], f"{where}.{key}")]
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: {len(got)} items != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in diff(g, w, f"{where}[{i}]")]
    return [f"{where}: {type(got).__name__} {got!r} != {type(want).__name__} {want!r}"]


def compare(got: dict, want: dict) -> list[str]:
    """Compare two read_outputs() results file by file."""
    if got.keys() != want.keys():
        return [f"files {sorted(got)} != {sorted(want)}"]
    problems = []
    for name in want:
        g, w = got[name], want[name]
        if name.endswith(".csv"):
            g, w = parse_csv(g), parse_csv(w)
        problems += diff(g, w, name)
    return problems


# ---------------------------------------------------------------------------
# invariants per subcommand


def _rate(errors, trials, p_hat, lo, hi, where) -> list[str]:
    ok = (0 <= errors <= trials and p_hat == errors / trials and lo <= p_hat <= hi)
    return [] if ok else [f"{where}: inconsistent rate {errors}/{trials} {p_hat} [{lo}, {hi}]"]


def _region(rows, obj) -> list[str]:
    problems = []
    for ineq, lhs, rhs, slack, equality, _ in rows:
        want = -abs(rhs - lhs) if equality else rhs - lhs
        if abs(slack - want) > TOL:
            problems.append(f"{ineq}: slack {slack!r} is not rhs - lhs")
    records = [[r["inequality"], r["lhs_bits"], r["rhs_bits"], r["slack_bits"], r["equality"]]
               for r in obj["records"]]
    problems += diff([row[:5] for row in rows], records, "csv vs json")
    if obj["satisfied"] != all(row[5] for row in rows):
        problems.append("json satisfied disagrees with the rows")
    if rows and obj["worst"] != min(rows, key=lambda row: row[3])[0]:
        problems.append("json worst is not the row of least slack")
    return problems


def _simulate_mac(rows, obj) -> list[str]:
    problems = [p for n, t, e, ph, lo, hi, *_ in rows for p in _rate(e, t, ph, lo, hi, f"n={n}")]
    runs = [[r["n"], r["trials"], r["errors"], r["p_hat"], r["ci_lo"], r["ci_hi"], r["seed"],
             r["scheme_kind"], r["channel_kind"]] for r in obj["runs"]]
    return problems + diff(rows, runs, "csv vs json")


def _simulate_macfb(rows, obj) -> list[str]:
    problems = []
    if obj["delivered_blocks"] != len(rows):
        problems.append("delivered_blocks != csv rows")
    if any(msg != max(pair, third) for _, _, pair, third, msg in rows):
        problems.append("message error is not max(pair, third)")
    for col, kind in enumerate(("sum", "pair", "third", "message"), start=1):
        if obj["events"][kind]["errors"] != sum(row[col] for row in rows):
            problems.append(f"{kind} errors disagree with the csv column")
    if "ptp" in obj:
        ptp = obj["ptp"]
        problems += _rate(ptp["errors"], ptp["trials"], ptp["p_hat"], ptp["ci_lo"], ptp["ci_hi"],
                          "ptp")
    return problems


def _structure_measure(rows, obj) -> list[str]:
    if "rows" in obj:  # codebooks target
        problems = [p for s, t, e, ph, lo, hi, *_ in rows for p in _rate(e, t, ph, lo, hi, s)]
        linear = rows[0]
        if not 1 <= linear[6] <= 2 ** obj["k"]:
            problems.append("linear sumset larger than the code")
        return problems
    tvs = [row[3] for row in rows]
    problems = [] if min(tvs) >= 0.0 else ["negative tv distance"]
    if obj["min_tv"] != min(tvs) or obj["satisfied"] != (
            obj["min_tv"] >= obj["bound"] - obj["grid_slack"]):
        problems.append("min_tv or satisfied disagrees with the samples")
    return problems


def _frontier(rows, obj) -> list[str]:
    problems = [] if all(0.0 <= s <= 0.5 for _, s in rows) else ["sigma0 outside [0, 1/2]"]
    points = [[p["gamma"], p["sigma0"]] for p in obj["points"]]
    return problems + diff(rows, points, "csv vs json")


def _common_parts(rows, obj) -> list[str]:
    ok = all(c >= 0 and h >= -TOL for _, c, h, _ in rows)
    return [] if ok else ["negative component count or entropy"]


def _verify_lemmas(rows, obj) -> list[str]:
    return [] if obj["ok"] and rows[0][-1] is True else ["lemma check not ok"]


INVARIANTS = {
    "region": _region,
    "simulate-mac": _simulate_mac,
    "simulate-macfb": _simulate_macfb,
    "structure-measure": _structure_measure,
    "frontier": _frontier,
    "common-parts": _common_parts,
    "verify-lemmas": _verify_lemmas,
}


def invariants(subcommand: str, outputs: dict) -> list[str]:
    csv_name, json_name = f"{subcommand}.csv", f"{subcommand}.json"
    if csv_name not in outputs or json_name not in outputs:
        return [f"missing {csv_name} or {json_name}; wrote {sorted(outputs)}"]
    rows = parse_csv(outputs[csv_name])[1:]
    if not rows:
        return [f"{csv_name} has no data rows"]
    try:
        return INVARIANTS[subcommand](rows, outputs[json_name])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def check_step(subcommand: str, outputs: dict, reference: dict | None) -> list[str]:
    problems = invariants(subcommand, outputs)
    if reference is not None:
        problems += compare(outputs, reference)
    return problems


# ---------------------------------------------------------------------------
# golden files


def golden_path(seed: int, workload: str) -> Path:
    return GOLDEN / f"seed-{seed}" / f"{workload}.json.gz"


def load_golden(seed: int, workload: str) -> dict | None:
    """{step name: {"argv": [...], "outputs": {...}}}, or None when not recorded."""
    path = golden_path(seed, workload)
    if not path.exists():
        return None
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save_golden(seed: int, workload: str, steps: dict) -> Path:
    path = golden_path(seed, workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the file bytes a function of its content
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(steps, indent=1, sort_keys=True).encode())
    return path


def self_test() -> None:
    """Raise AssertionError unless the check flags both perturbed outputs."""
    golden = load_golden(0, "blocklength-sim")
    if golden is None:
        raise AssertionError("self-test needs the seed-0 blocklength-sim golden file")
    outputs = golden["mac-linear"]["outputs"]
    assert not check_step("simulate-mac", outputs, outputs), "unchanged copy flagged"

    nudged = copy.deepcopy(outputs)
    nudged["simulate-mac.json"]["source"]["p1"] += 1e-13
    assert not check_step("simulate-mac", nudged, outputs), "1e-13 float move flagged"

    moved = copy.deepcopy(outputs)
    moved["simulate-mac.json"]["runs"][0]["ci_hi"] += 1e-9
    assert check_step("simulate-mac", moved, outputs), "float moved by 1e-9 not flagged"

    off = copy.deepcopy(outputs)
    rows = off["simulate-mac.csv"].splitlines()
    cells = rows[1].split(",")
    cells[2] = str(int(cells[2]) + 1)  # errors column
    rows[1] = ",".join(cells)
    off["simulate-mac.csv"] = "\n".join(rows) + "\n"
    assert check_step("simulate-mac", off, outputs), "error count off by one not flagged"


if __name__ == "__main__":
    self_test()
    print("output check self-test passed: 1e-9 float move and off-by-one count both flagged")
    sys.exit(0)
