"""trimac benchmark: seeded CLI workloads, output checks, a traced per-module run.

    python3 perfbench/run.py --workload single-letter --seed 0 --seconds 42 --trace 0

Each repetition runs the workload's commands in order (a closed loop with
one client) in a fresh interpreter, which imports trimac from ./src and
calls `trimac.cli.run(argv)` per command.  Repetitions continue while
another one should end within --seconds, with at least one.  With --trace 1 every untraced
repetition is followed by a traced one, and the per-layer metrics come
from the traced ones.  Metric names and units are read from BENCHMARK.json.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  --record writes the golden outputs for the seed instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads
from tracer import FIELDS, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "_results"
SETUP_PROBES = 5  # extra set-up-only interpreters per run; set-up is noisy
CHILD_TIMEOUT_S = 170
# one BLAS/OpenMP thread per process: the decoders already run one trial
# per core on a thread pool, and a default-size BLAS pool oversubscribes it
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed command)."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TRIMAC_OUT_DIR"}
    env.update(THREAD_ENV, PYTHONPATH=str(SRC))
    return env


def _spawn(args: list[str], log: Path) -> float:
    """Run child.py to completion; returns the clock reading from just before the spawn."""
    t0 = time.perf_counter()
    with open(log, "w") as fh:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], env=_child_env(),
                              stdout=fh, stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:\n{log.read_text()[-2000:]}")
    return t0


def setup_probe(tag: str) -> dict:
    """Seconds from spawning an interpreter through `import trimac.cli`.

    `s` is the wall time, `scaled_s` the same scaled by the host speed
    measured right after the import (see calib.py).
    """
    log = WORK / f"{tag}.log"
    t0 = _spawn(["--probe"], log)
    ready, speed = map(float, log.read_text().split()[-2:])
    return {"s": ready - t0, "scaled_s": (ready - t0) * speed}


def run_rep(steps: list[workloads.Step], trace: bool, tag: str) -> dict:
    spec = {
        "src": str(SRC),
        "trace": trace,
        "out_root": str(WORK / tag),
        "result": str(WORK / f"{tag}.result.json"),
        "spans": str(WORK / f"{tag}.spans.json.gz"),
        "steps": [[s.name, list(s.argv)] for s in steps],
    }
    spec_path = WORK / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    t0 = _spawn([str(spec_path)], WORK / f"{tag}.log")
    result = json.loads(Path(spec["result"]).read_text())
    seconds = result["ready"] - t0
    result["setup"] = {"s": seconds, "scaled_s": seconds * result["ready_speed"]}
    result["traced"] = trace
    return result


def _without_workers(argv) -> list[str]:
    argv = list(argv)
    if "--workers" in argv:
        i = argv.index("--workers")
        del argv[i:i + 2]
    return argv


def check_rep(steps, rep: dict, tag: str, golden: dict | None, first: dict) -> list[str]:
    """Check every command of one repetition; returns one line per failed command.

    `first` collects the outputs of the first repetition, the reference
    for later ones when the seed has no golden files.
    """
    failures = []
    for step, ran in zip(steps, rep["steps"]):
        outputs = check.read_outputs(WORK / tag / step.name)
        if ran["rc"] != 0:
            problems = [f"exit code {ran['rc']}"]
        elif golden is not None:
            want = golden.get(step.name)
            if want is None or _without_workers(want["argv"]) != _without_workers(step.argv):
                problems = ["golden file was recorded for other inputs"]
            else:
                problems = check.check_step(step.argv[0], outputs, want["outputs"])
        else:
            problems = check.check_step(step.argv[0], outputs, first.get(step.name))
            first.setdefault(step.name, outputs)
        ran["problems"] = problems[:5]
        if problems:
            failures.append(f"{tag}/{step.name}: {'; '.join(problems[:3])}")
    return failures


# ---------------------------------------------------------------------------
# metrics


def _step_medians(reps, key: str) -> list[float]:
    """Each command's median time over the repetitions.

    Medians per command, summed, resist the second-long slow phases of a
    shared host better than the median of whole-repetition sums.
    """
    per_rep = [[step[key] for step in rep["steps"]] for rep in reps]
    return [statistics.median(times) for times in zip(*per_rep)]


def end_to_end(steps, reps, setups, attempted, failed, key="scaled_s") -> dict:
    """The end-to-end metrics from scaled times, or from wall times with key="s"."""
    plain = [r for r in reps if not r["traced"]]
    med = _step_medians(plain, key)
    by_role = {role: sum(m for m, s in zip(med, steps) if s.role == role)
               for role in ("head", "sweep")}
    return {
        "setup_s": statistics.median(setup[key] for setup in setups),
        "wall_s": sum(med),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        "ok_frac": (attempted - failed) / attempted,
        "head_s": by_role["head"],
        "sweep_units_per_s": sum(s.units for s in steps) / by_role["sweep"],
    }


def _layer_value(name: str, table: dict, rep: dict):
    """One per-layer metric from a traced repetition's span table."""
    if name == "cli.bytes_written":
        return sum(s["bytes"] for s in rep["steps"])
    if name == "trace.wall_s":
        return sum(s["s"] for s in rep["steps"])
    if name == "trace.self_sum_s":
        return sum(row["self_s"] for row in table.values())
    if name.startswith("coding.decode."):
        decode = [row for key, row in table.items() if key.startswith("coding.")]
        field = name.rsplit(".", 1)[1]
        count = {k: sum(row.get(f"decode.{k}", 0) for row in decode)
                 for k in ("attempts", "ok", "tie", "zero_likelihood")}
        if field == "ok_ratio":
            return count["ok"] / count["attempts"] if count["attempts"] else 0.0
        return count[field]
    layer, _, rest = name.partition(".")
    if layer not in LAYERS:
        raise BenchError(f"per-layer metric {name!r} names no layer")
    if rest == "self_s":
        return sum(row["self_s"] for key, row in table.items() if key.startswith(layer + "."))
    function, _, field = name.rpartition(".")
    if field not in FIELDS:  # a misspelt counter would silently read as zero
        raise BenchError(f"per-layer metric {name!r} has no field {field!r}")
    return table.get(function, {}).get(field, 0)


def per_layer(names, reps) -> dict:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            # traced repetitions run without the meter: compare wall times
            values[name] = sum(_step_medians(traced, "s")) - sum(_step_medians(plain, "s"))
        else:
            values[name] = statistics.median(_layer_value(name, r["trace"], r) for r in traced)
    return values


# ---------------------------------------------------------------------------


def _environment(nproc: int, env: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "trimac").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"commit": commit, "src_sha256": digest.hexdigest(), "nproc": nproc,
            "workers": nproc, "threads": THREAD_ENV, **env}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run once and write the golden outputs for this seed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "trimac" / "cli.py").is_file():
        print(f"no trimac sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not args.record:
        check.self_test()
    nproc = len(os.sched_getaffinity(0))
    steps = workloads.build(args.workload, args.seed, nproc)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    golden = None if args.record else check.load_golden(args.seed, args.workload)

    setup_probe("warm-up")  # byte-compiles the sources once, untimed
    start = time.perf_counter()
    probes = 0 if args.record else SETUP_PROBES
    setups = [setup_probe(f"probe-{i}") for i in range(probes)]
    reps, failures, first = [], [], {}
    rounds_start = time.perf_counter()
    while True:
        for traced in (False, True) if args.trace else (False,):
            tag = f"rep-{len(reps)}"
            rep = run_rep(steps, traced, tag)
            failures += check_rep(steps, rep, tag, golden, first)
            reps.append(rep)
            setups.append(rep["setup"])
            if not args.record:
                shutil.rmtree(WORK / tag)
        # start another round only if it should end within --seconds
        now = time.perf_counter()
        rounds = len(reps) // (2 if args.trace else 1)
        if args.record or now + (now - rounds_start) / rounds > start + args.seconds:
            break

    attempted = len(steps) * len(reps)
    if args.record:
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        recorded = {s.name: {"argv": list(s.argv),
                             "outputs": check.read_outputs(WORK / "rep-0" / s.name)}
                    for s in steps}
        print(f"wrote {check.save_golden(args.seed, args.workload, recorded)}")
        return 0

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(names, reps)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        computed = end_to_end(steps, reps, setups, attempted, len(failures))
        missing = set(names) - set(computed)
        if missing:
            raise BenchError(f"BENCHMARK.json names metrics the benchmark lacks: {sorted(missing)}")
        values = {name: computed[name] for name in names}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": _environment(nproc, reps[0]["env"]),
        "golden_checked": golden is not None, "setup_samples_s": setups,
        "steps": [{"name": s.name, "role": s.role, "argv": list(s.argv)} for s in steps],
        "reps": [{k: r[k] for k in ("traced", "setup", "peak_rss_mib", "speed_samples", "steps")}
                 for r in reps],
        "failures": failures, "metrics": metrics,
    }
    if not args.trace:
        record["unscaled_metrics"] = end_to_end(steps, reps, setups, attempted, len(failures),
                                                key="s")
    if args.trace:
        record["span_tables"] = [r["trace"] for r in reps if r["traced"]]
    RESULTS.mkdir(exist_ok=True)
    if args.trace:  # the spans of the last (traced) repetition
        shutil.move(WORK / f"rep-{len(reps) - 1}.spans.json.gz",
                    RESULTS / f"{args.workload}-seed{args.seed}.spans.json.gz")
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    for line in failures:
        print(f"FAILED {line}")
    check_kind = "golden" if golden is not None else "invariants+repeat"
    print(f"{args.workload} seed={args.seed} reps={len(reps)} check={check_kind} "
          f"commit={record['env']['commit'][:12]} result={out.relative_to(ROOT)}")
    for name in names:
        print(f"  {name:42s} {values[name]:>14.6g} {units[name]}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError, AssertionError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
