"""One repetition of a workload in a fresh interpreter, as a CLI user runs it.

Usage: child.py SPEC.json    run the spec's commands, write its result file
       child.py --probe      import trimac.cli, print the ready time, exit

The first thing this process does is import `trimac.cli`; the
`time.perf_counter()` reading taken right after it is reported, and the
parent subtracts its own reading from just before the spawn (both read
CLOCK_MONOTONIC) to get the set-up time.  Module caches start cold.
"""

import sys
import time

import trimac.cli  # the set-up being timed

READY = time.perf_counter()

import calib  # noqa: E402

READY_SPEED = calib.speed_now()  # host speed just after the set-up

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": " ".join(str(blas.get(key, "")) for key in
                         ("name", "version", "openblas configuration")).strip(),
        "trimac": os.path.dirname(trimac.__file__),
    }


def _bytes_in(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir()) if path.is_dir() else 0


def main() -> int:
    if sys.argv[1:] == ["--probe"]:
        print(repr(READY), repr(READY_SPEED))
        return 0
    spec = json.loads(Path(sys.argv[1]).read_text())
    if not trimac.__file__.startswith(spec["src"]):
        print(f"trimac imported from {trimac.__file__}, not from {spec['src']}", file=sys.stderr)
        return 3
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    out_root = Path(spec["out_root"])
    # the host-speed meter stays off in traced runs: its probes would land
    # inside spans
    meter = None if tracer else calib.Meter()
    if meter:
        meter.start()
    steps = []
    for name, argv in spec["steps"]:
        out = out_root / name
        if meter:
            meter.between()
        probed = meter.busy_s if meter else 0.0
        start = time.perf_counter()
        try:
            rc = sys.modules["trimac.cli"].run([*argv, "--out-dir", str(out)])
        except Exception:  # noqa: BLE001 - any crash is a failed command
            traceback.print_exc()
            rc = 1
        end = time.perf_counter()
        seconds = end - start - ((meter.busy_s - probed) if meter else 0.0)
        steps.append({"name": name, "rc": rc, "s": seconds, "span": [start, end],
                      "bytes": _bytes_in(out)})
    if meter:
        meter.stop()
        for step in steps:
            step["speed"] = meter.speed(*step["span"])
            step["scaled_s"] = step["s"] * step["speed"]
    result = {
        "ready": READY,
        "ready_speed": READY_SPEED,
        "steps": steps,
        "speed_samples": meter.samples if meter else [],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    }
    if tracer is not None:
        result["trace"] = tracing.summarize(tracer.spans)
        tracing.dump(tracer.spans, spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
