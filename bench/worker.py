"""One workload in one process: build the inputs, run passes, report.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace PATH] [--setup-only]

Prints one JSON line.  ``ready`` is the ``time.monotonic()`` reading when
the inputs were built; the parent subtracts its own reading from before
the spawn to get the set-up time.  With ``--trace PATH`` the spans go to
PATH as JSON lines and the per-layer metrics come back in the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_package():
    """Import stepcross from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import stepcross

    if SRC.resolve() not in Path(stepcross.__file__).resolve().parents:
        raise SystemExit(f"stepcross imported from {stepcross.__file__}, not from {SRC}")


def run_passes(workload, seconds: float, known: dict, tracer=None) -> dict:
    """Run whole passes until ``seconds`` have gone by; time every item."""
    records = []
    passes = 0
    item_no = 0
    start = time.perf_counter()
    while True:
        batch = workload.items(passes)
        done = []
        for item in batch:
            if tracer is not None:
                tracer.item = item_no
            t0 = time.perf_counter()
            try:
                failures = list(item.run())
            except Exception as exc:  # an item that raises is a failed item
                failures = [f"raised {type(exc).__name__}: {exc}"]
            t1 = time.perf_counter()
            done.append((item, t1 - t0, failures))
            item_no += 1
        extra = workload.end_of_pass([item for item, _, _ in done])
        for item, dt, failures in done:
            checks = failures + extra.get(item.label, [])
            records.append({"label": item.label, "group": item.group, "pass": passes,
                            "seconds": dt,
                            "failures": [{"check": c, "known": known.get((item.label, c))}
                                         for c in checks]})
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    if tracer is not None:
        tracer.item = -1
    return {"wall_s": time.perf_counter() - start, "passes": passes,
            "items_per_pass": len(records) // passes, "records": records}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", default=None, help="write spans here and report layers")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_package()
    sys.path.insert(0, str(HERE))
    import numpy
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        workload = workloads.SETUPS[args.workload](args.seed)
        ready = time.monotonic()
        out = {"ready": ready, "numpy": numpy.__version__}
        if not args.setup_only:
            out.update(run_passes(workload, args.seconds, workloads.KNOWN_FAILURES, tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write_jsonl(args.trace)
        out["layers"] = tracing.layer_metrics(tracer.spans, out["passes"])
        out["layer_units"] = {k: u for k, (u, _) in tracing.layer_metric_table().items()}
        out["span_count"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
