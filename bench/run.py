"""The stepcross benchmark.

    python3 bench/run.py                                  # every workload, untraced then traced
    python3 bench/run.py --workload cross_sets --seed 1 --seconds 10 --trace 0

Each workload runs in a fresh single-threaded process (bench/worker.py)
started from the root of the checkout, with BLAS and OpenMP pinned to one
thread.  Set-up time is measured in that process and in SETUP_PROBES
further processes that only build the inputs; the median is reported.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  A results file stamped with the environment goes to
bench/results/.  See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("besov_equiv", "cross_sets", "rates_witness", "battery_quick")
SETUP_PROBES = 4
# one workload, set-up probes included, must end well inside three minutes
DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
                    "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    # compile from source every time, so no run pays for (or skips) caching
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(workload: str, seed: int, seconds: float, deadline: float,
          trace: Path | None = None, setup_only: bool = False) -> tuple[float, dict]:
    """Run the worker once; returns (set-up seconds, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    timeout = deadline - started
    if timeout <= 0:
        raise BenchError(f"{workload}: no time left before the deadline")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker exceeded {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    out = json.loads(lines[-1])
    return out["ready"] - started, out


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(result: dict, setups: list[float]) -> dict:
    """End-to-end numbers and the failure list from one worker result."""
    records = result["records"]
    ok = [r for r in records if not r["failures"]]
    failures = [{"item": r["label"], "pass": r["pass"], **f}
                for r in records for f in r["failures"]]
    ms = [r["seconds"] * 1e3 for r in records]
    return {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "passes": result["passes"],
        "items_per_pass": result["items_per_pass"],
        "wall_s": result["wall_s"],
        "metrics": {
            "setup_s": statistics.median(setups),
            "items_per_s": len(ok) / result["wall_s"],
            "item_p50_ms": percentile(ms, 50),
            "peak_rss_mib": result["peak_rss_mib"],
        },
        "fail_frac": (len(records) - len(ok)) / len(records),
        "item_p90_ms": percentile(ms, 90) if len(records) >= 100 else None,
        "failures": failures,
        "setup_samples_s": setups,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"{workload}_seed{seed}_spans.jsonl" if trace else None
    setup, result = spawn(workload, seed, seconds, deadline, trace=spans)
    setups = [setup]
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(workload, seed, seconds, deadline, setup_only=True)[0])
    summary = summarize(result, setups)
    summary["correct"] = all(f["known"] for f in summary["failures"])
    if trace:
        summary["layers"] = result["layers"]
        summary["layers"]["harness.traced_items_per_s"] = summary["metrics"]["items_per_s"]
        summary["layer_units"] = result["layer_units"]
        summary["span_count"] = result["span_count"]
        summary["spans_file"] = str(spans.relative_to(ROOT))
    summary["numpy"] = result["numpy"]
    summary["records"] = result["records"]
    return summary


def environment(seed: int) -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "platform": platform.platform(),
            "seed": seed, "threads": {v: "1" for v in THREAD_VARS}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append("L{} {} {}".format(*((idx / f).read_text().strip()
                                               for f in ("level", "type", "size"))))
        except OSError:
            pass
    info["caches"] = caches
    try:
        # the ceiling keeps git from reporting an enclosing repository
        info["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        info["git_commit"] = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stepcross").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    return info


def print_summary(workload: str, s: dict, trace: bool) -> None:
    head = f"{workload:<14}"
    print(f"{head}items          {s['attempted']} ({s['passes']} passes of "
          f"{s['items_per_pass']}, {s['wall_s']:.2f} s)")
    if trace:
        for name, value in s["layers"].items():
            print(f"{head}{name:<44} {value:.6g}")
        print(f"{head}spans          {s['span_count']} -> {s['spans_file']}")
    else:
        for name, value in s["metrics"].items():
            print(f"{head}{name:<14} {value:.6g} {END_TO_END_UNITS[name]}")
        print(f"{head}fail_frac      {s['fail_frac']:.6g} ratio")
        if s["item_p90_ms"] is not None:
            print(f"{head}item_p90_ms    {s['item_p90_ms']:.6g} ms")
    for f in s["failures"]:
        tag = f"known defect: {f['known']}" if f["known"] else "UNEXPECTED"
        print(f"{head}failed         {f['item']}: {f['check']} ({tag})")


def result_metrics(s: dict, trace: bool) -> dict:
    """The metrics of the final JSON line, each with its unit."""
    if trace:
        return {k: {"value": v, "unit": s["layer_units"][k]} for k, v in s["layers"].items()}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in s["metrics"].items()}


def write_results(name: str, payload: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / name).write_text(json.dumps(payload, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="1: per-layer metrics from a traced run (default with "
                         "--workload all: both)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "stepcross" / "__init__.py").is_file():
        print("error: no stepcross sources under src/", file=sys.stderr)
        return 1
    env = environment(args.seed)
    try:
        if args.workload != "all":
            trace = bool(args.trace)
            s = run_workload(args.workload, args.seed, args.seconds, trace)
            env["numpy"] = s["numpy"]
            print_summary(args.workload, s, trace)
            write_results(f"{args.workload}_seed{args.seed}_trace{int(trace)}.json",
                          {"env": env, "workload": args.workload, "seconds": args.seconds,
                           **s})
            print(json.dumps({"correct": s["correct"], "attempted": s["attempted"],
                              "failed": s["failed"], "metrics": result_metrics(s, trace)}))
            return 0
        return run_all(args, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run_all(args, env: dict) -> int:
    modes = (False, True) if args.trace is None else (bool(args.trace),)
    combined = {}
    rows = []
    for name in WORKLOADS:
        rate = {}
        for trace in modes:
            s = run_workload(name, args.seed, args.seconds, trace)
            env["numpy"] = s["numpy"]
            print_summary(name, s, trace)
            combined[f"{name}_trace{int(trace)}"] = s
            rate[trace] = s["metrics"]["items_per_s"]
        if len(rate) == 2:
            rows.append((name, rate[False], rate[True]))
    if rows:
        print("tracing overhead: workload, untraced items_per_s, traced items_per_s, ratio")
        for name, off, on in rows:
            print(f"  {name:<14} {off:.4g} {on:.4g} {off / on if on else float('inf'):.3f}")
    write_results(f"all_seed{args.seed}.json",
                  {"env": env, "seconds": args.seconds, "runs": combined,
                   "tracing_overhead": [{"workload": n, "untraced_items_per_s": a,
                                         "traced_items_per_s": b} for n, a, b in rows]})
    runs = combined.values()
    metrics = {f"{k}.{m}": v for k, s in combined.items()
               for m, v in result_metrics(s, k.endswith("1")).items()}
    print(json.dumps({"correct": all(s["correct"] for s in runs),
                      "attempted": sum(s["attempted"] for s in runs),
                      "failed": sum(s["failed"] for s in runs), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
