"""ocdc benchmark: one command, three workloads, every verdict checked.

    python3 bench/run.py --workload search|certify|analyze|all \\
        --seed N --seconds S --trace 0|1 [--out detail.json]

Run from anywhere; the program is imported from `src/` next to this
directory.  Each workload's requests run in a fresh worker process (its
peak RSS is that process's), in a closed loop with one client.  With
--trace 0 the last line of output is the end-to-end metrics as JSON; with
--trace 1 it is the per-layer metrics of a traced run.  Timings are given
at a reference machine speed (see NOTES.md); the table before the JSON line
also prints them unscaled.  A wrong or missing verdict makes the command
exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 8  # before the worker, and as many after it
# A launch takes up to 1.6 times longer in the slow stretches of the machine
# this was defined on, and a bare interpreter's launch slows with it, so
# setup_s is given at a speed where a bare launch takes this long.
BARE_LAUNCH_REF_S = 0.05
WORKER_TIMEOUT_S = 170

END_TO_END = {"latency_p50_ms": "ms", "latency_p90_ms": "ms", "verdicts_per_s": "1/s",
              "decided_frac": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(code):
    """Seconds from launching an interpreter until `code` prints the time.

    Both clocks are CLOCK_MONOTONIC, which is shared across processes.
    """
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise SystemExit(f"cannot import ocdc from {SRC}:\n{done.stderr.strip()}")
    return float(done.stdout) - t0


def setup_launches(count):
    """(bare, ocdc) seconds per launch: a bare interpreter, then one until
    `import ocdc` returns."""
    return [(launch("import time; print(time.monotonic())"),
             launch("import time, ocdc; print(time.monotonic())")) for _ in range(count)]


def run_worker(reqs, seed, seconds, trace, spans_out):
    spec = {"requests": reqs, "seed": seed, "seconds": seconds, "trace": trace,
            "src": str(SRC), "spans_out": str(spans_out)}
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")], env=_env(), cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker failed ({proc.returncode}):\n{err[-4000:]}")
    return json.loads(out)


def measure(workload, seed, seconds, trace):
    """Run one workload and judge it; returns (result, detail)."""
    setup_launches(1)  # writes the bytecode cache, which users pay once
    setup = setup_launches(SETUP_LAUNCHES)
    reqs = workloads.requests(workload, seed)
    spans_out = BENCH / "out" / f"spans-{workload}-{seed}.jsonl"
    run = run_worker(reqs, seed, seconds, trace, spans_out)
    setup += setup_launches(SETUP_LAUNCHES)
    wrong = oracle.judge_all(workload, reqs, run["first"], run["errors"])
    attempted = run["attempted"]
    failed = run["rounds"] * len(wrong)
    # The machine this was defined on runs the same code up to 1.8 times
    # slower from one stretch of a run to the next, so the timings are
    # scaled to a reference speed by the calibration kernel run beside each
    # request (see worker.py); the wall-clock figures go in the table.
    per_request = [statistics.median(x) for x in run["scaled"]]
    deciles = statistics.quantiles(per_request, n=10, method="inclusive")
    e2e = {"latency_p50_ms": 1e3 * statistics.median(per_request),
           "latency_p90_ms": 1e3 * deciles[8],
           "verdicts_per_s": run["settled"] / run["scaled_busy"],
           "decided_frac": run["decided"] / attempted,
           "peak_rss_mb": run["rss_kb"] / 1024,
           "setup_s": statistics.median(t * BARE_LAUNCH_REF_S / bare for bare, t in setup)}
    wall = [statistics.median(x) for x in run["latencies"]]
    wall_clock = {"latency_p50_ms": 1e3 * statistics.median(wall),
                  "latency_p90_ms": 1e3 * statistics.quantiles(wall, n=10,
                                                               method="inclusive")[8],
                  "verdicts_per_s": run["settled"] / run["busy"],
                  "setup_s": statistics.median(t for _, t in setup),
                  "calibration_ms": 1e3 * statistics.median(run["calibrations"]),
                  "bare_launch_s": statistics.median(bare for bare, _ in setup)}
    if trace:
        units = spans.metric_names()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in run["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "requests": len(reqs), "rounds": run["rounds"], "samples": attempted,
              "failed_frac": failed / attempted, "end_to_end": e2e, "wall_clock": wall_clock,
              "wrong": wrong, "counts": run["counts"], "layers": run.get("layers"),
              "latency_ms_by_request": {
                  r["id"]: [1e3 * x for x in run["latencies"][i]] for i, r in enumerate(reqs)},
              "scaled_ms_by_request": {
                  r["id"]: [1e3 * x for x in run["scaled"][i]] for i, r in enumerate(reqs)}}
    return result, detail


def report(workload, result, detail):
    """Human-readable table; the JSON result line comes after it."""
    print(f"# {workload}: {detail['requests']} requests x {detail['rounds']} rounds = "
          f"{detail['samples']} runs of a request; latencies are each request's median "
          f"round, so percentiles have {detail['requests']} samples; "
          f"failed_frac {detail['failed_frac']:.4f}")
    for name, m in result["metrics"].items():
        print(f"#   {name:40s} {m['value']:14.6g} {m['unit']}")
    print("# wall clock, unscaled (the timings above are at the calibration's reference speed):")
    for name, value in detail["wall_clock"].items():
        print(f"#   {name:40s} {value:14.6g}")
    for rid, reason in list(detail["wrong"].items())[:20]:
        print(f"#   WRONG {rid}: {reason}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write per-request counts and details here")
    args = ap.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results, details = {}, {}
    for name in names:
        results[name], details[name] = measure(name, args.seed, args.seconds, args.trace)
        report(name, results[name], details[name])
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(details if len(names) > 1 else details[names[0]]))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": m for w, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
