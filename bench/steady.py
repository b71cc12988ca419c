"""Steadiness check: two sets of seeds 1..N on every workload, against the bounds.

    python3 bench/steady.py [--seeds 10] [--baseline bench/BASELINE.json]

It makes two sets of runs of the same code.  For every end-to-end metric it
prints the quartile spread (Q3 - Q1) of each set's runs as a share of their
median, beside the bound in BENCHMARK.json, and how much worse the second
set's median is than the first's.  It reports two results of its own:

- timing: fails when a spread or a median shift exceeds its bound;
- parity: fails when any request's node or row count differs between two
  runs, as the search must be deterministic.

The exit status is 0 when both pass, plus 1 when timing fails and 2 when
parity fails.  With --baseline it also makes one traced run per workload
and writes the medians, the per-layer numbers, the Python version,
os.cpu_count() and the git commit to that file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out" / "steady"
WORKLOADS = ("search", "certify", "analyze")
SETS = 2


def run_once(workload, seed, seconds, trace, tag):
    out = OUT / f"{tag}-{workload}-{seed}-{trace}.json"
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stdout[-3000:]}{done.stderr[-3000:]}")
    return json.loads(done.stdout.splitlines()[-1]), json.loads(out.read_text())


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--baseline")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = range(1, args.seeds + 1)
    OUT.mkdir(parents=True, exist_ok=True)
    values = {}   # (set, workload, metric) -> [values]
    counts = {}   # (workload, request id) -> {(nodes, rows)}
    wall = {}     # (workload, metric) -> [unscaled values], shown but not checked
    for s in range(SETS):
        for seed in seeds:
            for w in WORKLOADS:
                result, detail = run_once(w, seed, seconds, 0, f"set{s}")
                for k, m in result["metrics"].items():
                    values.setdefault((s, w, k), []).append(m["value"])
                for k, v in detail["wall_clock"].items():
                    wall.setdefault((w, k), []).append(v)
                for rid, c in detail["counts"].items():
                    counts.setdefault((w, rid), set()).add((c["nodes"], c["rows"]))
                print(f"set {s} seed {seed} {w}: " + "  ".join(
                    f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
    timing_ok = True
    print(f"\n{'workload':9s} {'metric':16s} {'median 0':>12s} {'median 1':>12s} "
          f"{'spread 0':>8s} {'spread 1':>8s} {'worse':>7s} {'bound':>6s}")
    for w in WORKLOADS:
        for k, m in metrics.items():
            sets = [values[(s, w, k)] for s in range(SETS)]
            med = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            worse = (med[1] - med[0]) / med[0]
            if m["better"] == "higher":
                worse = -worse
            flag = ""
            if max(spreads) > m["bound"]:
                flag += "  SPREAD OVER BOUND"
            if worse > m["bound"]:
                flag += "  MEDIAN WORSE OVER BOUND"
            timing_ok &= not flag
            print(f"{w:9s} {k:16s} {med[0]:12.6g} {med[1]:12.6g} {spreads[0]:8.4f} "
                  f"{spreads[1]:8.4f} {worse:7.4f} {m['bound']:6.3f}{flag}")
    print("\nwall clock, unscaled (not checked), both sets:")
    for (w, k), vals in wall.items():
        print(f"{w:9s} {k:16s} {statistics.median(vals):12.6g} {spread(vals):8.4f}")
    unequal = {key: sorted(map(str, v)) for key, v in counts.items() if len(v) > 1}
    for (w, rid), seen in sorted(unequal.items())[:20]:
        print(f"COUNTS DIFFER {w} {rid}: {seen}")
    print(f"\ntiming: {'pass' if timing_ok else 'FAIL'}")
    print(f"parity: {'pass' if not unequal else 'FAIL'} ({len(counts)} request node and row "
          f"counts compared over {SETS * args.seeds} runs a workload, {len(unequal)} differ)")
    if args.baseline:
        write_baseline(Path(args.baseline), values, seconds, seeds)
    return (0 if timing_ok else 1) + (0 if not unequal else 2)


def write_baseline(path, values, seconds, seeds):
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    base = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "commit": commit, "run_seconds": seconds,
            "seeds": list(seeds), "sets": SETS, "workloads": {}}
    for w in WORKLOADS:
        med = {}
        for (s, w2, k), vals in values.items():
            if w2 == w:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med.setdefault(k, []).append({"median": statistics.median(vals),
                                              "q1": q1, "q3": q3})
        result, detail = run_once(w, seeds[0], seconds, 1, "baseline")
        base["workloads"][w] = {"end_to_end": med,
                                "per_layer": {k: m["value"] for k, m in result["metrics"].items()},
                                "requests": detail["requests"]}
    path.write_text(json.dumps(base, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
