"""Worker process: runs one workload's requests in a closed loop.

Reads {"requests", "seed", "seconds", "trace", "spans_out"} as JSON on stdin
and writes one JSON result on stdout.  One client sends requests one after
another, with no threads, in whole rounds over the request list, each round
in its own seeded order, until `seconds` of request time have passed.
Before each request it times a fixed calibration kernel, so each request's
time can also be given at a reference machine speed (see `scaled`).  With
trace set it runs an untraced half and then a traced half, so the two
throughputs give the tracing overhead; the wrappers are removed before any
untimed work.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

# A request's scaled time is its time times CALIBRATION_REF_S over the median
# calibration time of the CALIBRATION_WINDOW requests on each side of it: its
# time on a machine where the kernel takes exactly CALIBRATION_REF_S, about
# its fastest time on the 2-vCPU VM the benchmark was defined on.
CALIBRATION_REF_S = 0.5e-3
CALIBRATION_WINDOW = 10


def calibration_kernel():
    """Fixed pure-Python work, independent of ocdc: dict, set, list and
    small-int operations, about the mix the interpreter runs for ocdc."""
    counts, pairs, keys = {}, set(), []
    for i in range(1500):
        k = (i * 7919) % 1021
        counts[k] = counts.get(k, 0) + 1
        if k & 1:
            pairs.add((k, i & 15))
        keys.append(k)
    keys.sort()
    return len(pairs) + len(counts) + keys[-1]


def scaled(latencies, calibrations):
    """Each latency at the reference speed of CALIBRATION_REF_S."""
    out = []
    for j, dt in enumerate(latencies):
        near = calibrations[max(0, j - CALIBRATION_WINDOW):j + CALIBRATION_WINDOW + 1]
        out.append(dt * CALIBRATION_REF_S / statistics.median(near))
    return out


def drive(reqs, inputs, seconds, rng, rec=None):
    """Whole rounds of request time close to `seconds`; returns the run record.

    Another round starts only if it is expected to end less than half a
    round past `seconds`, so a run lasts seconds +- half a round.  Each
    round runs the requests in a new order drawn from `rng`: a request's
    time depends on the ones run before it (through the allocator's state),
    by up to a fifth for the same certify request, so its median over
    rounds covers several orders.  Each request starts after a full
    collection (untimed), so it pays for the collections its own
    allocations trigger and not for garbage the one before it left; without
    that, the order decides which request absorbs a collection, and a 2 ms
    request measured 22 ms in every round of one order.
    """
    done, latencies, calibrations, errors, first = [], [], [], {}, {}
    decided = settled = 0
    busy = 0.0
    rounds = 0
    while rounds == 0 or busy + 0.5 * busy / rounds < seconds:
        order = list(range(len(reqs)))
        rng.shuffle(order)
        for i in order:
            req, inp = reqs[i], inputs[i]
            rid = req["id"]
            if rec is not None:
                rec.request = rid
            gc.collect()
            t0 = time.perf_counter()
            calibration_kernel()
            calibrations.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            try:
                result = workloads.execute(req, inp)
            except Exception as exc:  # a raising request is a failed request, not a crash
                result, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            dt = time.perf_counter() - t0
            if rec is not None:
                rec.request = None
            busy += dt
            done.append(i)
            latencies.append(dt)
            if error is not None:
                errors[rid] = error
                continue
            settled += 1
            ok, nodes = workloads.outcome(req, result)
            decided += ok
            if rid not in first:
                first[rid] = {"decided": ok, "nodes": nodes,
                              "summary": workloads.summary(req, result)}
            elif (first[rid]["decided"], first[rid]["nodes"]) != (ok, nodes):
                errors[rid] = f"outcome changed between rounds: {first[rid]['nodes']} -> {nodes}"
        rounds += 1
    scaled_latencies = scaled(latencies, calibrations)

    def by_request(values):
        out = [[] for _ in reqs]
        for i, value in zip(done, values):
            out[i].append(value)
        return out

    return {"latencies": by_request(latencies), "busy": busy,
            "scaled": by_request(scaled_latencies), "scaled_busy": sum(scaled_latencies),
            "calibrations": calibrations, "attempted": len(done), "rounds": rounds,
            "decided": decided, "settled": settled, "errors": errors, "first": first}


def main():
    spec = json.load(sys.stdin)
    import ocdc
    src = Path(spec["src"]).resolve()
    if src not in Path(ocdc.__file__).resolve().parents:
        raise SystemExit(f"ocdc imported from {ocdc.__file__}, not from {src}")
    reqs = spec["requests"]
    inputs = [workloads.prepare(r) for r in reqs]
    gc.collect()
    gc.freeze()  # the per-request collections need not scan the inputs again
    rng = random.Random(spec["seed"])
    out = {}
    if spec["trace"]:
        plain = drive(reqs, inputs, spec["seconds"] / 2, rng)
        rec = spans.Recorder()
        undo = spans.install(rec)
        try:
            run = drive(reqs, inputs, spec["seconds"] / 2, rng, rec)
        finally:
            spans.uninstall(undo)
        layers = spans.layer_metrics(rec.spans, run["busy"])
        # Scaled, as the two halves may run at different machine speeds.
        traced_vps = run["settled"] / run["scaled_busy"]
        plain_vps = plain["settled"] / plain["scaled_busy"]
        layers["trace.verdicts_per_s"] = traced_vps
        layers["trace.untraced_verdicts_per_s"] = plain_vps
        layers["trace.overhead_pct"] = 100.0 * (plain_vps - traced_vps) / plain_vps
        out["layers"] = layers
        path = Path(spec["spans_out"])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in rec.spans:
                fh.write(json.dumps(span[:6]) + "\n")
        for rid, error in plain["errors"].items():
            run["errors"].setdefault(rid, error)
    else:
        run = drive(reqs, inputs, spec["seconds"], rng)
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    counts = {}
    for req, inp in zip(reqs, inputs):
        rid = req["id"]
        nodes = run["first"].get(rid, {}).get("nodes")
        counts[rid] = {"nodes": nodes, "rows": workloads.rows(req, inp)}
        if rid in run["first"]:
            run["first"][rid]["summary"]["inputs"] = workloads.input_counts(req, inp)
    out["counts"] = counts
    out.update(run)
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
