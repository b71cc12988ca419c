"""Span recording around calls into the ocdc layers, from outside the program.

`install` replaces each traced function in every `ocdc.*` namespace that
binds it (and each traced method on its class) with a wrapper that records
a span: name, start, end, parent span and the request it belongs to.
`uninstall` puts the originals back and checks that no wrapper is left.
Spans stay in memory; `layer_metrics` turns them into per-layer self times
and counts, where a span's self time is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

# (module, attribute, layer).  The layer is the metric prefix; builders and
# surgeries get one prefix per function.
BUILDERS = ("socdc_complete_odd", "socdc_complete_even", "socdc_complete_bipartite",
            "oppdc_complete_odd", "hamiltonian_decomposition_odd", "socdc_planar",
            "ocdc_cubic_class1", "edge_color_cubic")
SURGERIES = ("merge_at_cutvertex", "merge_2cut", "merge_3edgecut", "join_apex",
             "strip_apex", "prism_p2", "product_cycle_large", "product_lift")
ENGINE = ("find_socdc", "min_ocdc", "find_oppdc", "find_unorientable_cdc", "enumerate_cdcs")
ROWS = ("enumerate_directed_cycles", "enumerate_undirected_cycles", "enumerate_directed_paths")

FUNCTIONS = (
    [("ocdc.search", f, "search.engine") for f in ENGINE]
    + [("ocdc.search", f, "search.rows") for f in ROWS]
    + [("ocdc.search", "counterexample_filter", "search.filter")]
    + [("ocdc.covers", f, "covers.verify")
       for f in ("verify_ocdc", "verify_socdc", "verify_oppdc", "verify_cdc")]
    + [("ocdc.covers", "orient_cdc", "covers.orient")]
    + [("ocdc.graphs", f, "graphs.codec") for f in ("parse_graph6", "emit_graph6")]
    + [("ocdc.graphs", "nontrivial_3_edge_cuts", "graphs.cut3"),
       ("ocdc.graphs", "vertex_connectivity_at_most", "graphs.vcut")]
    + [("ocdc.graphs", f, "graphs.structure")
       for f in ("bridges", "blocks", "girth_and_average_degree")]
    + [("ocdc.builders", f, f"builders.{f}") for f in BUILDERS]
    + [("ocdc.surgery", f, f"surgery.{f}") for f in SURGERIES]
    + [("ocdc.cli", "main", "cli.main")]
)
METHODS = [("ocdc.covers", "CoverCertificate", "verify", "covers.verify"),
           ("ocdc.covers", "CoverCertificate", "to_json", "covers.json"),
           ("ocdc.covers", "CoverCertificate", "from_json", "covers.json")]
GENERATORS = {"enumerate_cdcs"}  # one span per resume, so the consumer's work stays outside


class Recorder:
    """In-memory span store.  Spans are recorded only while `request` is set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [id, parent, name, start, end, request, result]
        self.stack: list[int] = []
        self.request = None

    def call(self, name, fn, args, kwargs):
        if self.request is None:
            return fn(*args, **kwargs)
        span = [len(self.spans), self.stack[-1] if self.stack else None, name,
                0.0, 0.0, self.request, None]
        self.spans.append(span)
        self.stack.append(span[0])
        span[3] = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = self.clock()
            self.stack.pop()
        span[6] = _counts(name, args, kwargs, result)
        return result


def _comb_rank(cut, n):
    """Lexicographic rank of a sorted combination of range(n)."""
    rank, prev = 0, -1
    k = len(cut)
    for i, c in enumerate(cut):
        for v in range(prev + 1, c):
            rank += math.comb(n - v - 1, k - i - 1)
        prev = c
    return rank


def _counts(name, args, kwargs, result):
    """Work counts for one call, computed from its inputs and result."""
    if name in ("find_socdc", "min_ocdc", "find_oppdc"):
        return {"nodes": result.nodes_expanded, "status": result.status}
    if name in ROWS:
        return {"rows": len(result)}
    if name.startswith("verify_"):
        return {"arcs": sum(len(e) for e in args[1])}
    if name == "CoverCertificate.verify":
        return {"arcs": sum(len(e) for e in args[0].elements)}
    if name in ("CoverCertificate.to_json", "emit_graph6"):
        return {"bytes": len(result)}
    if name in ("CoverCertificate.from_json", "parse_graph6"):
        return {"bytes": len(args[0])}
    if name == "nontrivial_3_edge_cuts":
        return {"triples": math.comb(args[0].m, 3), "found": len(result)}
    if name == "vertex_connectivity_at_most":
        g, k = args[0], args[1]
        sizes = [s for s in range(1, k + 1) if g.n - s >= 2]
        if result is None:
            return {"subsets": sum(math.comb(g.n, s) for s in sizes)}
        before = sum(math.comb(g.n, s) for s in sizes if s < len(result))
        return {"subsets": before + _comb_rank(result, g.n) + 1}
    return None


def _wrap(rec, name, fn):
    if name in GENERATORS:
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        item = rec.call(name, next, (it,), {})
                    except StopIteration:
                        return
                    yield item
            finally:
                it.close()
    else:
        def wrapper(*args, **kwargs):
            return rec.call(name, fn, args, kwargs)
    functools.update_wrapper(wrapper, fn)
    if hasattr(fn, "cache_clear"):
        wrapper.cache_clear = fn.cache_clear
    wrapper._bench_span = True
    return wrapper


def _ocdc_modules():
    return [m for k, m in sorted(sys.modules.items())
            if (k == "ocdc" or k.startswith("ocdc.")) and m is not None]


def install(rec):
    """Wrap every traced function and method; returns the undo list."""
    for modname, *_ in FUNCTIONS + METHODS:
        importlib.import_module(modname)  # bind every name before wrapping any
    undo = []
    try:
        for modname, attr, _ in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = _wrap(rec, attr, original)
            for mod in _ocdc_modules():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        for modname, clsname, attr, _ in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            raw = cls.__dict__[attr]
            name = f"{clsname}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(_wrap(rec, name, raw.__func__)))
            else:
                setattr(cls, attr, _wrap(rec, name, raw))
            undo.append((cls, attr, raw))
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo):
    """Restore the originals, then fail if any wrapper is still bound."""
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)
    left = []
    for mod in _ocdc_modules():
        for key, val in vars(mod).items():
            if getattr(val, "_bench_span", False):
                left.append(f"{mod.__name__}.{key}")
            if isinstance(val, type):
                for attr, raw in vars(val).items():
                    if getattr(getattr(raw, "__func__", raw), "_bench_span", False):
                        left.append(f"{mod.__name__}.{key}.{attr}")
    if left:
        raise RuntimeError(f"span wrappers still installed: {left}")


def layer_of():
    table = {attr: layer for _, attr, layer in FUNCTIONS}
    table.update({f"{cls}.{attr}": layer for _, cls, attr, layer in METHODS})
    return table


def self_times(spans):
    """Self time per span id: duration minus the union of its children."""
    children = defaultdict(list)
    for sid, parent, _, start, end, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, _, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for s, e in sorted(children[sid]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans, request_seconds):
    """Per-layer metrics from spans; request_seconds is the traced request time."""
    layers = layer_of()
    selfs = self_times(spans)
    names = {sid: name for sid, _, name, *_ in spans}
    m = defaultdict(float)
    for key in metric_names():
        m[key] = 0.0
    top = 0.0
    for sid, parent, name, start, end, _, counts in spans:
        layer = layers[name]
        m[f"{layer}.s"] += selfs[sid]
        if layer.startswith(("builders.", "surgery.")):
            m[f"{layer}.calls"] += 1
        if parent is None:
            top += end - start
        if not counts:
            continue
        if layer == "search.engine":
            outer = parent is None or layers[names[parent]] != "search.engine"
            if outer:
                m["search.nodes"] += counts["nodes"]
                key = {"Found": "found", "NoneExists": "none"}.get(counts["status"], "unresolved")
                m[f"search.outcome.{key}"] += 1
        elif layer == "search.rows":
            m["search.rows.count"] += counts["rows"]
        elif layer == "covers.verify":
            # verifiers call each other (verify_socdc -> verify_ocdc); count the outermost
            if parent is None or layers[names[parent]] != "covers.verify":
                m["covers.verify.arcs"] += counts["arcs"]
                m["covers.verify.calls"] += 1
        elif layer == "covers.json":
            m["covers.json.bytes"] += counts["bytes"]
        elif layer == "graphs.codec":
            m["graphs.codec.calls"] += 1
            m["graphs.codec.bytes"] += counts["bytes"]
        elif layer == "graphs.cut3":
            m["graphs.cut3.triples"] += counts["triples"]
            m["graphs.cut3.found"] += counts["found"]
        elif layer == "graphs.vcut":
            m["graphs.vcut.subsets"] += counts["subsets"]
    m["search.nodes_per_s"] = m["search.nodes"] / m["search.engine.s"] if m["search.engine.s"] else 0.0
    m["covers.verify.arcs_per_s"] = (m["covers.verify.arcs"] / m["covers.verify.s"]
                                     if m["covers.verify.s"] else 0.0)
    m["trace.requests.s"] = request_seconds
    m["trace.other.s"] = request_seconds - top
    return dict(m)


def metric_names():
    """Every per-layer metric with its unit, in report order."""
    units = [("search.engine.s", "s"), ("search.nodes", "count"), ("search.nodes_per_s", "1/s"),
             ("search.rows.s", "s"), ("search.rows.count", "count"),
             ("search.outcome.found", "count"), ("search.outcome.none", "count"),
             ("search.outcome.unresolved", "count"), ("search.filter.s", "s"),
             ("covers.verify.s", "s"), ("covers.verify.calls", "count"),
             ("covers.verify.arcs", "count"), ("covers.verify.arcs_per_s", "1/s"),
             ("covers.orient.s", "s"), ("covers.json.s", "s"), ("covers.json.bytes", "bytes"),
             ("graphs.codec.s", "s"), ("graphs.codec.calls", "count"),
             ("graphs.codec.bytes", "bytes"), ("graphs.cut3.s", "s"),
             ("graphs.cut3.triples", "count"), ("graphs.cut3.found", "count"),
             ("graphs.vcut.s", "s"), ("graphs.vcut.subsets", "count"),
             ("graphs.structure.s", "s")]
    for b in BUILDERS:
        units += [(f"builders.{b}.s", "s"), (f"builders.{b}.calls", "count")]
    for op in SURGERIES:
        units += [(f"surgery.{op}.s", "s"), (f"surgery.{op}.calls", "count")]
    units += [("cli.main.s", "s"), ("trace.requests.s", "s"), ("trace.other.s", "s"),
              ("trace.verdicts_per_s", "1/s"), ("trace.untraced_verdicts_per_s", "1/s"),
              ("trace.overhead_pct", "%")]
    return dict(units)
