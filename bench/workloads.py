"""The three workloads: seeded request lists, preparation and execution.

A request is a JSON object with a unique "id", an "op" and its arguments.
`requests(workload, seed)` builds the list (parent process; the search
sweep takes its graphs from the networkx atlas).  `prepare` turns a request
into program objects and `execute` runs it; both run in the worker process,
and only `execute` is timed.  Every search request carries a node budget,
never a time budget, so verdicts do not depend on machine load.

Why these workloads:
- search: the exact-cover engine does nearly all the work, in three uses:
  first solution (apex sweep, product lifts), exhaustive proof (K6 at 5,
  minimum sizes) and columns that need two hits (Petersen CDCs).  The load
  holds the deep shape (cheap nodes, few rows: (K6-e)+K1) and the wide one
  (dear nodes, many rows: Q4), so a change that helps one shape and hurts
  the other shows.
- certify: constructors, surgeries, the graph6 codec, JSON and verifiers;
  the engine does nothing.
- analyze: brute-force cut enumeration behind `analyze` and `search filter`;
  neither the engine nor the verifiers run.
"""

from __future__ import annotations

import io
import itertools
import random
from contextlib import redirect_stdout

WORKLOADS = ("search", "certify", "analyze")

# Sweep requests stop after this many nodes, so the whole sweep fits in a
# fraction of a round.  The largest proofs ((K6-e)+K1 needs 153k nodes) then
# end Unresolved, keeping their per-node cost in the load.
SWEEP_NODE_BUDGET = 500
# find_socdc(hypercube:4) needs about 5.4k nodes at about 4 ms each; its
# 29k rows alone take about 0.25 s to enumerate.
WIDE_NODE_BUDGET = 50
PROOF_NODE_BUDGET = 10**6


# ---------------------------------------------------------------------------
# Request lists (parent side)
# ---------------------------------------------------------------------------

def _g6(gnx):
    import networkx as nx
    return nx.to_graph6_bytes(gnx, nodes=sorted(gnx), header=False).decode().strip()


def search_requests(rng):
    """The apex sweep on every graph of <= 5 vertices, every third 6-vertex
    graph in atlas order (which runs by edge count) and the two densest
    (K6 - e is the deep tail); then the fixed proofs and the wide Q4 request.
    The subset is the same for every seed, so that a run holds many short
    rounds."""
    import networkx as nx
    reqs = []
    six = 0
    for a in nx.graph_atlas_g():
        if not (2 <= a.number_of_nodes() <= 6 and nx.is_connected(a)):
            continue
        if a.number_of_nodes() == 6:
            six += 1
            if six % 3 != 1 and a.number_of_edges() < 14:
                continue
        g = nx.convert_node_labels_to_integers(a)
        apex = g.copy()
        apex.add_edges_from((g.number_of_nodes(), v) for v in g)
        g6, a6 = _g6(g), _g6(apex)
        reqs.append({"id": f"oppdc:{g6}", "op": "oppdc", "g6": g6,
                     "budget": SWEEP_NODE_BUDGET, "pair": g6})
        reqs.append({"id": f"socdc:{a6}", "op": "socdc", "g6": a6,
                     "budget": SWEEP_NODE_BUDGET, "pair": g6})
    reqs += [
        {"id": "socdc:complete:6", "op": "socdc", "family": "complete:6",
         "budget": PROOF_NODE_BUDGET},
        {"id": "min_ocdc:complete:4", "op": "min_ocdc", "family": "complete:4",
         "max_count": 4, "budget": PROOF_NODE_BUDGET},
        {"id": "min_ocdc:k4_chain:2", "op": "min_ocdc", "family": "k4_chain:2",
         "max_count": 8, "budget": PROOF_NODE_BUDGET},
        {"id": "cdcs:petersen", "op": "cdcs", "family": "petersen",
         "budget": PROOF_NODE_BUDGET},
        {"id": "unorientable:petersen", "op": "unorientable", "family": "petersen",
         "budget": PROOF_NODE_BUDGET},
        {"id": "product_lift:C3xC5", "op": "product_lift", "base": "socdc:complete:3",
         "factor": "cycle:5", "budget": PROOF_NODE_BUDGET},
        {"id": "product_lift:C4xC4", "op": "product_lift", "base": "oppdc:cycle:4",
         "factor": "cycle:4", "budget": PROOF_NODE_BUDGET},
        {"id": "socdc:hypercube:4", "op": "socdc", "family": "hypercube:4",
         "budget": WIDE_NODE_BUDGET},
    ]
    rng.shuffle(reqs)
    return reqs


def certify_requests(rng):
    """Sizes are fixed so every seed costs the same; the seed picks the
    vertices that surgeries glue, cut or strip, and the order."""
    reqs = []

    def add(build, expect, **args):
        rid = build + ":" + ",".join(f"{k}={v}" for k, v in sorted(args.items()))
        reqs.append({"id": rid, "op": "certify", "build": build, "args": args,
                     "expect": expect})

    for n in (3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 25, 31, 41, 51, 61, 75, 91, 101, 125,
              151, 175, 201):
        add("odd", {"elements": n - 1, "complete": n}, n=n)
    for n in (8, 10, 12, 14, 16):
        add("even", {"elements": n - 1, "complete": n}, n=n)
    for a, b in ((2, 3), (2, 8), (3, 3), (4, 7), (5, 5), (6, 9), (8, 12), (10, 20), (16, 16),
                 (20, 30), (25, 25), (30, 45), (40, 40), (60, 60)):
        add("bipartite", {"elements": b, "bipartite": [a, b]}, a=a, b=b)
    for spec in ("hypercube:3", "prism:5", "prism:12", "prism:20", "prism:30", "wheel:6", "wheel:15",
                 "wheel:40", "cycle:8", "cycle:25"):
        add("planar", {"faces": True}, family=spec)
    # only even prisms and gp(n,3) with n even orient their 2-factor cover;
    # the others fall back to exact search, which is the search workload's job
    for spec in ("prism:4", "prism:8", "prism:16", "prism:32", "mobius_kantor",
                 "bipartite:3,3", "hypercube:3", "gp:10,3", "gp:14,3"):
        add("cubic", {"cubic_bound": True}, family=spec)
    for a, b in ((3, 5), (7, 9), (11, 13), (15, 15), (21, 25)):
        add("cutvertex", {"sum": True}, a=a, b=b, v1=rng.randrange(a), v2=rng.randrange(b))
        add("twocut", {"drop": 1}, a=a, b=b, mode="shared_edge")
        add("twocut", {"drop": 2}, a=b, b=a, mode="no_edge")
    for k1, k2 in ((4, 4), (4, 6), (8, 10), (12, 14), (22, 26)):
        add("threecut", {"drop": 3}, k1=k1, k2=k2, w1=rng.randrange(2 * k1),
            w2=rng.randrange(2 * k2), perm=rng.randrange(6))
    for n in (7, 9, 11, 13, 15):
        add("join", {"elements": n, "complete": n + 1}, n=n)
        add("strip", {"elements": n, "complete": n}, n=n + 1, apex=rng.randrange(n + 1))
        add("prism", {"elements": n}, n=n)
    for a, k in ((3, 7), (3, 9), (5, 13), (7, 17), (11, 25)):
        add("product", {"elements": k * (a - 1) + 2 * a}, a=a, k=k)
    rng.shuffle(reqs)
    return reqs


def random_3_connected(rng, n, m):
    """A random 3-connected graph with n vertices and m edges, as an edge set.

    Grown from K4 by the operations of Barnette and Gruenbaum, which keep a
    graph 3-connected: subdivide two edges and join the new vertices, or
    subdivide one edge and join the new vertex to a third vertex; then add
    random chords until there are m edges.
    """
    edges = set(itertools.combinations(range(4), 2))
    k = 4
    while k < n:
        pool = sorted(edges)
        if n - k >= 2:
            (a, b), (c, d) = rng.sample(pool, 2)
            x, y = k, k + 1
            edges -= {(a, b), (c, d)}
            edges |= {(a, x), (b, x), (c, y), (d, y), (x, y)}
            k += 2
        else:
            a, b = rng.choice(pool)
            w = rng.choice([v for v in range(k) if v not in (a, b)])
            edges -= {(a, b)}
            edges |= {(a, k), (b, k), (w, k)}
            k += 1
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


ANALYZE_FAMILIES = ("hypercube:4", "bipartite:6,6", "prism:8", "wheel:12", "k4_chain:3",
                    "petersen", "mobius_kantor")
# The work of a request grows as m**3 * (n + m), so sizes and edge counts
# are fixed and only the structure is seeded.  Many graphs on 10 to 12
# vertices put the median request among like requests, and the small sizes
# make a round of 100 requests last about 4 s.  hypercube:5 (about 5 s),
# complete:12 (about 2 s) and graphs on 24 to 32 vertices (0.5 to 2 s for
# the pair of requests) would each stretch a round by an eighth or more.
RANDOM_SIZES = (10,) * 22 + (12,) * 15 + (14,) * 4 + (16, 20)


def analyze_requests(rng):
    import networkx as nx
    graphs = [("--family", spec) for spec in ANALYZE_FAMILIES]
    for n in RANDOM_SIZES:
        gnx = nx.Graph(random_3_connected(rng, n, 3 * n // 2 + 2))
        graphs.append(("--graph", _g6(gnx)))
    reqs = []
    for flag, value in graphs:
        reqs.append({"id": f"analyze:{value}", "op": "cli", "argv": ["analyze", flag, value]})
        reqs.append({"id": f"filter:{value}", "op": "cli",
                     "argv": ["search", "filter", flag, value]})
    rng.shuffle(reqs)
    return reqs


def requests(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    return {"search": search_requests, "certify": certify_requests,
            "analyze": analyze_requests}[workload](rng)


# ---------------------------------------------------------------------------
# Preparation and execution (worker side)
# ---------------------------------------------------------------------------

def _graph(req):
    from ocdc import graphs
    if "g6" in req:
        return graphs.parse_graph6(req["g6"])
    return graphs.generate(req["family"])


def _relabel_map(n, skip, start):
    """Piece vertex -> merged id for every vertex but `skip`, in order."""
    out, nxt = {}, start
    for v in range(n):
        if v != skip:
            out[v] = nxt
            nxt += 1
    return out


def _certify_inputs(req):
    """Constructor outputs a surgery request consumes, built before timing."""
    from ocdc import builders, graphs, surgery
    a = req["args"]
    build = req["build"]
    if build in ("planar", "cubic"):
        g = graphs.generate(a["family"])
        return (g, graphs.planar_rotation(g)) if build == "planar" else (g,)
    if build == "cutvertex":
        c1, c2 = builders.socdc_complete_odd(a["a"]), builders.socdc_complete_odd(a["b"])
        map2 = _relabel_map(a["b"], a["v2"], a["a"])
        map2[a["v2"]] = a["v1"]
        return c1, c2, surgery.MergeSpec({v: v for v in range(a["a"])}, map2)
    if build == "twocut":
        c1, c2 = builders.socdc_complete_odd(a["a"]), builders.socdc_complete_odd(a["b"])
        map2 = {0: 0, 1: 1}
        map2.update({v: a["a"] + v - 2 for v in range(2, a["b"])})
        return c1, c2, surgery.MergeSpec({v: v for v in range(a["a"])}, map2), a["mode"]
    if build == "threecut":
        c1 = builders.ocdc_cubic_class1(graphs.generate(f"prism:{a['k1']}"))
        c2 = builders.ocdc_cubic_class1(graphs.generate(f"prism:{a['k2']}"))
        w1, w2 = a["w1"], a["w2"]
        map1 = _relabel_map(c1.host.n, w1, 0)
        map2 = _relabel_map(c2.host.n, w2, c1.host.n - 1)
        map1[w1], map2[w2] = -1, -2  # ignored by merge_3edgecut
        us = [map1[u] for u in c1.host.neighbors(w1)]
        vs = list(itertools.permutations(map2[v] for v in c2.host.neighbors(w2)))[a["perm"]]
        return c1, c2, list(zip(us, vs)), w1, w2, surgery.MergeSpec(map1, map2)
    if build in ("join", "prism"):
        builders.oppdc_complete_odd.cache_clear()
        return (builders.oppdc_complete_odd(a["n"]),)
    if build == "strip":
        builders.oppdc_complete_odd.cache_clear()
        return builders.socdc_complete_even(a["n"]), a["apex"]
    if build == "product":
        return builders.socdc_complete_odd(a["a"]), a["k"]
    return ()


def prepare(req):
    """Program objects a request needs, built outside the timed region."""
    op = req["op"]
    if op in ("oppdc", "socdc", "min_ocdc", "cdcs", "unorientable"):
        return (_graph(req),)
    if op == "product_lift":
        from ocdc import builders, graphs, search
        if req["base"] == "socdc:complete:3":
            return (builders.socdc_complete_odd(3),)
        return (search.find_oppdc(graphs.generate("cycle:4")).certificate,)
    if op == "certify":
        return _certify_inputs(req)
    return ()


def _build(req, inputs):
    from ocdc import builders, surgery
    a = req["args"]
    build = req["build"]
    if build == "odd":
        return builders.socdc_complete_odd(a["n"])
    if build == "even":
        # every `ocdc build complete:<even>` call starts with an empty cache
        builders.oppdc_complete_odd.cache_clear()
        return builders.socdc_complete_even(a["n"])
    if build == "bipartite":
        return builders.socdc_complete_bipartite(a["a"], a["b"])
    if build == "planar":
        return builders.socdc_planar(*inputs).certificate
    if build == "cubic":
        return builders.ocdc_cubic_class1(*inputs)
    if build == "cutvertex":
        return surgery.merge_at_cutvertex(*inputs)
    if build == "twocut":
        return surgery.merge_2cut(*inputs)
    if build == "threecut":
        return surgery.merge_3edgecut(*inputs)
    if build == "join":
        return surgery.join_apex(*inputs)
    if build == "strip":
        return surgery.strip_apex(*inputs)
    if build == "prism":
        return surgery.prism_p2(*inputs)
    if build == "product":
        return surgery.product_cycle_large(*inputs)[0]
    raise ValueError(f"unknown build {build!r}")


def execute(req, inputs):
    """Run one request to its verdict; this is the timed region."""
    from ocdc import cli, covers, search, surgery
    op = req["op"]
    if op == "oppdc":
        return search.find_oppdc(inputs[0], node_budget=req["budget"])
    if op == "socdc":
        return search.find_socdc(inputs[0], node_budget=req["budget"])
    if op == "min_ocdc":
        return search.min_ocdc(inputs[0], req["max_count"], node_budget=req["budget"])
    if op == "cdcs":
        return list(search.enumerate_cdcs(inputs[0], node_budget=req["budget"]))
    if op == "unorientable":
        return search.find_unorientable_cdc(inputs[0], node_budget=req["budget"])
    if op == "product_lift":
        return surgery.product_lift(inputs[0], req["factor"], node_budget=req["budget"])
    if op == "certify":
        text = _build(req, inputs).to_json()
        back = covers.CoverCertificate.from_json(text)
        return back, back.verify()
    if op == "cli":
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(list(req["argv"]))
        return code, buf.getvalue()
    raise ValueError(f"unknown op {op!r}")


def outcome(req, result):
    """(decided, nodes) for one executed request; nodes only where the API reports them."""
    from ocdc.search import SearchOutcome
    if isinstance(result, SearchOutcome):
        return result.status != "Unresolved", result.nodes_expanded
    if req["op"] == "cli":
        return result[0] == 0, None
    return True, None


def summary(req, result):
    """What the oracle needs to judge a request's answer (untimed, JSON-ready)."""
    from ocdc.search import SearchOutcome
    op = req["op"]
    if isinstance(result, SearchOutcome):
        return {"status": result.status, "lower_bound": result.lower_bound,
                "cert": result.certificate.to_json() if result.found else None}
    if op == "cdcs":
        return {"cdcs": [[list(c.vertices) for c in cdc] for cdc in result]}
    if op == "unorientable":
        return {"cdc": None if result is None else [list(c.vertices) for c in result[0]]}
    if op == "product_lift":
        return {"cert": result.to_json()}
    if op == "certify":
        cert, report = result
        return {"cert": cert.to_json(), "ok": report.ok, "provenance": cert.provenance}
    if op == "cli":
        return {"code": result[0], "stdout": result[1]}
    raise ValueError(f"unknown op {op!r}")


def input_counts(req, inputs):
    """Element counts of a surgery's input covers, for the count arithmetic."""
    from ocdc.covers import CoverCertificate
    return [len(x.elements) for x in inputs if isinstance(x, CoverCertificate)]


def rows(req, inputs):
    """Rows the engine builds for a search request (computed untimed), else None."""
    from ocdc import graphs, search
    op = req["op"]
    if op in ("socdc", "min_ocdc"):
        return len(search.enumerate_directed_cycles(inputs[0]))
    if op == "oppdc":
        g = inputs[0]
        paths = search.enumerate_directed_paths(g)
        return len([p for p in paths if len(p) > 1]) if g.n >= 2 else len(paths)
    if op in ("cdcs", "unorientable"):
        return len(search.enumerate_undirected_cycles(inputs[0]))
    if op == "product_lift":
        prod = graphs.cartesian(inputs[0].host, graphs.generate(req["factor"]))
        return len(search.enumerate_directed_cycles(prod))
    return None
