"""Correctness oracle: judges each request's answer without the program's own checks.

Graphs are decoded with networkx, covers are re-counted arc by arc here,
and structural answers are recomputed with networkx.  Closed-form answers
are used where they exist.  Each `judge_*` returns None for a right answer and a
reason otherwise.  All of this runs after the timed loop.
"""

from __future__ import annotations

import json
from itertools import combinations, product

import networkx as nx


def graph(g6):
    return nx.from_graph6_bytes(g6.encode())


def _family(spec):
    name, _, rest = spec.partition(":")
    args = [int(x) for x in rest.split(",")] if rest else []
    if name == "bipartite":
        return nx.complete_bipartite_graph(*args)
    if name == "cycle":
        return nx.cycle_graph(*args)
    if name == "hypercube":
        return nx.hypercube_graph(*args)
    if name == "petersen":
        return nx.petersen_graph()
    if name == "mobius_kantor":
        return nx.LCF_graph(16, [5, -5], 8)
    if name == "prism":
        return nx.circular_ladder_graph(*args)
    if name == "wheel":
        return nx.wheel_graph(args[0] + 1)
    if name == "k4_chain":
        g = nx.Graph()
        for i in range(args[0]):
            g.add_edges_from(combinations([("v", i), ("v", i + 1), ("a", i), ("b", i)], 2))
        return g
    raise ValueError(f"no oracle graph for {spec!r}")


def cover_problems(g, elements, kind):
    """Reasons the elements are not a cover of `kind` on g (empty if they are)."""
    bad = []
    arcs = {}
    for e in elements:
        if kind in ("OPPDC", "PPDC"):
            if len(set(e)) != len(e):
                bad.append(f"path {e} repeats a vertex")
            steps = list(zip(e, e[1:]))
        else:
            if len(set(e)) != len(e) or len(e) < 3:
                bad.append(f"cycle {e} is not simple")
            steps = list(zip(e, e[1:] + e[:1]))
        for a in steps:
            if not g.has_edge(*a):
                bad.append(f"arc {a} over a non-edge")
            arcs[a] = arcs.get(a, 0) + 1
    if kind == "CDC":
        cover = {}
        for (u, v), k in arcs.items():
            key = (min(u, v), max(u, v))
            cover[key] = cover.get(key, 0) + k
        wrong = [e for e in g.edges if cover.get((min(e), max(e)), 0) != 2]
        if wrong or len(cover) != g.number_of_edges():
            bad.append(f"{len(wrong)} edges not covered twice")
        return bad
    wrong = [a for u, v in g.edges for a in ((u, v), (v, u)) if arcs.get(a) != 1]
    if wrong or len(arcs) != 2 * g.number_of_edges():
        bad.append(f"{len(wrong)} arcs not covered exactly once")
    n = g.number_of_nodes()
    if kind == "SOCDC" and len(elements) > n - 1:
        bad.append(f"{len(elements)} cycles exceed n-1 = {n - 1}")
    if kind == "OPPDC":
        starts = sorted(e[0] for e in elements)
        ends = sorted(e[-1] for e in elements)
        if starts != sorted(g) or ends != sorted(g):
            bad.append("not every vertex starts and ends exactly one path")
    return bad


def check_cert(text, expect_kind=None):
    """(networkx host, element lists, problems) for a certificate JSON text."""
    obj = json.loads(text)
    g = graph(obj["graph"])
    elements = [tuple(e) for e in obj["elements"]]
    problems = cover_problems(g, elements, obj["kind"])
    if expect_kind and obj["kind"] not in expect_kind:
        problems.append(f"kind {obj['kind']} not in {expect_kind}")
    return g, elements, problems


def nontrivial_3_edge_cuts(g):
    """Count 3-edge sets whose removal leaves exactly two components, each of
    >= 2 vertices, with all three edges crossing.  For each pair of edges
    the third is a bridge of what remains (networkx finds the bridges)."""
    edges = sorted((min(e), max(e)) for e in g.edges)
    index = {e: i for i, e in enumerate(edges)}
    h = g.copy()
    found = 0
    for e1, e2 in combinations(edges, 2):
        h.remove_edges_from([e1, e2])
        if nx.is_connected(h):
            for b in list(nx.bridges(h)):
                e3 = (min(b), max(b))
                if index[e3] <= index[e2]:
                    continue
                h.remove_edge(*e3)
                side = nx.node_connected_component(h, e3[0])
                h.add_edge(*e3)
                if len(side) >= 2 and len(h) - len(side) >= 2 \
                        and all((u in side) != (v in side) for u, v in (e1, e2)):
                    found += 1
        h.add_edges_from([e1, e2])
    return found


def structure(g):
    """The facts `analyze` and `search filter` report, from networkx."""
    n, m = g.number_of_nodes(), g.number_of_edges()
    kappa = nx.node_connectivity(g)
    cuts3 = nontrivial_3_edge_cuts(g)
    violated = []
    if n == 4 and m == 6:
        violated.append("is the exception K4")
    if n == 6 and m == 15:
        violated.append("is the exception K6")
    if kappa < 2:
        violated.append("not 2-connected")
    else:
        if min(d for _, d in g.degree()) < 3:
            violated.append("minimum degree below 3")
        if kappa < 3:
            violated.append("not 3-connected")
        if nx.edge_connectivity(g) < 3:
            violated.append("not 3-edge-connected")
        if cuts3:
            violated.append("has a non-trivial 3-edge cut")
    return {"graph": g, "n": n, "m": m, "bridgeless": not nx.has_bridges(g), "kappa": kappa,
            "blocks": sum(1 for _ in nx.biconnected_components(g)), "cuts3": cuts3,
            "girth": nx.girth(g), "violated": violated}


def _graph_of(req):
    flag, value = req["argv"][-2], req["argv"][-1]
    return _family(value) if flag == "--family" else graph(value)


def judge_cli(req, s, facts):
    if s["code"] != 0:
        return f"exit code {s['code']}"
    out = s["stdout"]
    if req["argv"][0] == "search":
        got = json.loads(out)
        if got["violated"] != facts["violated"] or got["candidate"] != (not facts["violated"]):
            return f"filter {got} != {facts['violated']}"
        return None
    lines = out.splitlines()
    # the report names vertices in the program's numbering: read it back from line 1
    shown = graph(lines[0].split()[1])
    if not nx.is_isomorphic(shown, facts["graph"]):
        return "the report's graph6 is not the requested graph"
    cut_vertices = sorted(nx.articulation_points(shown))
    want = {
        1: f"n={facts['n']} m={facts['m']}",
        2: f"bridgeless: {facts['bridgeless']}",
        4: f"blocks: {facts['blocks']}  cut vertices: {cut_vertices}",
        5: f"nontrivial 3-edge cuts: {facts['cuts3']}",
        6: f"girth: {facts['girth']}",
    }
    checks = [(lines[0], want[1], "endswith"), (lines[1], want[2], "startswith"),
              (lines[3], want[4], "eq"), (lines[4], want[5], "eq"),
              (lines[5], want[6], "startswith")]
    for line, text, how in checks:
        ok = {"eq": line == text, "startswith": line.startswith(text),
              "endswith": line.endswith(text)}[how]
        if not ok:
            return f"{line!r} does not match {text!r}"
    k = facts["kappa"]
    vline = lines[2]
    if k >= 3:
        if vline != "vertex connectivity >= 3":
            return f"{vline!r} but connectivity is {k}"
    elif not vline.startswith(f"vertex connectivity <= {max(k, 1)}: cut "):
        return f"{vline!r} but connectivity is {k}"
    tail = "candidate (no condition violated)" if not facts["violated"] \
        else "fails " + "; ".join(facts["violated"])
    if lines[-1] != f"minimal-counterexample filter: {tail}":
        return f"filter line {lines[-1]!r}"
    return None


def _orientable(g, cycles):
    """Whether some choice of directions turns the CDC into an OCDC (brute force)."""
    for flips in product((False, True), repeat=len(cycles)):
        oriented = [tuple(reversed(c)) if f else tuple(c) for c, f in zip(cycles, flips)]
        if not cover_problems(g, oriented, "OCDC"):
            return True
    return False


def judge_search(req, s, pairs):
    op = req["op"]
    if op in ("oppdc", "socdc", "min_ocdc"):
        status = s["status"]
        if status == "Found":
            _, elements, problems = check_cert(
                s["cert"], ("OPPDC",) if op == "oppdc" else ("SOCDC", "OCDC"))
            if problems:
                return "; ".join(problems[:3])
            if op == "socdc" and len(elements) > graph_n(s["cert"]) - 1:
                return "find_socdc returned a cover that is not small"
            expect = {"min_ocdc:complete:4": 4, "min_ocdc:k4_chain:2": 8}.get(req["id"])
            if expect is not None and len(elements) != expect:
                return f"minimum {len(elements)} != {expect}"
        elif req["id"] == "socdc:complete:6":
            if status != "NoneExists" or s["lower_bound"] != 6:
                return f"K6: {status} at {s['lower_bound']}, expected NoneExists at 5"
        elif req["id"].startswith("min_ocdc:"):
            return f"{status}, expected Found"
        elif status == "NoneExists" and req.get("budget") and "pair" not in req:
            return "NoneExists on a graph that has a small cover"
        if "pair" in req:
            other = pairs.get((req["pair"], "socdc" if op == "oppdc" else "oppdc"))
            if other in ("Found", "NoneExists") and status in ("Found", "NoneExists") \
                    and other != status:
                return f"apex disagreement on {req['pair']}: {status} vs {other}"
        return None
    if op == "cdcs":
        g = _family(req["family"])
        g = nx.convert_node_labels_to_integers(g, ordering="sorted")
        distinct = {tuple(sorted(tuple(c) for c in cdc)) for cdc in s["cdcs"]}
        for cdc in distinct:
            problems = cover_problems(g, list(cdc), "CDC")
            if problems:
                return "; ".join(problems)
        if req["family"] == "petersen" and len(distinct) != 52:
            return f"{len(distinct)} distinct CDCs of the Petersen graph, expected 52"
        return None
    if op == "unorientable":
        if s["cdc"] is None:
            return "no unorientable CDC found"
        g = nx.convert_node_labels_to_integers(_family(req["family"]), ordering="sorted")
        cycles = [tuple(c) for c in s["cdc"]]
        problems = cover_problems(g, cycles, "CDC")
        if problems:
            return "; ".join(problems)
        if _orientable(g, cycles):
            return "the reported CDC can be oriented"
        return None
    if op == "product_lift":
        g, elements, problems = check_cert(s["cert"], ("SOCDC",))
        if problems:
            return "; ".join(problems)
        base = {"socdc:complete:3": nx.cycle_graph(3), "oppdc:cycle:4": nx.cycle_graph(4)}
        want = nx.cartesian_product(base[req["base"]], _family(req["factor"]))
        if not nx.is_isomorphic(g, want):
            return "host is not the requested product"
        return None
    return f"unknown op {op}"


def graph_n(text):
    return graph(json.loads(text)["graph"]).number_of_nodes()


def judge_certify(req, s):
    if not s["ok"]:
        return "verify() rejected the round-tripped certificate"
    g, elements, problems = check_cert(s["cert"])
    if problems:
        return "; ".join(problems[:3])
    e = req["expect"]
    n, count = g.number_of_nodes(), len(elements)
    if "elements" in e and count != e["elements"]:
        return f"{count} elements, expected {e['elements']}"
    if "complete" in e:
        k = e["complete"]
        if n != k or g.number_of_edges() != k * (k - 1) // 2:
            return f"host is not K{k}"
    if "bipartite" in e:
        a, b = e["bipartite"]
        degrees = sorted(d for _, d in g.degree())
        if not nx.is_bipartite(g) or degrees != sorted([b] * a + [a] * b):
            return f"host is not K{a},{b}"
    if e.get("faces"):
        want = _family(req["args"]["family"])
        if not nx.is_isomorphic(g, want):
            return "host is not the requested planar graph"
        if count != g.number_of_edges() - n + 2:
            return f"{count} face cycles, Euler's formula gives {g.number_of_edges() - n + 2}"
    if e.get("cubic_bound"):
        if "exact search" in s["provenance"]:
            return "the 2-factor cover did not orient; the engine ran"
        if count > n // 2 + 2:
            return f"{count} cycles exceed the cubic bound {n // 2 + 2}"
    inputs = s.get("inputs", [])
    if e.get("sum") and count != sum(inputs):
        return f"{count} cycles, pieces have {inputs}"
    if "drop" in e and count != sum(inputs) - e["drop"]:
        return f"{count} cycles, pieces have {inputs}, expected a drop of {e['drop']}"
    return None


def judge_all(workload, reqs, first, errors):
    """{request id: reason} for every request whose answer is wrong or missing."""
    wrong = dict(errors)
    facts = {}
    pairs = {}
    for req in reqs:
        if "pair" in req and req["id"] in first:
            pairs[(req["pair"], req["op"])] = first[req["id"]]["summary"]["status"]
    for req in reqs:
        rid = req["id"]
        if rid in wrong:
            continue
        if rid not in first:
            wrong[rid] = "no answer recorded"
            continue
        s = first[rid]["summary"]
        if workload == "search":
            reason = judge_search(req, s, pairs)
        elif workload == "certify":
            reason = judge_certify(req, s)
        else:
            key = req["argv"][-1]
            if key not in facts:
                facts[key] = structure(_graph_of(req))
            reason = judge_cli(req, s, facts[key])
        if reason:
            wrong[rid] = reason
    return wrong

