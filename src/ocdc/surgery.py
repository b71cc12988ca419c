"""Surgeries building covers of larger graphs from covered pieces.

Counts follow the splice arithmetic exactly: cut-vertex merge keeps
|c1|+|c2| cycles, a 2-cut merge drops 1 (shared edge) or 2 (no edge),
a 3-edge-cut merge drops 3, 2 or 1 depending on the endpoint pattern.
Every operation admits its input certificates through _admit and returns
its output through covers.certify.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .graphs import Graph, cartesian, cycle as cycle_graph, path as path_graph
from .covers import (CoverCertificate, DirectedCycle, DirectedPath, InternalConsistencyError,
                     certify)


class SpecError(ValueError):
    """Merge specification inconsistent with the pieces."""


# still exported for importers; a theory failure on an admitted input
CertificateInconsistency = InternalConsistencyError


def _admit(cert: CoverCertificate, *kinds: str) -> None:
    """The one way a certificate enters a surgery: its kind must be one of
    kinds, and it must pass its own kind's verifier (looked up at call time)."""
    if cert.kind not in kinds:
        raise SpecError(f"surgery needs an {' or '.join(kinds)} certificate, got {cert.kind}")
    rep = cert.verify()
    if not rep.ok:
        raise SpecError(f"{cert.kind} input ({cert.provenance}) does not verify: "
                        f"{rep.violations[:5]}")


@dataclass(frozen=True)
class MergeSpec:
    """Injective relabelings from each piece into the merged vertex set."""

    map1: dict[int, int]
    map2: dict[int, int]

    def __post_init__(self):
        for m in (self.map1, self.map2):
            if len(set(m.values())) != len(m):
                raise SpecError("piece relabeling is not injective")

    def overlap(self) -> set[int]:
        return set(self.map1.values()) & set(self.map2.values())


def _relabel_graph(g: Graph, mapping: dict[int, int]) -> list[tuple[int, int]]:
    if set(mapping) != set(range(g.n)):
        raise SpecError("relabeling must cover every piece vertex")
    return [(mapping[u], mapping[v]) for u, v in g.edges]


def _relabel_cycles(elements: Sequence[DirectedCycle], mapping: dict[int, int]) -> list[DirectedCycle]:
    return [DirectedCycle(tuple(mapping[v] for v in c.vertices)) for c in elements]


def _merged_size(spec: MergeSpec) -> int:
    ids = set(spec.map1.values()) | set(spec.map2.values())
    if ids != set(range(len(ids))):
        raise SpecError("merged vertex ids must be dense 0..n-1")
    return len(ids)


def _cycle_with_arc(cycles: Sequence[DirectedCycle], arc: tuple[int, int]) -> int:
    """Index of the one cycle of an admitted cover that carries arc."""
    return next(i for i, c in enumerate(cycles) if arc in c.arcs())


def _rotate_to_end(c: DirectedCycle, arc: tuple[int, int]) -> list[int]:
    """Vertex list of c rotated so the cycle reads head(arc) ... tail(arc)."""
    vs = c.vertices
    i = vs.index(arc[0])
    rot = vs[(i + 1) % len(vs):] + vs[:(i + 1) % len(vs)]
    return list(rot)


def _splice(ca: DirectedCycle, cb: DirectedCycle, v1: int, v2: int) -> DirectedCycle:
    """Delete arc v1->v2 from ca and v2->v1 from cb, concatenate the paths."""
    pa = _rotate_to_end(ca, (v1, v2))   # v2 ... v1
    pb = _rotate_to_end(cb, (v2, v1))   # v1 ... v2
    return DirectedCycle(tuple(pa + pb[1:-1]))


# ---------------------------------------------------------------------------
# Cut-vertex and subdivision
# ---------------------------------------------------------------------------

def merge_at_cutvertex(c1: CoverCertificate, c2: CoverCertificate,
                       spec: MergeSpec) -> CoverCertificate:
    """Glue two small covers at one shared vertex; counts simply add."""
    if len(spec.overlap()) != 1:
        raise SpecError(f"pieces must share exactly one vertex, got {sorted(spec.overlap())}")
    _admit(c1, "SOCDC")
    _admit(c2, "SOCDC")
    n = _merged_size(spec)
    edges = _relabel_graph(c1.host, spec.map1) + _relabel_graph(c2.host, spec.map2)
    g = Graph.from_edges(n, edges)
    cycles = _relabel_cycles(c1.elements, spec.map1) + _relabel_cycles(c2.elements, spec.map2)
    return certify(g, "SOCDC", cycles,
                   f"cutvertex merge of [{c1.provenance}] and [{c2.provenance}]")


def subdivide(c: CoverCertificate, edge: tuple[int, int]) -> CoverCertificate:
    """Replace edge uv by a degree-2 vertex; reroute the two covering cycles."""
    g = c.host
    u, v = edge
    if not g.has_edge(u, v):
        raise ValueError(f"{edge} is not an edge of the host")
    _admit(c, "SOCDC")
    x = g.n
    edges = [e for e in g.edges if e != (min(u, v), max(u, v))] + [(u, x), (v, x)]
    g2 = Graph.from_edges(g.n + 1, edges)
    cycles = []
    for cyc in c.elements:
        vs = list(cyc.vertices)
        arcs = cyc.arcs()
        if (u, v) in arcs:
            i = vs.index(u)
            vs.insert(i + 1, x)
        elif (v, u) in arcs:
            i = vs.index(v)
            vs.insert(i + 1, x)
        cycles.append(DirectedCycle(tuple(vs)))
    return certify(g2, "SOCDC", cycles, f"subdivide {edge} of [{c.provenance}]")


# ---------------------------------------------------------------------------
# 2-cut merges
# ---------------------------------------------------------------------------

def merge_2cut(c1: CoverCertificate, c2: CoverCertificate, spec: MergeSpec,
               mode: str) -> CoverCertificate:
    """Merge two covers across a 2-vertex cut {v1, v2}.

    Both inputs cover their piece plus the edge v1v2.  mode "shared_edge"
    keeps that edge in the merged graph and splices one cycle pair;
    "no_edge" deletes it and splices both pairs.
    """
    if mode not in ("shared_edge", "no_edge"):
        raise SpecError(f"unknown mode {mode!r}")
    overlap = spec.overlap()
    if len(overlap) != 2:
        raise SpecError(f"pieces must share exactly two vertices, got {sorted(overlap)}")
    v1, v2 = sorted(overlap)
    n = _merged_size(spec)
    _admit(c1, "OCDC", "SOCDC")
    _admit(c2, "OCDC", "SOCDC")
    e = (v1, v2)
    edges1 = _relabel_graph(c1.host, spec.map1)
    edges2 = _relabel_graph(c2.host, spec.map2)
    if (e not in {tuple(sorted(x)) for x in edges1}
            or e not in {tuple(sorted(x)) for x in edges2}):
        raise SpecError("both pieces must contain the cut edge v1v2")
    cyc1 = _relabel_cycles(c1.elements, spec.map1)
    cyc2 = _relabel_cycles(c2.elements, spec.map2)
    keep_edge = mode == "shared_edge"
    all_edges = edges1 + edges2
    if not keep_edge:
        all_edges = [x for x in all_edges if tuple(sorted(x)) != e]
    g = Graph.from_edges(n, all_edges)

    i11 = _cycle_with_arc(cyc1, (v1, v2))
    i12 = _cycle_with_arc(cyc1, (v2, v1))
    i21 = _cycle_with_arc(cyc2, (v1, v2))
    i22 = _cycle_with_arc(cyc2, (v2, v1))
    spliced = [_splice(cyc1[i11], cyc2[i22], v1, v2)]
    removed = {id(cyc1[i11]), id(cyc2[i22])}
    if not keep_edge:
        spliced.append(_splice(cyc2[i21], cyc1[i12], v1, v2))
        removed |= {id(cyc2[i21]), id(cyc1[i12])}
    cycles = [c for c in cyc1 + cyc2 if id(c) not in removed] + spliced
    return certify(g, "OCDC", cycles,
                   f"2-cut merge ({mode}) of [{c1.provenance}] and [{c2.provenance}]")


# explicit tables for the K4/K6 special gluings, transcribed 1-based -> 0-based
_TABLE_K4_K4 = {
    "n1": 4,
    "g2_verts": [0, 1, 4, 5],
    "cycles": [[0, 3, 2, 1, 4, 5], [0, 4, 1, 2], [0, 2, 3, 1, 5, 4], [0, 5, 1, 3]],
}
_TABLE_K4_K6 = {
    "n1": 4,
    "g2_verts": [0, 1, 4, 5, 6, 7],
    "cycles": [[0, 5, 4, 6, 7, 1, 2], [0, 2, 3, 1, 7], [0, 6, 5, 7, 4, 1, 3],
               [0, 4, 7, 6, 1, 5], [0, 7, 5, 1, 6, 4], [0, 3, 2, 1, 4, 5, 6]],
}
_TABLE_K6_K6 = {
    "n1": 6,
    "g2_verts": [0, 1, 6, 7, 8, 9],
    "cycles": [[0, 5, 3, 4, 2, 1, 6, 8, 7, 9], [0, 2, 4, 3, 5, 1, 9, 7, 8, 6],
               [0, 3, 2, 5, 4, 1, 8, 9, 6, 7], [0, 4, 5, 2, 3, 1, 7, 6, 9, 8],
               [0, 7, 1, 3], [0, 9, 1, 5], [0, 8, 1, 4], [0, 6, 1, 2]],
}

# parameterized edge-present gluings: replacement cycles plus the two
# detour paths substituted into the cycles of the partner cover that
# carry the arcs v1->v2 and v2->v1
_EDGE_PRESENT = {
    "K4": {
        "clique": 4,
        "fixed": [[0, 1, 3], [0, 3, 2, 1]],
        "detour_12": [0, 2, 3, 1],   # replaces arc v1->v2
        "detour_21": [1, 2, 0],      # replaces arc v2->v1
    },
    "K6": {
        "clique": 6,
        "fixed": [[0, 1, 3, 5, 2, 4], [0, 2, 5, 1], [0, 3, 1, 4, 5], [0, 4, 1, 2, 3]],
        "detour_12": [0, 5, 4, 3, 2, 1],
        "detour_21": [1, 5, 3, 4, 2, 0],
    },
}


def _substitute_arc(c: DirectedCycle, arc: tuple[int, int], via: list[int]) -> DirectedCycle:
    """Replace arc (a,b) of c by the path via (which runs a..b)."""
    vs = _rotate_to_end(c, arc)  # b ... a
    return DirectedCycle(tuple(vs + via[1:-1]))


def merge_2cut_special(pieces, c2: Optional[CoverCertificate] = None) -> CoverCertificate:
    """K4/K6 gluings across a 2-cut where the generic splice count is too big.

    pieces ("K4","K4"), ("K4","K6") or ("K6","K6"): the no-edge double
    clique gluing, returned from the transcribed explicit cycle tables.
    pieces "K4" or "K6" with c2 given: the clique is glued onto the cover
    c2 of G2 (which contains edge v1v2), and the edge stays in the graph.
    """
    if isinstance(pieces, tuple):
        table = {("K4", "K4"): _TABLE_K4_K4, ("K4", "K6"): _TABLE_K4_K6,
                 ("K6", "K6"): _TABLE_K6_K6}.get(tuple(pieces))
        if table is None:
            raise SpecError(f"no table for piece pattern {pieces!r}")
        n1 = table["n1"]
        g1_verts = list(range(n1))
        g2_verts = table["g2_verts"]
        edges = [(a, b) for a, b in itertools.combinations(g1_verts, 2) if (a, b) != (0, 1)]
        edges += [(a, b) for a, b in itertools.combinations(g2_verts, 2) if (a, b) != (0, 1)]
        g = Graph.from_edges(len(set(g1_verts) | set(g2_verts)), edges)
        cycles = [DirectedCycle(tuple(vs)) for vs in table["cycles"]]
        return certify(g, "SOCDC", cycles, f"2-cut table {pieces[0]}+{pieces[1]}")

    entry = _EDGE_PRESENT.get(pieces)
    if entry is None:
        raise SpecError(f"no edge-present construction for {pieces!r}")
    if c2 is None:
        raise SpecError("edge-present gluing needs the partner cover c2")
    _admit(c2, "SOCDC")
    k = entry["clique"]
    # clique vertices v1,v2 identify with merged 0,1; v3.. become fresh ids
    base = c2.host.n
    ren = {0: 0, 1: 1}
    for i in range(2, k):
        ren[i] = base + i - 2
    if not c2.host.has_edge(0, 1):
        raise SpecError("partner cover's host must contain the cut edge {0,1}")
    cyc2 = list(c2.elements)
    i1 = _cycle_with_arc(cyc2, (0, 1))
    i2 = _cycle_with_arc(cyc2, (1, 0))
    fixed = [DirectedCycle(tuple(ren[v] for v in vs)) for vs in entry["fixed"]]
    d12 = [ren[v] for v in entry["detour_12"]]
    d21 = [ren[v] for v in entry["detour_21"]]
    rerouted = [_substitute_arc(cyc2[i1], (0, 1), d12),
                _substitute_arc(cyc2[i2], (1, 0), d21)]
    cycles = [c for j, c in enumerate(cyc2) if j not in (i1, i2)] + fixed + rerouted
    edges = list(c2.host.edges)
    edges += [(min(ren[a], ren[b]), max(ren[a], ren[b]))
              for a, b in itertools.combinations(range(k), 2) if (a, b) != (0, 1)]
    g = Graph.from_edges(base + k - 2, edges)
    return certify(g, "SOCDC", cycles,
                   f"2-cut edge-present {pieces} gluing onto [{c2.provenance}]")


# ---------------------------------------------------------------------------
# 3-edge-cut merges
# ---------------------------------------------------------------------------

def _cycles_through(cycles: Sequence[DirectedCycle], w: int) -> dict[int, tuple[int, int]]:
    """Map in-neighbor -> (cycle index, out-neighbor) at vertex w."""
    out = {}
    for i, c in enumerate(cycles):
        vs = c.vertices
        if w in vs:
            j = vs.index(w)
            out[vs[j - 1]] = (i, vs[(j + 1) % len(vs)])
    return out


def _path_without(c: DirectedCycle, w: int) -> list[int]:
    """The directed path obtained by deleting w: succ(w) ... pred(w)."""
    vs = c.vertices
    j = vs.index(w)
    return list(vs[j + 1:] + vs[:j])


def merge_3edgecut(c1: CoverCertificate, c2: CoverCertificate,
                   cut_edges: list[tuple[int, int]], w1: int, w2: int,
                   spec: MergeSpec) -> CoverCertificate:
    """Merge OCDCs of the two contracted sides of a 3-edge cut.

    c1 covers H1 (side one plus the far side contracted to w1), c2 covers
    H2 (side two plus w2).  cut_edges are (u_i, v_i) pairs in merged ids,
    u_i on side one, v_i on side two; repeated endpoints select the paper's
    case II (u1 doubled) or case III (u1 and v2 doubled).  spec.map1/map2
    relabel H1 minus w1 and H2 minus w2 into the merged graph; the maps of
    w1 and w2 themselves are ignored.

    The cycle labeling the construction needs is found by trying the edge
    permutations and whole-cover reversals that the underlying symmetry
    allows; once the cut edges join the neighbours of w1 to those of w2,
    one always matches.
    """
    if len(cut_edges) != 3:
        raise SpecError("exactly three cut edges required")
    _admit(c1, "OCDC", "SOCDC")
    _admit(c2, "OCDC", "SOCDC")
    us = [u for u, _ in cut_edges]
    vs_ = [v for _, v in cut_edges]
    if len(set(us)) == 3 and len(set(vs_)) == 3:
        pattern = "distinct"
    elif us[0] == us[1] and len(set(vs_)) == 3 and us[2] != us[0]:
        pattern = "shared_tail"
    elif us[0] == us[1] and vs_[1] == vs_[2] and us[2] != us[0] and vs_[0] != vs_[1]:
        pattern = "shared_both"
    else:
        raise SpecError(f"cut edge endpoint pattern not recognized: {cut_edges}")

    inv1 = {m: p for p, m in spec.map1.items() if p != w1}
    inv2 = {m: p for p, m in spec.map2.items() if p != w2}
    n = len(inv1) + len(inv2)
    ids = set(inv1) | set(inv2)
    if ids != set(range(n)) or len(ids) != n:
        raise SpecError("merged ids must be dense and the sides disjoint")

    # relabel both covers into merged ids, keeping w_i under sentinel names
    W1, W2 = n, n + 1
    m1 = {p: m for m, p in inv1.items()}
    m1[w1] = W1
    m2 = {p: m for m, p in inv2.items()}
    m2[w2] = W2
    edges = [e for e in _relabel_graph(c1.host, m1) + _relabel_graph(c2.host, m2)
             if W1 not in e and W2 not in e]
    if ({m1[x] for x in c1.host.neighbors(w1)} != set(us)
            or {m2[x] for x in c2.host.neighbors(w2)} != set(vs_)):
        raise SpecError("cut edges must join the neighbours of w1 to those of w2")
    g = Graph.from_edges(n, edges + list(cut_edges))
    cyc1 = _relabel_cycles(c1.elements, m1)
    cyc2 = _relabel_cycles(c2.elements, m2)

    for rev1, rev2, perm in _labelings(pattern):
        a1 = [c.reversed() for c in cyc1] if rev1 else cyc1
        a2 = [c.reversed() for c in cyc2] if rev2 else cyc2
        edges_p = [cut_edges[i] for i in perm]
        got = _try_3cut(a1, a2, edges_p, W1, W2, pattern)
        if got is not None:
            new_cycles, drop1, drop2 = got
            kept = [c for j, c in enumerate(a1) if j not in drop1]
            kept += [c for j, c in enumerate(a2) if j not in drop2]
            return certify(g, "OCDC", kept + new_cycles,
                           f"3-edge-cut merge ({pattern}) of "
                           f"[{c1.provenance}] and [{c2.provenance}]")
    raise InternalConsistencyError(
        "no labeling of the cut edges matches the covers' cycle structure at the contracted vertices")


def _labelings(pattern: str):
    if pattern == "distinct":
        perms = list(itertools.permutations(range(3)))
    elif pattern == "shared_tail":
        perms = [(0, 1, 2), (1, 0, 2)]  # v1, v2 swappable (both hang off u1)
    else:
        perms = [(0, 1, 2)]
    for rev1 in (False, True):
        for rev2 in (False, True):
            for perm in perms:
                yield rev1, rev2, perm


def _try_3cut(cyc1, cyc2, edges, W1, W2, pattern):
    """Attempt the case construction under one labeling; None if the
    required directed paths through the contracted vertices are absent."""
    us = [u for u, _ in edges]
    vs = [v for _, v in edges]
    t1 = _cycles_through(cyc1, W1)
    t2 = _cycles_through(cyc2, W2)

    def pick(table, enter, leave):
        hit = table.get(enter)
        if hit is None or hit[1] != leave:
            return None
        return hit[0]

    if pattern == "distinct":
        # C_1^j through (u_{j-1}, w1, u_{j+1}); C_2^j through (v_{j+1}, w2, v_{j-1})
        idx1 = [pick(t1, us[(j - 1) % 3], us[(j + 1) % 3]) for j in range(3)]
        idx2 = [pick(t2, vs[(j + 1) % 3], vs[(j - 1) % 3]) for j in range(3)]
        if None in idx1 or None in idx2:
            return None
        new = []
        for j in range(3):
            p1 = _path_without(cyc1[idx1[j]], W1)   # u_{j+1} .. u_{j-1}
            p2 = _path_without(cyc2[idx2[j]], W2)   # v_{j-1} .. v_{j+1}
            new.append(DirectedCycle(tuple(p1 + p2)))
        return new, set(idx1), set(idx2)

    if pattern == "shared_tail":
        # edges: (u1,v1), (u1,v2), (u2,v3); C_1^j through (u_j, w1, u_{j+1}) mod 2
        u1, u2 = us[0], us[2]
        i11 = pick(t1, u1, u2)
        i12 = pick(t1, u2, u1)
        # C_2^k through (v_k, w2, v_{k-1}) mod 3
        idx2 = [pick(t2, vs[k], vs[(k - 1) % 3]) for k in range(3)]
        if None in (i11, i12) or None in idx2:
            return None
        p11 = _path_without(cyc1[i11], W1)   # u2 .. u1
        p12 = _path_without(cyc1[i12], W1)   # u1 .. u2
        p21, p22, p23 = (_path_without(cyc2[i], W2) for i in idx2)
        # p2k runs v_{k-1} .. v_k
        new = [DirectedCycle(tuple(p11 + p23)),          # u2..u1, v2..v3, back by v3->u2
               DirectedCycle(tuple(p12 + p21)),          # u1..u2, v3..v1, back by v1->u1
               DirectedCycle(tuple(p22 + [u1]))]         # v1..v2, v2->u1, u1->v1
        return new, {i11, i12}, set(idx2)

    # shared_both: edges (u1,v1), (u1,v2), (u2,v2)
    u1, u2 = us[0], us[2]
    v1, v2 = vs[0], vs[1]
    i11 = pick(t1, u1, u2)
    i12 = pick(t1, u2, u1)
    i21 = pick(t2, v1, v2)
    i22 = pick(t2, v2, v1)
    if None in (i11, i12, i21, i22):
        return None
    p11 = _path_without(cyc1[i11], W1)   # u2 .. u1
    p12 = _path_without(cyc1[i12], W1)   # u1 .. u2
    p21 = _path_without(cyc2[i21], W2)   # v2 .. v1
    p22 = _path_without(cyc2[i22], W2)   # v1 .. v2
    new = [DirectedCycle(tuple(p11 + p22)),     # u2..u1 -> v1..v2 -> u2
           DirectedCycle(tuple(p12 + [v2])),    # u1..u2 -> v2 -> u1
           DirectedCycle(tuple(p21 + [u1]))]    # v2..v1 -> u1 -> v2
    return new, {i11, i12}, {i21, i22}


# ---------------------------------------------------------------------------
# Apex join/strip and products
# ---------------------------------------------------------------------------

def join_apex(p: CoverCertificate) -> CoverCertificate:
    """Turn an OPPDC of G into a small cover of G joined with one new vertex."""
    g = p.host
    _admit(p, "OPPDC")
    apex = g.n
    edges = list(g.edges) + [(v, apex) for v in range(g.n)]
    g2 = Graph.from_edges(g.n + 1, edges)
    cycles = [DirectedCycle((apex,) + q.vertices) for q in p.elements]
    return certify(g2, "SOCDC", cycles, f"apex join of [{p.provenance}]")


def strip_apex(c: CoverCertificate, apex: int) -> CoverCertificate:
    """Inverse of join_apex: remove a dominating vertex, cycles become paths."""
    g = c.host
    if apex not in range(g.n) or g.degree(apex) != g.n - 1:
        raise SpecError(f"vertex {apex} is not adjacent to all others")
    _admit(c, "SOCDC")
    relabel = {v: (v if v < apex else v - 1) for v in range(g.n) if v != apex}
    # the n-1 arcs out of the apex lie on n-1 distinct cycles, so every cycle
    # of a small cover passes through it
    paths = [DirectedPath(tuple(relabel[v] for v in _path_without(cyc, apex)))
             for cyc in c.elements]
    edges = [(relabel[u], relabel[v]) for u, v in g.edges if apex not in (u, v)]
    return certify(Graph.from_edges(g.n - 1, edges), "OPPDC", paths,
                   f"apex strip of [{c.provenance}]")


def prism_p2(p: CoverCertificate) -> CoverCertificate:
    """Lift an OPPDC of G to a small cover of G x P2 with |V(G)| cycles.

    Vertex (u, layer) is numbered 2u + layer, matching cartesian(G, P2).
    """
    _admit(p, "OPPDC")
    prod = cartesian(p.host, path_graph(2))
    cycles = []
    for q in p.elements:
        fwd = [2 * v for v in q.vertices]
        back = [2 * v + 1 for v in reversed(q.vertices)]
        cycles.append(DirectedCycle(tuple(fwd + back)))
    return certify(prod, "SOCDC", cycles, f"prism lift of [{p.provenance}]")


def product_cycle_large(c: CoverCertificate, n: int) -> tuple[CoverCertificate, bool]:
    """Cover G x C_n by per-layer copies of c plus doubled column cycles.

    Vertex (u, i) is numbered u*n + i.  Returns (certificate, small);
    small is False when n < 2|V(G)|+1 and the count bound can fail.
    """
    g = c.host
    if n < 3:
        raise ValueError("cycle factor needs n >= 3")
    _admit(c, "SOCDC")
    prod = cartesian(g, cycle_graph(n))
    cycles = []
    for i in range(n):
        for cyc in c.elements:
            cycles.append(DirectedCycle(tuple(v * n + i for v in cyc.vertices)))
    for u in range(g.n):
        col = DirectedCycle(tuple(u * n + i for i in range(n)))
        cycles.append(col)
        cycles.append(col.reversed())
    # for n >= 2|V(G)|+1 the count bound is a theorem, so certify enforces it
    cert = certify(prod, "SOCDC" if n >= 2 * g.n + 1 else "OCDC", cycles,
                   f"layer/column product of [{c.provenance}] with a {n}-cycle")
    return cert, cert.kind == "SOCDC"


class SearchUnresolved(RuntimeError):
    """Search-backed lift ran out of budget; existence stays open here."""

    def __init__(self, outcome):
        super().__init__("search budget exhausted before a cover was found")
        self.outcome = outcome


def product_lift(cert: CoverCertificate, factor: str,
                 node_budget: Optional[int] = 10**7) -> CoverCertificate:
    """Small cover of G x factor, where factor is a spec like "path:3",
    "cycle:4", or any tree given as "tree:<graph6>".

    An OPPDC with P2 goes to prism_p2, a small cover with C_k, k >= 2|V(G)|+1,
    to product_cycle_large.  Otherwise the hypothesis cover (OPPDC for
    even-cycle and P2 factors, small cover otherwise) is checked and the
    product cover is found by bounded exact-cover search; the factor theorems
    guarantee existence, so NoneExists is an internal inconsistency and
    budget exhaustion raises SearchUnresolved.
    """
    from .graphs import generate, parse_graph6 as _pg6
    from .search import find_socdc

    g = cert.host
    name = factor.split(":")[0]
    if factor.startswith("tree:"):
        h = _pg6(factor[len("tree:"):])
        if h.m != h.n - 1 or not h.is_connected():
            raise SpecError("tree factor is not a tree")
        even_cycle = False
    elif name not in ("path", "cycle"):
        raise SpecError(f"unsupported factor {factor!r}")
    else:
        h = generate(factor)
        if name == "path":
            if h.n < 2:
                raise SpecError("path factor needs length >= 2")
            if h.n == 2 and cert.kind == "OPPDC":
                return prism_p2(cert)
            even_cycle = h.n == 2
        else:
            if cert.kind == "SOCDC" and h.n >= 2 * g.n + 1:
                return product_cycle_large(cert, h.n)[0]
            even_cycle = h.n % 2 == 0
    _admit(cert, *(("OPPDC",) if even_cycle else ("SOCDC", "OPPDC")))
    prod = cartesian(g, h)
    out = find_socdc(prod, node_budget, prove_minimum=False)
    if out.status == "Unresolved":
        raise SearchUnresolved(out)
    if out.status == "NoneExists":
        raise InternalConsistencyError(
            "product theorem guarantees a small cover but exhaustive search found none")
    return replace(out.certificate,
                   provenance=f"search-backed product lift of [{cert.provenance}] with {factor}")
