"""Closed-form cover constructors for the explicitly resolved graph families.

Every constructor returns through covers.certify, so no unverified
certificate ever leaves this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .graphs import (Graph, RotationSystem, complete, complete_bipartite,
                     faces as face_walks, is_bridgeless)
from .covers import (CoverCertificate, DirectedCycle, DirectedPath, Infeasible,
                     InternalConsistencyError, certify,
                     double_cycle_decomposition, orient_cdc)
from .surgery import _rotate_to_end, join_apex


class NoSocdcExists(ValueError):
    """The requested family member provably has no small cover (K4, K6)."""


class NotPlanarEmbedding(ValueError):
    """Face count of the rotation system contradicts genus 0."""


class DeskScaleError(ValueError):
    """Instance too large for the exhaustive methods this toolkit trusts."""


def ocdc_k4() -> CoverCertificate:
    """The explicit 4-cycle cover of K4 (every cover of K4 has exactly 4)."""
    g = complete(4)
    cycles = [DirectedCycle(t) for t in [(0, 1, 3), (1, 0, 2), (2, 3, 1), (3, 2, 0)]]
    return certify(g, "OCDC", cycles, "explicit K4 table")


def ocdc_k6() -> CoverCertificate:
    """The explicit 6-cycle cover of K6 (one more than the small bound)."""
    g = complete(6)
    rows = [(1, 2, 3, 4, 5, 6), (2, 6, 3, 5, 4), (1, 5, 2, 4, 3),
            (1, 4, 6, 2, 5), (1, 6, 5, 3, 2), (1, 3, 6, 4)]
    cycles = [DirectedCycle(tuple(v - 1 for v in t)) for t in rows]
    return certify(g, "OCDC", cycles, "explicit K6 table")


# ---------------------------------------------------------------------------
# Complete graphs
# ---------------------------------------------------------------------------

def hamiltonian_decomposition_odd(n: int) -> list[DirectedCycle]:
    """Rotational (Walecki) Hamiltonian cycle decomposition of K_n, n odd.

    Vertex n-1 is the fixed hub; the zigzag 0, 1, 2n-2, 2, 2n-3, ... over
    Z_{n-1} is rotated through (n-1)/2 positions.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("needs odd n >= 3")
    if n == 3:
        return [DirectedCycle((0, 1, 2))]
    m = n - 1  # even
    base = [0]
    for k in range(1, m // 2 + 1):
        base.append(k)
        if len(base) < m:
            base.append(m - k)
    cycles = []
    for i in range(m // 2):
        vs = [n - 1] + [(v + i) % m for v in base]
        cycles.append(DirectedCycle(tuple(vs)))
    return cycles


def socdc_complete_odd(n: int) -> CoverCertificate:
    """Small cover of K_n (n odd) by doubling a Hamiltonian decomposition."""
    if n % 2 == 0 or n < 3:
        raise ValueError("socdc_complete_odd needs odd n >= 3")
    g = complete(n)
    doubled = double_cycle_decomposition(g, hamiltonian_decomposition_odd(n))
    return certify(g, "SOCDC", doubled, f"doubled Walecki decomposition of K{n}")


@lru_cache(maxsize=None)
def oppdc_complete_odd(n: int) -> CoverCertificate:
    """An oriented perfect path double cover of K_n, n odd >= 7.

    The doubled Walecki decomposition covers every arc once with n-1
    directed Hamiltonian cycles.  A depth-first search from vertex 0
    (neighbours in increasing order) finds a transversal Hamiltonian path
    x_0 ... x_{n-1}, one whose n-1 arcs lie in n-1 distinct cycles.
    Cutting each cycle at its arc x_i->x_{i+1} leaves a Hamiltonian path
    from x_{i+1} to x_i; these and the transversal path cover every arc
    once.  The starts are x_1..x_{n-1} and x_0, the ends x_0..x_{n-2} and
    x_{n-1}, so every vertex starts exactly one path and ends exactly one.
    """
    if n % 2 == 0 or n < 7:
        raise ValueError("oppdc_complete_odd needs odd n >= 7")
    if n > 15:
        raise DeskScaleError(f"K{n} path cover search beyond desk scale")
    g = complete(n)
    cycles = double_cycle_decomposition(g, hamiltonian_decomposition_odd(n))
    cycle_of = {a: i for i, c in enumerate(cycles) for a in c.arcs()}
    path, used = [0], set()

    def extend() -> bool:
        if len(path) == n:
            return True
        for w in range(n):
            i = cycle_of.get((path[-1], w))
            if w in path or i in used:
                continue
            path.append(w)
            used.add(i)
            if extend():
                return True
            path.pop()
            used.discard(i)
        return False

    extend()  # when no path is found, certify rejects the lone path (0,)
    paths = [DirectedPath(tuple(_rotate_to_end(cycles[cycle_of[a]], a)))
             for a in zip(path, path[1:])]
    return certify(g, "OPPDC", paths + [DirectedPath(tuple(path))],
                   f"doubled Walecki cycles of K{n} cut along a transversal Hamiltonian path")


def socdc_complete_even(n: int) -> CoverCertificate:
    """Small cover of K_n (n even >= 8) via an OPPDC of K_{n-1} plus an apex."""
    if n % 2 or n < 4:
        raise ValueError("socdc_complete_even needs even n >= 4")
    if n in (4, 6):
        raise NoSocdcExists(f"K{n} has no small cover; it is a conjecture exception")
    cert = join_apex(oppdc_complete_odd(n - 1))
    if cert.host.edges != complete(n).edges or len(cert.elements) != n - 1:
        raise InternalConsistencyError(f"apex join did not give a small cover of K{n}")
    return cert


def socdc_complete_bipartite(n: int, m: int) -> CoverCertificate:
    """The m explicit interleaved cycles covering K_{n,m}, 2 <= n <= m.

    Cycle i alternates v_1, w_i, v_2, w_{i+1}, ..., v_n, w_{i+n-1} with the
    w subscripts mod m; part one is 0..n-1, part two is n..n+m-1.
    """
    if not (2 <= n <= m):
        raise ValueError("socdc_complete_bipartite needs 2 <= n <= m")
    g = complete_bipartite(n, m)
    cycles = []
    for i in range(m):
        vs = []
        for j in range(n):
            vs.append(j)
            vs.append(n + (i + j) % m)
        cycles.append(DirectedCycle(tuple(vs)))
    return certify(g, "SOCDC", cycles, f"interleaved formula cycles for K({n},{m})")


# ---------------------------------------------------------------------------
# Planar graphs via rotation systems
# ---------------------------------------------------------------------------

@dataclass
class PlanarCoverResult:
    certificate: CoverCertificate
    bound_violation: bool   # |E| >= 2|V|-2: cover emitted but smallness not implied
    split_walks: bool       # a face walk repeated a vertex and was split


def socdc_planar(g: Graph, rot: RotationSystem) -> PlanarCoverResult:
    """Orient the faces of a genus-0 embedding into a cover.

    Needs g bridgeless and exactly 2+|E|-|V| faces.  Face walks that
    repeat a vertex (possible when g is only 1-connected) are split into
    arc-disjoint simple cycles, which can push the count past the bound.
    """
    if not is_bridgeless(g):
        raise ValueError("planar face covers need a bridgeless graph")
    walks = face_walks(g, rot)
    euler = 2 + g.m - g.n
    if len(walks) != euler:
        raise NotPlanarEmbedding(
            f"rotation yields {len(walks)} faces, genus 0 needs {euler}")
    cycles: list[DirectedCycle] = []
    split = False
    for walk in walks:
        seq = [a[0] for a in walk]
        if len(set(seq)) == len(seq):
            cycles.append(DirectedCycle(tuple(seq)))
            continue
        split = True
        stack: list[int] = []
        for v in seq + [seq[0]]:
            if v in stack:
                i = stack.index(v)
                piece = stack[i:]
                if len(piece) >= 3:
                    cycles.append(DirectedCycle(tuple(piece)))
                del stack[i:]
            stack.append(v)
    cert = certify(g, "OCDC", cycles, "oriented face boundaries of a planar rotation")
    return PlanarCoverResult(cert, g.m >= 2 * g.n - 2, split)


# ---------------------------------------------------------------------------
# Cubic graphs via 3-edge-colorings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeColoring3:
    """Proper 3-edge-coloring of a cubic graph; each class a perfect matching."""

    colors: dict[tuple[int, int], int]

    def matching(self, color: int) -> list[tuple[int, int]]:
        return sorted(e for e, c in self.colors.items() if c == color)


def edge_color_cubic(g: Graph) -> Optional[EdgeColoring3]:
    """A proper 3-edge-coloring by exhaustive backtracking, or None when the
    graph is class 2 (trusted only at desk scale, n <= 20)."""
    if not g.is_cubic():
        raise ValueError("edge coloring here applies to cubic graphs only")
    edges = g.sorted_edges()
    colors: dict[tuple[int, int], int] = {}
    incident: dict[int, list[tuple[int, int]]] = {v: [] for v in range(g.n)}
    for e in edges:
        incident[e[0]].append(e)
        incident[e[1]].append(e)

    def ok(e, c):
        return all(colors.get(f) != c for v in e for f in incident[v] if f != e)

    def solve(i: int) -> bool:
        if i == len(edges):
            return True
        e = edges[i]
        for c in (1, 2, 3):
            if ok(e, c):
                colors[e] = c
                if solve(i + 1):
                    return True
                del colors[e]
        return False

    if solve(0):
        return EdgeColoring3(dict(colors))
    if g.n > 20:
        raise DeskScaleError("class-2 verdicts are only trusted for n <= 20")
    return None


def ocdc_cubic_class1(g: Graph) -> CoverCertificate:
    """Cover a class-1 cubic graph by orienting the three 2-factor cycle
    systems M_i + M_j of a proper 3-edge-coloring."""
    coloring = edge_color_cubic(g)
    if coloring is None:
        raise ValueError("graph is class 2; no 3-edge-coloring exists")
    cdc: list[DirectedCycle] = []
    for a, b in itertools.combinations((1, 2, 3), 2):
        sub = Graph.from_edges(g.n, coloring.matching(a) + coloring.matching(b))
        cdc.extend(_two_factor_cycles(sub))
    oriented = orient_cdc(g, cdc)
    provenance = "oriented 2-factor pairs of a proper 3-edge-coloring"
    if isinstance(oriented, Infeasible):
        # The 2-factor CDC itself may be unorientable (it is for K4 and the
        # triangular prism).  An OCDC within the cubic bound still exists,
        # so fall back to exact search capped at n/2 + 2 cycles.
        from .search import min_ocdc
        out = min_ocdc(g, g.n // 2 + 2)
        if not out.found:
            raise InternalConsistencyError(
                "class-1 cubic graph has no OCDC within the n/2+2 bound")
        oriented = out.certificate.elements
        provenance = "exact search within the cubic bound; 2-factor CDC unorientable"
    return certify(g, "OCDC", oriented, provenance)


def _two_factor_cycles(sub: Graph) -> list[DirectedCycle]:
    """Cycle components of a 2-regular graph, each anchored at its least vertex."""
    seen = [False] * sub.n
    out = []
    for v in range(sub.n):
        if seen[v] or sub.degree(v) == 0:
            continue
        cyc = [v]
        seen[v] = True
        prev, cur = v, min(sub.neighbors(v))
        while cur != v:
            cyc.append(cur)
            seen[cur] = True
            nxt = [w for w in sub.neighbors(cur) if w != prev]
            prev, cur = cur, nxt[0]
        out.append(DirectedCycle(tuple(cyc)))
    return out
