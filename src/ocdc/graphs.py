"""Simple undirected graphs: representation, graph6 I/O, generators, structure.

Vertices are dense integers 0..n-1.  All values are immutable after
construction and safe to share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence


class Graph6ParseError(ValueError):
    """Malformed graph6 input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class RotationError(ValueError):
    """Rotation system inconsistent with its host graph."""


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]
    _adj: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not normalized")
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adj", tuple(tuple(sorted(ns)) for ns in adj))

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return Graph(n, frozenset(_norm_edge(u, v) for u, v in edges))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    @property
    def m(self) -> int:
        return len(self.edges)

    def arcs(self) -> Iterator[tuple[int, int]]:
        """All arcs of the symmetric orientation, both directions per edge."""
        for u, v in self.edges:
            yield (u, v)
            yield (v, u)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def is_cubic(self) -> bool:
        return self.n > 0 and all(self.degree(v) == 3 for v in range(self.n))

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = self._component(0)
        return len(seen) == self.n

    def _component(self, start: int,
                   removed_edges: frozenset[tuple[int, int]] = frozenset()) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in self._adj[u]:
                if _norm_edge(u, w) in removed_edges:
                    continue
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def induced(self, vertices: Sequence[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph plus a map from new ids back to ids in self."""
        order = sorted(vertices)
        back = dict(enumerate(order))
        fwd = {v: i for i, v in back.items()}
        es = [(fwd[u], fwd[v]) for u, v in self.edges if u in fwd and v in fwd]
        return Graph.from_edges(len(order), es), back


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (short and long size forms, n <= 258047)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    data = [ord(c) - 63 for c in s]
    for i, x in enumerate(data):
        if not (0 <= x <= 63):
            raise Graph6ParseError(f"invalid graph6 character {s[i]!r}", i)
    if not data:
        raise Graph6ParseError("empty graph6 string", 0)
    if data[0] < 63:
        n, pos = data[0], 1
    else:
        if len(data) < 4:
            raise Graph6ParseError("truncated size field", len(data))
        if data[1] < 63:
            n = (data[1] << 12) | (data[2] << 6) | data[3]
            pos = 4
        else:
            if len(data) < 8:
                raise Graph6ParseError("truncated size field", len(data))
            n = 0
            for x in data[2:8]:
                n = (n << 6) | x
            pos = 8
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise Graph6ParseError(
            f"bit payload truncated: need {nbytes} bytes, have {len(data) - pos}", pos)
    if len(data) - pos > nbytes:
        raise Graph6ParseError("trailing bytes after bit payload", pos + nbytes)
    bits = []
    for x in data[pos:]:
        for k in range(5, -1, -1):
            bits.append((x >> k) & 1)
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return Graph.from_edges(n, edges)


def emit_graph6(g: Graph) -> str:
    """Encode a graph in graph6 format."""
    n = g.n
    if n > 258047:
        raise ValueError("graph too large for graph6 long form supported here")
    if n < 63:
        head = [n]
    elif n < 63 * 64 * 64:  # < 2^18 fits in 3 sextets
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        head = [63, 63] + [(n >> (6 * k)) & 63 for k in range(5, -1, -1)]
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        x = 0
        for b in bits[i:i + 6]:
            x = (x << 1) | b
        body.append(x)
    return "".join(chr(63 + x) for x in head + body)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

class FamilyError(ValueError):
    """Nonsensical family parameters."""


def complete(n: int) -> Graph:
    if n < 1:
        raise FamilyError("complete(n) needs n >= 1")
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def complete_bipartite(n: int, m: int) -> Graph:
    """K_{n,m}; part one is 0..n-1, part two is n..n+m-1."""
    if n < 1 or m < 1:
        raise FamilyError("complete_bipartite needs positive parts")
    return Graph.from_edges(n + m, ((u, n + w) for u in range(n) for w in range(m)))


def path(n: int) -> Graph:
    if n < 1:
        raise FamilyError("path(n) needs n >= 1")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise FamilyError("cycle(n) needs n >= 3")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def join(g: Graph, h: Graph) -> Graph:
    """G ∨ H: disjoint union plus all cross edges; H vertices shifted by |V(G)|."""
    es = list(g.edges)
    es += [(u + g.n, v + g.n) for u, v in h.edges]
    es += [(u, g.n + w) for u in range(g.n) for w in range(h.n)]
    return Graph.from_edges(g.n + h.n, es)


def cartesian(g: Graph, h: Graph) -> Graph:
    """G □ H with vertex (u, v) numbered u*|V(H)| + v."""
    es = []
    for u in range(g.n):
        for v, w in h.edges:
            es.append((u * h.n + v, u * h.n + w))
    for v in range(h.n):
        for u, x in g.edges:
            es.append((u * h.n + v, x * h.n + v))
    return Graph.from_edges(g.n * h.n, es)


def hypercube(d: int) -> Graph:
    if d < 1:
        raise FamilyError("hypercube(d) needs d >= 1")
    es = [(x, x ^ (1 << k)) for x in range(1 << d) for k in range(d) if x < x ^ (1 << k)]
    return Graph.from_edges(1 << d, es)


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    return generalized_petersen(5, 2)


def generalized_petersen(n: int, k: int) -> Graph:
    if n < 3 or not (1 <= k < n) or 2 * k == n:
        raise FamilyError("generalized_petersen(n,k) needs n >= 3, 1 <= k < n/2 or valid skip")
    es = []
    for i in range(n):
        es.append((i, (i + 1) % n))
        es.append((i, i + n))
        es.append((i + n, (i + k) % n + n))
    return Graph.from_edges(2 * n, es)


def mobius_kantor() -> Graph:
    return generalized_petersen(8, 3)


def wheel(n: int) -> Graph:
    """Wheel on n+1 vertices: cycle(n) joined with a hub."""
    if n < 3:
        raise FamilyError("wheel(n) needs rim length n >= 3")
    return join(cycle(n), complete(1))


def prism(n: int = 3) -> Graph:
    return cartesian(cycle(n), path(2))


def k4_chain(r: int) -> Graph:
    """Chain of r cliques K4 glued along a path: order 3r+1, size 6r.

    Clique i lives on {v_i, v_i', v_{i+1}, v_{i+1}'} where the path vertices
    v_1..v_{r+1} are numbered 0..r and the primed vertices r+1..3r.
    """
    if r < 1:
        raise FamilyError("k4_chain(r) needs r >= 1")
    es = []
    for i in range(r):
        a, b = i, i + 1                    # v_{i+1}, v_{i+2}
        ap, bp = r + 1 + 2 * i, r + 2 + 2 * i  # the two private vertices of clique i
        quad = [a, b, ap, bp]
        es += list(itertools.combinations(quad, 2))
    return Graph.from_edges(3 * r + 1, es)


_FIXED_FAMILIES = {
    "petersen": petersen,
    "mobius_kantor": mobius_kantor,
}


def generate(spec: str) -> Graph:
    """Build a graph from a family spec string.

    Examples: "complete:5", "k4_chain:2", "petersen",
    "cartesian:petersen,path:3", "join:cycle:4,complete:1".
    Nested specs for join/cartesian are separated by a top-level comma.
    """
    spec = spec.strip()
    if ":" not in spec:
        name, args = spec, []
    else:
        name, rest = spec.split(":", 1)
        args = _split_top(rest)
    name = name.replace("-", "_")
    if name in _FIXED_FAMILIES:
        if args:
            raise FamilyError(f"{name} takes no parameters")
        return _FIXED_FAMILIES[name]()
    binary = {"join": join, "cartesian": cartesian}
    if name in binary:
        # operands may themselves contain commas; try every split point
        for i in range(1, len(args)):
            lhs, rhs = ",".join(args[:i]), ",".join(args[i:])
            try:
                return binary[name](generate(lhs), generate(rhs))
            except FamilyError:
                continue
        raise FamilyError(f"{name} needs two operand specs, got {args!r}")
    int_families = {
        "complete": (complete, 1), "path": (path, 1), "cycle": (cycle, 1),
        "hypercube": (hypercube, 1), "k4_chain": (k4_chain, 1), "wheel": (wheel, 1),
        "prism": (prism, 1), "complete_bipartite": (complete_bipartite, 2),
        "bipartite": (complete_bipartite, 2), "gp": (generalized_petersen, 2),
    }
    if name not in int_families:
        raise FamilyError(f"unknown family {name!r}")
    fn, arity = int_families[name]
    if len(args) != arity:
        raise FamilyError(f"{name} needs {arity} integer parameter(s)")
    try:
        ints = [int(a) for a in args]
    except ValueError:
        raise FamilyError(f"{name} parameters must be integers: {args}") from None
    return fn(*ints)


def _split_top(s: str) -> list[str]:
    return [p for p in s.split(",") if p != ""]


# ---------------------------------------------------------------------------
# Structure: bridges, connectivity, cuts, blocks, girth
# ---------------------------------------------------------------------------

def _lowlink(g: Graph, removed: frozenset[int] = frozenset()
             ) -> tuple[list[list[tuple[int, int]]], set[int]]:
    """Blocks (as edge lists) and articulation points of g minus `removed`.

    One iterative lowlink DFS from every unvisited vertex in increasing
    order, neighbors in increasing order.  A bridge is a one-edge block.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    comps: list[list[tuple[int, int]]] = []
    cut_vertices: set[int] = set()
    edge_stack: list[tuple[int, int]] = []
    timer = 0
    for root in range(g.n):
        if disc[root] != -1 or root in removed:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack = [(root, -1, iter(g._adj[root]))]
        while stack:
            u, parent, it = stack[-1]
            for w in it:
                if w in removed:
                    continue
                if disc[w] == -1:
                    edge_stack.append((u, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, u, iter(g._adj[w])))
                    break
                if w != parent and disc[w] < disc[u]:
                    edge_stack.append((u, w))
                    if disc[w] < low[u]:
                        low[u] = disc[w]
            else:
                stack.pop()
                if parent == -1:
                    continue
                if low[u] < low[parent]:
                    low[parent] = low[u]
                if low[u] >= disc[parent]:
                    # parent separates u's subtree: its edges form one block
                    comp = []
                    while edge_stack[-1] != (parent, u):
                        comp.append(edge_stack.pop())
                    comp.append(edge_stack.pop())
                    comps.append(comp)
                    if parent == root:
                        root_children += 1
                    else:
                        cut_vertices.add(parent)
        if root_children > 1:
            cut_vertices.add(root)
    return comps, cut_vertices


def bridges(g: Graph) -> list[tuple[int, int]]:
    """All cut edges, sorted."""
    comps, _ = _lowlink(g)
    return sorted(_norm_edge(*comp[0]) for comp in comps if len(comp) == 1)


def is_bridgeless(g: Graph) -> bool:
    return not bridges(g)


def vertex_connectivity_at_most(g: Graph, k: int) -> Optional[tuple[int, ...]]:
    """The lex-first smallest vertex cut of size <= k (k <= 3), else None.

    A set P + (v,) is a cut exactly when v is an articulation point of
    G - P, and G - P is connected when no smaller cut exists; so each size
    walks the prefixes P in lex order with one lowlink pass each.  The
    first P with an articulation point gives the lex-first cut: one below
    max(P) would have completed an earlier prefix.
    """
    if not g.is_connected():
        raise ValueError("input graph must be connected")
    if k < 1 or k > 3:
        raise ValueError("k must be between 1 and 3")
    for size in range(1, k + 1):
        if g.n - size < 2:
            break
        for prefix in itertools.combinations(range(g.n), size - 1):
            _, cut_vertices = _lowlink(g, frozenset(prefix))
            if cut_vertices:
                return prefix + (min(cut_vertices),)
    return None


@dataclass(frozen=True)
class EdgeCut:
    edges: frozenset[tuple[int, int]]
    sides: tuple[frozenset[int], frozenset[int]]

    @property
    def nontrivial(self) -> bool:
        return all(len(s) > 1 for s in self.sides)


def _cycle_space_labels(g: Graph) -> dict[tuple[int, int], int]:
    """Exact cycle-space labels of the edges of a connected graph.

    Non-tree edge i of a BFS tree from vertex 0 (in sorted edge order) gets
    label 1 << i; a tree edge gets the XOR of the labels of the non-tree
    edges whose fundamental cycle uses it.  An edge set is a union of cuts
    exactly when its labels XOR to 0, so a bridge has label 0 and {e, f} is
    a cut exactly when l_e == l_f (Pritchard & Thurimella, TALG 7(4), 2011,
    with a full basis instead of random samples).
    """
    if g.n == 0:
        return {}
    parent = [-1] * g.n
    parent[0] = 0
    order = [0]
    for u in order:
        for w in g._adj[u]:
            if parent[w] == -1:
                parent[w] = u
                order.append(w)
    labels = {}
    subtree = [0] * g.n  # XOR of non-tree labels at the vertex, then its subtree
    bit = 0
    for u, v in g.sorted_edges():
        if parent[v] == u or parent[u] == v:
            continue
        labels[(u, v)] = 1 << bit
        subtree[u] ^= 1 << bit
        subtree[v] ^= 1 << bit
        bit += 1
    for v in reversed(order[1:]):
        labels[_norm_edge(parent[v], v)] = subtree[v]
        subtree[parent[v]] ^= subtree[v]
    return labels


def nontrivial_3_edge_cuts(g: Graph) -> list[EdgeCut]:
    """All edge cuts of size exactly 3 with both sides of >= 2 vertices,
    in lex order of their sorted edge triples.

    Candidate triples are those whose cycle-space labels XOR to 0; each is
    confirmed by search: it counts only if removing it leaves exactly two
    components and every removed edge crosses between them.
    """
    if not g.is_connected():
        raise ValueError("input graph must be connected")
    edges = g.sorted_edges()
    labels = _cycle_space_labels(g)
    lab = [labels[e] for e in edges]
    by_label: dict[int, list[int]] = {}
    for idx, x in enumerate(lab):
        by_label.setdefault(x, []).append(idx)
    out = []
    for i, j in itertools.combinations(range(len(edges)), 2):
        for k in by_label.get(lab[i] ^ lab[j], ()):
            if k <= j:
                continue
            removed = frozenset((edges[i], edges[j], edges[k]))
            side = g._component(0, removed_edges=removed)
            if len(side) == g.n:
                continue
            other = set(range(g.n)) - side
            # the far side must be one component and every edge must cross
            if g._component(next(iter(other)), removed_edges=removed) != other:
                continue
            if any((u in side) == (v in side) for u, v in removed):
                continue
            if len(side) >= 2 and len(other) >= 2:
                out.append(EdgeCut(removed, (frozenset(side), frozenset(other))))
    return out


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[tuple[Graph, dict[int, int]], ...]  # (subgraph, new->old map)
    cut_vertices: frozenset[int]


def blocks(g: Graph) -> BlockDecomposition:
    """Maximal 2-connected subgraphs (bridges are K2 blocks) and cut vertices."""
    if not g.is_connected():
        raise ValueError("input graph must be connected")
    comps, cut_vertices = _lowlink(g)
    blist = []
    for comp in comps:
        vs = sorted({v for e in comp for v in e})
        fwd = {v: i for i, v in enumerate(vs)}
        sub = Graph.from_edges(len(vs), ((fwd[u], fwd[v]) for u, v in comp))
        blist.append((sub, dict(enumerate(vs))))
    if g.n == 1:
        blist.append((Graph.from_edges(1, []), {0: 0}))
    return BlockDecomposition(tuple(blist), frozenset(cut_vertices))


def girth_and_average_degree(g: Graph) -> tuple[float | int, Fraction]:
    """(girth, 2|E|/|V|); girth is math.inf for forests, avg is exact."""
    import math
    best = math.inf
    for src in range(g.n):
        # BFS shortest cycle through src
        dist = {src: 0}
        parent = {src: -1}
        q = [src]
        while q:
            nq = []
            for u in q:
                for w in g.neighbors(u):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nq.append(w)
                    elif w != parent[u]:
                        best = min(best, dist[u] + dist[w] + 1)
            q = nq
    if g.n == 0:
        raise ValueError("girth undefined on the empty graph")
    avg = Fraction(2 * g.m, g.n)
    return (best if best is math.inf else int(best)), avg


# ---------------------------------------------------------------------------
# Rotation systems and face traversal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotationSystem:
    """Cyclic order of incident neighbors at every vertex."""

    rotations: tuple[tuple[int, ...], ...]

    def validate(self, g: Graph) -> None:
        if len(self.rotations) != g.n:
            raise RotationError("rotation count differs from vertex count")
        for v in range(g.n):
            if sorted(self.rotations[v]) != list(g.neighbors(v)):
                raise RotationError(f"rotation at vertex {v} is not a permutation of its neighbors")

    def successor(self, v: int, u: int) -> int:
        """Neighbor after u in v's cyclic rotation."""
        rot = self.rotations[v]
        i = rot.index(u)
        return rot[(i + 1) % len(rot)]


def faces(g: Graph, rot: RotationSystem) -> list[list[tuple[int, int]]]:
    """Face walks of the embedding: arc (u,v) is followed by (v, succ_v(u)).

    Every arc of the symmetric orientation lies on exactly one walk.
    """
    rot.validate(g)
    unused = set(g.arcs())
    walks = []
    while unused:
        start = min(unused)
        walk = []
        arc = start
        while True:
            walk.append(arc)
            unused.discard(arc)
            u, v = arc
            arc = (v, rot.successor(v, u))
            if arc == start:
                break
            if arc not in unused:
                raise RotationError(f"face traversal revisited arc {arc} before closing")
        walks.append(walk)
    return walks


def planar_rotation(g: Graph) -> RotationSystem:
    """Canonical planar rotations for the shipped fixtures.

    Covers cycles, K4, wheels, and prisms/cubes (C_n x P2); raises
    RotationError for hosts without a shipped embedding.
    """
    # cycle
    if g.n >= 3 and g.m == g.n and all(g.degree(v) == 2 for v in range(g.n)):
        return RotationSystem(tuple(g.neighbors(v) for v in range(g.n)))
    # K4 on 0..3
    if g.n == 4 and g.m == 6:
        return RotationSystem(((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)))
    # wheel: rim 0..n-2 in cyclic order, hub n-1 (matches wheel())
    hub = g.n - 1
    if g.n >= 4 and g.degree(hub) == g.n - 1 and all(g.degree(v) == 3 for v in range(g.n - 1)) \
            and all(g.has_edge(v, (v + 1) % (g.n - 1)) for v in range(g.n - 1)):
        k = g.n - 1
        rots = [((v + 1) % k, hub, (v - 1) % k) for v in range(k)]
        rots.append(tuple(range(k)))
        return RotationSystem(tuple(r if isinstance(r, tuple) else tuple(r) for r in rots))
    # cube with hypercube(3) bit numbering: squares 0,1,3,2 and 4,5,7,6
    if g.n == 8 and g.m == 12 and g.is_cubic() \
            and all(g.has_edge(v, v ^ b) for v in range(8) for b in (1, 2, 4)):
        ring = (0, 1, 3, 2)
        rots: list[tuple[int, ...]] = [()] * 8
        for i, v in enumerate(ring):
            prev, nxt = ring[(i - 1) % 4], ring[(i + 1) % 4]
            rots[v] = (prev, nxt, v + 4)
            rots[v + 4] = (nxt + 4, prev + 4, v)
        return RotationSystem(tuple(rots))
    # prism C_k x P2 with cartesian() numbering: (i, layer) -> 2i + layer
    if g.n >= 6 and g.n % 2 == 0 and g.is_cubic():
        k = g.n // 2
        ok = all(g.has_edge(2 * i, 2 * i + 1) for i in range(k)) and \
            all(g.has_edge(2 * i + l, 2 * ((i + 1) % k) + l) for i in range(k) for l in (0, 1))
        if ok and g.m == 3 * k:
            rots = []
            for i in range(k):
                prev, nxt = (i - 1) % k, (i + 1) % k
                rots.append((2 * prev, 2 * nxt, 2 * i + 1))       # outer layer
                rots.append((2 * nxt + 1, 2 * prev + 1, 2 * i))   # inner layer, reversed
            return RotationSystem(tuple(rots))
    raise RotationError("no shipped planar rotation for this graph; supply one explicitly")
