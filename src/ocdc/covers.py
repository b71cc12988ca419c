"""Directed cycles and paths, cover certificates, and their verifiers.

Covered objects live in the symmetric orientation of a simple graph:
every edge contributes two opposite arcs.  Verifiers never raise on
mathematical violations; those are reported as data in a VerifyReport.
Exceptions are reserved for structurally malformed input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from .graphs import Graph, emit_graph6, parse_graph6, girth_and_average_degree


class MalformedCoverError(ValueError):
    """Structurally invalid cycle/path/certificate input."""


class InternalConsistencyError(RuntimeError):
    """A construction the theory guarantees failed to verify."""


@dataclass(frozen=True)
class DirectedCycle:
    """Simple directed cycle [v1,...,vk], k >= 3, with implicit closing arc."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = tuple(self.vertices)
        object.__setattr__(self, "vertices", vs)
        if len(vs) < 3:
            raise MalformedCoverError(f"cycle needs >= 3 vertices, got {vs}")
        if len(set(vs)) != len(vs):
            raise MalformedCoverError(f"cycle repeats a vertex: {vs}")

    def __len__(self) -> int:
        return len(self.vertices)

    def arcs(self) -> list[tuple[int, int]]:
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def edges(self) -> list[tuple[int, int]]:
        return [(min(u, v), max(u, v)) for u, v in self.arcs()]

    def reversed(self) -> "DirectedCycle":
        return DirectedCycle(tuple(reversed(self.vertices)))

    def canonical(self) -> "DirectedCycle":
        """Rotate (direction preserved) to start at the least vertex."""
        i = self.vertices.index(min(self.vertices))
        return DirectedCycle(self.vertices[i:] + self.vertices[:i])


@dataclass(frozen=True)
class DirectedPath:
    """Simple directed path (v1,...,vk); k = 1 is the degenerate path."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = tuple(self.vertices)
        object.__setattr__(self, "vertices", vs)
        if len(vs) < 1:
            raise MalformedCoverError("path needs >= 1 vertex")
        if len(set(vs)) != len(vs):
            raise MalformedCoverError(f"path repeats a vertex: {vs}")

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def arcs(self) -> list[tuple[int, int]]:
        vs = self.vertices
        return [(vs[i], vs[i + 1]) for i in range(len(vs) - 1)]

    def reversed(self) -> "DirectedPath":
        return DirectedPath(tuple(reversed(self.vertices)))


Element = Union[DirectedCycle, DirectedPath]


@dataclass
class VerifyReport:
    """Outcome of a cover check.

    violations: (subject, observed, expected) triples; subject is an arc,
    an edge, a vertex role, or a named count.
    """

    ok: bool
    violations: list[tuple] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @staticmethod
    def from_violations(violations: list[tuple], counts: dict) -> "VerifyReport":
        return VerifyReport(not violations, violations, counts)


def _arc_multiplicities(g: Graph, cycles: Sequence[DirectedCycle]) -> tuple[dict, list]:
    seen: dict[tuple[int, int], int] = {}
    bad_arcs = []
    for c in cycles:
        for a in c.arcs():
            if not g.has_edge(*a):
                bad_arcs.append(a)
            seen[a] = seen.get(a, 0) + 1
    return seen, bad_arcs


def _common_counts(g: Graph, elements: Sequence[Element]) -> dict:
    counts = {"elements": len(elements), "small_bound": g.n - 1}
    if g.is_cubic():
        counts["cubic_bound"] = g.n // 2 + 2
    return counts


def verify_ocdc(g: Graph, cycles: Sequence[DirectedCycle]) -> VerifyReport:
    """Every arc of the symmetric orientation in exactly one cycle."""
    seen, bad_arcs = _arc_multiplicities(g, cycles)
    violations: list[tuple] = [(a, seen[a], "arc over a non-edge") for a in bad_arcs]
    for a in g.arcs():
        mult = seen.get(a, 0)
        if mult != 1:
            violations.append((a, mult, 1))
    counts = _common_counts(g, cycles)
    counts["arc_total"] = sum(len(c) for c in cycles)
    return VerifyReport.from_violations(sorted(set(violations), key=repr), counts)


def verify_socdc(g: Graph, cycles: Sequence[DirectedCycle]) -> VerifyReport:
    """verify_ocdc plus the size bound |C| <= n-1."""
    rep = verify_ocdc(g, cycles)
    if len(cycles) > g.n - 1:
        rep.violations.append(("size", len(cycles), g.n - 1))
        rep.ok = False
    return rep


def verify_oppdc(g: Graph, paths: Sequence[DirectedPath]) -> VerifyReport:
    """Every arc in exactly one path; every vertex once a start, once an end."""
    seen: dict[tuple[int, int], int] = {}
    violations: list[tuple] = []
    starts: dict[int, int] = {}
    ends: dict[int, int] = {}
    for p in paths:
        if len(p) == 1 and (g.n >= 2 or p.start not in range(g.n)):
            # a single-vertex path breaks the apex correspondence; only the
            # one-vertex graph admits it, on its own vertex
            violations.append((("degenerate", p.start), 1, 0))
        starts[p.start] = starts.get(p.start, 0) + 1
        ends[p.end] = ends.get(p.end, 0) + 1
        for a in p.arcs():
            if not g.has_edge(*a):
                violations.append((a, 1, "arc over a non-edge"))
            seen[a] = seen.get(a, 0) + 1
    for a in g.arcs():
        mult = seen.get(a, 0)
        if mult != 1:
            violations.append((a, mult, 1))
    for v in range(g.n):
        if starts.get(v, 0) != 1:
            violations.append((("start", v), starts.get(v, 0), 1))
        if ends.get(v, 0) != 1:
            violations.append((("end", v), ends.get(v, 0), 1))
    return VerifyReport.from_violations(violations, _common_counts(g, paths))


def verify_cdc(g: Graph, cycles: Sequence[DirectedCycle]) -> VerifyReport:
    """Undirected check: every edge covered exactly twice (directions ignored)."""
    seen: dict[tuple[int, int], int] = {}
    violations: list[tuple] = []
    for c in cycles:
        for e in c.edges():
            if e not in g.edges:
                violations.append((e, 1, "cycle over a non-edge"))
            seen[e] = seen.get(e, 0) + 1
    for e in g.sorted_edges():
        mult = seen.get(e, 0)
        if mult != 2:
            violations.append((e, mult, 2))
    return VerifyReport.from_violations(violations, _common_counts(g, cycles))


# ---------------------------------------------------------------------------
# CDC orientation over GF(2)
# ---------------------------------------------------------------------------

@dataclass
class Infeasible:
    """Witness of an unorientable CDC: a closed chain of cycle indices whose
    parity constraints sum to 1."""

    cycle_indices: list[int]
    parities: list[int]

    def check(self) -> bool:
        return sum(self.parities) % 2 == 1


def orient_cdc(g: Graph, cdc: Sequence[DirectedCycle]) -> Union[list[DirectedCycle], Infeasible]:
    """Orient a CDC into an OCDC if the parity system over GF(2) is solvable.

    Each stored cycle carries a reference direction.  An edge shared by
    cycles i and j forces flip(i) xor flip(j) = b(e), where b(e) = 1 iff
    both reference traversals run the same way.  Infeasibility returns the
    odd constraint chain as a witness.
    """
    pre = verify_cdc(g, cdc)
    if not pre.ok:
        raise MalformedCoverError(f"input is not a CDC: first violation {pre.violations[0]}")
    # incidences per edge: (cycle index, reference direction)
    inc: dict[tuple[int, int], list[tuple[int, int]]] = {e: [] for e in g.edges}
    for i, c in enumerate(cdc):
        for u, v in c.arcs():
            e = (min(u, v), max(u, v))
            inc[e].append((i, 0 if (u, v) == e else 1))
    # constraint graph: nodes = cycle indices, edge parity b per shared edge
    adj: dict[int, list[tuple[int, int, tuple[int, int]]]] = {i: [] for i in range(len(cdc))}
    for e, pairs in inc.items():
        (i, di), (j, dj) = pairs
        b = 1 if di == dj else 0
        adj[i].append((j, b, e))
        adj[j].append((i, b, e))
    color: dict[int, int] = {}
    parent: dict[int, tuple[int, int]] = {}
    for root in range(len(cdc)):
        if root in color:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            i = queue.pop()
            for j, b, e in adj[i]:
                if j not in color:
                    color[j] = color[i] ^ b
                    parent[j] = (i, b)
                    queue.append(j)
                elif color[j] != color[i] ^ b:
                    return _odd_witness(parent, i, j, b)
    out = []
    for i, c in enumerate(cdc):
        out.append(c.reversed() if color[i] else DirectedCycle(c.vertices))
    if not verify_ocdc(g, out).ok:
        raise InternalConsistencyError("parity solution failed to orient the CDC")
    return out


def _odd_witness(parent: dict, i: int, j: int, b: int) -> Infeasible:
    def chain(x):
        path = [(x, None)]
        while x in parent:
            p, pb = parent[x]
            path.append((p, pb))
            x = p
        return path

    ci, cj = chain(i), chain(j)
    seen_i = {x for x, _ in ci}
    k = next(x for x, _ in cj if x in seen_i)  # lowest common ancestor
    idx_i = [x for x, _ in ci].index(k)
    idx_j = [x for x, _ in cj].index(k)
    nodes = [x for x, _ in ci[:idx_i + 1]] + [x for x, _ in reversed(cj[:idx_j])]
    parities = [pb for _, pb in ci[1:idx_i + 1]] + [pb for _, pb in reversed(cj[1:idx_j + 1])] + [b]
    wit = Infeasible(nodes, parities)
    if not wit.check():
        raise InternalConsistencyError(f"odd-chain witness has even parity: {wit}")
    return wit


def double_cycle_decomposition(g: Graph, decomp: Sequence[DirectedCycle]) -> list[DirectedCycle]:
    """Double a cycle decomposition into an OCDC: each cycle both ways."""
    seen: dict[tuple[int, int], int] = {}
    for c in decomp:
        for e in c.edges():
            if e not in g.edges:
                raise MalformedCoverError(f"decomposition cycle uses non-edge {e}")
            seen[e] = seen.get(e, 0) + 1
    if any(seen.get(e, 0) != 1 for e in g.edges):
        bad = next(e for e in g.sorted_edges() if seen.get(e, 0) != 1)
        raise MalformedCoverError(f"not an edge partition: edge {bad} covered {seen.get(bad, 0)} times")
    out: list[DirectedCycle] = []
    for c in decomp:
        out.append(c)
        out.append(c.reversed())
    return out


def small_by_girth(g: Graph, ocdc: Sequence[DirectedCycle]) -> bool:
    """True iff girth > average degree; then any OCDC is automatically small."""
    girth, avg = girth_and_average_degree(g)
    small = girth > avg
    if small and len(ocdc) > g.n - 1:
        raise MalformedCoverError("girth bound contradicted; cover is not an OCDC")
    return small


def cubic_bound_check(g: Graph, cdc: Sequence[DirectedCycle]) -> bool:
    """|C| <= n/2 + 2 for a CDC of a cubic host."""
    if not g.is_cubic():
        raise ValueError("cubic bound only applies to cubic graphs")
    return 2 * len(cdc) <= g.n + 4


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

KINDS = ("CDC", "OCDC", "SOCDC", "OPPDC")


@dataclass(frozen=True)
class CoverCertificate:
    """Immutable, since a cached certificate is shared by every caller."""

    host: Graph
    kind: str
    elements: tuple[Element, ...]
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if self.kind not in KINDS:
            raise MalformedCoverError(f"unknown certificate kind {self.kind!r}")

    def verify(self) -> VerifyReport:
        # verifiers are looked up at call time, so rebinding one takes effect
        if self.kind == "OCDC":
            return verify_ocdc(self.host, self.elements)
        if self.kind == "SOCDC":
            return verify_socdc(self.host, self.elements)
        if self.kind == "OPPDC":
            return verify_oppdc(self.host, self.elements)
        return verify_cdc(self.host, self.elements)

    def to_json(self) -> str:
        return json.dumps({
            "graph": emit_graph6(self.host),
            "kind": self.kind,
            "elements": [list(e.vertices) for e in self.elements],
            "provenance": self.provenance,
        })

    @staticmethod
    def from_json(text: str) -> "CoverCertificate":
        """Parse certificate JSON.  Anything but an object with a graph6
        string, a known kind and lists of int vertices raises
        MalformedCoverError (a bad graph6 string, Graph6ParseError)."""
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise MalformedCoverError(f"invalid certificate JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise MalformedCoverError("certificate JSON must be an object")
        for key in ("graph", "kind", "elements"):
            if key not in obj:
                raise MalformedCoverError(f"certificate JSON missing {key!r}")
        graph, kind, elements = obj["graph"], obj["kind"], obj["elements"]
        if not isinstance(graph, str):
            raise MalformedCoverError("certificate graph must be a graph6 string")
        if not isinstance(elements, list) or not all(
                isinstance(e, list) and all(type(v) is int for v in e) for e in elements):
            raise MalformedCoverError("certificate elements must be lists of integer vertices")
        cls = DirectedPath if kind == "OPPDC" else DirectedCycle
        return CoverCertificate(parse_graph6(graph), kind, [cls(tuple(vs)) for vs in elements],
                                obj.get("provenance", ""))


def certify(g: Graph, kind: str, elements: Sequence[Element], provenance: str) -> CoverCertificate:
    """The one way a certificate leaves the library: build it, run its
    kind's verifier, and raise InternalConsistencyError if that fails (an
    explicit raise, so it also holds under python -O).

    A cycle cover asked for as "OCDC" is labelled SOCDC exactly when it has
    at most n-1 cycles; one asked for as "SOCDC" must also meet that bound.
    """
    if kind == "OCDC" and len(elements) <= g.n - 1:
        kind = "SOCDC"
    cert = CoverCertificate(g, kind, elements, provenance)
    rep = cert.verify()
    if not rep.ok:
        raise InternalConsistencyError(
            f"{kind} certificate ({provenance}) fails verification: {rep.violations[:5]}")
    return cert
