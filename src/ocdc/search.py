"""Exact-cover search for directed cycle and path double covers.

The engine is a generalized Algorithm X over columns with multiplicities:
arc columns need one hit, CDC edge columns need two, OPPDC start/end slots
need one.  Rows are directed cycles or paths.  Column choice is
minimum-remaining-values; all iteration orders are sorted, so outcomes are
deterministic.  Exceeding a budget yields Unresolved, never NoneExists.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .graphs import (Graph, _cycle_space_labels, is_bridgeless,
                     nontrivial_3_edge_cuts, vertex_connectivity_at_most)
from .covers import (CoverCertificate, DirectedCycle, DirectedPath, Infeasible,
                     InternalConsistencyError, certify, orient_cdc)


class BudgetExceeded(Exception):
    pass


@dataclass
class SearchOutcome:
    status: str  # Found | NoneExists | Unresolved
    certificate: Optional[CoverCertificate] = None
    lower_bound: int = 0
    nodes_expanded: int = 0

    @property
    def found(self) -> bool:
        return self.status == "Found"


class CoverEngine:
    """Exact cover with column multiplicities and a row-count cap.

    rows: iterable of rows, each an iterable of column ids; both are read
    once, so generators serve.  weight(r) counts the row's
    weighted columns (arcs); together with max_weight it drives the
    lower-bound prune  ceil(remaining_weighted / max_weight) <= rows_left.

    Internally a set of rows is an int bitmask over row indices: each column
    has the mask of the rows that hit it, and the search carries the mask of
    rows still usable (none of their columns saturated).
    """

    def __init__(self, col_need: dict, rows: Iterable[Iterable], weights: Sequence[int],
                 weighted_cols: set):
        self.max_weight = max(weights, default=1) or 1
        # Columns in the order the branching column is chosen: sorted by repr,
        # ties broken by that order.
        cols = sorted(col_need, key=repr)
        self.need = [col_need[c] for c in cols]
        index = {c: j for j, c in enumerate(cols)}
        self.row_cols = [tuple(map(index.__getitem__, r)) for r in rows]
        weighted = [c in weighted_cols for c in cols]
        self.row_weight = [sum(map(weighted.__getitem__, r)) for r in self.row_cols]
        self.weighted_need = sum(k for k, w in zip(self.need, weighted) if w)
        bits = [bytearray(len(self.row_cols) // 8 + 1) for _ in cols]
        for ri, row in enumerate(self.row_cols):
            byte, bit = ri >> 3, 1 << (ri & 7)
            for j in row:
                bits[j][byte] |= bit
        self.colrows = [int.from_bytes(b, "little") for b in bits]
        self.nodes = 0

    def solutions(self, max_rows: int, node_limit: Optional[int] = None,
                  deadline: Optional[float] = None) -> Iterator[list[int]]:
        """Yield covers as sorted row-index lists (repetition allowed), each
        multiset of rows once."""
        need = list(self.need)
        colrows, row_cols, row_weight = self.colrows, self.row_cols, self.row_weight
        max_weight = self.max_weight
        col_order = range(len(need))
        chosen: list[int] = []
        self.nodes = 0

        def rec(alive: int, open_cols: int, weighted: int) -> Iterator[list[int]]:
            if not open_cols:
                yield sorted(chosen)
                return
            rows_left = max_rows - len(chosen)
            if rows_left <= 0 or weighted > rows_left * max_weight:
                return
            best, best_count = -1, -1
            for j in col_order:
                if need[j] > 0:
                    count = (colrows[j] & alive).bit_count()
                    if best < 0 or count < best_count:
                        if not count:
                            return
                        best, best_count = j, count
            # A child left with more weight than its rows can carry still has
            # an open column, so it would return at once: count it, skip it.
            child_cap = (rows_left - 1) * max_weight
            cands = colrows[best] & alive
            while cands:
                low = cands & -cands
                cands ^= low
                ri = low.bit_length() - 1
                self.nodes += 1
                if node_limit is not None and self.nodes > node_limit:
                    raise BudgetExceeded
                if deadline is not None and self.nodes % 512 == 0 \
                        and time.monotonic() > deadline:
                    raise BudgetExceeded
                child_weighted = weighted - row_weight[ri]
                if child_weighted <= child_cap:
                    sub_alive, sub_open = alive, open_cols
                    for j in row_cols[ri]:
                        need[j] -= 1
                        if need[j] == 0:
                            sub_alive &= ~colrows[j]
                            sub_open -= 1
                    chosen.append(ri)
                    yield from rec(sub_alive, sub_open, child_weighted)
                    chosen.pop()
                    for j in row_cols[ri]:
                        need[j] += 1
                # Later siblings never use this row again, so the rows hitting
                # the branching column are chosen in nondecreasing index order
                # and each multiset is reached once (Knuth's Algorithm M).  A
                # column that needs one hit saturates in every branch, killing
                # its rows anyway, so there this changes nothing.
                alive ^= low

        yield from rec((1 << len(row_cols)) - 1, sum(k > 0 for k in need),
                       self.weighted_need)

    def first_solution(self, max_rows: int, node_limit: Optional[int] = None,
                       deadline: Optional[float] = None) -> Optional[list[int]]:
        for sol in self.solutions(max_rows, node_limit, deadline):
            return sol
        return None


# ---------------------------------------------------------------------------
# Row generators
# ---------------------------------------------------------------------------

def _cycle_rows(g: Graph, max_len: Optional[int], both_directions: bool
                ) -> list[tuple[int, ...]]:
    """Vertex tuples of the simple cycles, ordered by length then
    lexicographic vertex sequence.

    Each cycle is anchored at its least vertex r.  The search walks every
    simple path r, v1, ..., vk through vertices above r, so it meets both
    directions of each cycle: (r, v1, ..., vk) and (r, vk, ..., v1).  The
    reference direction is the one with v1 < vk; both_directions keeps the
    other too.
    """
    cap = max_len if max_len is not None else g.n
    by_len: list[list[tuple[int, ...]]] = [[] for _ in range(max(cap, 0) + 1)]
    path: list[int] = []
    on_path = [False] * g.n
    for root in range(g.n):
        up = [[w for w in g.neighbors(u) if w > root] for u in range(g.n)]
        closes = [False] * g.n
        for w in g.neighbors(root):
            closes[w] = True
        path.append(root)

        def extend(u: int, depth: int):
            depth += 1  # path length once w is appended
            for w in up[u]:
                if not on_path[w]:
                    path.append(w)
                    if closes[w] and depth >= 3 and (both_directions or path[1] < w):
                        by_len[depth].append(tuple(path))
                    if depth < cap:
                        on_path[w] = True
                        extend(w, depth)
                        on_path[w] = False
                    path.pop()

        extend(root, 1)
        path.pop()
    return [vs for rows in by_len for vs in sorted(rows)]


def _path_rows(g: Graph) -> list[tuple[int, ...]]:
    """Vertex tuples of the simple directed paths, including the n
    degenerate ones, ordered by length then lexicographic."""
    by_len: list[list[tuple[int, ...]]] = [[] for _ in range(g.n + 1)]
    path: list[int] = []
    on_path = [False] * g.n

    def extend(u: int):
        path.append(u)
        on_path[u] = True
        by_len[len(path)].append(tuple(path))
        for w in g.neighbors(u):
            if not on_path[w]:
                extend(w)
        on_path[u] = False
        path.pop()

    for v in range(g.n):
        extend(v)
    return [vs for rows in by_len for vs in sorted(rows)]


def _cycle_arcs(vs: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    return zip(vs, vs[1:] + vs[:1])


def enumerate_undirected_cycles(g: Graph, max_len: Optional[int] = None) -> list[DirectedCycle]:
    """All simple cycles, one reference direction each, ordered by length
    then lexicographic vertex sequence.

    Each cycle is anchored at its least vertex with second vertex smaller
    than the last, which fixes the reference direction.
    """
    return [DirectedCycle(vs) for vs in _cycle_rows(g, max_len, False)]


def enumerate_directed_cycles(g: Graph, max_len: Optional[int] = None) -> list[DirectedCycle]:
    """All simple directed cycles of the symmetric orientation in canonical
    form, ordered by length then lexicographic."""
    return [DirectedCycle(vs) for vs in _cycle_rows(g, max_len, True)]


def enumerate_directed_paths(g: Graph) -> list[DirectedPath]:
    """All simple directed paths, including the n degenerate ones, ordered
    by length then lexicographic."""
    return [DirectedPath(vs) for vs in _path_rows(g)]


# ---------------------------------------------------------------------------
# Searches
# ---------------------------------------------------------------------------

def min_ocdc(g: Graph, max_count: int, node_budget: Optional[int] = None,
             time_budget: Optional[float] = None,
             prove_minimum: bool = True) -> SearchOutcome:
    """Minimum-size OCDC by iterative deepening on the cycle count.

    Found at k proves no cover of size < k exists; NoneExists means the
    whole space up to max_count was exhausted.  With prove_minimum False
    the search goes straight to max_count and only settles existence.
    """
    if not is_bridgeless(g):
        raise ValueError("OCDC search requires a bridgeless graph")
    rows = _cycle_rows(g, None, True)
    arcs = set(g.arcs())
    engine = CoverEngine({a: 1 for a in arcs}, (_cycle_arcs(vs) for vs in rows),
                         [len(vs) for vs in rows], arcs)
    longest = max((len(vs) for vs in rows), default=1)
    lower = max(1, math.ceil(2 * g.m / longest))
    if not prove_minimum:
        lower = max(lower, max_count)
    nodes_total = 0
    deadline = None if time_budget is None else time.monotonic() + time_budget
    for k in range(lower, max_count + 1):
        try:
            limit = None if node_budget is None else node_budget - nodes_total
            sol = engine.first_solution(k, limit, deadline)
        except BudgetExceeded:
            return SearchOutcome("Unresolved", None, lower, nodes_total + engine.nodes)
        nodes_total += engine.nodes
        if sol is not None:
            cert = certify(g, "OCDC", [DirectedCycle(rows[i]) for i in sol], f"min_ocdc k={k}")
            return SearchOutcome("Found", cert, k, nodes_total)
        lower = k + 1
    return SearchOutcome("NoneExists", None, lower, nodes_total)


def find_socdc(g: Graph, node_budget: Optional[int] = None,
               time_budget: Optional[float] = None,
               prove_minimum: bool = True) -> SearchOutcome:
    """An OCDC with at most n-1 cycles, or proof none exists."""
    out = min_ocdc(g, g.n - 1, node_budget, time_budget, prove_minimum)
    if out.found and out.certificate.kind != "SOCDC":
        raise InternalConsistencyError(
            f"find_socdc produced {len(out.certificate.elements)} cycles on {g.n} vertices")
    return out


def find_oppdc(g: Graph, node_budget: Optional[int] = None,
               time_budget: Optional[float] = None) -> SearchOutcome:
    """An oriented perfect path double cover by exact cover over arcs plus
    one start slot and one end slot per vertex."""
    if not g.is_connected():
        raise ValueError("OPPDC search requires a connected graph")
    rows = _path_rows(g)
    if g.n >= 2:
        rows = [vs for vs in rows if len(vs) > 1]
    arcs = set(g.arcs())
    need = {a: 1 for a in arcs}
    for v in range(g.n):
        need[("s", v)] = 1
        need[("e", v)] = 1
    cols = (itertools.chain(zip(vs, vs[1:]), (("s", vs[0]), ("e", vs[-1]))) for vs in rows)
    engine = CoverEngine(need, cols, [len(vs) - 1 for vs in rows], arcs)
    deadline = None if time_budget is None else time.monotonic() + time_budget
    try:
        sol = engine.first_solution(g.n, node_budget, deadline)
    except BudgetExceeded:
        return SearchOutcome("Unresolved", None, 0, engine.nodes)
    if sol is None:
        return SearchOutcome("NoneExists", None, g.n + 1, engine.nodes)
    cert = certify(g, "OPPDC", [DirectedPath(rows[i]) for i in sol], "find_oppdc")
    return SearchOutcome("Found", cert, len(sol), engine.nodes)


def enumerate_cdcs(g: Graph, node_budget: Optional[int] = None) -> Iterator[list[DirectedCycle]]:
    """Stream CDCs (reference-directed cycles, each edge covered twice) of
    at most 2m/3 cycles, each multiset of cycles once."""
    rows = _cycle_rows(g, None, False)
    edges = set(g.edges)
    engine = CoverEngine({e: 2 for e in edges},
                         (((u, v) if u < v else (v, u) for u, v in _cycle_arcs(vs))
                          for vs in rows),
                         [len(vs) for vs in rows],
                         edges)
    for sol in engine.solutions(2 * g.m // 3, node_budget):
        yield [DirectedCycle(rows[i]) for i in sol]


def find_unorientable_cdc(g: Graph, node_budget: Optional[int] = None
                          ) -> Optional[tuple[list[DirectedCycle], Infeasible]]:
    """First CDC (in deterministic enumeration order) whose parity system
    is infeasible, together with the odd-chain witness; None if the space
    was exhausted without one."""
    if not is_bridgeless(g):
        raise ValueError("CDC search requires a bridgeless graph")
    for cdc in enumerate_cdcs(g, node_budget):
        res = orient_cdc(g, cdc)
        if isinstance(res, Infeasible):
            return cdc, res
    return None


# ---------------------------------------------------------------------------
# Minimal-counterexample screening
# ---------------------------------------------------------------------------

def _edge_connectivity_at_least_3(g: Graph) -> bool:
    """No bridge and no 2-edge cut: no cycle-space label is 0 and no two
    labels are equal."""
    if not g.is_connected():
        return False
    labels = _cycle_space_labels(g).values()
    return 0 not in labels and len(set(labels)) == len(labels)


def counterexample_filter(g: Graph) -> list[str]:
    """Necessary conditions a minimal counterexample to the small-cover
    conjecture must satisfy; returns the ones g violates."""
    failed = []
    if g.n == 4 and g.m == 6:
        failed.append("is the exception K4")
    if g.n == 6 and g.m == 15:
        failed.append("is the exception K6")
    # a smallest cut, so a 1-cut when there is one; () when g is disconnected or too small
    cut = vertex_connectivity_at_most(g, 2) if g.is_connected() and g.n >= 3 else ()
    if cut is not None and len(cut) < 2:
        failed.append("not 2-connected")
        return failed
    if any(g.degree(v) < 3 for v in range(g.n)):
        failed.append("minimum degree below 3")
    if cut is not None or g.n <= 3:  # no graph on 3 or fewer vertices is 3-connected
        failed.append("not 3-connected")
    if not _edge_connectivity_at_least_3(g):
        failed.append("not 3-edge-connected")
    if nontrivial_3_edge_cuts(g):
        failed.append("has a non-trivial 3-edge cut")
    return failed
