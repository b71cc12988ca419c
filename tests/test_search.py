"""Exact-cover searches: enumeration oracles, minimum proofs, budgets,
counterexample screening."""

import itertools

import networkx as nx
import pytest

from ocdc import covers, search
from ocdc.graphs import (Graph, complete, complete_bipartite, cycle, path,
                         petersen, k4_chain, wheel, prism)
from ocdc.covers import (DirectedCycle, Infeasible, InternalConsistencyError,
                         VerifyReport, orient_cdc, verify_cdc, verify_ocdc,
                         verify_oppdc)
from ocdc.search import (CoverEngine, enumerate_undirected_cycles,
                         enumerate_directed_cycles, enumerate_directed_paths,
                         enumerate_cdcs, min_ocdc, find_socdc, find_oppdc,
                         find_unorientable_cdc, counterexample_filter)


def nx_directed_cycle_count(g: Graph) -> int:
    """Independent oracle: simple directed cycles of length >= 3 in the
    symmetric orientation, via networkx."""
    d = nx.DiGraph()
    d.add_nodes_from(range(g.n))
    for u, v in g.edges:
        d.add_edge(u, v)
        d.add_edge(v, u)
    return sum(1 for c in nx.simple_cycles(d) if len(c) >= 3)


class TestEnumeration:
    @pytest.mark.parametrize("g", [complete(4), complete(5), petersen(),
                                   cycle(5), complete_bipartite(2, 3), wheel(4)])
    def test_directed_cycle_count_vs_networkx(self, g):
        ours = enumerate_directed_cycles(g)
        assert len(ours) == nx_directed_cycle_count(g)
        assert len(set(ours)) == len(ours)

    def test_k4_has_14(self):
        assert len(enumerate_directed_cycles(complete(4))) == 14

    def test_cycle5_has_2(self):
        assert len(enumerate_directed_cycles(cycle(5))) == 2

    def test_c4_bipartite(self):
        assert len(enumerate_directed_cycles(complete_bipartite(2, 2))) == 2

    def test_undirected_reference_direction(self):
        for c in enumerate_undirected_cycles(complete(5)):
            vs = c.vertices
            assert vs[0] == min(vs) and vs[1] < vs[-1]

    def test_ordering_deterministic(self):
        a = enumerate_directed_cycles(petersen())
        b = enumerate_directed_cycles(petersen())
        assert a == b
        lens = [len(c) for c in a]
        assert lens == sorted(lens)

    def test_paths_include_degenerate(self):
        ps = enumerate_directed_paths(path(3))
        assert sum(1 for p in ps if len(p) == 1) == 3
        # P3: degenerate 3, length-2 arcs 4, length-3 2
        assert len(ps) == 9

    def test_max_len_cap(self):
        capped = enumerate_directed_cycles(complete(5), max_len=3)
        assert all(len(c) == 3 for c in capped)
        assert len(capped) == 20  # 10 triangles, both directions


class TestMinOcdc:
    def test_k4_minimum_is_4(self):
        out = min_ocdc(complete(4), 4)
        assert out.found and len(out.certificate.elements) == 4
        assert out.certificate.verify().ok
        assert min_ocdc(complete(4), 3).status == "NoneExists"

    def test_cycle_minimum_is_2(self):
        out = min_ocdc(cycle(6), 4)
        assert out.found and len(out.certificate.elements) == 2

    def test_lower_bound_consistency(self):
        out = min_ocdc(complete(5), 6)
        assert out.found
        assert len(out.certificate.elements) >= out.lower_bound - 2  # lower starts at ceil(2m/n)
        assert out.certificate.verify().ok

    def test_bridge_rejected(self):
        with pytest.raises(ValueError):
            min_ocdc(path(3), 3)

    def test_budget_gives_unresolved(self):
        out = min_ocdc(complete(6), 15, node_budget=10)
        assert out.status == "Unresolved"
        assert out.nodes_expanded >= 10

    def test_time_budget(self):
        out = min_ocdc(complete(6), 15, time_budget=0.0)
        assert out.status in ("Unresolved", "Found")  # tiny instances may finish first


class TestFindSocdc:
    def test_k6_none_exists(self):
        out = find_socdc(complete(6))
        assert out.status == "NoneExists"
        assert out.lower_bound == 6

    def test_petersen_found_small(self):
        out = find_socdc(petersen())
        assert out.found
        assert out.certificate.kind == "SOCDC"
        assert len(out.certificate.elements) <= 9

    def test_bipartite_agrees_with_formula(self):
        out = find_socdc(complete_bipartite(3, 4))
        assert out.found and len(out.certificate.elements) <= 6


class TestFindOppdc:
    def test_k3_k5_none(self):
        assert find_oppdc(complete(3)).status == "NoneExists"
        assert find_oppdc(complete(5)).status == "NoneExists"

    def test_small_positive_cases(self):
        for g in (path(3), cycle(4), cycle(5), complete(4), complete_bipartite(2, 3)):
            out = find_oppdc(g)
            assert out.found, g
            assert verify_oppdc(g, out.certificate.elements).ok

    def test_k7_found(self):
        out = find_oppdc(complete(7), node_budget=10**7)
        assert out.found
        assert all(len(p) == 7 for p in out.certificate.elements)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            find_oppdc(Graph.from_edges(4, [(0, 1), (2, 3)]))


def multiset(cdc):
    return tuple(sorted(c.vertices for c in cdc))


def cdc_multisets_by_brute_force(g):
    """Independent oracle: every multiset of reference-directed cycles whose
    lengths sum to 2m (at most 2m/3 cycles) that covers each edge twice."""
    rows = enumerate_undirected_cycles(g)
    found = set()

    def extend(start, combo, length_left):
        if length_left == 0:
            if verify_cdc(g, combo).ok:
                found.add(multiset(combo))
            return
        if len(combo) == 2 * g.m // 3:
            return
        for i in range(start, len(rows)):
            if len(rows[i]) <= length_left:
                extend(i, combo + [rows[i]], length_left - len(rows[i]))

    extend(0, [], 2 * g.m)
    return found


class TestCdcSearch:
    def test_enumerate_cdcs_cycle(self):
        cdcs = list(enumerate_cdcs(cycle(6)))
        assert len(cdcs) == 1  # only the doubled cycle
        assert verify_cdc(cycle(6), cdcs[0]).ok

    @pytest.mark.parametrize("g,count", [(petersen(), 52), (k4_chain(2), 4)])
    def test_each_cdc_once(self, g, count):
        cdcs = list(enumerate_cdcs(g))
        assert len(cdcs) == count
        assert len({multiset(cdc) for cdc in cdcs}) == count
        assert all(verify_cdc(g, cdc).ok for cdc in cdcs)

    @pytest.mark.parametrize("g", [complete(4), k4_chain(2), prism(3), wheel(4)])
    def test_cdc_multisets_match_brute_force(self, g):
        cdcs = [multiset(cdc) for cdc in enumerate_cdcs(g)]
        assert len(set(cdcs)) == len(cdcs)
        assert set(cdcs) == cdc_multisets_by_brute_force(g)

    def test_unorientable_petersen(self):
        hit = find_unorientable_cdc(petersen())
        assert hit is not None
        cdc, wit = hit
        assert verify_cdc(petersen(), cdc).ok
        assert isinstance(orient_cdc(petersen(), cdc), Infeasible)
        assert wit.check()

    def test_orientable_only_hosts(self):
        assert find_unorientable_cdc(cycle(6)) is None

    def test_k4_exhaustive_verdict(self):
        hit = find_unorientable_cdc(complete(4))
        # K4's three-Hamiltonian-cycle CDC is unorientable, so a witness exists
        assert hit is not None
        assert len(hit[0]) == 3


class TestFilter:
    def test_exceptions_flagged(self):
        assert "is the exception K4" in counterexample_filter(complete(4))
        assert "is the exception K6" in counterexample_filter(complete(6))

    def test_cut_vertex(self):
        assert "not 2-connected" in counterexample_filter(k4_chain(2))

    def test_low_degree(self):
        assert "minimum degree below 3" in counterexample_filter(cycle(9))

    def test_nontrivial_3_cut(self):
        two_k4 = Graph.from_edges(8, list(complete(4).edges)
                                  + [(u + 4, v + 4) for u, v in complete(4).edges]
                                  + [(0, 4), (1, 5), (2, 6)])
        assert "has a non-trivial 3-edge cut" in counterexample_filter(two_k4)

    def test_petersen_survives(self):
        assert counterexample_filter(petersen()) == []

    def test_two_connected_only(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                                 (5, 0), (0, 3), (1, 4)])
        report = counterexample_filter(g)
        assert "minimum degree below 3" in report


class TestEngine:
    def test_exact_cover_multiplicity(self):
        # cover each column twice from rows of size 2
        need = {0: 2, 1: 2}
        rows = [(0, 1), (0, 1)]
        eng = CoverEngine(need, rows, [1, 1], set())
        sols = sorted(tuple(s) for s in eng.solutions(max_rows=4))
        assert sols == [(0, 0), (0, 1), (1, 1)]  # repetition allowed, each once


class TestNodeParity:
    """Nodes expanded by searches whose order the engine must preserve."""

    @pytest.mark.parametrize("search_fn,status,nodes", [
        (lambda: find_socdc(complete(6)), "NoneExists", 2368),
        (lambda: min_ocdc(complete(4), 4), "Found", 10),
        (lambda: min_ocdc(k4_chain(2), 8), "Found", 40),
        (lambda: find_oppdc(complete(7)), "Found", 1470),
        (lambda: find_socdc(petersen()), "Found", 275),
    ], ids=["socdc-K6", "min-K4", "min-k4_chain2", "oppdc-K7", "socdc-petersen"])
    def test_nodes_expanded(self, search_fn, status, nodes):
        out = search_fn()
        assert (out.status, out.nodes_expanded) == (status, nodes)


class TestCertification:
    """A result that fails its verifier raises, also under python -O."""

    @staticmethod
    def failing(*args):
        return VerifyReport(False, [("arc", 0, 1)])

    def test_min_ocdc_checks_its_cover(self, monkeypatch):
        monkeypatch.setattr(covers, "verify_ocdc", self.failing)
        with pytest.raises(InternalConsistencyError):
            min_ocdc(complete(4), 4)

    def test_find_oppdc_checks_its_cover(self, monkeypatch):
        monkeypatch.setattr(covers, "verify_oppdc", self.failing)
        with pytest.raises(InternalConsistencyError):
            find_oppdc(cycle(4))

    def test_find_socdc_checks_the_size(self, monkeypatch):
        big = min_ocdc(complete(4), 4)  # an OCDC with n cycles
        monkeypatch.setattr(search, "min_ocdc", lambda *args: big)
        with pytest.raises(InternalConsistencyError):
            find_socdc(complete(4))
