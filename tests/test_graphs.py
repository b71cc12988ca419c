"""Graph representation, generators, graph6 codec, structural analysis."""

import itertools
import sys

import pytest
from fractions import Fraction

import networkx as nx
from hypothesis import given, settings, strategies as st

from ocdc.graphs import (Graph, Graph6ParseError, FamilyError, RotationError,
                         parse_graph6, emit_graph6, complete,
                         complete_bipartite, path, cycle, join, cartesian,
                         hypercube, petersen, generalized_petersen,
                         mobius_kantor, wheel, prism, k4_chain, generate,
                         bridges, is_bridgeless, vertex_connectivity_at_most,
                         nontrivial_3_edge_cuts, blocks,
                         girth_and_average_degree, faces, planar_rotation,
                         EdgeCut)
from ocdc.search import _edge_connectivity_at_least_3


class TestGraph:
    def test_basic_invariants(self):
        g = complete(5)
        assert g.n == 5 and g.m == 10
        assert g.degree(0) == 4
        assert g.has_edge(2, 4) and g.has_edge(4, 2)
        assert len(list(g.arcs())) == 20

    def test_neighbors_sorted(self):
        g = Graph.from_edges(4, [(3, 0), (1, 0), (0, 2)])
        assert g.neighbors(0) == (1, 2, 3)

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_induced(self):
        g, mapping = complete(5).induced([0, 2, 4])
        assert g.n == 3 and g.m == 3
        assert set(mapping.values()) == {0, 2, 4}


class TestFamilies:
    def test_counts(self):
        assert (complete(6).n, complete(6).m) == (6, 15)
        assert (complete_bipartite(3, 4).n, complete_bipartite(3, 4).m) == (7, 12)
        assert (path(5).n, path(5).m) == (5, 4)
        assert (cycle(7).n, cycle(7).m) == (7, 7)
        assert (hypercube(3).n, hypercube(3).m) == (8, 12)
        assert (wheel(5).n, wheel(5).m) == (6, 10)
        assert (prism(4).n, prism(4).m) == (8, 12)

    def test_hypercube_regular(self):
        q3 = hypercube(3)
        assert q3.is_cubic()

    def test_petersen(self):
        g = petersen()
        assert g.n == 10 and g.m == 15 and g.is_cubic()
        assert nx.is_isomorphic(_to_nx(g), nx.petersen_graph())

    def test_mobius_kantor(self):
        g = mobius_kantor()
        assert g.n == 16 and g.m == 24 and g.is_cubic()
        assert g == generalized_petersen(8, 3)

    def test_k4_chain(self):
        for r in (1, 2, 3):
            g = k4_chain(r)
            assert g.n == 3 * r + 1
            assert g.m == 6 * r

    def test_k4_chain_1_is_k4(self):
        assert nx.is_isomorphic(_to_nx(k4_chain(1)), nx.complete_graph(4))

    def test_join(self):
        w = join(cycle(4), complete(1))
        assert nx.is_isomorphic(_to_nx(w), _to_nx(wheel(4)))

    def test_cartesian(self):
        g = cartesian(cycle(3), path(2))
        assert g.n == 6 and g.m == 9
        assert nx.is_isomorphic(_to_nx(g), _to_nx(prism(3)))

    def test_generate_specs(self):
        assert generate("complete:4") == complete(4)
        assert generate("bipartite:2,3") == complete_bipartite(2, 3)
        assert generate("k4_chain:2") == k4_chain(2)
        assert generate("petersen") == petersen()
        assert generate("cartesian:cycle:3,path:2") == cartesian(cycle(3), path(2))

    def test_generate_rejects_garbage(self):
        with pytest.raises(FamilyError):
            generate("dodecahedron")
        with pytest.raises(FamilyError):
            generate("complete:-1")


class TestGraph6:
    @pytest.mark.parametrize("g", [
        complete(1), complete(4), complete(6), petersen(), path(2),
        cycle(9), complete_bipartite(4, 4), Graph.from_edges(5, []),
    ])
    def test_round_trip(self, g):
        assert parse_graph6(emit_graph6(g)) == g

    def test_known_strings(self):
        # networkx is the independent codec oracle
        for g in (complete(5), petersen(), cycle(6)):
            ours = emit_graph6(g)
            theirs = nx.to_graph6_bytes(_to_nx(g), header=False).decode().strip()
            assert ours == theirs

    def test_parse_networkx_output(self):
        gnx = nx.petersen_graph()
        text = nx.to_graph6_bytes(gnx, header=False).decode().strip()
        assert nx.is_isomorphic(_to_nx(parse_graph6(text)), gnx)

    def test_long_form(self):
        g = cycle(70)
        assert parse_graph6(emit_graph6(g)) == g

    def test_bad_input(self):
        with pytest.raises(Graph6ParseError):
            parse_graph6("")
        with pytest.raises(Graph6ParseError):
            parse_graph6("\x01bad")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip_random(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picked = data.draw(st.sets(st.sampled_from(possible))) if possible else set()
        g = Graph.from_edges(n, picked)
        assert parse_graph6(emit_graph6(g)) == g


class TestStructure:
    def test_bridges_path(self):
        assert set(bridges(path(4))) == {(0, 1), (1, 2), (2, 3)}
        assert bridges(cycle(5)) == []
        assert is_bridgeless(petersen())

    def test_bridge_in_barbell(self):
        # two triangles joined by one edge
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5),
                                 (5, 3), (2, 3)])
        assert bridges(g) == [(2, 3)]

    def test_vertex_connectivity(self):
        assert vertex_connectivity_at_most(k4_chain(2), 1) is not None
        assert vertex_connectivity_at_most(cycle(5), 1) is None
        assert vertex_connectivity_at_most(cycle(5), 2) is not None
        assert vertex_connectivity_at_most(complete(5), 3) is None

    def test_blocks_of_chain(self):
        dec = blocks(k4_chain(2))
        assert len(dec.blocks) == 2
        assert len(dec.cut_vertices) == 1
        assert sum(sub.m for sub, _ in dec.blocks) == k4_chain(2).m

    def test_blocks_match_networkx(self):
        for g in (k4_chain(3), path(6), wheel(5),
                  Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                                       (4, 5), (5, 3), (5, 6)])):
            dec = blocks(g)
            gnx = _to_nx(g)
            assert dec.cut_vertices == frozenset(nx.articulation_points(gnx))
            assert len(dec.blocks) == sum(1 for _ in nx.biconnected_components(gnx))

    def test_nontrivial_3_edge_cuts(self):
        two_k4 = Graph.from_edges(8, list(complete(4).edges)
                                  + [(u + 4, v + 4) for u, v in complete(4).edges]
                                  + [(0, 4), (1, 5), (2, 6)])
        cuts = nontrivial_3_edge_cuts(two_k4)
        assert len(cuts) == 1
        assert cuts[0].edges == frozenset({(0, 4), (1, 5), (2, 6)})
        assert nontrivial_3_edge_cuts(petersen()) == []
        assert nontrivial_3_edge_cuts(complete(4)) == []

    def test_bridges_long_cycle_iterative(self):
        limit = sys.getrecursionlimit()
        assert bridges(cycle(20000)) == []
        assert sys.getrecursionlimit() == limit

    def test_blocks_long_path_iterative(self):
        limit = sys.getrecursionlimit()
        assert len(blocks(path(20000)).blocks) == 19999
        assert sys.getrecursionlimit() == limit

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_cuts_match_brute_force(self, data):
        g = data.draw(_connected_graphs(max_n=9))
        gnx = _to_nx(g)
        assert nontrivial_3_edge_cuts(g) == _ref_3_edge_cuts(gnx)
        for k in (1, 2, 3):
            assert vertex_connectivity_at_most(g, k) == _ref_vertex_cut(gnx, k)
        assert _edge_connectivity_at_least_3(g) == (nx.edge_connectivity(gnx) >= 3)

    def test_girth(self):
        girth, avg = girth_and_average_degree(petersen())
        assert girth == 5 and avg == 3
        girth, avg = girth_and_average_degree(complete(4))
        assert girth == 3 and avg == 3
        girth, avg = girth_and_average_degree(cycle(6))
        assert girth == 6 and avg == Fraction(2)


class TestRotations:
    @pytest.mark.parametrize("g,nfaces", [
        (complete(4), 4), (cycle(5), 2), (wheel(4), 5), (wheel(6), 7),
        (prism(3), 5), (prism(4), 6), (hypercube(3), 6),
    ])
    def test_face_counts(self, g, nfaces):
        walks = faces(g, planar_rotation(g))
        assert len(walks) == nfaces == 2 + g.m - g.n

    def test_arc_coverage(self):
        for g in (complete(4), wheel(5), prism(4), hypercube(3)):
            walks = faces(g, planar_rotation(g))
            seen = [a for w in walks for a in w]
            assert sorted(seen) == sorted(g.arcs())

    def test_no_shipped_rotation(self):
        with pytest.raises(RotationError):
            planar_rotation(petersen())


def _to_nx(g: Graph) -> "nx.Graph":
    gnx = nx.Graph()
    gnx.add_nodes_from(range(g.n))
    gnx.add_edges_from(g.edges)
    return gnx


@st.composite
def _connected_graphs(draw, max_n):
    """A random spanning tree, relabelled, plus a random set of extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    perm = draw(st.permutations(range(n)))
    tree = {tuple(sorted((perm[v], perm[draw(st.integers(0, v - 1))])))
            for v in range(1, n)}
    rest = [e for e in itertools.combinations(range(n), 2) if e not in tree]
    extra = draw(st.sets(st.sampled_from(rest))) if rest else set()
    return Graph.from_edges(n, tree | extra)


def _ref_3_edge_cuts(gnx):
    """Every edge triple, in lex order, whose removal leaves two components
    of >= 2 vertices with all three edges between them."""
    out = []
    h = gnx.copy()
    for triple in itertools.combinations(sorted(tuple(sorted(e)) for e in gnx.edges), 3):
        h.remove_edges_from(triple)
        comps = list(nx.connected_components(h))
        h.add_edges_from(triple)
        if len(comps) != 2 or min(len(c) for c in comps) < 2:
            continue
        side = next(c for c in comps if 0 in c)
        if all((u in side) != (v in side) for u, v in triple):
            other = set(gnx) - side
            out.append(EdgeCut(frozenset(triple), (frozenset(side), frozenset(other))))
    return out


def _ref_vertex_cut(gnx, k):
    """Lex-first vertex subset of the smallest size <= k whose removal
    disconnects the rest."""
    n = gnx.number_of_nodes()
    for size in range(1, k + 1):
        if n - size < 2:
            break
        for cut in itertools.combinations(range(n), size):
            if not nx.is_connected(gnx.subgraph(set(range(n)) - set(cut))):
                return cut
    return None
