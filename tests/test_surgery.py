"""Cover surgeries: merges across cuts, apex join/strip, product lifts."""

import pytest

import ocdc
from ocdc import graphs
from ocdc.graphs import Graph, complete, cycle, path, cartesian, petersen
from ocdc.covers import (CoverCertificate, DirectedCycle, DirectedPath, InternalConsistencyError,
                         verify_ocdc, verify_oppdc, verify_socdc)
from ocdc.search import find_oppdc, find_socdc, min_ocdc
from ocdc.surgery import (MergeSpec, SpecError, CertificateInconsistency,
                          merge_at_cutvertex, subdivide, merge_2cut,
                          merge_2cut_special, merge_3edgecut, join_apex,
                          strip_apex, prism_p2, product_cycle_large,
                          product_lift)
from ocdc.builders import ocdc_k4, oppdc_complete_odd, socdc_complete_odd


def triangle_cover() -> CoverCertificate:
    return CoverCertificate(cycle(3), "SOCDC",
                            [DirectedCycle((0, 1, 2)), DirectedCycle((2, 1, 0))],
                            "triangle")


def identity_map(n: int, offset: int = 0) -> dict:
    return {v: v + offset for v in range(n)}


def labelled(cert: CoverCertificate, kind: str) -> CoverCertificate:
    """The same elements under another kind label."""
    return CoverCertificate(cert.host, kind, cert.elements, cert.provenance)


class TestCutVertex:
    def test_counts_add(self):
        spec = MergeSpec(identity_map(3), {0: 0, 1: 3, 2: 4})
        merged = merge_at_cutvertex(triangle_cover(), triangle_cover(), spec)
        assert merged.host.n == 5
        assert len(merged.elements) == 4
        assert merged.verify().ok

    def test_chain_of_three_c4(self):
        c4 = CoverCertificate(cycle(4), "SOCDC",
                              [DirectedCycle((0, 1, 2, 3)), DirectedCycle((3, 2, 1, 0))],
                              "c4")
        first = merge_at_cutvertex(c4, c4, MergeSpec(identity_map(4), {0: 0, 1: 4, 2: 5, 3: 6}))
        second = merge_at_cutvertex(first, c4, MergeSpec(identity_map(7), {0: 4, 1: 7, 2: 8, 3: 9}))
        assert second.host.n == 10 and len(second.elements) == 6

    def test_requires_single_shared_vertex(self):
        with pytest.raises(SpecError):
            merge_at_cutvertex(triangle_cover(), triangle_cover(),
                               MergeSpec(identity_map(3), {0: 0, 1: 1, 2: 4}))

    def test_rejects_unverified_piece(self):
        broken = CoverCertificate(cycle(3), "SOCDC", [DirectedCycle((0, 1, 2))], "")
        with pytest.raises(SpecError):
            merge_at_cutvertex(broken, triangle_cover(),
                               MergeSpec(identity_map(3), {0: 0, 1: 3, 2: 4}))


class TestSubdivide:
    def test_triangle_to_square(self):
        out = subdivide(triangle_cover(), (0, 1))
        assert out.host.n == 4 and out.host.m == 3 + 2 - 1
        assert len(out.elements) == 2
        assert out.verify().ok

    def test_repeated_count_constant(self):
        cert = socdc_complete_odd(5)
        for i in range(3):
            cert = subdivide(cert, next(iter(cert.host.sorted_edges())))
            assert len(cert.elements) == 4
        assert cert.host.n == 8

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError):
            subdivide(triangle_cover(), (0, 5))


class TestTwoCut:
    def spec(self):
        return MergeSpec(identity_map(3), {0: 0, 1: 1, 2: 3})

    def test_shared_edge_drops_one(self):
        out = merge_2cut(triangle_cover(), triangle_cover(), self.spec(), "shared_edge")
        assert len(out.elements) == 3
        assert out.host.has_edge(0, 1)
        assert out.verify().ok

    def test_no_edge_drops_two(self):
        out = merge_2cut(triangle_cover(), triangle_cover(), self.spec(), "no_edge")
        assert len(out.elements) == 2
        assert not out.host.has_edge(0, 1)
        assert out.host.m == 4  # the 4-cycle

    def test_unknown_mode(self):
        with pytest.raises(SpecError):
            merge_2cut(triangle_cover(), triangle_cover(), self.spec(), "sideways")

    def test_cut_edge_must_exist(self):
        square = CoverCertificate(cycle(4), "SOCDC",
                                  [DirectedCycle((0, 1, 2, 3)),
                                   DirectedCycle((3, 2, 1, 0))], "c4")
        # the shared pair {0, 2} is not an edge of C4
        spec = MergeSpec({0: 0, 2: 1, 1: 2, 3: 3}, {0: 0, 2: 1, 1: 4, 3: 5})
        with pytest.raises(SpecError):
            merge_2cut(square, square, spec, "shared_edge")


class TestTwoCutSpecial:
    @pytest.mark.parametrize("pieces,n,k", [
        (("K4", "K4"), 6, 4), (("K4", "K6"), 8, 6), (("K6", "K6"), 10, 8),
    ])
    def test_tables(self, pieces, n, k):
        cert = merge_2cut_special(pieces)
        assert cert.host.n == n
        assert len(cert.elements) == k
        assert cert.verify().ok
        assert not cert.host.has_edge(0, 1)

    def test_k4_k4_verbatim(self):
        cert = merge_2cut_special(("K4", "K4"))
        assert [list(c.vertices) for c in cert.elements] == [
            [0, 3, 2, 1, 4, 5], [0, 4, 1, 2], [0, 2, 3, 1, 5, 4], [0, 5, 1, 3]]

    @pytest.mark.parametrize("clique,extra", [("K4", 2), ("K6", 4)])
    def test_edge_present(self, clique, extra):
        base = triangle_cover()
        cert = merge_2cut_special(clique, base)
        assert cert.host.n == 3 + extra
        assert len(cert.elements) == 2 + extra
        assert cert.verify().ok
        assert cert.host.has_edge(0, 1)

    def test_edge_present_larger_partner(self):
        base = socdc_complete_odd(5)
        cert = merge_2cut_special("K6", base)
        assert cert.verify().ok
        assert len(cert.elements) == 4 + 4

    def test_unknown_pattern(self):
        with pytest.raises(SpecError):
            merge_2cut_special(("K4", "K5"))
        with pytest.raises(SpecError):
            merge_2cut_special("K5", triangle_cover())


def piece_with_w(extra_neighbors: list[int]) -> CoverCertificate:
    """K4 on 0..3 plus a contracted vertex 4 joined to the given vertices."""
    edges = list(complete(4).edges) + [(v, 4) for v in extra_neighbors]
    g = Graph.from_edges(5, edges)
    out = min_ocdc(g, 2 * g.m // 3)
    assert out.found
    return out.certificate


class TestThreeCut:
    def test_distinct_drops_three(self):
        spec = MergeSpec({0: 0, 1: 1, 2: 2, 3: 3, 4: 90},
                         {0: 4, 1: 5, 2: 6, 3: 7, 4: 91})
        c1 = piece_with_w([0, 1, 2])
        c2 = piece_with_w([0, 1, 2])
        out = merge_3edgecut(c1, c2, [(0, 4), (1, 5), (2, 6)], 4, 4, spec)
        assert len(out.elements) == len(c1.elements) + len(c2.elements) - 3
        assert out.host.n == 8
        assert out.verify().ok

    def test_two_k4_contractions(self):
        # both sides are plain K4s with one vertex playing the contraction
        spec = MergeSpec({0: 0, 1: 1, 2: 2, 3: 90}, {0: 3, 1: 4, 2: 5, 3: 91})
        out = merge_3edgecut(ocdc_k4(), ocdc_k4(), [(0, 3), (1, 4), (2, 5)], 3, 3, spec)
        assert len(out.elements) == 5
        assert out.kind == "SOCDC"

    def test_shared_tail_drops_two(self):
        spec = MergeSpec({0: 0, 1: 1, 2: 2, 3: 3, 4: 90},
                         {0: 4, 1: 5, 2: 6, 3: 7, 4: 91})
        c1 = piece_with_w([0, 1])       # w1 degree 2
        c2 = piece_with_w([0, 1, 2])    # w2 degree 3
        out = merge_3edgecut(c1, c2, [(0, 4), (0, 5), (1, 6)], 4, 4, spec)
        assert len(out.elements) == len(c1.elements) + len(c2.elements) - 2
        assert out.verify().ok

    def test_shared_both_drops_one(self):
        spec = MergeSpec({0: 0, 1: 1, 2: 2, 3: 3, 4: 90},
                         {0: 4, 1: 5, 2: 6, 3: 7, 4: 91})
        c1 = piece_with_w([0, 1])
        c2 = piece_with_w([0, 1])
        out = merge_3edgecut(c1, c2, [(0, 4), (0, 5), (1, 5)], 4, 4, spec)
        assert len(out.elements) == len(c1.elements) + len(c2.elements) - 1
        assert out.verify().ok

    def test_bad_patterns(self):
        spec = MergeSpec({0: 0, 1: 1, 2: 2, 3: 3, 4: 90},
                         {0: 4, 1: 5, 2: 6, 3: 7, 4: 91})
        c = piece_with_w([0, 1, 2])
        with pytest.raises(SpecError):
            merge_3edgecut(c, c, [(0, 4), (1, 5)], 4, 4, spec)
        with pytest.raises(SpecError):
            merge_3edgecut(c, c, [(0, 4), (1, 4), (2, 4)], 4, 4, spec)

    def test_cut_edges_must_meet_the_contracted_neighbours(self):
        # vertex 3 of side one is not a neighbour of w1 = 4
        spec = MergeSpec({0: 0, 1: 1, 2: 2, 3: 3, 4: 90},
                         {0: 4, 1: 5, 2: 6, 3: 7, 4: 91})
        c = piece_with_w([0, 1, 2])
        with pytest.raises(SpecError, match="neighbours of w1"):
            merge_3edgecut(c, c, [(0, 4), (1, 5), (3, 6)], 4, 4, spec)


class TestApex:
    def test_join_then_strip(self):
        p = oppdc_complete_odd(7)
        joined = join_apex(p)
        assert joined.host.n == 8 and len(joined.elements) == 7
        back = strip_apex(joined, 7)
        assert back.host == p.host
        assert sorted(q.vertices for q in back.elements) == \
            sorted(q.vertices for q in p.elements)

    def test_strip_then_join(self):
        sol = find_socdc(complete(4 + 1))  # K5 SOCDC, every vertex dominating
        assert sol.found
        stripped = strip_apex(sol.certificate, 4)
        rejoined = join_apex(stripped)
        assert rejoined.host.edges == complete(5).edges
        assert rejoined.verify().ok

    def test_join_c4(self):
        out = find_oppdc(cycle(4))
        wheel_cover = join_apex(out.certificate)
        assert wheel_cover.host.n == 5
        assert len(wheel_cover.elements) == 4
        assert wheel_cover.verify().ok

    def test_strip_needs_dominating_vertex(self):
        cert = socdc_complete_odd(5)
        sub = subdivide(cert, (0, 1))
        with pytest.raises(SpecError):
            strip_apex(sub, 5)

    def test_strip_rejects_absent_apex(self):
        cert = socdc_complete_odd(5)
        for apex in (5, -1, None):
            with pytest.raises(SpecError):
                strip_apex(cert, apex)

    def test_join_rejects_degenerate(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        bad = CoverCertificate(g, "OPPDC",
                               [DirectedPath((0, 1)), DirectedPath((1, 2)),
                                DirectedPath((2, 0))], "")
        # not a valid OPPDC anyway; SpecError either way
        with pytest.raises(SpecError):
            join_apex(bad)

    def test_join_rejects_cycle_certificate(self):
        with pytest.raises(SpecError, match="needs an OPPDC"):
            join_apex(socdc_complete_odd(7))


class TestProducts:
    def test_prism_counts(self):
        out = find_oppdc(cycle(4))
        lifted = prism_p2(out.certificate)
        assert lifted.host == cartesian(cycle(4), path(2))
        assert len(lifted.elements) == 4
        assert lifted.verify().ok

    def test_prism_k7(self):
        lifted = prism_p2(oppdc_complete_odd(7))
        assert lifted.host.n == 14 and len(lifted.elements) == 7
        assert lifted.verify().ok

    def test_prism_rejects_cycle_certificate(self):
        with pytest.raises(SpecError, match="needs an OPPDC"):
            prism_p2(socdc_complete_odd(7))

    def test_cycle_product_above_threshold(self):
        cert, small = product_cycle_large(triangle_cover(), 7)
        assert small and len(cert.elements) == 20
        assert cert.host.n == 21
        assert cert.verify().ok

    def test_cycle_product_below_threshold_flagged(self):
        cert, small = product_cycle_large(triangle_cover(), 6)
        assert not small
        assert len(cert.elements) == 18
        assert verify_ocdc(cert.host, cert.elements).ok

    def test_product_lift_path(self):
        out = product_lift(triangle_cover(), "path:3", node_budget=10**6)
        assert out.host == cartesian(cycle(3), path(3))
        assert out.kind == "SOCDC"

    def test_product_lift_even_cycle_needs_oppdc(self):
        with pytest.raises(SpecError):
            product_lift(triangle_cover(), "cycle:4", node_budget=10**5)
        c4 = find_oppdc(cycle(4)).certificate
        out = product_lift(c4, "cycle:4", node_budget=10**6)
        assert out.host == cartesian(cycle(4), cycle(4))
        assert out.verify().ok

    def test_product_lift_long_cycle_uses_layers(self):
        # C_k with k >= 2|V(G)|+1 takes the layer/column construction, not the search
        out = product_lift(triangle_cover(), "cycle:7", node_budget=1)
        assert out.host == cartesian(cycle(3), cycle(7))
        assert out.provenance.startswith("layer/column product") and len(out.elements) == 20

    def test_product_lift_p2_uses_explicit_construction(self):
        c4 = find_oppdc(cycle(4)).certificate
        out = product_lift(c4, "path:2")
        assert "prism" in out.provenance


class TestProductFactor:
    def test_unsupported_factor_rejected_before_building(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the factor graph was built")
        monkeypatch.setattr(graphs, "generate", refuse)
        monkeypatch.setattr(graphs, "parse_graph6", refuse)
        for factor in ("hypercube:15", "complete:4", "petersen", "tree"):
            with pytest.raises(SpecError, match="unsupported factor"):
                product_lift(socdc_complete_odd(3), factor)


SPEC_CUTVERTEX = MergeSpec(identity_map(3), {0: 0, 1: 3, 2: 4})
SPEC_2CUT = MergeSpec(identity_map(3), {0: 0, 1: 1, 2: 3})
SPEC_3CUT = MergeSpec({0: 0, 1: 1, 2: 2, 3: 3, 4: 90}, {0: 4, 1: 5, 2: 6, 3: 7, 4: 91})
CUT_EDGES = [(0, 4), (1, 5), (2, 6)]


def w_piece():
    return piece_with_w([0, 1, 2])


# (surgery, input cover, a kind the surgery does not admit, the call); each
# input's elements pass the verifier of a kind the surgery does admit
WRONG_KIND = [
    ("merge_at_cutvertex", triangle_cover, "OCDC",
     lambda c: merge_at_cutvertex(c, triangle_cover(), SPEC_CUTVERTEX)),
    ("merge_at_cutvertex:c2", triangle_cover, "OCDC",
     lambda c: merge_at_cutvertex(triangle_cover(), c, SPEC_CUTVERTEX)),
    ("subdivide", triangle_cover, "OCDC", lambda c: subdivide(c, (0, 1))),
    ("merge_2cut", triangle_cover, "CDC",
     lambda c: merge_2cut(c, triangle_cover(), SPEC_2CUT, "shared_edge")),
    ("merge_2cut:c2", triangle_cover, "CDC",
     lambda c: merge_2cut(triangle_cover(), c, SPEC_2CUT, "no_edge")),
    ("merge_2cut_special", triangle_cover, "OCDC", lambda c: merge_2cut_special("K4", c)),
    ("merge_3edgecut", w_piece, "CDC",
     lambda c: merge_3edgecut(c, w_piece(), CUT_EDGES, 4, 4, SPEC_3CUT)),
    ("merge_3edgecut:c2", w_piece, "CDC",
     lambda c: merge_3edgecut(w_piece(), c, CUT_EDGES, 4, 4, SPEC_3CUT)),
    ("join_apex", lambda: oppdc_complete_odd(7), "OPPDC",
     lambda c: join_apex(labelled(c, "SOCDC"))),
    ("strip_apex", triangle_cover, "OCDC", lambda c: strip_apex(c, 2)),
    ("prism_p2", lambda: find_oppdc(cycle(4)).certificate, "OPPDC",
     lambda c: prism_p2(labelled(c, "SOCDC"))),
    ("product_cycle_large", triangle_cover, "OCDC", lambda c: product_cycle_large(c, 7)),
    ("product_lift", triangle_cover, "OCDC",
     lambda c: product_lift(c, "path:3", node_budget=10**6)),
    ("product_lift:even", triangle_cover, "SOCDC",
     lambda c: product_lift(c, "cycle:4", node_budget=10**5)),
]


class TestAdmission:
    """Each surgery admits its input certificates by kind and checks each
    with its own kind's verifier."""

    @pytest.mark.parametrize("base,kind,call", [row[1:] for row in WRONG_KIND],
                             ids=[row[0] for row in WRONG_KIND])
    def test_every_surgery_rejects_a_wrong_kind(self, base, kind, call):
        with pytest.raises(SpecError, match=r"needs an .* certificate, got "):
            call(labelled(base(), kind))

    def test_oppdc_into_merge_2cut(self):
        # an OPPDC covers each arc once, so its paths pass the OCDC verifier
        k7 = oppdc_complete_odd(7)
        assert verify_ocdc(k7.host, k7.elements).ok
        spec = MergeSpec(identity_map(7), {0: 0, 1: 1, 2: 7, 3: 8, 4: 9})
        with pytest.raises(SpecError, match="needs an OCDC or SOCDC certificate, got OPPDC"):
            merge_2cut(k7, socdc_complete_odd(5), spec, "shared_edge")

    def test_oppdc_into_merge_3edgecut(self):
        k4 = find_oppdc(complete(4)).certificate
        spec = MergeSpec({0: 0, 1: 1, 2: 2, 3: 90}, {0: 3, 1: 4, 2: 5, 3: 91})
        with pytest.raises(SpecError, match="got OPPDC"):
            merge_3edgecut(k4, ocdc_k4(), [(0, 3), (1, 4), (2, 5)], 3, 3, spec)

    def test_cdc_kind_into_merge_2cut(self):
        with pytest.raises(SpecError, match="got CDC"):
            merge_2cut(labelled(triangle_cover(), "CDC"), triangle_cover(),
                       SPEC_2CUT, "shared_edge")

    def test_rejection_lists_violations(self):
        broken = CoverCertificate(cycle(3), "SOCDC", [DirectedCycle((0, 1, 2))], "half")
        with pytest.raises(SpecError, match=r"SOCDC input \(half\) does not verify: \[\("):
            subdivide(broken, (0, 1))

    def test_inconsistency_is_an_internal_consistency_error(self):
        assert CertificateInconsistency is InternalConsistencyError
        assert ocdc.CertificateInconsistency is InternalConsistencyError
