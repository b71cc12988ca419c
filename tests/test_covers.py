"""Cover elements, verifiers, CDC orientation, certificates."""

import json
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import ocdc
from ocdc.graphs import Graph, complete, cycle, petersen, complete_bipartite
from ocdc.covers import (DirectedCycle, DirectedPath, MalformedCoverError,
                         CoverCertificate, Infeasible, InternalConsistencyError,
                         certify, verify_ocdc,
                         verify_socdc, verify_oppdc, verify_cdc, orient_cdc,
                         double_cycle_decomposition, small_by_girth,
                         cubic_bound_check)


K4_COVER = [DirectedCycle(t) for t in [(0, 1, 3), (1, 0, 2), (2, 3, 1), (3, 2, 0)]]


class TestElements:
    def test_cycle_arcs_wrap(self):
        c = DirectedCycle((0, 1, 2))
        assert c.arcs() == [(0, 1), (1, 2), (2, 0)]
        assert c.edges() == [(0, 1), (1, 2), (0, 2)]

    def test_cycle_rejects_short_and_repeats(self):
        with pytest.raises(MalformedCoverError):
            DirectedCycle((0, 1))
        with pytest.raises(MalformedCoverError):
            DirectedCycle((0, 1, 0))

    def test_reversed_and_canonical(self):
        c = DirectedCycle((2, 0, 1, 3))
        assert c.reversed().vertices == (3, 1, 0, 2)
        assert c.canonical().vertices == (0, 1, 3, 2)
        assert c.canonical().arcs()[0] in c.arcs()

    def test_path_endpoints(self):
        p = DirectedPath((3, 1, 2))
        assert p.start == 3 and p.end == 2
        assert p.arcs() == [(3, 1), (1, 2)]
        assert DirectedPath((5,)).arcs() == []

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 30), min_size=3, max_size=10, unique=True))
    def test_double_reversal_is_identity(self, vs):
        c = DirectedCycle(tuple(vs))
        assert c.reversed().reversed() == c
        assert sorted(c.reversed().edges()) == sorted(c.edges())


class TestVerifiers:
    def test_k4_cover_ok(self):
        rep = verify_ocdc(complete(4), K4_COVER)
        assert rep.ok and not rep.violations

    def test_k4_cover_not_small(self):
        rep = verify_socdc(complete(4), K4_COVER)
        assert not rep.ok
        assert ("size", 4, 3) in rep.violations

    def test_missing_arc_reported(self):
        rep = verify_ocdc(complete(4), K4_COVER[:-1])
        assert not rep.ok
        assert ((3, 2), 0, 1) in rep.violations

    def test_duplicate_arc_reported(self):
        rep = verify_ocdc(complete(4), K4_COVER + [K4_COVER[0]])
        assert not rep.ok
        assert ((0, 1), 2, 1) in rep.violations

    def test_foreign_arc_reported(self):
        rep = verify_ocdc(cycle(4), [DirectedCycle((0, 1, 2))])
        assert not rep.ok

    def test_oppdc_path_graph(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        paths = [DirectedPath(p) for p in [(0, 1, 2), (2, 1), (1, 0)]]
        assert verify_oppdc(g, paths).ok

    def test_oppdc_bad_start_slots(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        paths = [DirectedPath(p) for p in [(0, 1, 2), (2, 1, 0)]]
        # arcs all covered but vertex 1 is never a start or an end
        rep = verify_oppdc(g, paths)
        assert not rep.ok
        assert (("start", 1), 0, 1) in rep.violations
        assert (("end", 1), 0, 1) in rep.violations

    def test_oppdc_path_outside_graph(self):
        # one-vertex paths on vertices the host lacks are violations, not a
        # valid cover with more paths than vertices
        for n in (0, 1):
            g = Graph(n, frozenset())
            paths = [DirectedPath((v,)) for v in range(n)] + [DirectedPath((5,))]
            rep = verify_oppdc(g, paths)
            assert not rep.ok and (("degenerate", 5), 1, 0) in rep.violations

    def test_cdc_undirected(self):
        tri = DirectedCycle((0, 1, 2))
        assert verify_cdc(cycle(3), [tri, tri]).ok
        assert verify_cdc(cycle(3), [tri, tri.reversed()]).ok
        assert not verify_cdc(cycle(3), [tri]).ok


class TestOrientCdc:
    def test_doubled_cycle_orients(self):
        tri = DirectedCycle((0, 1, 2))
        out = orient_cdc(cycle(3), [tri, tri])
        assert isinstance(out, list)
        assert verify_ocdc(cycle(3), out).ok

    def test_requires_cdc(self):
        with pytest.raises(MalformedCoverError):
            orient_cdc(cycle(3), [DirectedCycle((0, 1, 2))])

    def test_k4_two_factor_cdc_unorientable(self):
        cdc = [DirectedCycle(t) for t in [(0, 1, 3, 2), (0, 1, 2, 3), (0, 2, 1, 3)]]
        out = orient_cdc(complete(4), cdc)
        assert isinstance(out, Infeasible)
        assert out.check()

    def test_witness_indices_refer_to_input(self):
        cdc = [DirectedCycle(t) for t in [(0, 1, 3, 2), (0, 1, 2, 3), (0, 2, 1, 3)]]
        out = orient_cdc(complete(4), cdc)
        assert all(0 <= i < 3 for i in out.cycle_indices)
        assert len(out.parities) == len(out.cycle_indices)

    def test_forget_then_reorient(self):
        # forgetting orientations of a valid OCDC always leaves an orientable CDC
        out = orient_cdc(complete(4), K4_COVER)
        assert isinstance(out, list) and verify_ocdc(complete(4), out).ok


class TestHelpers:
    def test_double_cycle_decomposition(self):
        ham = [DirectedCycle((0, 1, 2, 3, 4)), DirectedCycle((0, 2, 4, 1, 3))]
        cover = double_cycle_decomposition(complete(5), ham)
        assert len(cover) == 4
        assert verify_socdc(complete(5), cover).ok

    def test_double_rejects_non_partition(self):
        with pytest.raises(MalformedCoverError):
            double_cycle_decomposition(complete(5), [DirectedCycle((0, 1, 2, 3, 4))])

    def test_small_by_girth(self):
        # petersen: girth 5 > average degree 3, so any OCDC is small
        assert small_by_girth(petersen(), [])
        # K4: girth 3 = average degree 3, predicate gives no information
        assert not small_by_girth(complete(4), K4_COVER)

    def test_cubic_bound(self):
        g = petersen()
        assert cubic_bound_check(g, [None] * 7)
        assert not cubic_bound_check(g, [None] * 8)
        with pytest.raises(ValueError):
            cubic_bound_check(complete(5), [])


class TestCertificates:
    def test_json_round_trip(self):
        cert = CoverCertificate(complete(4), "OCDC", K4_COVER, "table")
        back = CoverCertificate.from_json(cert.to_json())
        assert back.host == cert.host
        assert back.elements == cert.elements
        assert back.kind == "OCDC" and back.provenance == "table"
        assert back.verify().ok

    def test_json_contract_fields(self):
        obj = json.loads(CoverCertificate(complete(4), "OCDC", K4_COVER, "t").to_json())
        assert set(obj) == {"graph", "kind", "elements", "provenance"}
        assert obj["elements"][0] == [0, 1, 3]

    def test_oppdc_json(self):
        g = Graph.from_edges(2, [(0, 1)])
        cert = CoverCertificate(g, "OPPDC",
                                [DirectedPath((0, 1)), DirectedPath((1, 0))], "")
        back = CoverCertificate.from_json(cert.to_json())
        assert isinstance(back.elements[0], DirectedPath)
        assert back.verify().ok

    def test_bad_kind(self):
        with pytest.raises(MalformedCoverError):
            CoverCertificate(complete(4), "WEIRD", [], "")

    def test_bad_json(self):
        with pytest.raises(MalformedCoverError):
            CoverCertificate.from_json("{nope")
        with pytest.raises(MalformedCoverError):
            CoverCertificate.from_json('{"kind": "OCDC"}')
        for text in ['5', 'null', '[]', '"Bw"',
                     '{"graph": "Bw", "kind": "OCDC", "elements": 5}',
                     '{"graph": [], "kind": "OCDC", "elements": []}',
                     '{"graph": "Bw", "kind": "OCDC", "elements": [[0, 1, "x"]]}',
                     '{"graph": "Bw", "kind": "OCDC", "elements": [["a", "b", "c"]]}',
                     '{"graph": "Bw", "kind": "OCDC", "elements": [[0, 1, true]]}',
                     '{"graph": "Bw", "kind": "OCDC", "elements": [[0, 1, 2.0]]}',
                     '{"graph": "Bw", "kind": "OCDC", "elements": [5]}',
                     '{"graph": "Bw", "kind": ["OCDC"], "elements": []}',
                     '{"graph": "Bw", "kind": "PPDC", "elements": [[0, 1]]}',
                     "[" * 100000]:
            with pytest.raises(MalformedCoverError):
                CoverCertificate.from_json(text)


TRIANGLE_COVER = [DirectedCycle((0, 1, 2)), DirectedCycle((2, 1, 0))]


class TestCertify:
    def test_labels_cycle_covers_by_size(self):
        assert certify(complete(4), "OCDC", K4_COVER, "t").kind == "OCDC"
        cert = certify(cycle(3), "OCDC", TRIANGLE_COVER, "t")
        assert cert.kind == "SOCDC" and cert.provenance == "t"

    def test_failing_cover_raises(self):
        with pytest.raises(InternalConsistencyError, match="fails verification"):
            certify(complete(4), "SOCDC", K4_COVER, "t")  # 4 cycles, bound 3
        with pytest.raises(InternalConsistencyError):
            certify(complete(4), "OCDC", K4_COVER[:-1], "t")

    def test_holds_under_python_O(self):
        # a failing output verifier stops a builder, a surgery and a search
        # even when asserts are compiled away
        script = textwrap.dedent("""
            import sys
            from ocdc import builders, covers, search, surgery
            from ocdc.graphs import complete, cycle
            if __debug__:
                sys.exit("not running under -O")
            oppdc = search.find_oppdc(cycle(4)).certificate
            covers.verify_ocdc = lambda g, cycles: covers.VerifyReport(False, [("arc", 0, 1)])
            calls = {"socdc_complete_bipartite": lambda: builders.socdc_complete_bipartite(2, 3),
                     "join_apex": lambda: surgery.join_apex(oppdc),
                     "min_ocdc": lambda: search.min_ocdc(complete(4), 4)}
            for name, call in calls.items():
                try:
                    call()
                except covers.InternalConsistencyError:
                    continue
                sys.exit(f"{name} returned an unverified certificate")
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(ocdc.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
