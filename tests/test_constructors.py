"""Closed-form constructors: complete graphs, bipartite formula, planar faces,
cubic edge-coloring pipeline."""

import pytest

from ocdc.graphs import (Graph, complete, complete_bipartite, cycle, wheel,
                         prism, petersen, mobius_kantor, hypercube,
                         planar_rotation, generalized_petersen)
from ocdc.covers import verify_ocdc, verify_oppdc
from ocdc.builders import (ocdc_k4, ocdc_k6, hamiltonian_decomposition_odd,
                           socdc_complete_odd, socdc_complete_even,
                           socdc_complete_bipartite, oppdc_complete_odd,
                           socdc_planar, edge_color_cubic, ocdc_cubic_class1,
                           NoSocdcExists, NotPlanarEmbedding, DeskScaleError)


class TestCompleteTables:
    def test_k4_table(self):
        cert = ocdc_k4()
        assert cert.verify().ok
        assert len(cert.elements) == 4  # every OCDC of K4 has exactly 4 cycles

    def test_k6_table(self):
        cert = ocdc_k6()
        assert cert.verify().ok
        assert len(cert.elements) == 6  # one above the small bound of 5


class TestOddComplete:
    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
    def test_hamiltonian_decomposition(self, n):
        cycles = hamiltonian_decomposition_odd(n)
        assert len(cycles) == (n - 1) // 2
        assert all(len(c) == n for c in cycles)
        seen = [e for c in cycles for e in c.edges()]
        assert sorted(seen) == sorted(complete(n).sorted_edges())

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_socdc(self, n):
        cert = socdc_complete_odd(n)
        assert cert.verify().ok
        assert len(cert.elements) == n - 1

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            socdc_complete_odd(4)


class TestEvenComplete:
    def test_exceptions(self):
        with pytest.raises(NoSocdcExists):
            socdc_complete_even(4)
        with pytest.raises(NoSocdcExists):
            socdc_complete_even(6)

    @pytest.mark.parametrize("n", [8, 10, 12, 14, 16])
    def test_apex_pipeline(self, n):
        cert = socdc_complete_even(n)
        assert cert.verify().ok
        assert cert.host.edges == complete(n).edges
        assert len(cert.elements) == n - 1

    @pytest.mark.parametrize("n", [7, 9, 11, 13, 15])
    def test_oppdc(self, n):
        cert = oppdc_complete_odd(n)
        assert verify_oppdc(cert.host, cert.elements).ok
        assert len(cert.elements) == n
        assert all(len(p) == n for p in cert.elements)  # all paths Hamiltonian
        oppdc_complete_odd.cache_clear()
        assert oppdc_complete_odd(n).to_json() == cert.to_json()  # deterministic

    def test_cached_oppdc_is_immutable(self):
        cert = oppdc_complete_odd(7)
        with pytest.raises(AttributeError):
            cert.elements.pop()
        with pytest.raises(AttributeError):
            cert.elements = []
        assert oppdc_complete_odd(7) is cert and cert.verify().ok
        assert socdc_complete_even(8).verify().ok

    @pytest.mark.parametrize("n", [5, 8])
    def test_oppdc_rejects_small_or_even(self, n):
        with pytest.raises(ValueError):
            oppdc_complete_odd(n)

    def test_desk_scale(self):
        with pytest.raises(DeskScaleError):
            oppdc_complete_odd(17)


class TestBipartite:
    @pytest.mark.parametrize("n,m", [(2, 2), (2, 5), (3, 3), (3, 8), (5, 7), (8, 8)])
    def test_formula(self, n, m):
        cert = socdc_complete_bipartite(n, m)
        assert cert.verify().ok
        assert len(cert.elements) == m
        assert all(len(c) == 2 * n for c in cert.elements)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            socdc_complete_bipartite(1, 4)
        with pytest.raises(ValueError):
            socdc_complete_bipartite(5, 3)


class TestPlanar:
    def test_cube(self):
        g = hypercube(3)
        res = socdc_planar(g, planar_rotation(g))
        assert res.certificate.verify().ok
        assert len(res.certificate.elements) == 6 == 2 + g.m - g.n
        assert not res.bound_violation

    def test_k4_bound_violation(self):
        res = socdc_planar(complete(4), planar_rotation(complete(4)))
        assert res.bound_violation
        assert len(res.certificate.elements) == 4
        assert verify_ocdc(complete(4), res.certificate.elements).ok

    @pytest.mark.parametrize("g", [cycle(5), wheel(5), prism(5)])
    def test_face_count_is_euler(self, g):
        res = socdc_planar(g, planar_rotation(g))
        assert len(res.certificate.elements) == 2 + g.m - g.n

    def test_nonplanar_rotation_rejected(self):
        g = cycle(6)
        rot = planar_rotation(g)
        # swap one rotation pair on a larger graph to break the face count
        from ocdc.graphs import RotationSystem
        k4 = complete(4)
        bad = RotationSystem(((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 1, 2)))
        with pytest.raises(NotPlanarEmbedding):
            socdc_planar(k4, bad)
        assert socdc_planar(g, rot).certificate.verify().ok

    def test_bridge_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            socdc_planar(g, None)


class TestCubic:
    @pytest.mark.parametrize("g", [complete_bipartite(3, 3), prism(3), prism(4),
                                   hypercube(3), mobius_kantor()])
    def test_colorable(self, g):
        coloring = edge_color_cubic(g)
        assert coloring is not None
        for c in (1, 2, 3):
            match = coloring.matching(c)
            assert len(match) == g.n // 2
            assert len({v for e in match for v in e}) == g.n

    def test_petersen_class2(self):
        assert edge_color_cubic(petersen()) is None

    def test_non_cubic_rejected(self):
        with pytest.raises(ValueError):
            edge_color_cubic(complete(5))

    @pytest.mark.parametrize("g", [complete_bipartite(3, 3), prism(3),
                                   mobius_kantor(), generalized_petersen(4, 1)])
    def test_pipeline_small(self, g):
        cert = ocdc_cubic_class1(g)
        assert cert.verify().ok
        assert len(cert.elements) <= g.n // 2 + 2
        assert len(cert.elements) <= g.n - 1
        assert cert.kind == "SOCDC"

    def test_pipeline_k4_exception(self):
        cert = ocdc_cubic_class1(complete(4))
        assert cert.kind == "OCDC"
        assert len(cert.elements) == 4
        assert verify_ocdc(complete(4), cert.elements).ok

    def test_pipeline_rejects_class2(self):
        with pytest.raises(ValueError):
            ocdc_cubic_class1(petersen())
