"""Checks of the span recorder and the wrappers (not part of the program's tests).

    PYTHONPATH=src python3 bench/selfcheck.py
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_three_level_nest(self):
        """outer(10) > middle(6) > inner(2): self times 4, 4 and 2."""
        clock = FakeClock()
        rec = spans.Recorder(clock)

        def inner():
            clock.now += 2

        def middle():
            clock.now += 1
            rec.call("inner", inner, (), {})
            clock.now += 3

        def outer():
            clock.now += 1
            rec.call("middle", middle, (), {})
            clock.now += 3

        rec.request = "r1"
        rec.call("outer", outer, (), {})
        rec.call("outer", outer, (), {})
        rec.request = None
        rec.call("outer", outer, (), {})  # outside a request: not recorded

        self.assertEqual(len(rec.spans), 6)
        by_id = {s[0]: s for s in rec.spans}
        for sid, parent, name, start, end, request, _ in rec.spans:
            self.assertEqual(request, "r1")
            want_parent = {"outer": None, "middle": "outer", "inner": "middle"}[name]
            self.assertEqual(None if parent is None else by_id[parent][2], want_parent)
        selfs = spans.self_times(rec.spans)
        got = sorted((by_id[sid][2], t) for sid, t in selfs.items())
        self.assertEqual(got, [("inner", 2.0), ("inner", 2.0), ("middle", 4.0),
                               ("middle", 4.0), ("outer", 4.0), ("outer", 4.0)])
        self.assertEqual(rec.stack, [])

    def test_children_counted_once_when_they_overlap(self):
        spans_ = [[0, None, "a", 0.0, 10.0, "r", None],
                  [1, 0, "b", 1.0, 5.0, "r", None],
                  [2, 0, "c", 4.0, 7.0, "r", None]]
        self.assertEqual(spans.self_times(spans_)[0], 4.0)

    def test_exception_closes_span(self):
        rec = spans.Recorder(FakeClock())
        rec.request = "r"

        def boom():
            raise ValueError("x")

        with self.assertRaises(ValueError):
            rec.call("boom", boom, (), {})
        self.assertEqual(rec.stack, [])
        self.assertEqual(len(rec.spans), 1)


class ScaleTest(unittest.TestCase):
    def test_a_slow_stretch_scales_away(self):
        """Requests of 4 ms, the second half on a machine twice as slow."""
        import worker
        ref = worker.CALIBRATION_REF_S
        latencies = [4e-3] * 30 + [8e-3] * 30
        calibrations = [ref] * 30 + [2 * ref] * 30
        out = worker.scaled(latencies, calibrations)
        self.assertEqual(out[:20], [4e-3] * 20)
        self.assertEqual(out[-20:], [4e-3] * 20)


class WrapperTest(unittest.TestCase):
    def test_install_covers_every_binding_and_uninstall_removes_all(self):
        import ocdc
        from ocdc import builders, cli, covers, graphs, search, surgery
        before = {(m.__name__, k): v for m in (ocdc, builders, cli, covers, graphs, search, surgery)
                  for k, v in vars(m).items()}
        rec = spans.Recorder()
        undo = spans.install(rec)
        try:
            self.assertTrue(cli.find_socdc._bench_span)          # cli imports names directly
            self.assertTrue(search.verify_ocdc._bench_span)      # search's own module global
            self.assertTrue(ocdc.find_socdc._bench_span)
            self.assertIs(cli.find_socdc, search.find_socdc)
            rec.request = "k4"
            out = search.find_socdc(graphs.complete(5), node_budget=10**5)
            rec.request = None
            names = [s[2] for s in rec.spans]
            self.assertEqual(names[0], "find_socdc")
            self.assertIn("min_ocdc", names)
            self.assertIn("enumerate_directed_cycles", names)
            self.assertIn("verify_ocdc", names)
            metrics = spans.layer_metrics(rec.spans, 1.0)
            self.assertEqual(metrics["search.nodes"], out.nodes_expanded)
            self.assertEqual(metrics["search.outcome.found"], 1)
            self.assertEqual(set(metrics), set(spans.metric_names()))
            builders.oppdc_complete_odd.cache_clear()  # the wrapper keeps the cache handle
        finally:
            spans.uninstall(undo)
        after = {(m.__name__, k): v for m in (ocdc, builders, cli, covers, graphs, search, surgery)
                 for k, v in vars(m).items()}
        self.assertEqual(before.keys(), after.keys())
        for key, val in before.items():
            self.assertIs(after[key], val, key)
        self.assertIsInstance(covers.CoverCertificate.__dict__["from_json"], staticmethod)

    def test_generator_spans_one_per_resume(self):
        from ocdc import graphs, search
        rec = spans.Recorder()
        undo = spans.install(rec)
        try:
            rec.request = "cdc"
            first = next(search.enumerate_cdcs(graphs.complete(4)))
            rec.request = None
        finally:
            spans.uninstall(undo)
        self.assertTrue(first)
        self.assertEqual([s[2] for s in rec.spans if s[1] is None], ["enumerate_cdcs"])

    def test_vertex_subset_count_matches_the_scan(self):
        from itertools import combinations
        from ocdc import graphs
        g = graphs.generate("k4_chain:3")
        cut = graphs.vertex_connectivity_at_most(g, 2)
        scanned = 0
        for size in (1, 2):
            for c in combinations(range(g.n), size):
                scanned += 1
                if c == cut:
                    break
            else:
                continue
            break
        self.assertEqual(spans._counts("vertex_connectivity_at_most", (g, 2), {}, cut),
                         {"subsets": scanned})


if __name__ == "__main__":
    unittest.main()
