"""Command-line interface: exit codes, JSON currency, pipelines."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ocdc.cli import main
from ocdc.covers import CoverCertificate
from ocdc.graphs import complete, emit_graph6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_family(self, capsys):
        code, out, err = run(capsys, "gen", "complete:6")
        assert code == 0
        assert out.strip() == emit_graph6(complete(6))
        assert "n=6 m=15" in err

    def test_bad_family(self, capsys):
        code, _, err = run(capsys, "gen", "heptagram:9")
        assert code == 1
        assert "error" in err

    def test_no_spec_exits_1(self, capsys):
        for argv in (["gen"], ["gen", "--graph", ""]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert "required" in err and "Traceback" not in err


class TestBuild:
    @pytest.mark.parametrize("target,count", [
        ("complete:5", 4), ("complete:8", 7), ("bipartite:3,4", 4),
        ("oppdc-complete:7", 7), ("planar:hypercube:3", 6),
        ("cubic:bipartite:3,3", 3),
    ])
    def test_targets_verify(self, capsys, target, count):
        code, out, _ = run(capsys, "build", target)
        assert code == 0
        cert = CoverCertificate.from_json(out)
        assert cert.verify().ok
        assert len(cert.elements) == count

    def test_k4_emits_minimum_with_note(self, capsys):
        code, out, err = run(capsys, "build", "complete:4")
        assert code == 0
        assert CoverCertificate.from_json(out).kind == "OCDC"
        assert "no small cover" in err

    def test_class2_negative(self, capsys):
        code, out, _ = run(capsys, "build", "cubic:petersen")
        assert code == 2
        assert json.loads(out)["status"] == "Class2"

    def test_unknown_target(self, capsys):
        assert run(capsys, "build", "moebius:3")[0] == 1


class TestVerify:
    def test_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "build", "bipartite:3,4")
        p = tmp_path / "cert.json"
        p.write_text(out)
        code, out2, _ = run(capsys, "verify", str(p))
        assert code == 0
        rep = json.loads(out2)
        assert rep["ok"] and rep["small"] and rep["elements"] == 4

    def test_graph_mismatch(self, capsys, tmp_path):
        _, out, _ = run(capsys, "build", "complete:5")
        p = tmp_path / "cert.json"
        p.write_text(out)
        code, _, err = run(capsys, "verify", str(p), "--graph",
                           emit_graph6(complete(6)))
        assert code == 2

    def test_corrupted_cover(self, capsys, tmp_path):
        _, out, _ = run(capsys, "build", "complete:5")
        obj = json.loads(out)
        obj["elements"] = obj["elements"][:-1]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(obj))
        code, out2, _ = run(capsys, "verify", str(p))
        assert code == 2
        assert not json.loads(out2)["ok"]

    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{")
        assert run(capsys, "verify", str(p))[0] == 1

    def test_malformed_shape_exits_1(self, capsys, tmp_path):
        p = tmp_path / "shape.json"
        p.write_text('{"graph": "Bw", "kind": "OCDC", "elements": 5}')
        code, out, err = run(capsys, "verify", str(p))
        assert code == 1 and out == ""
        assert "elements" in err and "Traceback" not in err


class TestSearch:
    def test_k6_none_exists(self, capsys):
        code, out, _ = run(capsys, "search", "socdc", "--family", "complete:6")
        assert code == 2
        assert json.loads(out)["status"] == "NoneExists"

    def test_petersen_found(self, capsys):
        code, out, _ = run(capsys, "search", "socdc", "--family", "petersen")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "Found"
        cert = CoverCertificate.from_json(json.dumps(payload["certificate"]))
        assert cert.verify().ok

    def test_budget_unresolved(self, capsys):
        code, out, _ = run(capsys, "search", "socdc", "--family", "complete:6",
                           "--node-budget", "5")
        assert code == 1
        assert json.loads(out)["status"] == "Unresolved"

    def test_oppdc(self, capsys):
        code, out, _ = run(capsys, "search", "oppdc", "--family", "cycle:5")
        assert code == 0
        assert json.loads(out)["certificate"]["kind"] == "OPPDC"

    def test_filter(self, capsys):
        code, out, _ = run(capsys, "search", "filter", "--family", "k4_chain:2")
        assert code == 0
        assert json.loads(out)["candidate"] is False

    def test_unorientable(self, capsys):
        code, out, _ = run(capsys, "search", "unorientable-cdc",
                           "--family", "petersen")
        assert code == 0
        payload = json.loads(out)
        assert sum(payload["witness"]["parities"]) % 2 == 1

    def test_unorientable_not_found(self, capsys):
        code, out, _ = run(capsys, "search", "unorientable-cdc",
                           "--family", "cycle:6")
        assert code == 2

    def test_unorientable_budget_unresolved(self, capsys):
        code, out, err = run(capsys, "search", "unorientable-cdc",
                             "--family", "petersen", "--node-budget", "5")
        assert code == 1
        assert json.loads(out) == {"status": "Unresolved"}
        assert "Traceback" not in err

    def test_unknown_option_exits_1(self, capsys):
        # bad usage is an operational failure, not a mathematical negative
        with pytest.raises(SystemExit) as exc:
            main(["search", "socdc", "--family", "cycle:5", "--bogus"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    def test_unverified_result_exits_1(self, capsys, monkeypatch):
        from ocdc import covers
        from ocdc.covers import VerifyReport
        monkeypatch.setattr(covers, "verify_ocdc",
                            lambda g, cycles: VerifyReport(False, [("arc", 0, 1)]))
        code, out, err = run(capsys, "search", "socdc", "--family", "cycle:5")
        assert code == 1 and out == ""
        assert "fails verification" in err and "Traceback" not in err


class TestCompose:
    def test_strip_join_pipeline(self, capsys, tmp_path):
        _, out, _ = run(capsys, "build", "complete:8")
        k8 = tmp_path / "k8.json"
        k8.write_text(out)
        code, out2, _ = run(capsys, "compose", "strip", "--cert", str(k8),
                            "--apex", "7")
        assert code == 0
        oppdc = tmp_path / "k7.json"
        oppdc.write_text(out2)
        code, out3, _ = run(capsys, "compose", "join", "--cert", str(oppdc))
        assert code == 0
        assert CoverCertificate.from_json(out3).verify().ok

    def test_twocut_special_table(self, capsys):
        code, out, _ = run(capsys, "compose", "twocut-special",
                           "--pieces", "K4,K6")
        assert code == 0
        cert = CoverCertificate.from_json(out)
        assert cert.host.n == 8 and len(cert.elements) == 6

    def test_product(self, capsys, tmp_path):
        _, out, _ = run(capsys, "search", "socdc", "--family", "cycle:3")
        cert = json.dumps(json.loads(out)["certificate"])
        p = tmp_path / "c3.json"
        p.write_text(cert)
        code, out2, _ = run(capsys, "compose", "product", "--cert", str(p),
                            "--factor", "cycle:7")
        assert code == 0
        assert CoverCertificate.from_json(out2).host.n == 21

    def test_product_size_check_exits_1(self, capsys, tmp_path, monkeypatch):
        # product_cycle_large certifies the size bound a long cycle factor
        # guarantees, also under -O
        from ocdc import covers
        _, out, _ = run(capsys, "search", "socdc", "--family", "cycle:3")
        p = tmp_path / "c3.json"
        p.write_text(json.dumps(json.loads(out)["certificate"]))
        monkeypatch.setattr(covers, "verify_socdc", lambda g, cycles: covers.VerifyReport(
            False, [("size", len(cycles), g.n - 1)]))
        code, out2, err = run(capsys, "compose", "product", "--cert", str(p),
                              "--factor", "cycle:7")
        assert code == 1 and out2 == ""
        assert "'size'" in err and "Traceback" not in err

    def test_join_on_cycle_certificate_exits_1(self, capsys, tmp_path):
        _, out, _ = run(capsys, "build", "complete:7")
        p = tmp_path / "k7.json"
        p.write_text(out)
        for op in ("join", "prism"):
            code, out2, err = run(capsys, "compose", op, "--cert", str(p))
            assert code == 1 and out2 == ""
            assert "needs an OPPDC" in err

    def test_missing_cert_file(self, capsys):
        assert run(capsys, "compose", "join", "--cert", "/nonexistent.json")[0] == 1


class TestAnalyze:
    def test_petersen_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "petersen")
        assert code == 0
        assert "girth: 5" in out
        assert "every OCDC is small" in out
        assert "candidate" in out

    def test_k6_exception(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "complete:6")
        assert code == 0
        assert "conjecture exception" in out

    def test_chain_cut_vertices(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "k4_chain:2")
        assert code == 0
        assert "cut vertices: [1]" in out
        assert "fails not 2-connected" in out


class TestOutFile:
    def test_out_flag(self, capsys, tmp_path):
        dest = tmp_path / "g.g6"
        code, out, _ = run(capsys, "gen", "petersen", "--out", str(dest))
        assert code == 0 and out == ""
        assert dest.read_text().strip() == emit_graph6(__import__("ocdc").graphs.petersen())


GRAPH6_TEXT = st.text(alphabet=[chr(c) for c in range(63, 127)], max_size=40)
JSON_VALUE = st.recursive(st.none() | st.booleans() | st.integers(-1, 5) | st.text(max_size=3),
                          lambda inner: st.lists(inner, max_size=4), max_leaves=10)
CERT_JSON = st.builds(json.dumps, JSON_VALUE) | st.builds(
    lambda graph, kind, elements: json.dumps(
        {"graph": graph, "kind": kind, "elements": elements}),
    st.sampled_from(["?", "@", "Bw", "Cr", "C~", "DQc"]) | JSON_VALUE,
    st.sampled_from(["CDC", "OCDC", "SOCDC", "OPPDC", "PPDC"]) | JSON_VALUE,
    st.lists(st.lists(st.integers(-1, 5), max_size=5), max_size=5) | JSON_VALUE)


def exit_code(argv) -> int:
    """main's exit code, with output discarded and usage errors included."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


class TestFuzz:
    """Short arbitrary text as a graph or a certificate never escapes as an
    exception: every run ends in exit code 0, 1 or 2."""

    @settings(max_examples=40, deadline=None)
    @given(text=st.text(max_size=40) | GRAPH6_TEXT)
    def test_graph_text(self, text):
        for argv in (["analyze"], ["search", "filter"], ["gen"]):
            assert exit_code(argv + [f"--graph={text}"]) in (0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(text=st.text(max_size=40) | CERT_JSON)
    def test_certificate_text(self, text):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "cert.json"
            path.write_text(text, encoding="utf-8")
            assert exit_code(["verify", str(path)]) in (0, 1, 2)
            assert exit_code(["compose", "join", "--cert", str(path)]) in (0, 1, 2)
