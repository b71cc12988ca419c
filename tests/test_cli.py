"""Command-line interface: exit codes, JSON currency, pipelines."""

import contextlib
import io
import json
import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ocdc import cli
from ocdc.builders import ocdc_k4, oppdc_complete_odd, socdc_complete_even, socdc_complete_odd
from ocdc.cli import main
from ocdc.covers import CoverCertificate, DirectedCycle
from ocdc.graphs import complete, cycle, emit_graph6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_usage(capsys, *argv):
    """run, with argparse's usage errors turned into their exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# The options each operation reads: (required, optional).
COMPOSE_OPTIONS = {
    "cutvertex": ("--cert --cert2 --map1 --map2", ""),
    "subdivide": ("--cert --edge", ""),
    "twocut": ("--cert --cert2 --map1 --map2 --mode", ""),
    "twocut-special": ("--pieces", "--cert2"),
    "threecut": ("--cert --cert2 --cut-edges --w1 --w2 --map1 --map2", ""),
    "join": ("--cert", ""),
    "prism": ("--cert", ""),
    "strip": ("--cert --apex", ""),
    "product": ("--cert --factor", "--node-budget"),
}
SEARCH_OPTIONS = {
    "socdc": ("", "--family --graph --node-budget --time-budget"),
    "oppdc": ("", "--family --graph --node-budget --time-budget"),
    "ocdc-min": ("", "--family --graph --node-budget --time-budget --max-count"),
    "unorientable-cdc": ("", "--family --graph --node-budget"),
    "filter": ("", "--family --graph"),
}
OPERATIONS = [("compose", op, *opts) for op, opts in COMPOSE_OPTIONS.items()] + \
    [("search", op, *opts) for op, opts in SEARCH_OPTIONS.items()]
ALL_OPTIONS = sorted({flag for _, _, req, opt in OPERATIONS for flag in (req + " " + opt).split()})


@pytest.fixture(scope="module")
def cert_paths(tmp_path_factory):
    """Certificate files: c3, k4, k5 and k8 covers, and the OPPDC k7."""
    d = tmp_path_factory.mktemp("certs")
    triangle = CoverCertificate(cycle(3), "SOCDC",
                                [DirectedCycle((0, 1, 2)), DirectedCycle((2, 1, 0))], "triangle")
    paths = {}
    for name, cert in (("c3", triangle), ("k4", ocdc_k4()), ("k5", socdc_complete_odd(5)),
                       ("k8", socdc_complete_even(8)), ("k7", oppdc_complete_odd(7))):
        paths[name] = str(d / f"{name}.json")
        Path(paths[name]).write_text(cert.to_json())
    return paths


@pytest.fixture(scope="module")
def compose_argv(cert_paths):
    """A command line that succeeds, for each compose operation: op -> {flag: value}."""
    c3, k4, k5, k8, k7 = (cert_paths[k] for k in ("c3", "k4", "k5", "k8", "k7"))
    return {
        "cutvertex": {"--cert": c3, "--cert2": c3, "--map1": '{"0":0,"1":1,"2":2}',
                      "--map2": '{"0":0,"1":3,"2":4}'},
        "subdivide": {"--cert": k5, "--edge": "0,1"},
        "twocut": {"--cert": c3, "--cert2": c3, "--map1": '{"0":0,"1":1,"2":2}',
                   "--map2": '{"0":0,"1":1,"2":3}', "--mode": "shared_edge"},
        "twocut-special": {"--pieces": "K4", "--cert2": c3},
        "threecut": {"--cert": k4, "--cert2": k4, "--cut-edges": "[[0,3],[1,4],[2,5]]",
                     "--w1": "3", "--w2": "3", "--map1": '{"0":0,"1":1,"2":2,"3":90}',
                     "--map2": '{"0":3,"1":4,"2":5,"3":91}'},
        "join": {"--cert": k7},
        "strip": {"--cert": k8, "--apex": "7"},
        "prism": {"--cert": k7},
        "product": {"--cert": c3, "--factor": "cycle:7", "--node-budget": "1000"},
    }


def compose_line(op, options):
    return ["compose", op] + [f"{flag}={value}" for flag, value in options.items()]


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
        # guarantees, also under -O; the verifier fails only on the 21-vertex
        # product, so the C3 input still passes the input gate
        from ocdc import covers
        _, out, _ = run(capsys, "search", "socdc", "--family", "cycle:3")
        p = tmp_path / "c3.json"
        p.write_text(json.dumps(json.loads(out)["certificate"]))
        real = covers.verify_socdc
        monkeypatch.setattr(covers, "verify_socdc", lambda g, cycles: covers.VerifyReport(
            False, [("size", len(cycles), g.n - 1)]) if g.n == 21 else real(g, cycles))
        code, out2, err = run(capsys, "compose", "product", "--cert", str(p),
                              "--factor", "cycle:7")
        assert code == 1 and out2 == ""
        assert "'size'" in err and "Traceback" not in err
        assert "fails verification" in err

    def test_join_on_cycle_certificate_exits_1(self, capsys, tmp_path):
        _, out, _ = run(capsys, "build", "complete:7")
        p = tmp_path / "k7.json"
        p.write_text(out)
        for op in ("join", "prism"):
            code, out2, err = run(capsys, "compose", op, "--cert", str(p))
            assert code == 1 and out2 == ""
            assert "needs an OPPDC" in err

    def test_twocut_on_oppdc_exits_1(self, capsys, cert_paths):
        code, out, err = run(capsys, "compose", "twocut", "--cert", cert_paths["k7"],
                             "--cert2", cert_paths["k5"],
                             "--map1", json.dumps({v: v for v in range(7)}),
                             "--map2", '{"0":0,"1":1,"2":7,"3":8,"4":9}',
                             "--mode", "shared_edge")
        assert code == 1 and out == ""
        assert "needs an" in err and "fails verification" not in err

    def test_product_unsupported_factor_exits_1(self, capsys, cert_paths, monkeypatch):
        from ocdc import graphs

        def refuse(spec):
            raise AssertionError(f"built the factor {spec}")
        monkeypatch.setattr(graphs, "generate", refuse)
        code, out, err = run(capsys, "compose", "product", "--cert", cert_paths["k5"],
                             "--factor", "hypercube:30")
        assert code == 1 and out == ""
        assert "unsupported factor" in err

    def test_readme_compose_lines(self, capsys, tmp_path, monkeypatch):
        # p.json, a.json and b.json as the README builds them
        monkeypatch.chdir(tmp_path)
        for name, target in (("p", "oppdc-complete:7"), ("a", "complete:5"),
                             ("b", "complete:5")):
            code, out, _ = run(capsys, "build", target)
            assert code == 0
            (tmp_path / f"{name}.json").write_text(out)
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = [shlex.split(line.split("#")[0]) for line in readme.read_text().splitlines()
                 if line.startswith("ocdc compose ")]
        assert [argv[2] for argv in lines] == ["join", "twocut"]
        for argv in lines:
            code, out, err = run(capsys, *argv[1:])
            assert code == 0, (argv, err)
            assert CoverCertificate.from_json(out).verify().ok, argv

    def test_missing_cert_file(self, capsys):
        assert run(capsys, "compose", "join", "--cert", "/nonexistent.json")[0] == 1

    def test_missing_or_garbled_options_exit_1(self, capsys, cert_paths):
        k5 = cert_paths["k5"]
        for argv in (["subdivide", "--cert", k5],
                     ["twocut-special"],
                     ["product", "--cert", k5],
                     ["cutvertex", "--cert", k5, "--cert2", k5, "--map2", "{}"],
                     ["threecut", "--cert", k5, "--cert2", k5, "--cut-edges", "[]",
                      "--w1", "0", "--w2", "0", "--map2", "{}"],
                     ["cutvertex", "--cert", k5, "--cert2", k5, "--map1", "[1]", "--map2", "{}"],
                     ["twocut-special", "--pieces", "K4,K4,K4"],
                     ["twocut-special", "--pieces", "K4"],
                     ["twocut-special", "--pieces", "K4,K6", "--cert2", k5],
                     ["join"],
                     ["subdivide", "--cert", k5, "--edge=--"],
                     ["product", "--cert", k5, "--factor", "cycle:11", "--node-budget=--"]):
            code, out, err = run_usage(capsys, "compose", *argv)
            assert code == 1 and out == "", argv
            assert "error" in err and "Traceback" not in err, argv

    def test_every_operation_runs(self, capsys, compose_argv):
        for op, options in compose_argv.items():
            code, out, err = run(capsys, *compose_line(op, options))
            assert code == 0, (op, err)
            assert CoverCertificate.from_json(out).verify().ok, op


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

    @pytest.mark.parametrize("g6,line,violated", [
        ("@", "vertex connectivity 0", ["not 2-connected"]),
        ("A_", "vertex connectivity 1", ["not 2-connected"]),
        ("Bw", "vertex connectivity 2",
         ["minimum degree below 3", "not 3-connected", "not 3-edge-connected"]),
        ("BW", "vertex connectivity <= 1: cut [2]", ["not 2-connected"]),
        ("Cl", "vertex connectivity <= 2: cut [0, 2]",
         ["minimum degree below 3", "not 3-connected", "not 3-edge-connected"]),
    ])
    def test_small_graphs(self, capsys, g6, line, violated):
        code, out, _ = run(capsys, "analyze", "--graph", g6)
        assert code == 0 and out.splitlines()[2] == line
        code, out, _ = run(capsys, "search", "filter", "--graph", g6)
        assert code == 0 and json.loads(out)["violated"] == violated

    def test_disconnected_exits_1(self, capsys):
        code, out, err = run(capsys, "analyze", "--graph", "A?")
        assert code == 1 and out == ""
        assert err == "ocdc: error: input graph must be connected\n"

    def test_one_connectivity_call_each(self, capsys, monkeypatch):
        from ocdc import graphs, search
        calls = []

        def counting(g, k):
            calls.append(k)
            return graphs.vertex_connectivity_at_most(g, k)
        monkeypatch.setattr(cli, "vertex_connectivity_at_most", counting)
        monkeypatch.setattr(search, "vertex_connectivity_at_most", counting)
        assert run(capsys, "analyze", "--family", "petersen")[0] == 0
        assert calls == [2, 2]

    def test_chain_cut_vertices(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "k4_chain:2")
        assert code == 0
        assert "cut vertices: [1]" in out
        assert "fails not 2-connected" in out


class TestParser:
    def test_each_operation_takes_exactly_its_options(self, capsys):
        parser = cli.build_parser()
        for group, op, required, optional in OPERATIONS:
            base = [group, op]
            for flag in required.split():
                base += [flag, "shared_edge" if flag == "--mode" else "1"]
            for flag in ALL_OPTIONS:
                if flag in required.split():
                    continue
                argv = base + [flag, "1"]
                if flag in optional.split():
                    ns = parser.parse_args(argv)
                    assert getattr(ns, flag[2:].replace("-", "_")) is not None, argv
                    continue
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                assert exc.value.code == 1, argv
                assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err, argv

    def test_built_once(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        names = set(vars(cli))
        assert run(capsys, "search", "filter", "--family", "petersen")[0] == 0
        assert set(vars(cli)) == names

    def test_no_state_between_parses(self):
        parser = cli.build_parser()
        product = parser.parse_args(["compose", "product", "--cert", "a", "--factor", "path:3"])
        assert product.node_budget == 10**7
        search = parser.parse_args(["search", "socdc", "--family", "petersen"])
        assert search.node_budget is None and not hasattr(search, "factor")
        again = parser.parse_args(["compose", "product", "--cert", "b", "--factor", "cycle:5",
                                   "--node-budget", "7"])
        assert (again.cert, again.node_budget) == ("b", 7)
        assert parser.parse_args(["compose", "product", "--cert", "a",
                                  "--factor", "path:3"]).node_budget == 10**7


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


GARBLED = sorted((op, flag) for op, (required, _) in COMPOSE_OPTIONS.items()
                 for flag in required.split()
                 if flag in ("--map1", "--map2", "--edge", "--pieces", "--cut-edges", "--factor"))
# Short text, plus values shaped like the options' own: vertex maps, edge and
# cut-edge lists, piece patterns and factor specs.
GARBLE = (st.text(max_size=12) | st.builds(json.dumps, JSON_VALUE)
          | st.text(alphabet="0123456789,-K", max_size=8)
          | st.builds(json.dumps, st.dictionaries(st.sampled_from("01234"),
                                                  st.integers(-1, 6) | st.none(), max_size=5))
          | st.builds(json.dumps, st.lists(st.lists(st.integers(-1, 6), min_size=1, max_size=3),
                                           min_size=2, max_size=4))
          | st.builds("{}:{}".format, st.sampled_from(["path", "cycle", "tree"]),
                      st.integers(-1, 4) | st.sampled_from(["@", "A_", "Bw", "BW"])))
DROPPED = [(op, flag) for op, (required, _) in COMPOSE_OPTIONS.items() for flag in required.split()]


class TestFuzz:
    """Short arbitrary text as a graph, a certificate or a compose option
    never escapes as an exception: every run ends in exit code 0, 1 or 2."""

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

    @settings(max_examples=80, deadline=None)
    @given(target=st.sampled_from(GARBLED), text=GARBLE)
    def test_garbled_compose_option(self, compose_argv, target, text):
        op, flag = target
        assert exit_code(compose_line(op, {**compose_argv[op], flag: text})) in (0, 1, 2)

    @pytest.mark.parametrize("op,dropped", DROPPED)
    def test_compose_option_dropped(self, capsys, compose_argv, op, dropped):
        options = {flag: v for flag, v in compose_argv[op].items() if flag != dropped}
        code, out, err = run_usage(capsys, *compose_line(op, options))
        assert code == 1 and out == ""
        assert f"required: {dropped}" in err and "Traceback" not in err
