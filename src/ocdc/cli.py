"""Command-line frontend: generate, build, verify, compose, search, analyze.

Certificates (JSON) are the only currency between commands.  Exit codes:
0 success / Found / verified; 2 mathematically negative (verification
failure, NoneExists, provable nonexistence); 1 usage or operational error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .graphs import (Graph, FamilyError, blocks, bridges, generate,
                     girth_and_average_degree, nontrivial_3_edge_cuts, parse_graph6,
                     emit_graph6, planar_rotation, vertex_connectivity_at_most)
from .covers import CoverCertificate, InternalConsistencyError
from . import builders
from .builders import NoSocdcExists, NotPlanarEmbedding, edge_color_cubic
from .surgery import (MergeSpec, SpecError, SearchUnresolved, join_apex, merge_2cut,
                      merge_2cut_special, merge_3edgecut, merge_at_cutvertex,
                      prism_p2, product_lift, strip_apex, subdivide)
from .search import (BudgetExceeded, counterexample_filter, find_oppdc,
                     find_socdc, find_unorientable_cdc, min_ocdc)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


def _load_graph(args) -> Graph:
    """Graph from --family spec or --graph graph6 (exactly one given)."""
    if getattr(args, "family", None):
        return generate(args.family)
    if getattr(args, "graph", None):
        return parse_graph6(args.graph)
    raise FamilyError("one of --family or --graph is required")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _load_cert(path: str) -> CoverCertificate:
    return CoverCertificate.from_json(_read_text(path))


def _emit(text: str, out: Optional[str]) -> None:
    if out and out != "-":
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_map(text: str) -> dict[int, int]:
    obj = json.loads(text)
    if not isinstance(obj, dict) or not all(isinstance(v, (int, str)) for v in obj.values()):
        raise SpecError(f"vertex map must be a JSON object of vertex ids, got {text!r}")
    return {int(k): int(v) for k, v in obj.items()}


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    obj = json.loads(text)
    if not isinstance(obj, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p) for p in obj):
        raise SpecError(f"cut edges must be a JSON list of [u, v] pairs, got {text!r}")
    return [tuple(p) for p in obj]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    g = generate(args.spec) if args.spec and not (args.family or args.graph) else _load_graph(args)
    _emit(emit_graph6(g), args.out)
    print(f"n={g.n} m={g.m}", file=sys.stderr)
    return EXIT_OK


def cmd_build(args) -> int:
    target = args.target
    name, _, rest = target.partition(":")
    if name == "complete":
        n = int(rest)
        if n in (4, 6):
            cert = builders.ocdc_k4() if n == 4 else builders.ocdc_k6()
            print(f"note: K{n} has no small cover; emitting its minimum OCDC",
                  file=sys.stderr)
        elif n % 2:
            cert = builders.socdc_complete_odd(n)
        else:
            cert = builders.socdc_complete_even(n)
    elif name == "bipartite":
        a, b = (int(x) for x in rest.split(","))
        cert = builders.socdc_complete_bipartite(a, b)
    elif name == "oppdc-complete":
        cert = builders.oppdc_complete_odd(int(rest))
    elif name == "planar":
        g = generate(rest)
        res = builders.socdc_planar(g, planar_rotation(g))
        if res.bound_violation:
            print("note: edge count reaches 2|V|-2; smallness not implied "
                  "by the face bound", file=sys.stderr)
        cert = res.certificate
    elif name == "cubic":
        g = generate(rest)
        if edge_color_cubic(g) is None:
            _emit(json.dumps({"status": "Class2", "graph": emit_graph6(g)}), args.out)
            return EXIT_NEGATIVE
        cert = builders.ocdc_cubic_class1(g)
    else:
        raise FamilyError(f"unknown build target {target!r}")
    _emit(cert.to_json(), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    cert = _load_cert(args.cert)
    if args.graph:
        declared = parse_graph6(args.graph)
        if declared.n != cert.host.n or declared.edges != cert.host.edges:
            print("certificate host differs from --graph", file=sys.stderr)
            return EXIT_NEGATIVE
    rep = cert.verify()
    g = cert.host
    report = {
        "ok": rep.ok,
        "kind": cert.kind,
        "elements": len(cert.elements),
        "small": len(cert.elements) <= g.n - 1,
        "violations": [list(map(repr, v)) for v in rep.violations[:20]],
        "counts": {k: v for k, v in rep.counts.items()},
    }
    _emit(json.dumps(report), args.out)
    return EXIT_OK if rep.ok else EXIT_NEGATIVE


def _merge_spec(args) -> MergeSpec:
    return MergeSpec(_parse_map(args.map1), _parse_map(args.map2))


def _twocut_special(args) -> CoverCertificate:
    pieces = tuple(args.pieces.split(","))
    if len(pieces) == 1:
        return merge_2cut_special(pieces[0], None if args.cert2 is None else _load_cert(args.cert2))
    if args.cert2 is not None:
        raise SpecError("--cert2 goes with a single --pieces clique")
    return merge_2cut_special(pieces)  # the table lookup rejects any other pattern


def _emitting(surgery):
    """The handler of a compose operation: emit the certificate surgery(args) returns."""
    def handler(args) -> int:
        _emit(surgery(args).to_json(), args.out)
        return EXIT_OK
    return handler


def _report(args, search) -> int:
    """Emit the outcome of search(graph, node_budget, time_budget)."""
    out = search(_load_graph(args), args.node_budget, args.time_budget)
    payload = {
        "status": out.status,
        "lower_bound": out.lower_bound,
        "nodes_expanded": out.nodes_expanded,
        "certificate": json.loads(out.certificate.to_json()) if out.found else None,
    }
    _emit(json.dumps(payload), args.out)
    if out.found:
        return EXIT_OK
    return EXIT_NEGATIVE if out.status == "NoneExists" else EXIT_ERROR


def cmd_ocdc_min(args) -> int:
    def search(g, node_budget, time_budget):
        cap = args.max_count if args.max_count is not None else 2 * g.m // 3
        return min_ocdc(g, cap, node_budget, time_budget)
    return _report(args, search)


def cmd_unorientable_cdc(args) -> int:
    g = _load_graph(args)
    try:
        hit = find_unorientable_cdc(g, args.node_budget)
    except BudgetExceeded:
        _emit(json.dumps({"status": "Unresolved"}), args.out)
        return EXIT_ERROR
    if hit is None:
        _emit(json.dumps({"status": "NotFound"}), args.out)
        return EXIT_NEGATIVE
    cdc, wit = hit
    _emit(json.dumps({
        "status": "Found",
        "cdc": [list(c.vertices) for c in cdc],
        "witness": {"cycle_indices": wit.cycle_indices, "parities": wit.parities},
    }), args.out)
    return EXIT_OK


def cmd_filter(args) -> int:
    failed = counterexample_filter(_load_graph(args))
    _emit(json.dumps({"violated": failed, "candidate": not failed}), args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    g = _load_graph(args)
    lines = [f"graph: {emit_graph6(g)}  n={g.n} m={g.m}"]
    br = bridges(g)
    lines.append(f"bridgeless: {not br}" + (f"  bridges: {br}" if br else ""))
    cut = vertex_connectivity_at_most(g, 2)  # a smallest cut, so a 1-cut when there is one
    if cut is not None:
        lines.append(f"vertex connectivity <= {len(cut)}: cut {list(cut)}")
    elif g.n <= 3:  # K1, K2 or K3
        lines.append(f"vertex connectivity {g.n - 1}")
    else:
        lines.append("vertex connectivity >= 3")
    dec = blocks(g)
    lines.append(f"blocks: {len(dec.blocks)}  cut vertices: {sorted(dec.cut_vertices)}")
    cuts = nontrivial_3_edge_cuts(g)
    lines.append(f"nontrivial 3-edge cuts: {len(cuts)}")
    girth, avg = girth_and_average_degree(g)
    lines.append(f"girth: {girth}  average degree: {avg} ({float(avg):.3f})")
    if girth != float("inf") and girth > avg:
        lines.append("girth exceeds average degree: every OCDC is small")
    if g.is_cubic():
        lines.append(f"cubic: any CDC has at most n/2+2 = {g.n // 2 + 2} cycles")
    if (g.n, g.m) in ((4, 6), (6, 15)):
        lines.append("conjecture exception: this complete graph has no small cover")
    failed = counterexample_filter(g)
    if failed:
        lines.append("minimal-counterexample filter: fails " + "; ".join(failed))
    else:
        lines.append("minimal-counterexample filter: candidate (no condition violated)")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the operational-failure code; argparse's own 2
    would read as a mathematical negative."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


# Options of the compose and search operations.  Each operation lists the
# ones it reads, in usage notation: [--flag] is optional, --flag required.
OPTIONS = {
    "--family": {"help": "family spec such as petersen"},
    "--graph": {"help": "graph6"},
    "--cert": {"help": "first certificate path or -"},
    "--cert2": {"help": "second certificate path"},
    "--map1": {"help": "JSON piece-to-merged vertex map"},
    "--map2": {"help": "JSON piece-to-merged vertex map"},
    "--mode": {"choices": ["shared_edge", "no_edge"]},
    "--pieces": {"help": "K4,K6 style pattern, or one clique glued onto --cert2"},
    "--cut-edges": {"help": "JSON [[u,v],...]"},
    "--w1": {"type": int, "help": "contracted vertex in piece one"},
    "--w2": {"type": int, "help": "contracted vertex in piece two"},
    "--apex": {"type": int},
    "--edge": {"help": "u,v"},
    "--factor": {"help": "path:n | cycle:n | tree:<graph6>"},
    "--node-budget": {"type": int},
    "--time-budget": {"type": float, "help": "wall-clock seconds"},
    "--max-count": {"type": int},
}
GRAPH = "[--family] [--graph]"
BUDGETS = "[--node-budget] [--time-budget]"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once; its handlers look library functions up when called."""
    parser = _Parser(
        prog="ocdc",
        description="oriented cycle double covers: build, compose, search, verify")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_op(group, op, usage, func, **kw):
        """Operation op of group: the options in usage plus --out, run by func.
        With abbreviations off, twocut-special does not read --cert as --cert2."""
        p = group.add_parser(op, allow_abbrev=False, **kw)
        for flag in usage.split():
            name = flag.strip("[]")
            p.add_argument(name, required=name == flag, **OPTIONS[name])
        p.add_argument("--out", help="write output here instead of stdout")
        p.set_defaults(func=func)
        return p

    p = add_op(sub, "gen", "[--family]", cmd_gen, help="emit a graph as graph6")
    p.add_argument("spec", nargs="?", help="family spec such as complete:6")
    p.add_argument("--graph", help="graph6 passthrough")

    p = add_op(sub, "build", "", cmd_build, help="run a closed-form constructor")
    p.add_argument("target",
                   help="complete:n | bipartite:n,m | oppdc-complete:n | "
                        "planar:<family> | cubic:<family>")

    p = add_op(sub, "verify", "", cmd_verify, help="check a certificate")
    p.add_argument("cert", help="certificate path or - for stdin")
    p.add_argument("--graph", help="graph6 the host must equal")

    group = sub.add_parser("compose", help="surgery on certificates").add_subparsers(
        dest="op", required=True)
    for op, usage, surgery in [
        ("cutvertex", "--cert --cert2 --map1 --map2", lambda a: merge_at_cutvertex(
            _load_cert(a.cert), _load_cert(a.cert2), _merge_spec(a))),
        ("subdivide", "--cert --edge",
         lambda a: subdivide(_load_cert(a.cert), tuple(int(x) for x in a.edge.split(",")))),
        ("twocut", "--cert --cert2 --map1 --map2 --mode", lambda a: merge_2cut(
            _load_cert(a.cert), _load_cert(a.cert2), _merge_spec(a), a.mode)),
        ("twocut-special", "--pieces [--cert2]", _twocut_special),
        ("threecut", "--cert --cert2 --cut-edges --w1 --w2 --map1 --map2",
         lambda a: merge_3edgecut(_load_cert(a.cert), _load_cert(a.cert2),
                                  _parse_pairs(a.cut_edges), a.w1, a.w2, _merge_spec(a))),
        ("join", "--cert", lambda a: join_apex(_load_cert(a.cert))),
        ("strip", "--cert --apex", lambda a: strip_apex(_load_cert(a.cert), a.apex)),
        ("prism", "--cert", lambda a: prism_p2(_load_cert(a.cert))),
        ("product", "--cert --factor [--node-budget]",
         lambda a: product_lift(_load_cert(a.cert), a.factor, a.node_budget)),
    ]:
        add_op(group, op, usage, _emitting(surgery))
    group.choices["product"].set_defaults(node_budget=10**7)

    group = sub.add_parser("search", help="exact-cover search and screening").add_subparsers(
        dest="what", required=True)
    add_op(group, "socdc", f"{GRAPH} {BUDGETS}", lambda a: _report(a, find_socdc))
    add_op(group, "ocdc-min", f"{GRAPH} {BUDGETS} [--max-count]", cmd_ocdc_min)
    add_op(group, "oppdc", f"{GRAPH} {BUDGETS}", lambda a: _report(a, find_oppdc))
    add_op(group, "unorientable-cdc", f"{GRAPH} [--node-budget]", cmd_unorientable_cdc)
    add_op(group, "filter", GRAPH, cmd_filter)

    add_op(sub, "analyze", GRAPH, cmd_analyze, help="structural report")
    return parser


NEGATIVE_ERRORS = (NoSocdcExists, NotPlanarEmbedding)
OPERATIONAL_ERRORS = (ValueError, OSError, SearchUnresolved, InternalConsistencyError)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if [] in vars(args).values():  # argparse reads --flag=-- as an empty list
        parser.error("an option needs a value other than --")
    try:
        return args.func(args)
    except NEGATIVE_ERRORS as exc:
        print(f"ocdc: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except OPERATIONAL_ERRORS as exc:
        print(f"ocdc: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
