"""Command-line frontend: generate, build, verify, compose, search, analyze.

Certificates (JSON) are the only currency between commands.  Exit codes:
0 success / Found / verified; 2 mathematically negative (verification
failure, NoneExists, provable nonexistence); 1 usage or operational error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .graphs import (Graph, FamilyError, Graph6ParseError, RotationError,
                     blocks, bridges, generate, girth_and_average_degree,
                     is_bridgeless, nontrivial_3_edge_cuts, parse_graph6,
                     emit_graph6, planar_rotation, vertex_connectivity_at_most)
from .covers import CoverCertificate, InternalConsistencyError, MalformedCoverError
from . import builders
from .builders import (DeskScaleError, NoSocdcExists, NotPlanarEmbedding,
                       edge_color_cubic)
from .surgery import (MergeSpec, SpecError, CertificateInconsistency,
                      SearchUnresolved, join_apex, merge_2cut,
                      merge_2cut_special, merge_3edgecut, merge_at_cutvertex,
                      prism_p2, product_cycle_large, product_lift, strip_apex,
                      subdivide)
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
    return {int(k): int(v) for k, v in obj.items()}


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


def cmd_compose(args) -> int:
    op = args.op
    if op == "cutvertex":
        cert = merge_at_cutvertex(_load_cert(args.cert), _load_cert(args.cert2),
                                  MergeSpec(_parse_map(args.map1), _parse_map(args.map2)))
    elif op == "subdivide":
        u, v = (int(x) for x in args.edge.split(","))
        cert = subdivide(_load_cert(args.cert), (u, v))
    elif op == "twocut":
        cert = merge_2cut(_load_cert(args.cert), _load_cert(args.cert2),
                          MergeSpec(_parse_map(args.map1), _parse_map(args.map2)),
                          args.mode)
    elif op == "twocut-special":
        pieces = args.pieces.split(",")
        if len(pieces) == 2:
            cert = merge_2cut_special(tuple(pieces))
        else:
            cert = merge_2cut_special(pieces[0], _load_cert(args.cert2))
    elif op == "threecut":
        cut = [tuple(int(x) for x in pair) for pair in json.loads(args.cut_edges)]
        cert = merge_3edgecut(_load_cert(args.cert), _load_cert(args.cert2),
                              cut, args.w1, args.w2,
                              MergeSpec(_parse_map(args.map1), _parse_map(args.map2)))
    elif op == "join":
        cert = join_apex(_load_cert(args.cert))
    elif op == "strip":
        cert = strip_apex(_load_cert(args.cert), args.apex)
    elif op == "prism":
        cert = prism_p2(_load_cert(args.cert))
    elif op == "product":
        base = _load_cert(args.cert)
        fname, _, frest = args.factor.partition(":")
        if fname == "cycle" and base.kind == "SOCDC" \
                and int(frest) >= 2 * base.host.n + 1:
            cert = product_cycle_large(base, int(frest))[0]
        else:
            cert = product_lift(base, args.factor, args.node_budget)
    else:
        raise SpecError(f"unknown compose operation {op!r}")
    _emit(cert.to_json(), args.out)
    return EXIT_OK


def cmd_search(args) -> int:
    what = args.what
    g = _load_graph(args)
    if what == "filter":
        failed = counterexample_filter(g)
        _emit(json.dumps({"violated": failed, "candidate": not failed}), args.out)
        return EXIT_OK
    if what == "unorientable-cdc":
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
    if what == "socdc":
        out = find_socdc(g, args.node_budget, args.time_budget)
    elif what == "ocdc-min":
        cap = args.max_count if args.max_count is not None else 2 * g.m // 3
        out = min_ocdc(g, cap, args.node_budget, args.time_budget)
    elif what == "oppdc":
        out = find_oppdc(g, args.node_budget, args.time_budget)
    else:
        raise FamilyError(f"unknown search target {what!r}")
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


def cmd_analyze(args) -> int:
    g = _load_graph(args)
    lines = [f"graph: {emit_graph6(g)}  n={g.n} m={g.m}"]
    br = bridges(g)
    lines.append(f"bridgeless: {not br}" + (f"  bridges: {br}" if br else ""))
    if g.n >= 2 and g.is_connected():
        for k in (1, 2):
            cut = vertex_connectivity_at_most(g, k)
            if cut is not None:
                lines.append(f"vertex connectivity <= {k}: cut {list(cut)}")
                break
        else:
            lines.append("vertex connectivity >= 3")
    else:
        lines.append("disconnected" if not g.is_connected() else "trivial")
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ocdc",
        description="oriented cycle double covers: build, compose, search, verify")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="write output here instead of stdout")

    p = sub.add_parser("gen", help="emit a graph as graph6")
    p.add_argument("spec", nargs="?", help="family spec such as complete:6")
    p.add_argument("--family")
    p.add_argument("--graph", help="graph6 passthrough")
    add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build", help="run a closed-form constructor")
    p.add_argument("target",
                   help="complete:n | bipartite:n,m | oppdc-complete:n | "
                        "planar:<family> | cubic:<family>")
    add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="check a certificate")
    p.add_argument("cert", help="certificate path or - for stdin")
    p.add_argument("--graph", help="graph6 the host must equal")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compose", help="surgery on certificates")
    p.add_argument("op", choices=["cutvertex", "subdivide", "twocut",
                                  "twocut-special", "threecut", "join",
                                  "strip", "prism", "product"])
    p.add_argument("--cert", help="first certificate path or -")
    p.add_argument("--cert2", help="second certificate path")
    p.add_argument("--map1", help="JSON piece-to-merged vertex map")
    p.add_argument("--map2", help="JSON piece-to-merged vertex map")
    p.add_argument("--mode", choices=["shared_edge", "no_edge"])
    p.add_argument("--pieces", help="K4,K6 style pattern for twocut-special")
    p.add_argument("--cut-edges", dest="cut_edges", help="JSON [[u,v],...]")
    p.add_argument("--w1", type=int, help="contracted vertex in piece one")
    p.add_argument("--w2", type=int, help="contracted vertex in piece two")
    p.add_argument("--apex", type=int)
    p.add_argument("--edge", help="u,v for subdivide")
    p.add_argument("--factor", help="path:n | cycle:n | tree:<graph6>")
    p.add_argument("--node-budget", dest="node_budget", type=int, default=10**7)
    add_common(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("search", help="exact-cover search and screening")
    p.add_argument("what", choices=["socdc", "ocdc-min", "oppdc",
                                    "unorientable-cdc", "filter"])
    p.add_argument("--family")
    p.add_argument("--graph", help="graph6")
    p.add_argument("--max-count", dest="max_count", type=int)
    p.add_argument("--node-budget", dest="node_budget", type=int)
    p.add_argument("--time-budget", dest="time_budget", type=float,
                   help="wall-clock seconds")
    add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("analyze", help="structural report")
    p.add_argument("--family")
    p.add_argument("--graph")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    return parser


NEGATIVE_ERRORS = (NoSocdcExists, NotPlanarEmbedding)
OPERATIONAL_ERRORS = (FamilyError, Graph6ParseError, RotationError,
                      MalformedCoverError, SpecError, CertificateInconsistency,
                      DeskScaleError, SearchUnresolved, InternalConsistencyError,
                      ValueError, OSError, json.JSONDecodeError)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
