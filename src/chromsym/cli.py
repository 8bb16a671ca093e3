"""Command-line front end.

Graph specs use a compact grammar, one family keyword and its integer
parameters:

    path:6          cycle:7         tadpole:5,2
    cc:3,4          theta:3,2,2     glambda:2,2,2,1
    edges:4;0-1,1-2,2-3,0-3

Exit codes: 0 on success, 1 when a verification check fails or a
resource bound cuts the run short, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .compositions import Composition, chord_weight, segment_dissection, split_params
from .engine import (
    VerificationReport,
    check_conversion_table,
    closed_formula,
    csf_oracle,
    scan_theta,
    verify,
)
from .graphs import (
    FAMILIES,
    Family,
    GraphSpec,
    ResourceLimitError,
    build_graph,
    check_memo_edges,
    check_stable_vertices,
    count_proper_colorings,
    is_nice,
    render_graph_spec,
)
from .symfunc import render_latex, render_text, to_json_dict


class SpecParseError(ValueError):
    """Malformed spec text; pos is the zero-based offending column."""

    def __init__(self, text: str, pos: int, reason: str):
        self.text = text
        self.pos = pos
        self.reason = reason
        super().__init__(f"{reason} (column {pos + 1} of {text!r})")


_KINDS = ("nonnegative", "positive")  # named by the least value allowed


def _parse_int(text: str, pos: int, token: str, low: int = 0) -> int:
    # ASCII digits only: int() would also take '+3', ' 3' or '\u0663'
    if not (token.isascii() and token.isdigit()) or int(token) < low:
        raise SpecParseError(text, pos, f"expected a {_KINDS[low]} integer, got {token!r}")
    return int(token)


def _parse_int_list(text: str, pos: int, body: str, low: int = 0) -> tuple[int, ...]:
    if not body:
        raise SpecParseError(text, pos, "expected at least one integer parameter")
    out = []
    offset = pos
    for token in body.split(","):
        out.append(_parse_int(text, offset, token, low))
        offset += len(token) + 1
    return tuple(out)


def parse_graph_spec(text: str) -> GraphSpec:
    """Parse the spec grammar; trailing whitespace is ignored.

    Errors carry the offending column.  The family's parameter rules
    (arc lengths, vertex ranges) are GraphSpec's, checked as it is made.
    """
    s = text.rstrip()
    colon = s.find(":")
    if colon < 0:
        raise SpecParseError(s, 0, "expected 'family:parameters'")
    name = s[:colon]
    try:
        family = Family(name)
    except ValueError:
        known = ", ".join(f.value for f in Family)
        raise SpecParseError(s, 0, f"unknown family {name!r}, expected one of: {known}")
    body = s[colon + 1:]
    base = colon + 1
    if not FAMILIES[family].explicit_edges:
        return GraphSpec(family, _parse_int_list(s, base, body))

    semi = body.find(";")
    if semi < 0:
        raise SpecParseError(s, base, "edges spec is 'edges:n;u-v,u-v,...'")
    n = _parse_int(s, base, body[:semi])
    edge_body = body[semi + 1:]
    offset = base + semi + 1
    edges = []
    if edge_body:
        for token in edge_body.split(","):
            dash = token.find("-")
            if dash < 0:
                raise SpecParseError(s, offset, f"expected 'u-v', got {token!r}")
            u = _parse_int(s, offset, token[:dash])
            v = _parse_int(s, offset + dash + 1, token[dash + 1:])
            edges.append((u, v))
            offset += len(token) + 1
    return GraphSpec(family, (n,), tuple(edges))


def parse_composition(text: str) -> Composition:
    s = text.rstrip()
    return _parse_int_list(s, 0, s, low=1)


# -------------------------------------------------------------- commands

def cmd_csf(args) -> int:
    spec = parse_graph_spec(args.graph)
    # the spec has passed its family's rules; the formulas' size cap and
    # the conversion's table budget both come before the graph is built
    x = closed_formula(spec)
    source = "formula"
    if x is None:
        check_conversion_table(spec)
        x = csf_oracle(build_graph(spec))
        source = "oracle"
    if args.format == "json":
        print(json.dumps({
            "spec": render_graph_spec(spec),
            "source": source,
            "csf": to_json_dict(x),
        }))
    elif args.format == "latex":
        print(render_latex(x))
    else:
        print(render_text(x))
    return 0


# Characters in one line of delta's text picture; past it, only the
# JSON output, which holds no picture, is written.
_DELTA_MAX_CELLS = 10_000


def _delta_picture(comp: Composition, b: int) -> list[str]:
    # one cell per vertex of the segments i_1, ..., i_z, i_1, one per bar
    width = sum(comp) + comp[0] + len(comp) + 2
    if width > _DELTA_MAX_CELLS:
        raise ResourceLimitError.capped("delta picture", _DELTA_MAX_CELLS, "cells",
                                        f"this one needs {width}; --format json prints "
                                        "the segments instead")
    d = segment_dissection(comp, b)
    lo, hi = d.window
    z = len(comp)
    cells = []
    marks = []
    for idx, (x, y) in enumerate(d.segments):
        label = str((idx % z + 1) % 10)
        cells.append("|")
        marks.append(" ")
        for unit in range(x + 1, y + 1):
            cells.append(label)
            marks.append("^" if lo < unit <= hi else " ")
    cells.append("|")
    return ["".join(cells), "".join(marks).rstrip()]


def cmd_delta(args) -> int:
    comp = parse_composition(args.composition)
    b = args.b
    n = sum(comp)
    value = chord_weight(comp, b)
    sp = split_params(comp, b)
    d = segment_dissection(comp, b)
    inside = d.window_inside()
    if args.format == "json":
        payload = {
            "composition": list(comp),
            "n": n,
            "b": b,
            "split": {"p": sp.p, "s": sp.s, "q": sp.q, "t": sp.t},
            "segments": [list(seg) for seg in d.segments],
            "window": list(d.window),
            "mode": "inside" if inside else "straddle",
            "delta": value,
        }
        if inside:
            payload["leftovers"] = [d.window[0] - inside[0], inside[1] - d.window[1]]
        else:
            payload["overlaps"] = list(d.overlaps())
        print(json.dumps(payload))
        return 0
    lines = [
        f"composition {','.join(map(str, comp))}   n = {n}   b = {b}",
        f"split: p={sp.p} s={sp.s} q={sp.q} t={sp.t}",
        f"window ({d.window[0]}, {d.window[1]}]",
        *_delta_picture(comp, b),
    ]
    if inside:
        left = d.window[0] - inside[0]
        right = inside[1] - d.window[1]
        lines.append(
            f"window inside ({inside[0]}, {inside[1]}]: "
            f"leftovers {left} * {right}"
        )
    else:
        lines.append(
            "window straddles segments: e2 of overlaps "
            f"({', '.join(map(str, d.overlaps()))})"
        )
    lines.append(f"delta = {value}")
    print("\n".join(lines))
    return 0


def _verify_json(report: VerificationReport) -> dict:
    # timings stay off the wire so identical inputs give identical bytes
    return {
        "spec": render_graph_spec(report.spec),
        "graph": {"n": report.graph.n, "edges": [list(e) for e in report.graph.edges]},
        "oracle": to_json_dict(report.oracle),
        "formula": None if report.formula is None else to_json_dict(report.formula),
        "equal": report.equal,
        "colorings_match": report.colorings_match,
        "e_positive": report.e_positivity.positive,
        "negative_terms": [
            [list(lam), c] for lam, c in report.e_positivity.witnesses
        ],
        "e_positivity_expected": report.e_positivity_expected,
        "passed": report.passed,
    }


def cmd_verify(args) -> int:
    spec = parse_graph_spec(args.graph)
    report = verify(spec)
    if args.format == "json":
        print(json.dumps(_verify_json(report)))
    else:
        graph = report.graph
        print(f"spec: {render_graph_spec(report.spec)}")
        print(f"graph: {graph.n} vertices, {graph.m} edges")
        print(f"oracle: {render_text(report.oracle)}")
        if report.formula is None:
            print("formula: none for this family")
        else:
            print(f"formula: {'agrees with oracle' if report.equal else 'DISAGREES with oracle'}")
        print(f"colorings: {'agree' if report.colorings_match else 'DISAGREE'} for k = 0..{graph.n}")
        if report.e_positivity.positive:
            print("e-positive: yes")
        else:
            worst = report.e_positivity.witnesses[0]
            print(f"e-positive: NO, e.g. coefficient {worst[1]} at {worst[0]}")
        print(f"verdict: {'PASS' if report.passed else 'FAIL'}")
        for phase, seconds in report.timings.items():
            print(f"  {phase}: {seconds:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_scan_theta(args) -> int:
    last_n = None
    for row in scan_theta(args.max_n, checkpoint=args.resume, jobs=args.jobs):
        if row.n != last_n:
            print(f"scanning {row.n}-vertex theta graphs", file=sys.stderr)
            last_n = row.n
        if args.format == "json":
            print(row.to_json())
        else:
            shape = ",".join(map(str, row.min_coeff_shape))
            flag = "yes" if row.e_positive else "NO"
            print(
                f"n={row.n} theta {row.a},{row.b},{row.c}: "
                f"e-positive {flag}, min coeff {row.min_coeff} at {shape}"
            )
    return 0


def cmd_nice(args) -> int:
    spec = parse_graph_spec(args.graph)
    check_stable_vertices(FAMILIES[spec.family].size(spec)[0])
    graph = build_graph(spec)
    ok, witness = is_nice(graph)
    if args.format == "json":
        print(json.dumps({
            "spec": render_graph_spec(spec),
            "nice": ok,
            "witness": None if witness is None else [list(witness[0]), list(witness[1])],
        }))
    else:
        print(f"graph: {render_graph_spec(spec)} ({graph.n} vertices)")
        print(f"nice: {'yes' if ok else 'no'}")
        if witness is not None:
            attained = ",".join(map(str, witness[0]))
            missing = ",".join(map(str, witness[1]))
            print(f"witness: attains {attained} but not the dominated {missing}")
    return 0


def cmd_chrompoly(args) -> int:
    spec = parse_graph_spec(args.graph)
    check_memo_edges(FAMILIES[spec.family].size(spec)[1])
    graph = build_graph(spec)
    counts = [count_proper_colorings(graph, k) for k in range(graph.n + 1)]
    # Python refuses to write an int of more than 4300 digits, to keep
    # parsing hostile input fast, but 1400**1400 has 4405: lift the cap
    # while the counts are written, and write them whole or not at all
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.format == "json":
            text = json.dumps({
                "spec": render_graph_spec(spec),
                "n": graph.n,
                "counts": counts,
            })
        else:
            text = "\n".join([f"graph: {render_graph_spec(spec)} ({graph.n} vertices)",
                              *(f"k={k}: {c}" for k, c in enumerate(counts))])
    finally:
        sys.set_int_max_str_digits(cap)
    print(text)
    return 0


# ---------------------------------------------------------------- parser

def _add_format(sub, *, latex: bool) -> None:
    choices = ["text", "json"] + (["latex"] if latex else [])
    sub.add_argument("--format", choices=choices, default="text",
                     help="output format (default: text)")


def _ascii_int(text: str, low: int) -> int:
    try:
        return _parse_int(text, 0, text, low)
    except SpecParseError as exc:
        raise argparse.ArgumentTypeError(exc.reason) from None


def _positive_int(text: str) -> int:
    return _ascii_int(text, 1)


def _nonnegative_int(text: str) -> int:
    return _ascii_int(text, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromsym",
        description="Exact chromatic symmetric functions in the elementary basis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("csf", help="print a graph's chromatic symmetric function")
    p.add_argument("graph", help="graph spec, e.g. cc:3,3")
    _add_format(p, latex=True)
    p.set_defaults(handler=cmd_csf)

    p = sub.add_parser("delta", help="show the chord-weight computation for a composition")
    p.add_argument("composition", help="comma-separated parts, e.g. 4,2")
    p.add_argument("--b", type=_positive_int, required=True, help="chord distance along the cycle")
    _add_format(p, latex=False)
    p.set_defaults(handler=cmd_delta)

    p = sub.add_parser("verify", help="cross-check formula, oracle, and coloring counts")
    p.add_argument("graph", help="graph spec, e.g. tadpole:5,2")
    _add_format(p, latex=False)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("scan-theta", help="e-positivity scan over theta graphs")
    p.add_argument("--max-n", type=_nonnegative_int, required=True,
                   help="largest vertex count to scan")
    p.add_argument("--resume", metavar="FILE", default=None,
                   help="JSON-lines checkpoint to append to and resume from")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes (default: 1)")
    _add_format(p, latex=False)
    p.set_defaults(handler=cmd_scan_theta)

    p = sub.add_parser("nice", help="check dominance-closure of stable partition shapes")
    p.add_argument("graph", help="graph spec, e.g. glambda:2,2,2,1")
    _add_format(p, latex=False)
    p.set_defaults(handler=cmd_nice)

    p = sub.add_parser("chrompoly", help="proper coloring counts for k = 0..n")
    p.add_argument("graph", help="graph spec")
    _add_format(p, latex=False)
    p.set_defaults(handler=cmd_chrompoly)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left early; point stdout at devnull so the flush at
        # interpreter exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
