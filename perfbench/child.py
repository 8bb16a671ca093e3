"""One benchmark request in a fresh process.

    child.py cli --spans FILE -- ARGV...
        Traced CLI request: wraps chromsym's public functions, runs
        chromsym.cli.main(ARGV) in this process, writes the spans to FILE.
        Standard output is the CLI's own, byte for byte.

    child.py convert --input IN --output OUT [--spans FILE]
        Reads a power-sum function from IN, converts it with
        chromsym.p_to_e, and writes the result and the seconds the call
        took to OUT.  Only the p_to_e call is timed.

The caller puts the program's src directory on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import spans


def run_cli(spans_path: str, argv: list[str]) -> int:
    import chromsym.cli

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return chromsym.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


def run_convert(input_path: str, output_path: str, spans_path: str | None) -> int:
    import chromsym

    with open(input_path, encoding="utf-8") as fh:
        data = json.load(fh)
    f = chromsym.SymFunc(
        chromsym.Basis.POWERSUM, {tuple(lam): c for lam, c in data["terms"]}
    )
    tracer = None
    if spans_path:
        tracer = spans.Tracer()
        spans.install(tracer)
    start = time.perf_counter()
    g = chromsym.p_to_e(f)
    seconds = time.perf_counter() - start
    with open(output_path, "w", encoding="utf-8") as fh:
        json.dump({"seconds": seconds, "csf": chromsym.to_json_dict(g)}, fh)
    if tracer is not None:
        tracer.dump(spans_path)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("convert")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "cli":
        rest = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return run_cli(args.spans, rest)
    return run_convert(args.input, args.output, args.spans)


if __name__ == "__main__":
    sys.exit(main())
