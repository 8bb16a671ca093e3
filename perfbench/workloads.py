"""The four workloads: which requests a seed picks, and how each output
is checked.

The seed picks instances of a fixed size from small pools, so the work
per request depends on the size, not on the seed.  Every instance in
every pool has a reference digest of its exact output under
reference/, created and cross-checked by make_reference.py.

Checks run outside the timed region.  A check returns None when the
output is correct and a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
DIGESTS = REFERENCE / "digests.json"
SCAN_ROWS = REFERENCE / "scan_rows.jsonl"

WORKLOADS = ("formula", "verify", "scan", "convert")

# formula: every request enumerates the 2**19 compositions of 20.
FORMULA_N = 20
# verify: the oracle walks 2**17 or 2**18 edge subsets per request.
# scan: rows up to SCAN_REPLAY_N are replayed from the checkpoint.
SCAN_MAX_N = 15
SCAN_REPLAY_N = 11
# convert: a power-sum function on every partition of CONVERT_N.
CONVERT_N = 22
CONVERT_MAX_COEFF = 999


def _thetas(edges: int, paths: int, shortest: int) -> list[str]:
    """Theta/glambda specs with the given path count and edge count,
    every path at least `shortest` long, parts weakly decreasing."""
    family = "theta" if paths == 3 else "glambda"
    out = []

    def extend(prefix: list[int], left: int, slots: int) -> None:
        if slots == 0:
            if left == 0:
                out.append(f"{family}:" + ",".join(map(str, prefix)))
            return
        top = min(prefix[-1] if prefix else left, left - shortest * (slots - 1))
        for part in range(top, shortest - 1, -1):
            extend(prefix + [part], left - part, slots - 1)

    extend([], edges, paths)
    return out


def pools() -> dict[str, list[list[str]]]:
    """Per workload, one list of specs per batch slot; a seed picks one
    spec from each slot."""
    n = FORMULA_N
    return {
        "formula": [
            [f"path:{n}"],
            [f"cycle:{n}"],
            [f"tadpole:{m},{n - m}" for m in range(3, n - 1)],
            [f"cc:{a},{n - a}" for a in range(2, n - 1)],
        ],
        "verify": [
            _thetas(17, 3, 4),
            _thetas(18, 3, 4),
            _thetas(18, 4, 3),
            [f"cc:{a},{17 - a}" for a in range(2, 16)],
            [f"tadpole:{m},{18 - m}" for m in range(3, 17)],
        ],
    }


def cli_argv(workload: str, spec: str) -> list[str]:
    command = "csf" if workload == "formula" else "verify"
    return [command, spec, "--format", "json"]


def argv_key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Request:
    """One request of a batch.

    kind is "cli" (argv is run as `python -m chromsym ARGV`) or
    "convert" (input_path is converted by child.py into output_path).
    check gets the request's output bytes: the CLI's stdout, or the
    convert output file.
    """

    label: str
    kind: str
    check: Callable[[bytes], str | None]
    argv: list[str] = field(default_factory=list)
    prepare: Callable[[], None] | None = None
    input_path: Path | None = None
    output_path: Path | None = None
    checkpoint: Path | None = None


def build(workload: str, seed: int, work: Path) -> list[Request]:
    """The batch of requests the seed picks for a workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("formula", "verify"):
        digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
        requests = []
        for slot in pools()[workload]:
            argv = cli_argv(workload, rng.choice(slot))
            want = digests[argv_key(argv)]
            requests.append(cli_request(argv, want))
        return requests
    if workload == "scan":
        return [scan_request(rng, work)]
    if workload == "convert":
        return [convert_request(rng, work)]
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------ csf, verify

def cli_request(argv: list[str], want_digest: str | None) -> Request:
    """A csf or verify request.  want_digest None skips the digest
    comparison and keeps the specialization check."""

    def check(out: bytes) -> str | None:
        if want_digest is not None and digest(out) != want_digest:
            return f"{argv_key(argv)}: output differs from the reference digest"
        return check_cli_output(argv[0], out)

    return Request(label=argv_key(argv), kind="cli", argv=argv, check=check)


def e_specialization(terms, k: int) -> int:
    """Principal specialization of an e-basis term list at k ones."""
    total = 0
    for lam, c in terms:
        v = c
        for part in lam:
            v *= comb(k, part)
        total += v
    return total


def check_cli_output(command: str, out: bytes) -> str | None:
    """Principal specialization of each expansion in a csf or verify
    output equals the coloring count for k = 0..n."""
    from chromsym.cli import parse_graph_spec
    from chromsym.graphs import build_graph, count_proper_colorings

    try:
        data = json.loads(out)
        graph = build_graph(parse_graph_spec(data["spec"]))
        if command == "csf":
            expansions = {"csf": data["csf"]}
        else:
            if data["passed"] is not True:
                return f"{data['spec']}: verify did not pass"
            expansions = {"oracle": data["oracle"]}
            if data["formula"] is not None:
                expansions["formula"] = data["formula"]
        for name, x in expansions.items():
            if x["basis"] != "e":
                return f"{data['spec']}: {name} is not in the e basis"
            for k in range(graph.n + 1):
                if e_specialization(x["terms"], k) != count_proper_colorings(graph, k):
                    return f"{data['spec']}: {name} disagrees with the coloring count at k={k}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable {command} output: {exc!r}"
    return None


# -------------------------------------------------------------------- scan

def scan_rows() -> list[bytes]:
    return SCAN_ROWS.read_bytes().splitlines(keepends=True)


def scan_request(rng: random.Random, work: Path) -> Request:
    """scan-theta --max-n 15 resuming from a checkpoint that holds the
    reference rows with n <= 11, in an order the seed shuffles."""
    rows = scan_rows()
    replayed = [r for r in rows if json.loads(r)["n"] <= SCAN_REPLAY_N]
    rng.shuffle(replayed)
    checkpoint = work / "scan_resume.jsonl"

    def prepare() -> None:
        checkpoint.write_bytes(b"".join(replayed))

    def check(out: bytes) -> str | None:
        if out.splitlines(keepends=True) != rows:
            return "scan rows differ from the reference rows"
        saved = checkpoint.read_bytes().splitlines(keepends=True)
        if sorted(saved) != sorted(rows):
            return "scan checkpoint differs from the reference rows"
        return None

    argv = ["scan-theta", "--max-n", str(SCAN_MAX_N), "--resume", str(checkpoint),
            "--format", "json"]
    return Request(label=f"scan-theta --max-n {SCAN_MAX_N} (resume n<={SCAN_REPLAY_N})",
                   kind="cli", argv=argv, check=check, prepare=prepare,
                   checkpoint=checkpoint)


# ----------------------------------------------------------------- convert

def partitions(n: int, largest: int | None = None):
    """All partitions of n, generated here rather than by the program."""
    largest = n if largest is None else min(largest, n)
    if n == 0:
        yield ()
        return
    for first in range(largest, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def convert_input(rng: random.Random) -> list[list]:
    return [
        [list(lam), rng.choice((-1, 1)) * rng.randint(1, CONVERT_MAX_COEFF)]
        for lam in partitions(CONVERT_N)
    ]


def convert_request(rng: random.Random, work: Path) -> Request:
    p_terms = convert_input(rng)
    input_path = work / "convert_in.json"
    output_path = work / "convert_out.json"
    input_path.write_text(json.dumps({"basis": "p", "terms": p_terms}), encoding="utf-8")

    def prepare() -> None:
        output_path.unlink(missing_ok=True)

    def check(out: bytes) -> str | None:
        try:
            x = json.loads(out)["csf"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable convert output: {exc}"
        return check_conversion(p_terms, x)

    return Request(label=f"p_to_e on all partitions of {CONVERT_N}", kind="convert",
                   check=check, prepare=prepare, input_path=input_path,
                   output_path=output_path)


def check_conversion(p_terms, e_result: dict) -> str | None:
    """The e-basis result equals the p-basis input: at k ones for
    k = 0..n, and at two fixed integer points with n coordinates."""
    if e_result.get("basis") != "e":
        return "convert output is not in the e basis"
    e_terms = e_result["terms"]
    for k in range(CONVERT_N + 1):
        if sum(c * k ** len(lam) for lam, c in p_terms) != e_specialization(e_terms, k):
            return f"convert output disagrees with its input at k={k} ones"
    points = random.Random(CONVERT_N)
    for _ in range(2):
        x = [points.randint(-9, 9) for _ in range(CONVERT_N)]
        if _evaluate_p(p_terms, x) != _evaluate_e(e_terms, x):
            return f"convert output disagrees with its input at x={x}"
    return None


def _evaluate_p(terms, x: list[int]) -> int:
    power = [sum(v ** k for v in x) for k in range(CONVERT_N + 1)]
    total = 0
    for lam, c in terms:
        for part in lam:
            c *= power[part]
        total += c
    return total


def _evaluate_e(terms, x: list[int]) -> int:
    elem = [1] + [0] * CONVERT_N
    for v in x:
        for k in range(CONVERT_N, 0, -1):
            elem[k] += v * elem[k - 1]
    total = 0
    for lam, c in terms:
        for part in lam:
            c *= elem[part]
        total += c
    return total
