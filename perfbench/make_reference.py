"""Create the reference outputs under reference/, cross-checking each.

    python3 perfbench/make_reference.py

- reference/digests.json: SHA-256 of the stdout of every csf and verify
  request any seed can pick.  Each csf output is compared with the
  edge-subset oracle (csf_oracle) run in this process; each verify
  output must pass, with its formula, when it has one, equal to its
  oracle.
- reference/scan_rows.jsonl: the stdout of a fresh
  `scan-theta --max-n 15 --format json`.  Each row is recomputed from
  csf_oracle on its theta graph, and a run resumed from the rows with
  n <= 11 must print the same bytes.

Every expansion is also checked against count_proper_colorings for
k = 0..n.  Run it only when the program's output format changes on
purpose; the benchmark compares against these files on every run.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def cli_stdout(argv: list[str]) -> bytes:
    done = run.spawn([run.PYTHON, "-m", "chromsym", *argv],
                     run.WORK / "stdout", run.WORK / "stderr", timeout=600)
    if done.code != 0:
        raise SystemExit(f"{' '.join(argv)}: exit {done.code}")
    return (run.WORK / "stdout").read_bytes()


def fail(message: str) -> None:
    raise SystemExit(f"reference check failed: {message}")


def make_digests() -> dict[str, str]:
    from chromsym import csf_oracle, to_json_dict
    from chromsym.cli import parse_graph_spec
    from chromsym.graphs import build_graph

    digests = {}
    for workload, slots in workloads.pools().items():
        for spec in sorted({s for slot in slots for s in slot}):
            argv = workloads.cli_argv(workload, spec)
            out = cli_stdout(argv)
            problem = workloads.check_cli_output(argv[0], out)
            if problem:
                fail(problem)
            data = json.loads(out)
            if workload == "formula":
                oracle = csf_oracle(build_graph(parse_graph_spec(spec)))
                if data["csf"] != to_json_dict(oracle):
                    fail(f"{spec}: formula output differs from csf_oracle")
            elif data["formula"] is not None and data["equal"] is not True:
                fail(f"{spec}: formula and oracle disagree")
            digests[workloads.argv_key(argv)] = workloads.digest(out)
            print(f"{workloads.argv_key(argv)}  ok", flush=True)
    return digests


def make_scan_rows() -> bytes:
    from chromsym import csf_oracle, is_e_positive, theta_graph, to_json_dict
    from chromsym.graphs import count_proper_colorings

    n_max = workloads.SCAN_MAX_N
    fresh = cli_stdout(["scan-theta", "--max-n", str(n_max), "--format", "json"])
    for line in fresh.splitlines():
        row = json.loads(line)
        graph = theta_graph(row["a"], row["b"], row["c"])
        x = csf_oracle(graph)
        lam, coeff = min(x.sorted_terms(), key=lambda item: (item[1], item[0]))
        if (row["e_positive"], row["min_coeff"], tuple(row["min_coeff_shape"])) != (
                is_e_positive(x).positive, coeff, lam):
            fail(f"scan row {row} differs from csf_oracle")
        terms = to_json_dict(x)["terms"]
        for k in range(graph.n + 1):
            if workloads.e_specialization(terms, k) != count_proper_colorings(graph, k):
                fail(f"scan row {row}: oracle disagrees with the coloring count")
    checkpoint = run.WORK / "reference_resume.jsonl"
    checkpoint.write_bytes(b"".join(
        line for line in fresh.splitlines(keepends=True)
        if json.loads(line)["n"] <= workloads.SCAN_REPLAY_N
    ))
    resumed = cli_stdout(["scan-theta", "--max-n", str(n_max), "--resume",
                          str(checkpoint), "--format", "json"])
    if resumed != fresh:
        fail("resumed scan prints different rows from a fresh scan")
    print(f"scan rows up to n={n_max}: {len(fresh.splitlines())} ok", flush=True)
    return fresh


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    workloads.REFERENCE.mkdir(exist_ok=True)
    workloads.SCAN_ROWS.write_bytes(make_scan_rows())
    digests = make_digests()
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
