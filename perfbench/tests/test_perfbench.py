"""Self-tests of the benchmark harness, on small instances.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def csf(spec: str, digest: str | None = None) -> workloads.Request:
    return workloads.cli_request(["csf", spec, "--format", "json"], digest)


def verify(spec: str) -> workloads.Request:
    return workloads.cli_request(["verify", spec, "--format", "json"], None)


def test_counts_repeat_exactly():
    requests = [csf("path:8"), verify("cc:3,3"), verify("theta:3,3,2")]
    first = run.layer_metrics(run.run_batch(requests, traced=True))
    second = run.layer_metrics(run.run_batch(requests, traced=True))
    # csf path:8 visits 2**7 compositions and verify cc:3,3 (6 vertices) 2**5;
    # the oracle walks 2**7 subsets of cc:3,3 and 2**8 of theta:3,3,2.
    assert first["compositions.visited"] == 2 ** 7 + 2 ** 5
    assert first["engine.oracle_subsets"] == 2 ** 7 + 2 ** 8
    assert first["engine.oracle_calls"] == 2
    assert first["graphs.colorings_calls"] == 7 + 8
    counts = [name for name, unit in run.PER_LAYER.items() if unit == "count"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_scan_rows_split_into_computed_and_replayed(work_dir):
    import random

    request = workloads.scan_request(random.Random(0), work_dir)
    outcome = run.execute(request, traced=True)
    assert outcome.error is None
    layers = run.layer_metrics(run.Batch([outcome]))
    rows = [json.loads(r) for r in workloads.scan_rows()]
    replayed = sum(1 for r in rows if r["n"] <= workloads.SCAN_REPLAY_N)
    assert layers["engine.scan_rows_replayed"] == replayed
    assert layers["engine.scan_rows_computed"] == len(rows) - replayed
    assert layers["symfunc.p_to_e_repeat_ratio"] > 0.5


@pytest.mark.parametrize("argv", [
    ["csf", "cc:3,3", "--format", "json"],
    ["csf", "tadpole:4,2", "--format", "latex"],
    ["verify", "tadpole:5,2", "--format", "json"],
    ["verify", "glambda:2,2,2,1"],
    ["scan-theta", "--max-n", "7", "--format", "json"],
])
def test_traced_stdout_is_byte_identical(argv, work_dir):
    request = workloads.Request(label=" ".join(argv), kind="cli", argv=argv,
                                check=lambda out: None)
    outputs = []
    for traced in (False, True):
        outcome = run.execute(request, traced)
        assert outcome.error is None
        outputs.append((work_dir / "stdout").read_bytes())
    assert outputs[0]
    assert outputs[0] == outputs[1]


def test_corrupted_output_is_an_error(work_dir):
    good = run.execute(csf("path:6"), traced=False)
    assert good.error is None
    out = (work_dir / "stdout").read_bytes()
    data = json.loads(out)
    data["csf"]["terms"][0][1] += 1
    assert csf("path:6").check(json.dumps(data).encode()) is not None

    wrong = run.execute(csf("path:6", digest="0" * 64), traced=False)
    assert wrong.error is not None and "digest" in wrong.error


def test_corrupted_conversion_is_an_error():
    import random

    p_terms = workloads.convert_input(random.Random(1))[:40]
    from chromsym import Basis, SymFunc, p_to_e, to_json_dict

    e = to_json_dict(p_to_e(SymFunc(Basis.POWERSUM, {tuple(l): c for l, c in p_terms})))
    assert workloads.check_conversion(p_terms, e) is None
    e["terms"][-1][1] += 1
    assert workloads.check_conversion(p_terms, e) is not None


def test_errors_count_against_success_rate(monkeypatch):
    batch = [csf("path:5"), csf("path:5", digest="0" * 64)]
    monkeypatch.setattr(workloads, "build", lambda name, seed, work: batch)
    result = run.run_workload("formula", seed=0, seconds=0, trace=False)
    assert (result.attempted, result.failed) == (2, 1)
    assert result.metrics["success_rate"] == 0.5
    assert not result.correct


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layers = run.layer_metrics(run.Batch())
    assert set(layers) | {"tracing_overhead_s"} == set(run.PER_LAYER)


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "formula", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_peak_rss_is_the_childs_own(work_dir):
    ballast = bytearray(64 * 2 ** 20)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    done = run.spawn([run.PYTHON, "-c", "pass"], work_dir / "out", work_dir / "err")
    assert done.code == 0
    assert done.rss_mb < 40


def test_reference_job_result_is_fixed():
    import calibrate

    assert calibrate.job() == calibrate.CHECKSUM


def test_timings_are_scaled_to_the_reference_speed(monkeypatch):
    monkeypatch.setattr(workloads, "build", lambda name, seed, work: [csf("path:5")])
    monkeypatch.setattr(run, "setup_probe", lambda: 0.1)
    # The host runs at half the reference speed: start-up takes twice
    # REFERENCE_START_S and the whole job twice REFERENCE_JOB_S.
    start = 2 * run.REFERENCE_START_S
    monkeypatch.setattr(run, "host_probe", lambda: (start, 2 * run.REFERENCE_JOB_S - start))
    result = run.run_workload("formula", seed=0, seconds=0, trace=False)
    assert result.correct
    assert result.unscaled["reference_job_s"]["mean"] == pytest.approx(2 * run.REFERENCE_JOB_S)
    assert result.metrics["setup_s"] == pytest.approx(0.05)
    assert result.metrics["wall_s"] == pytest.approx(result.unscaled["wall_s"]["mean"] / 2)
