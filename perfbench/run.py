"""chromsym benchmark: times the CLI from outside, one fresh process per
request, and checks every output.

    python3 perfbench/run.py --workload formula --seed 1 --seconds 30 --trace 0

--workload is formula, verify, scan, convert, or all.  With --trace 0
the last line of standard output is a JSON object whose metrics are the
end-to-end ones: wall_s, setup_s, peak_rss_mb and success_rate.  The
two timings are scaled to a reference host speed, measured in the same
run by a fixed reference job (calibrate.py).  With --trace 1 each batch
runs once untraced and once traced, and the metrics are the per-layer
ones from the traced spans.  See README.md.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD = HERE / "child.py"
CALIBRATE = HERE / "calibrate.py"
PYTHON = sys.executable

REQUEST_TIMEOUT_S = 60
SETUP_PROBES = 15
SETUP_CODE = "import chromsym.cli as cli; cli.build_parser()"
# The reference job (calibrate.py) measures the host's speed during a
# run.  wall_s is the run's mean batch seconds scaled by REFERENCE_JOB_S /
# (the run's mean seconds of the job from spawn to exit): a ratio of total
# times over the same stretch, so a slowdown of the host weighs the same
# on both sides.  setup_s is the median set-up probe scaled by
# REFERENCE_START_S / (the median of the job's spawn-to-exit time less the
# job's own, i.e. interpreter start and exit): two samples of the same
# short start-up.  Both constants are round figures on the host the
# baseline was measured on, so the metrics read as seconds there.
REFERENCE_JOB_S = 0.15
REFERENCE_START_S = 0.05
# Each request is followed by one set-up probe and one reference job,
# and one more of each for every PROBE_EVERY_S seconds the request took,
# so the probes sample the same stretch of time as the requests.
PROBE_EVERY_S = 2.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

PER_LAYER = {
    "compositions.enumerate_s": "s",
    "compositions.weight_s": "s",
    "compositions.visited": "count",
    "compositions.useful_ratio": "ratio",
    "engine.aggregate_s": "s",
    "engine.oracle_loop_s": "s",
    "engine.oracle_subsets": "count",
    "engine.oracle_calls": "count",
    "engine.scan_self_s": "s",
    "engine.scan_rows_computed": "count",
    "engine.scan_rows_replayed": "count",
    "engine.verify_self_s": "s",
    "symfunc.p_to_e_s": "s",
    "symfunc.p_to_e_calls": "count",
    "symfunc.p_to_e_terms_in": "count",
    "symfunc.p_to_e_terms_out": "count",
    "symfunc.p_to_e_repeat_ratio": "ratio",
    "symfunc.positivity_s": "s",
    "symfunc.render_s": "s",
    "graphs.colorings_s": "s",
    "graphs.colorings_calls": "count",
    "graphs.build_s": "s",
    "cli.self_s": "s",
    "tracing_overhead_s": "s",
}

FORMULA_SPANS = ("engine.closed_formula", "engine.csf_path", "engine.csf_cycle",
                 "engine.csf_tadpole", "engine.csf_cycle_chord")
WEIGHT_SPANS = ("compositions.composition_weight", "compositions.chord_weight",
                "compositions.surplus")
RENDER_SPANS = ("symfunc.render_text", "symfunc.render_latex", "symfunc.to_json_dict")
BUILD_SPANS = ("graphs.build_graph", "graphs.theta_graph")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ------------------------------------------------------------ processes

@dataclass
class Exit:
    wall: float
    rss_mb: float
    code: int | None  # None when killed at the timeout


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """The small process (launcher.py) that starts every request, so each
    child's peak RSS is its own rather than the harness's."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [PYTHON, "-I", "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT,
        )

    def run(self, cmd: list[str], stdout_path: Path, stderr_path: Path,
            timeout: float) -> Exit:
        request = {"cmd": cmd, "stdout": str(stdout_path), "stderr": str(stderr_path),
                   "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchmarkError("the launcher process ended unexpectedly")
        done = json.loads(reply)
        return Exit(done["wall"], done["maxrss_kb"] / 1024, done["code"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


_launcher: Launcher | None = None


def spawn(cmd: list[str], stdout_path: Path, stderr_path: Path,
          timeout: float = REQUEST_TIMEOUT_S) -> Exit:
    """Run cmd to completion, timed from spawn to exit, with the child's
    own peak RSS from wait4.  A child still running at the timeout is
    killed."""
    global _launcher
    if _launcher is None:
        _launcher = Launcher()
        atexit.register(close_launcher)
    return _launcher.run(cmd, stdout_path, stderr_path, timeout)


def close_launcher() -> None:
    global _launcher
    if _launcher is not None:
        _launcher.close()
        _launcher = None


def setup_probe() -> float:
    """Seconds for a fresh interpreter to import chromsym.cli and build
    the parser: what every CLI call pays before doing any work."""
    done = spawn([PYTHON, "-c", SETUP_CODE], WORK / "probe.out", WORK / "probe.err")
    if done.code != 0:
        raise BenchmarkError(f"cannot import chromsym.cli: {_last_line(WORK / 'probe.err')}")
    return done.wall


def host_probe() -> tuple[float, float]:
    """Run the reference job, which does not touch chromsym, in a fresh
    interpreter: how fast the host starts a process and runs Python right
    now.  Returns (seconds from spawn to exit outside the job, seconds of
    the job itself)."""
    done = spawn([PYTHON, str(CALIBRATE)], WORK / "probe.out", WORK / "probe.err")
    if done.code != 0:
        raise BenchmarkError(f"the reference job failed: {_last_line(WORK / 'probe.err')}")
    job = json.loads(_last_line(WORK / "probe.out"))["seconds"]
    return done.wall - job, job


def warm_up() -> None:
    """Compile the bytecode caches once, so no timed request pays for it."""
    setup_probe()
    host_probe()
    spawn([PYTHON, "-m", "chromsym", "--help"], WORK / "probe.out", WORK / "probe.err")
    spawn([PYTHON, str(CHILD), "--help"], WORK / "probe.out", WORK / "probe.err")


def _last_line(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


# ------------------------------------------------------------- requests

@dataclass
class Outcome:
    wall: float
    rss_mb: float
    error: str | None
    trace: dict | None = None
    appended: int = 0


def execute(req: workloads.Request, traced: bool) -> Outcome:
    """Run one request in a fresh process and check its output."""
    if req.prepare is not None:
        req.prepare()
    spans_path = WORK / "spans.json"
    spans_path.unlink(missing_ok=True)
    if req.kind == "cli":
        if traced:
            cmd = [PYTHON, str(CHILD), "cli", "--spans", str(spans_path), "--", *req.argv]
        else:
            cmd = [PYTHON, "-m", "chromsym", *req.argv]
    else:
        cmd = [PYTHON, str(CHILD), "convert", "--input", str(req.input_path),
               "--output", str(req.output_path)]
        if traced:
            cmd += ["--spans", str(spans_path)]
    before = _line_count(req.checkpoint)
    done = spawn(cmd, WORK / "stdout", WORK / "stderr")
    outcome = Outcome(done.wall, done.rss_mb, None)
    if done.code is None:
        outcome.error = f"{req.label}: timed out after {REQUEST_TIMEOUT_S} s"
    elif done.code != 0:
        outcome.error = f"{req.label}: exit {done.code}: {_last_line(WORK / 'stderr')}"
    if outcome.error is not None:
        return outcome
    if req.kind == "cli":
        output = (WORK / "stdout").read_bytes()
    else:
        output = req.output_path.read_bytes()
        outcome.wall = json.loads(output)["seconds"]
    outcome.error = req.check(output)
    outcome.appended = _line_count(req.checkpoint) - before
    if traced:
        outcome.trace = json.loads(spans_path.read_text(encoding="utf-8"))
    return outcome


def _line_count(path: Path | None) -> int:
    if path is None or not path.exists():
        return 0
    return len(path.read_bytes().splitlines())


@dataclass
class Batch:
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(o.wall for o in self.outcomes)


@dataclass
class Probes:
    """Seconds of the set-up probes and of the reference jobs: spawn to
    exit (job) and the part of it outside the job itself (start)."""

    setup: list[float] = field(default_factory=list)
    job: list[float] = field(default_factory=list)
    start: list[float] = field(default_factory=list)

    def sample(self, after: float) -> None:
        """A set-up probe and a reference job, once plus once for every
        PROBE_EVERY_S seconds of the request that just ended."""
        for _ in range(1 + int(after // PROBE_EVERY_S)):
            self.setup.append(setup_probe())
            start, job = host_probe()
            self.start.append(start)
            self.job.append(start + job)


def run_batch(requests: list[workloads.Request], traced: bool,
              probes: Probes | None = None) -> Batch:
    """Run the requests one after another (a closed loop, one client).
    When probes is given, probes follow each request, so they sample
    the same stretch of time as the requests."""
    batch = Batch()
    for req in requests:
        outcome = execute(req, traced)
        batch.outcomes.append(outcome)
        if probes is not None:
            probes.sample(outcome.wall)
    return batch


# -------------------------------------------------------------- metrics

def layer_metrics(batch: Batch) -> dict[str, float]:
    """Per-layer numbers of one traced batch, summed over its requests."""
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    computed = 0
    for o in batch.outcomes:
        for _sid, name, _parent, _start, _end, b, child, n in o.trace["spans"]:
            busy[name] += b
            own[name] += b - child
            calls[name] += n
        counts.update(o.trace["counts"])
        computed += o.appended
    visited = calls["compositions.compositions"]
    terms_in = counts["symfunc.p_to_e_terms_in"]
    return {
        "compositions.enumerate_s": busy["compositions.compositions"],
        "compositions.weight_s": sum(busy[n] for n in WEIGHT_SPANS),
        "compositions.visited": visited,
        "compositions.useful_ratio":
            counts["compositions.partition_of"] / visited if visited else 0.0,
        "engine.aggregate_s": sum(own[n] for n in FORMULA_SPANS),
        "engine.oracle_loop_s": own["engine.csf_oracle"],
        "engine.oracle_subsets": counts["engine.oracle_subsets"],
        "engine.oracle_calls": calls["engine.csf_oracle"],
        "engine.scan_self_s": own["engine.scan_theta"],
        "engine.scan_rows_computed": computed,
        "engine.scan_rows_replayed": calls["engine.scan_theta"] - computed,
        "engine.verify_self_s": own["engine.verify"],
        "symfunc.p_to_e_s": busy["symfunc.p_to_e"],
        "symfunc.p_to_e_calls": calls["symfunc.p_to_e"],
        "symfunc.p_to_e_terms_in": terms_in,
        "symfunc.p_to_e_terms_out": counts["symfunc.p_to_e_terms_out"],
        "symfunc.p_to_e_repeat_ratio":
            counts["symfunc.p_to_e_repeats"] / terms_in if terms_in else 0.0,
        "symfunc.positivity_s": busy["symfunc.is_e_positive"],
        "symfunc.render_s": sum(busy[n] for n in RENDER_SPANS),
        "graphs.colorings_s": busy["graphs.count_proper_colorings"],
        "graphs.colorings_calls": calls["graphs.count_proper_colorings"],
        "graphs.build_s": sum(busy[n] for n in BUILD_SPANS),
        "cli.self_s": own["cli.main"],
    }


def summary(values: list[float]) -> dict:
    """Median with quartiles, mean and the sample count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "mean": statistics.fmean(values),
            "n": len(values)}


def scaled(s: dict, factor: float) -> dict:
    return {k: v if k == "n" else v * factor for k, v in s.items()}


@dataclass
class Result:
    workload: str
    attempted: int
    failed: int
    errors: list[str]
    metrics: dict[str, float]
    spread: dict[str, dict]
    unscaled: dict[str, dict] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    """Repeat the seed's batch while the next one would end less than
    half a batch after `seconds`, then summarise."""
    requests = workloads.build(name, seed, WORK)
    warm_up()
    probes = Probes()
    plain: list[Batch] = []
    traced: list[Batch] = []
    laps: list[float] = []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        plain.append(run_batch(requests, False, None if trace else probes))
        if trace:
            traced.append(run_batch(requests, True))
        laps.append(time.perf_counter() - lap)
        if time.perf_counter() - start + statistics.median(laps) / 2 > seconds:
            break
    if not trace:
        while len(probes.setup) < SETUP_PROBES:
            probes.sample(0.0)

    outcomes = [o for b in plain + traced for o in b.outcomes]
    errors = [o.error for o in outcomes if o.error is not None]
    walls = [b.wall for b in plain]
    unscaled = {"wall_s": summary(walls)}
    if trace:
        spread = dict(unscaled)
        metrics, spread_layers, problems = traced_metrics(plain, traced)
        spread.update(spread_layers)
        errors += problems
    else:
        unscaled["setup_s"] = summary(probes.setup)
        unscaled["reference_job_s"] = summary(probes.job)
        unscaled["reference_start_s"] = summary(probes.start)
        spread = {
            "wall_s": scaled(unscaled["wall_s"],
                             REFERENCE_JOB_S / unscaled["reference_job_s"]["mean"]),
            "setup_s": scaled(unscaled["setup_s"],
                              REFERENCE_START_S / unscaled["reference_start_s"]["median"]),
        }
        metrics = {
            "wall_s": spread["wall_s"]["mean"],
            "setup_s": spread["setup_s"]["median"],
            "peak_rss_mb": max(o.rss_mb for o in outcomes),
            "success_rate": (len(outcomes) - len(errors)) / len(outcomes),
        }
    return Result(name, len(outcomes), sum(o.error is not None for o in outcomes),
                  errors, metrics, spread, unscaled)


def traced_metrics(plain: list[Batch], traced: list[Batch]):
    """Per-layer medians over the traced batches.  Counts must repeat
    exactly from batch to batch; a count that does not is a problem."""
    clean = [b for b in traced if all(o.error is None for o in b.outcomes)]
    if not clean:
        return {name: 0.0 for name in PER_LAYER}, {}, ["no traced batch succeeded"]
    layers = [layer_metrics(b) for b in clean]
    metrics: dict[str, float] = {}
    spread: dict[str, dict] = {}
    problems = []
    for name, unit in PER_LAYER.items():
        if name == "tracing_overhead_s":
            continue
        values = [layer[name] for layer in layers]
        if unit == "count":
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced batches: {values}")
            metrics[name] = values[0]
            continue
        spread[name] = summary(values)
        metrics[name] = spread[name]["median"]
    metrics["tracing_overhead_s"] = (statistics.median(b.wall for b in clean)
                                     - statistics.median(b.wall for b in plain))
    return metrics, spread, problems


# --------------------------------------------------------------- output

def environment() -> dict:
    """What the numbers depend on; compare results only when it matches."""
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: Result, seed: int, trace: bool) -> None:
    units = PER_LAYER if trace else END_TO_END
    print(f"workload {result.workload}  seed {seed}  trace {int(trace)}  "
          f"requests {result.attempted}  failed {result.failed}")
    for name, value in result.metrics.items():
        line = f"  {name:30s} {_fmt(value):>12s} {units[name]}"
        s = result.spread.get(name)
        if s is not None:
            line += f"   (q1 {_fmt(s['q1'])}, q3 {_fmt(s['q3'])}, n={s['n']})"
        print(line)
    if not trace:
        print(f"  unscaled (wall_s above is the mean scaled by {REFERENCE_JOB_S} s / the "
              f"mean reference_job_s, setup_s the median scaled by {REFERENCE_START_S} s / "
              "the median reference_start_s):")
        for name, s in result.unscaled.items():
            print(f"  {name:30s} {_fmt(s['median']):>12s} s   (q1 {_fmt(s['q1'])}, "
                  f"q3 {_fmt(s['q3'])}, mean {_fmt(s['mean'])}, n={s['n']})")
    for error in result.errors[:10]:
        print(f"  error: {error}")


def result_line(results: list[Result], trace: bool) -> str:
    units = PER_LAYER if trace else END_TO_END
    prefix = len(results) > 1
    metrics = {}
    for r in results:
        for name, value in r.metrics.items():
            key = f"{r.workload}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
    return json.dumps({
        "correct": all(r.correct for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chromsym" / "__init__.py").is_file():
        print(f"error: no chromsym sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    try:
        results = [run_workload(n, args.seed, args.seconds, trace) for n in names]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        close_launcher()
    for result in results:
        report(result, args.seed, trace)
    print("environment " + json.dumps(environment()))
    print(result_line(results, trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
