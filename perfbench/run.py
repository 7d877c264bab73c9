"""pqncheck benchmark: time from launching the CLI to a checked verdict.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every invocation is a fresh ``python -m pqncheck.cli`` process, spawned one at
a time from this process (one client, closed loop: the next invocation starts
when the previous one has exited), because every CLI user pays cold start and
caches must not carry over between invocations.  Each report is checked
against the hand-written table in ``workloads.py``; a crash, a wrong exit code,
a verdict mismatch or a time-limit overrun counts as failed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each invocation
twice, untraced and under ``trace_child.py``, and prints the per-layer metrics.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import TIME_LIMIT_S, WORKLOADS, Invocation, Workload, verdict_problem

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

# Least number of timed set-up probes per run; the reported set-up time is their median.
SETUP_PROBES = 11

END_TO_END_UNITS = {"verdict_s.p50": "s", "verdicts_per_min": "1/min", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_FUNCTIONS = (
    "scalar.arith",
    "scalar.partial",
    "scalar.evaluate",
    "scalar.is_zero",
    "scalar.sample_points",
    "exterior.wedge",
    "exterior.interior",
    "exterior.tensor_interior",
    "exterior.lie_derivative",
    "exterior.pi_sharp",
    "exterior.tensor_matmul",
    "calculus.cartan_d",
    "calculus.nijenhuis_d",
    "calculus.nijenhuis_torsion",
    "calculus.koszul_bracket",
    "calculus.poisson_bracket",
    "structures.check_poisson",
    "structures.check_pqn",
    "structures.deform",
    "structures.trace_invariants",
    "structures.involutivity_matrix",
    "models.build",
    "randgen.random_scalar_field",
    "cli.main",
)


@dataclass
class Outcome:
    wall_s: float
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int
    timed_out: bool


def spawn(args: list[str], limit: float = TIME_LIMIT_S) -> Outcome:
    """Run ``python ARGS`` in the checkout; kill it after ``limit`` seconds.

    The child is reaped with ``os.wait4`` for its own ``ru_maxrss``.  Until
    then it stays at least a zombie, so the kill timer cannot hit a reused pid.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=CHILD_ENV,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    timed_out = threading.Event()

    def kill() -> None:
        timed_out.set()
        os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(limit, kill)
    errors: list[bytes] = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    timer.start()
    reader.start()
    try:
        out = proc.stdout.read()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        raise
    finally:
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    return Outcome(wall, proc.returncode, out, b"".join(errors), usage.ru_maxrss, timed_out.is_set())


@dataclass
class Result:
    invocation: Invocation
    outcome: Outcome
    problem: str | None

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.outcome.stdout).hexdigest()


def run_invocation(invocation: Invocation, spans_path: Path | None = None) -> Result:
    """One CLI invocation, untraced or (with ``spans_path``) under trace_child.py."""
    if spans_path is None:
        args = ["-m", "pqncheck.cli", *invocation.argv]
    else:
        args = [str(BENCH_DIR / "trace_child.py"), str(spans_path), *invocation.argv]
    outcome = spawn(args)
    if outcome.timed_out:
        problem = f"killed after the {TIME_LIMIT_S:g} s time limit"
    else:
        problem = verdict_problem(invocation.command.expected, outcome.returncode, outcome.stdout)
    if problem and outcome.stderr.strip():
        problem += " | " + outcome.stderr.strip().splitlines()[-1].decode(errors="replace")
    return Result(invocation, outcome, problem)


def closed_loop(schedule, seconds: float, step) -> tuple[list, float]:
    """Call ``step`` on scheduled invocations until the next would end past ``seconds``.

    At least one step always runs.
    """
    items, walls = [], []
    start = time.perf_counter()
    for invocation in schedule:
        if walls and time.perf_counter() - start + statistics.median(walls) > seconds:
            break
        began = time.perf_counter()
        items.append(step(invocation))
        walls.append(time.perf_counter() - began)
    return items, time.perf_counter() - start


class SetupProbe:
    """Fresh processes that import pqncheck and build a workload's model bundles.

    The first probe is untimed: it writes the bytecode cache, as any earlier
    CLI run would.  Timed probes run between invocations, so their median
    samples the whole run rather than one moment of it.
    """

    def __init__(self, workload: Workload):
        self.args = [str(BENCH_DIR / "setup_child.py"), *workload.bundles]
        self.walls: list[float] = []
        self.problems: list[str] = []
        self.probe(timed=False)

    def probe(self, timed: bool = True) -> None:
        outcome = spawn(self.args)
        if outcome.returncode != 0 or outcome.timed_out:
            detail = outcome.stderr.decode(errors="replace")[-300:]
            self.problems.append(f"set-up probe exit {outcome.returncode}: {detail}")
        elif timed:
            self.walls.append(outcome.wall_s)


def report_digests(results: list[Result]) -> tuple[dict[str, str], list[str]]:
    """Report SHA-256 per distinct invocation, plus passing repeats whose bytes differ."""
    digests: dict[str, str] = {}
    drift = []
    for result in results:
        if result.problem:
            continue
        label = result.invocation.label
        if digests.setdefault(label, result.digest) != result.digest:
            drift.append(label)
    return digests, drift


def workload_digest(digests: dict[str, str]) -> str:
    lines = "".join(f"{label} {digests[label]}\n" for label in sorted(digests))
    return hashlib.sha256(lines.encode()).hexdigest()


def print_digests(workload: Workload, seed: int, digests: dict[str, str]) -> None:
    complete = {inv.label for inv in workload.cycle(seed)} <= set(digests)
    for label in sorted(digests):
        print(f"  report {digests[label][:16]}  {label}")
    print(
        f"  report_digest {workload_digest(digests)} over {len(digests)} distinct invocations"
        f" ({'full' if complete else 'partial'} cycle)"
    )


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload: Workload, seed: int, seconds: float) -> dict:
    setup = SetupProbe(workload)

    def step(invocation):
        result = run_invocation(invocation)
        setup.probe()
        return result

    results, _ = closed_loop(workload.schedule(seed), seconds, step)
    while len(setup.walls) < SETUP_PROBES and not setup.problems:
        setup.probe()
    if not setup.walls:
        sys.exit("every set-up probe failed: " + "; ".join(setup.problems))
    digests, drift = report_digests(results)
    problems = [f"{r.invocation.label}: {r.problem}" for r in results if r.problem]
    problems += [f"{label}: report bytes differ between repeats" for label in drift]
    walls = [r.outcome.wall_s for r in results]
    passed = sum(1 for r in results if not r.problem)
    metrics = {
        "verdict_s.p50": statistics.median(walls),
        "verdicts_per_min": passed * 60.0 / sum(walls),
        "setup_s": statistics.median(setup.walls),
        "peak_rss_mb": max(r.outcome.maxrss_kb for r in results) / 1024.0,
    }
    samples = dict.fromkeys(metrics, len(walls)) | {"setup_s": len(setup.walls)}
    print(f"workload {workload.name} seed {seed}: {len(results)} invocations, closed loop, one client")
    for name, value in metrics.items():
        print(f"  {name:18s} {value:12.4f} {END_TO_END_UNITS[name]:6s} (n={samples[name]})")
    print(f"  {'failed_share':18s} {len(problems) / len(results):12.4f} {'ratio':6s} (n={len(results)})")
    print_digests(workload, seed, digests)
    metrics = {name: metric(value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    return finish(problems + setup.problems, len(results), len(problems), metrics)


def layer_totals(trace: dict) -> tuple[dict[str, list[int]], int]:
    """Per span name ``[calls, self_ns]``, and the summed duration of root spans.

    Self time is a span's duration minus the durations of its direct children;
    spans nest properly in one thread, so those children never overlap.
    """
    names, spans = trace["names"], trace["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {name: [0, 0] for name in names}
    root_ns = 0
    for (index, start, end, parent), inner in zip(spans, child_ns):
        entry = totals[names[index]]
        entry[0] += 1
        entry[1] += end - start - inner
        if parent < 0:
            root_ns += end - start
    return totals, root_ns


def structural_counts(report: dict) -> tuple[int, int]:
    """(symbolic, all) over a report's entries and involutivity cells."""
    modes = [entry["mode"] for entry in report.get("entries", [])]
    modes += [cell["mode"] for cell in report.get("matrix", {}).get("cells", {}).values()]
    return sum(1 for mode in modes if mode == "symbolic"), len(modes)


@dataclass
class TracedPair:
    untraced: Result
    traced: Result
    trace: dict | None

    @property
    def traced_problem(self) -> str | None:
        if self.traced.problem is None and self.untraced.digest != self.traced.digest:
            return "traced report differs from the untraced one"
        if self.traced.problem is None and self.trace is None:
            return "trace child wrote no spans"
        return self.traced.problem

    @property
    def problems(self) -> list[str]:
        label = self.untraced.invocation.label
        found = [("untraced", self.untraced.problem), ("traced", self.traced_problem)]
        return [f"{label} ({kind}): {problem}" for kind, problem in found if problem]


def traced_pair(invocation: Invocation, untraced_first: bool = True) -> TracedPair:
    WORK_DIR.mkdir(exist_ok=True)
    spans_path = WORK_DIR / f"spans-{os.getpid()}.json"
    spans_path.unlink(missing_ok=True)
    if untraced_first:
        untraced = run_invocation(invocation)
        traced = run_invocation(invocation, spans_path)
    else:
        traced = run_invocation(invocation, spans_path)
        untraced = run_invocation(invocation)
    trace = None
    if spans_path.exists():
        with open(spans_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        spans_path.unlink()
    return TracedPair(untraced, traced, trace)


def layer_metrics(pairs: list[TracedPair]) -> dict[str, dict]:
    """Per-layer metrics over the traced pairs; calls and times are per invocation."""
    count = len(pairs)
    calls = dict.fromkeys(LAYER_FUNCTIONS, 0)
    self_ns = dict.fromkeys(LAYER_FUNCTIONS, 0)
    counters: dict[str, int] = {}
    symbolic = decided = 0
    for pair in pairs:
        if pair.trace is not None:
            totals, _ = layer_totals(pair.trace)
            for name in LAYER_FUNCTIONS:
                calls[name] += totals[name][0]
                self_ns[name] += totals[name][1]
            for key, value in pair.trace["counters"].items():
                counters[key] = counters.get(key, 0) + value
        try:
            s, a = structural_counts(json.loads(pair.traced.outcome.stdout))
        except ValueError:
            continue
        symbolic += s
        decided += a
    out = {}
    for name in LAYER_FUNCTIONS:
        out[f"{name}.calls"] = metric(calls[name] / count, "count")
        out[f"{name}.self_s"] = metric(self_ns[name] / count / 1e9, "s")
    results = counters.get("scalar.arith.results", 0)
    out["scalar.arith.result_terms_mean"] = metric(counters.get("scalar.arith.result_terms", 0) / max(results, 1), "terms")
    out["scalar.is_zero.samples"] = metric(counters.get("scalar.is_zero.samples", 0) / count, "count")
    out["structures.structural_share"] = metric(symbolic / max(decided, 1), "ratio")
    overhead = [p.traced.outcome.wall_s / p.untraced.outcome.wall_s - 1 for p in pairs]
    out["trace.overhead_share"] = metric(statistics.median(overhead), "ratio")
    return out


def traced_run(workload: Workload, seed: int, seconds: float) -> dict:
    order = itertools.cycle((True, False))

    def step(invocation):
        return traced_pair(invocation, untraced_first=next(order))

    try:
        pairs, loop_wall = closed_loop(workload.schedule(seed), seconds, step)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    problems = [problem for pair in pairs for problem in pair.problems]
    metrics = layer_metrics(pairs)
    print(f"workload {workload.name} seed {seed}: {len(pairs)} traced/untraced pairs in {loop_wall:.1f} s")
    for name, value in metrics.items():
        print(f"  {name:42s} {value['value']:14.6f} {value['unit']}")
    print_digests(workload, seed, report_digests([p.untraced for p in pairs])[0])
    return finish(problems, 2 * len(pairs), len(problems), metrics)


def finish(problems: list[str], attempted: int, failed: int, metrics: dict) -> dict:
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so spawn() kills the running child on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "pqncheck" / "cli.py").is_file():
        print(f"no pqncheck sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    result = run(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
