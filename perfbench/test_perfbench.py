"""Tests of the benchmark's own code: verdict table, layer predictions, failure gate.

Run from the repository root with ``python -m pytest perfbench``.  Each
distinct workload command runs once untraced and once traced, and again at
two more seeds, which takes about two minutes.
"""

import dataclasses
import json
import math
import shutil
import sys

import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))
import trace_child  # noqa: E402  (needs pqncheck importable)
from workloads import WORKLOADS, Command, Expected, Invocation, verdict_problem

# Per-layer metrics each workload is predicted to move: nonzero there.
MOVES = {
    "toda-pqn": [
        *(f"{name}.{kind}" for kind in ("calls", "self_s") for name in (
            "scalar.arith",
            "scalar.partial",
            "exterior.wedge",
            "exterior.interior",
            "exterior.tensor_interior",
            "exterior.lie_derivative",
            "exterior.pi_sharp",
            "calculus.cartan_d",
            "calculus.nijenhuis_d",
            "calculus.nijenhuis_torsion",
            "calculus.koszul_bracket",
            "structures.check_poisson",
            "structures.check_pqn",
            "structures.deform",
            "models.build",
            "randgen.random_scalar_field",
            "cli.main",
        )),
        "scalar.arith.result_terms_mean",
    ],
    "sampled-scan": [
        *(f"{name}.{kind}" for kind in ("calls", "self_s") for name in (
            "scalar.evaluate",
            "scalar.is_zero",
            "scalar.sample_points",
            "exterior.tensor_matmul",
            "calculus.poisson_bracket",
            "structures.trace_invariants",
            "structures.involutivity_matrix",
            "models.build",
            "cli.main",
        )),
        "scalar.is_zero.samples",
        "structures.structural_share",
    ],
}

# Layers whose self time is predicted to be the majority of traced time.
DOMINANT = {
    "toda-pqn": ("scalar.arith", "scalar.partial"),
    "sampled-scan": ("scalar.is_zero", "scalar.evaluate"),
}


@pytest.fixture(scope="module")
def traced():
    """Per workload, one untraced/traced pair for each distinct command."""
    out = {}
    try:
        for name, workload in WORKLOADS.items():
            first = {}
            for invocation in workload.cycle(seed=1):
                first.setdefault(invocation.command, invocation)
            out[name] = [run.traced_pair(invocation) for invocation in first.values()]
    finally:
        shutil.rmtree(run.WORK_DIR, ignore_errors=True)
    return out


def test_expected_verdicts_hold_and_traced_reports_match(traced):
    for name, pairs in traced.items():
        for pair in pairs:
            assert pair.problems == [], name


def test_benchmark_json_lists_the_emitted_metrics(traced):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    emitted = run.layer_metrics(traced["sampled-scan"])
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {k: v["unit"] for k, v in emitted.items()}
    assert set(run.LAYER_FUNCTIONS) == {*trace_child.FUNCTIONS, *trace_child.METHODS}
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("seed", [7, 99])
def test_expected_verdicts_hold_at_other_seeds(seed):
    commands = {command for workload in WORKLOADS.values() for command in workload.commands}
    for command in sorted(commands, key=lambda c: c.args):
        result = run.run_invocation(Invocation(command, seed))
        assert result.problem is None, (result.invocation.label, result.problem)


@pytest.mark.parametrize("name", sorted(MOVES))
def test_layer_metrics_nonzero_where_predicted(traced, name):
    metrics = run.layer_metrics(traced[name])
    assert set(metrics) >= set(MOVES[name])
    assert [m for m in MOVES[name] if not metrics[m]["value"] > 0] == []
    # A few percent at most: below the run-to-run noise of a single pair.
    assert math.isfinite(metrics["trace.overhead_share"]["value"])


def test_bypassed_layers_make_no_calls(traced):
    scan = run.layer_metrics(traced["sampled-scan"])
    assert scan["calculus.koszul_bracket.calls"]["value"] == 0
    assert scan["calculus.nijenhuis_d.calls"]["value"] == 0
    toda = traced["toda-pqn"]
    assert run.layer_metrics(toda)["structures.trace_invariants.calls"]["value"] == 0
    checks = [p for p in toda if p.untraced.invocation.command.args[0] == "check"]
    assert len(checks) == 2
    for pair in checks:
        totals, _ = run.layer_totals(pair.trace)
        assert totals["scalar.is_zero"][0] == 0


@pytest.mark.parametrize("name", sorted(DOMINANT))
def test_predicted_layers_dominate_traced_time(traced, name):
    dominant = traced_ns = 0
    for pair in traced[name]:
        totals, root_ns = run.layer_totals(pair.trace)
        dominant += sum(totals[layer][1] for layer in DOMINANT[name])
        traced_ns += root_ns
    assert dominant > traced_ns / 2


def test_wrong_expected_verdict_counts_as_failed():
    scan = WORKLOADS["sampled-scan"]
    wrong = Command(scan.commands[0].args, Expected(nonzero_pairs=frozenset({(1, 2)})))
    result = run.timed_run(dataclasses.replace(scan, commands=(wrong,)), seed=1, seconds=0)
    assert result["attempted"] == 1
    assert result["failed"] == 1
    assert result["correct"] is False


def test_verdict_problem_flags_crash_and_mismatch():
    expected = Expected(classification="PqN")
    good = b'{"overall": "pass", "classification": "PqN"}'
    assert verdict_problem(expected, 0, good) is None
    assert "exit code" in verdict_problem(expected, 1, good)
    assert "not JSON" in verdict_problem(expected, 0, b"Traceback")
    assert "classification" in verdict_problem(expected, 0, b'{"overall": "pass", "classification": "PN"}')


def test_time_limit_kills_the_child():
    outcome = run.spawn(["-c", "import time; time.sleep(30)"], limit=0.5)
    assert outcome.timed_out
    assert outcome.wall_s < 5


def test_self_time_subtracts_direct_children():
    trace = {
        "names": ["outer", "inner"],
        # outer [0, 100] holds inner [10, 40] and inner [50, 60]; inner [20, 30] nests in the first.
        "spans": [[0, 0, 100, -1], [1, 10, 40, 0], [1, 20, 30, 1], [1, 50, 60, 0]],
    }
    totals, root_ns = run.layer_totals(trace)
    assert totals == {"outer": [1, 60], "inner": [3, 40]}
    assert root_ns == 100
