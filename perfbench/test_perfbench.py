"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
Every workload must run and pass its checks in both modes, and every
output checker must reject a deliberately corrupted output.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402
from tracing import LayerClock, RecordingPolicy  # noqa: E402

#: Tiny versions of the catalog's workloads, plus the per-event DES loop
#: (``batch_window=0``), which no catalog workload runs but whose checks
#: stay tested.
TINY = {
    "des_batched": suite.DesWorkload(
        "tiny_des_batched", "tiny", n=2, rate=300.0, horizon=0.2,
        mean_size=0.005, batch_window=0.01,
    ),
    "des_per_event": suite.DesWorkload(
        "tiny_des_per_event", "tiny", n=3, rate=200.0, horizon=0.2,
        mean_size=0.01, batch_window=0.0,
    ),
    "sweep_batched": suite.SweepWorkload(
        "tiny_sweep_batched", "tiny", n=2, flows=10, scenarios=8
    ),
    "exact_bounds": suite.ExactWorkload(
        "tiny_exact_bounds", "tiny", sizes=(3, 4)
    ),
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_and_passes_its_checks(name, trace):
    result = run.measure(TINY[name], seed=3, seconds=0.01, trace=trace)
    assert result["problems"] == []
    assert result["failed"] == 0
    assert result["attempted"] >= 1 + run.MIN_REPS
    expected = suite.PER_LAYER if trace else suite.END_TO_END
    assert set(result["metrics"]) == set(expected)
    if not trace:
        assert all(value > 0 for value in result["metrics"].values())


def test_same_seed_same_inputs_other_seed_other_inputs():
    workload = TINY["des_batched"]
    first = workload.identity(workload.setup(5))
    assert workload.identity(workload.setup(5)) == first
    assert workload.identity(workload.setup(6)) != first


def test_des_checker_rejects_a_dropped_completion():
    workload = TINY["des_per_event"]
    inputs = workload.setup(1)
    result = workload.run(inputs)
    assert oracles.check_des_run(inputs[1], result) == []
    dropped = result._replace(completed=result.completed[1:])
    assert oracles.check_des_run(inputs[1], dropped)
    assert workload.check(inputs, dropped, result)


def test_des_checker_rejects_a_job_faster_than_its_size():
    workload = TINY["des_per_event"]
    inputs = workload.setup(1)
    result = workload.run(inputs)
    done = max(result.completed, key=lambda done: done.job.size)
    early = done._replace(
        duration=done.duration / 2,
        completion_time=done.job.arrival + done.duration / 2,
    )
    completed = [early if d is done else d for d in result.completed]
    problems = oracles.check_des_run(inputs[1], result._replace(completed=completed))
    assert any("faster than their size" in problem for problem in problems)


def test_des_checker_accepts_a_job_below_the_simulator_tolerance():
    from repro.core.topology import ClosNetwork
    from repro.sim.flowsim import simulate
    from repro.sim.jobs import FlowJob
    from repro.sim.policies import MaxMinCongestionControl

    clos = ClosNetwork(2)
    jobs = [
        FlowJob(0, clos.source(1, 1), clos.destination(2, 1), 0.5, 7e-10),
        FlowJob(1, clos.source(1, 2), clos.destination(2, 2), 0.5, 0.25),
    ]
    result = simulate(jobs, MaxMinCongestionControl(clos, backend="streaming"))
    assert oracles.check_des_run(jobs, result) == []


def test_des_checker_rejects_a_perturbed_consult_rate():
    workload = TINY["des_batched"]
    network, jobs = workload.setup(2)
    policy = RecordingPolicy(workload._policy(network))
    workload._simulate(jobs, policy)
    _, active, rates = max(policy.consults, key=lambda consult: len(consult[1]))
    assert oracles.certify_consult(network, active, rates) == []
    victim = next(iter(rates))
    perturbed = dict(rates)
    perturbed[victim] *= 0.999
    assert oracles.certify_consult(network, active, perturbed)


def test_des_checker_rejects_statistics_off_the_record(monkeypatch):
    workload = TINY["des_per_event"]
    inputs = workload.setup(4)
    stats = oracles.des_stats(workload.run(inputs))
    stats["end_time"] *= 1 + 1e-6
    record = {"input_sha256": workload.identity(inputs), "stats": stats}
    monkeypatch.setattr(
        suite, "load_expected", lambda: {workload.name: {"4": record}}
    )
    _, problems = workload.verify(inputs, 4)
    assert any("end_time" in problem for problem in problems)


def test_des_checker_rejects_a_changed_workload_under_a_recorded_name(monkeypatch):
    workload = TINY["des_per_event"]
    inputs = workload.setup(4)
    stats = oracles.des_stats(workload.run(inputs))
    record = {"input_sha256": "0" * 64, "stats": stats}
    monkeypatch.setattr(
        suite, "load_expected", lambda: {workload.name: {"4": record}}
    )
    _, problems = workload.verify(inputs, 4)
    assert any("differ from the recorded" in problem for problem in problems)


def test_sweep_checkers_reject_a_perturbed_rate():
    from repro.core.allocation import Allocation

    workload = TINY["sweep_batched"]
    inputs = workload.setup(0)
    pairs = inputs[1]
    allocations, problems = workload.verify(inputs, 0)
    assert problems == []
    rates = allocations[0].rates()
    victim = next(iter(rates))
    rates[victim] *= 0.999
    corrupted = [Allocation(rates)] + list(allocations[1:])
    assert oracles.certify_scenarios(pairs, corrupted, [0])
    assert oracles.agree_with_exact(pairs, corrupted, [0])
    assert workload.check(inputs, corrupted, allocations)


def test_exact_checker_rejects_a_wrong_fraction():
    from repro.core.allocation import Allocation

    workload = TINY["exact_bounds"]
    inputs = workload.setup(0)
    output, problems = workload.verify(inputs, 0)
    assert problems == []
    instance = inputs[0]
    macro, lex = output[0]
    n = instance.clos.n
    rates = lex.rates()
    (type3,) = instance.types["type3"]
    rates[type3] = Fraction(1, n - 1)
    assert oracles.check_theorem_4_3(instance, macro, Allocation(rates))
    rates = lex.rates()
    rates[instance.types["type1"][0]] = Fraction(1, n + 2)
    corrupted = [(macro, Allocation(rates))] + output[1:]
    assert workload.check(inputs, corrupted, None)


@pytest.mark.parametrize("name, layer", [
    ("des_batched", "streaming.solve"),
    ("des_per_event", "policy.consult"),
    ("sweep_batched", "batched.compile"),
    ("exact_bounds", "quotient.build"),
])
def test_trace_check_rejects_a_layer_the_program_stopped_calling(name, layer):
    from repro import obs

    workload = TINY[name]
    inputs = workload.setup(1)
    clock = LayerClock()
    obs.reset()
    obs.enable()
    try:
        wall, _ = workload.traced(inputs, clock)
        assert run.trace_problems(workload, clock, inputs, wall) == []
        # The entry point skipped: its timer and its counters stay at 0.
        clock.samples[layer].clear()
        assert any(layer in p for p in run.trace_problems(workload, clock, inputs, wall))
        obs.reset()
        assert any(layer in p for p in run.trace_problems(workload, clock, inputs, wall))
    finally:
        obs.disable()
        obs.reset()


def test_benchmark_json_matches_the_suite():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in suite.workloads().items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(suite.workloads())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == suite.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == suite.PER_LAYER


def test_run_fails_cleanly_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "des_batched",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_stop_children_leaves_no_process_behind():
    # A shared-memory block starts multiprocessing's resource tracker,
    # which would outlive the run; a stray child must not survive either.
    script = (
        "import os, sys, time\n"
        "sys.path.insert(0, 'perfbench')\n"
        "from multiprocessing import shared_memory\n"
        "import run\n"
        "block = shared_memory.SharedMemory(create=True, size=16)\n"
        "block.close(); block.unlink()\n"
        "if os.fork() == 0:\n"
        "    time.sleep(60); os._exit(0)\n"
        "assert len(run.child_pids()) == 2, run.child_pids()\n"
        "run.stop_children()\n"
        "assert run.child_pids() == [], run.child_pids()\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
