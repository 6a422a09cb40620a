"""The benchmark's workloads, their output checks and their layer traces.

Each workload builds its inputs from a seed (:meth:`Workload.setup`),
runs one repetition through the program's public entry points with the
options the ``churn`` and E4 experiments use (:meth:`Workload.run`), checks
outputs outside the timed region (:meth:`Workload.verify` once with the
oracles, :meth:`Workload.check` on every repetition) and, for the
traced run, times one repetition layer by layer (:meth:`Workload.traced`).

Each workload's inputs, sizes and seed use are in ``README.md``; why it
was chosen and which layers it stresses and bypasses are in its ``why``,
``stresses`` and ``bypasses`` attributes (``run.py`` prints them), and
``why`` is also the workload's ``why`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import statistics
import time
from fractions import Fraction
from typing import Dict, List, Tuple

import oracles
from tracing import LayerClock, RecordingPolicy, TimedPolicy

HERE = os.path.dirname(os.path.abspath(__file__))
#: DES statistics recorded per workload and seed by ``record.py``.
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: End-to-end metrics: name -> unit (bounds live in BENCHMARK.json).
END_TO_END = {
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics of the traced run: name -> unit.  A workload that
#: bypasses a layer reports 0 for it.
PER_LAYER = {
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.policy_consultations": "count",
    "sim.resolve_skipped": "count",
    "sim.batch_size_p50": "count",
    "sim.queue_peak": "count",
    "policy.consult_s": "s",
    "policy.consult_ms_p50": "ms",
    "policy.consult_ms_tail": "ms",
    "policy.consult_tail_pct": "%",
    "policy.admit_s": "s",
    "policy.forget_s": "s",
    "streaming.solve_s": "s",
    "solver.stream.patched": "count",
    "solver.stream.fullsolve": "count",
    "solver.stream.recompiles": "count",
    "streaming.patch_ratio": "ratio",
    "batched.compile_s": "s",
    "batched.waterfill_s": "s",
    "batched.assemble_s": "s",
    "batched.rounds": "count",
    "vectorized.compiles": "count",
    "batched.incidence_bytes": "B-computed",
    "parallel.jobs2_s": "s",
    "parallel.speedup": "x",
    "quotient.build_s": "s",
    "quotient.fill_s": "s",
    "objectives.macro_s": "s",
    "solve.dispatch_s": "s",
    "workloads.routing_s": "s",
    "quotient.flow_classes": "count",
    "quotient.link_classes": "count",
    "quotient.refinement_rounds": "count",
    "workloads.generate_s": "s",
    "obs.overhead_ratio": "ratio",
    "trace.wall_s": "s",
}


def digest(parts) -> str:
    """SHA-256 over the ``repr`` of each part, newline separated."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(repr(part).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _counter(name: str):
    from repro import obs

    return obs.metrics().counter(name).value


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1]


def tail_percentile(count: int) -> float:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it
    (p50 when there are too few samples for any of them)."""
    for pct in (99.9, 99.0, 90.0):
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = ""
    #: One line: why this workload is in the benchmark.
    why = ""
    #: Layers whose cost this workload exposes, and layers it never runs.
    stresses: Tuple[str, ...] = ()
    bypasses: Tuple[str, ...] = ()
    #: What ``items_per_s`` counts.
    item = ""

    def params(self) -> Dict[str, object]:
        """The size parameters (part of the workload's identity)."""
        raise NotImplementedError

    def setup(self, seed: int):
        """Build the inputs for ``seed`` (timed as ``setup_s``)."""
        raise NotImplementedError

    def generate_s(self, seed: int) -> float:
        """Time spent inside :mod:`repro.workloads` by :meth:`setup`."""
        raise NotImplementedError

    def identity(self, inputs) -> str:
        """Content hash of the parameters and the generated inputs."""
        raise NotImplementedError

    def run(self, inputs):
        """One timed repetition; returns its output."""
        raise NotImplementedError

    def items(self, inputs, output) -> int:
        raise NotImplementedError

    def verify(self, inputs, seed: int) -> Tuple[object, List[str]]:
        """Untimed warm-up repetition checked by the oracles.

        Returns the output (the reference later repetitions must match)
        and the problems found.
        """
        raise NotImplementedError

    def check(self, inputs, output, reference) -> List[str]:
        """Cheap check of one timed repetition against the reference."""
        raise NotImplementedError

    def traced(self, inputs, clock: LayerClock) -> Tuple[float, object]:
        """One repetition with layer timers in place: ``(wall, output)``."""
        raise NotImplementedError

    def layer_metrics(self, clock: LayerClock, inputs) -> Dict[str, float]:
        """Per-layer metrics from a traced repetition's clock and counters."""
        raise NotImplementedError

    def expected_calls(self, inputs) -> Dict[str, int]:
        """How many calls each timed layer must have seen in a traced
        repetition, taken from the program's own counters.  A layer whose
        entry point the program stopped calling then fails the run
        instead of quietly reporting 0."""
        raise NotImplementedError

    def extra_traced(self, inputs, reference, untraced: float):
        """Further per-layer measurements with tracing off, given the
        median untraced repetition in reference seconds: ``(metrics,
        problems)``."""
        return {}, []


# ----------------------------------------------------------------------
# DES workloads
# ----------------------------------------------------------------------
class DesWorkload(Workload):
    """A churn workload through the flow-level simulator."""

    item = "flow events (arrivals + completions)"
    stresses = ("repro.sim", "repro.sim.policies", "repro.core.streaming")
    bypasses = ("repro.core.batched", "repro.core.quotient", "repro.parallel")

    def __init__(
        self,
        name: str,
        why: str,
        n: int,
        rate: float,
        horizon: float,
        mean_size: float,
        batch_window: float,
    ) -> None:
        self.name = name
        self.why = why
        self.n = n
        self.rate = rate
        self.horizon = horizon
        self.mean_size = mean_size
        self.batch_window = batch_window

    def params(self):
        return {
            "n": self.n,
            "rate": self.rate,
            "horizon": self.horizon,
            "mean_size": self.mean_size,
            "batch_window": self.batch_window,
            "backend": "streaming",
            "loop": "simulate_stream" if self.batch_window else "simulate",
        }

    def _jobs(self, network, seed):
        from repro.workloads.stochastic import churn_workload

        return churn_workload(
            network,
            rate=self.rate,
            horizon=self.horizon,
            mean_size=self.mean_size,
            seed=seed,
        )

    def setup(self, seed):
        from repro.core.topology import ClosNetwork

        network = ClosNetwork(self.n)
        return network, self._jobs(network, seed)

    def generate_s(self, seed):
        from repro.core.topology import ClosNetwork

        network = ClosNetwork(self.n)
        start = time.perf_counter()
        self._jobs(network, seed)
        return time.perf_counter() - start

    def identity(self, inputs):
        _, jobs = inputs
        return digest([self.name, sorted(self.params().items())] + list(jobs))

    def _simulate(self, jobs, policy, engine="auto"):
        from repro.sim.flowsim import simulate
        from repro.sim.stream import simulate_stream

        if self.batch_window:
            return simulate_stream(
                jobs, policy, batch_window=self.batch_window, engine=engine
            )
        return simulate(jobs, policy, engine=engine)

    def _policy(self, network, backend="streaming"):
        from repro.sim.policies import MaxMinCongestionControl

        return MaxMinCongestionControl(network, backend=backend)

    def run(self, inputs):
        network, jobs = inputs
        return self._simulate(jobs, self._policy(network))

    def items(self, inputs, output):
        return len(inputs[1]) + len(output.completed)

    def expected_stats(self, inputs, seed) -> Tuple[Dict, List[str]]:
        """The statistics this seed must reproduce.

        Taken from ``expected.json`` when the seed was recorded (after
        checking the recorded input hash, so a changed workload cannot
        reuse the record); otherwise computed now by the object event
        loop with the heap policy — a different engine and a different
        water-filling algorithm from the configuration under test — in a
        child process, so that its memory never shows in this process's
        peak RSS.
        """
        record = load_expected().get(self.name, {}).get(str(seed))
        if record is not None:
            if record["input_sha256"] != self.identity(inputs):
                return {}, [
                    f"inputs for seed {seed} differ from the recorded ones; "
                    "re-record expected.json (python3 perfbench/record.py)"
                ]
            return record["stats"], []
        return in_child(self.reference_stats, inputs), []

    def reference_stats(self, inputs) -> Dict:
        """Statistics of the object event loop with the heap policy."""
        network, jobs = inputs
        reference = self._simulate(
            jobs, self._policy(network, backend="heap"), engine="object"
        )
        return oracles.des_stats(reference)

    def verify(self, inputs, seed):
        network, jobs = inputs
        policy = RecordingPolicy(self._policy(network))
        result = self._simulate(jobs, policy)
        problems = oracles.check_des_run(jobs, result)
        want, stale = self.expected_stats(inputs, seed)
        problems += stale
        problems += oracles.compare_stats(
            oracles.des_stats(result), want, "recorded statistics"
        )
        consults = policy.consults
        for _, active, rates in consults:
            problems += oracles.certify_consult(network, active, rates)
        if not consults:
            problems.append("the policy was never consulted")
        return result, problems

    def check(self, inputs, output, reference):
        problems = oracles.check_des_run(inputs[1], output)
        problems += oracles.compare_stats(
            oracles.des_stats(output),
            oracles.des_stats(reference),
            "repeat of the checked run",
        )
        return problems

    def traced(self, inputs, clock):
        from repro.core.streaming import StreamingMaxMin

        network, jobs = inputs
        with clock.patch(StreamingMaxMin, "solve", "streaming.solve"):
            start = time.perf_counter()
            policy = TimedPolicy(self._policy(network), clock)
            output = clock.call("sim", self._simulate, jobs, policy)
            wall = time.perf_counter() - start
        return wall, output

    def layer_metrics(self, clock, inputs):
        from repro import obs

        registry = obs.metrics()
        consults = [s * 1e3 for s in clock.samples["policy.consult"]]
        tail = tail_percentile(len(consults))
        patched = _counter("solver.stream.patched")
        full = _counter("solver.stream.fullsolve")
        batch_p50 = registry.histogram("sim.batch_size").percentile(
            Fraction(1, 2)
        )
        queue_peak = registry.gauge("sim.queue_peak").value
        return {
            "sim.self_s": clock.exclusive["sim"],
            "sim.events": _counter("sim.events"),
            "sim.policy_consultations": _counter("sim.policy_consultations"),
            "sim.resolve_skipped": _counter("sim.resolve_skipped"),
            "sim.batch_size_p50": float(batch_p50 or 0),
            "sim.queue_peak": float(queue_peak or 0),
            "policy.consult_s": clock.inclusive["policy.consult"],
            "policy.consult_ms_p50": statistics.median(consults) if consults else 0.0,
            "policy.consult_ms_tail": _percentile(consults, tail / 100.0) if consults else 0.0,
            "policy.consult_tail_pct": tail,
            "policy.admit_s": clock.exclusive["policy.consult"],
            "policy.forget_s": clock.inclusive["policy.forget"],
            "streaming.solve_s": clock.inclusive["streaming.solve"],
            "solver.stream.patched": patched,
            "solver.stream.fullsolve": full,
            "solver.stream.recompiles": _counter("solver.stream.recompiles"),
            "streaming.patch_ratio": patched / (patched + full) if patched + full else 0.0,
        }

    def expected_calls(self, inputs):
        return {
            "sim": 1,
            "policy.consult": _counter("sim.policy_consultations"),
            "streaming.solve": _counter("solver.stream.patched")
            + _counter("solver.stream.fullsolve"),
        }


# ----------------------------------------------------------------------
# Scenario sweep
# ----------------------------------------------------------------------
class SweepWorkload(Workload):
    """Many independent ECMP-routed scenarios in one batched solve."""

    item = "scenarios"
    stresses = (
        "repro.core.batched",
        "repro.core.vectorized",
        "repro.parallel",
    )
    bypasses = ("repro.sim", "repro.core.streaming", "repro.core.quotient")
    #: Scenarios certified by the bottleneck oracle, and re-solved exactly.
    CERTIFIED = 32
    EXACT = 3

    def __init__(self, name, why, n, flows, scenarios) -> None:
        self.name = name
        self.why = why
        self.n = n
        self.flows = flows
        self.scenarios = scenarios

    def params(self):
        return {"n": self.n, "flows": self.flows, "scenarios": self.scenarios,
                "router": "ecmp", "jobs": 1}

    def _flow_sets(self, network, seed):
        from repro.workloads.stochastic import uniform_random

        base = seed * self.scenarios
        return [
            uniform_random(network, self.flows, seed=base + i)
            for i in range(self.scenarios)
        ]

    def setup(self, seed):
        from repro.core.topology import ClosNetwork
        from repro.routers.ecmp import ecmp_routing

        network = ClosNetwork(self.n)
        capacities = network.graph.capacities()
        pairs = [
            (ecmp_routing(network, flows, seed=0), capacities)
            for flows in self._flow_sets(network, seed)
        ]
        return network, pairs

    def generate_s(self, seed):
        from repro.core.topology import ClosNetwork

        network = ClosNetwork(self.n)
        start = time.perf_counter()
        self._flow_sets(network, seed)
        return time.perf_counter() - start

    def identity(self, inputs):
        network, pairs = inputs
        parts = [self.name, sorted(self.params().items())]
        for routing, _ in pairs:
            parts.append(sorted(routing.middles(network).items()))
        return digest(parts)

    def run(self, inputs, jobs=1):
        from repro.core.batched import solve_max_min_batch

        return solve_max_min_batch(inputs[1], jobs=jobs)

    def items(self, inputs, output):
        return len(output)

    def verify(self, inputs, seed):
        pairs = inputs[1]
        allocations = self.run(inputs)
        problems = []
        if len(allocations) != len(pairs):
            problems.append(f"{len(allocations)} allocations for {len(pairs)} scenarios")
            return allocations, problems
        problems += oracles.certify_scenarios(
            pairs, allocations, oracles.sample_indices(len(pairs), self.CERTIFIED)
        )
        problems += oracles.agree_with_exact(
            pairs, allocations, oracles.sample_indices(len(pairs), self.EXACT)
        )
        return allocations, problems

    def check(self, inputs, output, reference):
        return oracles.check_same_allocations(reference, output)

    def traced(self, inputs, clock):
        from repro.core import batched

        with clock.patch(batched, "compile_batch", "batched.compile"), \
                clock.patch(batched, "waterfill_batch", "batched.waterfill"):
            start = time.perf_counter()
            output = clock.call("batched.assemble", self.run, inputs)
            wall = time.perf_counter() - start
        return wall, output

    def layer_metrics(self, clock, inputs):
        return {
            "batched.compile_s": clock.inclusive["batched.compile"],
            "batched.waterfill_s": clock.inclusive["batched.waterfill"],
            "batched.assemble_s": clock.exclusive["batched.assemble"],
            "batched.rounds": _counter("batched.rounds"),
            "vectorized.compiles": _counter("vectorized.compiles"),
            "batched.incidence_bytes": incidence_bytes(inputs[1]),
        }

    def expected_calls(self, inputs):
        return {
            "batched.assemble": 1,
            "batched.compile": 1,
            "batched.waterfill": _counter("batched.solves"),
        }

    def extra_traced(self, inputs, reference, untraced):
        """The same sweep over two worker processes and shared memory,
        timed with tracing off so it compares with the untraced runs."""
        from calibration import timed

        refs, problems = [], []
        for _ in range(3):
            output, _, ref = timed(self.run, inputs, jobs=2)
            refs.append(ref)
            problems += oracles.check_same_allocations(reference, output)
        jobs2 = statistics.median(refs)
        return {
            "parallel.jobs2_s": jobs2,
            "parallel.speedup": untraced / jobs2,
        }, problems


def incidence_bytes(pairs) -> int:
    """Bytes of the stacked incidence arrays the batched kernel reads,
    computed from the array sizes of a fresh (untimed) compilation."""
    from repro.core.batched import compile_batch

    arrays = compile_batch(pairs).as_arrays().values()
    return sum(array.nbytes for array in arrays)


class ExactWorkload(Workload):
    """Theorem 4.3's construction solved exactly by the quotient backend."""

    item = "flows"
    stresses = ("repro.core.quotient", "repro.core.objectives", "repro.core.solve")
    bypasses = ("repro.sim", "repro.core.streaming", "repro.core.batched",
                "repro.core.vectorized", "numpy")

    def __init__(self, name, why, sizes) -> None:
        self.name = name
        self.why = why
        self.sizes = tuple(sizes)

    def params(self):
        return {"sizes": self.sizes, "backend": "quotient"}

    def setup(self, seed):
        from repro.core.flows import FlowCollection
        from repro.workloads.adversarial import theorem_4_3

        rng = random.Random(seed)
        instances = []
        for n in self.sizes:
            instance = theorem_4_3(n)
            flows = list(instance.flows)
            rng.shuffle(flows)
            instances.append(instance._replace(flows=FlowCollection(flows)))
        return instances

    def generate_s(self, seed):
        from repro.workloads.adversarial import theorem_4_3

        start = time.perf_counter()
        for n in self.sizes:
            theorem_4_3(n)
        return time.perf_counter() - start

    def identity(self, inputs):
        parts = [self.name, sorted(self.params().items())]
        for instance in inputs:
            parts.append(list(instance.flows))
        return digest(parts)

    def run(self, inputs):
        from repro.core import solve
        from repro.core.objectives import macro_switch_max_min
        from repro.workloads.adversarial import lemma_4_6_routing

        output = []
        for instance in inputs:
            macro = macro_switch_max_min(
                instance.macro, instance.flows, backend="quotient"
            )
            lex = solve.solve_max_min(
                lemma_4_6_routing(instance),
                instance.clos.graph.capacities(),
                backend="quotient",
            )
            output.append((macro, lex))
        return output

    def items(self, inputs, output):
        return sum(len(instance.flows) for instance in inputs)

    def verify(self, inputs, seed):
        output = self.run(inputs)
        return output, self.check(inputs, output, None)

    def check(self, inputs, output, reference):
        if len(output) != len(inputs):
            return [f"{len(output)} results for {len(inputs)} sizes"]
        problems = []
        for instance, (macro, lex) in zip(inputs, output):
            problems += oracles.check_theorem_4_3(instance, macro, lex)
        return problems

    def traced(self, inputs, clock):
        from repro.core import objectives, quotient, solve
        from repro.workloads import adversarial

        patches = (
            (objectives, "macro_switch_max_min", "objectives.macro"),
            (adversarial, "lemma_4_6_routing", "workloads.routing"),
            (solve, "solve_max_min", "solve.dispatch"),
            (quotient, "quotient_max_min", "quotient.fill"),
            (quotient, "build_quotient", "quotient.build"),
        )
        with contextlib.ExitStack() as stack:
            for patch in patches:
                stack.enter_context(clock.patch(*patch))
            start = time.perf_counter()
            output = self.run(inputs)
            wall = time.perf_counter() - start
        return wall, output

    def layer_metrics(self, clock, inputs):
        return {
            "objectives.macro_s": clock.exclusive["objectives.macro"],
            "workloads.routing_s": clock.exclusive["workloads.routing"],
            "solve.dispatch_s": clock.exclusive["solve.dispatch"],
            "quotient.fill_s": clock.exclusive["quotient.fill"],
            "quotient.build_s": clock.inclusive["quotient.build"],
            "quotient.flow_classes": _counter("quotient.flow_classes"),
            "quotient.link_classes": _counter("quotient.link_classes"),
            "quotient.refinement_rounds": _counter("quotient.refinement_rounds"),
        }

    def expected_calls(self, inputs):
        # Every solve, the macro-switch one included, goes through the
        # dispatcher to the quotient backend.
        solves = _counter("quotient.solves")
        return {
            "objectives.macro": len(inputs),
            "workloads.routing": len(inputs),
            "solve.dispatch": solves,
            "quotient.fill": solves,
            "quotient.build": solves,
        }


def in_child(fn, *args):
    """``fn(*args)``, a JSON value, computed in a forked child process and
    waited for.  The inputs reach the child by the fork itself, so this
    process neither copies them nor loads any module to do so."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        status = 1
        try:
            with os.fdopen(write_end, "w") as pipe:
                json.dump(fn(*args), pipe)
            status = 0
        except BaseException:
            import traceback

            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        with os.fdopen(read_end) as pipe:
            return json.load(pipe)
    finally:
        os.waitpid(pid, 0)


def load_expected() -> Dict:
    """The recorded DES statistics (empty when the file is absent)."""
    try:
        with open(EXPECTED_PATH) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def workloads() -> Dict[str, Workload]:
    """The benchmark's workloads at their benchmark sizes, by name."""
    return {
        w.name: w
        for w in (
            DesWorkload(
                "des_batched",
                "micro-batched DES churn on Clos(8): most simulator-loop and "
                "policy-admission time; every streaming solve is a full solve",
                n=8, rate=10000.0, horizon=2.0, mean_size=0.001,
                batch_window=0.02,
            ),
            SweepWorkload(
                "sweep_batched",
                "512 ECMP-routed scenarios in one solve_max_min_batch call: "
                "NumPy compilation and the batched kernel, no simulator",
                n=4, flows=120, scenarios=512,
            ),
            ExactWorkload(
                "exact_bounds",
                "Theorem 4.3 at n=16 and 24 via the quotient backend: exact "
                "Fractions and color refinement, no NumPy",
                sizes=(16, 24),
            ),
        )
    }
