"""Tests for the simulator's ``engine=`` switch and the array-state
micro-batched loop.

Covers engine selection, the single per-event loop behind every engine
name, byte-identity of the array micro-batched loop against the object
one (the property the ``REPRO_SHADOW`` cross-check enforces in
production), parallel-shard determinism with merged telemetry, the
shadow-quarantine path, and the chaos harness's engine parity check.
"""

import math

import pytest

from repro.core.topology import ClosNetwork
from repro.sim import arraysim
from repro.sim.arraysim import (
    AUTO_THRESHOLD,
    ENGINES,
    resolve_engine,
    results_equivalent,
)
from repro.sim.flowsim import simulate
from repro.sim.jobs import (
    JOB_COLUMNS,
    FlowJob,
    incast_burst,
    jobs_from_arrays,
    jobs_to_arrays,
    poisson_workload,
)
from repro.sim.policies import (
    MatchingScheduler,
    MaxMinCongestionControl,
    ProcessorSharing,
)
from repro.sim.stream import simulate_sharded, simulate_stream
from repro.workloads.stochastic import churn_workload


@pytest.fixture
def clos():
    return ClosNetwork(2)


@pytest.fixture(autouse=True)
def _quiet_shadow(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_SHADOW", raising=False)
    monkeypatch.setenv("REPRO_QUARANTINE_DIR", str(tmp_path / "quarantine"))


def _bundles(tmp_path):
    directory = tmp_path / "quarantine"
    if not directory.is_dir():
        return []
    return sorted(str(p) for p in directory.glob("q-*.json"))


def _require_same(a, b):
    """The full byte-identity contract between two engines' results."""
    assert a.completed == b.completed
    assert a.unfinished == b.unfinished
    assert a.end_time == b.end_time
    assert math.isclose(a.work_done, b.work_done, rel_tol=1e-9, abs_tol=1e-9)


def _every_engine(jobs, make_policy, **kwargs):
    """Run ``simulate`` under every engine name with a fresh policy each
    and require results ``==`` to ``engine="object"`` (there is one
    per-event loop)."""
    want = simulate(jobs, make_policy(), engine="object", **kwargs)
    for engine in ENGINES:
        got = simulate(jobs, make_policy(), engine=engine, **kwargs)
        assert got == want, engine


def _stream_engines(jobs, make_policy, batch_window=0.1, **kwargs):
    """The object and array micro-batched loops on the same input, each
    with a fresh policy."""
    return [
        simulate_stream(
            jobs, make_policy(), batch_window=batch_window, engine=engine,
            **kwargs,
        )
        for engine in ("object", "array")
    ]


class TestEngineSelection:
    def test_unknown_engine_rejected(self, clos):
        job = FlowJob(0, clos.sources[0], clos.destinations[0], 0.0, 1.0)
        with pytest.raises(ValueError, match="engine"):
            simulate([job], MaxMinCongestionControl(clos), engine="turbo")
        with pytest.raises(ValueError, match="engine"):
            simulate_stream(
                [job], MaxMinCongestionControl(clos), batch_window=0.1,
                engine="turbo",
            )

    def test_auto_picks_object_below_threshold(self):
        assert resolve_engine("auto", AUTO_THRESHOLD - 1) == "object"
        assert resolve_engine("auto", AUTO_THRESHOLD) == "array"
        # the des_batched benchmark workload (~20k jobs) runs the array loop
        assert resolve_engine("auto", 20_000) == "array"

    def test_explicit_engines_resolve_to_themselves(self):
        assert resolve_engine("object", 10_000) == "object"
        assert resolve_engine("array", 1) == "array"



class TestPerEventByteIdentity:
    """``simulate`` has one loop: every engine name returns exactly the
    ``engine="object"`` result, ``work_done`` included."""

    @pytest.mark.parametrize("seed", range(4))
    def test_poisson_maxmin(self, clos, seed):
        jobs = poisson_workload(clos, rate=3.0, horizon=4.0, seed=seed)
        _every_engine(jobs, lambda: MaxMinCongestionControl(clos))

    @pytest.mark.parametrize(
        "make_policy",
        [
            lambda net: MaxMinCongestionControl(net, backend="streaming"),
            lambda net: ProcessorSharing(net),
            lambda net: MatchingScheduler(net, srpt=True),
        ],
        ids=["streaming", "processor-sharing", "matching-srpt"],
    )
    def test_policies(self, clos, make_policy):
        jobs = poisson_workload(clos, rate=2.0, horizon=5.0, seed=7)
        _every_engine(jobs, lambda: make_policy(clos))

    def test_same_instant_burst(self, clos):
        jobs = incast_burst(clos, fan_in=4, arrival=1.0, size=2.0)
        _every_engine(jobs, lambda: MaxMinCongestionControl(clos))

    def test_zero_size_jobs(self, clos):
        jobs = [
            FlowJob(0, clos.sources[0], clos.destinations[0], 0.5, 0.0),
            FlowJob(1, clos.sources[1], clos.destinations[1], 0.5, 1.0),
        ]
        _every_engine(jobs, lambda: MaxMinCongestionControl(clos))

    def test_max_time_truncation(self, clos):
        jobs = poisson_workload(clos, rate=3.0, horizon=4.0, seed=2)
        _every_engine(
            jobs, lambda: MaxMinCongestionControl(clos), max_time=1.5
        )

    def test_failure_schedule(self, clos):
        from fractions import Fraction

        from repro.failures.schedule import FailureSchedule

        jobs = poisson_workload(clos, rate=2.0, horizon=6.0, seed=5)
        schedule = FailureSchedule.random_flaps(
            clos, count=3, horizon=4.0, seed=5, severity=Fraction(1, 4)
        )
        _every_engine(
            jobs,
            lambda: MaxMinCongestionControl(clos, seed=5),
            failure_schedule=schedule,
        )

    def test_error_parity_negative_arrival(self, clos):
        jobs = [FlowJob(0, clos.sources[0], clos.destinations[0], -1.0, 1.0)]
        messages = set()
        for engine in ENGINES:
            with pytest.raises(ValueError) as error:
                simulate(jobs, MaxMinCongestionControl(clos), engine=engine)
            messages.add(str(error.value))
        assert len(messages) == 1


class TestStreamByteIdentity:
    """The array micro-batched loop mirrors the object one."""

    @pytest.mark.parametrize("window", [0.05, 0.5])
    def test_micro_batched(self, clos, window):
        jobs = poisson_workload(clos, rate=3.0, horizon=5.0, seed=3)
        want, got = _stream_engines(
            jobs,
            lambda: MaxMinCongestionControl(clos, backend="streaming"),
            batch_window=window,
        )
        _require_same(got, want)

    def test_max_time(self, clos):
        jobs = poisson_workload(clos, rate=3.0, horizon=5.0, seed=4)
        want, got = _stream_engines(
            jobs,
            lambda: MaxMinCongestionControl(clos, backend="streaming"),
            max_time=2.0,
        )
        _require_same(got, want)

    @pytest.mark.parametrize(
        "make_policy",
        [
            lambda net: MaxMinCongestionControl(net, backend="streaming"),
            lambda net: ProcessorSharing(net),
            lambda net: MatchingScheduler(net, srpt=True),
        ],
        ids=["streaming", "processor-sharing", "matching-srpt"],
    )
    def test_policies(self, clos, make_policy):
        jobs = poisson_workload(clos, rate=2.0, horizon=5.0, seed=7)
        want, got = _stream_engines(jobs, lambda: make_policy(clos))
        _require_same(got, want)

    def test_same_instant_burst(self, clos):
        jobs = incast_burst(clos, fan_in=4, arrival=1.0, size=2.0)
        want, got = _stream_engines(
            jobs, lambda: MaxMinCongestionControl(clos)
        )
        _require_same(got, want)

    def test_zero_size_jobs(self, clos):
        jobs = [
            FlowJob(0, clos.sources[0], clos.destinations[0], 0.5, 0.0),
            FlowJob(1, clos.sources[1], clos.destinations[1], 0.5, 1.0),
        ]
        want, got = _stream_engines(
            jobs, lambda: MaxMinCongestionControl(clos)
        )
        _require_same(got, want)

    def test_failure_schedule(self, clos):
        from fractions import Fraction

        from repro.failures.schedule import FailureSchedule

        jobs = poisson_workload(clos, rate=2.0, horizon=6.0, seed=5)
        schedule = FailureSchedule.random_flaps(
            clos, count=3, horizon=4.0, seed=5, severity=Fraction(1, 4)
        )
        want, got = _stream_engines(
            jobs,
            lambda: MaxMinCongestionControl(clos, seed=5),
            failure_schedule=schedule,
        )
        _require_same(got, want)

    def test_error_parity_negative_arrival(self, clos):
        jobs = [FlowJob(0, clos.sources[0], clos.destinations[0], -1.0, 1.0)]
        with pytest.raises(ValueError) as obj_err:
            simulate_stream(
                jobs, MaxMinCongestionControl(clos), batch_window=0.1,
                engine="object",
            )
        with pytest.raises(ValueError) as arr_err:
            simulate_stream(
                jobs, MaxMinCongestionControl(clos), batch_window=0.1,
                engine="array",
            )
        assert str(obj_err.value) == str(arr_err.value)

    def test_zero_window_delegates_to_per_event(self, clos):
        jobs = poisson_workload(clos, rate=2.0, horizon=3.0, seed=1)
        streamed = simulate_stream(
            jobs,
            MaxMinCongestionControl(clos, backend="streaming"),
            batch_window=0.0,
            engine="array",
        )
        per_event = simulate(
            jobs,
            MaxMinCongestionControl(clos, backend="streaming"),
            engine="object",
        )
        assert streamed == per_event


class TestShardedDeterminism:
    @pytest.fixture
    def network(self):
        return ClosNetwork(4)

    @pytest.fixture
    def workload(self, network):
        return churn_workload(network, rate=60.0, horizon=2.0, pods=4, seed=3)

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_jobs_k_equals_jobs_1(self, network, workload, jobs):
        base = simulate_sharded(
            network, workload, pods=4, batch_window=0.05, jobs=1
        )
        got = simulate_sharded(
            network, workload, pods=4, batch_window=0.05, jobs=jobs
        )
        assert got == base  # byte-identical NamedTuple equality

    def test_jobs_4_under_failure_schedule(self, network, workload):
        from fractions import Fraction

        from repro.failures.schedule import FailureSchedule

        schedule = FailureSchedule.random_flaps(
            network, count=2, horizon=1.5, seed=7, severity=Fraction(1, 2)
        )
        base = simulate_sharded(
            network, workload, pods=4, batch_window=0.05,
            failure_schedule=schedule, jobs=1,
        )
        got = simulate_sharded(
            network, workload, pods=4, batch_window=0.05,
            failure_schedule=schedule, jobs=4,
        )
        assert got == base

    def test_telemetry_merge_equality(self, network, workload):
        """REPRO_OBS-style merged counters: jobs=4 == jobs=1."""
        from repro import obs
        from repro.obs.metrics import REGISTRY, snapshot_delta

        obs.reset()
        obs.enable()
        try:
            before = REGISTRY.snapshot()
            seq = simulate_sharded(
                network, workload, pods=4, batch_window=0.05, jobs=1
            )
            seq_delta = snapshot_delta(before, REGISTRY.snapshot())

            obs.reset()
            obs.enable()
            before = REGISTRY.snapshot()
            par = simulate_sharded(
                network, workload, pods=4, batch_window=0.05, jobs=4
            )
            par_delta = snapshot_delta(before, REGISTRY.snapshot())
        finally:
            obs.reset()
            obs.disable()
        assert par == seq
        counters = {
            k: v
            for k, v in seq_delta.items()
            if isinstance(v, (int, float))
            and k.startswith("sim.")
            and k != "sim.queue_peak"  # a gauge: merged last-write-wins
        }
        assert counters, "no simulator counters were recorded"
        for key, value in counters.items():
            assert par_delta.get(key) == value, (
                f"{key}: jobs=4 {par_delta.get(key)} != jobs=1 {value}"
            )
        # The peak gauge is per-process; the merged value is one
        # shard's peak, bounded by the sequential all-shards peak.
        assert 0 < par_delta["sim.queue_peak"] <= seq_delta["sim.queue_peak"]

    def test_engine_forced_object_matches_array(self, network, workload):
        want = simulate_sharded(
            network, workload, pods=4, batch_window=0.05,
            engine="object", jobs=1,
        )
        got = simulate_sharded(
            network, workload, pods=4, batch_window=0.05,
            engine="array", jobs=4,
        )
        _require_same(got, want)


class TestShadowCrossCheck:
    def test_divergence_quarantined_and_corrected(
        self, clos, monkeypatch, tmp_path
    ):
        """A corrupted array loop is caught by the sampled shadow re-run:
        the object result is returned and a ``sim-mismatch`` bundle is
        written."""
        monkeypatch.setenv("REPRO_SHADOW", "1.0")
        jobs = poisson_workload(clos, rate=2.0, horizon=3.0, seed=11)
        honest = simulate_stream(
            jobs, MaxMinCongestionControl(clos), batch_window=0.1,
            engine="object",
        )

        real = arraysim._simulate_stream_array

        def corrupted(*args, **kwargs):
            result = real(*args, **kwargs)
            return result._replace(end_time=result.end_time + 1.0)

        monkeypatch.setattr(arraysim, "_simulate_stream_array", corrupted)
        got = simulate_stream(
            jobs, MaxMinCongestionControl(clos), batch_window=0.1,
            engine="array",
        )
        assert got == honest  # the object loop out-voted the corruption
        bundles = _bundles(tmp_path)
        assert len(bundles) == 1
        from repro.quarantine import load_bundle

        bundle = load_bundle(bundles[0])
        assert bundle.reason == "sim-mismatch"
        assert bundle.backend == "array"
        assert any("end_time" in line for line in bundle.failures)

    def test_agreement_writes_nothing(self, clos, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SHADOW", "1.0")
        jobs = poisson_workload(clos, rate=2.0, horizon=3.0, seed=12)
        simulate_stream(
            jobs, MaxMinCongestionControl(clos), batch_window=0.1,
            engine="array",
        )
        assert _bundles(tmp_path) == []


class TestResultsEquivalent:
    def test_work_done_tolerance_only(self, clos):
        jobs = [FlowJob(0, clos.sources[0], clos.destinations[0], 0.0, 1.0)]
        result = simulate(jobs, MaxMinCongestionControl(clos))
        drifted = result._replace(
            work_done=result.work_done * (1.0 + 1e-12)
        )
        assert results_equivalent(result, drifted)
        broken = result._replace(work_done=result.work_done + 1.0)
        assert not results_equivalent(result, broken)

    def test_exact_fields_must_match(self, clos):
        jobs = [FlowJob(0, clos.sources[0], clos.destinations[0], 0.0, 1.0)]
        result = simulate(jobs, MaxMinCongestionControl(clos))
        assert not results_equivalent(
            result, result._replace(end_time=result.end_time + 1e-15)
        )


class TestJobArrays:
    def test_round_trip(self, clos):
        jobs = poisson_workload(clos, rate=3.0, horizon=3.0, seed=5)
        arrays = jobs_to_arrays(jobs)
        assert set(arrays) == set(JOB_COLUMNS)
        assert jobs_from_arrays(*(arrays[c] for c in JOB_COLUMNS)) == jobs


class TestChaosEngineCheck:
    def test_seeded_workloads_clean(self):
        from repro.chaos import sim_engine_check

        for seed in range(3):
            assert sim_engine_check(seed) == []

    def test_fuzz_includes_engine_checks(self):
        from repro.chaos import fuzz

        report = fuzz(seeds=2, churn_every=1)
        assert report.failures == []
