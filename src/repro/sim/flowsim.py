"""The flow-level simulation driver.

Advances time between *events* (job arrivals and completions) under
piecewise-constant rates chosen by a policy, and records per-job
completion times.  The policy is re-consulted at every event that can
change the allocation — the fluid idealization in which congestion
control converges instantly, which is the regime the paper's rate model
(§2.2) describes.  Events that provably change no link membership or
capacity (a job finishing at rate zero) reuse the standing rates of a
policy declaring ``pure_rates``, counted by the ``sim.resolve_skipped``
observability counter; same-instant arrival bursts are admitted in one
batch and cost a single re-solve.

The driver is exact for piecewise-constant rates: between events every
active job's remaining size decreases linearly, and the next completion
is the minimum of ``remaining / rate`` over jobs with positive rate.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.obs import counter, histogram, trace_span
from repro.sim.events import EventQueue, load_failure_schedule
from repro.sim.jobs import FlowJob

#: Completion-time comparisons tolerate this much float drift.
_TIME_EPS = 1e-9

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_RUNS = counter("sim.runs")
_EVENTS = counter("sim.events")
_COMPLETIONS = counter("sim.completions")
_FAILURES = counter("sim.failures_applied")
_POLICY_CALLS = counter("sim.policy_consultations")
_RESOLVE_SKIPS = counter("sim.resolve_skipped")
#: Active-job count observed at every event: the p50/p90/p99 summary
#: shows whether a workload's cost comes from sustained load or bursts
#: (integer observations — exact percentiles, tiny bucket map).
_ACTIVE = histogram("sim.active_jobs")
#: Solver-visible events admitted per policy re-solve: same-instant
#: arrival bursts here, micro-batch windows in ``repro.sim.stream``.
#: A p50 of 1 means per-event solving; higher means batching is paying.
_BATCH = histogram("sim.batch_size")


class CompletedJob(NamedTuple):
    """A finished transfer with its timing statistics."""

    job: FlowJob
    completion_time: float
    #: completion_time − arrival (the flow completion time, FCT).
    duration: float
    #: duration / size — 1.0 means the job ran at full link rate
    #: throughout (sizes are in capacity·time units).
    slowdown: float


class SimulationResult(NamedTuple):
    """Everything a run produces."""

    completed: List[CompletedJob]
    #: Jobs still unfinished when the simulation hit ``max_time``.
    unfinished: List[FlowJob]
    #: Total data delivered (sum of completed sizes + partial service).
    work_done: float
    #: The time the last event was processed.
    end_time: float


class SimulationError(RuntimeError):
    """Raised when the run cannot make progress (e.g. starved forever)."""


#: Engine names accepted by ``simulate(..., engine=)``,
#: ``simulate_stream`` and the CLI.
ENGINES = ("auto", "object", "array")


def _require_failure_hook(policy) -> None:
    """Reject a failure schedule for a policy that cannot replay it."""
    if not hasattr(policy, "set_link_factors"):
        raise SimulationError(
            f"{type(policy).__name__} has no set_link_factors hook and "
            "cannot replay a failure schedule"
        )


def _completion(job: FlowJob, at: float) -> CompletedJob:
    """The record of ``job`` finishing at time ``at``."""
    duration = at - job.arrival
    return CompletedJob(
        job=job,
        completion_time=at,
        duration=duration,
        slowdown=duration / job.size if job.size > 0 else 1.0,
    )


def _apply_failure_burst(
    queue: EventQueue, event, link_factors: Dict, policy
) -> None:
    """Apply failure ``event`` and every failure queued at the same
    instant in one go, then hand the accumulated link factors to the
    policy once."""
    link_factors[event.payload.link] = event.payload.factor
    _FAILURES.inc()
    while queue:
        upcoming = queue.peek()
        if (
            upcoming.kind != "failure"
            or upcoming.time > event.time + _TIME_EPS
        ):
            break
        failure = queue.pop().payload
        link_factors[failure.link] = failure.factor
        _FAILURES.inc()
    policy.set_link_factors(dict(link_factors))


def simulate(
    jobs: Sequence[FlowJob],
    policy,
    max_time: Optional[float] = None,
    max_events: int = 1_000_000,
    failure_schedule=None,
    engine: str = "auto",
) -> SimulationResult:
    """Run ``jobs`` under ``policy`` until everything finishes.

    ``policy`` follows :class:`repro.sim.policies.Policy`: a ``rates``
    method mapping active job ids to service rates, and a ``forget``
    hook called when a job completes.  ``max_time`` bounds the simulated
    clock (jobs still active are reported as unfinished);``max_events``
    bounds the event count as a runaway guard.

    ``failure_schedule`` replays a
    :class:`repro.failures.schedule.FailureSchedule` through the run:
    at each failure event the accumulated link factors are handed to
    ``policy.set_link_factors`` and the policy is re-consulted, so rates
    respond to the fabric degrading and recovering mid-flight.  Policies
    without that hook cannot honor a schedule — passing one raises
    :class:`SimulationError` rather than silently simulating a healthy
    fabric.

    ``engine`` is validated against :data:`ENGINES` (an unknown name
    raises ``ValueError``) and otherwise ignored: every valid name runs
    the one per-event loop below.  The keyword remains because callers
    pass one engine name to both simulators:
    :func:`repro.sim.stream.simulate_stream` forwards its ``engine``
    here at ``batch_window=0``, and for positive windows the name
    selects between its two micro-batched loops.

    >>> from repro.core.topology import ClosNetwork
    >>> from repro.sim.policies import MaxMinCongestionControl
    >>> from repro.sim.jobs import FlowJob
    >>> clos = ClosNetwork(1)
    >>> job = FlowJob(0, clos.source(1, 1), clos.destination(2, 1), 0.0, 2.0)
    >>> result = simulate([job], MaxMinCongestionControl(clos))
    >>> result.completed[0].duration  # size 2 at rate 1
    2.0
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    _RUNS.inc()
    with trace_span("sim.simulate", jobs=len(jobs)) as span:
        result = _simulate(
            jobs, policy, max_time, max_events, failure_schedule
        )
        span.set(
            completed=len(result.completed),
            unfinished=len(result.unfinished),
            sim_end_time=result.end_time,
        )
    return result


def _simulate(
    jobs: Sequence[FlowJob],
    policy,
    max_time: Optional[float],
    max_events: int,
    failure_schedule,
) -> SimulationResult:
    """The event loop behind :func:`simulate` (same contract)."""
    queue = EventQueue()
    for job in jobs:
        queue.push(job.arrival, "arrival", job)
    if failure_schedule is not None:
        _require_failure_hook(policy)
        load_failure_schedule(queue, failure_schedule)
    #: link -> retained-capacity factor currently in force
    link_factors: Dict = {}

    active: Dict[int, FlowJob] = {}
    remaining: Dict[int, float] = {}
    completed: List[CompletedJob] = []
    work_done = 0.0
    now = 0.0
    events = 0

    def drain_until(target: float, rates: Dict[int, float]) -> float:
        """Advance the clock to ``target`` applying ``rates``; returns
        actual time reached (may stop early at a completion)."""
        nonlocal now, work_done
        # earliest completion under these rates
        soonest: Optional[float] = None
        for jid, rate in rates.items():
            if rate > 0 and jid in remaining:
                finish = now + remaining[jid] / rate
                if soonest is None or finish < soonest:
                    soonest = finish
        stop = target if soonest is None else min(target, soonest)
        dt = stop - now
        if dt < 0:
            raise SimulationError(f"time went backwards: {now} -> {stop}")
        for jid, rate in rates.items():
            if jid in remaining and rate > 0:
                served = rate * dt
                remaining[jid] = max(0.0, remaining[jid] - served)
                work_done += served
        now = stop
        return stop

    def complete_finished(rates: Dict[int, float]) -> bool:
        """Retire every active job whose remaining size reached zero.

        Returns whether any retirement is *solver-visible*: retiring a
        job that was being served at a positive rate frees capacity and
        changes the other jobs' fair shares, so the policy must be
        re-consulted.  A job that finishes while its rate is zero (its
        path fully degraded, or a zero-size arrival) leaves every
        other job's allocation untouched — the caller may keep the
        current rates.
        """
        finished = [
            jid for jid, left in remaining.items() if left <= _TIME_EPS
        ]
        _COMPLETIONS.inc(len(finished))
        visible = False
        for jid in finished:
            if rates.get(jid, 0.0) > 0:
                visible = True
            job = active.pop(jid)
            del remaining[jid]
            policy.forget(jid)
            completed.append(_completion(job, now))
        return visible

    pending_arrivals = len(jobs)
    # A policy declaring `pure_rates` computes rates from the active job
    # set and capacities alone, so its last answer stays valid until an
    # event actually changes link membership or capacities.  Events that
    # change neither (a job finishing at rate zero) skip the re-solve.
    pure = bool(getattr(policy, "pure_rates", False))
    needs_resolve = True
    rates: Dict[int, float] = {}
    while queue or active:
        if not active and pending_arrivals == 0:
            break  # only failure events remain; nothing left to serve
        events += 1
        _EVENTS.inc()
        _ACTIVE.observe(len(active))
        if events > max_events:
            raise SimulationError(f"exceeded {max_events} events")
        if max_time is not None and now >= max_time:
            break

        hook = getattr(policy, "next_wakeup", None)
        if pure and hook is None and not needs_resolve:
            _RESOLVE_SKIPS.inc()
        else:
            _POLICY_CALLS.inc()
            rates = policy.rates(active, remaining, now)
            needs_resolve = False
        # Policies may request re-consultation at a future instant (e.g.
        # periodic re-routing) via an optional `next_wakeup(now)` hook.
        wakeup: Optional[float] = None
        if hook is not None and active:
            candidate = hook(now)
            if candidate is not None and candidate > now + _TIME_EPS:
                wakeup = candidate

        next_event = queue.peek()
        if next_event is None:
            # only completions remain; if nobody is being served and no
            # wakeup is pending the system can never finish
            if wakeup is None and not any(
                rate > 0 for jid, rate in rates.items() if jid in remaining
            ):
                raise SimulationError(
                    f"{len(active)} jobs active but none served; "
                    "the policy starved the residual workload"
                )
            horizon = math.inf if max_time is None else max_time
            if wakeup is not None:
                horizon = min(horizon, wakeup)
            drain_until(horizon, rates)
            if complete_finished(rates):
                needs_resolve = True
            continue

        target = next_event.time
        if wakeup is not None:
            target = min(target, wakeup)
        reached = drain_until(target, rates)
        if complete_finished(rates):
            needs_resolve = True
            continue  # re-consult the policy before touching the arrival
        if reached >= next_event.time - _TIME_EPS:
            event = queue.pop()
            if event.kind == "failure":
                # Re-consult the policy on the degraded fabric.
                _apply_failure_burst(queue, event, link_factors, policy)
                needs_resolve = True
                continue
            # Admit the arrival — and, for pure-rates policies, every
            # other arrival landing at the same instant: no time passes
            # between them and the rates depend only on the final set,
            # so a burst costs one re-solve instead of one per job.
            # (Impure policies may consume state per consultation — e.g.
            # a re-route epoch — so they keep the per-arrival cadence.)
            job = event.payload
            active[job.job_id] = job
            remaining[job.job_id] = job.size
            pending_arrivals -= 1
            needs_resolve = True
            burst = 1
            while pure and queue:
                upcoming = queue.peek()
                if (
                    upcoming.kind != "arrival"
                    or upcoming.time > event.time + _TIME_EPS
                ):
                    break
                job = queue.pop().payload
                active[job.job_id] = job
                remaining[job.job_id] = job.size
                pending_arrivals -= 1
                burst += 1
            _BATCH.observe(burst)

    return SimulationResult(
        completed=completed,
        unfinished=list(active.values()),
        work_done=work_done,
        end_time=now,
    )


class FCTStats(NamedTuple):
    """Summary statistics over completed jobs."""

    count: int
    mean_fct: float
    median_fct: float
    p99_fct: float
    mean_slowdown: float
    max_slowdown: float


def fct_stats(result: SimulationResult) -> FCTStats:
    """Flow-completion-time summary of a run (requires ≥ 1 completion)."""
    if not result.completed:
        raise ValueError("no completed jobs to summarize")
    durations = sorted(c.duration for c in result.completed)
    slowdowns = [c.slowdown for c in result.completed]
    count = len(durations)
    return FCTStats(
        count=count,
        mean_fct=sum(durations) / count,
        median_fct=durations[count // 2],
        p99_fct=durations[min(count - 1, math.ceil(0.99 * count) - 1)],
        mean_slowdown=sum(slowdowns) / count,
        max_slowdown=max(slowdowns),
    )


def average_throughput(result: SimulationResult) -> float:
    """Time-averaged network throughput: work delivered / makespan.

    The §7 R1 discussion predicts scheduling raises the *average
    throughput across the network over time* relative to max-min
    congestion control; since both regimes deliver the same total work,
    a shorter makespan is exactly a higher average throughput.
    """
    if result.end_time <= 0:
        raise ValueError("simulation processed no time")
    return result.work_done / result.end_time
