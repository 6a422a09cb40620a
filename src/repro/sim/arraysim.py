"""Array-state micro-batched simulation loop (``engine="array"``).

The object loop in :mod:`repro.sim.stream` keeps per-job Python dicts
plus a completion event queue; under heavy churn the end-to-end event
rate stalls on that bookkeeping — not on solving.  This module
re-implements the micro-batched loop over a contiguous slot store
(remaining sizes, rates, job ids, and the active mask as NumPy arrays):

- time advancement serves every active job with one masked vector
  update instead of a Python loop;
- rates only change at consult boundaries, so the completion *order* is
  frozen between them: one ``lexsort`` per policy consult, and each pop
  is an O(1) pointer walk instead of an O(log F) heap operation;
- retirement frees slots lazily and sweeps them with a batched
  compaction only when more than half the store is dead, like
  ``core/streaming``'s O(nnz) dead-slot sweep.

The loop is an event-for-event mirror of the object loop:
``completed`` (order *and* float values), ``unfinished``, and
``end_time`` are byte-identical, including ``_TIME_EPS`` tie-breaking,
failure batching, and admission-order retirement.  Only ``work_done``
may drift within :data:`WORK_TOL`, because vectorized reductions sum
partial service in a different order than the object loop's per-job
accumulation (see :func:`results_equivalent`).  The object loop stays
as the independent reference.

The per-event loop (:func:`repro.sim.flowsim.simulate`) has one
implementation: an array mirror of it was slower at every measured size
(``docs/PERFORMANCE.md``).

:func:`resolve_engine` implements the ``{"auto", "object", "array"}``
switch used by :func:`repro.sim.stream.simulate_stream`;
:func:`with_shadow` implements the sampled ``REPRO_SHADOW``
cross-check that re-runs the object loop on a pre-run deep copy of
the policy and quarantines divergences with reason ``sim-mismatch``.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Mapping
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.solve import _ProcessSeq, _shadow_due
from repro.obs import counter, histogram
from repro.sim.flowsim import (
    _TIME_EPS,
    ENGINES,
    CompletedJob,
    SimulationError,
    SimulationResult,
    _completion,
    _require_failure_hook,
)
from repro.sim.jobs import FlowJob

#: ``engine="auto"`` picks the array loop at or above this many jobs:
#: the measured object/array crossover of the micro-batched loop
#: (230–290 jobs; table in ``docs/PERFORMANCE.md``).  Below it the
#: object loop wins on constant factors (array setup and rate scatter
#: cost more than a handful of dict updates).
AUTO_THRESHOLD = 256

#: Relative tolerance on ``work_done`` between engines: vectorized
#: reductions sum partial service in a different order than the object
#: loop's per-job accumulation, so the totals agree only to float
#: round-off.  ``completed`` / ``unfinished`` / ``end_time`` are exact.
WORK_TOL = 1e-9

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
#: Counter names are shared with the object loops so per-engine runs
#: report into the same telemetry streams.
_EVENTS = counter("sim.events")
_COMPLETIONS = counter("sim.completions")
_FAILURES = counter("sim.failures_applied")
_POLICY_CALLS = counter("sim.policy_consultations")
_BATCH = histogram("sim.batch_size")
_SHADOW_CHECKS = counter("sim.shadow.checks")
_SHADOW_MISMATCHES = counter("sim.shadow.mismatches")

__all__ = [
    "AUTO_THRESHOLD",
    "ENGINES",
    "WORK_TOL",
    "resolve_engine",
    "results_equivalent",
]


def resolve_engine(engine: str, num_jobs: int) -> str:
    """Resolve an ``engine=`` argument to ``"object"`` or ``"array"``:
    ``"auto"`` picks the array loop for workloads of at least
    :data:`AUTO_THRESHOLD` jobs."""
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    if engine == "auto":
        return "array" if num_jobs >= AUTO_THRESHOLD else "object"
    return engine


def results_equivalent(
    a: SimulationResult, b: SimulationResult, work_tol: float = WORK_TOL
) -> bool:
    """Whether two engine results agree under the cross-engine contract:
    ``completed`` / ``unfinished`` / ``end_time`` exactly equal,
    ``work_done`` within relative ``work_tol`` (summation-order drift)."""
    if a.completed != b.completed:
        return False
    if a.unfinished != b.unfinished:
        return False
    if a.end_time != b.end_time:
        return False
    scale = max(1.0, abs(a.work_done), abs(b.work_done))
    return abs(a.work_done - b.work_done) <= work_tol * scale


# ----------------------------------------------------------------------
# The slot store
# ----------------------------------------------------------------------
class _JobStore:
    """Contiguous per-job state: ``remaining`` / ``rate`` / ``jid``
    arrays and an ``active`` mask over slots ``[0, high)``.

    Slots are handed out in admission order and compaction preserves
    relative order, so **ascending slot index is admission order** —
    the invariant behind byte-identical retirement ordering (the object
    loop retires in remaining-dict insertion order, which is the same
    thing).
    """

    __slots__ = ("remaining", "rate", "jid", "active", "high", "slot_of")

    def __init__(self, capacity_hint: int) -> None:
        cap = max(16, int(capacity_hint))
        self.remaining = np.zeros(cap)
        self.rate = np.zeros(cap)
        self.jid = np.zeros(cap, dtype=np.int64)
        self.active = np.zeros(cap, dtype=bool)
        #: One past the last slot ever used (only compaction shrinks it).
        self.high = 0
        #: job_id -> slot for live jobs, in admission order.
        self.slot_of: Dict[int, int] = {}

    def _grow(self) -> None:
        cap = 2 * len(self.remaining)
        for name in ("remaining", "rate", "jid", "active"):
            old = getattr(self, name)
            new = np.zeros(cap, dtype=old.dtype)
            new[: self.high] = old[: self.high]
            setattr(self, name, new)

    def admit(self, job: FlowJob) -> int:
        if self.high == len(self.remaining):
            self._grow()
        slot = self.high
        self.high = slot + 1
        self.remaining[slot] = job.size
        self.rate[slot] = 0.0
        self.jid[slot] = job.job_id
        self.active[slot] = True
        self.slot_of[job.job_id] = slot
        return slot

    def retire(self, slot: int) -> None:
        self.active[slot] = False
        del self.slot_of[int(self.jid[slot])]

    def compact(self) -> None:
        """Sweep dead slots once more than half the store is dead.

        Only called at consult boundaries, where rates are re-scattered
        and any cached completion order is rebuilt anyway — so moving
        slots never invalidates in-flight references.
        """
        live = len(self.slot_of)
        if self.high < 64 or 2 * live >= self.high:
            return
        keep = np.nonzero(self.active[: self.high])[0]
        n = int(keep.size)
        # Fancy indexing copies before assigning, so in-place shifts
        # toward the front are safe.
        self.remaining[:n] = self.remaining[keep]
        self.rate[:n] = self.rate[keep]
        self.jid[:n] = self.jid[keep]
        self.active[:n] = True
        self.active[n : self.high] = False
        self.high = n
        self.slot_of = {
            int(j): i for i, j in enumerate(self.jid[:n].tolist())
        }


class _RemainingView(Mapping):
    """Read-only ``{job_id: remaining}`` over the live slots, iterated
    in admission order — handed to policies in place of the object
    loop's remaining dict (e.g. ``MatchingScheduler``'s SRPT key)."""

    __slots__ = ("_store",)

    def __init__(self, store: _JobStore) -> None:
        self._store = store

    def __getitem__(self, jid: int) -> float:
        return float(self._store.remaining[self._store.slot_of[jid]])

    def __iter__(self) -> Iterator[int]:
        return iter(self._store.slot_of)

    def __len__(self) -> int:
        return len(self._store.slot_of)

    def __contains__(self, jid: object) -> bool:
        return jid in self._store.slot_of


# ----------------------------------------------------------------------
# Micro-batching engine (mirror of stream._simulate_stream)
# ----------------------------------------------------------------------
def _simulate_stream_array(
    jobs: Sequence[FlowJob],
    policy,
    batch_window: float,
    max_time: Optional[float],
    max_events: int,
    failure_schedule,
) -> SimulationResult:
    """Array-state mirror of :func:`repro.sim.stream._simulate_stream`.

    Replaces the event heap with two presorted pointer walks (arrivals
    stably sorted by arrival time, failures by schedule time — exactly
    the ``(time, sequence)`` order of the object engine's
    :class:`~repro.sim.events.EventQueue`, arrivals winning time ties
    because they are pushed first) and the completion heap with a
    per-consult ``lexsort`` by ``(finish, job_id)`` — the same total
    order as the heap's ``(finish, jid, epoch)`` entries, all of which
    share the latest epoch.
    """
    for job in jobs:
        if job.arrival < 0:
            raise ValueError(f"negative event time: {job.arrival}")
    fail_events: List = []
    if failure_schedule is not None:
        _require_failure_hook(policy)
        fail_events = sorted(failure_schedule.events(), key=lambda e: e.time)
        for ev in fail_events:
            if ev.time < 0:
                raise ValueError(f"negative event time: {ev.time}")
    n_jobs = len(jobs)
    arr_jobs = sorted(jobs, key=lambda job: job.arrival)  # stable
    arr_times = [job.arrival for job in arr_jobs]
    fail_times = [ev.time for ev in fail_events]
    n_fail = len(fail_events)

    store = _JobStore(n_jobs)
    remaining_view = _RemainingView(store)
    active: Dict[int, FlowJob] = {}
    completed: List[CompletedJob] = []
    link_factors: Dict = {}
    work_done = 0.0
    now = 0.0
    base_t = 0.0
    events = 0
    aptr = 0
    fptr = 0
    #: Completion order under the standing rates — slots and finish
    #: times sorted by ``(finish, job_id)``, consumed by ``optr``.
    order_slots: List[int] = []
    order_finish: List[float] = []
    optr = 0
    deadline: Optional[float] = None
    pending = 0

    def advance_to(target: float) -> None:
        """Serve every job at its standing rate up to ``target``."""
        nonlocal base_t, work_done
        dt = target - base_t
        if dt < -_TIME_EPS:
            raise SimulationError(
                f"time went backwards: {base_t} -> {target}"
            )
        if dt > 0.0:
            hi = store.high
            idx = np.nonzero(store.active[:hi] & (store.rate[:hi] > 0.0))[0]
            if idx.size:
                served = np.minimum(
                    store.remaining[idx], store.rate[idx] * dt
                )
                store.remaining[idx] -= served
                work_done += float(served.sum())
        base_t = target

    def retire(slot: int, at: float, served: float) -> None:
        nonlocal work_done
        job = active.pop(int(store.jid[slot]))
        store.retire(slot)
        work_done += served
        policy.forget(job.job_id)
        completed.append(_completion(job, at))
        _COMPLETIONS.inc()

    def retire_jobless(job: FlowJob, at: float) -> None:
        """Zero-size transfer: completes the instant it arrives without
        ever occupying a slot — matching the object loop's retire."""
        active.pop(job.job_id)
        policy.forget(job.job_id)
        completed.append(_completion(job, at))
        _COMPLETIONS.inc()

    def boundary_retire(at: float) -> None:
        """Retire anything drained to zero exactly at a boundary, in
        admission (= ascending slot) order."""
        hi = store.high
        done = np.nonzero(
            store.active[:hi] & (store.remaining[:hi] <= _TIME_EPS)
        )[0]
        for slot in done.tolist():
            retire(slot, at, 0.0)

    def consult(at: float) -> None:
        """The batch boundary: advance, re-solve, refreeze the
        completion order."""
        nonlocal deadline, pending, order_slots, order_finish, optr
        advance_to(at)
        boundary_retire(at)
        _POLICY_CALLS.inc()
        _BATCH.observe(max(1, pending))
        store.compact()
        rates = policy.rates(active, remaining_view, at)
        pending = 0
        deadline = None
        store.rate[: store.high] = 0.0
        slot_of = store.slot_of
        rate = store.rate
        for jid, r in rates.items():
            slot = slot_of.get(jid)
            if slot is not None:
                rate[slot] = r
        hi = store.high
        cand = np.nonzero(store.active[:hi] & (store.rate[:hi] > 0.0))[0]
        if cand.size:
            finish = at + store.remaining[cand] / store.rate[cand]
            sort = np.lexsort((store.jid[cand], finish))
            order_slots = cand[sort].tolist()
            order_finish = finish[sort].tolist()
        else:
            order_slots = []
            order_finish = []
        optr = 0

    def touch(at: float) -> None:
        """Register one solver-visible change at time ``at``."""
        nonlocal deadline, pending
        pending += 1
        candidate = at + batch_window
        if deadline is None or candidate < deadline:
            deadline = candidate

    while aptr < n_jobs or fptr < n_fail or active:
        if not active and aptr >= n_jobs:
            break  # only failure events remain; nothing left to serve
        events += 1
        _EVENTS.inc()
        if events > max_events:
            raise SimulationError(f"exceeded {max_events} events")
        if max_time is not None and now >= max_time:
            break

        next_completion = (
            order_finish[optr] if optr < len(order_finish) else None
        )
        arr_t = arr_times[aptr] if aptr < n_jobs else None
        fail_t = fail_times[fptr] if fptr < n_fail else None
        if arr_t is not None and (fail_t is None or arr_t <= fail_t):
            next_event_t: Optional[float] = arr_t
            next_is_arrival = True
        else:
            next_event_t = fail_t
            next_is_arrival = False
        next_t = math.inf if max_time is None else max_time
        if next_event_t is not None:
            next_t = min(next_t, next_event_t)
        if next_completion is not None:
            next_t = min(next_t, next_completion)
        if deadline is not None:
            next_t = min(next_t, deadline)
        if math.isinf(next_t):
            raise SimulationError(
                f"{len(active)} jobs active but none served; "
                "the policy starved the residual workload"
            )
        if max_time is not None and next_t > max_time:
            next_t = max_time
        now = next_t
        if max_time is not None and now >= max_time:
            break

        if next_completion is not None and next_completion <= now + _TIME_EPS:
            slot = order_slots[optr]
            finish = order_finish[optr]
            optr += 1
            if store.active[slot]:
                # The job's full residual (as of base_t) was served over
                # [base_t, finish]; account it directly and leave the
                # others' lazily advanced state untouched.
                served = float(store.remaining[slot])
                retire(slot, finish, served)
                touch(finish)  # freed capacity -> re-solve within window
            continue

        if next_event_t is not None and next_event_t <= now + _TIME_EPS:
            if not next_is_arrival:
                ev = fail_events[fptr]
                fptr += 1
                link_factors[ev.link] = ev.factor
                _FAILURES.inc()
                while fptr < n_fail:
                    upcoming_t = fail_times[fptr]
                    if upcoming_t > next_event_t + _TIME_EPS:
                        break
                    if aptr < n_jobs and arr_times[aptr] <= upcoming_t:
                        break  # an arrival precedes it in queue order
                    nxt = fail_events[fptr]
                    fptr += 1
                    link_factors[nxt.link] = nxt.factor
                    _FAILURES.inc()
                policy.set_link_factors(dict(link_factors))
                touch(next_event_t)
                continue
            job = arr_jobs[aptr]
            aptr += 1
            if job.size <= _TIME_EPS:
                active[job.job_id] = job
                retire_jobless(job, next_event_t)
                continue
            active[job.job_id] = job
            store.admit(job)
            touch(next_event_t)
            continue

        # The batch deadline is the earliest happening: re-solve.
        consult(now)

    advance_to(now)
    boundary_retire(now)
    return SimulationResult(
        completed=completed,
        unfinished=list(active.values()),
        work_done=work_done,
        end_time=now,
    )


# ----------------------------------------------------------------------
# REPRO_SHADOW cross-check
# ----------------------------------------------------------------------
def _divergence(got: SimulationResult, want: SimulationResult) -> List[str]:
    """Human-readable defect lines for a quarantine bundle."""
    details: List[str] = []
    if len(got.completed) != len(want.completed):
        details.append(
            f"completed count {len(got.completed)} != {len(want.completed)}"
        )
    else:
        for i, (g, w) in enumerate(zip(got.completed, want.completed)):
            if g != w:
                details.append(
                    f"completed[{i}]: array {g!r} != object {w!r}"
                )
                break
    if got.unfinished != want.unfinished:
        details.append(
            f"unfinished {len(got.unfinished)} jobs != "
            f"{len(want.unfinished)} jobs (or differing order)"
        )
    if got.end_time != want.end_time:
        details.append(f"end_time {got.end_time!r} != {want.end_time!r}")
    scale = max(1.0, abs(got.work_done), abs(want.work_done))
    if abs(got.work_done - want.work_done) > WORK_TOL * scale:
        details.append(
            f"work_done {got.work_done!r} != {want.work_done!r} "
            f"(beyond {WORK_TOL} relative)"
        )
    return details or ["results differ"]


def _quarantine_mismatch(
    policy, got: SimulationResult, want: SimulationResult, context: str
) -> None:
    """Best-effort ``sim-mismatch`` bundle capture (never raises)."""
    try:
        from repro.core.routing import Routing
        from repro.quarantine import quarantine_failure

        capacities = dict(getattr(policy, "_capacities", None) or {})
        quarantine_failure(
            Routing({}),
            capacities,
            reason="sim-mismatch",
            backend="array",
            exact=False,
            context=context,
            failures=_divergence(got, want),
        )
    except Exception:  # pragma: no cover - quarantine must not mask
        pass


def with_shadow(array_run, object_run, policy, context: str):
    """Run the array engine; on ``REPRO_SHADOW``-sampled runs re-run the
    object engine and cross-check.

    ``array_run()`` executes the fast core against ``policy``;
    ``object_run(reference_policy)`` re-runs the object engine against a
    deep copy of the policy taken *before* the array run mutated it.
    Divergent results are quarantined with reason ``sim-mismatch`` and
    the object result — the established engine — is returned.  Policies
    that cannot be deep-copied skip the check silently (sampling, not a
    guarantee).
    """
    reference_policy = None
    if _shadow_due(next(_SIM_SEQ)):
        try:
            reference_policy = copy.deepcopy(policy)
        except Exception:
            reference_policy = None
    result = array_run()
    if reference_policy is None:
        return result
    _SHADOW_CHECKS.inc()
    expected = object_run(reference_policy)
    if results_equivalent(result, expected):
        return result
    _SHADOW_MISMATCHES.inc()
    _quarantine_mismatch(policy, result, expected, context)
    return expected


#: Monotone per-process sequence of array-loop runs, driving shadow
#: sampling (pid-salted like the solver's, so forked shard workers
#: sample different ordinals).
_SIM_SEQ = _ProcessSeq()
