"""Experiment "churn" — streaming allocation under live flow churn.

The paper's premise is a rate controller that re-derives the max-min
allocation whenever the unsplittable-flow set changes (§2.2); at
data-center event rates that makes the *allocator* the bottleneck, which
is exactly the regime Shah & Xie's centralized congestion control
targets (PAPERS.md).  This harness measures how far the PR's streaming
stack moves that bottleneck, comparing three configurations on the same
Poisson churn sequence (:func:`repro.workloads.stochastic.
churn_workload`):

- ``per-event`` — the classic loop: one from-scratch vectorized solve
  per solver-visible event (:func:`repro.sim.flowsim.simulate`).
- ``streaming`` — same per-event cadence, but each solve patches only
  the affected suffix of water-fill rounds
  (``MaxMinCongestionControl(backend="streaming")``); results are
  byte-identical to ``per-event``.
- ``batched`` — the micro-batching loop on top of the streaming solver
  (:func:`repro.sim.stream.simulate_stream`, optionally pod-sharded via
  :func:`repro.sim.stream.simulate_sharded`): re-solve at most once per
  ``batch_window`` of simulated time.

Each row reports wall-clock seconds, arrival-event throughput
(events/sec of the *workload*, the tentpole's headline number), solver
consultations, and the streaming solver's patched/full split.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.topology import ClosNetwork
from repro.sim.flowsim import SimulationResult, simulate
from repro.sim.policies import MaxMinCongestionControl
from repro.sim.stream import simulate_sharded, simulate_stream
from repro.workloads.stochastic import churn_workload


class ChurnRow(NamedTuple):
    """One configuration's run over the same churn sequence."""

    config: str
    n: int
    jobs: int
    #: Flow events processed (arrivals + completions).
    flow_events: int
    wall_s: float
    #: flow_events / wall_s — the tentpole's headline metric.
    events_per_sec: float
    completed: int
    work_done: float
    #: Streaming-solver split, when the config uses it (else None).
    patched: Optional[int]
    fullsolve: Optional[int]


def churn_comparison(
    n: int = 8,
    rate: float = 200.0,
    horizon: float = 2.0,
    batch_window: float = 0.05,
    pods: int = 1,
    seed: int = 0,
    configs: Sequence[str] = ("per-event", "streaming", "batched"),
    engine: str = "auto",
    jobs: int = 1,
) -> List[ChurnRow]:
    """Run the churn workload under each configuration; one row each.

    ``per-event`` and ``streaming`` produce byte-identical
    :class:`~repro.sim.flowsim.SimulationResult`\\ s (asserted here);
    ``batched`` trades bounded rate staleness (≤ ``batch_window``) for
    throughput, and with ``pods > 1`` additionally shards the (then
    pod-local) workload into independent blocks.  ``engine`` selects
    the micro-batched loop of the ``batched`` config (see
    :func:`repro.sim.stream.simulate_stream`; the per-event configs have
    one loop) and ``jobs`` the worker-process count for the sharded
    config.
    """
    network = ClosNetwork(n)
    workload = churn_workload(
        network, rate=rate, horizon=horizon, pods=pods, seed=seed
    )
    rows: List[ChurnRow] = []
    baseline: Optional[SimulationResult] = None
    for config in configs:
        policy: Optional[MaxMinCongestionControl] = None
        t0 = time.perf_counter()
        if config == "per-event":
            policy = MaxMinCongestionControl(network, backend="vectorized")
            result = simulate(workload, policy, engine=engine)
        elif config == "streaming":
            policy = MaxMinCongestionControl(network, backend="streaming")
            result = simulate(workload, policy, engine=engine)
        elif config == "batched":
            if pods > 1:
                result = simulate_sharded(
                    network, workload, pods=pods,
                    batch_window=batch_window, seed=0, engine=engine,
                    jobs=jobs,
                )
            else:
                policy = MaxMinCongestionControl(
                    network, backend="streaming"
                )
                result = simulate_stream(
                    workload, policy, batch_window=batch_window,
                    engine=engine,
                )
        else:
            raise ValueError(f"unknown churn config {config!r}")
        wall_s = time.perf_counter() - t0

        if config in ("per-event", "streaming"):
            if baseline is None:
                baseline = result
            elif result != baseline:
                raise AssertionError(
                    f"{config} diverged from the per-event baseline"
                )
        flow_events = len(workload) + len(result.completed)
        stream = getattr(policy, "_stream", None)
        stats = stream.stats if stream is not None else None
        rows.append(
            ChurnRow(
                config=config,
                n=n,
                jobs=len(workload),
                flow_events=flow_events,
                wall_s=wall_s,
                events_per_sec=flow_events / wall_s if wall_s > 0 else 0.0,
                completed=len(result.completed),
                work_done=result.work_done,
                patched=stats["patched"] if stats else None,
                fullsolve=stats["fullsolve"] if stats else None,
            )
        )
    return rows


def churn_event_sequence(
    network: ClosNetwork,
    rate: float = 100000.0,
    horizon: float = 0.5,
    mean_size: float = 0.01,
    max_live: int = 2000,
    seed: int = 0,
) -> List[Tuple[str, object, Optional[Tuple]]]:
    """The pinned add/remove event stream a simulator would hand the
    allocator: Poisson arrivals with ECMP-hashed middle pins, departures
    interleaved (oldest-biased random) to cap the live-flow count at
    ``max_live``.  This isolates the *allocation service* — no
    discrete-event bookkeeping — so absorbing it measures pure solver
    event throughput (:func:`absorb_churn`)."""
    from repro.routers.ecmp import _flow_hash
    from repro.sim.policies import _job_flow

    jobs = churn_workload(
        network, rate=rate, horizon=horizon, mean_size=mean_size, seed=seed
    )
    rng = random.Random(seed)
    num_middles = network.num_middles
    events: List[Tuple[str, object, Optional[Tuple]]] = []
    live: List[object] = []
    for job in jobs:
        flow = _job_flow(job)
        middle = (_flow_hash(flow, seed) % num_middles) + 1
        events.append(
            ("add", flow, network.path_via(job.source, job.dest, middle))
        )
        live.append(flow)
        while len(live) > max_live:
            events.append(
                ("remove", live.pop(rng.randrange(len(live))), None)
            )
    return events


def absorb_churn(
    capacities,
    events: Sequence[Tuple[str, object, Optional[Tuple]]],
    batch: int = 4096,
    per_event: bool = False,
    limit: Optional[int] = None,
) -> Dict[str, object]:
    """Feed ``events`` into the allocator and return throughput stats.

    ``per_event=False`` (the streaming service): one
    :class:`~repro.core.streaming.StreamingMaxMin` absorbing ``batch``
    events per solve.  ``per_event=True`` (the classic loop the tentpole
    displaces): a from-scratch vectorized solve after *every* event —
    pass ``limit`` to run it on a prefix of the same sequence, since at
    data-center scale that loop is exactly what's too slow to finish.

    Returns ``{"events", "wall_s", "events_per_sec", "solves", "stats"}``
    (``stats`` is the streaming solver's lifetime split, else ``None``).
    """
    from repro.obs import counter

    if limit is not None:
        events = events[:limit]
    events_counter = counter("bench.churn.events")
    solves = 0
    stats = None
    start = time.perf_counter()
    if per_event:
        from repro.core.routing import Routing
        from repro.core.vectorized import max_min_fair_vectorized

        paths = {}
        for kind, flow, path in events:
            if kind == "add":
                paths[flow] = path
            else:
                del paths[flow]
            if paths:
                max_min_fair_vectorized(Routing(dict(paths)), capacities)
            solves += 1
    else:
        from repro.core.streaming import StreamingMaxMin

        solver = StreamingMaxMin(capacities)
        pending = 0
        for kind, flow, path in events:
            if kind == "add":
                solver.add(flow, path)
            else:
                solver.remove(flow)
            pending += 1
            if pending >= batch:
                solver.solve()
                solves += 1
                pending = 0
        if pending:
            solver.solve()
            solves += 1
        stats = solver.stats
    wall_s = time.perf_counter() - start
    events_counter.inc(len(events))
    return {
        "events": len(events),
        "wall_s": wall_s,
        "events_per_sec": len(events) / wall_s if wall_s > 0 else 0.0,
        "solves": solves,
        "stats": stats,
    }
