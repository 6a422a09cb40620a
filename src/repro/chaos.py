"""Chaos fuzzing: adversarial instances cross-checked across backends.

The complement of :mod:`repro.validate`: instead of certifying the
solves experiments happen to run, this module *generates* solves
designed to break solvers — zero and huge capacities, near-tied
saturation levels, degenerate single-middle routings, duplicate
parallel flows, and churn event streams replayed through the flow-level
simulator — and cross-checks every available backend against the exact
reference on each one.  Any certificate failure or cross-backend
disagreement is captured as a replayable quarantine bundle
(:mod:`repro.quarantine`), so a fuzz run never loses a reproducer.

Everything is a pure function of the seed: ``fuzz(seeds=200)`` explores
the same instances on every machine, and a failing seed from CI replays
locally with ``random_instance(seed)``.

Entry points: :func:`random_instance` / :func:`churn_snapshots`
(generation), :func:`cross_check` (one instance, all backends),
:func:`fuzz` (the harness behind ``repro fuzz --seeds N``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.errors import CertificateError, ReproError
from repro.core.allocation import Allocation, Rate
from repro.core.flows import FlowCollection
from repro.core.routing import Link, Routing
from repro.core.topology import ClosNetwork
from repro.obs import counter
from repro.quarantine import quarantine_failure
from repro.validate import rate_disagreements, validation

#: Float-vs-exact agreement tolerance for cross-checks (relative; see
#: :func:`repro.validate.rate_disagreements`).
CROSS_CHECK_TOL = 1e-6

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_INSTANCES = counter("chaos.instances")
_CHECKS = counter("chaos.checks")
_FAILURES = counter("chaos.failures")

__all__ = [
    "CROSS_CHECK_TOL",
    "ChaosInstance",
    "FuzzReport",
    "batched_cross_check",
    "churn_snapshots",
    "cross_check",
    "fuzz",
    "random_instance",
    "sim_engine_check",
    "stream_churn_check",
]

#: Capacity mutation classes ``random_instance`` draws from.
_MUTATIONS = ("unit", "zero", "huge", "near_tied", "fractional", "mixed")


class ChaosInstance(NamedTuple):
    """One generated adversarial instance."""

    name: str
    seed: int
    routing: Routing
    capacities: Dict[Link, Rate]


class FuzzReport(NamedTuple):
    """The outcome of a :func:`fuzz` run."""

    seeds: int
    instances: int
    checks: int
    #: One record per defect: seed / instance / backend / kind / detail
    #: / quarantine bundle path (None if the bundle write failed).
    failures: List[Dict[str, Any]]

    @property
    def bundles(self) -> List[str]:
        return [f["bundle"] for f in self.failures if f.get("bundle")]


def _mutate_capacities(
    rng: random.Random,
    capacities: Dict[Link, Rate],
    mutation: str,
) -> Dict[Link, Rate]:
    """Apply one capacity mutation class in place (finite links only)."""
    finite = [
        link for link, cap in capacities.items() if cap != float("inf")
    ]
    if not finite:
        return capacities
    sample = rng.sample(finite, k=max(1, len(finite) // 3))
    for link in sample:
        if mutation == "mixed":
            mutation_here = rng.choice(_MUTATIONS[1:-1])
        else:
            mutation_here = mutation
        if mutation_here == "zero":
            capacities[link] = Fraction(0)
        elif mutation_here == "huge":
            capacities[link] = Fraction(10) ** rng.randint(9, 15)
        elif mutation_here == "near_tied":
            # Levels that saturate within 1e-13 of each other probe the
            # float backends' tie-batching bands.
            capacities[link] = float(capacities[link]) * (
                1.0 + rng.choice((-1, 1)) * rng.uniform(1e-14, 1e-12)
            )
        elif mutation_here == "fractional":
            capacities[link] = Fraction(
                rng.randint(1, 7), rng.randint(1, 97)
            )
    return capacities


def random_instance(seed: int) -> ChaosInstance:
    """A deterministic adversarial instance for ``seed``.

    Varies the Clos size (1–4), the flow count (with duplicate parallel
    flows), the routing shape (uniform random vs. degenerate
    all-through-one-middle), and the capacity map (see ``_MUTATIONS``).
    """
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    network = ClosNetwork(n)

    flows = FlowCollection()
    for _ in range(rng.randint(1, 4 + 2 * n)):
        source = rng.choice(network.sources)
        dest = rng.choice(network.destinations)
        # Duplicate parallel flows stress tag handling and tie-breaks.
        flows.add_pair(source, dest, count=rng.choice((1, 1, 1, 2, 3)))

    if rng.random() < 0.25:
        shape = "degenerate"
        middles = {flow: 1 for flow in flows}
    else:
        shape = "random"
        middles = {flow: rng.randint(1, n) for flow in flows}
    routing = Routing.from_middles(network, flows, middles)

    mutation = rng.choice(_MUTATIONS)
    capacities = _mutate_capacities(
        rng, network.graph.capacities(), mutation
    )
    _INSTANCES.inc()
    return ChaosInstance(
        name=f"n{n}-{shape}-{mutation}",
        seed=seed,
        routing=routing,
        capacities=capacities,
    )


class _RecordingPolicy:
    """Wraps :class:`~repro.sim.policies.MaxMinCongestionControl`,
    snapshotting the (routing, capacities) instance of every policy
    consultation so churn states can be re-solved statically."""

    def __init__(self, inner, limit: int = 12) -> None:
        self._inner = inner
        self.pure_rates = inner.pure_rates
        self.limit = limit
        self.snapshots: List[Tuple[Routing, Dict[Link, Rate]]] = []

    def set_link_factors(self, factors) -> None:
        self._inner.set_link_factors(factors)

    def forget(self, job_id: int) -> None:
        self._inner.forget(job_id)

    def rates(self, active, remaining, now=0.0):
        from repro.sim.policies import _job_flow

        result = self._inner.rates(active, remaining, now)
        if active and len(self.snapshots) < self.limit:
            flows = FlowCollection(
                _job_flow(job) for job in active.values()
            )
            middles = {
                _job_flow(job): self._inner._pinned[jid]
                for jid, job in active.items()
            }
            self.snapshots.append(
                (
                    Routing.from_middles(
                        self._inner.network, flows, middles
                    ),
                    dict(self._inner._capacities),
                )
            )
        return result


def churn_snapshots(seed: int) -> List[ChaosInstance]:
    """Solver instances sampled from a churn stream through flowsim.

    Runs a random job mix under max-min congestion control while a
    random brownout/failure schedule degrades and recovers links, and
    captures the exact (routing, capacities) instance of every policy
    consultation — the states an eventual streaming incremental solver
    must get right.  Each snapshot cross-checks like any static
    instance.
    """
    from repro.failures.schedule import FailureSchedule
    from repro.sim.flowsim import simulate
    from repro.sim.jobs import FlowJob
    from repro.sim.policies import MaxMinCongestionControl

    rng = random.Random(seed)
    n = rng.randint(2, 3)
    network = ClosNetwork(n)
    jobs = [
        FlowJob(
            index,
            rng.choice(network.sources),
            rng.choice(network.destinations),
            round(rng.uniform(0.0, 3.0), 3),
            round(rng.uniform(0.2, 2.0), 3),
        )
        for index in range(rng.randint(4, 10))
    ]
    schedule = FailureSchedule.random_flaps(
        network,
        count=rng.randint(1, 3),
        horizon=3.0,
        seed=seed,
        severity=Fraction(rng.randint(0, 3), 4),
    )
    policy = _RecordingPolicy(MaxMinCongestionControl(network, seed=seed))
    with validation("off"):  # the snapshots are re-checked statically
        simulate(jobs, policy, max_time=60.0, failure_schedule=schedule)
    return [
        ChaosInstance(
            name=f"churn-n{n}-t{index}",
            seed=seed,
            routing=routing,
            capacities=capacities,
        )
        for index, (routing, capacities) in enumerate(policy.snapshots)
    ]


def _failure(
    instance: ChaosInstance,
    backend: str,
    kind: str,
    detail: Sequence[str],
    rates: Optional[Mapping] = None,
    directory: Optional[str] = None,
) -> Dict[str, Any]:
    """Record one defect and quarantine its instance."""
    _FAILURES.inc()
    bundle = quarantine_failure(
        instance.routing,
        instance.capacities,
        f"fuzz-{kind}",
        backend,
        None,
        seed=instance.seed,
        context=f"chaos.{instance.name}",
        failures=list(detail),
        rates=rates,
        directory=directory,
    )
    return {
        "seed": instance.seed,
        "instance": instance.name,
        "backend": backend,
        "kind": kind,
        "detail": list(detail)[:5],
        "bundle": bundle,
    }


def cross_check(
    instance: ChaosInstance,
    backends: Optional[Sequence[str]] = None,
    directory: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Solve ``instance`` on every backend and compare against reference.

    Each backend runs under ``full`` validation (certificate failures
    are defects in their own right); the quotient backend must agree
    with the exact reference *identically*, the float backends within
    :data:`CROSS_CHECK_TOL` (relative).  A backend that raises a
    :class:`~repro.errors.ReproError` is only a defect if the
    reference accepts the instance (and vice versa).  Returns one
    failure record per defect, each already quarantined.
    """
    from repro.core.solve import BACKENDS, solve_max_min

    if backends is None:
        backends = [b for b in BACKENDS if b != "reference"]
    failures: List[Dict[str, Any]] = []
    _CHECKS.inc()

    reference: Optional[Allocation] = None
    reference_error: Optional[ReproError] = None
    try:
        with validation("full"):
            reference = solve_max_min(
                instance.routing, instance.capacities, backend="reference"
            )
    except CertificateError as error:
        failures.append(
            _failure(
                instance, "reference", "certificate", error.failures,
                directory=directory,
            )
        )
        return failures  # no ground truth to compare the others against
    except ReproError as error:
        reference_error = error

    for backend in backends:
        exact = backend in ("quotient",)
        try:
            with validation("full"):
                allocation = solve_max_min(
                    instance.routing,
                    instance.capacities,
                    backend=backend,
                    exact=True if exact else False,
                )
        except CertificateError as error:
            failures.append(
                _failure(
                    instance, backend, "certificate", error.failures,
                    directory=directory,
                )
            )
            continue
        except ReproError as error:
            if reference_error is None:
                failures.append(
                    _failure(
                        instance, backend, "error-mismatch",
                        [
                            f"backend raised {type(error).__name__}: {error} "
                            "but the reference solved the instance"
                        ],
                        directory=directory,
                    )
                )
            continue
        if reference_error is not None:
            failures.append(
                _failure(
                    instance, backend, "error-mismatch",
                    [
                        f"backend solved the instance but the reference "
                        f"raised {type(reference_error).__name__}: "
                        f"{reference_error}"
                    ],
                    rates=allocation.rates(),
                    directory=directory,
                )
            )
            continue
        diffs = rate_disagreements(
            allocation.rates(),
            reference.rates(),
            tol=0.0 if exact else CROSS_CHECK_TOL,
        )
        if diffs:
            failures.append(
                _failure(
                    instance, backend, "disagreement", diffs,
                    rates=allocation.rates(), directory=directory,
                )
            )
    return failures


def batched_cross_check(
    instances: Sequence[ChaosInstance],
    directory: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Solve a *group* of instances in one block-diagonal batch and
    compare every scenario against its per-instance exact reference
    solve, all under full validation.

    This is the fuzz-level guard for :mod:`repro.core.batched`: the
    batched kernel promises per-scenario independence (block-diagonal
    stacking must never let one adversarial scenario bleed into its
    neighbors), so the whole group is solved *together* and each
    scenario's rates must still match its own reference within
    :data:`CROSS_CHECK_TOL`.  Instances the reference rejects must be
    rejected by a batched solve too (checked individually).  When the
    group solve itself fails, the failure is localized by re-solving
    one scenario at a time.  Returns quarantined failure records like
    :func:`cross_check`.
    """
    from repro.core.batched import solve_max_min_batch
    from repro.core.solve import solve_max_min

    _CHECKS.inc()
    failures: List[Dict[str, Any]] = []

    def solve_one(instance: ChaosInstance) -> Optional[Allocation]:
        """Batched solve of a single instance, recording any defect."""
        try:
            with validation("full"):
                (allocation,) = solve_max_min_batch(
                    [(instance.routing, instance.capacities)]
                )
            return allocation
        except CertificateError as error:
            failures.append(
                _failure(
                    instance, "batched", "certificate", error.failures,
                    directory=directory,
                )
            )
        except ReproError as error:
            failures.append(
                _failure(
                    instance, "batched", "error-mismatch",
                    [
                        f"batched solve raised {type(error).__name__}: "
                        f"{error} but the reference solved the instance"
                    ],
                    directory=directory,
                )
            )
        return None

    def check(instance: ChaosInstance, allocation, reference) -> None:
        diffs = rate_disagreements(
            allocation.rates(), reference.rates(), tol=CROSS_CHECK_TOL
        )
        if diffs:
            failures.append(
                _failure(
                    instance, "batched", "disagreement", diffs,
                    rates=allocation.rates(), directory=directory,
                )
            )

    solvable: List[Tuple[ChaosInstance, Allocation]] = []
    for instance in instances:
        try:
            with validation("full"):
                reference = solve_max_min(
                    instance.routing, instance.capacities, backend="reference"
                )
        except ReproError as error:
            # The reference rejects this instance (unbounded rate,
            # certificate, ...): a batched solve must reject it too.
            try:
                with validation("full"):
                    solve_max_min_batch(
                        [(instance.routing, instance.capacities)]
                    )
            except ReproError:
                continue  # agreement on rejection
            failures.append(
                _failure(
                    instance, "batched", "error-mismatch",
                    [
                        "batched solve accepted an instance the reference "
                        f"rejects with {type(error).__name__}: {error}"
                    ],
                    directory=directory,
                )
            )
            continue
        solvable.append((instance, reference))

    if not solvable:
        return failures
    try:
        with validation("full"):
            allocations = solve_max_min_batch(
                [(inst.routing, inst.capacities) for inst, _ in solvable]
            )
    except ReproError:
        # Localize: some scenario fails inside the group — find it.
        for instance, reference in solvable:
            allocation = solve_one(instance)
            if allocation is not None:
                check(instance, allocation, reference)
        return failures
    for (instance, reference), allocation in zip(solvable, allocations):
        check(instance, allocation, reference)
    return failures


def stream_churn_check(
    seed: int, directory: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Drive a seeded arrival/departure sequence *statefully* through
    :class:`~repro.core.streaming.StreamingMaxMin`.

    Unlike :func:`churn_snapshots` (which re-solves sampled states from
    scratch), this exercises the incremental path itself: every solve
    runs with ``shadow=1.0`` (cross-checked against the exact reference)
    under full validation, with randomized batch sizes, capacity
    degradations, and the occasional finite↔infinite capacity flip (the
    PR 6 ``incidence_stale`` regression class).  Disagreements are
    quarantined by the solver (reason ``stream-mismatch``, including the
    event prefix); this function converts them — and certificate
    failures — into fuzz failure records.
    """
    from repro.errors import UnboundedRateError
    from repro.core.flows import Flow
    from repro.core.streaming import StreamingMaxMin

    rng = random.Random((seed << 4) ^ 0xC4A1)
    n = rng.randint(2, 4)
    network = ClosNetwork(n)
    exact = rng.random() < 0.3
    base_caps = network.graph.capacities()
    solver = StreamingMaxMin(
        base_caps, exact=exact, shadow=1.0, quarantine_dir=directory,
        checkpoint_every=rng.choice((1, 2, 4, 16)),
    )
    name = f"stream-churn-n{n}-{'exact' if exact else 'float'}"
    failures: List[Dict[str, Any]] = []

    def _defect(kind: str, detail: Sequence[str], bundle=None):
        _FAILURES.inc()
        failures.append(
            {
                "seed": seed,
                "instance": name,
                "backend": "streaming",
                "kind": kind,
                "detail": list(detail)[:5],
                "bundle": bundle,
            }
        )

    active: List[Flow] = []
    factors: Dict[Link, Rate] = {}
    tag = 0
    mismatches = 0
    with validation("full"):
        for _ in range(rng.randint(8, 16)):
            # One batch: a few staged events, then one solve.
            for _ in range(rng.randint(1, 3)):
                if active and (rng.random() < 0.45 or len(active) > 24):
                    solver.remove(active.pop(rng.randrange(len(active))))
                else:
                    tag += 1
                    source = rng.choice(network.sources)
                    dest = rng.choice(network.destinations)
                    flow = Flow(source, dest, tag=tag)
                    try:
                        solver.add(
                            flow,
                            network.path_via(
                                source, dest, rng.randint(1, n)
                            ),
                        )
                    except UnboundedRateError:
                        continue  # every link on the path flipped to inf
                    active.append(flow)
            if rng.random() < 0.25:
                # Degrade or flip a random link's capacity.
                link = rng.choice(list(base_caps))
                roll = rng.random()
                if roll < 0.3:
                    factors[link] = float("inf")  # finite -> infinite flip
                elif roll < 0.6:
                    factors.pop(link, None)  # restore
                else:
                    factors[link] = rng.choice(
                        (0.0, 0.5, Fraction(1, 3))
                    )
                caps = dict(base_caps)
                for flink, value in factors.items():
                    caps[flink] = (
                        float("inf")
                        if value == float("inf")
                        else base_caps[flink] * value
                    )
                solver.set_capacities(caps)
            try:
                solver.solve()
            except CertificateError as error:
                _defect("certificate", error.failures)
                return failures
            except UnboundedRateError:
                # Capacity flips can leave a live flow with no finite
                # link — the typed rejection is the correct behavior;
                # restore and continue churning.
                factors.clear()
                solver.set_capacities(dict(base_caps))
            if solver.stats["mismatches"] > mismatches:
                mismatches = solver.stats["mismatches"]
                _defect(
                    "stream-mismatch",
                    ["incremental solve disagreed with the reference"],
                    bundle=solver.last_bundle,
                )
    return failures


def sim_engine_check(
    seed: int, directory: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Replay a seeded churn workload through the *object* and *array*
    micro-batched simulator loops and require equivalent results.

    The always-on variant of the simulator's sampled ``REPRO_SHADOW``
    cross-check: :func:`repro.sim.stream.simulate_stream` runs once per
    engine on the same workload, and the pair must agree under
    :func:`repro.sim.arraysim.results_equivalent` — or fail identically,
    since error parity (same exception type and message) is part of the
    engine contract.  Divergences are quarantined with reason
    ``sim-mismatch`` and reported as fuzz failure records.
    """
    from repro.sim import arraysim
    from repro.sim.policies import MaxMinCongestionControl
    from repro.sim.stream import simulate_stream
    from repro.workloads.stochastic import churn_workload

    rng = random.Random((seed << 5) ^ 0x51AE)
    n = rng.randint(2, 4)
    network = ClosNetwork(n)
    jobs = churn_workload(
        network,
        rate=rng.choice((30.0, 60.0, 120.0)),
        horizon=rng.uniform(0.4, 1.2),
        seed=seed,
    )
    max_time = rng.choice((None, None, 0.75))
    failures: List[Dict[str, Any]] = []

    outcomes: Dict[str, Tuple[str, Any]] = {}
    for engine in ("object", "array"):
        policy = MaxMinCongestionControl(network, backend="streaming")
        try:
            result = simulate_stream(
                jobs, policy, batch_window=0.02, max_time=max_time,
                engine=engine,
            )
        except ReproError as error:
            outcomes[engine] = ("error", f"{type(error).__name__}: {error}")
        else:
            outcomes[engine] = ("ok", result)
    obj_kind, obj_value = outcomes["object"]
    arr_kind, arr_value = outcomes["array"]
    if obj_kind == arr_kind == "error" and obj_value == arr_value:
        return failures  # identical typed rejection on both engines
    if obj_kind == "ok" and arr_kind == "ok":
        if arraysim.results_equivalent(arr_value, obj_value):
            return failures
        detail = arraysim._divergence(arr_value, obj_value)
    else:
        detail = [
            f"object engine: {obj_value if obj_kind == 'error' else 'ok'}",
            f"array engine: {arr_value if arr_kind == 'error' else 'ok'}",
        ]
    _FAILURES.inc()
    bundle = quarantine_failure(
        Routing({}),
        dict(network.graph.capacities()),
        reason="sim-mismatch",
        backend="array",
        exact=False,
        seed=seed,
        context="chaos.sim_engine_check:batched",
        failures=detail,
        directory=directory,
    )
    failures.append(
        {
            "seed": seed,
            "instance": f"sim-engine-batched-n{n}",
            "backend": "array",
            "kind": "sim-mismatch",
            "detail": detail[:5],
            "bundle": bundle,
        }
    )
    return failures


def fuzz(
    seeds: int,
    backends: Optional[Sequence[str]] = None,
    directory: Optional[str] = None,
    churn_every: int = 5,
) -> FuzzReport:
    """Run the harness over ``seeds`` deterministic instances.

    Every ``churn_every``-th seed additionally replays a churn stream
    through the flow-level simulator, cross-checks each sampled state
    (``churn_every=0`` disables churn), drives a stateful
    arrival/departure sequence through the streaming incremental solver
    under full validation (:func:`stream_churn_check`), solves the
    seed's whole instance group as one block-diagonal batch, checking
    each scenario against its per-instance reference solve
    (:func:`batched_cross_check`), and replays a churn workload through
    both micro-batched simulator loops (:func:`sim_engine_check`).  All defects are
    quarantined into ``directory`` (default: the ambient quarantine
    directory).
    """
    if seeds < 0:
        raise ValueError(f"seeds must be >= 0, got {seeds}")
    failures: List[Dict[str, Any]] = []
    instances = 0
    checks = 0
    for seed in range(seeds):
        batch: List[ChaosInstance] = [random_instance(seed)]
        if churn_every and seed % churn_every == 0:
            batch.extend(churn_snapshots(seed))
        for instance in batch:
            instances += 1
            checks += 1
            failures.extend(
                cross_check(instance, backends=backends, directory=directory)
            )
        if churn_every and seed % churn_every == 0:
            batched_wanted = backends is None or "batched" in backends
            if batched_wanted:
                checks += 1
                failures.extend(
                    batched_cross_check(batch, directory=directory)
                )
            streaming_wanted = backends is None or "streaming" in backends
            if streaming_wanted:
                instances += 1
                checks += 1
                failures.extend(
                    stream_churn_check(seed, directory=directory)
                )
            instances += 1
            checks += 1
            failures.extend(sim_engine_check(seed, directory=directory))
    return FuzzReport(
        seeds=seeds, instances=instances, checks=checks, failures=failures
    )
