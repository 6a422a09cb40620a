"""NumPy-vectorized float water-filling (the ``vectorized`` backend).

The heap solvers (:mod:`repro.core.maxmin`, :mod:`repro.core.fastmaxmin`)
walk flows and links one Python object at a time.  For the large float
simulations — thousands of flows over a few dozen Clos links — the
interpreter loop dominates.  This module compiles a routing *once* into a
CSR-style sparse flow×link incidence (plain int arrays) and then runs
water-filling as a handful of array operations per round:

- per-link saturation levels via one vectorized divide,
- the next water level via one ``min``,
- a tolerance band selecting every link saturating at that level,
- freezes and residual/count updates via boolean masks and ``bincount``.

Rounds are bounded by the number of finite links (every round saturates
at least one), so total cost is ``O(rounds · (F·P + L))`` in C instead
of per-element Python.  The dense adversarial instances — ``Clos(3)``
carries thousands of flows over 72 finite links — finish in tens of
rounds regardless of flow count, which is where the kernel shines.

Compilation (:func:`compile_routing`) is pure-Python and costs one pass
over the routing; callers that re-solve the same routing under changing
capacities (the flow-level simulator during link degradations) should
compile once, then call :func:`waterfill` per capacity vector.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as _np

from repro.errors import UnboundedRateError
from repro.core.allocation import Allocation, Rate
from repro.core.flows import Flow
from repro.core.maxmin import validate_capacities
from repro.core.routing import Link, Routing
from repro.obs import counter, trace_span

_INF = float("inf")

#: Relative width of the saturation band: links within
#: ``level + _BAND·(1 + level)`` of the round's minimum freeze together.
#: Wide enough to absorb divide rounding, narrow enough (≪ the 1e-12
#: agreement contract) not to move any rate observably.
_BAND = 1e-14

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_SOLVES = counter("vectorized.solves")
_COMPILES = counter("vectorized.compiles")
_ROUNDS = counter("vectorized.rounds")

__all__ = [
    "CompiledRouting",
    "compile_routing",
    "capacity_vector",
    "incidence_stale",
    "waterfill",
    "max_min_fair_vectorized",
]


class CompiledRouting:
    """A routing lowered to CSR-style integer incidence arrays.

    ``flows[i]`` is the flow with index ``i``; ``links[j]`` the finite
    link with index ``j`` (infinite-capacity links never constrain and
    are dropped at compile time).  ``flow_link[flow_ptr[i]:flow_ptr[i+1]]``
    are the link indices on flow ``i``'s path; ``link_flow`` /
    ``link_ptr`` is the transpose.  ``infinite_links`` records the
    traversed links that were *infinite* at compile time (and hence
    dropped from the incidence) so :func:`incidence_stale` can detect a
    later capacity change flipping the finite-link membership.
    """

    __slots__ = (
        "flows",
        "links",
        "flow_ptr",
        "flow_link",
        "link_ptr",
        "link_flow",
        "infinite_links",
    )

    def __init__(
        self,
        flows: List[Flow],
        links: List[Link],
        flow_ptr,
        flow_link,
        link_ptr,
        link_flow,
        infinite_links=(),
    ) -> None:
        self.flows = flows
        self.links = links
        self.flow_ptr = flow_ptr
        self.flow_link = flow_link
        self.link_ptr = link_ptr
        self.link_flow = link_flow
        self.infinite_links = frozenset(infinite_links)

    def __len__(self) -> int:
        return len(self.flows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledRouting({len(self.flows)} flows, "
            f"{len(self.links)} finite links)"
        )


def compile_routing(
    routing: Routing, capacities: Mapping[Link, Rate]
) -> CompiledRouting:
    """Lower ``routing`` to incidence arrays over its finite links.

    ``capacities`` is consulted only to decide which links are finite —
    the compiled structure stays valid across capacity *changes* (link
    degradations) as long as no finite link becomes infinite or vice
    versa.  Raises :class:`~repro.errors.UnboundedRateError` if some flow
    crosses only infinite links.
    """
    np = _np
    link_flows = routing.flows_per_link()
    validate_capacities(link_flows, capacities)

    flows = routing.flows()
    links = [
        link for link in link_flows if float(capacities[link]) != _INF
    ]
    infinite = [
        link for link in link_flows if float(capacities[link]) == _INF
    ]
    link_index: Dict[Link, int] = {link: j for j, link in enumerate(links)}
    flow_index: Dict[Flow, int] = {flow: i for i, flow in enumerate(flows)}

    flow_ptr = np.zeros(len(flows) + 1, dtype=np.int64)
    flow_link_ids: List[int] = []
    unbounded: List[Flow] = []
    for i, flow in enumerate(flows):
        finite = [
            link_index[link]
            for link in routing.links_of(flow)
            if link in link_index
        ]
        if not finite:
            unbounded.append(flow)
        flow_link_ids.extend(finite)
        flow_ptr[i + 1] = len(flow_link_ids)
    if unbounded:
        raise UnboundedRateError(
            f"flows with no finite-capacity link on their path: {unbounded!r}"
        )

    link_ptr = np.zeros(len(links) + 1, dtype=np.int64)
    link_flow_ids: List[int] = []
    for j, link in enumerate(links):
        link_flow_ids.extend(flow_index[f] for f in link_flows[link])
        link_ptr[j + 1] = len(link_flow_ids)

    _COMPILES.inc()
    return CompiledRouting(
        flows,
        links,
        flow_ptr,
        np.asarray(flow_link_ids, dtype=np.int64),
        link_ptr,
        np.asarray(link_flow_ids, dtype=np.int64),
        infinite_links=infinite,
    )


def incidence_stale(
    compiled: CompiledRouting, capacities: Mapping[Link, Rate]
) -> bool:
    """Whether ``capacities`` invalidates ``compiled``'s link membership.

    The compiled incidence freezes *which* links are finite; capacity
    changes that only rescale finite links keep it valid, but a link
    crossing the finite/infinite boundary (a total link failure modeled
    as infinite, or an infinite interior link acquiring a budget) does
    not.  Callers re-solving under evolving capacities (the flow-level
    simulator replaying a :class:`~repro.failures.schedule.FailureSchedule`)
    must recompile when this returns True.
    """
    for link in compiled.links:
        if float(capacities[link]) == _INF:
            return True
    for link in compiled.infinite_links:
        if float(capacities[link]) != _INF:
            return True
    return False


def capacity_vector(
    compiled: CompiledRouting, capacities: Mapping[Link, Rate]
):
    """The float capacity array matching ``compiled.links`` order."""
    np = _np
    return np.asarray(
        [float(capacities[link]) for link in compiled.links],
        dtype=np.float64,
    )


def _row_hits(flow_ptr, flow_link, frozen_ids, n_links, link_base=0):
    """Per-link occurrence counts over ``frozen_ids``' CSR rows.

    A vectorized multi-slice gather of the rows followed by one
    ``bincount`` — the round kernel's "remove these flows from every
    link they cross" step, shared with the streaming solver's
    checkpoint replay (:mod:`repro.core.streaming`) and the batched
    multi-scenario kernel (:mod:`repro.core.batched`, which passes
    ``link_base`` to translate global block-diagonal link ids into the
    chunk-local range ``[0, n_links)``).
    """
    np = _np
    lens = flow_ptr[frozen_ids + 1] - flow_ptr[frozen_ids]
    total = int(lens.sum())
    offsets = np.repeat(np.cumsum(lens) - lens, lens)
    idx = (
        np.repeat(flow_ptr[frozen_ids], lens)
        + np.arange(total, dtype=np.int64)
        - offsets
    )
    columns = flow_link[idx]
    if link_base:
        columns = columns - link_base
    return np.bincount(columns, minlength=n_links)


def _run_rounds(
    flow_ptr,
    flow_link,
    gather_members,
    n_links,
    residual,
    count,
    active,
    rates,
    remaining,
    start_round: int = 0,
    on_round_start=None,
    on_round_end=None,
):
    """The water-filling round loop over raw incidence arrays.

    Mutates ``residual`` / ``count`` / ``active`` / ``rates`` in place
    and returns the number of rounds executed.  ``gather_members(sat_idx)``
    must return the (possibly stale/frozen — they are mask-filtered)
    member flow ids of the saturating links; the indirection lets the
    streaming solver run the identical float operation sequence over its
    mutable slot arrays, which is what makes incremental suffix
    resumption bit-exact against a from-scratch solve.  ``on_round_start``
    observes the pre-round ``(residual, count)`` state (checkpointing);
    ``on_round_end`` observes each round's freeze level and frozen ids
    (trace recording).  Neither hook may mutate the arrays.
    """
    np = _np
    levels = np.empty(n_links, dtype=np.float64)
    rnd = start_round
    while remaining > 0:
        alive = count > 0
        if not alive.any():
            # Cannot happen: every active flow keeps each of its
            # links' counts positive.
            raise AssertionError("water-filling invariant violated")
        if on_round_start is not None:
            on_round_start(rnd, residual, count)
        levels.fill(_INF)
        np.divide(residual, count, out=levels, where=alive)
        lam = float(levels.min())
        if lam < 0.0:
            # Float rounding can leave a residual at -1e-16; clamp
            # so the resulting rates stay non-negative.
            lam = 0.0
        sat_idx = np.nonzero(levels <= lam + _BAND * (1.0 + lam))[0]

        # Freeze the active flows on the saturating links.  Each
        # round touches only those links' member slices (not the
        # whole incidence), so total gather work across all rounds
        # is O(nnz).
        members = gather_members(sat_idx)
        frozen_ids = members[active[members]]
        if frozen_ids.size == 0:
            # Every member of the argmin link was already frozen —
            # impossible while its count stays positive.
            raise AssertionError("water-filling invariant violated")
        frozen_ids = np.unique(frozen_ids)
        rates[frozen_ids] = lam
        active[frozen_ids] = False
        remaining -= int(frozen_ids.size)

        hit = _row_hits(flow_ptr, flow_link, frozen_ids, n_links)
        residual -= lam * hit
        count -= hit
        if on_round_end is not None:
            on_round_end(rnd, lam, frozen_ids)
        rnd += 1
        _ROUNDS.inc()
    return rnd - start_round


def waterfill(compiled: CompiledRouting, caps) -> "Sequence[float]":
    """Vectorized progressive filling; returns per-flow rates as a
    float array indexed like ``compiled.flows``.

    Each round: compute every unsaturated link's saturation level
    ``residual / unfrozen_count``, take the minimum ``λ``, saturate every
    link within a relative tolerance band of ``λ`` (batching exact ties
    and divide-rounding twins), freeze their unfrozen flows at ``λ``, and
    decrement residuals/counts on all links those flows cross via one
    ``bincount``.  Freeze levels are non-decreasing, so the result is the
    max-min fair allocation — agreeing with the heap solvers to well
    under 1e-12.
    """
    np = _np
    n_flows = len(compiled.flows)
    n_links = len(compiled.links)
    rates = np.zeros(n_flows, dtype=np.float64)
    if n_flows == 0:
        return rates

    residual = np.asarray(caps, dtype=np.float64).copy()
    if residual.shape != (n_links,):
        raise ValueError(
            f"capacity vector has shape {residual.shape}, "
            f"expected ({n_links},)"
        )
    count = np.diff(compiled.link_ptr).astype(np.float64)
    active = np.ones(n_flows, dtype=bool)
    remaining = n_flows
    link_ptr, link_flow = compiled.link_ptr, compiled.link_flow

    def gather_members(sat_idx):
        return np.concatenate(
            [link_flow[link_ptr[j]:link_ptr[j + 1]] for j in sat_idx]
        )

    _SOLVES.inc()
    with trace_span("maxmin.water_fill_vectorized", flows=n_flows) as span:
        rounds = _run_rounds(
            compiled.flow_ptr,
            compiled.flow_link,
            gather_members,
            n_links,
            residual,
            count,
            active,
            rates,
            remaining,
        )
        span.set(rounds=rounds)

    _check_waterfill(compiled, np.asarray(caps, dtype=np.float64), rates)
    return rates


def _check_waterfill(compiled: CompiledRouting, caps, rates) -> None:
    """The ``cheap``-level certificate, vectorized.

    Runs whenever validation is enabled (``full`` adds nothing here —
    the bottleneck certificate needs flow/link objects and lives in the
    :class:`~repro.core.allocation.Allocation`-returning entry points).
    NaN/overflow detection and per-link feasibility are pure array ops
    so the check stays inside the bench budget on the hot simulation
    path.
    """
    from repro import validate as _validate

    level = _validate.validation_level()
    if level == "off":
        return
    np = _np
    failures = []
    if not np.isfinite(rates).all():
        bad = [
            compiled.flows[i]
            for i in np.nonzero(~np.isfinite(rates))[0][:5]
        ]
        failures.append(f"non-finite (NaN/inf) rates for flows: {bad!r}")
    elif rates.size and float(rates.min()) < 0.0:
        failures.append(f"negative rates (min {float(rates.min())!r})")
    else:
        weights = np.repeat(rates, np.diff(compiled.flow_ptr))
        loads = np.bincount(
            compiled.flow_link, weights=weights, minlength=len(compiled.links)
        )
        slack = caps + _validate.FLOAT_TOL * (1.0 + np.abs(caps))
        over = np.nonzero(loads > slack)[0]
        for j in over[:5]:
            failures.append(
                f"link {compiled.links[j]!r} overloaded: load "
                f"{float(loads[j])!r} > capacity {float(caps[j])!r}"
            )
    _validate.record_check("cheap", "maxmin.vectorized", failures)


def max_min_fair_vectorized(
    routing: Routing,
    capacities: Mapping[Link, Rate],
    compiled: CompiledRouting = None,
) -> Allocation:
    """Float max-min fair allocation via the vectorized kernel.

    Semantics identical to :func:`repro.core.maxmin.max_min_fair` with
    ``exact=False``.  Pass a pre-built ``compiled`` (from
    :func:`compile_routing`) to skip recompilation when re-solving the
    same routing under different capacities.
    """
    if compiled is None:
        if not routing.flows():
            return Allocation({})
        compiled = compile_routing(routing, capacities)
    rates = waterfill(compiled, capacity_vector(compiled, capacities))
    allocation = Allocation(
        {flow: float(rate) for flow, rate in zip(compiled.flows, rates)}
    )
    from repro import validate as _validate

    # waterfill already ran the cheap array checks; only the full-level
    # bottleneck certificate needs the allocation-level pass.
    if _validate.validation_level() == "full":
        _validate.validate_allocation(
            routing, capacities, allocation,
            level="full", context="maxmin.vectorized",
        )
    return allocation
