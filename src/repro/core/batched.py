"""Batched multi-scenario water-filling (``solve_max_min_batch``).

The E4/E5 sweeps, the router comparisons, and the enumeration searches
solve thousands of *independent* max-min instances.  Solving them one
at a time pays the per-round Python/NumPy dispatch overhead once per
instance per round; for the small-to-medium instances those workloads
produce, dispatch dominates arithmetic.  This module compiles N
independent routings into **one block-diagonal CSR incidence** (each
scenario's flows and links occupy a contiguous index range) and
water-fills *all scenarios simultaneously*.

Compilation (:func:`compile_batch`) lowers the whole batch in one
call.  Each distinct path is interned once per capacity mapping, so a
flow costs one dict lookup.  The CSR arrays are then built by NumPy
passes of :data:`COMPILE_CHUNK` scenarios each.  The arrays are
element-for-element what stacking per-scenario
:func:`repro.core.vectorized.compile_routing` outputs would give, and
malformed scenarios raise ``compile_routing``'s typed errors.

Each round of the water-fill then takes:

- one masked divide computes every unsaturated link's level across the
  whole batch,
- one segmented ``minimum.reduceat`` takes each scenario's own water
  level ``λ_s`` (block boundaries are segment boundaries),
- one tolerance-band comparison selects every saturating link batch-wide,
- one gather + ``bincount`` freezes flows and updates residuals/counts.

Finished scenarios stop contributing work: their water level is forced
to ``-inf`` so the saturation band never selects their links again, and
the loop runs until every scenario's per-scenario termination mask
drains.  Because the incidence is block diagonal, no arithmetic ever
mixes scenarios — every per-element float operation is *identical* to
the one the per-instance :func:`repro.core.vectorized.waterfill` kernel
performs, so batched rates are **byte-identical** to per-instance
solves (property-tested in ``tests/test_batched.py``).

Exact (``Fraction``) requests gain nothing from NumPy batching and are
dispatched per-instance to the reference solver — still through the one
:func:`solve_max_min_batch` front door, so callers keep a single entry
point for both modes.

With ``jobs > 1`` the batch is compiled once in the parent and the
stacked arrays are placed in :mod:`multiprocessing.shared_memory` via
:func:`repro.parallel.shared_arrays`; workers attach zero-copy and each
solves a contiguous scenario range directly into a shared output rates
array, so only ``(first, last)`` index pairs ever cross the pipe.

See ``docs/PERFORMANCE.md`` ("Batched multi-scenario solving") for
measured crossover points and the bench scenario ``batched_sweep``.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.allocation import Allocation, Rate
from repro.core.flows import Flow
from repro.core.routing import Link, Routing
from repro.core.vectorized import (
    _np,
    _row_hits,
    compile_routing,
)
from repro.core import vectorized as _vectorized
from repro.obs import counter, trace_span

_INF = float("inf")

#: Scenarios :func:`compile_batch` lowers per NumPy pass.  Bounds the
#: pass's int64 temporaries (sort keys, inverse and argsort arrays over
#: the chunk's incidence entries) whatever the batch size; at 64 the
#: per-pass dispatch cost is already negligible.
COMPILE_CHUNK = 64

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_SOLVES = counter("batched.solves")
_SCENARIOS = counter("batched.scenarios")
_ROUNDS = counter("batched.rounds")

#: Names (and stacking order) of the arrays a :class:`CompiledBatch`
#: carries — the schema of the shared-memory transport.
ARRAY_NAMES = (
    "flow_ptr",
    "flow_link",
    "link_ptr",
    "link_flow",
    "scn_flow_ptr",
    "scn_link_ptr",
    "scn_of_flow",
    "scn_of_link",
    "caps",
)

__all__ = [
    "ARRAY_NAMES",
    "CompiledBatch",
    "compile_batch",
    "solve_max_min_batch",
    "waterfill_batch",
]


class CompiledBatch:
    """N routings stacked into one block-diagonal CSR incidence.

    Scenario ``s`` owns the flow index range
    ``scn_flow_ptr[s]:scn_flow_ptr[s+1]`` and the link index range
    ``scn_link_ptr[s]:scn_link_ptr[s+1]``; ``flow_ptr``/``flow_link``
    and ``link_ptr``/``link_flow`` are the global CSR incidence and its
    transpose (indices already offset into the global ranges), and
    ``caps`` is the concatenated per-scenario capacity vector.
    ``scn_of_flow``/``scn_of_link`` map global ids back to scenarios.

    ``flows`` holds each scenario's flow list, index-aligned with its
    rate slice, so rate arrays can be lifted back to :class:`Allocation`
    objects; a batch rebuilt from bare arrays in a worker process
    (:meth:`from_arrays`) has ``flows is None`` — the kernel never needs
    the objects.
    """

    __slots__ = ("flows",) + ARRAY_NAMES

    def __init__(self, flows: Optional[List[List[Flow]]], arrays) -> None:
        self.flows = flows
        for name in ARRAY_NAMES:
            setattr(self, name, arrays[name])

    @property
    def num_scenarios(self) -> int:
        return len(self.scn_flow_ptr) - 1

    @property
    def num_flows(self) -> int:
        return int(self.scn_flow_ptr[-1])

    def as_arrays(self) -> Dict[str, Any]:
        """The bare-array view (the shared-memory transport payload)."""
        return {name: getattr(self, name) for name in ARRAY_NAMES}

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, Any]) -> "CompiledBatch":
        """Rebuild a kernel-ready batch from bare arrays (worker side)."""
        return cls(None, arrays)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledBatch({self.num_scenarios} scenarios, "
            f"{self.num_flows} flows, {len(self.caps)} links)"
        )


class _PathTable:
    """Paths interned per capacity mapping (:func:`compile_batch`'s state).

    A *slot* is one ``(capacity mapping, link)`` pair whose capacity is
    finite; ``caps[slot]`` is that capacity as a float.  Each distinct
    path is lowered once per mapping to the tuple of its links' slots in
    path order (infinite links dropped), so every further flow on it
    costs one dict lookup.  A path lowers to ``None`` when
    :func:`~repro.core.vectorized.compile_routing` would reject a
    scenario containing it: a link the mapping lacks, a capacity that is
    negative, not comparable or not float-convertible, or no finite link
    at all.  Each traversed link is validated once per mapping.
    """

    def __init__(self) -> None:
        self.caps: List[float] = []
        self.rows: List[Optional[Tuple[int, ...]]] = []
        # id(mapping) -> (mapping, path -> row id, link -> slot); the
        # mapping itself is held so its id cannot be reused mid-batch.
        self._mappings: Dict[int, Tuple[Mapping, Dict, Dict]] = {}

    def row_ids(self, routing: Routing, capacities: Mapping[Link, Rate]):
        """The interned row id of every flow's path, in flow order."""
        entry = self._mappings.get(id(capacities))
        if entry is None:
            entry = self._mappings[id(capacities)] = (capacities, {}, {})
        _, rows_of, slots_of = entry
        paths = routing.paths()
        ids = list(map(rows_of.get, paths))
        if None in ids:
            ids = [
                self._intern(path, capacities, rows_of, slots_of)
                if row is None else row
                for path, row in zip(paths, ids)
            ]
        return ids

    def _intern(self, path, capacities, rows_of, slots_of) -> int:
        row_id = rows_of.get(path)
        if row_id is not None:  # a repeat within the same routing
            return row_id
        row: Optional[List[int]] = []
        for link in zip(path, path[1:]):
            if link not in slots_of:
                slots_of[link] = self._slot(link, capacities)
            slot = slots_of[link]
            if slot is None:
                row = None
                break
            if slot >= 0:
                row.append(slot)
        row_id = rows_of[path] = len(self.rows)
        self.rows.append(tuple(row) if row else None)
        return row_id

    def _slot(self, link: Link, capacities: Mapping[Link, Rate]):
        """``link``'s new slot; ``-1`` if infinite, ``None`` if invalid."""
        if link not in capacities:
            return None
        capacity = capacities[link]
        try:
            if capacity < 0:
                return None
            value = float(capacity)
        except (TypeError, ValueError, OverflowError):
            # Not comparable or not float-convertible (a huge integer):
            # compile_routing re-raises it for the scenario.
            return None
        if value == _INF:
            return -1
        self.caps.append(value)
        return len(self.caps) - 1


def _offsets(counts):
    """``[0, c0, c0+c1, ...]`` — CSR pointers from per-row counts."""
    np = _np
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _ranges(starts, lens):
    """The index ranges ``starts[i]:starts[i]+lens[i]``, back to back."""
    np = _np
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.int64) + np.repeat(
        starts - (ends - lens), lens
    )


def _raise_first_error(chunk, flow_counts, failing_flow: int) -> None:
    """Re-raise ``compile_routing``'s own error for the failing scenario.

    ``failing_flow`` is the chunk-local index of the first flow whose
    path did not lower; its scenario is the first one in batch order
    that ``compile_routing`` rejects, and compiling it alone raises the
    exact typed error (and message) a per-instance solve would.
    """
    np = _np
    scenario = int(
        np.searchsorted(np.cumsum(flow_counts), failing_flow, side="right")
    )
    compile_routing(*chunk[scenario])
    raise AssertionError(
        "compile_routing accepted a scenario compile_batch rejected"
    )


def _lower_chunk(table: _PathTable, chunk, row_ids, flow_counts):
    """One NumPy pass over a chunk of scenarios' interned rows.

    Returns chunk-local ``(flow_degree, flow_link, link_degree,
    link_flow, scenario_links, caps)``: link ids number each scenario's
    finite links in first-occurrence order, and ``link_flow`` lists each
    link's flows in flow order — exactly what ``compile_routing`` builds
    per scenario.
    """
    np = _np
    S = len(flow_counts)
    used, row_of_flow = np.unique(
        np.asarray(row_ids, dtype=np.int64), return_inverse=True
    )
    rows = [table.rows[r] for r in used.tolist()]
    if None in rows:
        bad = np.fromiter((row is None for row in rows), bool, len(rows))
        _raise_first_error(
            chunk, flow_counts, int(np.argmax(bad[row_of_flow]))
        )
    row_lens = np.fromiter(map(len, rows), np.int64, len(rows))
    flat = np.fromiter(
        chain.from_iterable(rows), np.int64, int(row_lens.sum())
    )
    flow_degree = row_lens[row_of_flow]
    slot = flat[_ranges(_offsets(row_lens)[row_of_flow], flow_degree)]
    scn_of_flow = np.repeat(np.arange(S, dtype=np.int64), flow_counts)
    scn_of_entry = np.repeat(scn_of_flow, flow_degree)

    # A link is a (scenario, slot) pair; number them by first occurrence.
    key = scn_of_entry * max(len(table.caps), 1) + slot
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first), dtype=np.int64)
    flow_link = rank[inverse]
    link_slot = np.empty(len(first), dtype=np.int64)
    link_slot[flow_link] = slot
    link_scn = np.empty(len(first), dtype=np.int64)
    link_scn[flow_link] = scn_of_entry

    flow_of_entry = np.repeat(
        np.arange(len(flow_degree), dtype=np.int64), flow_degree
    )
    link_flow = flow_of_entry[np.argsort(flow_link, kind="stable")]
    caps = np.fromiter(
        map(table.caps.__getitem__, link_slot.tolist()),
        np.float64,
        len(link_slot),
    )
    return (
        flow_degree,
        flow_link,
        np.bincount(flow_link, minlength=len(first)),
        link_flow,
        np.bincount(link_scn, minlength=S),
        caps,
    )


def _batch(flows, flow_degree, flow_link, link_degree, link_flow,
           flow_counts, link_counts, caps) -> CompiledBatch:
    """A :class:`CompiledBatch` from per-flow/per-link degrees and
    per-scenario flow/link counts (the pointer arrays are their
    running sums)."""
    np = _np
    S = len(flow_counts)
    scenarios = np.arange(S, dtype=np.int64)
    arrays = {
        "flow_ptr": _offsets(flow_degree),
        "flow_link": flow_link,
        "link_ptr": _offsets(link_degree),
        "link_flow": link_flow,
        "scn_flow_ptr": _offsets(flow_counts),
        "scn_link_ptr": _offsets(link_counts),
        "scn_of_flow": np.repeat(scenarios, flow_counts),
        "scn_of_link": np.repeat(scenarios, link_counts),
        "caps": caps,
    }
    return CompiledBatch(flows, arrays)


def compile_batch(
    instances: Sequence[Tuple[Routing, Mapping[Link, Rate]]],
) -> CompiledBatch:
    """Compile every ``(routing, capacities)`` pair into one batch.

    All scenarios are lowered together: each distinct path is interned
    once per capacity mapping (every traversed link validated and
    float-converted once), so a flow costs one dict lookup, and the
    block-diagonal CSR arrays are built by NumPy passes over
    :data:`COMPILE_CHUNK` scenarios at a time.  The arrays are
    element-for-element those of stacking per-scenario
    :func:`~repro.core.vectorized.compile_routing` outputs with
    offsets.  A scenario ``compile_routing`` rejects raises its typed
    error (:class:`~repro.errors.UnknownLinkError`,
    :class:`~repro.errors.CapacityValidationError`,
    :class:`~repro.errors.UnboundedRateError`) with the same message;
    the first such scenario in batch order wins.
    """
    np = _np
    pairs = list(instances)
    table = _PathTable()
    flows: List[List[Flow]] = []
    flow_degree, flow_link, link_degree, link_flow = [], [], [], []
    flow_counts: List[int] = []
    link_counts, caps = [], []
    n_flows = n_links = 0
    for start in range(0, len(pairs), COMPILE_CHUNK):
        chunk = pairs[start:start + COMPILE_CHUNK]
        row_ids: List[int] = []
        counts: List[int] = []
        for routing, capacities in chunk:
            flows.append(routing.flows())
            ids = table.row_ids(routing, capacities)
            row_ids.extend(ids)
            counts.append(len(ids))
        f_deg, f_link, l_deg, l_flow, scn_links, c = _lower_chunk(
            table, chunk, row_ids, counts
        )
        flow_counts.extend(counts)
        flow_degree.append(f_deg)
        flow_link.append(f_link + n_links)
        link_degree.append(l_deg)
        link_flow.append(l_flow + n_flows)
        link_counts.append(scn_links)
        caps.append(c)
        n_flows += len(f_deg)
        n_links += len(l_deg)

    def _concat(chunks, dtype=np.int64):
        return np.concatenate(chunks) if chunks else np.zeros(0, dtype)

    _SCENARIOS.inc(len(pairs))
    return _batch(
        flows,
        _concat(flow_degree),
        _concat(flow_link),
        _concat(link_degree),
        _concat(link_flow),
        np.asarray(flow_counts, dtype=np.int64),
        _concat(link_counts),
        _concat(caps, np.float64),
    )


def _round_estimates(batch: CompiledBatch):
    """Estimated water-filling round count per scenario.

    Each round freezes every link sitting at the current water level, so
    the number of rounds a scenario takes is at most — and in practice
    close to — its number of *distinct initial fill levels*
    ``capacity / degree`` (every compiled link carries at least one
    flow).  The estimate only drives scheduling
    (:func:`solve_max_min_batch`'s ``sub_batches=`` ordering); it never
    touches the arithmetic.
    """
    np = _np
    levels = batch.caps / np.diff(batch.link_ptr)
    order = np.lexsort((levels, batch.scn_of_link))
    scn, levels = batch.scn_of_link[order], levels[order]
    distinct = np.ones(len(order), dtype=bool)
    distinct[1:] = (scn[1:] != scn[:-1]) | (levels[1:] != levels[:-1])
    return np.bincount(scn[distinct], minlength=batch.num_scenarios)


def _take_scenarios(batch: CompiledBatch, order) -> CompiledBatch:
    """The batch with its scenarios rearranged into ``order``.

    Each scenario's block keeps its internal flow and link numbering, so
    the result equals compiling the reordered instances.
    """
    np = _np
    flow_counts = np.diff(batch.scn_flow_ptr)[order]
    link_counts = np.diff(batch.scn_link_ptr)[order]
    # new id -> old id, and its inverse, for flows and links
    flow_old = _ranges(batch.scn_flow_ptr[order], flow_counts)
    link_old = _ranges(batch.scn_link_ptr[order], link_counts)
    flow_new = np.empty_like(flow_old)
    flow_new[flow_old] = np.arange(len(flow_old), dtype=np.int64)
    link_new = np.empty_like(link_old)
    link_new[link_old] = np.arange(len(link_old), dtype=np.int64)

    flow_degree = np.diff(batch.flow_ptr)[flow_old]
    link_degree = np.diff(batch.link_ptr)[link_old]
    flow_link = link_new[
        batch.flow_link[_ranges(batch.flow_ptr[flow_old], flow_degree)]
    ]
    link_flow = flow_new[
        batch.link_flow[_ranges(batch.link_ptr[link_old], link_degree)]
    ]
    return _batch(
        [batch.flows[s] for s in order],
        flow_degree,
        flow_link,
        link_degree,
        link_flow,
        flow_counts,
        link_counts,
        batch.caps[link_old],
    )


def waterfill_batch(batch: CompiledBatch, first: int = 0, last=None, out=None):
    """Water-fill scenarios ``[first, last)`` of ``batch`` simultaneously.

    Returns the float rate array for the range's flows (a view into
    ``out`` when given — the shared-memory path passes the global
    output array and each worker writes only its own slice).  Every
    per-element float operation matches the per-instance
    :func:`~repro.core.vectorized.waterfill` kernel exactly, so the
    rates are byte-identical to solving each scenario alone.
    """
    np = _np
    if last is None:
        last = batch.num_scenarios
    fa = int(batch.scn_flow_ptr[first])
    fb = int(batch.scn_flow_ptr[last])
    la = int(batch.scn_link_ptr[first])
    lb = int(batch.scn_link_ptr[last])
    n_flows, n_links, S = fb - fa, lb - la, last - first

    if out is None:
        rates = np.zeros(n_flows, dtype=np.float64)
    else:
        rates = out[fa:fb]
        rates[:] = 0.0
    if n_flows == 0:
        return rates

    flow_ptr, flow_link = batch.flow_ptr, batch.flow_link
    link_ptr, link_flow = batch.link_ptr, batch.link_flow
    residual = np.asarray(batch.caps[la:lb], dtype=np.float64).copy()
    count = np.diff(batch.link_ptr[la:lb + 1]).astype(np.float64)
    active = np.ones(n_flows, dtype=bool)
    remaining = np.diff(batch.scn_flow_ptr[first:last + 1]).astype(np.int64)
    scn_link = np.asarray(batch.scn_of_link[la:lb], dtype=np.int64) - first
    scn_flow = np.asarray(batch.scn_of_flow[fa:fb], dtype=np.int64) - first
    # Segment starts for the per-scenario min; a scenario with no links
    # (no flows) never activates, but its degenerate segment must not
    # index out of bounds or swallow a neighbor's minimum.
    seg_start = np.asarray(batch.scn_link_ptr[first:last], dtype=np.int64) - la
    empty_seg = np.diff(batch.scn_link_ptr[first:last + 1]) == 0
    reduce_at = np.minimum(seg_start, max(n_links - 1, 0))

    levels = np.empty(n_links, dtype=np.float64)
    delta = np.empty(n_links, dtype=np.float64)
    frozen_mask = np.zeros(n_flows, dtype=bool)
    band = _vectorized._BAND
    scn_active = remaining > 0
    rounds = 0
    _SOLVES.inc()
    with trace_span(
        "maxmin.water_fill_batched", scenarios=S, flows=n_flows
    ) as span:
        while scn_active.any():
            levels.fill(_INF)
            np.divide(residual, count, out=levels, where=count > 0.0)
            lam = np.minimum.reduceat(levels, reduce_at)
            lam[empty_seg] = _INF
            if not np.isfinite(lam[scn_active]).all():
                # Cannot happen: every unfinished scenario keeps at
                # least one of its links' counts positive.
                raise AssertionError("water-filling invariant violated")
            # Clamp float-rounding negatives (the per-instance kernel's
            # ``lam = 0.0`` guard), then silence finished scenarios so
            # the saturation band never selects their links again.
            lam[scn_active & (lam < 0.0)] = 0.0
            lam[~scn_active] = -_INF

            # Per-element the threshold formula matches the per-instance
            # kernel's scalar ``lam + _BAND * (1.0 + lam)`` exactly;
            # finished scenarios' ``-inf`` makes their band unreachable.
            lam_links = lam[scn_link]
            sat_idx = np.nonzero(
                levels <= lam_links + band * (1.0 + lam_links)
            )[0]
            # Gather the saturated links' member rows without a Python
            # loop: for each saturated link j, the row is
            # link_flow[starts[j]:starts[j]+lens[j]]; the repeat/arange
            # construction enumerates those index ranges back to back,
            # in the same order a per-link concatenation would.
            if sat_idx.size:
                starts = link_ptr[sat_idx + la]
                lens = link_ptr[sat_idx + la + 1] - starts
                total = int(lens.sum())
                ends = np.cumsum(lens)
                idx = (
                    np.arange(total, dtype=np.int64)
                    + np.repeat(starts - (ends - lens), lens)
                )
                members = link_flow[idx] - fa
            else:
                members = np.zeros(0, dtype=np.int64)
            candidates = members[active[members]]
            if candidates.size == 0:
                raise AssertionError("water-filling invariant violated")
            # Sorted-unique via a scatter mask — same result as
            # ``np.unique`` without its per-round sort.
            frozen_mask[candidates] = True
            frozen = np.nonzero(frozen_mask)[0]
            frozen_mask[frozen] = False
            rates[frozen] = lam[scn_flow[frozen]]
            active[frozen] = False
            remaining -= np.bincount(scn_flow[frozen], minlength=S)

            hit = _row_hits(
                flow_ptr, flow_link, frozen + fa, n_links, link_base=la
            )
            # ``lam[scn_link] * hit`` would be -inf·0 = NaN on finished
            # scenarios' untouched links; masking the multiply leaves
            # those deltas at 0.0, so ``residual -= delta`` is
            # bit-for-bit the per-instance kernel's
            # ``residual -= lam * hit`` (which subtracts 0.0 there too).
            delta.fill(0.0)
            np.multiply(lam_links, hit, out=delta, where=hit > 0)
            residual -= delta
            count -= hit
            scn_active = remaining > 0
            rounds += 1
        span.set(rounds=rounds)
    _ROUNDS.inc(rounds)
    _check_batch(batch, first, last, rates)
    return rates


def _check_batch(batch: CompiledBatch, first: int, last: int, rates) -> None:
    """The cheap-level certificate over the solved range, vectorized.

    Mirrors :func:`repro.core.vectorized._check_waterfill` on the
    stacked arrays; failure messages cite scenario/flow *indices*
    because worker-side batches carry no flow objects.
    """
    from repro import validate as _validate

    if _validate.validation_level() == "off":
        return
    np = _np
    fa = int(batch.scn_flow_ptr[first])
    fb = int(batch.scn_flow_ptr[last])
    la = int(batch.scn_link_ptr[first])
    lb = int(batch.scn_link_ptr[last])
    failures = []
    if not np.isfinite(rates).all():
        bad = np.nonzero(~np.isfinite(rates))[0][:5]
        scenarios = batch.scn_of_flow[bad + fa]
        failures.append(
            "non-finite (NaN/inf) rates for flow indices "
            f"{bad.tolist()!r} (scenarios {scenarios.tolist()!r})"
        )
    elif rates.size and float(rates.min()) < 0.0:
        failures.append(f"negative rates (min {float(rates.min())!r})")
    else:
        row_lens = np.diff(batch.flow_ptr[fa:fb + 1])
        weights = np.repeat(rates, row_lens)
        base = int(batch.flow_ptr[fa])
        columns = batch.flow_link[base:int(batch.flow_ptr[fb])] - la
        loads = np.bincount(columns, weights=weights, minlength=lb - la)
        caps = np.asarray(batch.caps[la:lb], dtype=np.float64)
        slack = caps + _validate.FLOAT_TOL * (1.0 + np.abs(caps))
        over = np.nonzero(loads > slack)[0]
        for j in over[:5]:
            failures.append(
                f"link index {int(j)} (scenario "
                f"{int(batch.scn_of_link[j + la])}) overloaded: load "
                f"{float(loads[j])!r} > capacity {float(caps[j])!r}"
            )
    _validate.record_check("cheap", "maxmin.batched", failures)


# ----------------------------------------------------------------------
# Shared-memory parallel solving
# ----------------------------------------------------------------------
def _solve_shared_chunk(task: Tuple[int, int]) -> int:
    """Worker: solve scenarios ``[first, last)`` from the shared batch.

    The stacked arrays (and the output rates array) live in the
    parent's shared-memory block — attached zero-copy by
    :func:`repro.parallel.shared_array`; only this ``(first, last)``
    pair crossed the pipe.
    """
    from repro.parallel import shared_array

    first, last = task
    batch = CompiledBatch.from_arrays(
        {name: shared_array(name) for name in ARRAY_NAMES}
    )
    waterfill_batch(batch, first=first, last=last, out=shared_array("rates"))
    return last - first


def _sub_batch_ranges(S: int, sub_batches: int) -> List[Tuple[int, int]]:
    """Split ``S`` scenarios into ``sub_batches`` contiguous near-equal
    ranges (fewer when ``S < sub_batches``)."""
    k = max(1, min(sub_batches, S))
    bounds = [round(S * i / k) for i in range(k + 1)]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def _batch_rates_parallel(
    batch: CompiledBatch,
    jobs: int,
    chunksize: Optional[int],
    tasks: Optional[List[Tuple[int, int]]] = None,
):
    """Solve the whole batch across worker processes, zero-copy.

    The parent compiled once; workers attach to the shared block and
    write disjoint slices of the shared ``rates`` array, so results
    need no transport at all.  Scenario ranges are contiguous — a
    range of a block-diagonal batch is itself a valid batch.  ``tasks``
    overrides the default even chunking (the ``sub_batches=`` path
    passes its round-sorted ranges directly).
    """
    np = _np
    from repro import parallel

    S = batch.num_scenarios
    if tasks is None:
        if chunksize is None:
            # A few chunks per worker evens out uneven scenario sizes
            # without drowning in per-task dispatch.
            chunksize = max(1, -(-S // (jobs * 4)))
        tasks = [(a, min(a + chunksize, S)) for a in range(0, S, chunksize)]
    arrays = dict(batch.as_arrays())
    arrays["rates"] = np.zeros(batch.num_flows, dtype=np.float64)
    with parallel.shared_arrays(arrays) as block:
        parallel.parallel_map(
            _solve_shared_chunk, tasks, jobs=jobs, shared=block
        )
        return block["rates"].copy()


# ----------------------------------------------------------------------
# The front door
# ----------------------------------------------------------------------
def solve_max_min_batch(
    instances: Sequence[Tuple[Routing, Mapping[Link, Rate]]],
    backend: str = "batched",
    exact: Optional[bool] = None,
    jobs: int = 1,
    chunksize: Optional[int] = None,
    sub_batches: int = 1,
) -> List[Allocation]:
    """Max-min fair allocations for N independent instances at once.

    ``instances`` is a sequence of ``(routing, capacities)`` pairs;
    the result list is index-aligned with it.

    - ``backend="batched"`` (default) stacks all float scenarios into
      one block-diagonal incidence and water-fills them simultaneously;
      rates are byte-identical to per-instance ``vectorized`` solves.
      ``jobs > 1`` splits the batch across worker processes over
      shared memory (``chunksize`` scenarios per task); results stay
      byte-identical to ``jobs=1``.
    - ``sub_batches > 1`` orders scenarios by estimated round count
      (distinct initial link-fill levels, :func:`_round_estimates`) and
      water-fills that order in ``sub_batches`` contiguous groups, so
      the whole batch no longer spins empty rounds waiting for the
      single deepest scenario.  Scenario arithmetic is independent
      (block-diagonal), so results stay byte-identical to
      ``sub_batches=1`` — ordering changes wall-clock only.  Composes
      with ``jobs``: each group becomes one shared-memory task.
    - ``backend="batched"`` with ``exact=True`` dispatches per-instance
      to the exact reference solver (NumPy batching cannot speed up
      ``Fraction`` arithmetic) — same entry point, ``Fraction``-identical
      results.
    - Any other ``backend`` name loops per-instance through
      :func:`repro.core.solve.solve_max_min` — callers can route every
      multi-instance workload through this one function and pick the
      kernel per call site.
    """
    pairs = [(routing, capacities) for routing, capacities in instances]
    if backend != "batched":
        from repro.core.solve import solve_max_min

        return [
            solve_max_min(routing, capacities, backend=backend, exact=exact)
            for routing, capacities in pairs
        ]
    if exact:
        from repro.core.solve import solve_max_min

        return [
            solve_max_min(routing, capacities, backend="reference", exact=True)
            for routing, capacities in pairs
        ]
    if not pairs:
        return []

    batch = compile_batch(pairs)
    order = list(range(len(pairs)))
    groups: Optional[List[Tuple[int, int]]] = None
    if sub_batches and sub_batches > 1 and len(pairs) > 1:
        estimates = _round_estimates(batch).tolist()
        order.sort(key=lambda s: (estimates[s], s))
        batch = _take_scenarios(batch, order)
        groups = _sub_batch_ranges(batch.num_scenarios, sub_batches)

    if jobs and jobs > 1 and batch.num_scenarios > 1:
        rates = _batch_rates_parallel(batch, jobs, chunksize, tasks=groups)
    elif groups is not None:
        np = _np
        rates = np.zeros(batch.num_flows, dtype=np.float64)
        for first, last in groups:
            waterfill_batch(batch, first=first, last=last, out=rates)
    else:
        rates = waterfill_batch(batch)

    from repro import validate as _validate

    full = _validate.validation_level() == "full"
    allocations: List[Optional[Allocation]] = [None] * len(pairs)
    rates = rates.tolist()
    bounds = batch.scn_flow_ptr.tolist()
    for position, scenario in enumerate(order):
        routing, capacities = pairs[scenario]
        lo, hi = bounds[position], bounds[position + 1]
        allocation = Allocation(dict(zip(batch.flows[position], rates[lo:hi])))
        if full:
            _validate.validate_allocation(
                routing, capacities, allocation,
                level="full", context="maxmin.batched",
            )
        allocations[scenario] = allocation
    return allocations
