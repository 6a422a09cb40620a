"""Micro-benchmark suite and regression gate (``repro bench``).

Runs the repo's kernel scenarios — water-filling (exact, float,
heap-accelerated), the routers, local search, and the flow simulator —
under :mod:`repro.obs` tracing and reports best/median wall time per
scenario plus the solver counters that explain the cost (water-filling
rounds, heap pops, router decisions, simulator events).

Two modes:

- **collect** (``repro bench -o BENCH_pr.json``): write a results
  document in the same format as the committed ``BENCH_baseline.json``.
- **gate** (``repro bench --against BENCH_baseline.json``): compare
  against a baseline and *fail* (exit 1) when any scenario's median
  wall time regresses by more than ``--tolerance`` (default 25%).
  Speedups are reported alongside, so "made the hot path faster" is a
  measured claim — and the counters prove the work didn't change
  (same rounds, fewer seconds).

Each scenario record also carries a per-span timing breakdown
(self/cumulative seconds per span name, from the final repeat), which
``repro bench diff A.json B.json`` uses to *attribute* wall-clock
deltas: instead of "vectorized_waterfill regressed 18%", the diff says
which spans' self time account for the movement.

``benchmarks/collect.py`` is a thin wrapper over this module kept for
the documented ``python benchmarks/collect.py`` invocation.
"""

from __future__ import annotations

import platform
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro import obs
from repro.core.maxmin import max_min_fair
from repro.core.fastmaxmin import max_min_fair_fast
from repro.core.topology import ClosNetwork
from repro.io.serialize import write_json_atomic
from repro.routers.ecmp import ecmp_routing
from repro.routers.greedy import greedy_least_congested
from repro.routers.two_choice import two_choice_routing
from repro.runner import git_sha
from repro.search.local_search import improve_routing
from repro.sim.flowsim import simulate
from repro.sim.jobs import poisson_workload
from repro.sim.policies import MaxMinCongestionControl
from repro.workloads.stochastic import permutation, uniform_random

FORMAT_NAME = "repro-bench"
FORMAT_VERSION = 1

__all__ = [
    "SCENARIOS",
    "bench_command",
    "collect",
    "compare",
    "diff_attribution",
    "diff_command",
    "format_attribution",
    "format_comparison",
]


def _big_instance():
    clos = ClosNetwork(8)
    flows = uniform_random(clos, 400, seed=0)
    return clos, flows


#: Shared inputs for the backend-comparison scenarios, built once — the
#: scenarios time *solver* work, not instance construction, so the
#: ``vectorized_waterfill`` / ``water_filling_fast_xl`` pair differs only
#: in the kernel (the vectorized side reuses its compiled incidence, the
#: way the flow simulator holds it across events).
_SOLVER_CACHE: Dict[str, Any] = {}


def _xl_instance():
    """A dense instance: 4000 flows over the 72 links of ``Clos(3)``."""
    if "xl" not in _SOLVER_CACHE:
        clos = ClosNetwork(3)
        flows = uniform_random(clos, 4000, seed=0)
        routing = ecmp_routing(clos, flows)
        _SOLVER_CACHE["xl"] = (routing, clos.graph.capacities())
    return _SOLVER_CACHE["xl"]


def _xl_compiled():
    if "xl_compiled" not in _SOLVER_CACHE:
        from repro.core.vectorized import capacity_vector, compile_routing

        routing, caps = _xl_instance()
        compiled = compile_routing(routing, caps)
        _SOLVER_CACHE["xl_compiled"] = (
            compiled, capacity_vector(compiled, caps)
        )
    return _SOLVER_CACHE["xl_compiled"]


def _quotient_instance():
    """The Theorem 4.3 construction at n = 16 (4337 flows)."""
    if "quotient" not in _SOLVER_CACHE:
        from repro.workloads.adversarial import lemma_4_6_routing, theorem_4_3

        instance = theorem_4_3(16)
        routing = lemma_4_6_routing(instance)
        _SOLVER_CACHE["quotient"] = (
            routing, instance.clos.graph.capacities()
        )
    return _SOLVER_CACHE["quotient"]


def scenario_example_2_3() -> None:
    from repro.experiments.example_2_3 import run

    run()


def scenario_water_filling_exact() -> None:
    clos, flows = _big_instance()
    routing = ecmp_routing(clos, flows)
    max_min_fair(routing, clos.graph.capacities(), exact=True)


def scenario_water_filling_float() -> None:
    clos, flows = _big_instance()
    routing = ecmp_routing(clos, flows)
    max_min_fair(routing, clos.graph.capacities(), exact=False)


def scenario_water_filling_fast() -> None:
    clos, flows = _big_instance()
    routing = ecmp_routing(clos, flows)
    max_min_fair_fast(routing, clos.graph.capacities())


def scenario_greedy_router() -> None:
    clos, flows = _big_instance()
    greedy_least_congested(clos, flows)


def scenario_two_choice_router() -> None:
    clos, flows = _big_instance()
    two_choice_routing(clos, flows, seed=0)


def scenario_local_search() -> None:
    clos = ClosNetwork(2)
    flows = permutation(clos, seed=3)
    improve_routing(clos, ecmp_routing(clos, flows), objective="lex")


def scenario_flow_simulation() -> None:
    clos = ClosNetwork(3)
    jobs = poisson_workload(clos, rate=2.0, horizon=20.0, seed=0)
    simulate(jobs, MaxMinCongestionControl(clos))


def scenario_water_filling_fast_xl() -> None:
    routing, caps = _xl_instance()
    max_min_fair_fast(routing, caps)


def scenario_vectorized_waterfill() -> None:
    from repro.core.vectorized import waterfill

    compiled, caps_vector = _xl_compiled()
    waterfill(compiled, caps_vector)


def scenario_quotient_exact() -> None:
    from repro.core.quotient import quotient_max_min

    routing, caps = _quotient_instance()
    quotient_max_min(routing, caps)


def _churn_sequence():
    """A shared n=64 Poisson churn event stream (pinned paths), built
    once — both churn scenarios absorb the *same* sequence, so their
    events/sec (``bench.churn.events`` / wall) compare like for like."""
    if "churn" not in _SOLVER_CACHE:
        import gc

        from repro.experiments.churn import churn_event_sequence

        clos = ClosNetwork(64)
        _SOLVER_CACHE["churn"] = (
            clos.graph.capacities(),
            churn_event_sequence(clos, rate=100000.0, horizon=0.5, seed=0),
        )
        # ~100k cached event tuples would otherwise sit in the young GC
        # generations and tax every later scenario's collections (a
        # measured ~20% drag on vectorized_waterfill); they live for
        # the whole bench run, so freeze them out of the GC entirely.
        gc.collect()
        gc.freeze()
    return _SOLVER_CACHE["churn"]


def scenario_flowsim_churn_event() -> None:
    """The classic loop: a from-scratch solve after every flow event
    (a 192-event prefix — the whole sequence would take minutes, which
    is the point)."""
    from repro.experiments.churn import absorb_churn

    caps, events = _churn_sequence()
    absorb_churn(caps, events, per_event=True, limit=192)


def _batch_instances():
    """128 independent small scenarios (the E4/E5-sweep workload shape):
    ``Clos(3)`` with 60 seeded-random flows each, ECMP-routed.  The
    cache holds the ``(routing, capacities)`` pairs *and* the compiled
    block-diagonal batch, so the two ``batched_sweep*`` scenarios time
    the water-fill alone — same instances, same compiled incidences,
    one stacked vs. 128 per-instance kernel invocations."""
    if "batch" not in _SOLVER_CACHE:
        from repro.core.batched import compile_batch
        from repro.core.vectorized import capacity_vector, compile_routing

        clos = ClosNetwork(3)
        caps = clos.graph.capacities()
        pairs = []
        for seed in range(128):
            flows = uniform_random(clos, 60, seed=seed)
            pairs.append((ecmp_routing(clos, flows, seed=seed), caps))
        compiled_parts = []
        for routing, capacities in pairs:
            compiled = compile_routing(routing, capacities)
            compiled_parts.append(
                (compiled, capacity_vector(compiled, capacities))
            )
        _SOLVER_CACHE["batch"] = (pairs, compile_batch(pairs), compiled_parts)
    return _SOLVER_CACHE["batch"]


def scenario_batched_sweep() -> None:
    """All 128 scenarios in one block-diagonal batched water-fill."""
    from repro.core.batched import waterfill_batch

    _, batch, _ = _batch_instances()
    waterfill_batch(batch)


def scenario_batched_sweep_perinstance() -> None:
    """The same 128 scenarios solved by 128 per-instance vectorized
    water-fills (the pre-batching dispatch this PR replaces)."""
    from repro.core.vectorized import waterfill

    _, _, compiled_parts = _batch_instances()
    for compiled, caps_vector in compiled_parts:
        waterfill(compiled, caps_vector)


def _des_workload(key: str, **kwargs):
    """A cached churn workload for the end-to-end DES scenarios."""
    if key not in _SOLVER_CACHE:
        from repro.workloads.stochastic import churn_workload

        n = kwargs.pop("n")
        clos = ClosNetwork(n)
        _SOLVER_CACHE[key] = (clos, churn_workload(clos, **kwargs))
    return _SOLVER_CACHE[key]


def _count_flow_events(jobs, result) -> None:
    from repro.obs import counter

    counter("bench.flowsim.events").inc(len(jobs) + len(result.completed))


def scenario_flowsim_churn_batched() -> None:
    """The tentpole: the *end-to-end* discrete-event simulator — Poisson
    arrivals through completion, micro-batched consults — on the array
    engine.  ~5k jobs / ~10k flow events on ``Clos(8)``; events/sec is
    ``bench.flowsim.events`` over wall.  (Before PR 10 this scenario
    timed the allocation service alone; the recorded baseline is the
    bar the full simulator now has to clear at ≥3×.)"""
    from repro.sim.policies import MaxMinCongestionControl
    from repro.sim.stream import simulate_stream

    clos, jobs = _des_workload(
        "des", n=8, rate=10000.0, horizon=0.5, mean_size=0.001, seed=0
    )
    policy = MaxMinCongestionControl(clos, backend="streaming")
    result = simulate_stream(jobs, policy, batch_window=0.02, engine="array")
    _count_flow_events(jobs, result)


def scenario_flowsim_sharded_parallel() -> None:
    """The same end-to-end loop pod-sharded across 4 worker processes
    (``simulate_sharded(jobs=4)`` over shared memory) — wall includes
    worker spawn, so this gates the parallel dispatch path, not just
    the kernel."""
    from repro.sim.stream import simulate_sharded

    clos, workload = _des_workload(
        "des_pods", n=8, rate=10000.0, horizon=0.5, mean_size=0.001,
        pods=8, seed=0,
    )
    result = simulate_sharded(
        clos, workload, pods=8, batch_window=0.02, engine="array", jobs=4
    )
    _count_flow_events(workload, result)


SCENARIOS: Dict[str, Callable[[], None]] = {
    "example_2_3": scenario_example_2_3,
    "water_filling_exact": scenario_water_filling_exact,
    "water_filling_float": scenario_water_filling_float,
    "water_filling_fast": scenario_water_filling_fast,
    "greedy_router": scenario_greedy_router,
    "two_choice_router": scenario_two_choice_router,
    "local_search": scenario_local_search,
    "flow_simulation": scenario_flow_simulation,
    "water_filling_fast_xl": scenario_water_filling_fast_xl,
    "quotient_exact": scenario_quotient_exact,
    "vectorized_waterfill": scenario_vectorized_waterfill,
    "flowsim_churn_event": scenario_flowsim_churn_event,
    "flowsim_churn_batched": scenario_flowsim_churn_batched,
    "flowsim_sharded_parallel": scenario_flowsim_sharded_parallel,
    "batched_sweep": scenario_batched_sweep,
    "batched_sweep_perinstance": scenario_batched_sweep_perinstance,
}


def collect(repeat: int = 3) -> Dict[str, Any]:
    """Run every scenario ``repeat`` times; return the results document.

    Wall times are measured with tracing on but memory tracking off
    (tracemalloc would distort allocation-heavy kernels); counters and
    the per-span breakdown come from the final run — they are identical
    across runs since every scenario is deterministic (span *times*
    jitter, but the diff tooling compares medians and shares, not raw
    nanoseconds).
    """
    from repro.obs.export import aggregate_spans

    was_enabled = obs.enabled()
    obs.enable(memory=False)
    results: Dict[str, Any] = {}
    try:
        for name, scenario in SCENARIOS.items():
            walls: List[float] = []
            snapshot: Dict[str, Any] = {}
            span_table: Dict[str, Any] = {}
            for _ in range(repeat):
                obs.reset()
                start = time.perf_counter()
                with obs.trace_span(f"bench:{name}"):
                    scenario()
                walls.append(time.perf_counter() - start)
                snapshot = obs.metrics_snapshot()
                span_table = aggregate_spans(obs.tracer().collect())
            results[name] = {
                "wall_s_best": round(min(walls), 6),
                "wall_s_median": round(statistics.median(walls), 6),
                "repeat": repeat,
                "metrics": snapshot,
                "spans": {
                    span: {
                        "count": entry["count"],
                        "cum_s": round(entry["cum_s"], 6),
                        "self_s": round(entry["self_s"], 6),
                    }
                    for span, entry in sorted(span_table.items())
                },
            }
            print(
                f"{name}: best {results[name]['wall_s_best']}s "
                f"median {results[name]['wall_s_median']}s",
                file=sys.stderr,
            )
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()

    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scenarios": results,
    }


def compare(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.25,
) -> List[Dict[str, Any]]:
    """Per-scenario median comparison of ``current`` against ``baseline``.

    Returns one row per scenario present in either document with keys
    ``scenario``, ``baseline_s``, ``current_s``, ``speedup`` (baseline /
    current; > 1 is faster), and ``regressed`` (current median more than
    ``tolerance`` slower than baseline).  Scenarios missing on one side
    are reported with ``None`` medians and never flagged as regressed.
    """
    base = baseline.get("scenarios", {})
    curr = current.get("scenarios", {})
    rows: List[Dict[str, Any]] = []
    for name in list(base) + [n for n in curr if n not in base]:
        base_median = base.get(name, {}).get("wall_s_median")
        curr_median = curr.get(name, {}).get("wall_s_median")
        speedup = None
        regressed = False
        if base_median and curr_median:
            speedup = base_median / curr_median
            regressed = curr_median > base_median * (1.0 + tolerance)
        rows.append(
            {
                "scenario": name,
                "baseline_s": base_median,
                "current_s": curr_median,
                "speedup": speedup,
                "regressed": regressed,
            }
        )
    return rows


def format_comparison(rows: List[Dict[str, Any]], tolerance: float) -> str:
    """A printable table of :func:`compare` rows."""
    from repro.analysis import format_table

    def fmt(value: Optional[float], pattern: str) -> str:
        return "-" if value is None else pattern.format(value)

    return format_table(
        ["scenario", "baseline", "current", "speedup", "status"],
        [
            [
                row["scenario"],
                fmt(row["baseline_s"], "{:.4f}s"),
                fmt(row["current_s"], "{:.4f}s"),
                fmt(row["speedup"], "{:.2f}x"),
                "REGRESSED" if row["regressed"] else "ok",
            ]
            for row in rows
        ],
        title=f"bench — medians vs baseline (tolerance {tolerance:.0%})",
    )


def diff_attribution(
    baseline: Dict[str, Any], current: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Attribute per-scenario wall-clock deltas to the spans that moved.

    For each scenario present in both documents, the median-wall delta
    is broken down by span *self*-time deltas (self times partition a
    trace's wall clock, so shares do not double count nested spans).
    Returns one row per scenario:

    ``{"scenario", "baseline_s", "current_s", "delta_s", "delta_pct",
    "spans": [{"span", "baseline_self_s", "current_self_s",
    "delta_self_s", "share"}, ...], "only_baseline": [...],
    "only_current": [...]}``

    Span rows cover only spans present **on both sides** — when the two
    documents ran different engines (an ``--engine`` A/B, or a scenario
    redefined across PRs) their span trees differ, and attributing a
    span that simply *appeared* or *vanished* as if it moved from 0s
    would mis-state where the delta came from.  One-sided spans are
    listed separately in ``only_baseline`` / ``only_current`` (each
    ``{"span", "self_s"}``, sorted by self time, largest first).

    Shared-span rows are sorted by absolute self-time delta, largest
    first; ``share`` is the fraction of the scenario's wall delta the
    span accounts for (``None`` when the wall delta is zero).
    Scenarios without span breakdowns on both sides (pre-pipeline
    baselines) get empty lists rather than an error.
    """
    base = baseline.get("scenarios", {})
    curr = current.get("scenarios", {})
    rows: List[Dict[str, Any]] = []
    for name in [n for n in base if n in curr]:
        base_median = base[name].get("wall_s_median")
        curr_median = curr[name].get("wall_s_median")
        if not base_median or not curr_median:
            continue
        delta = curr_median - base_median
        base_spans = base[name].get("spans", {})
        curr_spans = curr[name].get("spans", {})
        span_rows: List[Dict[str, Any]] = []
        for span in [s for s in base_spans if s in curr_spans]:
            base_self = base_spans[span].get("self_s", 0.0)
            curr_self = curr_spans[span].get("self_s", 0.0)
            span_delta = curr_self - base_self
            span_rows.append(
                {
                    "span": span,
                    "baseline_self_s": base_self,
                    "current_self_s": curr_self,
                    "delta_self_s": round(span_delta, 6),
                    "share": (span_delta / delta) if delta else None,
                }
            )
        span_rows.sort(key=lambda row: -abs(row["delta_self_s"]))

        def _one_sided(spans, other):
            only = [
                {"span": s, "self_s": entry.get("self_s", 0.0)}
                for s, entry in spans.items()
                if s not in other
            ]
            only.sort(key=lambda row: -row["self_s"])
            return only

        rows.append(
            {
                "scenario": name,
                "baseline_s": base_median,
                "current_s": curr_median,
                "delta_s": round(delta, 6),
                "delta_pct": delta / base_median,
                "spans": span_rows,
                "only_baseline": _one_sided(base_spans, curr_spans),
                "only_current": _one_sided(curr_spans, base_spans),
            }
        )
    rows.sort(key=lambda row: -abs(row["delta_pct"]))
    return rows


def format_attribution(
    rows: List[Dict[str, Any]], top: int = 3, threshold: float = 0.02
) -> str:
    """A printable report of :func:`diff_attribution` rows.

    Scenarios whose wall delta is under ``threshold`` (fraction of the
    baseline median) are summarized on one line; for the rest, the
    ``top`` largest span movements are itemized with their share of the
    delta.
    """
    lines: List[str] = []
    quiet = 0
    for row in rows:
        pct = row["delta_pct"] * 100.0
        if abs(row["delta_pct"]) < threshold:
            quiet += 1
            continue
        direction = "slower" if row["delta_s"] > 0 else "faster"
        lines.append(
            f"{row['scenario']}: {row['baseline_s']:.4f}s -> "
            f"{row['current_s']:.4f}s ({pct:+.1f}%, {direction})"
        )
        movers = [r for r in row["spans"][:top] if r["delta_self_s"]]
        one_sided = row.get("only_baseline", []) or row.get(
            "only_current", []
        )
        if not movers and not one_sided:
            lines.append("  (no span breakdown on both sides)")
        for mover in movers:
            share = mover["share"]
            share_text = f"{share * 100.0:.0f}% of delta" if share is not None else "-"
            lines.append(
                f"  {mover['span']}: {mover['baseline_self_s']:.4f}s -> "
                f"{mover['current_self_s']:.4f}s self "
                f"({mover['delta_self_s']:+.4f}s, {share_text})"
            )
        for side, label in (
            ("only_baseline", "baseline only"),
            ("only_current", "current only"),
        ):
            for entry in row.get(side, [])[:top]:
                lines.append(
                    f"  {entry['span']}: {entry['self_s']:.4f}s self "
                    f"({label} — not attributed)"
                )
    if quiet:
        lines.append(
            f"{quiet} scenario(s) within {threshold:.0%} of baseline"
        )
    if not rows:
        lines.append("no scenarios common to both documents")
    return "\n".join(lines)


def diff_command(
    baseline_path: str, current_path: str, top: int = 3
) -> int:
    """The ``repro bench diff`` subcommand; returns the exit code."""
    import json

    documents = []
    for path in (baseline_path, current_path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"cannot read {path}: {error}", file=sys.stderr)
            return 2
        if document.get("format") != FORMAT_NAME:
            print(
                f"{path}: not a {FORMAT_NAME} document",
                file=sys.stderr,
            )
            return 2
        documents.append(document)

    rows = diff_attribution(documents[0], documents[1])
    print(format_attribution(rows, top=top))
    # The attribution only covers scenarios present on both sides; call
    # out the asymmetric ones so a renamed or silently-dropped scenario
    # can't masquerade as "no movement".
    base_names = set(documents[0].get("scenarios", {}))
    curr_names = set(documents[1].get("scenarios", {}))
    for name in sorted(base_names - curr_names):
        print(
            f"warning: scenario in baseline but not current "
            f"(dropped?): {name}",
            file=sys.stderr,
        )
    for name in sorted(curr_names - base_names):
        print(
            f"warning: scenario in current but not baseline "
            f"(added?): {name}",
            file=sys.stderr,
        )
    return 0


def bench_command(
    output: Optional[str] = None,
    repeat: int = 5,
    against: Optional[str] = None,
    tolerance: float = 0.25,
) -> int:
    """The ``repro bench`` subcommand; returns the process exit code."""
    import json

    document = collect(repeat=repeat)
    if output:
        write_json_atomic(output, document)
        print(f"wrote {output}")
    if against is None:
        return 0

    try:
        with open(against, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"cannot read baseline: {error}", file=sys.stderr)
        return 2

    rows = compare(document, baseline, tolerance=tolerance)
    print(format_comparison(rows, tolerance))
    regressions = [row for row in rows if row["regressed"]]
    if regressions:
        names = ", ".join(row["scenario"] for row in regressions)
        print(f"regression gate FAILED: {names}", file=sys.stderr)
        return 1
    print("regression gate passed")
    return 0
