"""Output checks for the benchmark workloads.

Every checker returns a list of human-readable problems; an empty list
means the output passed.  The checks share no code with the solvers
they judge:

- DES runs are checked by job accounting (each job completes exactly
  once, delivered work equals offered work, no job beats its size at
  link rate 1), by statistics recorded for the seed, and by the
  bottleneck certificate of :mod:`repro.core.bottleneck` on a fixed
  sample of policy consultations.
- Sweep allocations are checked by the bottleneck certificate and, on a
  few scenarios, by the exact reference water-fill.
- Theorem 4.3 allocations are compared, as ``Fraction``\\ s, with the
  closed forms of :func:`repro.core.theorems.theorem_4_3`.

Floats are compared by relative tolerance, never by bytes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence

#: Relative tolerance for every float comparison.
REL_TOL = 1e-9
#: The simulator counts a job with at most this much work left as
#: finished (its documented completion tolerance), so a job may finish
#: up to this much earlier than its size allows at link rate 1.
SIM_WORK_EPS = 1e-9


def rel_close(a: float, b: float, rel: float = REL_TOL) -> bool:
    """``a`` and ``b`` agree within ``rel`` of the larger magnitude."""
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ----------------------------------------------------------------------
# DES
# ----------------------------------------------------------------------
def des_stats(result) -> Dict[str, float]:
    """The run statistics the recorded table pins down."""
    slowdowns = sorted(done.slowdown for done in result.completed)
    count = len(slowdowns)
    p99 = slowdowns[max(0, math.ceil(0.99 * count) - 1)] if count else 0.0
    return {
        "completions": count,
        "end_time": result.end_time,
        "work_done": result.work_done,
        "mean_slowdown": math.fsum(slowdowns) / count if count else 0.0,
        "p99_slowdown": p99,
    }


def compare_stats(
    got: Mapping[str, float], want: Mapping[str, float], label: str
) -> List[str]:
    """Every statistic of ``want`` matches ``got`` within ``REL_TOL``."""
    return [
        f"{label}: {key} is {got.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if key not in got or not rel_close(float(got[key]), float(value))
    ]


def check_des_run(jobs: Sequence, result) -> List[str]:
    """Job accounting for one simulation run."""
    problems: List[str] = []
    if result.unfinished:
        problems.append(f"{len(result.unfinished)} jobs left unfinished")
    seen: Dict[int, int] = {}
    for done in result.completed:
        seen[done.job.job_id] = seen.get(done.job.job_id, 0) + 1
    expected_ids = {job.job_id for job in jobs}
    missing = expected_ids - seen.keys()
    if missing:
        problems.append(
            f"{len(missing)} jobs never completed, e.g. {sorted(missing)[:5]}"
        )
    twice = sorted(jid for jid, times in seen.items() if times > 1)
    if twice:
        problems.append(f"jobs completed more than once: {twice[:5]}")
    stray = seen.keys() - expected_ids
    if stray:
        problems.append(f"completions for unknown jobs: {sorted(stray)[:5]}")
    offered = math.fsum(job.size for job in jobs)
    if not rel_close(result.work_done, offered):
        problems.append(
            f"work_done {result.work_done!r} != offered work {offered!r}"
        )
    # Link capacity is 1, so a job of size s needs at least s time,
    # less the work the simulator may leave unserved at completion.
    too_fast = [
        done.job.job_id
        for done in result.completed
        if done.duration < done.job.size * (1.0 - REL_TOL) - SIM_WORK_EPS
        or done.completion_time < done.job.arrival
    ]
    if too_fast:
        problems.append(
            f"{len(too_fast)} jobs finished faster than their size allows, "
            f"e.g. {too_fast[:5]}"
        )
    return problems


def sample_indices(count: int, size: int) -> List[int]:
    """A fixed, evenly spread sample of ``size`` indices in ``range(count)``."""
    if count <= 0:
        return []
    if count <= size:
        return list(range(count))
    return sorted({round(i * (count - 1) / (size - 1)) for i in range(size)})


def certify_consult(network, jobs: Sequence, rates: Mapping[int, float]) -> List[str]:
    """Bottleneck certificate for one policy consultation.

    ``jobs`` are the active jobs handed to the policy and ``rates`` its
    answer.  The routing is rebuilt with the public ECMP router, which
    pins each flow by the same per-flow hash the policy uses, so a rate
    computed for any other routing fails the certificate.
    """
    from repro.core.allocation import Allocation
    from repro.core.bottleneck import certify_max_min_fair
    from repro.core.flows import Flow, FlowCollection
    from repro.routers.ecmp import ecmp_routing

    flows = FlowCollection(
        Flow(job.source, job.dest, tag=job.job_id) for job in jobs
    )
    routing = ecmp_routing(network, flows, seed=0)
    allocation = Allocation(
        {flow: float(rates.get(flow.tag, 0.0)) for flow in flows}
    )
    defect = certify_max_min_fair(
        routing, allocation, network.graph.capacities(), tol=REL_TOL
    )
    return [] if defect is None else [f"consult certificate: {defect[:300]}"]


# ----------------------------------------------------------------------
# Scenario sweep
# ----------------------------------------------------------------------
def check_same_allocations(reference: Sequence, got: Sequence) -> List[str]:
    """``got`` matches ``reference`` scenario by scenario, flow by flow."""
    if len(got) != len(reference):
        return [f"{len(got)} allocations, expected {len(reference)}"]
    problems: List[str] = []
    for index, (want, have) in enumerate(zip(reference, got)):
        want_rates, have_rates = want.rates(), have.rates()
        if want_rates.keys() != have_rates.keys():
            problems.append(f"scenario {index}: flow set differs")
            continue
        bad = [
            flow
            for flow, rate in want_rates.items()
            if not rel_close(float(have_rates[flow]), float(rate))
        ]
        if bad:
            problems.append(f"scenario {index}: rate differs for {bad[:3]!r}")
        if len(problems) >= 5:
            break
    return problems


def certify_scenarios(pairs: Sequence, allocations: Sequence, indices) -> List[str]:
    """Bottleneck certificate (``tol=1e-9``) on the sampled scenarios."""
    from repro.core.bottleneck import certify_max_min_fair

    problems = []
    for index in indices:
        routing, capacities = pairs[index]
        defect = certify_max_min_fair(
            routing, allocations[index], capacities, tol=REL_TOL
        )
        if defect is not None:
            problems.append(f"scenario {index} certificate: {defect[:300]}")
    return problems


def agree_with_exact(pairs: Sequence, allocations: Sequence, indices) -> List[str]:
    """Float rates agree with the exact reference water-fill."""
    from repro.core.maxmin import max_min_fair

    problems = []
    for index in indices:
        routing, capacities = pairs[index]
        exact = max_min_fair(routing, capacities, exact=True)
        got = allocations[index]
        bad = [
            flow
            for flow, rate in exact.items()
            if not rel_close(float(got.rate(flow)), float(rate))
        ]
        if bad or len(got) != len(exact):
            problems.append(
                f"scenario {index} disagrees with the exact solve on {bad[:3]!r}"
            )
    return problems


# ----------------------------------------------------------------------
# Theorem 4.3
# ----------------------------------------------------------------------
def _type_of(label: str) -> str:
    """Instance flow-type labels (``type2a``) to the theorem's (``type2``)."""
    return "type2" if label.startswith("type2") else label


def check_theorem_4_3(instance, macro, lex) -> List[str]:
    """Both allocations equal the closed forms exactly, flow by flow."""
    from repro.core.theorems import theorem_4_3

    n = instance.clos.n
    prediction = theorem_4_3(n)
    problems: List[str] = []
    for label, allocation, table in (
        ("macro", macro, prediction.macro_rates),
        ("lex", lex, prediction.lex_max_min_rates),
    ):
        if len(allocation) != len(instance.flows):
            problems.append(
                f"n={n} {label}: {len(allocation)} rates for "
                f"{len(instance.flows)} flows"
            )
        for flow_type, flows in instance.types.items():
            want = table[_type_of(flow_type)]
            wrong = [
                flow
                for flow in flows
                if not isinstance(allocation.rate(flow), Fraction)
                or allocation.rate(flow) != want
            ]
            if wrong:
                problems.append(
                    f"n={n} {label} {flow_type}: {len(wrong)} flows off "
                    f"{want}, e.g. {allocation.rate(wrong[0])!r}"
                )
    (type3,) = instance.types["type3"]
    factor = lex.rate(type3) / macro.rate(type3)
    if factor != Fraction(1, n) or factor != prediction.starvation_factor:
        problems.append(f"n={n}: starvation factor {factor}, expected 1/{n}")
    return problems
