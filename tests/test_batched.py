"""Tests for batched multi-scenario solving (:mod:`repro.core.batched`).

The contract: stacking N independent routings into one block-diagonal
batch changes *nothing* about the answers.

- Float mode is **byte-identical** to solving each instance alone with
  the ``vectorized`` backend (property-tested over random chaos
  instances, which include degenerate routings and adversarial
  capacity maps).
- ``exact=True`` is ``Fraction``-identical to the reference solver.
- ``jobs > 1`` (shared-memory transport, workers writing disjoint
  slices of one output array) is byte-identical to ``jobs=1``.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.chaos import random_instance
from repro.core import batched
from repro.core.batched import (
    ARRAY_NAMES,
    compile_batch,
    solve_max_min_batch,
    waterfill_batch,
)
from repro.core.maxmin import max_min_fair
from repro.core.routing import Routing
from repro.core.solve import solve_max_min
from repro.core.topology import ClosNetwork, MacroSwitch
from repro.core.vectorized import capacity_vector, compile_routing
from repro.errors import (
    CapacityValidationError,
    ReproError,
    UnboundedRateError,
    UnknownLinkError,
)
from repro.routers.ecmp import ecmp_routing
from repro.workloads.stochastic import uniform_random


def _chaos_pairs(seeds):
    """Solvable (routing, capacities) pairs from the chaos generator.

    Chaos instances include malformed capacity maps the solver rejects
    with typed errors; identity is only defined over the solvable ones.
    """
    pairs = []
    for seed in seeds:
        instance = random_instance(seed)
        try:
            solve_max_min(
                instance.routing, instance.capacities, backend="vectorized"
            )
        except ReproError:
            continue
        pairs.append((instance.routing, instance.capacities))
    return pairs


def _workload_pairs(n=3, scenarios=6, flows=20):
    """Well-behaved ECMP-routed random workloads on one Clos fabric."""
    network = ClosNetwork(n)
    caps = network.graph.capacities()
    pairs = []
    for seed in range(scenarios):
        workload = uniform_random(network, flows, seed=seed)
        pairs.append((ecmp_routing(network, workload, seed=seed), caps))
    return pairs


# ----------------------------------------------------------------------
# Identity properties
# ----------------------------------------------------------------------
def test_batched_bitwise_identical_to_per_instance_chaos():
    pairs = _chaos_pairs(range(24))
    assert len(pairs) >= 8  # the generator must yield real work
    batched = solve_max_min_batch(pairs)
    for (routing, capacities), alloc in zip(pairs, batched):
        single = solve_max_min(routing, capacities, backend="vectorized")
        # dict equality on floats: byte-identical rates, flow for flow
        assert alloc.rates() == single.rates()


def test_batched_bitwise_identical_to_per_instance_workloads():
    pairs = _workload_pairs()
    batched = solve_max_min_batch(pairs)
    for (routing, capacities), alloc in zip(pairs, batched):
        single = solve_max_min(routing, capacities, backend="vectorized")
        assert alloc.rates() == single.rates()


def test_batched_exact_matches_reference():
    pairs = _chaos_pairs(range(12))
    exact = solve_max_min_batch(pairs, exact=True)
    for (routing, capacities), alloc in zip(pairs, exact):
        reference = max_min_fair(routing, capacities)
        assert alloc.rates() == reference.rates()  # Fraction-identical


def test_batched_other_backend_dispatches_per_instance():
    pairs = _workload_pairs(scenarios=3)
    via_batch = solve_max_min_batch(pairs, backend="heap")
    for (routing, capacities), alloc in zip(pairs, via_batch):
        single = solve_max_min(routing, capacities, backend="heap")
        assert alloc.rates() == single.rates()


# ----------------------------------------------------------------------
# Degenerate scenarios
# ----------------------------------------------------------------------
def test_batched_empty_batch():
    assert solve_max_min_batch([]) == []


def test_batched_empty_scenario_sandwich():
    """A flowless scenario between two real ones must not perturb them."""
    pairs = _workload_pairs(scenarios=2)
    sandwich = [pairs[0], (Routing({}), {}), pairs[1]]
    batched = solve_max_min_batch(sandwich)
    assert batched[1].rates() == {}
    for (routing, capacities), alloc in zip(pairs, (batched[0], batched[2])):
        single = solve_max_min(routing, capacities, backend="vectorized")
        assert alloc.rates() == single.rates()


def test_batched_all_empty():
    batched = solve_max_min_batch([(Routing({}), {}), (Routing({}), {})])
    assert [alloc.rates() for alloc in batched] == [{}, {}]


# ----------------------------------------------------------------------
# Batch compilation: arrays identical to stacked per-scenario compiles
# ----------------------------------------------------------------------
def _stacked_compiles(pairs):
    """The nine batch arrays built the slow, obvious way: one
    ``compile_routing`` per scenario, concatenated with offsets."""
    flow_ptr, link_ptr, scn_flow_ptr, scn_link_ptr = [0], [0], [0], [0]
    flow_link, link_flow, scn_of_flow, scn_of_link, caps = [], [], [], [], []
    for s, (routing, capacities) in enumerate(pairs):
        compiled = compile_routing(routing, capacities)
        flows, links, nnz = scn_flow_ptr[-1], scn_link_ptr[-1], flow_ptr[-1]
        flow_ptr.extend((compiled.flow_ptr[1:] + nnz).tolist())
        link_ptr.extend((compiled.link_ptr[1:] + nnz).tolist())
        flow_link.extend((compiled.flow_link + links).tolist())
        link_flow.extend((compiled.link_flow + flows).tolist())
        scn_of_flow.extend([s] * len(compiled.flows))
        scn_of_link.extend([s] * len(compiled.links))
        caps.extend(capacity_vector(compiled, capacities).tolist())
        scn_flow_ptr.append(flows + len(compiled.flows))
        scn_link_ptr.append(links + len(compiled.links))
    ints = {
        "flow_ptr": flow_ptr, "flow_link": flow_link,
        "link_ptr": link_ptr, "link_flow": link_flow,
        "scn_flow_ptr": scn_flow_ptr, "scn_link_ptr": scn_link_ptr,
        "scn_of_flow": scn_of_flow, "scn_of_link": scn_of_link,
    }
    arrays = {name: np.asarray(v, dtype=np.int64) for name, v in ints.items()}
    arrays["caps"] = np.asarray(caps, dtype=np.float64)
    return arrays


def _assert_same_arrays(got, want):
    assert set(got) == set(ARRAY_NAMES) == set(want)
    for name in ARRAY_NAMES:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


def _macro_pairs(n=2, scenarios=3, flows=12):
    """Macro-switch routings: every interior link is infinite."""
    clos, macro = ClosNetwork(n), MacroSwitch(n)
    caps = macro.graph.capacities()
    return [
        (Routing.for_macro_switch(macro, uniform_random(clos, flows, seed=s)),
         caps)
        for s in range(scenarios)
    ]


def _infinite_interior_pairs(n=3, scenarios=3, flows=15):
    network = ClosNetwork(n, interior_capacity=float("inf"))
    caps = network.graph.capacities()
    pairs = []
    for seed in range(scenarios):
        workload = uniform_random(network, flows, seed=seed)
        pairs.append((ecmp_routing(network, workload, seed=seed), caps))
    return pairs


def _mixed_pairs():
    """Chaos pairs (duplicate parallel flows, Fraction/zero/huge
    capacities), ECMP workloads, an empty routing between real ones,
    and routings whose interior links are infinite."""
    return (
        _chaos_pairs(range(30))
        + _workload_pairs()
        + [(Routing({}), {})]
        + _macro_pairs()
        + _infinite_interior_pairs()
    )


def _chunk_spanning_pairs():
    """More scenarios than one compile chunk, an empty one just before
    the first chunk boundary."""
    pairs = (_chaos_pairs(range(40)) * 3)[:batched.COMPILE_CHUNK + 7]
    assert len(pairs) > batched.COMPILE_CHUNK
    pairs[batched.COMPILE_CHUNK - 1] = (Routing({}), {})
    return pairs


@pytest.mark.parametrize(
    "make", [_mixed_pairs, _chunk_spanning_pairs, list],
    ids=["mixed", "chunk-spanning", "empty"],
)
def test_compile_batch_arrays_match_stacked_compiles(make):
    pairs = make()
    batch = compile_batch(pairs)
    _assert_same_arrays(batch.as_arrays(), _stacked_compiles(pairs))
    assert batch.flows == [routing.flows() for routing, _ in pairs]


def test_take_scenarios_equals_compiling_in_that_order():
    pairs = _chaos_pairs(range(16)) + [(Routing({}), {})] + _macro_pairs()
    backwards = list(range(len(pairs)))[::-1]
    order = backwards[::2] + backwards[1::2]
    taken = batched._take_scenarios(compile_batch(pairs), order)
    _assert_same_arrays(
        taken.as_arrays(), _stacked_compiles([pairs[s] for s in order])
    )
    assert taken.flows == [pairs[s][0].flows() for s in order]


def test_round_estimates_count_distinct_fill_levels():
    pairs = _chaos_pairs(range(20)) + [(Routing({}), {})] + _workload_pairs()
    estimates = batched._round_estimates(compile_batch(pairs)).tolist()
    for (routing, capacities), estimate in zip(pairs, estimates):
        compiled = compile_routing(routing, capacities)
        degree = np.diff(compiled.link_ptr)
        levels = capacity_vector(compiled, capacities) / degree
        assert estimate == np.unique(levels).size


# ----------------------------------------------------------------------
# Typed errors: the batch raises what compile_routing raises
# ----------------------------------------------------------------------
def _missing_link_pair():
    routing, caps = _workload_pairs(scenarios=1)[0]
    caps = dict(caps)
    for link in routing.links_of(routing.flows()[0])[1:3]:
        del caps[link]
    return routing, caps


def _negative_capacity_pair():
    routing, caps = _workload_pairs(scenarios=1)[0]
    caps = dict(caps)
    caps[routing.links_of(routing.flows()[-1])[2]] = -1
    return routing, caps


def _overflowing_capacity_pair():
    """A capacity too large for a float: compile_routing's float()
    conversion raises OverflowError, not a ReproError."""
    routing, caps = _workload_pairs(scenarios=1)[0]
    caps = dict(caps)
    caps[routing.links_of(routing.flows()[1])[1]] = 10 ** 400
    return routing, caps


def _unbounded_pair():
    routing, caps = _macro_pairs(scenarios=1)[0]
    return routing, {link: float("inf") for link in caps}


def _compile_error(pair):
    with pytest.raises(Exception) as info:
        compile_routing(*pair)
    return info.value


@pytest.mark.parametrize(
    "make, kind",
    [
        (_missing_link_pair, UnknownLinkError),
        (_negative_capacity_pair, CapacityValidationError),
        (_unbounded_pair, UnboundedRateError),
        (_overflowing_capacity_pair, OverflowError),
    ],
)
def test_batch_error_matches_compile_routing(make, kind):
    bad = make()
    expected = _compile_error(bad)
    assert isinstance(expected, kind)
    good = _workload_pairs(scenarios=3) + _chaos_pairs(range(8))
    for pairs in ([bad], good + [bad], good[:2] + [bad] + good[2:]):
        with pytest.raises(kind) as info:
            solve_max_min_batch(pairs)
        assert type(info.value) is type(expected)
        assert str(info.value) == str(expected)


def test_batch_error_first_bad_scenario_wins():
    good = _workload_pairs(scenarios=2)
    missing, negative = _missing_link_pair(), _negative_capacity_pair()
    for first, second in ((missing, negative), (negative, missing)):
        expected = _compile_error(first)
        with pytest.raises(CapacityValidationError) as info:
            solve_max_min_batch(good + [first] + good + [second])
        assert type(info.value) is type(expected)
        assert str(info.value) == str(expected)


def test_batch_error_in_later_chunk():
    bad = _unbounded_pair()
    good = _workload_pairs(scenarios=1) * (batched.COMPILE_CHUNK + 3)
    expected = _compile_error(bad)
    with pytest.raises(UnboundedRateError) as info:
        solve_max_min_batch(good + [bad], sub_batches=4)
    assert str(info.value) == str(expected)


# ----------------------------------------------------------------------
# Range solving (the unit the shared-memory workers execute)
# ----------------------------------------------------------------------
def test_waterfill_batch_range_matches_full_solve():
    pairs = _workload_pairs(scenarios=5)
    batch = compile_batch(pairs)
    full = waterfill_batch(batch).copy()
    out = np.zeros(batch.num_flows, dtype=np.float64)
    for first, last in ((0, 2), (2, 3), (3, 5)):
        waterfill_batch(batch, first=first, last=last, out=out)
    assert out.tobytes() == full.tobytes()


# ----------------------------------------------------------------------
# Shared-memory parallel path
# ----------------------------------------------------------------------
def test_batched_jobs_byte_identical():
    pairs = _workload_pairs(scenarios=8)
    sequential = solve_max_min_batch(pairs, jobs=1)
    parallel = solve_max_min_batch(pairs, jobs=2)
    tiny_chunks = solve_max_min_batch(pairs, jobs=3, chunksize=1)
    for seq, par, tiny in zip(sequential, parallel, tiny_chunks):
        assert par.rates() == seq.rates()
        assert tiny.rates() == seq.rates()


def test_sub_batches_byte_identical_to_unsorted():
    pairs = _workload_pairs(scenarios=8) + _chaos_pairs(range(12))
    reference = solve_max_min_batch(pairs)
    for sub_batches in (2, 3, 8, 64):
        sorted_run = solve_max_min_batch(pairs, sub_batches=sub_batches)
        for ref, alloc in zip(reference, sorted_run):
            assert alloc.rates() == ref.rates()
    combined = solve_max_min_batch(pairs, sub_batches=4, jobs=2)
    for ref, alloc in zip(reference, combined):
        assert alloc.rates() == ref.rates()


def test_sub_batches_degenerate_inputs():
    (single,) = solve_max_min_batch(_workload_pairs(scenarios=1), sub_batches=4)
    (ref,) = solve_max_min_batch(_workload_pairs(scenarios=1))
    assert single.rates() == ref.rates()
    assert solve_max_min_batch([], sub_batches=4) == []


def test_batched_jobs_matches_per_instance_chaos():
    pairs = _chaos_pairs(range(16))
    parallel = solve_max_min_batch(pairs, jobs=2, chunksize=2)
    for (routing, capacities), alloc in zip(pairs, parallel):
        single = solve_max_min(routing, capacities, backend="vectorized")
        assert alloc.rates() == single.rates()


# ----------------------------------------------------------------------
# Validation hooks
# ----------------------------------------------------------------------
def test_batched_passes_full_validation(monkeypatch):
    from repro import validate

    pairs = _workload_pairs(scenarios=3)
    with validate.validation("full"):
        batched = solve_max_min_batch(pairs)
    for (routing, capacities), alloc in zip(pairs, batched):
        single = solve_max_min(routing, capacities, backend="vectorized")
        assert alloc.rates() == single.rates()


# ----------------------------------------------------------------------
# Callers routed through the batch front door
# ----------------------------------------------------------------------
def test_enumeration_batched_allocations_match_sequential():
    from repro.search.enumeration import batched_allocations, enumerate_routings

    network = ClosNetwork(2)
    flows = uniform_random(network, 5, seed=3)
    caps = network.graph.capacities()
    expected = sum(1 for _ in enumerate_routings(network, flows))
    seen = 0
    for routing, alloc in batched_allocations(network, flows, batch_size=4):
        single = solve_max_min(routing, caps, backend="vectorized")
        assert alloc.rates() == single.rates()
        seen += 1
    assert seen == expected


def test_r3_sweep_batched_matches_default():
    from repro.experiments.r3_doom_switch import sweep

    points = ((5, 1), (7, 2))
    default = sweep(points=points)
    batched = sweep(points=points, backend="batched")
    for ref, row in zip(default, batched):
        assert (row.n, row.k, row.num_flows) == (ref.n, ref.k, ref.num_flows)
        assert row.upper_bound_holds and ref.upper_bound_holds
        assert abs(float(row.gain) - float(ref.gain)) <= 1e-9
        assert row.num_degraded == ref.num_degraded


def test_e6_stochastic_batched_matches_default():
    from repro.experiments.ecmp_simulation import stochastic_comparison

    default = stochastic_comparison(n=2, num_flows=8, seeds=(0,))
    batched = stochastic_comparison(
        n=2, num_flows=8, seeds=(0,), backend="batched"
    )
    assert len(batched) == len(default)
    for ref, row in zip(default, batched):
        assert (row.workload, row.router, row.seed) == (
            ref.workload, ref.router, ref.seed
        )
        assert abs(
            float(row.throughput_fraction) - float(ref.throughput_fraction)
        ) <= 1e-9
        assert abs(float(row.min_rate_ratio) - float(ref.min_rate_ratio)) <= 1e-9
        assert row.lex_at_most_macro == ref.lex_at_most_macro


# ----------------------------------------------------------------------
# The fuzz-level group guard
# ----------------------------------------------------------------------
def test_chaos_batched_cross_check_clean():
    from repro.chaos import batched_cross_check

    instances = [random_instance(seed) for seed in range(10)]
    assert batched_cross_check(instances) == []
