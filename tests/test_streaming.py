"""Tests for :mod:`repro.core.streaming` — incremental max-min
water-filling under flow churn.

The load-bearing property: after *every* prefix of a random
arrival/departure sequence, the streaming solver's rates are
bit-identical (float mode) to a from-scratch vectorized solve of the
same flow set, and ``Fraction``-identical (exact mode) to the reference
solver.  Plus the PR 6 ``incidence_stale`` regression class (a
finite↔infinite capacity flip), validation edges, and the
``stream-mismatch`` quarantine path.
"""

import random

import pytest

from repro.core.flows import Flow
from repro.core.routing import Routing
from repro.errors import UnboundedRateError, UnknownLinkError


INF = float("inf")


def random_fabric(seed, n_nodes=10, n_links=36):
    rng = random.Random(seed)
    nodes = [f"v{i}" for i in range(n_nodes)]
    caps = {}
    while len(caps) < n_links:
        a, b = rng.sample(nodes, 2)
        caps[(a, b)] = rng.choice([0.5, 1.0, 2.0, 3.0, INF])
    return nodes, caps


def random_path(rng, nodes, caps):
    """A simple path with at least one finite link, or ``None``."""
    for _ in range(200):
        path = [rng.choice(nodes)]
        links = []
        for _ in range(rng.randint(1, 4)):
            onward = [b for (a, b) in caps if a == path[-1] and b not in path]
            if not onward:
                break
            nxt = rng.choice(onward)
            links.append((path[-1], nxt))
            path.append(nxt)
        if links and any(caps[link] != INF for link in links):
            return tuple(path)
    return None


def churn_step(rng, solver, live, counter, nodes, caps, p_remove=0.45):
    """Stage 1–3 random arrivals/departures; returns the event count."""
    staged = 0
    for _ in range(rng.randint(1, 3)):
        if live and rng.random() < p_remove:
            flow = rng.choice(sorted(live, key=repr))
            solver.remove(flow)
            del live[flow]
            staged += 1
        else:
            path = random_path(rng, nodes, caps)
            if path is None:
                continue
            flow = Flow(path[0], path[-1], tag=f"f{next(counter)}")
            solver.add(flow, path)
            live[flow] = path
            staged += 1
    return staged


def counter_gen():
    i = 0
    while True:
        yield i
        i += 1


class TestBitIdentity:
    """Streaming float rates must equal from-scratch vectorized rates
    bit-for-bit after every solve of a churn sequence."""

    @pytest.mark.parametrize("seed", [0, 7, 23])
    @pytest.mark.parametrize("checkpoint_every", [1, 3, 16])
    def test_prefixes_match_from_scratch(self, seed, checkpoint_every):
        from repro.core.streaming import StreamingMaxMin
        from repro.core.vectorized import max_min_fair_vectorized

        nodes, caps = random_fabric(seed)
        rng = random.Random(seed + 1)
        solver = StreamingMaxMin(caps, checkpoint_every=checkpoint_every)
        live, ids = {}, counter_gen()
        for step in range(60):
            churn_step(rng, solver, live, ids, nodes, caps)
            if not live:
                continue
            rates = solver.solve()
            fresh = max_min_fair_vectorized(Routing(dict(live)), caps)
            for flow in live:
                assert rates[flow] == fresh.rate(flow), (
                    f"seed {seed} step {step}: {flow} diverged "
                    f"({rates[flow]!r} != {fresh.rate(flow)!r})"
                )

    def test_aggressive_compaction_stays_identical(self):
        from repro.core.streaming import StreamingMaxMin
        from repro.core.vectorized import max_min_fair_vectorized

        nodes, caps = random_fabric(3)
        rng = random.Random(4)
        solver = StreamingMaxMin(
            caps, checkpoint_every=2, max_dead_fraction=0.0
        )
        live, ids = {}, counter_gen()
        for step in range(50):
            churn_step(rng, solver, live, ids, nodes, caps, p_remove=0.5)
            if not live:
                continue
            rates = solver.solve()
            fresh = max_min_fair_vectorized(Routing(dict(live)), caps)
            for flow in live:
                assert rates[flow] == fresh.rate(flow), step


class TestExactMode:
    def test_prefixes_match_reference_exactly(self):
        from repro.core.solve import solve_max_min
        from repro.core.streaming import StreamingMaxMin

        nodes, caps = random_fabric(11)
        rng = random.Random(12)
        solver = StreamingMaxMin(caps, exact=True, checkpoint_every=2)
        live, ids = {}, counter_gen()
        for step in range(40):
            churn_step(rng, solver, live, ids, nodes, caps)
            if not live:
                continue
            rates = solver.solve()
            reference = solve_max_min(
                Routing(dict(live)), caps, backend="reference", exact=True
            )
            for flow in live:
                assert rates[flow] == reference.rate(flow), step


class TestCapacityChurn:
    """The PR 6 ``incidence_stale`` class: flipping a link between
    finite and infinite must recompile, value brownouts must not."""

    def test_finite_infinite_flip(self):
        from repro.core.streaming import StreamingMaxMin
        from repro.core.vectorized import max_min_fair_vectorized

        nodes, caps = random_fabric(21)
        caps = dict(caps)
        flip = next(link for link, cap in caps.items() if cap != INF)
        rng = random.Random(22)
        solver = StreamingMaxMin(caps, checkpoint_every=4)
        live, ids = {}, counter_gen()
        for step in range(45):
            churn_step(rng, solver, live, ids, nodes, caps, p_remove=0.3)
            if step == 15:  # total failure modeled as infinite capacity
                caps[flip] = INF
                solver.set_capacities(caps)
                survivors = {
                    flow: path
                    for flow, path in live.items()
                    if any(
                        caps[link] != INF for link in zip(path, path[1:])
                    )
                }
                for flow in list(live):
                    if flow not in survivors:
                        solver.remove(flow)
                live = survivors
            if step == 30:  # recovery
                caps[flip] = 1.0
                solver.set_capacities(caps)
            if not live:
                continue
            rates = solver.solve()
            fresh = max_min_fair_vectorized(Routing(dict(live)), caps)
            for flow in live:
                assert rates[flow] == fresh.rate(flow), step

    def test_value_only_change_needs_no_recompile(self):
        from repro.core.streaming import StreamingMaxMin
        from repro.core.vectorized import max_min_fair_vectorized

        caps = {("a", "b"): 2.0, ("b", "c"): 4.0}
        flows = [Flow("a", "c", tag=str(i)) for i in range(3)]
        solver = StreamingMaxMin(caps)
        for flow in flows:
            solver.add(flow, ("a", "b", "c"))
        solver.solve()
        recompiles = solver.stats["recompiles"]
        caps = {("a", "b"): 1.0, ("b", "c"): 4.0}
        solver.set_capacities(caps)
        rates = solver.solve()
        assert solver.stats["recompiles"] == recompiles
        fresh = max_min_fair_vectorized(
            Routing({flow: ("a", "b", "c") for flow in flows}), caps
        )
        for flow in flows:
            assert rates[flow] == fresh.rate(flow)

    def test_value_change_then_remove_in_same_batch(self):
        """Regression: a value-only capacity change forces a full solve
        without a recompile; if that batch also stages a remove, the
        apply path must compute the link delta *before* killing the
        removed flow's slot."""
        from repro.core.streaming import StreamingMaxMin
        from repro.core.vectorized import max_min_fair_vectorized

        caps = {("a", "b"): 2.0, ("b", "c"): 4.0}
        flows = [Flow("a", "c", tag=str(i)) for i in range(3)]
        solver = StreamingMaxMin(caps)
        for flow in flows:
            solver.add(flow, ("a", "b", "c"))
        solver.solve()
        caps = {("a", "b"): 1.0, ("b", "c"): 4.0}
        solver.set_capacities(caps)
        solver.remove(flows[0])
        solver.add(Flow("a", "c", tag="3"), ("a", "b", "c"))
        rates = solver.solve()
        live = {flow: ("a", "b", "c") for flow in flows[1:]}
        live[Flow("a", "c", tag="3")] = ("a", "b", "c")
        fresh = max_min_fair_vectorized(Routing(dict(live)), caps)
        for flow in live:
            assert rates[flow] == fresh.rate(flow)


class TestMutationEdges:
    CAPS = {("a", "b"): 1.0, ("b", "c"): 2.0, ("c", "d"): INF}

    def make(self, **kwargs):
        from repro.core.streaming import StreamingMaxMin

        return StreamingMaxMin(self.CAPS, **kwargs)

    def test_duplicate_add_rejected(self):
        solver = self.make()
        flow = Flow("a", "b")
        solver.add(flow, ("a", "b"))
        with pytest.raises(ValueError, match="already tracked"):
            solver.add(flow, ("a", "b"))
        solver.solve()
        with pytest.raises(ValueError, match="already tracked"):
            solver.add(flow, ("a", "b"))

    def test_unknown_remove_rejected(self):
        solver = self.make()
        with pytest.raises(KeyError):
            solver.remove(Flow("a", "b"))

    def test_remove_then_readd_same_batch(self):
        solver = self.make()
        flow = Flow("a", "b")
        solver.add(flow, ("a", "b"))
        solver.solve()
        solver.remove(flow)
        solver.add(flow, ("a", "b"))  # departure then re-arrival
        assert solver.solve()[flow] == 1.0

    def test_add_cancelled_by_remove_within_batch(self):
        solver = self.make()
        flow = Flow("a", "b")
        solver.add(flow, ("a", "b"))
        solver.remove(flow)
        assert len(solver) == 0
        assert solver.solve() == {}

    def test_unknown_link_rejected(self):
        solver = self.make()
        with pytest.raises(UnknownLinkError):
            solver.add(Flow("a", "z"), ("a", "z"))

    def test_unbounded_path_rejected(self):
        solver = self.make()
        with pytest.raises(UnboundedRateError):
            solver.add(Flow("c", "d"), ("c", "d"))

    def test_short_path_rejected(self):
        solver = self.make()
        with pytest.raises(ValueError, match=">= 2 nodes"):
            solver.add(Flow("a", "a"), ("a",))

    def test_module_entry_matches_backend_dispatch(self):
        from repro.core.solve import solve_max_min
        from repro.core.streaming import streaming_max_min

        routing = Routing(
            {
                Flow("a", "c", tag="0"): ("a", "b", "c"),
                Flow("a", "b", tag="1"): ("a", "b"),
            }
        )
        alloc = streaming_max_min(routing, self.CAPS)
        via_dispatch = solve_max_min(routing, self.CAPS, backend="streaming")
        for flow in routing.flows():
            assert alloc.rate(flow) == via_dispatch.rate(flow)


class TestShadowMismatch:
    """A forced disagreement must quarantine the event prefix under
    reason ``stream-mismatch``, answer with the reference rates, and
    force the next solve full."""

    def test_mismatch_quarantined(self, tmp_path, monkeypatch):
        from repro.core.streaming import StreamingMaxMin
        from repro.core.topology import ClosNetwork

        clos = ClosNetwork(2)
        caps = clos.graph.capacities()
        solver = StreamingMaxMin(
            caps, shadow=1.0, quarantine_dir=str(tmp_path)
        )
        flows = [
            Flow(clos.source(1, 1), clos.destination(3, 1), tag=str(i))
            for i in range(2)
        ]
        for flow in flows:
            solver.add(
                flow, clos.path_via(flow.source, flow.dest, 1)
            )
        clean = solver.solve()
        assert solver.stats["shadow_checks"] == 1
        assert solver.stats["mismatches"] == 0

        wrong = {flow: rate * 2.0 for flow, rate in clean.items()}
        monkeypatch.setattr(
            solver, "_solve_float", lambda adds, removes: wrong
        )
        answered = solver.solve()
        assert solver.stats["mismatches"] == 1
        # Degraded gracefully: the reference rates, not the wrong ones.
        assert answered == clean
        assert solver._full_needed
        bundle = solver.last_bundle
        assert bundle is not None

        import json

        with open(bundle, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["reason"] == "stream-mismatch"
        text = json.dumps(data["failures"])
        assert "event[0]" in text and "add" in text

    def test_clean_solves_not_quarantined(self, tmp_path):
        from repro.core.streaming import StreamingMaxMin

        caps = {("a", "b"): 3.0}
        solver = StreamingMaxMin(
            caps, shadow=1.0, quarantine_dir=str(tmp_path)
        )
        for i in range(3):
            solver.add(Flow("a", "b", tag=str(i)), ("a", "b"))
            solver.solve()
        assert solver.stats["shadow_checks"] == 3
        assert solver.stats["mismatches"] == 0
        assert solver.last_bundle is None
        assert list(tmp_path.iterdir()) == []


class TestCounters:
    def test_patched_and_fullsolve_counters(self):
        from repro import obs
        from repro.core.streaming import StreamingMaxMin

        caps = {("a", "b"): 1.0, ("c", "d"): 2.0}
        obs.enable(memory=False)
        try:
            obs.reset()
            solver = StreamingMaxMin(caps)
            solver.add(Flow("a", "b", tag="0"), ("a", "b"))
            solver.add(Flow("a", "b", tag="1"), ("a", "b"))
            solver.solve()  # first solve is always full: one 0.5 round
            # A disjoint arrival whose level (2.0) sits above every
            # stored round can only extend the bottleneck sequence, so
            # this solve patches the suffix instead of starting over.
            solver.add(Flow("c", "d", tag="2"), ("c", "d"))
            rates = solver.solve()
            assert rates[Flow("c", "d", tag="2")] == 2.0
            snapshot = obs.metrics_snapshot()
        finally:
            obs.reset()
            obs.disable()
        assert snapshot.get("solver.stream.fullsolve", 0) >= 1
        assert snapshot.get("solver.stream.patched", 0) >= 1
        assert solver.stats["patched"] >= 1

    def test_stats_shape(self):
        from repro.core.streaming import StreamingMaxMin

        solver = StreamingMaxMin({("a", "b"): 1.0})
        assert set(solver.stats) == {
            "solves",
            "patched",
            "fullsolve",
            "recompiles",
            "shadow_checks",
            "mismatches",
        }
