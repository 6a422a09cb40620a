"""Tests for the invariant certifiers in ``repro.validate``.

The mutation tests are the heart: take a certified-correct max-min
allocation and break it three ways — overfill a link, starve a flow,
break a tie — then check each corruption is caught at the level that
should see it (overfill at ``cheap``, all three at ``full``).
"""

import os
from fractions import Fraction

import pytest

from repro.core.allocation import Allocation
from repro.core.cache import AllocationCache
from repro.core.incremental import MoveEvaluator
from repro.core.maxmin import max_min_fair
from repro.core.solve import BACKENDS, EXACT_BACKENDS, solve_max_min
from repro.core.topology import ClosNetwork
from repro.errors import CertificateError
from repro.validate import (
    ENV_VAR,
    allocation_failures,
    default_tolerance,
    rate_disagreements,
    set_validation_level,
    validate_allocation,
    validation,
    validation_level,
)

from tests.helpers import random_flows, random_routing


@pytest.fixture(autouse=True)
def clean_level(monkeypatch):
    """Each test starts with no override and no REPRO_VALIDATE."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    set_validation_level(None)
    yield
    set_validation_level(None)


@pytest.fixture
def instance(clos2):
    """A certified-correct exact instance: routing, capacities, rates."""
    flows = random_flows(clos2, 8, seed=3)
    routing = random_routing(clos2, flows, seed=3)
    capacities = clos2.graph.capacities()
    with validation("off"):
        allocation = max_min_fair(routing, capacities, exact=True)
    return routing, capacities, allocation


class TestLevelResolution:
    def test_default_is_off(self):
        assert validation_level() == "off"

    def test_env_var_consulted(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "cheap")
        assert validation_level() == "cheap"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "cheap")
        set_validation_level("full")
        assert validation_level() == "full"

    def test_context_manager_restores(self):
        set_validation_level("cheap")
        with validation("full"):
            assert validation_level() == "full"
        assert validation_level() == "cheap"

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "paranoid")
        with pytest.raises(ValueError, match="unknown validation level"):
            validation_level()

    def test_bad_override_raises(self):
        with pytest.raises(ValueError, match="unknown validation level"):
            set_validation_level("verbose")


class TestCorrectAllocationsCertify:
    def test_exact_reference_passes_full(self, instance):
        routing, capacities, allocation = instance
        assert allocation_failures(
            routing, capacities, allocation, level="full"
        ) == []

    def test_off_level_skips_everything(self, instance):
        routing, capacities, _ = instance
        garbage = Allocation({f: Fraction(10**6) for f in routing.flows()})
        assert allocation_failures(routing, capacities, garbage) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_certifies_at_full(self, clos3, backend):
        flows = random_flows(clos3, 12, seed=11)
        routing = random_routing(clos3, flows, seed=11)
        capacities = clos3.graph.capacities()
        exact = backend in EXACT_BACKENDS
        with validation("full"):
            allocation = solve_max_min(
                routing, capacities, backend=backend,
                exact=True if exact else False,
            )
        assert len(allocation) == len(flows)

    def test_cache_hit_certifies_at_full(self, clos2):
        flows = random_flows(clos2, 6, seed=5)
        routing = random_routing(clos2, flows, seed=5)
        capacities = clos2.graph.capacities()
        cache = AllocationCache()
        with validation("full"):
            first = cache.solve(routing, capacities)
            again = cache.solve(routing, capacities)  # hit, re-certified
        assert first.rates() == again.rates()
        assert cache.stats()["hits"] == 1

    def test_incremental_moves_certify_at_full(self, clos3):
        flows = random_flows(clos3, 9, seed=7)
        routing = random_routing(clos3, flows, seed=7)
        evaluator = MoveEvaluator(
            clos3, routing, clos3.graph.capacities()
        )
        flow = routing.flows()[0]
        target = next(
            m for m in range(1, clos3.n + 1)
            if m != routing.middles(clos3)[flow]
        )
        with validation("full"):
            evaluator.evaluate(flow, target)


class TestMutationsAreCaught:
    """Corrupt a correct allocation; the certifier must notice."""

    def _mutate(self, allocation, flow, new_rate):
        rates = allocation.rates()
        rates[flow] = new_rate
        return Allocation(rates)

    def test_overfilled_link_caught_at_cheap(self, instance):
        routing, capacities, allocation = instance
        victim = routing.flows()[0]
        corrupt = self._mutate(
            allocation, victim, allocation.rate(victim) + 1
        )
        failures = allocation_failures(
            routing, capacities, corrupt, level="cheap"
        )
        assert any("overloaded" in f for f in failures)

    def test_overfilled_link_caught_at_full(self, instance):
        routing, capacities, allocation = instance
        victim = routing.flows()[0]
        corrupt = self._mutate(
            allocation, victim, allocation.rate(victim) + 1
        )
        assert allocation_failures(
            routing, capacities, corrupt, level="full"
        )

    def test_starved_flow_passes_cheap_caught_at_full(self, instance):
        routing, capacities, allocation = instance
        victim = routing.flows()[0]
        corrupt = self._mutate(
            allocation, victim, allocation.rate(victim) / 2
        )
        # Still feasible — cheap sees nothing wrong.
        assert allocation_failures(
            routing, capacities, corrupt, level="cheap"
        ) == []
        failures = allocation_failures(
            routing, capacities, corrupt, level="full"
        )
        assert any("no bottleneck" in f for f in failures)

    def test_broken_tie_caught_at_full(self, clos2):
        # Two parallel flows share one path; shifting rate between them
        # keeps every link load identical (cheap passes) but the loser
        # is no longer maximal on its saturated links.
        from repro.core.flows import FlowCollection
        from repro.core.routing import Routing

        network = ClosNetwork(2)
        collection = FlowCollection()
        pair = collection.add_pair(
            network.sources[0], network.destinations[0], count=2
        )
        routing = Routing.from_middles(
            network, collection, {f: 1 for f in collection}
        )
        capacities = network.graph.capacities()
        with validation("off"):
            fair = max_min_fair(routing, capacities, exact=True)
        a, b = pair
        assert fair.rate(a) == fair.rate(b)
        delta = Fraction(1, 8)
        skewed = Allocation(
            {
                a: fair.rate(a) + delta,
                b: fair.rate(b) - delta,
            }
        )
        assert allocation_failures(
            routing, capacities, skewed, level="cheap"
        ) == []
        failures = allocation_failures(
            routing, capacities, skewed, level="full"
        )
        assert any("no bottleneck" in f for f in failures)

    def test_missing_rate_caught(self, instance):
        routing, capacities, allocation = instance
        rates = allocation.rates()
        rates.pop(routing.flows()[0])
        failures = allocation_failures(
            routing, capacities, Allocation(rates), level="cheap"
        )
        assert any("no rate assigned" in f for f in failures)

    def test_nan_and_negative_rates_caught(self, instance):
        # Allocation's constructor rejects negatives, but backends that
        # hand raw rate dicts to the certifier (the incremental
        # evaluator, the numpy kernel) bypass it — so the structural
        # certifier must catch these itself.
        from repro.validate import structure_failures

        routing, capacities, allocation = instance
        first, second = routing.flows()[:2]
        rates = allocation.rates()
        rates[first] = float("nan")
        rates[second] = -0.5
        failures = structure_failures(
            routing.flows_per_link(),
            {f: routing.links_of(f) for f in routing.flows()},
            rates,
            capacities,
            level="cheap",
            tol=0.0,
        )
        assert any("NaN" in f for f in failures)
        assert any("negative" in f for f in failures)

    def test_validate_allocation_raises_certificate_error(self, instance):
        routing, capacities, allocation = instance
        victim = routing.flows()[0]
        corrupt = self._mutate(
            allocation, victim, allocation.rate(victim) + 1
        )
        with pytest.raises(CertificateError) as info:
            validate_allocation(
                routing, capacities, corrupt,
                level="cheap", context="test.mutation",
            )
        assert info.value.context == "test.mutation"
        assert info.value.failures

    def test_solver_entry_point_catches_injected_corruption(
        self, clos2, monkeypatch
    ):
        # End to end: corrupt the reference water-fill and check the
        # in-solver hook (not just the standalone function) fires.
        import repro.core.maxmin as maxmin_module

        original = maxmin_module._fill

        def corrupt_fill(flows, link_flows, flow_links, rates, *rest):
            rounds = original(
                flows, link_flows, flow_links, rates, *rest
            )
            victim = next(iter(rates))
            rates[victim] = rates[victim] + 1
            return rounds

        monkeypatch.setattr(maxmin_module, "_fill", corrupt_fill)
        flows = random_flows(clos2, 5, seed=2)
        routing = random_routing(clos2, flows, seed=2)
        with validation("cheap"):
            with pytest.raises(CertificateError):
                max_min_fair(routing, clos2.graph.capacities(), exact=True)


class TestTolerances:
    def test_default_tolerance_exact_is_zero(self):
        assert default_tolerance({1: Fraction(1, 3), 2: 1}) == 0.0

    def test_default_tolerance_float_is_loose(self):
        assert default_tolerance({1: 0.5}) > 0

    def test_float_rounding_not_flagged(self, clos3):
        # A healthy float solve certifies at full despite rounding.
        flows = random_flows(clos3, 10, seed=13)
        routing = random_routing(clos3, flows, seed=13)
        capacities = clos3.graph.capacities()
        with validation("off"):
            allocation = max_min_fair(routing, capacities, exact=False)
        assert allocation_failures(
            routing, capacities, allocation, level="full"
        ) == []

    def test_huge_capacities_relative_tolerance(self, clos2):
        # 1e12-scale capacities: absolute float error on a link load can
        # exceed any fixed absolute tolerance, but the relative band
        # must still accept a healthy solve.
        flows = random_flows(clos2, 8, seed=17)
        routing = random_routing(clos2, flows, seed=17)
        capacities = {
            link: cap * (10**12)
            for link, cap in clos2.graph.capacities().items()
        }
        with validation("off"):
            allocation = max_min_fair(routing, capacities, exact=False)
        assert allocation_failures(
            routing, capacities, allocation, level="full"
        ) == []


class TestRateDisagreements:
    def test_agreement_is_empty(self):
        assert rate_disagreements({1: 0.5}, {1: 0.5}) == []

    def test_close_floats_agree(self):
        assert rate_disagreements({1: 0.5}, {1: 0.5 + 1e-9}) == []

    def test_real_gap_reported(self):
        assert rate_disagreements({1: 0.5}, {1: 0.7})

    def test_exact_mode_is_strict(self):
        left = {1: Fraction(1, 3)}
        right = {1: Fraction(1, 3) + Fraction(1, 10**12)}
        assert rate_disagreements(left, right, tol=0.0)

    def test_missing_flows_reported(self):
        diffs = rate_disagreements({1: 0.5, 2: 0.5}, {1: 0.5})
        assert any("missing" in d for d in diffs)

    def test_relative_scaling_on_huge_rates(self):
        # 1e12 ± 1 is agreement at the default relative tolerance.
        assert rate_disagreements({1: 1e12}, {1: 1e12 + 1.0}) == []
