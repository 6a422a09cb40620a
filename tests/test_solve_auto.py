"""Tests for ``backend="auto"``: fallback chains, shadow checks, and the
quarantine/replay/minimize loop.

Backends are force-failed by monkeypatching the functions
``repro.core.solve._solve_backend`` lazily imports — the chain must
degrade to the exact reference and still return the right answer.
"""

import glob
import os
from fractions import Fraction

import pytest

import repro.core.fastmaxmin as fastmaxmin_module
import repro.core.maxmin as maxmin_module
import repro.core.quotient as quotient_module
from repro.core.maxmin import max_min_fair
from repro.core.solve import (
    AUTO_CHAIN_EXACT,
    AUTO_CHAIN_FLOAT,
    solve_max_min,
)
from repro.errors import BackendUnavailableError, CertificateError
from repro.quarantine import (
    ddmin,
    load_bundle,
    quarantine_failure,
    replay,
    write_bundle,
)
from repro.validate import rate_disagreements, set_validation_level, validation

from tests.helpers import random_flows, random_routing


@pytest.fixture(autouse=True)
def clean_state(monkeypatch, tmp_path):
    """Quarantine into a temp dir; no validation override leaks."""
    monkeypatch.delenv("REPRO_VALIDATE", raising=False)
    monkeypatch.delenv("REPRO_SHADOW", raising=False)
    monkeypatch.setenv("REPRO_QUARANTINE_DIR", str(tmp_path / "quarantine"))
    set_validation_level(None)
    yield
    set_validation_level(None)


@pytest.fixture
def instance(clos2):
    flows = random_flows(clos2, 7, seed=21)
    routing = random_routing(clos2, flows, seed=21)
    return routing, clos2.graph.capacities()


def _bundles():
    return sorted(
        glob.glob(os.path.join(os.environ["REPRO_QUARANTINE_DIR"], "*.json"))
    )


def _boom(*args, **kwargs):
    raise BackendUnavailableError("forced failure (test)")


class TestAutoChain:
    def test_auto_exact_matches_reference(self, instance):
        routing, capacities = instance
        expected = max_min_fair(routing, capacities, exact=True)
        got = solve_max_min(routing, capacities, backend="auto")
        assert got.rates() == expected.rates()

    def test_auto_float_matches_reference(self, instance):
        routing, capacities = instance
        expected = max_min_fair(routing, capacities, exact=False)
        got = solve_max_min(
            routing, capacities, backend="auto", exact=False
        )
        assert rate_disagreements(got.rates(), expected.rates()) == []

    def test_exact_chain_survives_quotient_failure(
        self, instance, monkeypatch
    ):
        routing, capacities = instance
        monkeypatch.setattr(quotient_module, "quotient_max_min", _boom)
        expected = max_min_fair(routing, capacities, exact=True)
        got = solve_max_min(routing, capacities, backend="auto")
        assert got.rates() == expected.rates()

    def test_float_chain_survives_vectorized_failure(
        self, instance, monkeypatch
    ):
        import repro.core.vectorized as vectorized_module

        routing, capacities = instance
        monkeypatch.setattr(
            vectorized_module, "max_min_fair_vectorized", _boom
        )
        expected = max_min_fair(routing, capacities, exact=False)
        got = solve_max_min(
            routing, capacities, backend="auto", exact=False
        )
        assert rate_disagreements(got.rates(), expected.rates()) == []

    def test_float_chain_survives_every_non_terminal_failure(
        self, instance, monkeypatch
    ):
        routing, capacities = instance
        import repro.core.vectorized as vectorized_module

        monkeypatch.setattr(
            vectorized_module, "max_min_fair_vectorized", _boom
        )
        monkeypatch.setattr(fastmaxmin_module, "max_min_fair_fast", _boom)
        expected = max_min_fair(routing, capacities, exact=False)
        got = solve_max_min(
            routing, capacities, backend="auto", exact=False
        )
        assert rate_disagreements(got.rates(), expected.rates()) == []

    def test_terminal_failure_propagates(self, instance, monkeypatch):
        routing, capacities = instance
        monkeypatch.setattr(quotient_module, "quotient_max_min", _boom)
        monkeypatch.setattr(maxmin_module, "max_min_fair", _boom)
        with pytest.raises(BackendUnavailableError):
            solve_max_min(routing, capacities, backend="auto")

    def test_chains_end_in_reference(self):
        assert AUTO_CHAIN_EXACT[-1] == "reference"
        assert AUTO_CHAIN_FLOAT[-1] == "reference"

    def test_certificate_failure_falls_back_and_quarantines(
        self, instance, monkeypatch
    ):
        # A backend whose *answer* is rejected (not merely unavailable):
        # the chain must quarantine the instance and degrade.
        routing, capacities = instance

        def rejected(*args, **kwargs):
            raise CertificateError(
                "maxmin.quotient", ["link overloaded (injected)"]
            )

        monkeypatch.setattr(quotient_module, "quotient_max_min", rejected)
        expected = max_min_fair(routing, capacities, exact=True)
        with validation("full"):
            got = solve_max_min(routing, capacities, backend="auto")
        assert got.rates() == expected.rates()
        bundles = _bundles()
        assert len(bundles) == 1
        bundle = load_bundle(bundles[0])
        assert bundle.reason == "certificate"
        assert bundle.backend == "quotient"
        assert bundle.failures == ["link overloaded (injected)"]
        assert len(bundle.routing) == len(routing)


class TestShadowChecks:
    def test_shadow_disagreement_quarantines_and_corrects(
        self, instance, monkeypatch
    ):
        import repro.core.vectorized as vectorized_module

        routing, capacities = instance

        def doubled(routing_, capacities_, compiled=None):
            with validation("off"):
                honest = max_min_fair(routing_, capacities_, exact=False)
            from repro.core.allocation import Allocation

            return Allocation(
                {f: r * 2 for f, r in honest.rates().items()}
            )

        monkeypatch.setattr(
            vectorized_module, "max_min_fair_vectorized", doubled
        )
        monkeypatch.setenv("REPRO_SHADOW", "1.0")
        expected = max_min_fair(routing, capacities, exact=False)
        got = solve_max_min(
            routing, capacities, backend="auto", exact=False
        )
        # The corrupted backend was out-voted by the reference shadow.
        assert rate_disagreements(got.rates(), expected.rates()) == []
        bundles = _bundles()
        assert len(bundles) == 1
        assert load_bundle(bundles[0]).reason == "shadow"

    def test_shadow_agreement_writes_nothing(self, instance, monkeypatch):
        routing, capacities = instance
        monkeypatch.setenv("REPRO_SHADOW", "1.0")
        solve_max_min(routing, capacities, backend="auto", exact=False)
        assert _bundles() == []

    def test_bad_shadow_fraction_rejected(self, instance, monkeypatch):
        routing, capacities = instance
        monkeypatch.setenv("REPRO_SHADOW", "lots")
        with pytest.raises(ValueError, match="REPRO_SHADOW"):
            solve_max_min(
                routing, capacities, backend="auto", exact=False
            )

    def test_shadow_sequence_decorrelates_across_forked_workers(
        self, monkeypatch
    ):
        """Regression: the auto-solve ordinal stream is pid-salted.

        A bare ``itertools.count(1)`` is inherited at fork, so every
        worker of a ``--jobs N`` sweep shadow-checked the *same* solve
        ordinals.  The sequence must restart from a pid-derived salt in
        each new process, making the workers' sampled ordinals diverge.
        """
        from repro.core import solve as solve_module

        def consume(pid, n=64):
            monkeypatch.setattr(solve_module.os, "getpid", lambda: pid)
            seq = solve_module._ProcessSeq()
            return [next(seq) for _ in range(n)]

        a, b = consume(1111), consume(2222)
        # Each process's stream is still consecutive (monotone coverage)
        assert a == list(range(a[0], a[0] + 64))
        assert b == list(range(b[0], b[0] + 64))
        # ...but starts at a pid-specific salt, so with any sampling
        # interval the two workers check different ordinal positions.
        assert a[0] != b[0]
        assert a[0] == 1 + solve_module._ProcessSeq._salt(1111)
        # the *positions within the stream* a sampling interval selects
        # differ between the two workers
        interval = 7
        assert {x % interval for x in a[:interval]} == set(range(interval))
        assert (a[0] - b[0]) % interval != 0

        # A fork mid-stream (same object, new pid) re-seeds too.
        monkeypatch.setattr(solve_module.os, "getpid", lambda: 3333)
        seq = solve_module._ProcessSeq()
        first = next(seq)
        monkeypatch.setattr(solve_module.os, "getpid", lambda: 4444)
        child_first = next(seq)
        assert child_first == 1 + solve_module._ProcessSeq._salt(4444)
        assert child_first != first + 1


class TestDdmin:
    def test_shrinks_to_single_culprit(self):
        items = list(range(20))
        result = ddmin(items, lambda subset: 13 in subset)
        assert result == [13]

    def test_shrinks_pair(self):
        items = list(range(16))
        result = ddmin(
            items, lambda subset: 3 in subset and 11 in subset
        )
        assert sorted(result) == [3, 11]

    def test_keeps_everything_when_all_needed(self):
        items = [1, 2, 3]
        result = ddmin(items, lambda subset: len(subset) == 3)
        assert result == items


class TestQuarantineRoundTrip:
    def test_bundle_round_trips_exact_rates(self, instance):
        routing, capacities = instance
        allocation = max_min_fair(routing, capacities, exact=True)
        path = write_bundle(
            routing, capacities, "test", "reference", True,
            seed=42, failures=["synthetic"], rates=allocation.rates(),
        )
        bundle = load_bundle(path)
        assert bundle.seed == 42
        assert bundle.capacities == capacities
        assert bundle.rates == allocation.rates()
        assert all(
            bundle.routing.path(f) == routing.path(f)
            for f in routing.flows()
        )

    def test_same_instance_same_bundle_path(self, instance):
        routing, capacities = instance
        first = quarantine_failure(
            routing, capacities, "dup", "heap", False
        )
        second = quarantine_failure(
            routing, capacities, "dup", "heap", False
        )
        assert first == second
        assert len(_bundles()) == 1

    def test_healthy_bundle_does_not_reproduce(self, instance):
        routing, capacities = instance
        path = write_bundle(
            routing, capacities, "falsealarm", "reference", True
        )
        result = replay(path)
        assert not result.reproduced
        assert result.live_failures == []
        assert result.minimized_path is None


class TestCorruptedBackendEndToEnd:
    """The acceptance scenario: a corrupted vectorized kernel is caught
    by its certificate, the auto chain degrades and quarantines, and
    replaying the bundle reproduces and minimizes the failure."""

    @pytest.fixture
    def corrupt_waterfill(self, monkeypatch):
        import repro.core.vectorized as vectorized_module

        original = vectorized_module.waterfill

        def doubled(compiled, caps):
            with validation("off"):
                rates = original(compiled, caps)
            return rates * 2.0

        monkeypatch.setattr(vectorized_module, "waterfill", doubled)
        return doubled

    def test_fallback_then_replay_reproduces_and_minimizes(
        self, clos2, corrupt_waterfill
    ):
        flows = random_flows(clos2, 6, seed=33)
        routing = random_routing(clos2, flows, seed=33)
        capacities = clos2.graph.capacities()

        with validation("full"):
            got = solve_max_min(
                routing, capacities, backend="auto", exact=False
            )
        # The chain fell past the corrupted kernel to a healthy backend.
        expected = max_min_fair(routing, capacities, exact=False)
        assert rate_disagreements(got.rates(), expected.rates()) == []

        bundles = _bundles()
        assert len(bundles) == 1
        bundle = load_bundle(bundles[0])
        assert bundle.backend == "vectorized"
        assert bundle.reason == "certificate"

        # Replay on the still-corrupted kernel: reproduces, minimizes.
        result = replay(bundles[0])
        assert result.reproduced
        assert result.live_failures
        assert result.minimized_flows == 1
        assert result.minimized_path is not None
        minimized = load_bundle(result.minimized_path)
        assert len(minimized.routing) == 1
        assert minimized.reason == "certificate-min"
        # The minimized bundle is itself a valid reproducer.
        assert replay(result.minimized_path, minimize=False).reproduced
