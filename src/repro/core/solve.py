"""One front door to every max-min fair solver backend.

``solve_max_min(routing, capacities, backend=...)`` dispatches to:

- ``"reference"`` — :func:`repro.core.maxmin.max_min_fair`; exact
  ``Fraction`` arithmetic by default (``exact=False`` for floats).
- ``"heap"`` — :func:`repro.core.fastmaxmin.max_min_fair_fast`; float,
  lazy-deletion saturation heap, fastest pure-Python option for sparse
  instances.
- ``"vectorized"`` — :func:`repro.core.vectorized.max_min_fair_vectorized`;
  float, NumPy array kernel, fastest for dense instances (thousands of
  flows over few links).
- ``"quotient"`` — :func:`repro.core.quotient.quotient_max_min`; exact
  ``Fraction`` rates via symmetry reduction, the only exact option that
  scales to the n ≥ 64 adversarial constructions.
- ``"streaming"`` — :func:`repro.core.streaming.streaming_max_min`;
  float by default, ``exact=True`` for ``Fraction`` rates.  One-shot
  solves match the vectorized backend bit-for-bit (float) or the
  reference exactly; the backend exists for
  :class:`repro.core.streaming.StreamingMaxMin` reuse under flow churn,
  where arrivals/departures re-solve only the affected suffix of
  bottleneck rounds.
- ``"auto"`` — a graceful-degradation chain over the above: the fastest
  suitable backend is tried first and the solve *falls back* (counted by
  the ``solver.fallback.*`` metrics) when a backend is unavailable,
  crashes numerically, or — with validation enabled (see
  :mod:`repro.validate`) — returns an allocation that fails its
  certificate.  The exact reference solver is the terminal link and its
  errors propagate.  Certificate failures additionally capture a
  replayable quarantine bundle (:mod:`repro.quarantine`).  Exact
  requests chain ``quotient → reference``; float requests chain
  ``vectorized → heap → reference``.

  Setting ``REPRO_SHADOW`` to a fraction in (0, 1] shadow-checks that
  fraction of successful non-reference ``auto`` solves against the
  exact reference solver; a disagreement is quarantined, counted
  (``solver.shadow.disagreements``), and answered with the reference
  result.

All four concrete backends return the same allocation: exactly for the
exact backends, within 1e-12 between the float backends
(property-tested in ``tests/test_vectorized_quotient.py``).  See
``docs/PERFORMANCE.md`` ("Scaling to large n") for measured crossover
points and ``docs/ROBUSTNESS.md`` for the fallback/quarantine design.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from typing import Mapping, Optional

from repro.errors import BackendUnavailableError, CertificateError
from repro.core.allocation import Allocation, Rate
from repro.core.routing import Link, Routing
from repro.obs import counter, get_logger

#: Recognized concrete backend names, in documentation order.
BACKENDS = ("reference", "heap", "vectorized", "quotient", "streaming")

#: Backends whose rates are exact ``Fraction`` values.
EXACT_BACKENDS = ("reference", "quotient")

#: Fallback chains for ``backend="auto"``, fastest-first; the last
#: entry is terminal (its failures propagate).
AUTO_CHAIN_EXACT = ("quotient", "reference")
AUTO_CHAIN_FLOAT = ("vectorized", "heap", "reference")

#: Environment variable: fraction of ``auto`` solves shadow-checked
#: against the exact reference (0 disables; 1 checks every solve).
SHADOW_ENV = "REPRO_SHADOW"

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_AUTO_SOLVES = counter("solver.auto.solves")
_SHADOW_CHECKS = counter("solver.shadow.checks")
_SHADOW_DISAGREEMENTS = counter("solver.shadow.disagreements")

class _ProcessSeq:
    """Monotone per-process sequence of auto solves, driving shadow sampling.

    A bare ``itertools.count(1)`` is inherited at fork, so every worker
    of a ``--jobs N`` sweep would shadow-check the *same* solve ordinals
    — ``REPRO_SHADOW`` coverage clusters on identical positions instead
    of sampling each worker's stream independently.  The counter is
    re-seeded with a pid-derived salt the first time it is consumed in a
    new process, decorrelating the workers' sampled ordinals.
    """

    __slots__ = ("_pid", "_count")

    def __init__(self) -> None:
        self._pid: Optional[int] = None
        self._count = itertools.count(1)

    @staticmethod
    def _salt(pid: int) -> int:
        digest = hashlib.sha256(f"shadow-seq:{pid}".encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big")

    def __next__(self) -> int:
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._count = itertools.count(1 + self._salt(pid))
        return next(self._count)


#: Monotone sequence of auto solves, driving shadow sampling
#: (pid-salted so forked workers sample different ordinals).
_AUTO_SEQ = _ProcessSeq()

__all__ = [
    "AUTO_CHAIN_EXACT",
    "AUTO_CHAIN_FLOAT",
    "BACKENDS",
    "EXACT_BACKENDS",
    "SHADOW_ENV",
    "solve_max_min",
]


def _solve_backend(
    backend: str,
    routing: Routing,
    capacities: Mapping[Link, Rate],
    exact: Optional[bool],
) -> Allocation:
    """Dispatch one concrete backend (the pre-``auto`` semantics)."""
    if backend == "reference":
        from repro.core.maxmin import max_min_fair

        return max_min_fair(
            routing, capacities, exact=True if exact is None else exact
        )
    if backend == "heap":
        if exact:
            raise ValueError("backend 'heap' computes float rates only")
        from repro.core.fastmaxmin import max_min_fair_fast

        return max_min_fair_fast(routing, capacities)
    if backend == "vectorized":
        if exact:
            raise ValueError("backend 'vectorized' computes float rates only")
        from repro.core.vectorized import max_min_fair_vectorized

        return max_min_fair_vectorized(routing, capacities)
    if backend == "quotient":
        if exact is not None and not exact:
            raise ValueError("backend 'quotient' computes exact rates only")
        from repro.core.quotient import quotient_max_min

        return quotient_max_min(routing, capacities)
    if backend == "streaming":
        from repro.core.streaming import streaming_max_min

        return streaming_max_min(routing, capacities, exact=bool(exact))
    raise ValueError(
        f"unknown backend {backend!r}; expected 'auto' or one of {BACKENDS}"
    )


def _shadow_due(ordinal: int, fraction: Optional[float] = None) -> bool:
    """Whether ordinal ``ordinal`` of a sampled stream is shadow-checked.

    The one sampling rule for ``auto`` solves, streaming solves and
    array simulator runs: every N-th ordinal is checked, N = 1 /
    ``fraction`` rounded.  ``fraction=None`` reads ``REPRO_SHADOW``;
    unset, empty or ≤ 0 disables checking.
    """
    if fraction is None:
        raw = os.environ.get(SHADOW_ENV, "").strip()
        if not raw:
            return False
        try:
            fraction = float(raw)
        except ValueError:
            raise ValueError(
                f"{SHADOW_ENV} must be a fraction in [0, 1], got {raw!r}"
            ) from None
    if fraction <= 0:
        return False
    return ordinal % max(1, round(1.0 / min(fraction, 1.0))) == 0


def _quarantine(
    routing: Routing,
    capacities: Mapping[Link, Rate],
    reason: str,
    backend: str,
    exact: Optional[bool],
    failures,
    rates=None,
) -> None:
    """Best-effort bundle capture (lazy import keeps the hot path lean)."""
    from repro.quarantine import quarantine_failure

    quarantine_failure(
        routing, capacities, reason, backend, exact,
        context=f"solve.auto.{backend}", failures=failures, rates=rates,
    )


def _solve_auto(
    routing: Routing,
    capacities: Mapping[Link, Rate],
    exact: Optional[bool],
) -> Allocation:
    """The graceful-degradation chain behind ``backend="auto"``."""
    _AUTO_SOLVES.inc()
    chain = AUTO_CHAIN_FLOAT if exact is False else AUTO_CHAIN_EXACT
    sequence = next(_AUTO_SEQ)
    log = get_logger("solver")

    allocation: Optional[Allocation] = None
    chosen: str = chain[-1]
    for position, backend in enumerate(chain):
        terminal = position == len(chain) - 1
        try:
            allocation = _solve_backend(backend, routing, capacities, exact)
            chosen = backend
            break
        except CertificateError as error:
            counter(f"solver.fallback.{backend}").inc()
            _quarantine(
                routing, capacities, "certificate", backend, exact,
                error.failures,
            )
            if terminal:
                raise
            log.warning(
                "backend rejected by certificate; falling back",
                backend=backend, next=chain[position + 1],
            )
        except (BackendUnavailableError, ArithmeticError, AssertionError) as error:
            # Unavailable, numerical failure (overflow / division), or
            # a violated water-filling invariant — all recoverable by a
            # stricter backend.
            counter(f"solver.fallback.{backend}").inc()
            if terminal:
                raise
            log.warning(
                "backend failed; falling back",
                backend=backend, error=repr(error),
                next=chain[position + 1],
            )

    if _shadow_due(sequence) and chosen != "reference":
        allocation = _shadow_check(
            routing, capacities, exact, chosen, allocation
        )
    return allocation


def _shadow_check(
    routing: Routing,
    capacities: Mapping[Link, Rate],
    exact: Optional[bool],
    backend: str,
    allocation: Allocation,
) -> Allocation:
    """Compare ``allocation`` against the exact reference solver.

    On disagreement: quarantine the instance, count it, and answer with
    the trustworthy reference result (as floats when the caller asked
    for a float solve) — shadow checking degrades gracefully instead of
    failing the solve.
    """
    from repro.core.maxmin import max_min_fair
    from repro.validate import default_tolerance, rate_disagreements, validation

    _SHADOW_CHECKS.inc()
    with validation("off"):
        reference = max_min_fair(routing, capacities, exact=True)
    rates = allocation.rates()
    tol = 0.0 if default_tolerance(rates) == 0.0 else 1e-6
    diffs = rate_disagreements(rates, reference.rates(), tol=tol)
    if not diffs:
        return allocation
    _SHADOW_DISAGREEMENTS.inc()
    _quarantine(
        routing, capacities, "shadow", backend, exact, diffs, rates=rates
    )
    get_logger("solver").warning(
        "shadow check disagreed with reference; using reference result",
        backend=backend, disagreements=len(diffs),
    )
    return reference.as_float() if exact is False else reference


def solve_max_min(
    routing: Routing,
    capacities: Mapping[Link, Rate],
    backend: str = "reference",
    exact: Optional[bool] = None,
) -> Allocation:
    """The max-min fair allocation for ``routing`` via ``backend``.

    ``exact`` is only meaningful for the ``reference`` backend (which
    supports both modes) and for ``auto`` (where it selects the chain);
    passing ``exact=True`` for a float backend or ``exact=False`` for
    ``quotient`` raises ``ValueError`` rather than silently returning
    rates of the wrong kind.
    """
    if backend == "auto":
        return _solve_auto(routing, capacities, exact)
    return _solve_backend(backend, routing, capacities, exact)
