"""Layer timing for the traced run, recorded from the benchmark's side.

The program is not edited: a :class:`LayerClock` times calls into each
layer's public functions and methods by wrapping them for the duration
of a traced repetition (:meth:`LayerClock.patch`), and by wrapping the
policy object handed to the simulator (:class:`TimedPolicy`).  Nested
layer calls are tracked on a stack, so every layer gets an *inclusive*
time (its calls' wall) and an *exclusive* time (inclusive minus the
wrapped layers it called) — the exclusive times of one repetition sum
to the wall of its outermost timed call.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Dict, List


class LayerClock:
    """Inclusive and exclusive wall time per named layer."""

    def __init__(self) -> None:
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.exclusive: Dict[str, float] = defaultdict(float)
        #: Per-call durations, for layers whose latency distribution matters.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._children: List[float] = []

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``, charging its wall to ``layer``."""
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            children = self._children.pop()
            self.inclusive[layer] += elapsed
            self.exclusive[layer] += elapsed - children
            self.samples[layer].append(elapsed)
            if self._children:
                self._children[-1] += elapsed

    def wrap(self, layer: str, fn):
        """``fn`` with every call charged to ``layer``."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)

        return timed

    @contextlib.contextmanager
    def patch(self, owner, attribute: str, layer: str):
        """Replace ``owner.attribute`` by its timed wrapper while active.

        Works for module functions looked up at call time and for
        methods defined on a class.
        """
        original = owner.__dict__[attribute]
        setattr(owner, attribute, self.wrap(layer, original))
        try:
            yield
        finally:
            setattr(owner, attribute, original)


class TimedPolicy:
    """A simulator policy whose ``rates`` and ``forget`` are timed.

    Every other attribute (``pure_rates``, optional hooks) resolves on
    the wrapped policy, so the simulator sees the same capabilities.
    """

    def __init__(self, policy, clock: LayerClock) -> None:
        self._policy = policy
        self._clock = clock

    def rates(self, active, remaining, now=0.0):
        return self._clock.call(
            "policy.consult", self._policy.rates, active, remaining, now
        )

    def forget(self, job_id):
        return self._clock.call("policy.forget", self._policy.forget, job_id)

    def __getattr__(self, name):
        return getattr(self._policy, name)


class RecordingPolicy:
    """A simulator policy that keeps a fixed sample of its consultations.

    ``consults`` holds ``(index, jobs, rates)`` for consultation 0, every
    power-of-two index and the last one — the active jobs handed to the
    policy and a copy of its answer — for the output checks.  The sample
    does not depend on how many consultations the run makes, so its
    memory stays small and alike across seeds.
    """

    def __init__(self, policy) -> None:
        self._policy = policy
        self._count = 0
        self._kept: List = []
        self._last = None

    @property
    def consults(self) -> List:
        if self._last is None or (self._kept and self._kept[-1][0] == self._last[0]):
            return list(self._kept)
        return self._kept + [self._last]

    def rates(self, active, remaining, now=0.0):
        rates = self._policy.rates(active, remaining, now)
        index = self._count
        self._count += 1
        self._last = (index, list(active.values()), dict(rates))
        if index & (index - 1) == 0:
            self._kept.append(self._last)
        return rates

    def forget(self, job_id):
        return self._policy.forget(job_id)

    def __getattr__(self, name):
        return getattr(self._policy, name)
