"""Routings: per-flow path assignments (§2.2).

Given a collection ``F`` of flows, a *routing* assigns each flow ``f`` to
one ``s_f → t_f`` path.  In the macro-switch the routing is unique; in a
Clos network of size ``n`` each flow independently chooses one of ``n``
paths (equivalently, one middle switch), so a routing is fully described
by a flow → middle-switch map.

This module provides the :class:`Routing` container plus the conversions
between the two representations and the link-load bookkeeping used by
feasibility checks and the water-filling algorithm.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import InfeasibleRoutingError, UnknownFlowError
from repro.core.flows import Flow, FlowCollection
from repro.core.nodes import ClosNode, MiddleSwitch
from repro.core.topology import ClosNetwork, MacroSwitch, Path

Link = Tuple[ClosNode, ClosNode]


class Routing:
    """An assignment of each flow in a collection to a path.

    Instances are immutable once built; use :meth:`reassigned` to derive
    a new routing with one flow moved (the primitive step of local
    search over routings).
    """

    def __init__(self, assignment: Mapping[Flow, Path]) -> None:
        self._paths: Dict[Flow, Path] = dict(assignment)
        self._fingerprint: Optional[Tuple[Tuple[Flow, Path], ...]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_macro_switch(
        cls, network: MacroSwitch, flows: FlowCollection
    ) -> "Routing":
        """The unique routing in a macro-switch."""
        return cls({f: network.path(f.source, f.dest) for f in flows})

    @classmethod
    def from_middles(
        cls,
        network: ClosNetwork,
        flows: FlowCollection,
        middles: Mapping[Flow, int],
    ) -> "Routing":
        """A Clos routing from a flow → middle-switch-index map (1-based)."""
        missing = [f for f in flows if f not in middles]
        if missing:
            raise InfeasibleRoutingError(
                f"no middle switch assigned for flows: {missing!r}"
            )
        return cls(
            {f: network.path_via(f.source, f.dest, middles[f]) for f in flows}
        )

    @classmethod
    def uniform(cls, network: ClosNetwork, flows: FlowCollection, m: int) -> "Routing":
        """All flows through middle switch ``M_m`` (a worst-case baseline)."""
        return cls.from_middles(network, flows, {f: m for f in flows})

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def path(self, flow: Flow) -> Path:
        """The path assigned to ``flow``."""
        try:
            return self._paths[flow]
        except KeyError:
            raise UnknownFlowError(flow) from None

    def __contains__(self, flow: Flow) -> bool:
        return flow in self._paths

    def __len__(self) -> int:
        return len(self._paths)

    def flows(self) -> List[Flow]:
        """The routed flows, in insertion order."""
        return list(self._paths)

    def paths(self) -> List[Path]:
        """The assigned paths, index-aligned with :meth:`flows`."""
        return list(self._paths.values())

    def fingerprint(self) -> Tuple[Tuple[Flow, Path], ...]:
        """A canonical, hashable identity for this routing.

        The sorted tuple of ``(flow, path)`` pairs: two routings of the
        same flows over the same paths produce equal fingerprints no
        matter the order their assignments were built in.  Computed once
        and cached (routings are immutable), so repeated cache lookups
        (:class:`repro.core.cache.AllocationCache`) cost a tuple hash.
        """
        if self._fingerprint is None:
            self._fingerprint = tuple(sorted(self._paths.items()))
        return self._fingerprint

    def middle_of(self, network: ClosNetwork, flow: Flow) -> MiddleSwitch:
        """The middle switch ``flow`` traverses (Clos routings only)."""
        return network.middle_of_path(self._paths[flow])

    def middles(self, network: ClosNetwork) -> Dict[Flow, int]:
        """The flow → middle-switch-index map (Clos routings only)."""
        return {
            flow: self.middle_of(network, flow).index for flow in self._paths
        }

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def reassigned(
        self, network: ClosNetwork, flow: Flow, m: int
    ) -> "Routing":
        """A copy of this routing with ``flow`` moved to middle switch ``M_m``."""
        if flow not in self._paths:
            raise UnknownFlowError(flow)
        paths = dict(self._paths)
        paths[flow] = network.path_via(flow.source, flow.dest, m)
        return Routing(paths)

    # ------------------------------------------------------------------
    # Link occupancy
    # ------------------------------------------------------------------
    def flows_per_link(self) -> Dict[Link, List[Flow]]:
        """Map each traversed link to the flows crossing it."""
        loads: Dict[Link, List[Flow]] = {}
        for flow, path in self._paths.items():
            for link in zip(path, path[1:]):
                loads.setdefault(link, []).append(flow)
        return loads

    def links_of(self, flow: Flow) -> List[Link]:
        """The links along ``flow``'s assigned path."""
        path = self.path(flow)
        return list(zip(path, path[1:]))

    def validate(self, graph) -> None:
        """Check every assigned path exists in ``graph`` and joins its flow's
        endpoints; raises :class:`~repro.errors.InfeasibleRoutingError` on
        the first violation."""
        for flow, path in self._paths.items():
            if path[0] != flow.source or path[-1] != flow.dest:
                raise InfeasibleRoutingError(
                    f"path for {flow!r} does not join its endpoints: {path!r}"
                )
            if not graph.is_path(path):
                raise InfeasibleRoutingError(
                    f"path for {flow!r} is not in the graph: {path!r}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Routing({len(self._paths)} flows)"


def all_middle_assignments(
    flows: FlowCollection, n: int
) -> Iterable[Dict[Flow, int]]:
    """Yield every flow → middle-switch assignment (``n^|F|`` of them).

    Exhaustive and only suitable for tiny instances; see
    :mod:`repro.search.enumeration` for the symmetry-reduced enumeration
    used by the exact objective solvers.
    """
    flow_list = list(flows)

    def recurse(index: int, partial: Dict[Flow, int]):
        if index == len(flow_list):
            yield dict(partial)
            return
        for m in range(1, n + 1):
            partial[flow_list[index]] = m
            yield from recurse(index + 1, partial)
        del partial[flow_list[index]]

    yield from recurse(0, {})
