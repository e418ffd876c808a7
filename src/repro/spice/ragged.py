"""Ragged cross-topology batch packing: mixed circuits, one time loop.

:class:`~repro.spice.batch.BatchedSimulation` stacks corners of *one*
circuit; this module packs corners of *several* circuits -- different
TSV fault subnets, segment lengths, topology variants -- into a single
shared transient integration.  A realistic mixed wafer fragments the
exact-fingerprint batching the screening service shipped with (every
distinct fault resistance is its own circuit), so the packing layer is
what lets family-keyed service traffic share solves.

The packing is *ragged*: members keep their own
:class:`~repro.spice.stamping.SolveSpace` (different dimensions, node
layouts, element counts), their own per-corner parameter overrides, and
their own Newton active sets.  A pack is a list of members handed to the
shared :class:`~repro.spice.stepper.TransientStepper`, whose Newton loop
solves the active systems of all members grouped by solve dimension.
Per-corner ``gesv`` is independent of its stack neighbours, so every
member's trajectory is **bit-identical** to running it alone through
:meth:`BatchedSimulation.transient` -- the property the screening
service's coalescing contract requires.  This module holds no
integrator logic: it validates packs, describes their topologies, and
reports them to telemetry.

Packs always run strict.  The DC gmin ladder and the global
step-bisection retry would engage on *any* member's convergence failure
and so couple members; a pack uses neither, and the first Newton
failure raises :class:`~repro.spice.mna.ConvergenceError`.  A pack that
returns is therefore bit-identical member for member; callers re-solve
members individually on the error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.spice.batch import BatchedResult, BatchedSimulation
from repro.spice.cache import fingerprint
from repro.spice.mna import NewtonOptions
from repro.spice.netlist import Circuit
from repro.spice.stamping import StampPlan
from repro.spice.stepper import TransientStepper, validate_schedule
from repro.telemetry import get_telemetry

__all__ = ["RaggedPack", "TopologyFamily", "ragged_transient"]


@dataclass(frozen=True)
class TopologyFamily:
    """Canonical structural descriptor of one circuit topology.

    Two circuits share a family exactly when their node layouts and
    element connectivity coincide -- element *values* (resistances,
    capacitances, device widths) are deliberately excluded, which is
    what separates a family from a circuit fingerprint: every resistive
    open of a given subnet shape is one family but a distinct exact
    fingerprint.  The descriptor also canonicalizes the pad map a
    packed solve needs: the condensed solve dimension this topology
    occupies inside a ragged pack.

    Attributes:
        title: The circuit's title (informational only; not part of
            equality -- ``signature`` carries the structure).
        num_nodes: Node count including ground.
        dim: Condensed solve-space dimension (the packed matrix block
            this topology contributes).
        num_resistors: Resistor count.
        num_caps: Capacitor count.
        num_fets: MOSFET count.
        signature: Content hash of the full structural layout (node
            indices of every element terminal plus source incidence).
    """

    title: str
    num_nodes: int
    dim: int
    num_resistors: int
    num_caps: int
    num_fets: int
    signature: str

    @classmethod
    def of(
        cls, circuit: Circuit, plan: Optional[StampPlan] = None
    ) -> "TopologyFamily":
        """The family of ``circuit`` (reusing a compiled ``plan`` if given)."""
        if plan is None:
            plan = StampPlan(circuit, gmin=NewtonOptions().gmin)
        signature = fingerprint(
            "spice.topology_family",
            plan.num_nodes,
            plan.num_vsrc,
            tuple(plan.res_i.tolist()),
            tuple(plan.res_j.tolist()),
            tuple(plan.cap_n1.tolist()),
            tuple(plan.cap_n2.tolist()),
            tuple(plan.fet_d.tolist()),
            tuple(plan.fet_g.tolist()),
            tuple(plan.fet_s.tolist()),
            tuple(plan.fet_b.tolist()),
            tuple(
                (circuit.node_index(src.npos), circuit.node_index(src.nneg))
                for src in circuit.vsources
            ),
        )
        return cls(
            title=circuit.title or "",
            num_nodes=plan.num_nodes,
            dim=plan.condensed.dim,
            num_resistors=plan.num_resistors,
            num_caps=plan.num_caps,
            num_fets=plan.num_fets,
            signature=signature,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TopologyFamily):
            return NotImplemented
        return self.signature == other.signature

    def __hash__(self) -> int:
        return hash(self.signature)


class _PackMember:
    """One simulation inside a pack: its solve space and topology family."""

    def __init__(self, index: int, sim: BatchedSimulation):
        self.index = index
        self.sim = sim
        self.space = sim.plan.condensed
        self.num_corners = sim.num_corners
        self.family = TopologyFamily.of(sim.circuit, sim.plan)


class RaggedPack:
    """A compiled pack of :class:`BatchedSimulation` members.

    Construction validates that members can share one integration
    (identical Newton options) and describes the pack layout.

    Attributes:
        members: The compiled pack members, in input order.
        num_corners: Total corners across members.
        max_dim: Largest member solve dimension.
        pad_waste: Fraction of the O(m^3) work that identity-padding
            every member to ``max_dim`` would waste: ``1 - sum(S_j
            m_j^3) / (S_total max_dim^3)``.  Zero when every member
            shares one dimension.  The dimension-grouped solves never
            pay it; it measures how ragged the pack is.
    """

    def __init__(self, sims: Sequence[BatchedSimulation]):
        if not sims:
            raise ValueError("a ragged pack needs at least one simulation")
        options = sims[0].options
        for i, sim in enumerate(sims[1:], start=1):
            if sim.options != options:
                raise ValueError(
                    f"pack member {i} has different Newton options than "
                    f"member 0; members must share one solver configuration"
                )
        self.options = options
        self.members = [_PackMember(i, sim) for i, sim in enumerate(sims)]
        self.num_corners = sum(m.num_corners for m in self.members)
        self.max_dim = max(m.space.dim for m in self.members)
        solved = sum(m.num_corners * m.space.dim ** 3 for m in self.members)
        padded = self.num_corners * self.max_dim ** 3
        self.pad_waste = 1.0 - solved / padded if padded else 0.0

    @property
    def families(self) -> List[TopologyFamily]:
        """Per-member topology families, in member order."""
        return [m.family for m in self.members]

    def transient(
        self,
        stop_time: float,
        timestep: float,
        ics: Optional[Dict[str, float]] = None,
        record: Optional[Iterable[str]] = None,
        method: str = "trap",
    ) -> List[BatchedResult]:
        """Integrate every member over one shared time loop.

        Mirrors :meth:`BatchedSimulation.transient` member-for-member:
        per-member DC start (with the same ``ics`` clamps), then the
        shared :class:`~repro.spice.stepper.TransientStepper` schedule.
        The run is strict (``strict=True`` there): no gmin ladder, no
        step bisection, the first Newton failure raises
        :class:`~repro.spice.mna.ConvergenceError`.

        Args:
            record: Node names recorded for every member; required,
                since no default node set is defined across topologies
                (the names must exist in every member).

        Returns:
            One :class:`BatchedResult` per member, in input order.
        """
        validate_schedule(stop_time, timestep, method)
        if record is None:
            raise ValueError(
                "ragged packs record no default node set; pass the node "
                "names to observe (they must exist in every member)"
            )
        record_nodes = list(record)
        record_idx: List[Dict[str, int]] = []
        for member in self.members:
            circuit = member.sim.circuit
            known = set(circuit.nodes)
            missing = [n for n in record_nodes if n not in known]
            if missing:
                raise ValueError(
                    f"pack member {member.index} "
                    f"({circuit.title or 'circuit'}) has no "
                    f"node(s) {missing}; record nodes must exist in every "
                    f"member"
                )
            record_idx.append({n: circuit.node_index(n) for n in record_nodes})

        tele = get_telemetry()
        tele.incr("ragged.packs")
        tele.observe("ragged.pack_members", len(self.members))
        tele.observe("ragged.pack_corners", self.num_corners)
        tele.observe("ragged.pad_waste", self.pad_waste)

        stepper = TransientStepper(
            [m.sim.step_member(idx, ics=ics, strict=True)
             for m, idx in zip(self.members, record_idx)],
            self.options,
        )
        stepped = stepper.run(stop_time, timestep, method=method, max_retries=0)
        return [
            BatchedResult(
                time=s.time, voltages=s.traces, num_corners=m.num_corners
            )
            for m, s in zip(self.members, stepped)
        ]


def ragged_transient(
    sims: Sequence[BatchedSimulation],
    stop_time: float,
    timestep: float,
    ics: Optional[Dict[str, float]] = None,
    record: Optional[Iterable[str]] = None,
    method: str = "trap",
) -> List[BatchedResult]:
    """Run several batched simulations through one shared time loop.

    The functional entry point over :class:`RaggedPack`; see its
    :meth:`~RaggedPack.transient` for semantics.  A run that returns
    gives every member traces bit-identical to calling
    ``sim.transient(...)`` on it alone.
    """
    return RaggedPack(sims).transient(
        stop_time, timestep, ics=ics, record=record, method=method,
    )
