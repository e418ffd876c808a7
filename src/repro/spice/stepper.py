"""Shared Newton iteration, DC solve, and trap/BE transient stepper.

This is the *stepper layer* of the solver stack: one implementation of
the damped Newton-Raphson loop, the gmin-stepping DC fallback, and the
trapezoidal / backward-Euler integrator with step bisection.  Scalar
:func:`repro.spice.transient.transient`, :class:`repro.spice.batch.BatchedSimulation`
and the ragged packs of :mod:`repro.spice.ragged` are thin callers that
hand :class:`TransientStepper` one or more *members*; none of them
carries integrator logic of its own.

A member is one compiled system: a
:class:`~repro.spice.stamping.SolveSpace` plus (possibly per-corner)
element values and its corners' state.  Members may differ in topology
and dimension; they share one time grid, one trap/BE schedule, one
bisection ladder and one Newton loop, in which the active systems of all
members are solved grouped by solve dimension.  Stacking same-shape
systems is bit-transparent per corner, so every member's trajectory is
identical to running it alone.

All state is batched: the solution ``x`` is ``(S, size)`` in *full*
coordinates (ground row included, pinned nodes held at their known
voltages), while matrices and RHS vectors handed to the
:mod:`repro.spice.linalg` solver live in the coordinates of a
:class:`~repro.spice.stamping.SolveSpace`.  DC analysis runs in the
:attr:`~repro.spice.stamping.StampPlan.reduced` space (branch currents
kept, so operating points report source currents); the transient loop
runs in the :attr:`~repro.spice.stamping.StampPlan.condensed` space,
where rail/input nodes driven by voltage sources are eliminated and the
per-step LAPACK solve shrinks accordingly.  The Newton loop maintains a
per-member, per-corner active set -- corners that have converged drop
out of subsequent linearization, stamping, and solve work instead of
being re-solved until the slowest corner finishes.

Failure handling is batch-global: the bisection retry and the Newton
iteration budget engage on *any* member's or corner's failure, so
failure handling (only) can couple the members of one run.  Callers
needing strict per-member behaviour under failure re-solve members
individually -- the screening service's retry-by-decomposition path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.spice.linalg import LinearSolver, batched_dense_solve
from repro.spice.mna import ConvergenceError, NewtonOptions
from repro.spice.stamping import FetLinearization, FetParams, SolveSpace
from repro.telemetry import get_telemetry

#: Conductance used to clamp .IC nodes (siemens); standard SPICE ``.IC``.
CLAMP_G = 1e3


def companion_geq(cap_c: np.ndarray, h: float, use_trap: bool) -> np.ndarray:
    """Companion-model conductance per capacitor for a step of ``h``."""
    return (2.0 if use_trap else 1.0) * cap_c / h


def newton_update(
    xa: np.ndarray,
    x_new: np.ndarray,
    num_nodes: int,
    opts: NewtonOptions,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One damped Newton acceptance step over the active corners.

    Args:
        xa: Current iterates, ``(A, size)`` full coordinates.
        x_new: Undamped solver proposals, same shape.
        num_nodes: Number of node unknowns (leading block of ``x``).
        opts: Newton tuning knobs.

    Returns:
        ``(xa_next, max_dv, worst_node, converged)``: the damped (or,
        where converged with a small step, undamped) next iterates, the
        per-corner max node-voltage update, the node index realizing it,
        and the per-corner convergence mask.
    """
    delta = x_new - xa
    if num_nodes > 1:
        dv_nodes = np.abs(delta[:, :num_nodes])
        max_dv = dv_nodes.max(axis=1)
        worst = dv_nodes.argmax(axis=1)
    else:
        max_dv = np.zeros(len(xa))
        worst = np.zeros(len(xa), dtype=np.intp)
    xa = xa + np.clip(delta, -opts.damping, opts.damping)
    vmax = np.abs(xa[:, :num_nodes]).max(axis=1) + 1e-12
    converged = max_dv < opts.vntol + opts.reltol * vmax
    if converged.any():
        # Take the undamped final solution where the step was small.
        undamped = (np.abs(delta) <= opts.damping + 1e-15).all(axis=1)
        take = converged & undamped
        if take.any():
            xa[take] = x_new[take]
    return xa, max_dv, worst, converged


@dataclass
class NewtonMember:
    """One system of a Newton solve.

    Attributes:
        solver: Linear solver with the member's base matrix installed;
            its ``space`` is the solve space the member iterates in.
        fets: MOSFET parameters (``None`` for linear circuits).
        b: Linear part of the solve-space RHS, ``(S, dim)`` (pinned-column
            corrections already applied).
        x_guess: Initial full solution vectors, ``(S, size)``.
        pinned: Known voltages of the space's pinned nodes (``(P,)``);
            written into ``x`` before iterating.
        fet_vpin: Per-Jacobian-entry pinned voltages (from
            :meth:`SolveSpace.fet_pin_values`) for the nonlinear RHS
            correction; only needed when the space pins MOSFET terminals.
    """

    solver: LinearSolver
    fets: Optional[FetParams]
    b: np.ndarray
    x_guess: np.ndarray
    pinned: Optional[np.ndarray] = None
    fet_vpin: Optional[np.ndarray] = None


def _solve_by_dimension(
    work: Sequence[Tuple[LinearSolver, np.ndarray, Optional[FetLinearization],
                         np.ndarray]],
) -> List[np.ndarray]:
    """Solve ``(solver, b, lin, active)`` systems, one LAPACK call per
    distinct solve dimension; one solution array per work item."""
    if len(work) == 1:  # a scalar or batched run: no grouping needed
        solver, b, lin, active = work[0]
        return [solver.solve(b, lin, active)]
    by_dim: Dict[int, List[int]] = {}
    for i, (solver, _, _, _) in enumerate(work):
        by_dim.setdefault(solver.space.dim, []).append(i)
    sols: List[np.ndarray] = [np.empty(0)] * len(work)
    for idxs in by_dim.values():
        if len(idxs) == 1:
            solver, b, lin, active = work[idxs[0]]
            sols[idxs[0]] = solver.solve(b, lin, active)
            continue
        get_telemetry().incr("ragged.bucket_solves")
        a_cat = np.concatenate([
            solver.matrix(len(b), lin, active)
            for solver, b, lin, active in (work[i] for i in idxs)
        ])
        sol = batched_dense_solve(
            a_cat, np.concatenate([work[i][1] for i in idxs])
        )
        offset = 0
        for i in idxs:
            count = len(work[i][1])
            sols[i] = sol[offset:offset + count]
            offset += count
    return sols


def newton_iterate(
    members: Sequence[NewtonMember],
    options: NewtonOptions,
    label: str = "",
) -> List[np.ndarray]:
    """Damped Newton-Raphson over the corners of every member.

    Each member linearizes and stamps through its own solve space and
    keeps its own active set; per iteration the active systems of all
    members are solved together, grouped by solve dimension.

    Args:
        members: The systems to solve.
        options: Newton tuning knobs.
        label: Context string for error messages.

    Returns:
        Converged full solution vectors ``(S, size)``, one per member.

    Raises:
        ConvergenceError: If any corner fails to converge; carries the
            failing corners (numbered consecutively across members),
            their final ``max_dv`` and the worst-updating node names.
    """
    opts = options
    tele = get_telemetry()
    tele.incr("newton_solves")

    xs: List[np.ndarray] = []
    actives: List[np.ndarray] = []
    for m in members:
        space = m.solver.space
        x = m.x_guess.copy()
        x[:, 0] = 0.0
        if m.pinned is not None and space.num_pinned:
            x[:, space.pinned_nodes] = m.pinned
        xs.append(x)
        # A space with every node pinned has nothing to solve.
        actives.append(np.arange(len(x) if space.dim else 0))
    last_dv = [np.zeros(len(x)) for x in xs]
    last_node = [np.zeros(len(x), dtype=np.intp) for x in xs]

    live = [j for j, active in enumerate(actives) if len(active)]
    for _ in range(opts.max_iterations):
        if not live:
            return xs
        tele.incr("newton_iterations")
        xas = []
        work = []
        for j in live:
            m, active, x = members[j], actives[j], xs[j]
            space = m.solver.space
            plan = space.plan
            xa = x[active]
            lin = None
            if m.fets is not None and plan.num_fets > 0:
                fa = m.fets.select(active) if len(active) < len(x) else m.fets
                lin = plan.linearize_fets(fa, xa)
            b = m.b[active]
            if lin is not None:
                space.stamp_fet_rhs(b, lin)
                if m.fet_vpin is not None:
                    space.stamp_fet_pin_rhs(b, lin, m.fet_vpin)
            xas.append(xa)
            work.append((m.solver, b, lin, active))
        try:
            sols = _solve_by_dimension(work)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular MNA matrix during Newton solve ({label or 'unnamed'})",
                corners=_corner_ids(xs, actives),
            ) from exc

        for j, xa, sol in zip(live, xas, sols):
            space = members[j].solver.space
            active = actives[j]
            x_new = xa.copy()
            x_new[:, space.kept] = sol
            xa, max_dv, worst, converged = newton_update(
                xa, x_new, space.plan.num_nodes, opts
            )
            xs[j][active] = xa
            last_dv[j][active] = max_dv
            last_node[j][active] = worst
            actives[j] = active[~converged]
        live = [j for j in live if len(actives[j])]

    if not live:
        return xs
    tele.incr("newton_failures")
    # Report the worst-updating unknown by its netlist *name* (node via
    # the circuit's reverse map) so the failure is actionable without
    # decoding MNA indices, and keep the failing corner ids attached.
    corners = _corner_ids(xs, actives)
    max_dv = np.concatenate([dv[a] for dv, a in zip(last_dv, actives)])
    nodes = [
        m.solver.space.plan.circuit.nodes[int(worst[c])]
        for m, worst, active in zip(members, last_node, actives)
        for c in active
    ]
    failing = ", ".join(
        f"corner {c}: max_dv={dv:.3e} V at node {name!r}"
        for c, dv, name in zip(corners[:8], max_dv[:8], nodes[:8])
    )
    more = "" if len(corners) <= 8 else f" (+{len(corners) - 8} more)"
    raise ConvergenceError(
        f"Newton failed to converge after {opts.max_iterations} iterations "
        f"({label or 'unnamed solve'}): {len(corners)} of "
        f"{sum(len(x) for x in xs)} corners unconverged [{failing}{more}]",
        corners=corners,
        max_dv=max_dv,
        nodes=nodes,
    )


def _corner_ids(
    xs: Sequence[np.ndarray], actives: Sequence[np.ndarray]
) -> List[int]:
    """Active corners numbered consecutively across members."""
    ids: List[int] = []
    offset = 0
    for x, active in zip(xs, actives):
        ids.extend(int(offset + c) for c in active)
        offset += len(x)
    return ids


def solve_dc_plan(
    space: SolveSpace,
    fets: Optional[FetParams],
    options: NewtonOptions,
    num_corners: int,
    t: float = 0.0,
    ics: Optional[Dict[str, float]] = None,
    guess: Optional[np.ndarray] = None,
    a_linear: Optional[np.ndarray] = None,
    bpin: Optional[np.ndarray] = None,
    strict: bool = False,
) -> np.ndarray:
    """DC operating point with ``.IC`` clamps and gmin-stepping fallback.

    ``a_linear``/``bpin`` are the space's linear assembly (shared
    ``(dim, dim)`` or stacked ``(S, dim, dim)``) and pinned-column
    correction matrix; both are assembled from the space when omitted.
    ``strict`` raises the first :class:`ConvergenceError` instead of
    falling back to gmin stepping (which is batch-global).
    Returns full vectors ``(S, size)``.
    """
    plan = space.plan
    if a_linear is None:
        a_linear = space.assemble_linear()
    a = a_linear.copy()
    b = np.zeros((num_corners, space.dim))
    space.source_rhs_into(b, t)
    vpin = None
    fet_vpin = None
    if space.num_pinned:
        vpin = space.pinned_voltages(t)
        if bpin is None:
            bpin = space.bpin_linear()
        b -= bpin @ vpin
        if space.has_fet_pins:
            fet_vpin = space.fet_pin_values(vpin)
    if ics:
        for node, voltage in ics.items():
            idx = space.col_map[plan.circuit.node_index(node)]
            if idx < 0:
                # Ground or a source-pinned node: the source wins anyway.
                continue
            a[..., idx, idx] += CLAMP_G
            b[..., idx] += CLAMP_G * voltage
    solver = LinearSolver(space)

    def solve(x: np.ndarray, label: str) -> np.ndarray:
        member = NewtonMember(solver, fets, b, x, vpin, fet_vpin)
        return newton_iterate([member], options, label=label)[0]

    solver.set_base(a)
    x0 = guess.copy() if guess is not None else np.zeros((num_corners, plan.size))
    try:
        return solve(x0, "dc")
    except ConvergenceError:
        if strict:
            raise

    # gmin stepping: solve a sequence of increasingly stiff problems,
    # reusing each solution as the next starting point.
    x = np.zeros((num_corners, plan.size))
    diag = np.arange(space.num_kept_nodes)
    for gstep in np.logspace(0, -9, 19):
        a_step = a.copy()
        a_step[..., diag, diag] += gstep
        solver.set_base(a_step)
        x = solve(x, f"dc gmin={gstep:.1e}")
    solver.set_base(a)
    return solve(x, "dc final")


def validate_schedule(stop_time: float, timestep: float, method: str) -> None:
    """Reject an unknown integration method or a non-positive time grid."""
    if method not in ("trap", "be"):
        raise ValueError(f"unknown integration method {method!r}")
    if timestep <= 0 or stop_time <= 0:
        raise ValueError("stop_time and timestep must be positive")


@dataclass
class SteppedResult:
    """Raw batched stepper output: uniform time grid and ``(S, T)`` traces."""

    time: np.ndarray
    traces: Dict[str, np.ndarray]


#: Per-member integration state: ``(x, vc, ic)``.
_State = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: Per-member companion system for one step size: ``(solver, geq, B_pin)``.
_Companion = Tuple[LinearSolver, np.ndarray, np.ndarray]


@dataclass
class StepMember:
    """One compiled system advanced by :class:`TransientStepper`.

    Attributes:
        space: Solve space of the time loop (normally the plan's
            condensed space).
        fets: MOSFET parameters (``None`` for linear circuits).
        cap_c: Capacitances, ``(C,)`` shared or ``(S, C)`` per corner.
        a_linear: The space's linear assembly, ``(m, m)`` or ``(S, m, m)``.
        bpin_linear: Pinned-column correction of the linear assembly.
        x0: Initial state (the DC operating point), ``(S, size)``.
        record_idx: Node name -> full-vector index of recorded nodes.
    """

    space: SolveSpace
    fets: Optional[FetParams]
    cap_c: np.ndarray
    a_linear: np.ndarray
    bpin_linear: np.ndarray
    x0: np.ndarray
    record_idx: Dict[str, int]

    @property
    def num_corners(self) -> int:
        return self.x0.shape[0]

    def companion(self, h: float, use_trap: bool) -> _Companion:
        """(solver, geq, B_pin) for a step of ``h``: the linear assembly
        plus capacitor companions installed as the solver's base."""
        space = self.space
        geq = companion_geq(self.cap_c, h, use_trap)
        if self.a_linear.ndim == 3 or geq.ndim == 2:
            m = space.dim
            a = np.broadcast_to(self.a_linear, (self.num_corners, m, m)).copy()
            geq_a = np.broadcast_to(
                geq, (self.num_corners, space.plan.num_caps)
            )
        else:
            a = self.a_linear.copy()
            geq_a = geq
        space.stamp_capacitor_matrix(a, geq_a)
        if space.num_pinned:
            bpin = self.bpin_linear + space.bpin_capacitors(geq)
        else:
            bpin = self.bpin_linear
        solver = LinearSolver(space)
        solver.set_base(a)
        return solver, geq, bpin


class TransientStepper:
    """The trap/BE integrator over a list of members.

    The integration scheme matches the historical scalar engine:
    trapezoidal by default with a backward-Euler first step, damped
    Newton with linear prediction of the next time point, and step
    bisection (backward Euler) on convergence failure.  A step that
    fails for any member is halved for all.
    """

    def __init__(self, members: Sequence[StepMember], options: NewtonOptions):
        if not members:
            raise ValueError("a transient needs at least one member")
        self.members = list(members)
        self.options = options

    def _companions(self, h: float, use_trap: bool) -> List[_Companion]:
        return [m.companion(h, use_trap) for m in self.members]

    def _step(
        self,
        states: List[_State],
        comps: List[_Companion],
        use_trap: bool,
        t_new: float,
        guesses: List[np.ndarray],
    ) -> List[_State]:
        """One time step for every member (or ConvergenceError)."""
        newton: List[NewtonMember] = []
        ieqs: List[np.ndarray] = []
        for m, (_, vc, ic), (solver, geq, bpin), guess in zip(
            self.members, states, comps, guesses
        ):
            # Linear RHS: sources, pinned columns, capacitor companions.
            space = m.space
            b = np.zeros((m.num_corners, space.dim))
            space.source_rhs_into(b, t_new)
            vpin = None
            fet_vpin = None
            if space.num_pinned:
                vpin = space.pinned_voltages(t_new)
                b -= bpin @ vpin
                if space.has_fet_pins:
                    fet_vpin = space.fet_pin_values(vpin)
            ieq = geq * vc + ic if use_trap else geq * vc
            space.stamp_capacitor_rhs(b, ieq)
            newton.append(NewtonMember(solver, m.fets, b, guess, vpin, fet_vpin))
            ieqs.append(ieq)
        xs = newton_iterate(newton, self.options, label=f"tran t={t_new:.3e}")
        out: List[_State] = []
        for m, x, (_, vc, _), (_, geq, _), ieq in zip(
            self.members, xs, states, comps, ieqs
        ):
            plan = m.space.plan
            vc_new = x[:, plan.cap_n1] - x[:, plan.cap_n2]
            ic_new = geq * vc_new - ieq if use_trap else geq * (vc_new - vc)
            out.append((x, vc_new, ic_new))
        return out

    def _advance(
        self,
        states: List[_State],
        t_from: float,
        t_to: float,
        comps: List[_Companion],
        use_trap: bool,
        guesses: List[np.ndarray],
        max_retries: int,
    ) -> List[_State]:
        """Advance one step, bisecting on convergence failure."""
        try:
            return self._step(states, comps, use_trap, t_to, guesses)
        except ConvergenceError:
            if max_retries <= 0:
                raise
            # Retry with two half steps using backward Euler (robust).
            tele = get_telemetry()
            tele.incr("step_retries")
            tele.incr("step_halvings", 2)
            h_half = (t_to - t_from) / 2.0
            comps_h = self._companions(h_half, use_trap=False)
            t_mid = t_from + h_half
            states = self._advance(
                states, t_from, t_mid, comps_h, False,
                [x for x, _, _ in states], max_retries - 1,
            )
            return self._advance(
                states, t_mid, t_to, comps_h, False,
                [x for x, _, _ in states], max_retries - 1,
            )

    def run(
        self,
        stop_time: float,
        timestep: float,
        method: str = "trap",
        max_retries: int = 4,
    ) -> List[SteppedResult]:
        """Integrate every member from its initial state ``x0``.

        Records each member's ``record_idx`` node voltages on the
        uniform grid ``0, h, ..., <= stop_time`` as ``(S, T)`` arrays;
        one result per member, in member order.
        """
        validate_schedule(stop_time, timestep, method)
        num_steps = int(round(stop_time / timestep))
        times = np.arange(num_steps + 1) * timestep

        traces = [
            {node: np.empty((m.num_corners, num_steps + 1))
             for node in m.record_idx}
            for m in self.members
        ]
        states: List[_State] = []
        for m, trace in zip(self.members, traces):
            x = m.x0
            for node, idx in m.record_idx.items():
                trace[node][:, 0] = x[:, idx]
            vc = x[:, m.space.plan.cap_n1] - x[:, m.space.plan.cap_n2]
            states.append((x, vc, np.zeros_like(vc)))

        use_trap_default = method == "trap"
        comps_be = self._companions(timestep, use_trap=False)
        comps_trap = (
            self._companions(timestep, use_trap=True)
            if use_trap_default else comps_be
        )

        x_prev = [x for x, _, _ in states]
        for k in range(1, num_steps + 1):
            # First step uses BE to avoid trapezoidal ringing from DC.
            trap_now = use_trap_default and k > 1
            # Linear prediction of the next time point speeds Newton up.
            guesses = [
                2.0 * x - xp if k > 1 else x
                for (x, _, _), xp in zip(states, x_prev)
            ]
            x_prev = [x for x, _, _ in states]
            states = self._advance(
                states, times[k - 1], times[k],
                comps_trap if trap_now else comps_be,
                trap_now, guesses, max_retries,
            )
            for m, trace, (x, _, _) in zip(self.members, traces, states):
                for node, idx in m.record_idx.items():
                    trace[node][:, k] = x[:, idx]

        return [SteppedResult(time=times, traces=trace) for trace in traces]
