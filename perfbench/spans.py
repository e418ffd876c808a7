"""In-memory span tracer that wraps the stack's public entry points.

The traced run installs wrappers around the functions listed in
:data:`LAYER_TARGETS`; every call records a span (id, parent id, name,
start, end, self time) on a per-thread stack, so nested layers get
self times without double counting.  Nothing under ``src/`` is edited:
the wrappers are set on module and class attributes for the duration of
one traced pass and removed afterwards, so untraced passes run the
program's own functions.

Forked worker processes (the wafer pool and the service's process
transport) inherit the wrapped functions; a fork hook restores the
originals in the child, so worker-side layers run untraced and are
reported from the telemetry they merge back, never as times.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

#: (module, attribute path, span name).  An attribute path ``Cls.meth``
#: wraps the method on ``Cls`` and on every subclass that overrides it;
#: a bare function name is rebound in every loaded ``repro`` module that
#: imported it.  Span names are ``<layer>.<kind>``; :mod:`layers` sums
#: their self times by name.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # repro.spice: device evaluation, stamping, linalg, Newton, stepper, batch
    ("repro.spice.mosfet", "evaluate_mosfets", "spice.device_eval"),
    ("repro.spice.stamping", "StampPlan.linearize_fets", "spice.stamp"),
    ("repro.spice.stamping", "StampPlan.assemble_linear", "spice.stamp"),
    ("repro.spice.stamping", "StampPlan.source_rhs_into", "spice.stamp"),
    ("repro.spice.stamping", "StampPlan.stamp_capacitor_matrix", "spice.stamp"),
    ("repro.spice.stamping", "StampPlan.stamp_capacitor_rhs", "spice.stamp"),
    ("repro.spice.stamping", "StampPlan.stamp_fet_matrix", "spice.stamp"),
    ("repro.spice.stamping", "StampPlan.stamp_fet_rhs", "spice.stamp"),
    ("repro.spice.stamping", "SolveSpace.assemble_linear", "spice.stamp"),
    ("repro.spice.stamping", "SolveSpace.bpin_linear", "spice.stamp"),
    ("repro.spice.stamping", "SolveSpace.bpin_capacitors", "spice.stamp"),
    ("repro.spice.stamping", "SolveSpace.source_rhs_into", "spice.stamp"),
    ("repro.spice.stamping", "SolveSpace.stamp_capacitor_matrix", "spice.stamp"),
    ("repro.spice.stamping", "SolveSpace.stamp_capacitor_rhs", "spice.stamp"),
    ("repro.spice.stamping", "SolveSpace.stamp_fet_matrix", "spice.stamp"),
    ("repro.spice.stamping", "SolveSpace.stamp_fet_rhs", "spice.stamp"),
    ("repro.spice.stamping", "SolveSpace.stamp_fet_pin_rhs", "spice.stamp"),
    ("repro.spice.stamping", "SolveSpace.fet_pin_values", "spice.stamp"),
    ("repro.spice.stamping", "SolveSpace.scatter_solution", "spice.stamp"),
    ("repro.spice.stamping", "ScatterPlan.add", "spice.stamp"),
    ("repro.spice.linalg", "LinearSolver.solve", "spice.solve"),
    ("repro.spice.linalg", "LinearSolver.set_base", "spice.solve"),
    ("repro.spice.linalg", "batched_dense_solve", "spice.solve"),
    ("repro.spice.stepper", "newton_update", "spice.newton_update"),
    ("repro.spice.stepper", "newton_iterate", "spice.newton"),
    ("repro.spice.stepper", "TransientStepper.run", "spice.step"),
    ("repro.spice.batch", "BatchedSimulation.transient", "spice.batch"),
    ("repro.spice.batch", "BatchedSimulation.solve_dc", "spice.batch"),
    # repro.core.engines
    ("repro.core.engines.base", "Engine.measure", "engine.measure"),
    ("repro.core.engines.base", "Engine.measure_batch", "engine.measure"),
    ("repro.core.engines.base", "Engine.delta_t_mc", "engine.measure"),
    ("repro.core.engines.base", "Engine.delta_t", "engine.measure"),
    ("repro.core.engines.base", "Engine.batch_key", "engine.key"),
    ("repro.core.engines.base", "Engine.family_key", "engine.key"),
    # repro.compiler, repro.workloads (flow, wafer), repro.cascade
    ("repro.compiler.compile", "compile_die", "compiler.compile"),
    ("repro.workloads.flow", "ScreeningFlow.__init__", "flow.characterize"),
    ("repro.workloads.flow", "ScreeningFlow.preflight_die", "wafer.preflight"),
    ("repro.workloads.flow", "ScreeningFlow.screen_die", "flow.screen_die"),
    ("repro.workloads.wafer", "WaferScreeningEngine.screen", "wafer.screen"),
    ("repro.cascade.cascade", "CascadeScreen.prepare", "cascade.prepare"),
    ("repro.cascade.cascade", "CascadeScreen.classify_die", "cascade.classify"),
    # repro.service (synchronous boundaries; coroutines are timed by the
    # service itself through ScreenResponse.latency)
    ("repro.service.arena", "dump", "arena.dump"),
    ("repro.service.arena", "Arena.create", "arena.segment"),
    ("repro.service.arena", "Arena.release", "arena.segment"),
    ("repro.service.batcher", "DispatchQueue.put", "service.dispatch"),
)

#: Span record: (id, parent id or 0, name, start, end, self seconds).
Span = Tuple[int, int, str, float, float, float]


class Tracer:
    """Records spans while installed; restores every patch on removal."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        parent = stack[-1][0] if stack else 0
        frame = [sid, 0.0]  # id, seconds covered by child spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            with self._lock:
                self.spans.append(
                    (sid, parent, name, start, end, duration - frame[1])
                )

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- installation ----------------------------------------------------
    def install(self, targets=LAYER_TARGETS) -> None:
        """Wrap every target; idempotent per tracer."""
        if self._patches:
            return
        _register_fork_hook()
        for module_name, attr_path, name in targets:
            module = importlib.import_module(module_name)
            if "." in attr_path:
                cls_name, meth = attr_path.split(".")
                for cls in _with_subclasses(getattr(module, cls_name)):
                    if meth in cls.__dict__:
                        self._patch(cls, meth, self._wrap(
                            cls.__dict__[meth], name))
            else:
                original = getattr(module, attr_path)
                traced = self._wrap(original, name)
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name.split(".")[0] == "repro"
                            and getattr(mod, attr_path, None) is original):
                        self._patch(mod, attr_path, traced)
        _ACTIVE.append(self)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every original attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self in _ACTIVE:
            _ACTIVE.remove(self)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading ---------------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self.spans = []

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total seconds, self seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for _, _, name, start, end, self_s in self.spans:
            row = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
        return out

    def self_seconds(self, name: str) -> float:
        return float(sum(s[5] for s in self.spans if s[2] == name))

    def total_seconds(self, name: str) -> float:
        return float(sum(s[4] - s[3] for s in self.spans if s[2] == name))

    def write(self, path: Path) -> None:
        """Write the raw spans and their per-name summary as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["id", "parent", "name", "start", "end", "self_s"],
            "spans": self.spans,
            "summary": self.summary(),
        }))


def _with_subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


#: Tracers currently installed in this process.
_ACTIVE: List[Tracer] = []
_FORK_HOOK: List[bool] = []


def _drop_in_child() -> None:
    """Fork hook: a worker process runs the program's own functions."""
    for tracer in list(_ACTIVE):
        tracer._lock = threading.Lock()  # the parent's may be held
        tracer.uninstall()
        tracer.spans = []


def _register_fork_hook() -> None:
    if not _FORK_HOOK:
        os.register_at_fork(after_in_child=_drop_in_child)
        _FORK_HOOK.append(True)
