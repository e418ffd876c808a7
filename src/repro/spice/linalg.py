"""The linear-solve layer of the MNA solver stack.

Every Newton iteration solves the solve-space system

    (A_base + dA_fet(x)) x = b

where ``A_base`` is the time-invariant linear + companion matrix (set
once per timestep size / integration method via :meth:`LinearSolver.set_base`)
and ``dA_fet`` is the per-iteration MOSFET linearization, handed over in
structured form (a :class:`~repro.spice.stamping.FetLinearization`).
A :class:`LinearSolver` is bound to a
:class:`~repro.spice.stamping.SolveSpace`, which defines the unknown
ordering and owns the compiled scatter indices.

There is one data layout: the stacked ``(A, m, m)`` dense batch of the
active corners, solved through numpy's broadcasted LAPACK ``gesv``
(:func:`batched_dense_solve`).  A scalar analysis is the batch of one.
All solve shapes are batched: ``b`` is ``(A, m)`` and the result is
``(A, m)`` where ``A`` is the number of active corners and ``m`` the
solve-space dimension.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.spice.stamping import FetLinearization, SolveSpace
from repro.telemetry import get_telemetry


def batched_dense_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One broadcasted LAPACK solve of the stacked systems ``a x = b``.

    ``a`` is ``(A, m, m)``, ``b`` is ``(A, m)``.  The single entry point
    for every linear solve in the stack: numpy dispatches the whole
    stack through one ``gesv`` loop, and per-corner results are
    bit-identical to solving each system alone.
    """
    get_telemetry().incr("batched_solves")
    return np.linalg.solve(a, b[..., None])[..., 0]


class LinearSolver:
    """The Newton loop's linear solver for one solve space.

    The base matrix may be shared across corners (``(m, m)``, the common
    Monte Carlo case where only MOSFET parameters vary) or fully stacked
    (``(S, m, m)`` for per-corner resistor or capacitor overrides).
    ``active`` restricts assembly and the LAPACK call to the corners
    still iterating.
    """

    def __init__(self, space: SolveSpace):
        self.space = space
        self._base: Optional[np.ndarray] = None

    def set_base(self, a_base: np.ndarray) -> None:
        """Install the base matrix ``(m, m)`` or ``(S, m, m)``.

        Called whenever the timestep or integration method (and hence
        the companion-model conductances) changes -- *not* per Newton
        iteration.
        """
        self._base = a_base

    def matrix(
        self,
        num: int,
        lin: Optional[FetLinearization] = None,
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The stamped Newton matrices ``(num, m, m)`` of the active corners.

        Broadcasts a shared base (or gathers the ``active`` corners of a
        stacked one) into a fresh array, then stamps the MOSFET
        linearization into it.
        """
        base = self._base
        if base.ndim == 2:
            a = np.broadcast_to(base, (num,) + base.shape).copy()
        elif active is None:
            a = base.copy()
        else:
            a = base[active]
        if lin is not None:
            self.space.stamp_fet_matrix(a, lin)
        return a

    def solve(
        self,
        b: np.ndarray,
        lin: Optional[FetLinearization] = None,
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Solve ``(A_base + dA(lin)) x = b`` for the active corners.

        Args:
            b: Solve-space RHS, shape ``(A, m)``.
            lin: MOSFET linearization for the active corners (``None``
                for linear circuits).
            active: Corner indices into a stacked base matrix; ``None``
                means all corners.

        Returns:
            Solutions, shape ``(A, m)``.

        Raises:
            np.linalg.LinAlgError: If the system is singular.
        """
        return batched_dense_solve(self.matrix(len(b), lin, active), b)
