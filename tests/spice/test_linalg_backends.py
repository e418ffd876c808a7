"""Contracts of the unified MNA solver stack.

Scalar ``transient()``, :class:`BatchedSimulation` and ragged packs all
run through one linear solver, one Newton loop and one time loop.  The
module pins the structural claims of that design: scalar and S=1 batched
assemblies are bit-identical, the scalar/batched/ragged wrappers carry
no integrator logic of their own, the DeltaT goldens hold on every path,
and :class:`ConvergenceError` reports per-corner diagnostics.
"""

import inspect
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.spice.batch as batch_module
import repro.spice.ragged as ragged_module
import repro.spice.transient as transient_module
from repro.core.tsv import Leakage, ResistiveOpen, Tsv
from repro.spice import Circuit, LinearSolver, StampPlan
from repro.spice.mna import ConvergenceError, MnaSystem, NewtonOptions
from repro.spice.mosfet import NMOS_45LP, PMOS_45LP
from repro.spice.stepper import NewtonMember, newton_iterate


def _leakage_stage():
    """One enabled segment with a leaky TSV (the Fig. 8 configuration)."""
    from repro.core.engines import StageDelayEngine

    engine = StageDelayEngine(timestep=2e-12)
    circuit, _ = engine._segment_circuit(
        Tsv(fault=Leakage(20e3)), bypassed=False
    )
    return engine, circuit


class TestScalarBatchedAssemblyParity:
    """StampPlan must serve (n, n) and (S, n, n) shapes bit-identically."""

    @settings(max_examples=25, deadline=None)
    @given(
        scales=st.lists(
            st.floats(min_value=0.05, max_value=20.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=8,
        )
    )
    def test_linear_assembly_bit_identical(self, scales):
        engine, circuit = _leakage_stage()
        plan = StampPlan(circuit, gmin=1e-9)
        res_g = plan.res_g0 * np.resize(scales, plan.num_resistors)
        for space in (plan.reduced, plan.condensed):
            scalar = space.assemble_linear(res_g)
            stacked = space.assemble_linear(res_g[None, :])
            assert stacked.shape == (1,) + scalar.shape
            assert np.array_equal(scalar, stacked[0])
            bp_scalar = space.bpin_linear(res_g)
            bp_stacked = space.bpin_linear(res_g[None, :])
            assert np.array_equal(bp_scalar, bp_stacked[0])

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_fet_stamps_bit_identical(self, data):
        engine, circuit = _leakage_stage()
        plan = StampPlan(circuit, gmin=1e-9)
        fets = plan.nominal_fets()
        volts = data.draw(
            st.lists(
                st.floats(min_value=-1.5, max_value=1.5,
                          allow_nan=False, allow_infinity=False),
                min_size=plan.size, max_size=plan.size,
            )
        )
        x = np.array(volts)
        lin_scalar = plan.linearize_fets(fets, x)
        lin_stacked = plan.linearize_fets(fets, x[None, :])
        space = plan.condensed
        a1 = np.zeros((space.dim, space.dim))
        a2 = np.zeros((1, space.dim, space.dim))
        space.stamp_fet_matrix(a1, lin_scalar)
        space.stamp_fet_matrix(a2, lin_stacked)
        assert np.array_equal(a1, a2[0])
        b1 = np.zeros(space.dim)
        b2 = np.zeros((1, space.dim))
        space.stamp_fet_rhs(b1, lin_scalar)
        space.stamp_fet_rhs(b2, lin_stacked)
        assert np.array_equal(b1, b2[0])


class TestConvergenceDiagnostics:
    def _nonlinear_system(self):
        circuit = Circuit("diag")
        circuit.add_vsource("vdd", "vdd", "0", 1.1)
        circuit.add_mosfet("mp", "out", "0", "vdd", "vdd",
                           PMOS_45LP, w=0.4e-6)
        circuit.add_mosfet("mn", "out", "vdd", "0", "0",
                           NMOS_45LP, w=0.2e-6)
        return MnaSystem(circuit, NewtonOptions(max_iterations=1))

    def test_error_reports_corner_indices_and_max_dv(self):
        system = self._nonlinear_system()
        b = np.zeros(system.size)
        system.source_rhs(0.0, b)
        with pytest.raises(ConvergenceError) as excinfo:
            system.newton_solve(system.a_linear, b,
                                np.zeros(system.size), label="diag")
        err = excinfo.value
        assert err.corners == [0]
        assert err.max_dv is not None and err.max_dv.shape == (1,)
        assert err.max_dv[0] > 0
        assert "corner 0" in str(err)
        assert "max_dv" in str(err)
        # The worst node is reported by *name*, not MNA index.
        assert len(err.nodes) == 1
        assert err.nodes[0] in ("vdd", "out")
        assert f"at node {err.nodes[0]!r}" in str(err)

    def test_multi_member_error_numbers_corners_across_members(self):
        system = self._nonlinear_system()
        plan = system.plan
        space = plan.reduced
        members = []
        for num in (2, 3):
            solver = LinearSolver(space)
            solver.set_base(space.assemble_linear())
            b = np.zeros((num, space.dim))
            space.source_rhs_into(b, 0.0)
            members.append(NewtonMember(
                solver, plan.nominal_fets(), b, np.zeros((num, plan.size))
            ))
        with pytest.raises(ConvergenceError) as excinfo:
            newton_iterate(members, system.options, label="pack")
        err = excinfo.value
        assert err.corners == [0, 1, 2, 3, 4]
        assert err.max_dv.shape == (5,) and (err.max_dv > 0).all()
        assert len(err.nodes) == 5
        assert "5 of 5 corners" in str(err)


class TestGoldenDeltaTParity:
    """Scalar and batched DeltaT paths must keep reproducing the goldens.

    ``tests/data/delta_t_parity.json`` pins the StageDelayEngine's DeltaT
    at nominal process for a grid of resistive-open and leakage faults,
    computed once through the scalar ``transient()`` path and once
    through the batched ``BatchedSimulation`` sweeps.  The regression
    tolerance is well below the paper's 0.1 ps measurement resolution
    but loose enough to absorb BLAS/LAPACK reduction-order differences
    across platforms (observed cross-path deviation: ~2e-16 s).
    """

    #: Fresh recomputation vs the checked-in goldens.
    GOLDEN_TOL = 0.05e-12
    #: Freshly computed scalar vs batched values.
    PARITY_TOL = 0.01e-12

    @pytest.fixture(scope="class")
    def golden(self):
        path = Path(__file__).parent.parent / "data" / "delta_t_parity.json"
        return json.loads(path.read_text())

    @pytest.fixture(scope="class")
    def engine(self, golden):
        from repro.core.engines import StageDelayEngine

        assert golden["engine"]["vdd"] == pytest.approx(1.1)
        return StageDelayEngine(timestep=golden["engine"]["timestep_s"])

    def test_scalar_path_reproduces_goldens(self, golden, engine):
        x = golden["x_open"]
        for r_open, want in zip(golden["r_open_ohm"],
                                golden["scalar"]["open"]):
            got = engine.delta_t(Tsv(fault=ResistiveOpen(r_open, x)))
            assert got == pytest.approx(want, abs=self.GOLDEN_TOL)
        for r_leak, want in zip(golden["r_leak_ohm"],
                                golden["scalar"]["leak"]):
            got = engine.delta_t(Tsv(fault=Leakage(r_leak)))
            assert got == pytest.approx(want, abs=self.GOLDEN_TOL)
        ff = engine.delta_t(Tsv())
        assert ff == pytest.approx(golden["scalar"]["fault_free"],
                                   abs=self.GOLDEN_TOL)

    def test_batched_path_reproduces_goldens(self, golden, engine):
        got_open = engine.delta_t_sweep_ro(golden["r_open_ohm"],
                                           x=golden["x_open"])
        np.testing.assert_allclose(got_open, golden["batched"]["open"],
                                   atol=self.GOLDEN_TOL, rtol=0)
        got_leak = engine.delta_t_sweep_rl(golden["r_leak_ohm"])
        np.testing.assert_allclose(got_leak, golden["batched"]["leak"],
                                   atol=self.GOLDEN_TOL, rtol=0)

    def test_scalar_and_batched_goldens_agree(self, golden):
        scalar = golden["scalar"]["open"] + golden["scalar"]["leak"]
        batched = golden["batched"]["open"] + golden["batched"]["leak"]
        for s, b in zip(scalar, batched):
            assert s == pytest.approx(b, abs=self.PARITY_TOL)

    def test_goldens_are_physical(self, golden):
        """Open DeltaT below fault-free, window leakage above (Fig. 6/8)."""
        ff = golden["scalar"]["fault_free"]
        assert all(v < ff for v in golden["scalar"]["open"])
        opens = golden["scalar"]["open"]
        assert all(a > b for a, b in zip(opens, opens[1:]))


class TestNoDuplicatedIntegratorLogic:
    """The scalar/batched/ragged wrappers must not re-implement the stepper."""

    @pytest.mark.parametrize(
        "module", [transient_module, batch_module, ragged_module]
    )
    def test_wrappers_delegate_to_shared_stepper(self, module):
        source = inspect.getsource(module)
        assert "TransientStepper" in source
        # No inner linear solves, companion-model math, Newton loop or
        # step bisection of their own.
        for token in (
            "np.linalg.solve", "batched_dense_solve", "geq", "ieq",
            "lu_factor", "max_iterations", "newton_update",
            "newton_iterate", "step_halvings", "h_half",
        ):
            assert token not in source, (
                f"{module.__name__} re-implements integrator logic "
                f"(found {token!r})"
            )
