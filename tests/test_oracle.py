"""Tests for the independent exact-dynamics oracle and the cross-validation
batch."""

import numpy as np
import pytest

from cryomech.fockspace import (
    DensityMatrix,
    FockOperator,
    SpaceLayout,
    StateVector,
    annihilation,
    embed,
    fock_state,
    number,
    pauli,
)
from cryomech.gates import CPHASE, HADAMARD
from cryomech.lindblad import (
    Dissipator,
    LindbladModel,
    cooling_model,
    evolve,
    liouvillian_matrix,
    steady_state,
    thermal_dissipators,
)
from cryomech.model import SpinParams, SystemParams, build_spin_mech
from cryomech.oracle import (
    _build_liouvillian,
    exact_liouville_evolve,
    exact_unitary_evolve,
    fidelity_metrics,
    state_fidelity,
    trace_distance,
    verify_all,
    verify_teleportation,
)


class TestExactEvolution:
    def test_unitary_phase(self):
        lay = SpaceLayout.single("m", 3)
        h = FockOperator(lay, np.diag([0.0, 1.0, 2.0]).astype(complex))
        psi0 = fock_state(lay, {"m": 1})
        t = 0.37
        out = exact_unitary_evolve(h, psi0, t)
        assert np.isclose(out.amplitudes[1], np.exp(-1j * t))

    def test_liouville_matches_engine(self):
        a = annihilation(4, "m")
        h = FockOperator(a.layout, 0.8 * number(4, "m").matrix)
        model = LindbladModel(h, thermal_dissipators(a, 0.3, 0.2))
        rho0 = DensityMatrix.from_state(fock_state(a.layout, {"m": 2}))
        exact = exact_liouville_evolve(model, rho0, 1.5)
        num = evolve(model, rho0, 1.5, num_samples=2, method="adaptive",
                     truncation_threshold=1.0).final()
        assert trace_distance(exact.matrix, num.matrix) < 1e-8

    def test_closed_system_conserves_energy(self):
        lay = SpaceLayout.single("m", 4)
        rng = np.random.default_rng(2)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = FockOperator(lay, m + m.conj().T)
        model = LindbladModel(h)
        rho0 = DensityMatrix.from_state(fock_state(lay, {"m": 1}))
        out = exact_liouville_evolve(model, rho0, 2.0)
        e0 = np.trace(h.matrix @ rho0.matrix)
        e1 = np.trace(h.matrix @ out.matrix)
        assert np.isclose(e0, e1, atol=1e-9)


def _two_mode_cooling():
    """Sideband cooling on a (3, 4) layout, fast enough to relax by t = 100."""
    return cooling_model(1.0, 2.0, 0.5, 0.3, SpaceLayout.of(("a", 3), ("a_m", 4)))


def _mode_spin():
    """Spin-mechanics model with thermal, spin-decay and dephasing dissipators.
    The sigma_y drive and sigma_y dephasing make H and one jump operator
    complex, so a conjugation or transposition slip in the generator shows."""
    layout = SpaceLayout.of(("a_m", 4), ("spin", 2, "spin-half"))
    b = embed(annihilation(4, "a_m"), layout, "a_m")
    sminus = embed(FockOperator(SpaceLayout.single("spin", 2, "spin-half"),
                                np.array([[0, 0], [1, 0]], dtype=complex)), layout, "spin")
    sy = embed(pauli("y"), layout, "spin")
    h = build_spin_mech(SystemParams(omega_m=1.0),
                        SpinParams(lam=0.05, Delta_e=0.3, Omega_d_prime=0.6), layout)
    h = FockOperator(layout, h.matrix + 0.2 * sy.matrix)
    diss = thermal_dissipators(b, 0.2, 0.4) + (
        Dissipator(sminus, 0.05), Dissipator(embed(pauli("z"), layout, "spin"), 0.02),
        Dissipator(sy, 0.01))
    return LindbladModel(h, diss)


class TestSparseEngineAgainstOracle:
    """The engine's sparse generator, propagators and steady state against
    the oracle's dense generator and Taylor exponential."""

    @pytest.mark.parametrize("build", [_two_mode_cooling, _mode_spin])
    def test_generator_matches_dense(self, build):
        model = build()
        dense = _build_liouvillian(model)
        sparse = liouvillian_matrix(model).toarray()
        assert np.linalg.norm(sparse - dense) <= 1e-13 * np.linalg.norm(dense)

    @pytest.mark.parametrize("method", ["expm", "adaptive"])
    def test_evolve_matches_exact(self, method):
        model = _two_mode_cooling()
        lay = model.layout
        rho0 = DensityMatrix(lay, np.kron(np.diag([1.0, 0, 0]),
                                          np.diag([0.1, 0.6, 0.3, 0.0])).astype(complex))
        exact = exact_liouville_evolve(model, rho0, 1.7)
        num = evolve(model, rho0, 1.7, num_samples=4, method=method,
                     truncation_threshold=1.0).final()
        assert trace_distance(exact.matrix, num.matrix) < 1e-8

    def test_steady_state_matches_long_time_limit(self):
        model = _two_mode_cooling()
        rho0 = DensityMatrix.from_state(fock_state(model.layout, {"a_m": 2}))
        limit = exact_liouville_evolve(model, rho0, 100.0)
        assert trace_distance(steady_state(model).matrix, limit.matrix) < 1e-8


class TestMetrics:
    def test_trace_distance_extremes(self):
        r0 = np.diag([1.0, 0.0]).astype(complex)
        r1 = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(r0, r0) == pytest.approx(0.0, abs=1e-12)
        assert trace_distance(r0, r1) == pytest.approx(1.0)

    def test_state_fidelity_pure(self):
        psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        r = np.outer(psi, psi.conj())
        assert state_fidelity(r, r) == pytest.approx(1.0, abs=1e-12)
        assert state_fidelity(r, np.diag([1.0, 0.0]).astype(complex)) == pytest.approx(0.5)

    def test_fuchs_van_de_graaff(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            def rnd():
                m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                m = m @ m.conj().T
                return m / np.trace(m)

            r, s = rnd(), rnd()
            m = fidelity_metrics(r, s)
            t, f = m["trace_distance"], m["state_fidelity"]
            assert 1.0 - np.sqrt(f) <= t + 1e-9
            assert t <= np.sqrt(1.0 - f) + 1e-9


class TestTeleportationVerification:
    def test_default_circuit_table(self):
        report, table = verify_teleportation()
        assert report.passed
        assert table is not None
        assert set(table.mapping) == {"00", "01", "10", "11"}
        # every branch needs the Hadamard-composed family, never a bare Pauli
        assert all(name.endswith("H") for name in table.mapping.values())

    def test_corrupted_cphase_fails(self):
        bad = np.kron(HADAMARD, HADAMARD) @ np.diag([1.0, 1.0, 1.0, 1.0])
        report, table = verify_teleportation(bell_circuit=bad)
        assert not report.passed
        assert table is None

    def test_identity_circuit_fails(self):
        report, table = verify_teleportation(bell_circuit=np.eye(4))
        assert not report.passed
        assert table is None

    def test_wrong_resource_fails(self):
        resource = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)  # product state
        report, table = verify_teleportation(resource=resource)
        assert not report.passed


class TestVerifyAll:
    def test_batch_passes(self):
        reports = verify_all(seed=1, instances=4)
        assert reports
        for r in reports:
            assert r.passed, f"{r.quantity}: {r.distance} > {r.tolerance}"

    def test_deterministic_given_seed(self):
        a = verify_all(seed=5, instances=2)
        b = verify_all(seed=5, instances=2)
        assert [r.distance for r in a] == [r.distance for r in b]
