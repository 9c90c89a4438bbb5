"""Tests for the protocol layer: cooling runs, state transfer, gate segments,
Bell measurement, teleportation (motional and spin), ESR scanning."""

import numpy as np
import pytest

from cryomech.errors import PreconditionError
from cryomech.fockspace import SpaceLayout, StateVector, fock_state, kron_states
from cryomech.model import SpinParams, SystemParams
from cryomech import protocols as P


COLD = SystemParams(g=1.0, kappa=0.02, gamma_m=0.0005, n_bar=3.0)
COOLING = SystemParams(omega_m=50.0, g=1.0, kappa=20.0, gamma_m=0.05, n_bar=3.0)


def haar_qubit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


class TestSidebandCool:
    def test_full_model_cools_toward_limit(self):
        rep = P.sideband_cool(COOLING, n_init=3.0, dims=(4, 10), num_samples=12)
        n_final = rep.details["n_final"]
        assert n_final < 3.0
        assert n_final == pytest.approx(rep.details["n_target"], rel=0.15)
        traj = rep.phonon_trajectory
        # initial point is the truncated thermal mean (dim 10, n_bar 3)
        assert 2.0 < traj["values"][0] <= 3.0
        assert traj["values"][-1] < traj["values"][0]

    def test_eliminated_model_matches(self):
        rep = P.sideband_cool(COOLING, n_init=3.0, dims=(4, 10),
                              eliminated=True, num_samples=12)
        full = P.sideband_cool(COOLING, n_init=3.0, dims=(4, 10), num_samples=12)
        assert rep.details["n_final"] == pytest.approx(full.details["n_final"], rel=0.05)

    def test_unresolved_sideband_warns(self):
        p = SystemParams(omega_m=5.0, g=1.0, kappa=20.0, gamma_m=0.05, n_bar=1.0)
        with pytest.warns(UserWarning):
            P.sideband_cool(p, n_init=1.0, dims=(3, 6), num_samples=5)

    def test_missing_rate_rejected(self):
        with pytest.raises(ValueError):
            P.sideband_cool(SystemParams(g=1.0, kappa=20.0), n_init=1.0)


class TestTransfer:
    def test_ideal_transfer_is_exact(self):
        phi = StateVector(SpaceLayout.single("a", 4),
                          np.array([0.6, 0.8, 0, 0], dtype=complex))
        res = P.transfer_state(phi, 2.0, mech_dim=4)
        assert res.fidelity == pytest.approx(1.0, abs=1e-9)
        # numerically optimal time is the quarter exchange period pi/(2g)
        assert res.time == pytest.approx(np.pi / 4.0, rel=1e-4)
        assert res.candidates["pi/(2g)"] == pytest.approx(1.0, abs=1e-9)

    def test_half_period_candidate_recorded(self):
        phi = StateVector(SpaceLayout.single("a", 4),
                          np.array([0.6, 0.8, 0, 0], dtype=complex))
        res = P.transfer_state(phi, 2.0, mech_dim=4)
        assert "pi/g" in res.candidates
        assert res.candidates["pi/g"] < res.candidates["pi/(2g)"]

    def test_dissipation_degrades_fidelity(self):
        phi = StateVector(SpaceLayout.single("a", 4),
                          np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2))
        clean = P.transfer_state(phi, 1.0, mech_dim=4)
        lossy = P.transfer_state(phi, 1.0, mech_dim=4, kappa=0.05)
        assert lossy.fidelity < clean.fidelity
        assert lossy.fidelity > 0.9

    def test_dissipative_search_finds_the_maximum(self):
        # the coarse grid is read from one trajectory; the refined time must
        # reproduce its fidelity when replayed and beat its neighbours
        phi = StateVector(SpaceLayout.single("a", 4),
                          np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2))
        rates = dict(mech_dim=4, kappa=0.05, gamma_m=0.01, n_bar=0.1)
        res = P.transfer_state(phi, 1.0, **rates)
        assert res.time == pytest.approx(np.pi / 2.0, rel=0.05)
        replay = P.transfer_state(phi, 1.0, t_opt=res.time, **rates)
        assert replay.fidelity == pytest.approx(res.fidelity, abs=1e-12)
        for dt in (-1e-3, 1e-3):
            near = P.transfer_state(phi, 1.0, t_opt=res.time + dt, **rates)
            assert near.fidelity <= res.fidelity + 1e-12

    def test_high_fock_support_warns(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[2] = 1 / np.sqrt(2)
        phi = StateVector(SpaceLayout.single("a", 4), amps)
        with pytest.warns(UserWarning):
            P.transfer_state(phi, 1.0, mech_dim=4)


class TestSuperposition:
    def test_requires_cooled_mode(self):
        hot = SystemParams(g=1.0, kappa=20.0, gamma_m=0.05, n_bar=3.0)
        with pytest.raises(PreconditionError):
            P.prepare_motional_superposition(hot)

    def test_ideal_preparation(self):
        rep = P.prepare_motional_superposition(COLD, dims=(4, 4), dissipation=False)
        assert rep.final_fidelity == pytest.approx(1.0, abs=1e-9)

    def test_dissipative_preparation_close(self):
        rep = P.prepare_motional_superposition(COLD, dims=(4, 4))
        assert 0.9 < rep.final_fidelity < 1.0
        assert rep.details["strong_coupling_check"]["strong_coupling"]


class TestResource:
    def test_entangled_lc_structure(self):
        psi = P.prepare_entangled_lc()
        amps = psi.amplitudes
        assert np.isclose(abs(amps[1]) ** 2, 0.5)
        assert np.isclose(abs(amps[2]) ** 2, 0.5)
        # orthogonal to the other symmetric Bell combination
        other = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        assert abs(np.vdot(other, amps)) < 1e-12
        # reduced state of either mode is maximally mixed
        from cryomech.fockspace import DensityMatrix, partial_trace

        rho = DensityMatrix.from_state(psi)
        red = partial_trace(rho, {"a1"}).matrix
        assert np.allclose(red, 0.5 * np.eye(2))
        # entanglement entropy of the reduced state is ln 2
        w = np.linalg.eigvalsh(red)
        entropy = -np.sum(w * np.log(w))
        assert entropy == pytest.approx(np.log(2.0), rel=1e-9)


class TestCphase:
    def test_dispersive_route_is_exact(self):
        seg = P.cphase(1.0, 15.0)
        assert np.allclose(np.diag(seg.unitary.matrix), [1, 1, 1, -1], atol=1e-12)

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            P.cphase(1.0, 0.0)

    def test_exact_route_requires_dispersive_regime(self):
        with pytest.raises(PreconditionError):
            P.cphase(1.0, 5.0, exact=True)

    def test_exact_route_populations_return(self):
        # at t = pi delta / g^2 the exchange dynamics has come back to the
        # initial populations (many exchange cycles fit in the gate time)
        seg = P.cphase(1.0, 20.0, dims=(3, 3), exact=True)
        u = seg.unitary.matrix
        assert np.allclose(u @ u.conj().T, np.eye(9), atol=1e-9)
        for k in range(3):
            assert abs(u[k, k]) > 0.98  # single-excitation blocks nearly diagonal


class TestHadamardSegment:
    def test_action_on_qubit_subspace(self):
        lay = SpaceLayout.single("m", 4)
        seg = P.hadamard(lay, "m")
        psi = fock_state(lay, {})
        out = P.apply_segment(psi, seg)
        assert np.isclose(abs(out.amplitudes[0]) ** 2, 0.5)
        assert np.isclose(abs(out.amplitudes[1]) ** 2, 0.5)

    def test_leaked_state_rejected(self):
        lay = SpaceLayout.single("m", 4)
        seg = P.hadamard(lay, "m")
        psi = fock_state(lay, {"m": 2})
        with pytest.raises(PreconditionError):
            P.apply_segment(psi, seg)


class TestBellMeasure:
    @staticmethod
    def three_qubit_state(alpha, beta):
        src = StateVector(SpaceLayout.single("a_m1", 2),
                          np.array([alpha, beta], dtype=complex))
        return kron_states(src, P.prepare_entangled_lc(("a1", "a_m2")))

    def test_probabilities_sum_to_one(self):
        psi = self.three_qubit_state(0.6, 0.8)
        probs = []
        for b in ("00", "01", "10", "11"):
            bits, _ = P.bell_measure(psi, ("a_m1", "a1"), force=b)
            probs.append(bits)
        assert set(probs) == {"00", "01", "10", "11"}

    def test_seed_reproducible(self):
        psi = self.three_qubit_state(0.6, 0.8)
        b1, s1 = P.bell_measure(psi, ("a_m1", "a1"), rng=np.random.default_rng(12))
        b2, s2 = P.bell_measure(psi, ("a_m1", "a1"), rng=np.random.default_rng(12))
        assert b1 == b2
        assert np.allclose(s1.amplitudes, s2.amplitudes)

    def test_zero_probability_branch_rejected(self):
        # preimages of the basis states under the measurement circuit give
        # deterministic outcomes; forcing another branch is a zero-probability
        # replay and must fail
        from cryomech.gates import CPHASE, HADAMARD

        circuit = np.kron(HADAMARD, HADAMARD) @ CPHASE
        layout = SpaceLayout.of(("q0", 2), ("q1", 2), ("spec", 2))
        report_bits = {}
        for k, bits_expect in enumerate(("00", "01", "10", "11")):
            pre = circuit.conj().T[:, k]  # state the circuit maps onto |k>
            full = np.zeros(8, dtype=complex)
            full[0::2] = pre  # spectator qubit stays in |0>
            psi = StateVector(layout, full)
            bits, _ = P.bell_measure(psi, ("q0", "q1"),
                                     rng=np.random.default_rng(0))
            report_bits[bits_expect] = bits
        assert all(k == v for k, v in report_bits.items())
        pre = circuit.conj().T[:, 0]
        full = np.zeros(8, dtype=complex)
        full[0::2] = pre
        psi = StateVector(layout, full)
        with pytest.raises(ValueError):
            P.bell_measure(psi, ("q0", "q1"), force="11")

    def test_rng_required_without_force(self):
        psi = self.three_qubit_state(0.6, 0.8)
        with pytest.raises(ValueError):
            P.bell_measure(psi, ("a_m1", "a1"))


class TestTeleportMotional:
    def test_all_branches_exact(self):
        for b in ("00", "01", "10", "11"):
            rep = P.teleport_motional(0.6, 0.8, force_branch=b)
            assert rep.final_fidelity == pytest.approx(1.0, abs=1e-12)
            assert rep.details["amplitude_exact"]

    def test_checkpoint_state(self):
        rep = P.teleport_motional(0.6, 0.8, force_branch="00")
        assert rep.details["checkpoint_fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_haar_random_inputs(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            a, b = haar_qubit(rng)
            rep = P.teleport_motional(a, b, seed=int(rng.integers(1 << 30)))
            assert rep.final_fidelity == pytest.approx(1.0, abs=1e-10)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            P.teleport_motional(1.0, 1.0)

    def test_seed_determinism(self):
        r1 = P.teleport_motional(0.6, 0.8, seed=9)
        r2 = P.teleport_motional(0.6, 0.8, seed=9)
        assert r1.measurement_record == r2.measurement_record

    def test_noisy_resource_degrades(self):
        clean = P.teleport_motional(0.6, 0.8, seed=1)
        noisy = P.teleport_motional(0.6, 0.8, seed=1, resource_damping=0.1)
        assert noisy.final_fidelity < clean.final_fidelity
        assert noisy.final_fidelity > 0.8

    def test_vanishing_damping_matches_ideal(self):
        # the ideal resource is the zero-damping case of the damped channel
        for seed in range(10):
            ideal = P.teleport_motional(0.6, 0.8j, seed=seed)
            tiny = P.teleport_motional(0.6, 0.8j, seed=seed, resource_damping=1e-12)
            assert tiny.measurement_record == ideal.measurement_record
            assert tiny.correction_applied == ideal.correction_applied
            assert tiny.final_fidelity == pytest.approx(ideal.final_fidelity, abs=1e-9)

    def test_damping_outside_unit_interval_rejected(self):
        for p in (-0.1, 1.5):
            with pytest.raises(ValueError):
                P.teleport_motional(0.6, 0.8, resource_damping=p)


class TestEsrScan:
    PARAMS = SystemParams(omega_m=1.0, gamma_m=0.01, n_bar=0.0)

    def test_symmetric_pair(self):
        spin = SpinParams(lam=0.05, Omega_d_prime=0.6)
        vals = np.linspace(-1.5, 1.5, 61)
        spec = P.esr_scan(spin, self.PARAMS, "Delta_e", vals, mech_dim=8,
                          spin_decay=0.005, spin_dephasing=0.002)
        assert len(spec.peaks) == 2
        assert spec.peaks[0] == pytest.approx(-0.8, abs=spec.resolution)
        assert spec.peaks[1] == pytest.approx(0.8, abs=spec.resolution)

    def test_rabi_sweep_single_peak(self):
        spin = SpinParams(lam=0.05, Delta_e=0.0)
        vals = np.linspace(0.2, 1.8, 33)
        spec = P.esr_scan(spin, self.PARAMS, "Omega_d_prime", vals, mech_dim=8,
                          spin_decay=0.005, spin_dephasing=0.002)
        assert len(spec.peaks) == 1
        assert spec.peaks[0] == pytest.approx(1.0, abs=spec.resolution)

    def test_strong_lambda_rejected(self):
        spin = SpinParams(lam=0.3, Omega_d_prime=0.6)
        with pytest.raises(PreconditionError):
            P.esr_scan(spin, self.PARAMS, "Delta_e", [0.0], mech_dim=4)

    def test_unknown_sweep_rejected(self):
        spin = SpinParams(lam=0.05, Omega_d_prime=0.6)
        with pytest.raises(ValueError):
            P.esr_scan(spin, self.PARAMS, "nope", [0.0])


class TestSpinSwap:
    def test_haar_random_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = haar_qubit(rng)
            fwd = P.spin_mech_swap("spin->mech", 1.3, input_amplitudes=(a, b))
            assert fwd.fidelity == pytest.approx(1.0, abs=1e-9)
            bwd = P.spin_mech_swap("mech->spin", 1.3, input_amplitudes=(a, b))
            assert bwd.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_swap_time_quarter_period(self):
        res = P.spin_mech_swap("spin->mech", 1.0)
        assert res.time == pytest.approx(np.pi / 4.0, rel=1e-6)

    def test_off_resonant_drive_rejected(self):
        with pytest.raises(PreconditionError):
            P.spin_mech_swap("spin->mech", 1.0, Delta_e=0.3)
        with pytest.raises(PreconditionError):
            P.spin_mech_swap("spin->mech", 1.0, Omega_d_prime=0.7, omega_m=1.0)

    def test_strong_coupling_flag(self):
        res = P.spin_mech_swap("spin->mech", 1.48e4, n_bar_gamma=4.0e3)
        assert res.strong_coupling is True
        res = P.spin_mech_swap("spin->mech", 1.0e3, n_bar_gamma=4.0e3)
        assert res.strong_coupling is False


class TestTeleportSpin:
    def test_ideal_end_to_end(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a, b = haar_qubit(rng)
            rep = P.teleport_spin(a, b, seed=int(rng.integers(1 << 30)))
            assert rep.final_fidelity == pytest.approx(1.0, abs=1e-9)

    def test_all_branches(self):
        for branch in ("00", "01", "10", "11"):
            rep = P.teleport_spin(0.6, 0.8j, force_branch=branch)
            assert rep.final_fidelity == pytest.approx(1.0, abs=1e-9)

    def test_damping_monotone(self):
        fids = []
        for g in (0.0, 0.01, 0.05, 0.2):
            rep = P.teleport_spin(0.6, 0.8, seed=2, lambda_rate=1.0,
                                  gamma_prime=g, n_bar_prime=0.1)
            fids.append(rep.final_fidelity)
        assert all(f2 < f1 + 1e-12 for f1, f2 in zip(fids, fids[1:]))
        assert fids[0] == pytest.approx(1.0, abs=1e-9)

    def test_vanishing_damping_matches_ideal(self):
        for branch in ("00", "11"):
            ideal = P.teleport_spin(0.6, 0.8j, force_branch=branch)
            tiny = P.teleport_spin(0.6, 0.8j, force_branch=branch, gamma_prime=1e-12,
                                   n_bar_prime=0.1)
            assert tiny.final_fidelity == pytest.approx(ideal.final_fidelity, abs=1e-9)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            P.teleport_spin(1.0, 1.0)


class TestReports:
    def test_fidelity_range_enforced(self):
        with pytest.raises(ValueError):
            P.ProtocolReport(scenario="x", final_fidelity=1.5)

    def test_json_dict_shape(self):
        rep = P.teleport_motional(0.6, 0.8, seed=4)
        doc = rep.to_json_dict()
        assert doc["scenario"] == "teleport-motional"
        assert len(doc["measurement_record"]) == 2
        assert isinstance(doc["details"]["output_amplitudes"][0], list)
