"""Tests for the protocol layer: cooling runs, state transfer, the CPHASE gate,
Bell measurement, teleportation (motional and spin), ESR scanning."""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import find_peaks
from scipy.sparse.linalg import splu

from cryomech import cli, lindblad
from cryomech.errors import PreconditionError, TruncationError
from cryomech.fockspace import (
    DensityMatrix,
    FockOperator,
    SpaceLayout,
    StateVector,
    annihilation,
    embed,
    kron_states,
    number,
    partial_trace,
    pauli,
)
from cryomech.gates import CPHASE
from cryomech.lindblad import Dissipator, LindbladModel, steady_state, thermal_dissipators
from cryomech.model import SpinParams, SystemParams, build_spin_mech
from cryomech import protocols as P

from basis import ESR_SWEEP_CONF, SolveSpy, haar_qubit


COLD = SystemParams(g=1.0, kappa=0.02, gamma_m=0.0005, n_bar=3.0)
COOLING = SystemParams(omega_m=50.0, g=1.0, kappa=20.0, gamma_m=0.05, n_bar=3.0)


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

    def test_final_fidelity_is_final_ground_population(self, monkeypatch):
        # <0|rho_m|0> of the evolution's last sample, read with <n_m>
        runs = []

        def spy(*args, **kwargs):
            runs.append(lindblad.evolve(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(P, "evolve", spy)
        rep = P.sideband_cool(COOLING, n_init=3.0, dims=(4, 10), num_samples=12)
        [result] = runs
        rho_m = np.trace(result.final().reshape(4, 10, 4, 10), axis1=0, axis2=2)
        assert rep.final_fidelity == pytest.approx(rho_m[0, 0].real, abs=1e-14)
        assert 0.0 < rep.final_fidelity < 1.0

    def test_unresolved_sideband_warns(self):
        p = SystemParams(omega_m=5.0, g=1.0, kappa=20.0, gamma_m=0.05, n_bar=1.0)
        with pytest.warns(UserWarning):
            P.sideband_cool(p, n_init=1.0, dims=(3, 6), num_samples=5)

    def test_missing_rate_rejected(self):
        with pytest.raises(ValueError):
            P.sideband_cool(SystemParams(g=1.0, kappa=20.0), n_init=1.0)

    def test_stiff_run_names_its_remedies(self):
        # evolve's refusal names no remedy; the cooling run adds the two it has
        for eliminated in (False, True):
            with pytest.raises(PreconditionError, match="stiff run") as info:
                P.sideband_cool(COOLING, n_init=1.0, duration=1e12, dims=(3, 6),
                                eliminated=eliminated, num_samples=2)
            assert "shorten the duration" in str(info.value)
            assert ("eliminated = true" in str(info.value)) is not eliminated

    def test_truncation_leak_stays_a_truncation_error(self):
        # a vacuum start heats toward n_bar' = 1.5, beyond 6 levels
        with pytest.raises(TruncationError, match="increase the truncation") as info:
            P.sideband_cool(COOLING, n_init=0.0, dims=(3, 6), eliminated=True, num_samples=5)
        assert "shorten" not in str(info.value)


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
        # reproduce its fidelity when evolved here on its own and beat its
        # neighbours
        amps = np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2)
        rates = dict(kappa=0.05, gamma_m=0.01, n_bar=0.1)
        res = P.transfer_state(StateVector(SpaceLayout.single("a", 4), amps), 1.0,
                               mech_dim=4, **rates)
        assert res.time == pytest.approx(np.pi / 2.0, rel=0.05)
        layout = SpaceLayout.of(("a", 4), ("a_m", 4))
        model = lindblad.cooling_model(1.0, rates["kappa"], rates["gamma_m"], rates["n_bar"],
                                       layout)
        psi0 = np.kron(amps, np.eye(4)[0])
        rho0 = DensityMatrix(layout, np.outer(psi0, psi0.conj()))

        def fidelity_at(t):
            # max over the phase theta of <psi_theta| rho_m |psi_theta> for
            # psi_theta = (|0> + e^{i theta}|1>)/sqrt(2)
            final = lindblad.evolve(model, rho0, t, num_samples=2, truncation_threshold=1.0)
            # trace out the cavity: index (a, a_m) of a 4 x 4 layout
            r = np.trace(final.final().reshape(4, 4, 4, 4), axis1=0, axis2=2)
            return 0.5 * (r[0, 0] + r[1, 1]).real + abs(r[0, 1])

        assert fidelity_at(res.time) == pytest.approx(res.fidelity, abs=1e-12)
        for dt in (-1e-3, 1e-3):
            assert fidelity_at(res.time + dt) <= res.fidelity + 1e-12

    def test_taylor_block_built_once_per_support(self, monkeypatch):
        # a transfer makes one evolve, the sweep; the refinement's series,
        # which also gives the reported fidelity, reuses the sweep's block,
        # so the block's shift and 1-norm are built once
        builds, starts = [], []

        class CountedBlock(lindblad._TaylorBlock):
            def __init__(self, A):
                builds.append(A.shape)
                super().__init__(A)

        def recorded_evolve(model, rho0, *args, **kwargs):
            starts.append((id(model), np.flatnonzero(rho0.matrix.T).tobytes()))
            return lindblad.evolve(model, rho0, *args, **kwargs)

        monkeypatch.setattr(lindblad, "_TaylorBlock", CountedBlock)
        monkeypatch.setattr(P, "evolve", recorded_evolve)
        phi = StateVector(SpaceLayout.single("a", 4),
                          np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2))
        P.transfer_state(phi, 1.0, mech_dim=4, kappa=0.05, gamma_m=0.01, n_bar=0.1)
        assert len(starts) == 1
        assert len(builds) == 1

    def test_vanishing_rates_match_closed_transfer(self):
        # one path for every rate: rates of 1e-12 perturb the closed result
        # only at their own order
        phi = StateVector(SpaceLayout.single("a", 4),
                          np.array([0.6, 0.8, 0, 0], dtype=complex))
        closed = P.transfer_state(phi, 1.0, mech_dim=4)
        open_ = P.transfer_state(phi, 1.0, mech_dim=4, kappa=1e-12, gamma_m=1e-12)
        assert open_.fidelity == pytest.approx(closed.fidelity, abs=1e-9)
        assert open_.time == pytest.approx(closed.time, rel=1e-6)

    @pytest.mark.parametrize("amps", [(1, 0), (0, 1), (0.8, 0.6j)])
    @pytest.mark.parametrize("kappa", [0.0, 0.01, 100.0])
    def test_degenerate_inputs_give_positive_time(self, amps, kappa):
        phi = StateVector(SpaceLayout.single("a", 4), np.array([*amps, 0, 0], dtype=complex))
        res = P.transfer_state(phi, 1.0, mech_dim=4, kappa=kappa, gamma_m=0.001, n_bar=0.01)
        # within the refinement window of the last sample, pi/g + pi/(32 g)
        assert 0.0 < res.time <= 33.0 * np.pi / 32.0 * (1.0 + 1e-12)
        assert 0.0 <= res.fidelity <= 1.0 + 1e-12

    def test_peak_at_zero_reports_first_sample(self):
        # |0> on the cavity: F = rho_00 of the mechanics is largest at t = 0,
        # which is no transfer time, so the first sample pi/(32 g) is reported
        g = 2.0
        phi = StateVector(SpaceLayout.single("a", 4), np.array([1, 0, 0, 0], dtype=complex))
        res = P.transfer_state(phi, g, mech_dim=4, kappa=0.01, gamma_m=0.001, n_bar=0.01)
        assert res.time == np.linspace(0.0, np.pi / g, 33)[1]

    def test_no_coherence_term_without_both_amplitudes(self):
        # alpha = 0: F = rho_11 = sin^2(g t) in the closed exchange, refined
        # from the populations alone to its peak pi/(2g)
        phi = StateVector(SpaceLayout.single("a", 4), np.array([0, 1, 0, 0], dtype=complex))
        res = P.transfer_state(phi, 2.0, mech_dim=4)
        assert res.time == pytest.approx(np.pi / 4.0, rel=1e-12)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)

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
        # a closed exchange peaks equally at pi/(2g) and 3pi/(2g): the
        # earlier one is reported
        assert rep.details["transfer_time"] == pytest.approx(np.pi / 2.0, rel=1e-6)

    def test_fast_exchange(self):
        # the whole refinement window lies below t = 1e-12 here; the series
        # runs in units of its radius, so the time keeps its relative precision
        g = 1e13
        rep = P.prepare_motional_superposition(
            SystemParams(g=g, kappa=0.01, gamma_m=0.001, n_bar=0.01))
        assert rep.final_fidelity == pytest.approx(1.0, abs=1e-9)
        assert rep.details["transfer_time"] == pytest.approx(np.pi / (2.0 * g), rel=1e-6)

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
        rho = DensityMatrix.from_state(psi)
        red = partial_trace(rho, {"a1"}).matrix
        assert np.allclose(red, 0.5 * np.eye(2))
        # entanglement entropy of the reduced state is ln 2
        w = np.linalg.eigvalsh(red)
        entropy = -np.sum(w * np.log(w))
        assert entropy == pytest.approx(np.log(2.0), rel=1e-9)


class TestCphase:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.sampled_from([1.0, -1.0]))
    @example(0.0, np.log10(15.0), 1.0)
    def test_dispersive_route_is_exact(self, log_g, log_delta, sign):
        # the physical gate, g and delta log-uniform over [1e-3, 1e3], is the
        # fixed gate every teleportation applies
        u = P.cphase(10.0 ** log_g, sign * 10.0 ** log_delta)
        assert np.abs(u.matrix - CPHASE).max() <= 1e-12

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            P.cphase(1.0, 0.0)


class TestBellMeasure:
    PAIR = ("a_m1", "a1")

    @staticmethod
    def three_qubit_state(alpha, beta):
        """Layout and one-column factor of the source qubit on ``a_m1`` beside
        the shared resource."""
        src = StateVector(SpaceLayout.single("a_m1", 2),
                          np.array([alpha, beta], dtype=complex))
        psi = kron_states(src, P.prepare_entangled_lc())
        return psi.layout, psi.amplitudes[:, None]

    def test_probabilities_sum_to_one(self):
        layout, factor = self.three_qubit_state(0.6, 0.8)
        probs = []
        for b in ("00", "01", "10", "11"):
            bits, _, _ = P.bell_measure(layout, factor, self.PAIR, None, b)
            probs.append(bits)
        assert set(probs) == {"00", "01", "10", "11"}

    def test_seed_reproducible(self):
        layout, factor = self.three_qubit_state(0.6, 0.8)
        b1, _, s1 = P.bell_measure(layout, factor, self.PAIR, np.random.default_rng(12), None)
        b2, _, s2 = P.bell_measure(layout, factor, self.PAIR, np.random.default_rng(12), None)
        assert b1 == b2
        assert np.allclose(s1, s2)

    def test_zero_probability_branch_rejected(self):
        # preimages of the basis states under the measurement circuit give
        # deterministic outcomes; forcing another branch is a zero-probability
        # replay and must fail
        from cryomech.gates import CPHASE, HADAMARD

        circuit = np.kron(HADAMARD, HADAMARD) @ CPHASE
        layout = SpaceLayout.of(("q0", 2), ("q1", 2), ("spec", 2))
        report_bits = {}
        for k, bits_expect in enumerate(("00", "01", "10", "11")):
            full = np.zeros((8, 1), dtype=complex)
            full[0::2, 0] = circuit.conj().T[:, k]  # spectator qubit stays in |0>
            bits, _, _ = P.bell_measure(layout, full, ("q0", "q1"),
                                        np.random.default_rng(0), None)
            report_bits[bits_expect] = bits
        assert all(k == v for k, v in report_bits.items())
        full = np.zeros((8, 1), dtype=complex)
        full[0::2, 0] = circuit.conj().T[:, 0]
        with pytest.raises(ValueError):
            P.bell_measure(layout, full, ("q0", "q1"), None, "11")

    def test_rng_required_without_force(self):
        layout, factor = self.three_qubit_state(0.6, 0.8)
        with pytest.raises(ValueError):
            P.bell_measure(layout, factor, self.PAIR, None, None)

    def test_reordered_pair_matches_dense_reference(self):
        # pair (q1, q0) on layout (q0, spec, q1): q1 is the first measured bit
        layout = SpaceLayout.of(("q0", 2), ("spec", 3), ("q1", 2))
        rng = np.random.default_rng(4)
        amps = rng.normal(size=12) + 1j * rng.normal(size=12)
        amps /= np.linalg.norm(amps)
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        circuit = np.kron(h, h) @ np.diag([1, 1, 1, -1]).astype(complex)
        front = amps.reshape(2, 3, 2).transpose(2, 0, 1).reshape(4, 3)
        out = circuit @ front
        for k, bits in enumerate(("00", "01", "10", "11")):
            got, kept, post = P.bell_measure(layout, amps[:, None], ("q1", "q0"), None, bits)
            assert got == bits
            assert kept.labels == ("spec",)
            assert np.allclose(post[:, 0], out[k] / np.linalg.norm(out[k]), atol=1e-12)
        probs = np.linalg.norm(out, axis=1) ** 2
        for seed in range(8):
            u = np.random.default_rng(seed).random()
            expect = ("00", "01", "10", "11")[int(np.searchsorted(np.cumsum(probs), u))]
            got, _, _ = P.bell_measure(layout, amps[:, None], ("q1", "q0"),
                                       np.random.default_rng(seed), None)
            assert got == expect

    def test_leaked_pair_rejected(self):
        # a 3-level pair mode holding 1e-6 of the population in |2>
        layout = SpaceLayout.of(("q0", 3), ("q1", 2))
        amps = np.zeros((6, 1), dtype=complex)
        amps[0] = np.sqrt(1.0 - 1e-6)
        amps[4] = np.sqrt(1e-6)  # |2>|0>
        with pytest.raises(PreconditionError):
            P.bell_measure(layout, amps, ("q0", "q1"), None, "00")


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

    def test_descending_sweep_matches_ascending(self):
        spin = SpinParams(lam=0.05, Omega_d_prime=0.6)
        vals = np.linspace(-1.5, 1.5, 21)
        up, down = (P.esr_scan(spin, self.PARAMS, "Delta_e", v, mech_dim=6,
                               spin_decay=0.005, spin_dephasing=0.002)
                    for v in (vals, vals[::-1]))
        assert up.resolution > 0
        assert down.resolution == up.resolution
        assert len(up.peaks) == 2
        assert sorted(down.peaks) == sorted(up.peaks)

    @staticmethod
    def _rebuilt_response(spin, params, sweep, values, mech_dim, decay, dephase):
        """gamma_m <n_m> from a model and generator built anew at every point,
        as the scan did before it swept L_0 + v L_sigma."""
        layout = SpaceLayout.of(("a_m", mech_dim), ("spin", 2, "spin-half"))
        b = embed(annihilation(mech_dim, "a_m"), layout, "a_m")
        sminus = embed(FockOperator(SpaceLayout.single("spin", 2, "spin-half"),
                                    np.array([[0, 0], [1, 0]], dtype=complex)), layout, "spin")
        diss = thermal_dissipators(b, params.gamma_m, params.n_bar) + (
            Dissipator(sminus, decay), Dissipator(embed(pauli("z"), layout, "spin"), dephase))
        n_op = embed(number(mech_dim), layout, "a_m").matrix
        response = []
        for v in values:
            sv = (SpinParams(lam=spin.lam, Delta_e=v, Omega_d_prime=spin.Omega_d_prime)
                  if sweep == "Delta_e"
                  else SpinParams(lam=spin.lam, Delta_e=spin.Delta_e, Omega_d_prime=v))
            ss = steady_state(LindbladModel(build_spin_mech(params, sv, layout), diss))
            response.append(params.gamma_m * np.real(np.trace(n_op @ ss.matrix)))
        return np.array(response)

    @pytest.mark.parametrize("sweep, spin, values", [
        ("Delta_e", SpinParams(lam=0.05, Omega_d_prime=0.6), np.linspace(-1.5, 1.5, 13)),
        ("Omega_d_prime", SpinParams(lam=0.05, Delta_e=0.2), np.linspace(0.2, 1.8, 13)),
    ])
    def test_builds_once_per_sweep(self, monkeypatch, sweep, spin, values):
        params = SystemParams(omega_m=1.0, gamma_m=0.01, n_bar=0.3)
        calls = {"build": 0, "generator": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(P, "build_spin_mech", counted("build", build_spin_mech))
        monkeypatch.setattr(lindblad, "liouvillian_matrix",
                            counted("generator", lindblad.liouvillian_matrix))
        spec = P.esr_scan(spin, params, sweep, values, mech_dim=6,
                          spin_decay=0.005, spin_dephasing=0.002)
        assert calls["build"] == 1 and calls["generator"] <= 2
        monkeypatch.undo()
        rebuilt = self._rebuilt_response(spin, params, sweep, values, 6, 0.005, 0.002)
        assert np.max(np.abs(spec.response - rebuilt)) <= 1e-12

    def test_benchmark_sweep_cost_counts(self, monkeypatch):
        """The ``esr-sweep`` workload's sweep, and the same at 3 points: one
        COLAMD probe and one LU per point, at most 4 solve calls per point
        (one on three columns, the rest Hager's iteration), and as many
        models at 3 points as at 61."""
        cfg = cli.parse_config(ESR_SWEEP_CONF)
        counts = {}

        def count(name, *args):
            counts[name] += 1

        def counted_splu(*args, **kwargs):
            count("splu")
            return SolveSpy(splu(*args, **kwargs), partial(count, "solve"))

        def counted_post_init(model):
            count("models")
            post_init(model)

        post_init = LindbladModel.__post_init__
        monkeypatch.setattr(lindblad, "splu", counted_splu)
        monkeypatch.setattr(LindbladModel, "__post_init__", counted_post_init)
        models = []
        for points in (cfg["points"], 3):
            counts.update(splu=0, solve=0, models=0)
            cli._run_esr({**cfg, "points": points}, None, 1)
            assert counts["splu"] == points + 1
            assert counts["solve"] <= 4 * points
            models.append(counts["models"])
        assert models[0] == models[1], models

    def test_strong_lambda_rejected(self):
        spin = SpinParams(lam=0.3, Omega_d_prime=0.6)
        with pytest.raises(PreconditionError):
            P.esr_scan(spin, self.PARAMS, "Delta_e", [0.0], mech_dim=4)

    def test_unknown_sweep_rejected(self):
        spin = SpinParams(lam=0.05, Omega_d_prime=0.6)
        with pytest.raises(ValueError):
            P.esr_scan(spin, self.PARAMS, "nope", [0.0])


class TestProminentPeaks:
    """``protocols._prominent_peaks`` against ``scipy.signal.find_peaks``,
    which the package does not import."""

    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(0, 3), max_size=64).map(lambda v: np.array(v, dtype=float)),
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=64).map(np.array)),
        st.sampled_from([0.0, 0.1, 1.0, 2.0]))
    def test_matches_find_peaks(self, x, fraction):
        # integer draws give plateaus, ties and plateaus that touch an end
        p = fraction * (x.max() - x.min()) if len(x) else 0.0
        assert P._prominent_peaks(x, p) == find_peaks(x, prominence=p)[0].tolist()

    def test_even_flat_top_gives_lower_middle(self):
        assert P._prominent_peaks(np.array([0.0, 1, 2, 2, 2, 2, 1, 0]), 0.0) == [3]

    def test_flat_top_needs_both_sides_to_fall(self):
        assert P._prominent_peaks(np.array([0.0, 1, 2, 2]), 0.0) == []
        assert P._prominent_peaks(np.array([0.0, 2, 2, 3, 1]), 0.0) == [3]

    def test_monotone_has_no_peak(self):
        x = np.linspace(0.0, 1.0, 9)
        assert P._prominent_peaks(x, 0.0) == [] == P._prominent_peaks(x[::-1], 0.0)

    def test_prominence_is_above_the_higher_base(self):
        # prominences 3, 2, 3: the 3 sees its minima only up to the higher 4
        # and 5, both 1; the 5's left minimum runs to the end (0), its right is 2
        x = np.array([0.0, 4, 1, 3, 1, 5, 2])
        assert P._prominent_peaks(x, 0.0) == [1, 3, 5]
        assert P._prominent_peaks(x, 2.0) == [1, 3, 5]
        assert P._prominent_peaks(x, 3.0) == [1, 5]
        assert P._prominent_peaks(x, 3.0 + 1e-12) == []

    def test_constant_response_has_no_peaks(self):
        spec = P.esr_spectrum("Delta_e", np.linspace(-1.0, 1.0, 5), np.full(5, 0.25))
        assert spec.peaks == ()


class TestSpinSwap:
    def test_haar_random_round_trip(self):
        # the spin->mech leg here; the mech->spin leg is checked against the
        # oracle (TestSwapChannelAgainstOracle) and closes every teleport_spin
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = haar_qubit(rng)
            fwd = P.spin_mech_swap(1.3, input_amplitudes=(a, b))
            assert fwd.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_swap_time_quarter_period(self):
        res = P.spin_mech_swap(1.0)
        assert res.time == pytest.approx(np.pi / 4.0, rel=1e-6)

    def test_strong_coupling_flag(self):
        res = P.spin_mech_swap(1.48e4, n_bar_gamma=4.0e3)
        assert res.strong_coupling is True
        res = P.spin_mech_swap(1.0e3, n_bar_gamma=4.0e3)
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
        # a damped run measures no branch, so it matches the ideal run of each
        tiny = P.teleport_spin(0.6, 0.8j, gamma_prime=1e-12, n_bar_prime=0.1)
        for branch in ("00", "11"):
            ideal = P.teleport_spin(0.6, 0.8j, force_branch=branch)
            assert tiny.final_fidelity == pytest.approx(ideal.final_fidelity, abs=1e-9)

    def test_forced_branch_rejected_when_damped(self):
        # the damped hop is the identity channel: a forced branch would be ignored
        with pytest.raises(ValueError, match="force_branch"):
            P.teleport_spin(0.6, 0.8, force_branch="00", gamma_prime=0.01, n_bar_prime=0.1)

    def test_nonpositive_rate_rejected(self):
        for rate in (0.0, -1.0):
            with pytest.raises(ValueError, match="lambda_rate"):
                P.spin_mech_swap(rate)
            with pytest.raises(ValueError, match="lambda_rate"):
                P.teleport_spin(0.6, 0.8, seed=0, lambda_rate=rate)
        with pytest.raises(ValueError, match="n_bar_prime"):
            P.teleport_spin(0.6, 0.8, seed=0, n_bar_prime=-0.1)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            P.teleport_spin(1.0, 1.0)


class TestReports:
    def test_fidelity_range_enforced(self):
        with pytest.raises(ValueError):
            P.ProtocolReport(scenario="x", final_fidelity=1.5)

    def test_json_dict_shape(self):
        rep = P.teleport_motional(0.6, 0.8, seed=4)
        doc = cli._jsonable(rep)
        assert doc["scenario"] == "teleport-motional"
        assert len(doc["measurement_record"]) == 2
        assert isinstance(doc["details"]["output_amplitudes"][0], list)
        assert doc["details"]["amplitude_exact"] is True
