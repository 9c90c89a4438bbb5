"""Tests for the master-equation engine: generators, evolution, steady
states, adiabatic elimination, and trajectory export."""

import json

import numpy as np
import pytest

from cryomech.errors import (
    DegenerateSteadyStateError,
    PreconditionError,
    TruncationError,
)
from cryomech.fockspace import (
    DensityMatrix,
    FockOperator,
    SpaceLayout,
    StateVector,
    annihilation,
    embed,
    fock_state,
    number,
    partial_trace,
    thermal_state,
)
from cryomech.lindblad import (
    Dissipator,
    LindbladModel,
    adiabatic_eliminate,
    cooling_model,
    eliminated_model,
    evolve,
    lindblad_rhs,
    liouvillian_matrix,
    steady_state,
    thermal_dissipators,
    trajectory_to_csv,
    trajectory_to_json,
)
from cryomech.model import SystemParams


def damped_mode(dim=6, kappa=0.5, n_bar=0.0):
    a = annihilation(dim, "m")
    h = FockOperator(a.layout, np.zeros((dim, dim), dtype=complex))
    return LindbladModel(h, thermal_dissipators(a, kappa, n_bar))


def _random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


def _random_h_mode(gamma, dim=4, seed=7):
    """A mode with a random Hamiltonian and zero-temperature damping gamma."""
    a = annihilation(dim, "m")
    h = FockOperator(a.layout, _random_hermitian(np.random.default_rng(seed), dim))
    return LindbladModel(h, (Dissipator(a, gamma),))


def _uniqueness_model(build):
    """Models whose generator has more than one (near-)null direction."""
    rng = np.random.default_rng(3)
    if build == "closed_diagonal":
        lay = SpaceLayout.single("m", 4)
        return LindbladModel(FockOperator(lay, np.diag([0.0, 0.7, 1.3, 2.9]).astype(complex)))
    if build == "closed_random":
        lay = SpaceLayout.single("m", 4)
        return LindbladModel(FockOperator(lay, _random_hermitian(rng, 4)))
    if build == "pure_dephasing_spin":
        lay = SpaceLayout.single("spin", 2, "spin-half")
        sz = np.diag([1.0, -1.0]).astype(complex)
        return LindbladModel(FockOperator(lay, 0.5 * sz),
                             (Dissipator(FockOperator(lay, sz), 0.1),))
    if build.startswith("damped_beside_undamped"):
        lay = SpaceLayout.of(("m", 3), ("u", 3))
        b = embed(annihilation(3, "m"), lay, "m")
        if build.endswith("diagonal"):
            h = (embed(number(3, "m"), lay, "m").matrix
                 + 1.7 * embed(number(3, "u"), lay, "u").matrix)
        else:
            h = np.kron(np.eye(3), _random_hermitian(rng, 3))
        return LindbladModel(FockOperator(lay, h.astype(complex)),
                             thermal_dissipators(b, 0.5, 0.2))
    return _random_h_mode(1e-10)


class TestModelValidation:
    def test_nonhermitian_hamiltonian_rejected(self):
        lay = SpaceLayout.single("m", 2)
        with pytest.raises(ValueError):
            LindbladModel(FockOperator(lay, np.array([[0, 1], [0, 0]], dtype=complex)))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            Dissipator(annihilation(3, "m"), -0.1)

    def test_layout_mismatch_rejected(self):
        lay = SpaceLayout.single("m", 2)
        h = FockOperator(lay, np.zeros((2, 2), dtype=complex))
        with pytest.raises(ValueError):
            LindbladModel(h, (Dissipator(annihilation(3, "x"), 0.1),))


class TestGenerator:
    def test_amplitude_decay_convention(self):
        # with D_x carrying a factor 2, energy decays at rate 2 kappa
        kappa = 0.3
        model = damped_mode(kappa=kappa)
        rho0 = DensityMatrix.from_state(fock_state(model.layout, {"m": 1}))
        n = number(6, "m")
        res = evolve(model, rho0, 1.0, num_samples=11,
                     observables={"n": n}, truncation_threshold=1.0)
        expected = np.exp(-2.0 * kappa * res.times)
        assert np.allclose(res.observables["n"], expected, atol=1e-8)

    def test_rhs_matches_vectorized_generator(self):
        rng = np.random.default_rng(4)
        model = damped_mode(dim=4, kappa=0.7, n_bar=0.4)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m + m.conj().T
        direct = lindblad_rhs(model, rho)
        L = liouvillian_matrix(model)
        via_l = (L @ rho.T.reshape(-1)).reshape(4, 4).T
        assert np.allclose(direct, via_l)

    def test_trace_annihilated(self):
        # columns of the generator conserve trace: Tr(L rho) = 0 for any rho
        model = damped_mode(dim=4, kappa=0.7, n_bar=0.4)
        L = liouvillian_matrix(model)
        eye_vec = np.eye(4, dtype=complex).T.reshape(-1)
        assert np.linalg.norm(eye_vec @ L) < 1e-12


class TestEvolve:
    def test_expm_and_adaptive_agree(self):
        model = damped_mode(dim=5, kappa=0.2, n_bar=0.3)
        rho0 = thermal_state(5, 0.2, "m")
        out1 = evolve(model, rho0, 2.0, num_samples=5, method="expm",
                      truncation_threshold=1.0)
        out2 = evolve(model, rho0, 2.0, num_samples=5, method="adaptive",
                      truncation_threshold=1.0)
        assert np.allclose(out1.final().matrix, out2.final().matrix, atol=1e-7)

    def test_invalid_duration(self):
        model = damped_mode()
        rho0 = thermal_state(6, 0.1, "m")
        with pytest.raises(ValueError):
            evolve(model, rho0, 0.0)

    def test_too_few_samples(self):
        model = damped_mode()
        rho0 = thermal_state(6, 0.1, "m")
        with pytest.raises(ValueError, match="num_samples"):
            evolve(model, rho0, 1.0, num_samples=1)

    def test_truncation_leak_detected(self):
        # driving the top of a tiny ladder must raise, not silently truncate
        dim = 3
        a = annihilation(dim, "m")
        drive = FockOperator(a.layout, (a.dagger() + a).matrix)
        model = LindbladModel(drive)
        rho0 = DensityMatrix.from_state(fock_state(a.layout, {}))
        with pytest.raises(TruncationError):
            evolve(model, rho0, 3.0, num_samples=5)

    def test_observable_sampling(self):
        model = damped_mode(dim=4, kappa=0.5)
        rho0 = DensityMatrix.from_state(fock_state(model.layout, {"m": 1}))
        res = evolve(model, rho0, 1.0, num_samples=7,
                     observables={"n": number(4, "m")}, truncation_threshold=1.0)
        assert len(res.times) == 7
        assert res.observables["n"].shape == (7,)
        assert res.observables["n"][0] == pytest.approx(1.0)


class TestSteadyState:
    def test_thermal_limit(self):
        n_bar = 0.8
        model = damped_mode(dim=25, kappa=0.4, n_bar=n_bar)
        ss = steady_state(model)
        n_mean = np.real(np.trace(number(25, "m").matrix @ ss.matrix))
        assert n_mean == pytest.approx(n_bar, rel=1e-6)

    def test_closed_system_degenerate(self):
        lay = SpaceLayout.single("m", 3)
        h = FockOperator(lay, np.diag([0.0, 1.0, 2.0]).astype(complex))
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(LindbladModel(h))

    @pytest.mark.parametrize("build", [
        "closed_diagonal", "closed_random", "pure_dephasing_spin",
        "damped_beside_undamped_diagonal", "damped_beside_undamped_random",
        "weakly_damped_1e-10"])
    def test_degenerate_null_space_rejected(self, build):
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(_uniqueness_model(build))

    @pytest.mark.parametrize("gamma", [1e-6, 0.4])
    def test_weak_but_finite_damping_is_unique(self, gamma):
        ss = steady_state(_random_h_mode(gamma))
        assert np.trace(ss.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_matches_long_time_evolution(self):
        model = damped_mode(dim=5, kappa=0.6, n_bar=0.2)
        ss = steady_state(model)
        rho0 = DensityMatrix.from_state(fock_state(model.layout, {"m": 2}))
        final = evolve(model, rho0, 60.0, num_samples=3,
                       truncation_threshold=1.0).final()
        assert np.allclose(ss.matrix, final.matrix, atol=1e-8)


class TestCoolingModels:
    def test_cooling_model_structure(self):
        lay = SpaceLayout.of(("a", 3), ("a_m", 4))
        model = cooling_model(1.0, 20.0, 0.05, 2.0, lay)
        assert len(model.dissipators) == 3  # cavity loss + thermal pair

    def test_adiabatic_elimination_rates(self):
        lay = SpaceLayout.of(("a", 3), ("a_m", 4))
        p = SystemParams(g=1.0, kappa=20.0, gamma_m=0.05, n_bar=2.0)
        full = cooling_model(p.g, p.kappa, p.gamma_m, p.n_bar, lay)
        single, p2 = adiabatic_eliminate(full, p)
        assert p2.kappa_prime == pytest.approx(0.05)
        assert p2.gamma_prime == pytest.approx(0.1)
        assert p2.n_bar_prime == pytest.approx(1.0)
        assert single.layout.dim == 4

    def test_elimination_requires_fast_cavity(self):
        lay = SpaceLayout.of(("a", 3), ("a_m", 4))
        p = SystemParams(g=1.0, kappa=2.0, gamma_m=0.05, n_bar=2.0)
        full = cooling_model(p.g, p.kappa, p.gamma_m, p.n_bar, lay)
        with pytest.raises(PreconditionError):
            adiabatic_eliminate(full, p)

    def test_elimination_warns_in_marginal_regime(self):
        lay = SpaceLayout.of(("a", 3), ("a_m", 4))
        p = SystemParams(g=1.0, kappa=7.0, gamma_m=0.05, n_bar=2.0)
        full = cooling_model(p.g, p.kappa, p.gamma_m, p.n_bar, lay)
        with pytest.warns(UserWarning):
            adiabatic_eliminate(full, p)

    def test_zero_coupling_leaves_mech_unchanged(self):
        lay = SpaceLayout.of(("a", 3), ("a_m", 4))
        p = SystemParams(g=0.0, kappa=20.0, gamma_m=0.05, n_bar=2.0)
        full = cooling_model(p.g, p.kappa, p.gamma_m, p.n_bar, lay)
        single, p2 = adiabatic_eliminate(full, p)
        assert p2.kappa_prime == 0.0
        assert p2.gamma_prime == pytest.approx(p.gamma_m)

    def test_eliminated_model_steady_occupation(self):
        model = eliminated_model(0.1, 0.5, 15)
        ss = steady_state(model)
        n_mean = np.real(np.trace(number(15, "a_m").matrix @ ss.matrix))
        assert n_mean == pytest.approx(0.5, rel=1e-4)

    def test_two_mode_cooling_reaches_effective_limit(self):
        # modest regime: full model steady occupation near n_bar gamma / gamma'
        lay = SpaceLayout.of(("a", 3), ("a_m", 6))
        g, kappa, gamma, n_bar = 1.0, 20.0, 0.05, 0.8
        model = cooling_model(g, kappa, gamma, n_bar, lay)
        ss = steady_state(model)
        n_mech = embed(number(6, "a_m"), lay, "a_m")
        n_mean = np.real(np.trace(n_mech.matrix @ ss.matrix))
        expected = n_bar * gamma / (gamma + g ** 2 / kappa)
        assert n_mean == pytest.approx(expected, rel=0.1)


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        model = damped_mode(dim=4, kappa=0.5)
        rho0 = DensityMatrix.from_state(fock_state(model.layout, {"m": 1}))
        res = evolve(model, rho0, 1.0, num_samples=4,
                     observables={"n": number(4, "m")}, truncation_threshold=1.0)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,n"
        assert len(lines) == 5
        # repr round-trip: values parse back exactly
        t0, n0 = lines[1].split(",")
        assert float(t0) == res.times[0]
        assert float(n0) == res.observables["n"][0]

    def test_json_deterministic(self, tmp_path):
        model = damped_mode(dim=4, kappa=0.5)
        rho0 = DensityMatrix.from_state(fock_state(model.layout, {"m": 1}))
        res = evolve(model, rho0, 1.0, num_samples=4,
                     observables={"n": number(4, "m")}, truncation_threshold=1.0)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        trajectory_to_json(res, p1)
        trajectory_to_json(res, p2)
        assert p1.read_bytes() == p2.read_bytes()
        doc = json.loads(p1.read_text())
        assert set(doc) == {"times", "observables"}
