"""Tests for parameter calculators, dataclass consistency checks, and
Hamiltonian builders."""

import numpy as np
import pytest

from cryomech.fockspace import SpaceLayout
from cryomech.model import (
    JC_LADDER_SCALE,
    SpinParams,
    SystemParams,
    beamsplitter_resonant_detuning,
    build_beamsplitter,
    build_detuned,
    build_dispersive,
    build_jc,
    build_linearized,
    build_spin_field,
    build_spin_mech,
    dressed_splitting,
    frequency_shift,
    resonance_detunings,
    spin_phonon_coupling,
    steady_amplitude,
    thermal_occupation,
    zero_point_fluctuation,
)

from basis import fock_state

TWO_PI = 2.0 * np.pi


class TestScalars:
    def test_zero_point_fluctuation_membrane(self):
        # 48 pg membrane at 2 pi x 10 MHz: ~4.2e-15 m
        x0 = zero_point_fluctuation(4.8e-14, TWO_PI * 10e6)
        assert x0 == pytest.approx(4.2e-15, rel=0.01)

    def test_thermal_occupation_value(self):
        # 2 pi x 10 MHz mode at 10 mK holds about 20 quanta
        n = thermal_occupation(TWO_PI * 10e6, 0.010)
        assert n == pytest.approx(20.0, rel=0.05)

    def test_thermal_occupation_zero_temperature(self):
        assert thermal_occupation(1e6, 0.0) == 0.0

    def test_spin_phonon_coupling_value(self):
        # |G_m| = 1e7 T/m at twice the membrane zero-point amplitude
        x0p = 2.0 * zero_point_fluctuation(4.8e-14, TWO_PI * 10e6)
        lam = spin_phonon_coupling(1e7, x0p)
        assert lam == pytest.approx(1.48e4, rel=0.01)

    def test_frequency_shift_sign_and_scale(self):
        shift = frequency_shift(TWO_PI * 10e6, 4.8e-18, 4.8e-14)
        assert shift == pytest.approx(-TWO_PI * 10e6 * 1e-4 / 2.0)

    def test_steady_amplitude(self):
        alpha = steady_amplitude(2.0, 3.0, 4.0)
        assert alpha == pytest.approx(2.0 / (6.0 + 4.0j))

    def test_dressed_splitting(self):
        assert dressed_splitting(3.0, 4.0) == pytest.approx(5.0)

    def test_resonance_detunings_pair(self):
        pair = resonance_detunings(1.0, 0.6)
        assert pair == pytest.approx((-0.8, 0.8))

    def test_resonance_detunings_single_and_none(self):
        assert resonance_detunings(1.0, 1.0) == (0.0,)
        assert resonance_detunings(1.0, 1.5) == ()

    def test_beamsplitter_resonance_sign(self):
        assert beamsplitter_resonant_detuning(2.5) == 2.5


class TestSystemParams:
    def test_derived_chain(self):
        p = SystemParams(omega_m=TWO_PI * 10e6, M_mem=4.8e-14, T=0.010,
                         kappa=TWO_PI * 2e5, gamma_m=TWO_PI * 32.0,
                         G_pull=1e16, Omega_d=1e7, Delta=TWO_PI * 10e6)
        assert p.x0 == pytest.approx(4.2e-15, rel=0.01)
        assert p.g0 == pytest.approx(p.G_pull * p.x0)
        assert p.g == pytest.approx(abs(p.alpha) * p.g0)
        assert p.kappa_prime == pytest.approx(p.g ** 2 / p.kappa)
        assert p.gamma_prime == pytest.approx(p.gamma_m + p.kappa_prime)
        assert p.n_bar_prime == pytest.approx(p.n_bar * p.gamma_m / p.gamma_prime)

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(ValueError, match="inconsistent g0"):
            SystemParams(omega_m=TWO_PI * 10e6, M_mem=4.8e-14, G_pull=1e16, g0=1.0)

    @pytest.mark.parametrize("name", ["x0", "alpha", "kappa_prime", "gamma_prime",
                                      "n_bar_prime"])
    def test_derived_fields_are_not_settable(self, name):
        with pytest.raises(TypeError):
            SystemParams(**{name: 0.5})

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            SystemParams(kappa=-1.0)

    def test_infinite_derived_value_rejected(self):
        # g^2 / kappa overflows by division, with no OverflowError, and
        # gamma' = gamma_m + kappa' would follow it to inf
        with pytest.raises(ValueError, match="kappa_prime = inf is not a finite number"):
            SystemParams(g=1.0, kappa=5e-324, gamma_m=0.05, n_bar=3.0)

    def test_signed_detuning_allowed(self):
        p = SystemParams(Delta=-5.0)
        assert p.Delta == -5.0


class TestBuilders:
    def test_beamsplitter_conserves_excitation(self):
        lay = SpaceLayout.of(("a", 4), ("a_m", 4))
        h = build_beamsplitter(1.3, lay).matrix
        from cryomech.fockspace import embed, number

        n_tot = (embed(number(4), lay, "a")
                 + embed(number(4), lay, "a_m")).matrix
        assert np.allclose(h @ n_tot - n_tot @ h, 0.0)

    def test_beamsplitter_hermitian(self):
        lay = SpaceLayout.of(("a", 3), ("a_m", 3))
        h = build_beamsplitter(0.7, lay)
        assert h.is_hermitian()

    def test_detuned_includes_number_term(self):
        lay = SpaceLayout.of(("a", 2), ("a_m", 2))
        h = build_detuned(5.0, 0.0, lay).matrix
        psi = fock_state(lay, {"a": 1})
        e = np.vdot(psi.amplitudes, h @ psi.amplitudes).real
        assert e == pytest.approx(5.0)

    def test_dispersive_diagonal_phases(self):
        lay = SpaceLayout.of(("a", 2), ("a_m", 2))
        h = build_dispersive(1.0, 20.0, lay).matrix
        assert np.allclose(h, np.diag(np.diag(h)))
        assert h[3, 3].real == pytest.approx(1.0 / 20.0)

    def test_dispersive_zero_detuning_rejected(self):
        lay = SpaceLayout.of(("a", 2), ("a_m", 2))
        with pytest.raises(ValueError):
            build_dispersive(1.0, 0.0, lay)

    def test_linearized_contains_counter_rotating_terms(self):
        lay = SpaceLayout.of(("a", 3), ("a_m", 3))
        p = SystemParams(Delta=1.0, omega_m=1.0, g=0.5)
        h = build_linearized(p, lay).matrix
        # <2,0| ... creation on both modes from vacuum at second order: the
        # a^dag am^dag term connects |00> directly to |11>
        psi00 = fock_state(lay, {})
        psi11 = fock_state(lay, {"a": 1, "a_m": 1})
        assert abs(np.vdot(psi11.amplitudes, h @ psi00.amplitudes)) == pytest.approx(0.5)

    def test_jc_conserves_exchange_invariant(self):
        # phonon number plus dressed-spin excitation is conserved
        lay = SpaceLayout.of(("a_m", 4), ("spin", 2, "spin-half"))
        h = build_jc(0.9, lay).matrix
        from cryomech.fockspace import embed, number, pauli

        n_m = embed(number(4), lay, "a_m").matrix
        # dressed excitation projector: 1/2 (I - sigma_x)
        sx = embed(pauli("x"), lay, "spin").matrix
        inv = n_m + 0.5 * (np.eye(8) - sx)
        assert np.allclose(h @ inv - inv @ h, 0.0)

    def test_jc_swap_period(self):
        # full single-quantum exchange at t = pi / (2 * scale * lam)
        from scipy.linalg import expm

        lam = 0.8
        lay = SpaceLayout.of(("a_m", 3), ("spin", 2, "spin-half"))
        h = build_jc(lam, lay).matrix
        t = np.pi / (2.0 * JC_LADDER_SCALE * lam)
        u = expm(-1j * h * t)
        minus_x = np.array([1.0, -1.0]) / np.sqrt(2)
        plus_x = np.array([1.0, 1.0]) / np.sqrt(2)
        e0 = np.kron([1, 0, 0], minus_x)
        g1 = np.kron([0, 1, 0], plus_x)
        assert abs(np.vdot(g1, u @ e0)) == pytest.approx(1.0, abs=1e-12)

    def test_spin_mech_resonance_structure(self):
        lay = SpaceLayout.of(("a_m", 3), ("spin", 2, "spin-half"))
        p = SystemParams(omega_m=1.0)
        s = SpinParams(lam=0.05, Delta_e=0.8, Omega_d_prime=0.6)
        h = build_spin_mech(p, s, lay)
        assert h.is_hermitian()

    def test_spin_field_single_spin(self):
        h = build_spin_field([(0.0, 0.0, 0.0)], lambda pos: np.array([0.0, 0.0, 1.0]))
        # S_z coupling: diagonal, splitting g_s mu_B B / hbar
        m = h.matrix
        assert np.allclose(m, np.diag(np.diag(m)))
        assert m[0, 0].real > 0 > m[1, 1].real
