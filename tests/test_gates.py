"""Tests for the qubit-level gate primitives and the correction table."""

import numpy as np
import pytest

from cryomech.gates import (
    CORRECTION_GATES,
    CORRECTION_TABLE,
    CPHASE,
    HADAMARD,
    PAULI_GATES,
    phases_equal,
)


class TestGateAlgebra:
    def test_hadamard_involution(self):
        assert np.allclose(HADAMARD @ HADAMARD, np.eye(2))

    def test_cphase_diagonal(self):
        assert np.allclose(CPHASE, np.diag([1, 1, 1, -1]))

    def test_paulis_unitary(self):
        for name, g in PAULI_GATES.items():
            assert np.allclose(g @ g.conj().T, np.eye(2)), name

    def test_correction_gates_unitary_and_distinct(self):
        names = list(CORRECTION_GATES)
        for name in names:
            g = CORRECTION_GATES[name]
            assert np.allclose(g @ g.conj().T, np.eye(2)), name
        # pairwise distinct up to global phase
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                prod = CORRECTION_GATES[a].conj().T @ CORRECTION_GATES[b]
                off = prod - np.trace(prod) / 2 * np.eye(2)
                assert np.linalg.norm(off) > 1e-9 or abs(abs(np.trace(prod)) - 2) > 1e-9


class TestCorrectionTable:
    def test_total_map_required(self):
        assert set(CORRECTION_TABLE) == {"00", "01", "10", "11"}

    def test_unknown_gate_rejected(self):
        # the table names only known gates, and it is read-only, so no
        # caller can put an unknown one in
        assert set(CORRECTION_TABLE.values()) <= set(CORRECTION_GATES)
        with pytest.raises(TypeError):
            CORRECTION_TABLE["00"] = "Q"
        assert CORRECTION_TABLE["00"] == "ZH"

    def test_lookup(self):
        assert CORRECTION_TABLE["10"] == "H"
        assert np.allclose(CORRECTION_GATES[CORRECTION_TABLE["10"]], HADAMARD)
        assert dict(CORRECTION_TABLE) == {"00": "ZH", "01": "XZH", "10": "H", "11": "XH"}


class TestPhasesEqual:
    def test_global_phase_ignored(self):
        psi = np.array([0.6, 0.8], dtype=complex)
        assert phases_equal(psi, np.exp(1j * 0.7) * psi)

    def test_relative_phase_detected(self):
        psi = np.array([0.6, 0.8], dtype=complex)
        phi = np.array([0.6, 0.8 * np.exp(1j * 0.3)], dtype=complex)
        assert not phases_equal(psi, phi)
