"""Ideal qubit-level gates, the Bell-measurement circuit and the
Bell-outcome correction table.

These are the abstract circuit primitives used by the teleportation
protocols: :data:`BELL_CIRCUIT` is the one definition of the measurement
circuit, applied by :func:`cryomech.protocols.bell_measure` and enumerated by
:func:`cryomech.oracle.verify_teleportation`, and :data:`CORRECTION_TABLE` is
the one correction table, applied by the teleportation protocols and
checked against the oracle's exhaustive derivation.  The physical realizations
(number-number phase gate, spin-phonon swaps) live in
:mod:`cryomech.protocols`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
XZ = X @ Z
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CPHASE = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)

#: The Bell measurement's basis change: CPHASE, then a Hadamard on each qubit.
#: It acts on (first measured qubit) x (second measured qubit), the first
#: being the more significant bit of the outcome.
BELL_CIRCUIT = np.kron(HADAMARD, HADAMARD) @ CPHASE

PAULI_GATES: Mapping[str, np.ndarray] = {"I": I2, "X": X, "Z": Z, "XZ": XZ}

#: Candidate recovery operations for the Bell-outcome correction table.  The
#: CPHASE + (H x H) measurement circuit leaves each branch Hadamard-rotated,
#: so the recovering local operation is a Pauli composed with a Hadamard;
#: bare Paulis are kept in the set so the search can prove they never suffice.
CORRECTION_GATES: Mapping[str, np.ndarray] = {
    **PAULI_GATES,
    "H": HADAMARD, "XH": X @ HADAMARD, "ZH": Z @ HADAMARD, "XZH": XZ @ HADAMARD,
}

#: The correction of each Bell outcome for :data:`BELL_CIRCUIT` with the
#: (|01> + |10>)/sqrt(2) resource, as the name of its gate in
#: :data:`CORRECTION_GATES`; :func:`cryomech.oracle.verify_teleportation`
#: checks it against the unique table its exhaustive search derives.
CORRECTION_TABLE: Mapping[str, str] = MappingProxyType(
    {"00": "ZH", "01": "XZH", "10": "H", "11": "XH"})


def phases_equal(psi: np.ndarray, phi: np.ndarray) -> bool:
    """Amplitude-level equality of two state vectors up to a global phase,
    within 1e-9."""
    tol = 1e-9
    k = int(np.argmax(np.abs(phi)))
    if abs(psi[k]) < tol:
        return False
    phase = phi[k] / psi[k]
    return bool(np.linalg.norm(psi * phase - phi) < tol * np.linalg.norm(phi) * 10 + tol)
