"""Teleporting a motional qubit between two membranes.

Walks through the full protocol: prepare the shared single-excitation
resource, apply the conditional-phase + Hadamard measurement circuit, sample
a Bell outcome, and apply the branch's correction gate. The correction table
is fixed in cryomech.gates and checked against an exhaustive search by
cryomech.oracle — note that the corrections compose a Pauli with a Hadamard,
a consequence of the Hadamard-rotated measurement basis.
"""

import numpy as np

from cryomech import CORRECTION_TABLE, teleport_motional, verify_teleportation

report, _ = verify_teleportation()
print("correction table (outcome -> gate):", dict(CORRECTION_TABLE))
print("matches the oracle's exhaustive derivation:", report.passed)

alpha, beta = 0.6, 0.8j
print(f"\ninput qubit: {alpha:+.3f}|0> {beta:+.3f}|1>")
for seed in range(4):
    rep = teleport_motional(alpha, beta, seed=seed)
    bits = "".join(str(b) for b in rep.measurement_record)
    print(f"seed {seed}: outcome {bits}, correction {rep.correction_applied}, "
          f"fidelity {rep.final_fidelity:.12f}")

# a lossy resource (amplitude damping on both resource qubits) degrades the
# average fidelity smoothly
print("\nresource damping sweep:")
for p in (0.0, 0.02, 0.05, 0.1, 0.2):
    fids = [teleport_motional(alpha, beta, seed=s, resource_damping=p).final_fidelity
            for s in range(8)]
    print(f"  damping {p:4.2f}: mean fidelity {np.mean(fids):.6f}")
