"""End-to-end spin-state teleportation.

The spin qubit is swapped onto the mechanical mode with a half-Rabi pulse of
the resonant spin-phonon exchange, teleported as a motional qubit, and
swapped back onto the remote spin. The ideal chain is exact; engineered
mechanical damping during the swap pulses degrades the fidelity smoothly.
"""

import numpy as np

from cryomech.protocols import spin_mech_swap, teleport_spin

lam = 1.48e4        # spin-phonon coupling, rad/s
n_bar_gamma = 4.0e3  # thermal decoherence rate, 1/s

# the swap is one channel for every input qubit: the two poles and a tilt
for amplitudes in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8)):
    swap = spin_mech_swap(lam, input_amplitudes=amplitudes, n_bar_gamma=n_bar_gamma)
    print(f"half-Rabi swap of {amplitudes}: t = {swap.time:.3e} s, "
          f"fidelity {swap.fidelity:.12f}, strong coupling: {swap.strong_coupling}")

rep = teleport_spin(0.6, 0.8, seed=0, lambda_rate=lam)
print(f"ideal teleport fidelity: {rep.final_fidelity:.12f} "
      f"(outcome {''.join(str(b) for b in rep.measurement_record)}, "
      f"correction {rep.correction_applied})")

print("\nmechanical damping during the swap pulses (rates relative to lam=1):")
for g in (0.0, 0.002, 0.01, 0.05, 0.2):
    rep = teleport_spin(0.6, 0.8, seed=0, lambda_rate=1.0,
                        gamma_prime=g, n_bar_prime=0.1)
    print(f"  gamma' = {g:5.3f}: fidelity {rep.final_fidelity:.6f}")
