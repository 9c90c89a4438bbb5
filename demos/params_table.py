"""Derived-parameter walkthrough.

Starting from a 2*pi*10 MHz, 48 pg membrane at 10 mK with a 10^7 T/m magnetic
gradient, print the quantities every other demo builds on: the zero-point
motion, the thermal occupation and decoherence rate, and the spin-phonon
coupling of a particle riding the membrane antinode.
"""

import numpy as np

from cryomech.model import (
    frequency_shift,
    spin_phonon_coupling,
    thermal_occupation,
    zero_point_fluctuation,
)

omega_m = 2 * np.pi * 1.0e7      # rad/s
M_mem = 4.8e-14                  # kg (48 pg)
T = 0.010                        # K
gamma_m = 2 * np.pi * 32.0       # rad/s
G_m = 1.0e7                      # T/m
m_bio = 9.6e-16                  # kg — a ~1 pg microorganism on the membrane

x0 = zero_point_fluctuation(M_mem, omega_m)
x0_prime = 2.0 * x0              # antinode particle moves with twice x0
n_bar = thermal_occupation(omega_m, T)
lam = spin_phonon_coupling(G_m, x0_prime)

print(f"zero-point motion            x0  = {x0:.3e} m")
print(f"antinode amplitude           x0' = {x0_prime:.3e} m")
print(f"thermal occupation           n   = {n_bar:.2f}")
print(f"thermal decoherence rate     n*gamma = {n_bar * gamma_m:.3e} 1/s")
print(f"spin-phonon coupling         lam = {lam:.4e} rad/s "
      f"(= {lam / (2 * np.pi):.1f} Hz)")
print(f"strong coupling (lam > n*gamma)?   {lam > n_bar * gamma_m}")

shift = frequency_shift(omega_m, m_bio, M_mem)
print(f"\nloading a {m_bio * 1e15:.2f} pg particle shifts the mode by "
      f"{shift / (2 * np.pi):.0f} Hz "
      f"({100 * shift / omega_m:.2f} % of omega_m)")
