"""Physical parameter calculators and Hamiltonian builders.

Conventions
-----------
* All frequencies and rates are angular (rad/s); Hamiltonians are stored
  divided by hbar, so matrix entries are angular rates.
* The linearized coupling ``g`` is taken real and positive (the drive phase
  is absorbed into the microwave mode's phase reference).
* The detuning term of the linearized Hamiltonian enters literally as
  ``+Delta a^dag a``.  With that sign the beamsplitter form is the
  rotating-wave limit at ``Delta = +omega_m`` (see
  ``beamsplitter_resonant_detuning``); ``Delta = -omega_m`` selects the
  two-mode-squeezing resonance instead.
* The spin ladder operators are ``sigma_z +/- i sigma_y``, which act as rung
  operators in the sigma_x eigenbasis with matrix element 2
  (``JC_LADDER_SCALE``).  The dressed qubit is defined on sigma_x eigenstates;
  the excited dressed state is the -x eigenstate for a positive transverse
  drive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.constants import hbar, k as k_B, physical_constants

from .fockspace import (
    BOSONIC,
    SPIN_HALF,
    FockOperator,
    SpaceLayout,
    annihilation,
    embed,
    pauli,
    sigma_pm,
)

mu_B = physical_constants["Bohr magneton"][0]

#: Matrix element of sigma_z +/- i sigma_y between sigma_x eigenstates.  The
#: literal spin-phonon exchange Hamiltonian therefore swaps a single quantum
#: in time pi / (4 lambda); relative to the dispersive-derivation coupling
#: lambda / 2 this is a factor of 4, fixed numerically by the oracle tests.
JC_LADDER_SCALE = 2.0

#: Spin g-factor of the free electron, the value of every spin modelled here.
G_S = 2.0

_REL_TOL = 1e-9


@dataclass(frozen=True)
class SystemParams:
    """Electromechanical parameters.  Unset fields default to None.

    Construction walks :data:`_IDENTITIES` in order: a field whose inputs are
    all known is filled when the caller left it unset and checked (to 1e-9
    relative) when the caller set it.  A derived value that is not finite
    (g^2 / kappa at kappa = 5e-324, or at g = 1e200, where Python's float
    power overflows) raises ``ValueError`` naming it.
    """

    omega_m: Optional[float] = None            # mechanical frequency of the loaded membrane
    gamma_m: Optional[float] = None            # mechanical decay of the whole system
    kappa: Optional[float] = None              # microwave-mode decay
    G_pull: Optional[float] = None             # frequency pull per meter
    g0: Optional[float] = None                 # single-photon coupling G_pull * x0
    Omega_d: Optional[float] = None            # drive Rabi frequency
    Delta: Optional[float] = None              # drive detuning from the bare mode (signed)
    g: Optional[float] = None                  # linearized coupling |alpha| g0
    M_mem: Optional[float] = None              # membrane mass
    T: Optional[float] = None                  # bath temperature
    n_bar: Optional[float] = None              # thermal occupation of the mechanical bath
    # derived only
    x0: Optional[float] = field(default=None, init=False)        # membrane zero-point motion
    alpha: Optional[complex] = field(default=None, init=False)   # steady drive amplitude
    kappa_prime: Optional[float] = field(default=None, init=False)  # engineered damping
    gamma_prime: Optional[float] = field(default=None, init=False)  # total mechanical damping
    n_bar_prime: Optional[float] = field(default=None, init=False)  # cooled occupation

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.init and f.name != "Delta" and v is not None and v < 0:
                raise ValueError(f"{f.name} must be nonnegative, got {v}")
        if self.M_mem is not None and self.M_mem <= 0:
            raise ValueError("M_mem must be positive")
        for name, inputs, formula in _IDENTITIES:
            args = [getattr(self, n) for n in inputs]
            try:
                value = None if None in args else formula(*args)
            except OverflowError:
                value = math.inf
            if value is None:
                continue
            if not np.isfinite(value):
                raise ValueError(f"derived {name} = {value!r} is not a finite number")
            given = getattr(self, name)
            if given is None:
                object.__setattr__(self, name, value)
            elif abs(given - value) > _REL_TOL * max(abs(given), abs(value), 1e-300):
                raise ValueError(
                    f"inconsistent {name}: field holds {given!r} but derived value is {value!r}")

    def mechanical_bath(self) -> tuple[Optional[float], Optional[float]]:
        """(rate, occupation) of the bath the mechanical mode relaxes to:
        (gamma', n_bar') when the cooling drive takes something out (kappa'
        nonzero) and gamma' is defined, else the intrinsic (gamma_m, n_bar).
        Either may be None where ``params`` leaves it undefined."""
        if self.kappa_prime and self.gamma_prime is not None:
            return self.gamma_prime, self.n_bar_prime
        return self.gamma_m, self.n_bar


@dataclass(frozen=True)
class SpinParams:
    """Electron-spin parameters for the magnetic-gradient coupling."""

    lam: Optional[float] = None              # single-phonon frequency shift
    Delta_e: Optional[float] = None          # spin drive detuning (signed)
    Omega_d_prime: Optional[float] = None    # spin drive Rabi frequency (signed)


# ---------------------------------------------------------------------------
# Scalar calculators
# ---------------------------------------------------------------------------

def zero_point_fluctuation(M: float, omega: float) -> float:
    """Ground-state positional spread sqrt(hbar / (2 M omega)) in meters."""
    if M <= 0 or omega <= 0:
        raise ValueError("mass and frequency must be positive")
    return math.sqrt(hbar / (2.0 * M * omega))


def steady_amplitude(Omega_d: float, Delta: float, kappa: float) -> complex:
    """Classical steady amplitude Omega_d / (2 Delta + i kappa) of the driven mode."""
    denom = 2.0 * Delta + 1j * kappa
    if denom == 0:
        raise ValueError("steady amplitude undefined at Delta = kappa = 0")
    return Omega_d / denom


def frequency_shift(Omega_m: float, m_bio: float, M_mem: float) -> float:
    """Mechanical frequency change -Omega_m m / (2 M) from a small added mass."""
    if m_bio < 0 or M_mem <= 0:
        raise ValueError("masses must be positive (added mass may be zero)")
    return -Omega_m * m_bio / (2.0 * M_mem)


def thermal_occupation(omega: float, T: float) -> float:
    """Bose-Einstein occupation 1 / (exp(hbar omega / kB T) - 1); 0 at T = 0.
    Past hbar omega / kB T = 700 it is exp(-hbar omega / kB T) to double
    precision, which underflows to 0 where exp would overflow."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    if T < 0:
        raise ValueError("temperature must be nonnegative")
    kT = k_B * T
    if kT == 0:
        return 0.0
    x = hbar * omega / kT
    return math.exp(-x) if x > 700.0 else 1.0 / math.expm1(x)


def spin_phonon_coupling(G_m: float, x0_prime: float) -> float:
    """Single-phonon spin frequency shift g_s mu_B |G_m| x0' / hbar in rad/s,
    with g_s = ``G_S``."""
    if G_m < 0 or x0_prime <= 0:
        raise ValueError("x0_prime must be positive, G_m nonnegative")
    return G_S * mu_B * G_m * x0_prime / hbar


def dressed_splitting(Delta_e: float, Omega_d_prime: float) -> float:
    """Dressed-spin level splitting sqrt(Delta_e^2 + Omega_d'^2)."""
    return math.hypot(Delta_e, Omega_d_prime)


def resonance_detunings(omega_m: float, Omega_d_prime: float) -> tuple[float, ...]:
    """Spin-drive detunings at which the dressed splitting equals omega_m.

    Returns the symmetric pair +/- sqrt(omega_m^2 - Omega_d'^2), the single
    root 0.0 at |Omega_d'| = omega_m, and nothing when |Omega_d'| > omega_m.
    """
    if abs(Omega_d_prime) > omega_m:
        return ()
    root = math.sqrt(max(omega_m ** 2 - Omega_d_prime ** 2, 0.0))
    if root == 0.0:
        return (0.0,)
    return (-root, root)


def beamsplitter_resonant_detuning(omega_m: float) -> float:
    """Detuning at which the excitation-exchange coupling is co-rotating.

    With the detuning entering as ``+Delta a^dag a``, the exchange terms
    ``a^dag a_m + a a_m^dag`` are stationary in the rotating frame at
    ``Delta = +omega_m`` (the opposite sign selects the squeezing terms).
    """
    return +omega_m


#: The parameter chain, in derivation order: (field, inputs, formula).  A
#: formula that returns None leaves its field undefined: kappa' needs
#: kappa > 0, and n_bar' needs gamma' > 0.
_IDENTITIES = (
    ("x0", ("M_mem", "omega_m"), zero_point_fluctuation),
    ("g0", ("G_pull", "x0"), lambda G_pull, x0: G_pull * x0),
    ("alpha", ("Omega_d", "Delta", "kappa"), steady_amplitude),
    ("g", ("alpha", "g0"), lambda alpha, g0: abs(alpha) * g0),
    ("n_bar", ("omega_m", "T"), thermal_occupation),
    ("kappa_prime", ("g", "kappa"), lambda g, kappa: g ** 2 / kappa if kappa > 0 else None),
    ("gamma_prime", ("gamma_m", "kappa_prime"), lambda gamma_m, kp: gamma_m + kp),
    ("n_bar_prime", ("n_bar", "gamma_m", "gamma_prime"),
     lambda n_bar, gamma_m, gp: n_bar * gamma_m / gp if gp > 0 else None),
)


# ---------------------------------------------------------------------------
# Hamiltonian builders (all in units of hbar)
# ---------------------------------------------------------------------------

def _mode_ops(layout: SpaceLayout, label: str):
    sub = layout.subsystem(label)
    if sub.kind != BOSONIC:
        raise ValueError(f"subsystem {label!r} is not bosonic")
    a = embed(annihilation(sub.dim, label), layout, label)
    return a, a.dagger()


def build_linearized(params: SystemParams, layout: SpaceLayout) -> FockOperator:
    """Linearized electromechanical Hamiltonian
    Delta a^dag a + omega_m am^dag am + g (a^dag + a)(am^dag + am)."""
    for name in ("Delta", "omega_m", "g"):
        if getattr(params, name) is None:
            raise ValueError(f"build_linearized needs params.{name}")
    a, ad = _mode_ops(layout, "a")
    b, bd = _mode_ops(layout, "a_m")
    h = params.Delta * (ad @ a) + params.omega_m * (bd @ b) \
        + params.g * ((ad + a) @ (bd + b))
    return h


def build_beamsplitter(g: float, layout: SpaceLayout) -> FockOperator:
    """Excitation-exchange coupling g (a^dag am + a am^dag)."""
    a, ad = _mode_ops(layout, "a")
    b, bd = _mode_ops(layout, "a_m")
    return g * (ad @ b + a @ bd)


def build_detuned(delta_disp: float, g: float, layout: SpaceLayout) -> FockOperator:
    """Detuned exchange coupling delta a^dag a + g (a^dag am + a am^dag)."""
    a, ad = _mode_ops(layout, "a")
    return delta_disp * (ad @ a) + build_beamsplitter(g, layout)


def build_dispersive(g: float, delta_disp: float, layout: SpaceLayout) -> FockOperator:
    """Number-number coupling (g^2 / delta) a^dag a am^dag am between the two
    modes of ``layout``, the microwave mode a first."""
    if delta_disp == 0:
        raise ValueError("dispersive coupling undefined at delta = 0")
    cavity, mech = layout.labels
    a, ad = _mode_ops(layout, cavity)
    b, bd = _mode_ops(layout, mech)
    return (g ** 2 / delta_disp) * ((ad @ a) @ (bd @ b))


def build_spin_field(spin_positions: Sequence, field_map: Callable) -> FockOperator:
    """Zeeman Hamiltonian sum_i g_s mu_B S_i . B(x_i) / hbar for N free-electron
    spins (g_s = ``G_S``) labelled ``spin0``, ``spin1``, ...

    ``field_map`` maps a position 3-vector to the field 3-vector in tesla.
    Spin operators are S = (sigma_x, sigma_y, sigma_z) / 2.
    """
    positions = [np.asarray(p, dtype=float) for p in spin_positions]
    if not positions:
        raise ValueError("need at least one spin position")
    labels = [f"spin{i}" for i in range(len(positions))]
    layout = SpaceLayout.of(*[(lbl, 2, SPIN_HALF) for lbl in labels])
    h = FockOperator(layout, np.zeros((layout.dim, layout.dim), dtype=complex))
    for lbl, pos in zip(labels, positions):
        field = field_map(pos)
        if field is None:
            raise ValueError(f"field map undefined at spin position {pos.tolist()}")
        field = np.asarray(field, dtype=float)
        if field.shape != (3,) or not np.all(np.isfinite(field)):
            raise ValueError(f"field map returned invalid value at {pos.tolist()}")
        for axis, component in zip("xyz", field):
            if component != 0.0:
                s_half = 0.5 * embed(pauli(axis, lbl), layout, lbl)
                h = h + (G_S * mu_B * component / hbar) * s_half
    return h


def build_spin_mech(params: SystemParams, spin: SpinParams, layout: SpaceLayout) -> FockOperator:
    """Spin-mechanics Hamiltonian
    omega_m am^dag am + (Delta_e/2) sz + (Omega_d'/2) sx + (lam/2)(am + am^dag) sz."""
    if params.omega_m is None:
        raise ValueError("build_spin_mech needs params.omega_m")
    for name in ("Delta_e", "Omega_d_prime", "lam"):
        if getattr(spin, name) is None:
            raise ValueError(f"build_spin_mech needs spin.{name}")
    b, bd = _mode_ops(layout, "a_m")
    sz = embed(pauli("z", "spin"), layout, "spin")
    sx = embed(pauli("x", "spin"), layout, "spin")
    return params.omega_m * (bd @ b) + 0.5 * spin.Delta_e * sz \
        + 0.5 * spin.Omega_d_prime * sx + 0.5 * spin.lam * ((b + bd) @ sz)


def build_jc(lambda_rate: float, layout: SpaceLayout) -> FockOperator:
    """Spin-phonon exchange lam (s+ am + h.c.).

    The ladder operators are sigma_z +/- i sigma_y, so the effective exchange
    rate is ``JC_LADDER_SCALE * lambda_rate`` between sigma_x eigenstates.
    """
    b, _ = _mode_ops(layout, "a_m")
    h = lambda_rate * (embed(sigma_pm(), layout, "spin") @ b)
    return h + h.dagger()
