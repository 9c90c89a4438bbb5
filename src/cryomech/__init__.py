"""Simulation toolkit for cryogenic electromechanics: sideband cooling of a
membrane oscillator, motional superposition states, teleportation of motional
and spin qubits, and magnetic-gradient spin-phonon coupling.

Every effective model ships with an independent exact-dynamics oracle; see
:mod:`cryomech.oracle` and the ``verify-all`` CLI scenario.
"""

from .errors import (
    ConfigError,
    CryomechError,
    DegenerateSteadyStateError,
    PreconditionError,
    TruncationError,
    VerificationError,
)
from .fockspace import (
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
    sigma_pm,
    thermal_state,
    vacuum,
)
from .gates import CORRECTION_TABLE, CPHASE, HADAMARD, PAULI_GATES
from .lindblad import (
    Dissipator,
    EvolutionResult,
    LindbladModel,
    adiabatic_eliminate,
    affine_sweep,
    cooling_model,
    eliminated_model,
    evolve,
    liouvillian_matrix,
    steady_state,
    thermal_dissipators,
)
from .model import (
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
from .oracle import (
    OracleReport,
    exact_liouville_evolve,
    exact_unitary_evolve,
    state_fidelity,
    trace_distance,
    verify_all,
    verify_teleportation,
)
from .protocols import (
    EsrSpectrum,
    ProtocolReport,
    SwapResult,
    TransferResult,
    bell_measure,
    cphase,
    esr_scan,
    prepare_entangled_lc,
    prepare_motional_superposition,
    sideband_cool,
    spin_mech_swap,
    teleport_motional,
    teleport_spin,
    transfer_state,
)

__version__ = "0.1.0"
