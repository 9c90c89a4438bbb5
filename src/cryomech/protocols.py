"""Protocol orchestration: sideband cooling, motional superposition
preparation, motional-qubit teleportation, ESR scanning, spin-phonon swaps
and end-to-end spin-state teleportation.

Gates, swaps and transfers are built from the Hamiltonians in
:mod:`cryomech.model`, with optional dissipation.  Each teleportation runs as
one channel at every noise level: the ideal run is the zero-damping case of
the noisy one, not a separate circuit.  Measurement randomness is always an
injected seedable source; a forced-branch replay mode covers every outcome
deterministically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize_scalar
from scipy.signal import find_peaks

from . import oracle
from .errors import PreconditionError, VerificationError
from .fockspace import (
    BOSONIC,
    DensityMatrix,
    FockOperator,
    SpaceLayout,
    StateVector,
    embed,
    fidelity,
    fock_state,
    kron_states,
    partial_trace,
    thermal_state,
)
from .gates import CorrectionTable, HADAMARD, phases_equal, qubit_subspace_gate
from .lindblad import (
    Dissipator,
    LindbladModel,
    adiabatic_eliminate,
    cooling_model,
    eliminated_model,
    evolve,
    steady_state,
    thermal_dissipators,
)
from .model import (
    JC_LADDER_SCALE,
    SpinParams,
    SystemParams,
    build_beamsplitter,
    build_detuned,
    build_dispersive,
    build_jc,
    build_spin_mech,
)

#: Dressed spin qubit: eigenstates of sigma_x.  The spin-phonon exchange
#: Hamiltonian lowers the -x eigenstate while creating a phonon, so -x plays
#: the role of the excited qubit state.
DRESSED_GROUND = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
DRESSED_EXCITED = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)

#: Default spin decay / dephasing rates (rad/s): sub-kilohertz electron-spin
#: decoherence expressed as an even kilohertz-scale bound.
DEFAULT_SPIN_RATE = 2.0 * np.pi * 1e3


@dataclass(frozen=True)
class GateSegment:
    """A named unitary applied as one protocol step."""

    label: str
    unitary: FockOperator
    duration: float = 0.0
    support_limit: Optional[Mapping[str, float]] = None  # label -> max leakage

    def summary(self) -> dict:
        return {"label": self.label, "duration": float(self.duration)}


@dataclass(frozen=True)
class ProtocolReport:
    scenario: str
    segments: tuple[dict, ...] = ()
    final_fidelity: Optional[float] = None
    phonon_trajectory: Optional[dict] = None
    measurement_record: tuple[int, ...] = ()
    correction_applied: Optional[str] = None
    seed: Optional[int] = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.final_fidelity is not None and not -1e-9 <= self.final_fidelity <= 1.0 + 1e-9:
            raise ValueError(f"fidelity {self.final_fidelity} outside [0, 1]")

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "segments": list(self.segments),
            "final_fidelity": self.final_fidelity,
            "phonon_trajectory": self.phonon_trajectory,
            "measurement_record": list(self.measurement_record),
            "correction_applied": self.correction_applied,
            "seed": self.seed,
            "details": _jsonable(self.details),
        }


def _jsonable(v):
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, np.ndarray):
        return _jsonable(v.tolist())
    return v


@lru_cache(maxsize=1)
def correction_table() -> CorrectionTable:
    """The Bell-outcome correction table, derived once by exhaustive search."""
    report, table = oracle.verify_teleportation()
    if table is None:
        raise VerificationError("no consistent correction table exists for the circuit")
    return table


# ---------------------------------------------------------------------------
# Cooling
# ---------------------------------------------------------------------------

def sideband_cool(params: SystemParams, n_init: float, duration: Optional[float] = None,
                  dims: tuple[int, int] = (4, 12), eliminated: bool = False,
                  num_samples: int = 60, truncation_threshold: float = 1e-6,
                  method: str = "auto") -> ProtocolReport:
    """Cool the mechanical mode from a thermal state with mean ``n_init``.

    Runs either the full two-mode master equation (microwave loss + thermal
    mechanical bath) or the adiabatically eliminated single-mode model.
    """
    p = params.derived()
    for name in ("g", "kappa", "gamma_m", "n_bar"):
        if getattr(p, name) is None:
            raise ValueError(f"sideband_cool needs params.{name}")
    if p.omega_m is not None and not (p.omega_m > p.kappa and p.omega_m > p.gamma_m):
        warnings.warn("outside the resolved-sideband regime (omega_m should exceed "
                      "kappa and gamma_m); cooling limit formulas degrade", stacklevel=2)

    na, nm = dims
    two_mode_layout = SpaceLayout.of(("a", na), ("a_m", nm))
    full = cooling_model(p.g, p.kappa, p.gamma_m, p.n_bar, two_mode_layout)
    single, p = adiabatic_eliminate(full, p) if p.g > 0 else (
        eliminated_model(p.gamma_m, p.n_bar, nm), p)

    if duration is None:
        slow = p.gamma_prime if p.gamma_prime else p.gamma_m
        if slow <= 0:
            raise ValueError("cannot choose a duration for an undamped model")
        duration = 5.0 / slow

    mech_thermal = thermal_state(nm, n_init, "a_m")
    if eliminated:
        model, rho0 = single, mech_thermal
    else:
        model = full
        vac = np.zeros((na, na), dtype=complex)
        vac[0, 0] = 1.0
        rho0 = DensityMatrix(two_mode_layout, np.kron(vac, mech_thermal.matrix))
    from .fockspace import number, top_level_population

    # cooling only moves population down the ladder, so the leak detector is
    # calibrated against the initial thermal tail rather than the bare default
    tail = max(top_level_population(rho0).values())
    threshold = max(truncation_threshold, 2.0 * tail)
    n_mech = embed(number(nm, "a_m"), model.layout, "a_m")
    result = evolve(model, rho0, duration, num_samples=num_samples, method=method,
                    observables={"n_m": n_mech},
                    truncation_threshold=threshold)

    mech_final = result.final() if eliminated else partial_trace(result.final(), {"a_m"})
    ground = fock_state(SpaceLayout.single("a_m", nm), {})
    n_final = float(result.observables["n_m"][-1])
    return ProtocolReport(
        scenario="cool",
        segments=({"label": "eliminated-model relaxation" if eliminated
                   else "two-mode cooling", "duration": float(duration)},),
        final_fidelity=fidelity(mech_final, ground),
        phonon_trajectory={"times": [float(t) for t in result.times],
                           "values": [float(v) for v in result.observables["n_m"]]},
        details={
            "n_final": n_final,
            "n_target": p.n_bar_prime,
            "kappa_prime": p.kappa_prime,
            "gamma_prime": p.gamma_prime,
            "sideband_resolved": bool(p.omega_m is not None and p.omega_m > p.kappa),
            "dims": {"a": na, "a_m": nm},
        },
    )


# ---------------------------------------------------------------------------
# State transfer and superposition preparation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferResult:
    state: DensityMatrix          # reduced state of the mechanical mode
    fidelity: float               # vs the source state, up to a phase on |1>
    time: float
    candidates: dict              # fidelity at the two closed-form candidate times


def _qubit_fidelity_up_to_phase(rho: np.ndarray, alpha: complex, beta: complex) -> float:
    """max_theta <psi_theta| rho |psi_theta> for psi_theta = alpha|0> + e^{i theta} beta|1>."""
    a2, b2 = abs(alpha) ** 2, abs(beta) ** 2
    f = a2 * rho[0, 0].real + b2 * rho[1, 1].real + 2.0 * abs(alpha * np.conj(beta) * rho[0, 1])
    return float(min(max(f, 0.0), 1.0))


def transfer_state(state_on_a: StateVector, g: float, t_opt: Optional[float] = None,
                   mech_dim: Optional[int] = None, kappa: float = 0.0,
                   gamma_m: float = 0.0, n_bar: float = 0.0) -> TransferResult:
    """Swap a microwave-mode qubit state onto the mechanical mode.

    The mechanical mode starts in its ground state.  Without ``t_opt`` the
    interaction time is the numerical argmax of the transfer fidelity over
    one full exchange period; the closed-form candidates pi/(2g) and pi/g are
    reported alongside for comparison.
    """
    if g <= 0:
        raise ValueError("transfer needs g > 0")
    src = state_on_a.amplitudes
    if np.linalg.norm(src[2:]) > 1e-9:
        warnings.warn("source state has support above the {|0>,|1>} subspace; "
                      "transfer of higher Fock content is truncation-sensitive",
                      stacklevel=2)
    alpha, beta = complex(src[0]), complex(src[1]) if len(src) > 1 else 0.0
    na = state_on_a.layout.dim
    nm = mech_dim or na
    layout = SpaceLayout.of(("a", na), ("a_m", nm))
    h = build_beamsplitter(g, layout)
    dissipative = kappa > 0 or gamma_m > 0

    psi0 = kron_states(state_on_a_relabel(state_on_a, "a"),
                       fock_state(SpaceLayout.single("a_m", nm), {}))

    if dissipative:
        from .fockspace import annihilation

        a_op = embed(annihilation(na, "a"), layout, "a")
        b_op = embed(annihilation(nm, "a_m"), layout, "a_m")
        diss = (Dissipator(a_op, kappa),) + thermal_dissipators(b_op, gamma_m, n_bar)
        model = LindbladModel(h, diss)
        rho0 = DensityMatrix.from_state(psi0)

        def trajectory(t: float, num_samples: int) -> tuple[DensityMatrix, ...]:
            return evolve(model, rho0, t, num_samples=num_samples,
                          truncation_threshold=1.0).states

        def state_at(t: float) -> DensityMatrix:
            return trajectory(t, 2)[-1]
    else:
        def state_at(t: float) -> DensityMatrix:
            u = expm(-1j * h.matrix * t)
            return DensityMatrix.from_state(StateVector(layout, u @ psi0.amplitudes))

    def mech_state(rho: DensityMatrix) -> np.ndarray:
        return partial_trace(rho, {"a_m"}).matrix

    def fid_of(rho: DensityMatrix) -> float:
        return _qubit_fidelity_up_to_phase(mech_state(rho), alpha, beta)

    def fid(t: float) -> float:
        return fid_of(state_at(t))

    if t_opt is None:
        # coarse search over one exchange period: a dissipative run samples
        # the grid from a single trajectory
        period = 2.0 * np.pi / g
        grid = np.linspace(0.0, period, 65)
        if dissipative:
            coarse_fids = [fid_of(rho) for rho in trajectory(period, len(grid))[1:]]
        else:
            coarse_fids = [fid(t) for t in grid[1:]]
        coarse = grid[1 + int(np.argmax(coarse_fids))]
        span = period / 64.0
        res = minimize_scalar(lambda t: -fid(t),
                              bounds=(max(coarse - span, 1e-12), coarse + span),
                              method="bounded", options={"xatol": period * 1e-8})
        t_opt = float(res.x)
    rho_m = mech_state(state_at(t_opt))
    best = _qubit_fidelity_up_to_phase(rho_m, alpha, beta)
    candidates = {"pi/(2g)": fid(np.pi / (2.0 * g)), "pi/g": fid(np.pi / g)}
    return TransferResult(
        state=DensityMatrix(SpaceLayout.single("a_m", nm), rho_m, pos_tol=1e-7),
        fidelity=best, time=t_opt, candidates=candidates)


def state_on_a_relabel(state: StateVector, label: str) -> StateVector:
    """Rebind a single-subsystem state to a new label (same dimension/kind)."""
    sub = state.layout.subsystems[0]
    return StateVector(SpaceLayout.single(label, sub.dim, sub.kind), state.amplitudes)


def prepare_motional_superposition(params: SystemParams, dims: tuple[int, int] = (4, 4),
                                   dissipation: bool = True) -> ProtocolReport:
    """Transfer an ideally prepared (|0> + |1>)/sqrt(2) microwave state onto the
    cooled mechanical mode and report the fidelity to the same superposition."""
    p = params.derived()
    if p.g is None:
        raise ValueError("prepare_motional_superposition needs params.g")
    n_start = p.n_bar_prime if p.n_bar_prime is not None else 0.0
    if n_start >= 0.1:
        raise PreconditionError(
            f"mechanical mode not cooled: steady occupation {n_start:.3g} >= 0.1")

    na, nm = dims
    amps = np.zeros(na, dtype=complex)
    amps[0] = amps[1] = 1.0 / np.sqrt(2)
    phi0 = StateVector(SpaceLayout.single("a", na), amps)
    # during the transfer the cooling drive is off: the mechanical mode sees
    # only its intrinsic damping and the ambient bath, not the engineered gamma'
    kappa = p.kappa if (dissipation and p.kappa) else 0.0
    gamma = p.gamma_m if (dissipation and p.gamma_m) else 0.0
    result = transfer_state(phi0, p.g, mech_dim=nm, kappa=kappa,
                            gamma_m=gamma, n_bar=p.n_bar if dissipation and p.n_bar else 0.0)
    strong = {
        "g": p.g,
        "n_bar_gamma": (p.n_bar or 0.0) * (p.gamma_m or 0.0),
        "kappa": p.kappa,
        "strong_coupling": bool(
            p.n_bar is not None and p.gamma_m is not None and p.kappa is not None
            and p.g > p.n_bar * p.gamma_m and p.g > p.kappa),
    }
    return ProtocolReport(
        scenario="superpose",
        segments=({"label": "ideal microwave superposition", "duration": 0.0},
                  {"label": "beamsplitter transfer", "duration": result.time}),
        final_fidelity=result.fidelity,
        details={"transfer_time": result.time, "candidates": result.candidates,
                 "strong_coupling_check": strong},
    )


def prepare_entangled_lc(labels: tuple[str, str] = ("a1", "m2")) -> StateVector:
    """Ideal shared resource (|0>|1> + |1>|0>)/sqrt(2) on two qubit modes."""
    layout = SpaceLayout.of((labels[0], 2), (labels[1], 2))
    v = np.zeros(4, dtype=complex)
    v[1] = v[2] = 1.0 / np.sqrt(2)
    return StateVector(layout, v)


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def cphase(g: float, delta_disp: float, dims: tuple[int, int] = (2, 2),
           exact: bool = False, labels: tuple[str, str] = ("a1", "a_m1")) -> GateSegment:
    """Conditional-phase segment between a microwave mode and a mechanical mode.

    ``exact=False`` evolves the number-number coupling (g^2/delta) n1 nm for
    t = pi delta / g^2, which imparts exactly -1 on |11>.  ``exact=True``
    evolves the detuned exchange Hamiltonian for the same time instead.  At
    the default ``dims=(2, 2)`` that route imparts no conditional phase: the
    exchange is quadratic and its evolution Gaussian.  With ``dims[0] == 2``
    and ``dims[1] >= 3`` the microwave mode acts as a two-level element, the
    second-order shift of |11> is 2 g^2/delta, and CPHASE falls at half the
    stated time, pi delta / (2 g^2).
    """
    if delta_disp == 0:
        raise ValueError("cphase undefined at delta = 0")
    if exact and abs(delta_disp) / g < 10:
        raise PreconditionError(
            f"exact-evolution cphase requires delta/g >= 10, got {abs(delta_disp) / g:.2f}")
    layout = SpaceLayout.of((labels[0], dims[0]), (labels[1], dims[1]))
    t = np.pi * delta_disp / g ** 2
    if exact:
        h = build_detuned(delta_disp, g, layout, cavity=labels[0], mech=labels[1])
    else:
        h = build_dispersive(g, delta_disp, layout, cavity=labels[0], mech=labels[1])
    u = expm(-1j * h.matrix * t)
    return GateSegment(label="cphase" + ("-exact" if exact else ""),
                       unitary=FockOperator(layout, u), duration=abs(t))


def hadamard(layout: SpaceLayout, target: str) -> GateSegment:
    """Qubit-subspace Hadamard on one mode, identity on higher Fock levels.

    Applying it to a state with more than 1e-9 population above the qubit
    subspace of the target is rejected (see :func:`apply_segment`)."""
    dim = layout.subsystem(target).dim
    gate = embed(FockOperator(SpaceLayout.single(target, dim),
                              qubit_subspace_gate(HADAMARD, dim)), layout, target)
    return GateSegment(label=f"hadamard[{target}]", unitary=gate,
                       support_limit={target: 1e-9})


def _mode_leakage(amps: np.ndarray, layout: SpaceLayout, label: str) -> float:
    """Population above |1> of one mode, for a state vector or for a factor V
    (one column per pure component) of rho = V V^dag."""
    idx = layout.index(label)
    t = np.abs(amps.reshape(layout.dims + (-1,))) ** 2
    pops = t.sum(axis=tuple(i for i in range(t.ndim) if i != idx))
    return float(pops[2:].sum())


def _apply(segment: GateSegment, layout: SpaceLayout, amps: np.ndarray) -> np.ndarray:
    """Apply a segment to a state vector or to the columns of a factor."""
    for label, limit in (segment.support_limit or {}).items():
        leak = _mode_leakage(amps, layout, label)
        if leak > limit:
            raise PreconditionError(
                f"segment {segment.label!r} needs {label!r} confined to the "
                f"qubit subspace; leakage {leak:.3g} exceeds {limit:.3g}")
    return segment.unitary.matrix @ amps


def apply_segment(state: StateVector, segment: GateSegment) -> StateVector:
    return StateVector(state.layout, _apply(segment, state.layout, state.amplitudes))


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def bell_measure(state: StateVector, pair: tuple[str, str],
                 rng: Optional[np.random.Generator] = None,
                 force: Optional[str] = None) -> tuple[str, StateVector]:
    """CPHASE + Hadamards on the pair, then a projective computational-basis
    measurement of both modes.

    The outcome is sampled from the Born probabilities with the supplied
    generator; ``force`` replays a chosen branch and raises on a
    zero-probability request.  Returns (bits, collapsed state on the
    remaining layout with the measured modes projected out).
    """
    bits, kept, collapsed = _bell_measure(state.layout, state.amplitudes[:, None],
                                          pair, rng, force)
    return bits, StateVector(kept, collapsed[:, 0])


def _bell_measure(layout: SpaceLayout, factor: np.ndarray, pair: tuple[str, str],
                  rng: Optional[np.random.Generator], force: Optional[str]
                  ) -> tuple[str, SpaceLayout, np.ndarray]:
    """:func:`bell_measure` on rho = V V^dag given as its factor V, one column
    per pure component.  Every column collapses on the same outcome, so the
    Born probability of a branch is the squared norm of its whole block.
    Returns (bits, remaining layout, normalized collapsed factor)."""
    for segment in (_ideal_cphase_segment(layout, pair),
                    hadamard(layout, pair[0]), hadamard(layout, pair[1])):
        factor = _apply(segment, layout, factor)

    i0, i1 = layout.index(pair[0]), layout.index(pair[1])
    t = factor.reshape(layout.dims + (-1,))
    probs = {}
    branches = {}
    for b0 in range(2):
        for b1 in range(2):
            sl = [slice(None)] * t.ndim
            sl[i0], sl[i1] = b0, b1
            branch = t[tuple(sl)].reshape(-1, t.shape[-1])
            probs[f"{b0}{b1}"] = float(np.linalg.norm(branch) ** 2)
            branches[f"{b0}{b1}"] = branch
    total = sum(probs.values())
    if abs(total - 1.0) > 1e-9:
        raise RuntimeError(f"measured modes leaked outside the qubit subspace (sum p = {total})")

    if force is not None:
        if force not in probs:
            raise ValueError(f"outcome must be one of {sorted(probs)}, got {force!r}")
        if probs[force] < 1e-12:
            raise ValueError(f"branch {force} has probability {probs[force]:.3g}; cannot replay")
        bits = force
    else:
        if rng is None:
            raise ValueError("bell_measure needs an rng unless a branch is forced")
        r = rng.random()
        acc = 0.0
        bits = "11"
        for key in sorted(probs):
            acc += probs[key]
            if r <= acc:
                bits = key
                break

    kept = tuple(s for k, s in enumerate(layout.subsystems) if k not in (i0, i1))
    collapsed = branches[bits]
    return bits, SpaceLayout(kept), collapsed / np.linalg.norm(collapsed)


def _ideal_cphase_segment(layout: SpaceLayout, pair: tuple[str, str]) -> GateSegment:
    """Qubit-level conditional phase embedded into the full layout: -1 whenever
    both target modes hold exactly one excitation."""
    proj = _single_excitation_projector(layout, pair)
    u = np.eye(layout.dim, dtype=complex) - 2.0 * proj
    return GateSegment(label=f"cphase[{pair[0]},{pair[1]}]",
                       unitary=FockOperator(layout, u),
                       support_limit={pair[0]: 1e-9, pair[1]: 1e-9})


def _single_excitation_projector(layout: SpaceLayout, pair: tuple[str, str]) -> np.ndarray:
    def one_proj(label):
        dim = layout.subsystem(label).dim
        p = np.zeros((dim, dim), dtype=complex)
        p[1, 1] = 1.0
        return embed(FockOperator(SpaceLayout.single(label, dim), p), layout, label).matrix

    return one_proj(pair[0]) @ one_proj(pair[1])


# ---------------------------------------------------------------------------
# Motional teleportation
# ---------------------------------------------------------------------------

def checkpoint_state(alpha: complex, beta: complex) -> StateVector:
    """Three-qubit state after the conditional phase, before the Hadamards:
    (a|001> + a|010> + b|101> - b|110>) / sqrt(2) on (m1, a1, m2)."""
    layout = SpaceLayout.of(("a_m1", 2), ("a1", 2), ("a_m2", 2))
    v = np.zeros(8, dtype=complex)
    v[0b001] = alpha
    v[0b010] = alpha
    v[0b101] = beta
    v[0b110] = -beta
    return StateVector(layout, v / np.sqrt(2))


def teleport_motional(alpha: complex, beta: complex, seed: Optional[int] = None,
                      force_branch: Optional[str] = None,
                      resource_damping: float = 0.0) -> ProtocolReport:
    """Teleport the motional qubit alpha|0> + beta|1> from mechanical mode 1 to
    mechanical mode 2 through the shared microwave-mechanical resource.

    ``resource_damping`` optionally applies single-quantum amplitude damping
    (probability per resource mode) to the shared entangled pair before the
    protocol runs, modeling imperfect resource distribution.

    The circuit acts on a factor V of the three-mode state, rho = V V^dag.
    Each Kraus term of the damped resource adds columns to V; the ideal
    resource keeps one, whose corrected amplitudes are reported.
    """
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"input amplitudes must be normalized, got |a|^2+|b|^2 = {norm}")
    if not 0.0 <= resource_damping <= 1.0:
        raise ValueError(f"resource_damping must lie in [0, 1], got {resource_damping}")
    rng = np.random.default_rng(seed)
    table = correction_table()

    layout = SpaceLayout.of(("a_m1", 2), ("a1", 2), ("a_m2", 2))
    pair = ("a_m1", "a1")
    target = np.array([alpha, beta], dtype=complex)
    resource = prepare_entangled_lc(("a1", "a_m2")).amplitudes
    kraus = _amplitude_damping_kraus(resource_damping)
    factor = np.kron(target[:, None],
                     np.column_stack([np.kron(k1, k2) @ resource for k1 in kraus for k2 in kraus]))

    bits, _, collapsed = _bell_measure(layout, factor, pair, rng, force_branch)
    out = table.gate(bits) @ collapsed
    if resource_damping > 0.0:
        details = {"resource_damping": resource_damping}
    else:
        # checkpoint: state after the conditional phase, before the Hadamards
        # (_bell_measure applies the full CPHASE + Hadamard circuit itself)
        mid = _ideal_cphase_segment(layout, pair).unitary.matrix @ factor
        ref = checkpoint_state(alpha, beta).amplitudes
        details = {
            "checkpoint_fidelity": float(np.linalg.norm(ref.conj() @ mid) ** 2),
            "output_amplitudes": [out[0, 0], out[1, 0]],
            "amplitude_exact": bool(phases_equal(target, out[:, 0], tol=1e-9)),
        }
    return ProtocolReport(
        scenario="teleport-motional",
        segments=_teleport_segments(),
        final_fidelity=float(np.linalg.norm(target.conj() @ out) ** 2),
        measurement_record=tuple(int(b) for b in bits),
        correction_applied=table.name(bits),
        seed=seed,
        details=details,
    )


def _teleport_segments() -> tuple[dict, ...]:
    return ({"label": "resource preparation", "duration": 0.0},
            {"label": "cphase", "duration": 0.0},
            {"label": "hadamard[a_m1]", "duration": 0.0},
            {"label": "hadamard[a1]", "duration": 0.0},
            {"label": "bell measurement", "duration": 0.0},
            {"label": "pauli correction", "duration": 0.0})


def _amplitude_damping_kraus(p: float) -> list[np.ndarray]:
    """Kraus terms of single-quantum amplitude damping; at p = 0 the
    vanishing jump term is dropped, leaving the identity alone."""
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return [k for k in (k0, k1) if k.any()]


# ---------------------------------------------------------------------------
# ESR scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EsrSpectrum:
    sweep: str
    values: np.ndarray
    response: np.ndarray          # steady phonon emission proxy gamma' <n_m>
    peaks: tuple[float, ...]
    resolution: float

    def to_json_dict(self) -> dict:
        return {"sweep": self.sweep, "values": [float(v) for v in self.values],
                "response": [float(v) for v in self.response],
                "peaks": [float(p) for p in self.peaks],
                "resolution": float(self.resolution)}


def _esr_spectrum(sweep: str, values: Sequence[float],
                 response: Sequence[float]) -> EsrSpectrum:
    """Assemble a swept response into a spectrum: the resolution is the largest
    abscissa step, and peaks need a prominence of 10 % of the response span."""
    values = np.asarray(values, dtype=float)
    response = np.asarray(response)
    resolution = float(np.max(np.diff(values))) if len(values) > 1 else 0.0
    span = response.max() - response.min()
    if span > 0:
        idx, _ = find_peaks(response, prominence=0.1 * span)
        peaks = tuple(float(values[i]) for i in idx)
    else:
        peaks = ()
    return EsrSpectrum(sweep=sweep, values=values, response=response,
                       peaks=peaks, resolution=resolution)


def esr_scan(spin: SpinParams, params: SystemParams, sweep: str,
             values: Sequence[float], mech_dim: int = 8,
             spin_decay: Optional[float] = None,
             spin_dephasing: Optional[float] = None) -> EsrSpectrum:
    """Steady-state response of the damped mechanical mode as the spin drive is
    swept, either over the detuning or over the Rabi frequency.

    The ordinate is the phonon emission proxy gamma' <a_m^dag a_m>; peaks mark
    the dressed-splitting resonance with the mechanical frequency.
    """
    if sweep not in ("Delta_e", "Omega_d_prime"):
        raise ValueError("sweep must be 'Delta_e' or 'Omega_d_prime'")
    p = params.derived()
    s = spin.derived()
    if p.omega_m is None or s.lam is None:
        raise ValueError("esr_scan needs params.omega_m and spin.lam")
    if not s.lam < p.omega_m / 10.0:
        raise PreconditionError(
            f"dispersive treatment needs lam < omega_m/10; got lam/omega_m = "
            f"{s.lam / p.omega_m:.3g}")
    gamma_p = p.gamma_prime if p.gamma_prime is not None else p.gamma_m
    if gamma_p is None or gamma_p <= 0:
        raise ValueError("esr_scan needs a positive mechanical damping rate")
    n_th = p.n_bar_prime or 0.0
    decay = DEFAULT_SPIN_RATE if spin_decay is None else spin_decay
    dephase = DEFAULT_SPIN_RATE if spin_dephasing is None else spin_dephasing

    from .fockspace import annihilation, number, pauli

    layout = SpaceLayout.of(("a_m", mech_dim), ("spin", 2, "spin-half"))
    b = embed(annihilation(mech_dim, "a_m"), layout, "a_m")
    n_op = embed(number(mech_dim, "a_m"), layout, "a_m")
    sminus = embed(FockOperator(SpaceLayout.single("spin", 2, "spin-half"),
                                np.array([[0, 0], [1, 0]], dtype=complex)),
                   layout, "spin")
    sz = embed(pauli("z"), layout, "spin")

    diss = thermal_dissipators(b, gamma_p, n_th)
    if decay > 0:
        diss = diss + (Dissipator(sminus, decay),)
    if dephase > 0:
        diss = diss + (Dissipator(sz, dephase),)

    response = []
    for v in values:
        if sweep == "Delta_e":
            sv = SpinParams(g_s=s.g_s, lam=s.lam, Delta_e=float(v),
                            Omega_d_prime=s.Omega_d_prime)
        else:
            sv = SpinParams(g_s=s.g_s, lam=s.lam, Delta_e=s.Delta_e or 0.0,
                            Omega_d_prime=float(v))
        ss = steady_state(LindbladModel(build_spin_mech(p, sv, layout), diss))
        response.append(gamma_p * float(np.real(np.trace(n_op.matrix @ ss.matrix))))
    return _esr_spectrum(sweep, values, response)


# ---------------------------------------------------------------------------
# Spin-phonon swap and spin teleportation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwapResult:
    segment: GateSegment
    fidelity: float
    time: float
    strong_coupling: Optional[bool] = None


@lru_cache(maxsize=16)
def _swap_pieces(lambda_rate: float, phonon_dim: int
                 ) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Raw half-Rabi swap unitary plus per-direction phase corrections.

    The swap time is located numerically around pi / (2 * JC_LADDER_SCALE * lam).
    The forward correction (a phase on the mechanical Fock ladder) makes
    excited-spin x vacuum -> ground-spin x single-phonon exact; the backward
    correction (a phase on the dressed spin states) does the same for
    single-phonon x ground-spin -> vacuum x excited-spin.  Both are diagonal
    phase gates, so they commute with mechanical damping diagnostics and can
    sandwich a dissipative evolution.

    Returns (u_raw, t_swap, c_forward, c_backward).
    """
    layout = SpaceLayout.of(("a_m", phonon_dim), ("spin", 2, "spin-half"))
    h = build_jc(lambda_rate, layout, "+")

    def basis(n, spin_vec):
        amps = np.zeros(phonon_dim, dtype=complex)
        amps[n] = 1.0
        return np.kron(amps, spin_vec)

    psi_e0 = basis(0, DRESSED_EXCITED)
    psi_g1 = basis(1, DRESSED_GROUND)
    psi_g0 = basis(0, DRESSED_GROUND)

    def transfer(t):
        u = expm(-1j * h.matrix * t)
        return abs(np.vdot(psi_g1, u @ psi_e0)) ** 2

    guess = np.pi / (2.0 * JC_LADDER_SCALE * lambda_rate)
    res = minimize_scalar(lambda t: -transfer(t), bounds=(0.5 * guess, 1.5 * guess),
                          method="bounded", options={"xatol": guess * 1e-10})
    t_swap = float(res.x)
    u = expm(-1j * h.matrix * t_swap)

    def unit_phase(z):
        return z / abs(z)

    phi_g0 = unit_phase(np.vdot(psi_g0, u @ psi_g0))      # vacuum branch phase
    phi_fwd = unit_phase(np.vdot(psi_g1, u @ psi_e0))     # |e,0> -> |g,1>
    phi_bwd = unit_phase(np.vdot(psi_e0, u @ psi_g1))     # |g,1> -> |e,0>

    # forward: phases on the mechanical Fock ladder
    corr = np.diag([(np.conj(phi_fwd / phi_g0)) ** k for k in range(phonon_dim)])
    c_fwd = np.conj(phi_g0) * np.kron(corr, np.eye(2, dtype=complex))

    # backward: phase on the dressed excited spin state
    p_e = np.outer(DRESSED_EXCITED, DRESSED_EXCITED.conj())
    p_g = np.eye(2, dtype=complex) - p_e
    spin_corr = np.conj(phi_g0) * p_g + np.conj(phi_bwd) * p_e
    c_bwd = np.kron(np.eye(phonon_dim, dtype=complex), spin_corr)
    return u, t_swap, c_fwd, c_bwd


def _jc_swap_unitary(lambda_rate: float, phonon_dim: int,
                     direction: str = "spin->mech") -> tuple[FockOperator, float]:
    """Phase-corrected half-Rabi swap as a single unitary segment."""
    u, t_swap, c_fwd, c_bwd = _swap_pieces(lambda_rate, phonon_dim)
    c = c_fwd if direction == "spin->mech" else c_bwd
    layout = SpaceLayout.of(("a_m", phonon_dim), ("spin", 2, "spin-half"))
    return FockOperator(layout, c @ u), t_swap


def spin_mech_swap(direction: str, lambda_rate: float, phonon_dim: int = 3,
                   input_amplitudes: tuple[complex, complex] = None,
                   n_bar_gamma: Optional[float] = None,
                   Omega_d_prime: Optional[float] = None,
                   omega_m: Optional[float] = None,
                   Delta_e: float = 0.0) -> SwapResult:
    """Swap a qubit between the dressed electron spin and the mechanical mode.

    Preconditions follow the dispersive derivation: the spin drive detuning
    must be zero and, when given, |Omega_d'| must equal omega_m.  The strong
    coupling predicate lambda > n_bar gamma' is logged when the rate is given.
    """
    if direction not in ("spin->mech", "mech->spin"):
        raise ValueError("direction must be 'spin->mech' or 'mech->spin'")
    if Delta_e != 0.0:
        raise PreconditionError("swap requires the spin drive tuned to resonance (Delta_e = 0)")
    if Omega_d_prime is not None and omega_m is not None:
        if not np.isclose(abs(Omega_d_prime), omega_m):
            raise PreconditionError("swap requires |Omega_d'| = omega_m")
    strong = None
    if n_bar_gamma is not None:
        strong = bool(lambda_rate > n_bar_gamma)

    u, t_swap = _jc_swap_unitary(lambda_rate, phonon_dim, direction)
    segment = GateSegment(label=f"jc-swap[{direction}]", unitary=u, duration=t_swap)

    if input_amplitudes is None:
        input_amplitudes = (1.0 / np.sqrt(2), 1.0 / np.sqrt(2))
    alpha, beta = input_amplitudes
    prepare = _spin_qubit_state if direction == "spin->mech" else _mech_qubit_state
    psi_in = prepare(alpha, beta, phonon_dim)
    out = StateVector(psi_in.layout, segment.unitary.matrix @ psi_in.amplitudes)
    fid = _qubit_fidelity_up_to_phase(_received_qubit(DensityMatrix.from_state(out), direction),
                                      alpha, beta)
    return SwapResult(segment=segment, fidelity=fid, time=t_swap, strong_coupling=strong)


def _received_qubit(rho: DensityMatrix, direction: str) -> np.ndarray:
    """Reduced state of the side a swap writes to; the spin in the dressed basis."""
    if direction == "spin->mech":
        return partial_trace(rho, {"a_m"}).matrix
    basis = np.column_stack([DRESSED_GROUND, DRESSED_EXCITED])
    return basis.conj().T @ partial_trace(rho, {"spin"}).matrix @ basis


def _spin_qubit_state(alpha, beta, phonon_dim) -> StateVector:
    spin = StateVector(SpaceLayout.single("spin", 2, "spin-half"),
                       alpha * DRESSED_GROUND + beta * DRESSED_EXCITED)
    return kron_states(fock_state(SpaceLayout.single("a_m", phonon_dim), {}), spin)


def _mech_qubit_state(alpha, beta, phonon_dim) -> StateVector:
    amps = np.zeros(phonon_dim, dtype=complex)
    amps[0], amps[1] = alpha, beta
    mech = StateVector(SpaceLayout.single("a_m", phonon_dim), amps)
    return kron_states(mech, StateVector(SpaceLayout.single("spin", 2, "spin-half"),
                                         DRESSED_GROUND))


def _swap_channel(rho: DensityMatrix, direction: str, lambda_rate: float,
                  gamma_prime: float, n_bar_prime: float) -> DensityMatrix:
    """Apply the swap as a Lindblad evolution with mechanical damping, followed
    by the same deterministic phase correction as the unitary segment.  At
    ``gamma_prime = 0`` this is the unitary segment."""
    from .fockspace import annihilation

    layout = rho.layout
    phonon_dim = layout.subsystem("a_m").dim
    h = build_jc(lambda_rate, layout, "+")
    b = embed(annihilation(phonon_dim, "a_m"), layout, "a_m")
    model = LindbladModel(h, thermal_dissipators(b, gamma_prime, n_bar_prime))
    _, t_swap, c_fwd, c_bwd = _swap_pieces(lambda_rate, phonon_dim)
    tols = dict(trace_tol=1e-6, herm_tol=1e-6, pos_tol=1e-6)
    final = evolve(model, rho, t_swap, num_samples=2, truncation_threshold=1.0, **tols).final()
    c = c_fwd if direction == "spin->mech" else c_bwd
    return DensityMatrix(layout, c @ final.matrix @ c.conj().T, **tols)


def teleport_spin(alpha: complex, beta: complex, seed: Optional[int] = None,
                  force_branch: Optional[str] = None, phonon_dim: int = 3,
                  lambda_rate: float = 1.0, gamma_prime: float = 0.0,
                  n_bar_prime: float = 0.0,
                  n_bar_gamma: Optional[float] = None) -> ProtocolReport:
    """End-to-end spin-state teleportation: swap the dressed spin qubit of
    system 1 onto its mechanical mode, teleport the motional qubit to system 2,
    swap it back onto the remote spin.

    A density matrix runs through both swap legs as Lindblad evolutions under
    mechanical damping ``gamma_prime``, and the ideal motional teleportation
    between them is the identity channel.  With ``gamma_prime > 0`` the
    reported fidelity degrades accordingly; at ``gamma_prime = 0`` the legs
    are the unitary swaps, and the motional hop is run through
    :func:`teleport_motional` for its measurement record.
    """
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("input amplitudes must be normalized")

    swap_in = spin_mech_swap("spin->mech", lambda_rate, phonon_dim,
                             input_amplitudes=(alpha, beta), n_bar_gamma=n_bar_gamma)
    rho0 = DensityMatrix.from_state(_spin_qubit_state(alpha, beta, phonon_dim))
    rho1 = _swap_channel(rho0, "spin->mech", lambda_rate, gamma_prime, n_bar_prime)
    rho_m = _received_qubit(rho1, "spin->mech")
    spin_ground = np.outer(DRESSED_GROUND, DRESSED_GROUND.conj())
    rho2 = DensityMatrix(rho1.layout, np.kron(rho_m, spin_ground),
                         trace_tol=1e-7, herm_tol=1e-7, pos_tol=1e-7)
    rho_d = _received_qubit(_swap_channel(rho2, "mech->spin", lambda_rate, gamma_prime,
                                          n_bar_prime), "mech->spin")
    target = np.array([alpha, beta], dtype=complex)
    fid = float(np.real(np.vdot(target, rho_d @ target)))

    if gamma_prime > 0.0:
        middle = ({"label": "ideal motional teleport", "duration": 0.0},)
        record, correction = (), None
        details = {"gamma_prime": gamma_prime, "lambda": lambda_rate,
                   "strong_coupling": swap_in.strong_coupling}
    else:
        # the swap left a pure qubit on the mechanical mode: its leading
        # eigenvector, whose global phase the Bell statistics ignore
        mech = np.linalg.eigh(rho_m)[1][:, -1]
        if np.linalg.norm(mech[2:]) > 1e-9:
            raise RuntimeError("mechanical state leaked above the qubit subspace")
        tele = teleport_motional(complex(mech[0]), complex(mech[1]), seed=seed,
                                 force_branch=force_branch)
        middle = tele.segments
        record, correction = tele.measurement_record, tele.correction_applied
        details = {"strong_coupling": swap_in.strong_coupling,
                   "motional_checkpoint_fidelity": tele.details["checkpoint_fidelity"]}
    return ProtocolReport(
        scenario="teleport-spin",
        segments=(swap_in.segment.summary(), *middle,
                  {"label": "jc-swap[mech->spin]", "duration": swap_in.time}),
        final_fidelity=min(max(fid, 0.0), 1.0),
        measurement_record=record,
        correction_applied=correction,
        seed=seed,
        details=details,
    )
