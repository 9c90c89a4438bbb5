"""Protocol orchestration: sideband cooling, motional superposition
preparation, motional-qubit teleportation, ESR scanning, spin-phonon swaps
and end-to-end spin-state teleportation.

The physical CPHASE, swaps and transfers are built from the Hamiltonians in
:mod:`cryomech.model`, with optional dissipation.  The Bell measurement
applies the qubit-level :data:`cryomech.gates.BELL_CIRCUIT` to the measured
pair's qubit block as one contraction.  Each teleportation runs as one
channel at every noise level: the ideal run is the zero-damping case of the
noisy one, not a separate circuit.  Measurement randomness is always an
injected seedable source; a forced-branch replay mode covers every outcome
deterministically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import takewhile
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import expm

from .errors import ConfigError, PreconditionError, TruncationError
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
    thermal_state,
    top_level_population,
    vacuum,
)
from .gates import BELL_CIRCUIT, CORRECTION_GATES, CORRECTION_TABLE, CPHASE, I2, phases_equal
from .lindblad import (
    Dissipator,
    ExpectationSeries,
    LindbladModel,
    adiabatic_eliminate,
    cooling_model,
    evolve,
    expectation_series,
    expectations,
    steady_states,
    thermal_dissipators,
)
from .model import (
    JC_LADDER_SCALE,
    SpinParams,
    SystemParams,
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


# ---------------------------------------------------------------------------
# Cooling
# ---------------------------------------------------------------------------

def sideband_cool(params: SystemParams, n_init: float, duration: Optional[float] = None,
                  dims: tuple[int, int] = (4, 12), eliminated: bool = False,
                  num_samples: int = 60) -> ProtocolReport:
    """Cool the mechanical mode from a thermal state with mean ``n_init``.

    Runs either the full two-mode master equation (microwave loss + thermal
    mechanical bath) or the adiabatically eliminated single-mode model, and
    builds only the one that runs, so only an eliminated run needs
    kappa / g >= 5.  Without ``duration`` it runs for 5 over the rate of
    :meth:`SystemParams.mechanical_bath`, so the model must be damped
    enough for that time to be a float.  A stiff run's
    :class:`PreconditionError` names its remedies: a shorter ``duration``,
    or ``eliminated`` for a full run.  A rate that overflowed is refused as
    the generator is built, before that test, and no remedy is named.
    """
    for name in ("g", "kappa", "gamma_m", "n_bar"):
        if getattr(params, name) is None:
            raise ValueError(f"sideband_cool needs params.{name}")
    omega_m = params.omega_m
    if omega_m is not None and not (omega_m > params.kappa and omega_m > params.gamma_m):
        warnings.warn("outside the resolved-sideband regime (omega_m should exceed "
                      "kappa and gamma_m); cooling limit formulas degrade", stacklevel=2)

    na, nm = dims
    thermal = thermal_state(nm, n_init).matrix
    if eliminated:
        model = adiabatic_eliminate(params, nm)
        rho0 = DensityMatrix(model.layout, thermal)
    else:
        two_mode_layout = SpaceLayout.of(("a", na), ("a_m", nm))
        model = cooling_model(params.g, params.kappa, params.gamma_m, params.n_bar,
                              two_mode_layout)
        rho0 = DensityMatrix(two_mode_layout, np.kron(thermal_state(na, 0.0).matrix, thermal))

    if duration is None:
        slow, _ = params.mechanical_bath()
        duration = 5.0 / slow if slow > 0 else np.inf
        if duration == np.inf:
            raise PreconditionError(f"cannot choose a duration for an undamped model: "
                                    f"5 over its damping rate {slow!r} is not a float")

    # cooling only moves population down the ladder, so the leak detector is
    # calibrated against the initial thermal tail rather than evolve's
    # default; a two-level mode has no top levels to leak into
    tail = max(top_level_population(rho0).values(), default=0.0)
    model.generator  # refuses a rate that overflowed, outside the remedies below
    try:
        result = evolve(model, rho0, duration, num_samples=num_samples,
                        truncation_threshold=max(1e-6, 2.0 * tail))
    except TruncationError:  # a PreconditionError that no duration mends
        raise
    except PreconditionError as exc:  # the stiff-run refusal
        remedy = "" if eliminated else ", or eliminate a fast cavity (eliminated = true)"
        raise PreconditionError(f"{exc}; shorten the duration{remedy}") from exc
    # <n_m> and the ground-state population <0|rho_m|0> of every sample
    n_op = number(nm)
    ground = np.zeros((nm, nm), dtype=complex)
    ground[0, 0] = 1.0
    ops = [embed(op, model.layout, "a_m") for op in (n_op, FockOperator(n_op.layout, ground))]
    n_m, p_ground = expectations(result, ops).real.T
    n_m = [float(n) for n in n_m]
    return ProtocolReport(
        scenario="cool",
        segments=({"label": "eliminated-model relaxation" if eliminated
                   else "two-mode cooling", "duration": float(duration)},),
        final_fidelity=float(p_ground[-1]),
        phonon_trajectory={"times": [float(t) for t in result.times],
                           "values": n_m},
        details={
            "n_final": n_m[-1],
            "n_target": params.n_bar_prime,
            "kappa_prime": params.kappa_prime,
            "gamma_prime": params.gamma_prime,
            "sideband_resolved": bool(omega_m is not None and omega_m > params.kappa),
            "dims": {"a": na, "a_m": nm},
        },
    )


# ---------------------------------------------------------------------------
# State transfer and superposition preparation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferResult:
    fidelity: float               # vs the source state, up to a phase on |1>
    time: float
    candidates: dict              # fidelity at the two closed-form candidate times


def _qubit_fidelity_up_to_phase(r00, r11, r01, alpha: complex, beta: complex):
    """max_theta <psi_theta| rho |psi_theta> for psi_theta = alpha|0> + e^{i
    theta} beta|1>, that is |alpha|^2 rho_00 + |beta|^2 rho_11 + 2 |alpha
    beta* rho_01|, elementwise over arrays of the three entries."""
    a2, b2, w = abs(alpha) ** 2, abs(beta) ** 2, 2.0 * abs(alpha * np.conj(beta))
    return a2 * np.real(r00) + b2 * np.real(r11) + w * np.abs(r01)


#: Grid intervals per series piece of :func:`_series_peak`, and its most Newton steps.
_PEAK_GRID = 32
_PEAK_NEWTON = 16


def _series_peak(series: ExpectationSeries, alpha: complex, beta: complex,
                 first: Optional[float]) -> tuple[float, float]:
    """Offset from the series' sample t_c of the maximum of F = |alpha|^2
    rho_00 + |beta|^2 rho_11 + 2 |alpha beta* rho_01| over its window, and F
    there, the mechanical entries being the series' expectations in order.
    ``first`` is F at t_c if the window starts at t = 0; a maximum at t = 0
    then gives (0, first), the sample itself (see :func:`transfer_state`)."""
    a2, b2, w = abs(alpha) ** 2, abs(beta) ** 2, 2.0 * abs(alpha * np.conj(beta))
    grid = np.linspace(-1.0, 1.0, _PEAK_GRID + 1)
    v = series.evaluate(grid)[0]
    f = _qubit_fidelity_up_to_phase(v[:, 0], v[:, 1], v[:, 2], alpha, beta).ravel()
    best = int(np.argmax(f))
    if best == 0 and first is not None:
        return 0.0, first
    piece, j = divmod(best, _PEAK_GRID + 1)
    x = float(grid[j])
    # Newton stays between the best grid point's neighbours, inside the window
    lo = x - 2.0 / _PEAK_GRID if best > 0 else x
    hi = x + 2.0 / _PEAK_GRID if best < f.size - 1 else x
    for _ in range(_PEAK_NEWTON):
        v, d1, d2 = (part[piece] for part in series.evaluate(x))
        f1 = a2 * d1[0].real + b2 * d1[1].real
        f2 = a2 * d2[0].real + b2 * d2[1].real
        if w:
            z, z1, z2 = v[2], d1[2], d2[2]
            if z == 0:  # |rho_01| has no derivative at 0: stop here
                break
            g1 = (np.conj(z) * z1).real / abs(z)
            f1 += w * g1
            f2 += w * (abs(z1) ** 2 + (np.conj(z) * z2).real - g1 ** 2) / abs(z)
        if not f2 < 0:
            break
        step = f1 / f2
        if not lo < x - step < hi:
            break
        x -= step
        if abs(step) <= 1e-14:
            break
    v = series.evaluate(x)[0][piece]
    return (float(series.offsets[piece] + x * series.radius),
            float(_qubit_fidelity_up_to_phase(*v, alpha, beta)))


def transfer_state(state_on_a: StateVector, g: float, mech_dim: Optional[int] = None,
                   kappa: float = 0.0, gamma_m: float = 0.0, n_bar: float = 0.0) -> TransferResult:
    """Swap a microwave-mode qubit state onto the mechanical mode.

    The mechanical mode starts in its ground state, and the pair evolves
    under :func:`cooling_model`: beamsplitter exchange at rate ``g``,
    microwave loss ``kappa`` and a thermal mechanical bath ``gamma_m``,
    ``n_bar``.  Zero rates give the closed exchange; there is one path for
    every rate.

    One trajectory over half an exchange period, [0, pi/g], samples the
    transfer fidelity F every h = pi/(32 g) and gives the closed-form
    candidates pi/(2g) and pi/g, which are reported alongside.  Each
    sample's F reads the mechanical rho_00, rho_11 and rho_01 as sums over
    its vec entries (:func:`~cryomech.lindblad.expectations`), so a sample
    that ``evolve`` validated is not validated again.  The half
    period holds one maximum: a closed exchange reaches an equal one again
    at 3 pi/(2g), and damping only lowers it.  The interaction time is that
    maximum, refined within h of the best sample t_c > 0 from the series of
    the mechanical rho_00, rho_11 and rho_01 at t_c
    (:func:`~cryomech.lindblad.expectation_series`): F = |alpha|^2 rho_00
    + |beta|^2 rho_11 + 2 |alpha beta* rho_01| on a fixed grid, then Newton
    on F' from the best grid point.  With alpha beta* = 0, F and its
    derivatives have no |rho_01| term.  t = 0 is no transfer: where F is
    largest there (as for alpha = 1, where F = rho_00 starts at its
    maximum), t_c itself is reported, so the time is always positive.  The
    reported fidelity is F there, read from the series or t_c's sample, so
    the validated sweep is the transfer's one evolution.  A rate so slow
    that pi/g is not a float raises :class:`PreconditionError`.
    """
    if g <= 0:
        raise ValueError("transfer needs g > 0")
    if np.pi / g == np.inf:
        raise PreconditionError(f"exchange rate g = {g!r} is too slow: the half period "
                                f"pi/g is too large for a float")
    src = state_on_a.amplitudes
    if np.linalg.norm(src[2:]) > 1e-9:
        warnings.warn("source state has support above the {|0>,|1>} subspace; "
                      "transfer of higher Fock content is truncation-sensitive",
                      stacklevel=2)
    alpha, beta = complex(src[0]), complex(src[1])
    na = state_on_a.layout.dim
    nm = mech_dim or na
    layout = SpaceLayout.of(("a", na), ("a_m", nm))
    model = cooling_model(g, kappa, gamma_m, n_bar, layout)
    unit = np.eye(nm, dtype=complex)
    psi0 = np.kron(src, unit[0])
    rho0 = DensityMatrix(layout, np.outer(psi0, psi0.conj()))

    # tr(O rho) for O = 1 (x) |l><k| is the mechanical rho_kl
    ops = [embed(FockOperator(SpaceLayout.single("a_m", nm), np.outer(unit[l], unit[k])),
                 layout, "a_m") for k, l in ((0, 0), (1, 1), (0, 1))]

    # 33 samples over [0, pi/g]: samples 16 and 32 are the candidate times
    sweep = evolve(model, rho0, np.pi / g, num_samples=33, truncation_threshold=1.0)
    f = _qubit_fidelity_up_to_phase(*expectations(sweep, ops).T, alpha, beta)
    candidates = {"pi/(2g)": float(f[16]), "pi/g": float(f[32])}
    c = 1 + int(np.argmax(f[1:]))
    offset, fidelity = _series_peak(expectation_series(model, sweep, c, ops), alpha, beta,
                                    first=float(f[c]) if c == 1 else None)
    return TransferResult(fidelity=fidelity, time=float(sweep.times[c]) + offset,
                          candidates=candidates)


def prepare_motional_superposition(params: SystemParams, dims: tuple[int, int] = (4, 4),
                                   dissipation: bool = True) -> ProtocolReport:
    """Transfer an ideally prepared (|0> + |1>)/sqrt(2) microwave state onto the
    cooled mechanical mode and report the fidelity to the same superposition."""
    if params.g is None:
        raise ValueError("prepare_motional_superposition needs params.g")
    n_start = params.mechanical_bath()[1] or 0.0
    if n_start >= 0.1:
        raise PreconditionError(
            f"mechanical mode not cooled: steady occupation {n_start:.3g} >= 0.1")

    na, nm = dims
    amps = np.zeros(na, dtype=complex)
    amps[0] = amps[1] = 1.0 / np.sqrt(2)
    phi0 = StateVector(SpaceLayout.single("a", na), amps)
    # during the transfer the cooling drive is off: the mechanical mode sees
    # only its intrinsic damping and the ambient bath, not the engineered gamma'
    kappa = params.kappa if (dissipation and params.kappa) else 0.0
    gamma = params.gamma_m if (dissipation and params.gamma_m) else 0.0
    n_bar = params.n_bar if (dissipation and params.n_bar) else 0.0
    result = transfer_state(phi0, params.g, mech_dim=nm, kappa=kappa, gamma_m=gamma, n_bar=n_bar)
    strong = {
        "g": params.g,
        "n_bar_gamma": (params.n_bar or 0.0) * (params.gamma_m or 0.0),
        "kappa": params.kappa,
        "strong_coupling": bool(
            params.n_bar is not None and params.gamma_m is not None and params.kappa is not None
            and params.g > params.n_bar * params.gamma_m and params.g > params.kappa),
    }
    return ProtocolReport(
        scenario="superpose",
        segments=({"label": "ideal microwave superposition", "duration": 0.0},
                  {"label": "beamsplitter transfer", "duration": result.time}),
        final_fidelity=result.fidelity,
        details={"transfer_time": result.time, "candidates": result.candidates,
                 "strong_coupling_check": strong},
    )


def prepare_entangled_lc() -> StateVector:
    """Ideal shared resource (|0>|1> + |1>|0>)/sqrt(2) on the microwave mode
    ``a1`` and the remote mechanical mode ``a_m2``."""
    layout = SpaceLayout.of(("a1", 2), ("a_m2", 2))
    v = np.zeros(4, dtype=complex)
    v[1] = v[2] = 1.0 / np.sqrt(2)
    return StateVector(layout, v)


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def cphase(g: float, delta_disp: float) -> FockOperator:
    """Conditional-phase unitary between the qubit microwave mode ``a1`` and
    the qubit mechanical mode ``a_m1``.

    Evolves the number-number coupling (g^2/delta) n1 nm, the dispersive limit
    of the detuned exchange, for t = pi delta / g^2, which imparts exactly -1
    on |11>.  The detuned exchange itself is no substitute: it is quadratic,
    so its evolution is Gaussian and imparts no conditional phase.  A
    nonlinear element is needed; with a two-level microwave element the shift
    of |11> doubles to 2 g^2/delta (acceptance criterion 4 checks both).
    """
    if delta_disp == 0:
        raise ValueError("cphase undefined at delta = 0")
    layout = SpaceLayout.of(("a1", 2), ("a_m1", 2))
    t = np.pi * delta_disp / g ** 2
    h = build_dispersive(g, delta_disp, layout)
    return FockOperator(layout, expm(-1j * h.matrix * t))


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def bell_measure(layout: SpaceLayout, factor: np.ndarray, pair: tuple[str, str],
                 rng: Optional[np.random.Generator], force: Optional[str]
                 ) -> tuple[str, SpaceLayout, np.ndarray]:
    """:data:`~cryomech.gates.BELL_CIRCUIT` (CPHASE, then a Hadamard on each
    mode) on the qubit block of the pair, then a projective
    computational-basis measurement of both modes, on the state
    rho = V V^dag given as its factor V (``layout.dim`` rows, one column per
    pure component).

    Both modes must hold the state in their {|0>, |1>} qubit block: more than
    1e-9 of the population above it raises :class:`PreconditionError`.  Every
    column collapses on the same outcome, so the Born probability of a
    branch is the squared norm of its whole block.  The outcome is sampled
    from those probabilities with ``rng``; ``force`` replays a chosen branch
    instead, and a branch of zero probability raises :class:`ConfigError`.
    Returns (bits, the remaining layout with the measured modes projected
    out, the normalized collapsed factor on it).
    """
    i0, i1 = layout.index(pair[0]), layout.index(pair[1])
    t = np.moveaxis(factor.reshape(layout.dims + (-1,)), (i0, i1), (0, 1))
    block = t[:2, :2]
    leak = float(np.linalg.norm(t) ** 2 - np.linalg.norm(block) ** 2)
    if leak > 1e-9:
        raise PreconditionError(
            f"bell measurement needs {pair[0]!r} and {pair[1]!r} confined to their "
            f"qubit subspace; leakage {leak:.3g} exceeds 1e-9")
    # row 2 b0 + b1 of the circuit's output is branch b0 b1, one column per
    # component of the remaining modes
    rows = BELL_CIRCUIT @ block.reshape(4, -1)
    branches = {f"{r >> 1}{r & 1}": rows[r].reshape(-1, t.shape[-1]) for r in range(4)}
    probs = {key: float(np.linalg.norm(branch) ** 2) for key, branch in branches.items()}

    if force is not None:
        if force not in probs:
            raise ValueError(f"outcome must be one of {sorted(probs)}, got {force!r}")
        if probs[force] < 1e-12:
            raise ConfigError(f"branch {force} has probability {probs[force]:.3g}; cannot replay")
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


def _require_normalized(alpha: complex, beta: complex) -> None:
    """Raise :class:`ConfigError` unless |alpha|^2 + |beta|^2 is 1 within 1e-9."""
    try:
        norm = abs(alpha) ** 2 + abs(beta) ** 2
    except OverflowError:  # a float's square overflows with an exception
        norm = np.inf
    if abs(norm - 1.0) > 1e-9:
        raise ConfigError(f"alpha and beta must be normalized, got "
                          f"|alpha|^2 + |beta|^2 = {norm:.12g}")


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

    Amplitudes with |alpha|^2 + |beta|^2 off 1 by more than 1e-9, and a
    forced branch of zero probability, raise :class:`ConfigError`.
    """
    _require_normalized(alpha, beta)
    if not 0.0 <= resource_damping <= 1.0:
        raise ValueError(f"resource_damping must lie in [0, 1], got {resource_damping}")
    rng = np.random.default_rng(seed)

    layout = SpaceLayout.of(("a_m1", 2), ("a1", 2), ("a_m2", 2))
    pair = ("a_m1", "a1")
    target = np.array([alpha, beta], dtype=complex)
    resource = prepare_entangled_lc().amplitudes
    kraus = _amplitude_damping_kraus(resource_damping)
    factor = np.kron(target[:, None],
                     np.column_stack([np.kron(k1, k2) @ resource for k1 in kraus for k2 in kraus]))

    bits, _, collapsed = bell_measure(layout, factor, pair, rng, force_branch)
    out = CORRECTION_GATES[CORRECTION_TABLE[bits]] @ collapsed
    if resource_damping > 0.0:
        details = {"resource_damping": resource_damping}
    else:
        # checkpoint: state after the conditional phase, before the Hadamards
        # (bell_measure applies the full CPHASE + Hadamard circuit itself)
        mid = np.kron(CPHASE, I2) @ factor
        ref = checkpoint_state(alpha, beta).amplitudes
        details = {
            "checkpoint_fidelity": float(np.linalg.norm(ref.conj() @ mid) ** 2),
            "output_amplitudes": [out[0, 0], out[1, 0]],
            "amplitude_exact": bool(phases_equal(target, out[:, 0])),
        }
    return ProtocolReport(
        scenario="teleport-motional",
        segments=_teleport_segments(),
        final_fidelity=float(np.linalg.norm(target.conj() @ out) ** 2),
        measurement_record=tuple(int(b) for b in bits),
        correction_applied=CORRECTION_TABLE[bits],
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


def esr_spectrum(sweep: str, values: Sequence[float],
                response: Sequence[float]) -> EsrSpectrum:
    """Assemble a swept response into a spectrum: the resolution is the largest
    abscissa step, and the peaks are the values at the response's peaks whose
    prominence is at least 10 % of the response span (none when the span is 0).

    A peak is a strict local maximum that is not an endpoint; a flat top counts
    once, at its lower middle index, and only if both of its sides fall.  Its
    prominence is its value less the higher of two minima, each taken over the
    samples from the peak outward up to the first strictly higher sample or the
    end.  These are the peaks of ``scipy.signal.find_peaks(response,
    prominence=0.1 * span)``, found by :func:`_prominent_peaks`.
    """
    values = np.asarray(values, dtype=float)
    response = np.asarray(response)
    resolution = float(np.max(np.abs(np.diff(values)))) if len(values) > 1 else 0.0
    span = response.max() - response.min()
    if span > 0:
        peaks = tuple(float(values[i]) for i in _prominent_peaks(response, 0.1 * span))
    else:
        peaks = ()
    return EsrSpectrum(sweep=sweep, values=values, response=response,
                       peaks=peaks, resolution=resolution)


def _prominent_peaks(x: Sequence[float], threshold: float) -> list[int]:
    """Indices of the peaks of ``x`` whose prominence is at least ``threshold``,
    by the rule of :func:`esr_spectrum`; the indices of
    ``scipy.signal.find_peaks(x, prominence=threshold)``, whose import would
    load ``scipy.stats``, ``scipy.ndimage`` and ``scipy.interpolate``."""
    x = np.asarray(x, dtype=float).tolist()
    tops, i = [], 1
    while i < len(x) - 1:
        if x[i - 1] < x[i]:
            ahead = i + 1
            while ahead < len(x) - 1 and x[ahead] == x[i]:
                ahead += 1
            if x[ahead] < x[i]:
                tops.append((i + ahead - 1) // 2)
                i = ahead
        i += 1

    def base(run: list[float]) -> float:
        # the minimum from the peak run[0] outward, up to the first higher sample
        return min(takewhile(lambda v: v <= run[0], run))

    return [p for p in tops if x[p] - max(base(x[p::-1]), base(x[p:])) >= threshold]


def esr_scan(spin: SpinParams, params: SystemParams, sweep: str,
             values: Sequence[float], mech_dim: int = 8,
             spin_decay: Optional[float] = None,
             spin_dephasing: Optional[float] = None) -> EsrSpectrum:
    """Steady-state response of the damped mechanical mode as the spin drive is
    swept, either over the detuning or over the Rabi frequency.

    The ordinate is the phonon emission proxy gamma' <a_m^dag a_m>; peaks mark
    the dressed-splitting resonance with the mechanical frequency.

    The Hamiltonian is affine in the swept value, H = H_0 + (v/2) sigma with
    sigma = sigma_z for ``Delta_e`` and sigma_x for ``Omega_d_prime``, so the
    model is built once at v = 0, and :func:`~cryomech.lindblad.steady_states`
    solves every point from its generator L_0 + v L_sigma with all of
    :func:`~cryomech.lindblad.steady_state`'s checks; a point that fails one
    raises with its value named.  <n_m> is read from each state of the stack.
    The swept field of ``spin`` must be unset (``None``), since the scan
    sets it itself, and every value must be finite (a sweep whose grid
    overflowed is not), or :class:`ConfigError` is raised; the other field
    defaults to 0.
    """
    if sweep not in ("Delta_e", "Omega_d_prime"):
        raise ValueError("sweep must be 'Delta_e' or 'Omega_d_prime'")
    if getattr(spin, sweep) is not None:
        raise ConfigError(f"esr-scan sweeps {sweep} from start to stop; "
                          f"remove the {sweep} key")
    if not np.isfinite(values).all():
        raise ConfigError(f"esr-scan: the swept {sweep} values are not all finite (the "
                          f"grid from start to stop overflowed): {np.asarray(values).tolist()}")
    if params.omega_m is None or spin.lam is None:
        raise ValueError("esr_scan needs params.omega_m and spin.lam")
    if not spin.lam < params.omega_m / 10.0:
        raise PreconditionError(
            f"dispersive treatment needs lam < omega_m/10; got lam = {spin.lam:.3g} "
            f"and omega_m = {params.omega_m:.3g}")
    gamma_p, n_th = params.mechanical_bath()
    if gamma_p is None or gamma_p <= 0:
        raise ValueError("esr_scan needs a positive mechanical damping rate")
    n_th = n_th or 0.0
    decay = DEFAULT_SPIN_RATE if spin_decay is None else spin_decay
    dephase = DEFAULT_SPIN_RATE if spin_dephasing is None else spin_dephasing

    layout = SpaceLayout.of(("a_m", mech_dim), ("spin", 2, "spin-half"))
    b = embed(annihilation(mech_dim, "a_m"), layout, "a_m")
    n_op = embed(number(mech_dim), layout, "a_m")
    sminus = embed(FockOperator(SpaceLayout.single("spin", 2, "spin-half"),
                                np.array([[0, 0], [1, 0]], dtype=complex)),
                   layout, "spin")
    sz = embed(pauli("z"), layout, "spin")

    diss = thermal_dissipators(b, gamma_p, n_th)
    if decay > 0:
        diss = diss + (Dissipator(sminus, decay),)
    if dephase > 0:
        diss = diss + (Dissipator(sz, dephase),)

    # H = H_0 + (v/2) sigma with H_0 at the swept value 0
    if sweep == "Delta_e":
        base = SpinParams(lam=spin.lam, Delta_e=0.0, Omega_d_prime=spin.Omega_d_prime or 0.0)
        sigma = sz
    else:
        base = SpinParams(lam=spin.lam, Delta_e=spin.Delta_e or 0.0, Omega_d_prime=0.0)
        sigma = embed(pauli("x"), layout, "spin")
    model = LindbladModel(build_spin_mech(params, base, layout), diss)
    response = [gamma_p * float(np.real(np.trace(n_op.matrix @ rho)))
                for rho in steady_states(model, 0.5 * sigma, values)]
    return esr_spectrum(sweep, values, response)


# ---------------------------------------------------------------------------
# Spin-phonon swap and spin teleportation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwapResult:
    fidelity: float
    time: float
    strong_coupling: Optional[bool] = None


def _swap_pieces(lambda_rate: float, phonon_dim: int, gamma_prime: float = 0.0,
                 n_bar_prime: float = 0.0
                 ) -> tuple[LindbladModel, float, dict[str, np.ndarray]]:
    """Exchange model, half-Rabi swap time and per-direction phase
    corrections, in closed form; rejects lam <= 0, and raises
    :class:`PreconditionError` for a rate so slow that t_swap is not a float
    or so fast that it underflows to 0.

    The model is the exchange Hamiltonian under a thermal mechanical bath
    (``gamma_prime``, ``n_bar_prime``).  In the dressed basis
    sigma_z + i sigma_y = 2|e><g|, so the exchange
    H = 2 lam (|e><g| a_m + h.c.) couples |g,n> to |e,n-1> at 2 lam sqrt(n)
    and leaves |g,0> alone.  At t_swap = pi / (2 * JC_LADDER_SCALE * lam),
    at every phonon truncation, the pair |e,0>, |g,1> swaps with a phase -i
    in each direction.  The forward correction i^n on the mechanical Fock
    ladder makes |e,0> -> |g,1> exact; the backward correction i on the
    dressed excited spin state does the same for |g,1> -> |e,0>.  Both are
    diagonal phase gates applied after the (possibly dissipative) evolution.

    Returns (model, t_swap, {direction: correction}), the argument
    :func:`_swap_channel` takes; one build serves every swap of a run.
    """
    if not lambda_rate > 0:
        raise ValueError(f"lambda_rate must be positive, got {lambda_rate}")
    t_swap = np.pi / (2.0 * JC_LADDER_SCALE * lambda_rate)
    if not 0.0 < t_swap < np.inf:
        pace, size = ("slow", "large") if t_swap else ("fast", "small")
        raise PreconditionError(f"lambda_rate = {lambda_rate!r} is too {pace}: its swap "
                                f"time is too {size} for a float")
    layout = SpaceLayout.of(("a_m", phonon_dim), ("spin", 2, "spin-half"))
    b = embed(annihilation(phonon_dim, "a_m"), layout, "a_m")
    model = LindbladModel(build_jc(lambda_rate, layout),
                          thermal_dissipators(b, gamma_prime, n_bar_prime))
    c_fwd = np.kron(np.diag(1j ** np.arange(phonon_dim)), np.eye(2, dtype=complex))
    p_e = np.outer(DRESSED_EXCITED, DRESSED_EXCITED.conj())
    c_bwd = np.kron(np.eye(phonon_dim, dtype=complex), np.eye(2) + (1j - 1) * p_e)
    return model, t_swap, {"spin->mech": c_fwd, "mech->spin": c_bwd}


def spin_mech_swap(lambda_rate: float,
                   input_amplitudes: tuple[complex, complex] = None,
                   n_bar_gamma: Optional[float] = None) -> SwapResult:
    """Swap a qubit from the dressed electron spin onto the mechanical mode,
    truncated at 3 phonon levels.

    The input runs through the undamped :func:`_swap_channel`, the exchange
    of the resonantly dressed spin (Delta_e = 0, |Omega_d'| = omega_m) that
    :func:`~cryomech.model.build_jc` writes.  The strong coupling predicate
    lambda > n_bar gamma' is logged when the rate is given.
    """
    phonon_dim = 3
    swap = _swap_pieces(lambda_rate, phonon_dim)
    strong = None if n_bar_gamma is None else bool(lambda_rate > n_bar_gamma)

    if input_amplitudes is None:
        input_amplitudes = (1.0 / np.sqrt(2), 1.0 / np.sqrt(2))
    alpha, beta = input_amplitudes
    rho = DensityMatrix.from_state(_spin_qubit_state(alpha, beta, phonon_dim))
    out = _swap_channel(rho, "spin->mech", swap)
    q = _received_qubit(out, "spin->mech")
    fid = float(_qubit_fidelity_up_to_phase(q[0, 0], q[1, 1], q[0, 1], alpha, beta))
    return SwapResult(fidelity=fid, time=swap[1], strong_coupling=strong)


def _received_qubit(rho: DensityMatrix, direction: str) -> np.ndarray:
    """Reduced state of the side a swap writes to; the spin in the dressed basis."""
    if direction == "spin->mech":
        return partial_trace(rho, {"a_m"}).matrix
    basis = np.column_stack([DRESSED_GROUND, DRESSED_EXCITED])
    return basis.conj().T @ partial_trace(rho, {"spin"}).matrix @ basis


def _spin_qubit_state(alpha, beta, phonon_dim) -> StateVector:
    spin = StateVector(SpaceLayout.single("spin", 2, "spin-half"),
                       alpha * DRESSED_GROUND + beta * DRESSED_EXCITED)
    return kron_states(vacuum(SpaceLayout.single("a_m", phonon_dim)), spin)


def _swap_channel(rho: DensityMatrix, direction: str,
                  swap: tuple[LindbladModel, float, dict[str, np.ndarray]]) -> DensityMatrix:
    """The one spin-phonon swap: the exchange model of ``swap`` (as built by
    :func:`_swap_pieces`) evolved for t_swap, then the phase correction of
    ``direction``.  With an undamped model it is the exact closed swap."""
    model, t_swap, corrections = swap
    final = evolve(model, rho, t_swap, num_samples=2, truncation_threshold=1.0).final()
    c = corrections[direction]
    return DensityMatrix(rho.layout, c @ final @ c.conj().T)


def teleport_spin(alpha: complex, beta: complex, seed: Optional[int] = None,
                  force_branch: Optional[str] = None, phonon_dim: int = 3,
                  lambda_rate: float = 1.0, gamma_prime: float = 0.0,
                  n_bar_prime: float = 0.0,
                  n_bar_gamma: Optional[float] = None) -> ProtocolReport:
    """End-to-end spin-state teleportation: swap the dressed spin qubit of
    system 1 onto its mechanical mode, teleport the motional qubit to system 2,
    swap it back onto the remote spin.

    A density matrix runs through both swap legs as Lindblad evolutions under
    mechanical damping ``gamma_prime`` (:func:`_swap_channel`), and the ideal
    motional teleportation between them is the identity channel.  With
    ``gamma_prime > 0`` the reported fidelity degrades accordingly, and no
    branch is measured, so ``force_branch`` raises :class:`ConfigError`; at
    ``gamma_prime = 0`` the legs are exact swaps, and the motional hop is run
    through :func:`teleport_motional` for its measurement record.
    """
    _require_normalized(alpha, beta)
    if gamma_prime > 0.0 and force_branch is not None:
        raise ConfigError("teleport-spin with gamma_prime > 0 runs the motional hop as "
                          "the ideal identity channel, which measures no branch; "
                          "remove force_branch or set gamma_prime = 0")
    if n_bar_prime < 0:
        raise ValueError(f"n_bar_prime must be nonnegative, got {n_bar_prime}")
    swap = _swap_pieces(lambda_rate, phonon_dim, gamma_prime, n_bar_prime)
    t_swap = swap[1]
    strong = None if n_bar_gamma is None else bool(lambda_rate > n_bar_gamma)

    rho0 = DensityMatrix.from_state(_spin_qubit_state(alpha, beta, phonon_dim))
    rho1 = _swap_channel(rho0, "spin->mech", swap)
    rho_m = _received_qubit(rho1, "spin->mech")
    spin_ground = np.outer(DRESSED_GROUND, DRESSED_GROUND.conj())
    rho2 = DensityMatrix(rho1.layout, np.kron(rho_m, spin_ground))
    rho_d = _received_qubit(_swap_channel(rho2, "mech->spin", swap), "mech->spin")
    target = np.array([alpha, beta], dtype=complex)
    fid = float(np.real(np.vdot(target, rho_d @ target)))

    if gamma_prime > 0.0:
        middle = ({"label": "ideal motional teleport", "duration": 0.0},)
        record, correction = (), None
        details = {"gamma_prime": gamma_prime, "lambda": lambda_rate,
                   "strong_coupling": strong}
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
        details = {"strong_coupling": strong,
                   "motional_checkpoint_fidelity": tele.details["checkpoint_fidelity"]}
    return ProtocolReport(
        scenario="teleport-spin",
        segments=({"label": "jc-swap[spin->mech]", "duration": t_swap}, *middle,
                  {"label": "jc-swap[mech->spin]", "duration": t_swap}),
        final_fidelity=fid,
        measurement_record=record,
        correction_applied=correction,
        seed=seed,
        details=details,
    )
