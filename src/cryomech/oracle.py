"""Independent brute-force verification layer.

Everything here is deliberately naive and shares only the operator algebra
with the engine: unitary evolution goes through a dense eigendecomposition,
open-system evolution through a hand-rolled scaling-and-squaring exponential
of a dense generator built column by column from the operator-form master
equation (no Kronecker formula, so a vectorization slip in the engine's
sparse generator cannot recur here), and the teleportation circuit is
checked by exhaustive enumeration of outcome branches and basis inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .errors import VerificationError
from .fockspace import DensityMatrix, FockOperator, SpaceLayout, StateVector, annihilation
from .gates import BELL_CIRCUIT, CORRECTION_GATES, CORRECTION_TABLE, phases_equal
from .lindblad import Dissipator, LindbladModel, evolve, steady_state, thermal_dissipators

UNITARY_DIM_CAP = 4096
#: Practical cap for the dense superoperator exponential (the generator is
#: dim^2 x dim^2, so memory and cubic cost bound this well below the engine's
#: reach).
LIOUVILLE_DIM_CAP = 64


@dataclass(frozen=True)
class OracleReport:
    quantity: str
    engine_value: object
    oracle_value: object
    metric: str
    distance: float
    tolerance: float

    def __post_init__(self):
        if self.distance < 0:
            raise ValueError("distance must be nonnegative")

    @property
    def passed(self) -> bool:
        return self.distance <= self.tolerance


# ---------------------------------------------------------------------------
# Exact propagators
# ---------------------------------------------------------------------------

def exact_unitary_evolve(h: FockOperator, psi0: StateVector, t: float) -> StateVector:
    """e^{-i H t} psi0 via dense eigendecomposition of the hermitian generator."""
    if h.dim > UNITARY_DIM_CAP:
        raise ValueError(f"dimension {h.dim} exceeds the oracle cap {UNITARY_DIM_CAP}")
    if h.layout != psi0.layout:
        raise ValueError("Hamiltonian and state layouts differ")
    if not h.is_hermitian():
        raise ValueError("generator is not hermitian")
    w, v = np.linalg.eigh(h.matrix)
    amps = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0.amplitudes))
    err = abs(np.linalg.norm(amps) - 1.0)
    if err > 1e-11:
        raise VerificationError(f"unitarity error {err:.3g} exceeds 1e-11")
    return StateVector(psi0.layout, amps)


def _expm_taylor(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor exponential (independent of scipy.linalg.expm)."""
    norm = np.linalg.norm(a, 1)
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0.5 else 0
    x = a / (2 ** squarings)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 60):
        term = term @ x / k
        out = out + term
        if np.linalg.norm(term, 1) < 1e-18 * max(np.linalg.norm(out, 1), 1.0):
            break
    for _ in range(squarings):
        out = out @ out
    return out


def exact_liouville_evolve(model: LindbladModel, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """Exponential of the vectorized generator applied to the vectorized state."""
    n = model.layout.dim
    if n > LIOUVILLE_DIM_CAP:
        raise ValueError(f"dimension {n} exceeds the oracle cap {LIOUVILLE_DIM_CAP}")
    if rho0.layout != model.layout:
        raise ValueError("state layout does not match the model")
    L = _build_liouvillian(model)
    v = rho0.matrix.T.reshape(-1)
    vt = _expm_taylor(L * t) @ v
    return DensityMatrix(model.layout, vt.reshape(n, n).T,
                         trace_tol=1e-8, herm_tol=1e-8, pos_tol=1e-7)


def lindblad_rhs(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """Time derivative -i[H, rho] + sum_k rate_k D_{x_k} rho of one density
    matrix or of a stack of them (leading axes are batch axes)."""
    h = model.hamiltonian.matrix
    if rho.shape[-2:] != h.shape:
        raise ValueError(f"state shape {rho.shape} does not match model dim {h.shape[0]}")
    out = -1j * (h @ rho - rho @ h)
    for d in model.dissipators:
        x = d.operator.matrix
        xd = x.conj().T
        xdx = xd @ x
        out += d.rate * (2.0 * (x @ rho @ xd) - xdx @ rho - rho @ xdx)
    return out


def _build_liouvillian(model: LindbladModel) -> np.ndarray:
    """Dense column-stacking generator: column k is vec(lindblad_rhs(E_k)) for
    the k-th column-stacked basis matrix E_k (vec(E_k) is the k-th unit vector)."""
    n = model.layout.dim
    basis = np.eye(n * n, dtype=complex).reshape(n * n, n, n).transpose(0, 2, 1)
    return lindblad_rhs(model, basis).transpose(0, 2, 1).reshape(n * n, n * n).T


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _as_matrix(state) -> np.ndarray:
    """Accept either a DensityMatrix or a bare matrix."""
    return state.matrix if isinstance(state, DensityMatrix) else np.asarray(state, complex)


def _check_layouts(rho, sigma):
    if isinstance(rho, DensityMatrix) and isinstance(sigma, DensityMatrix):
        if rho.layout != sigma.layout:
            raise ValueError("layout mismatch")


def trace_distance(rho, sigma) -> float:
    _check_layouts(rho, sigma)
    diff = _as_matrix(rho) - _as_matrix(sigma)
    w = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return float(0.5 * np.abs(w).sum())


def state_fidelity(rho, sigma) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    _check_layouts(rho, sigma)
    rho, sigma = _as_matrix(rho), _as_matrix(sigma)
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    sqrt_rho = (v * np.sqrt(w)) @ v.conj().T
    inner = sqrt_rho @ sigma @ sqrt_rho
    ev = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    f = np.sqrt(np.clip(ev, 0.0, None)).sum() ** 2
    return float(min(max(f, 0.0), 1.0))


# ---------------------------------------------------------------------------
# Teleportation circuit verification
# ---------------------------------------------------------------------------

_BASIS_INPUTS = {
    "|0>": np.array([1.0, 0.0], dtype=complex),
    "|1>": np.array([0.0, 1.0], dtype=complex),
    "|+>": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2),
    "|+i>": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2),
}

DEFAULT_RESOURCE = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2)


def verify_teleportation(bell_circuit: Optional[np.ndarray] = None,
                         resource: Optional[np.ndarray] = None
                         ) -> tuple[OracleReport, Optional[dict[str, str]]]:
    """Exhaustively check the qubit-level teleportation circuit and the
    engine's correction table, :data:`cryomech.gates.CORRECTION_TABLE`.

    ``bell_circuit`` defaults to :data:`cryomech.gates.BELL_CIRCUIT`, the
    circuit :func:`cryomech.protocols.bell_measure` applies; another 4x4
    matrix tests a corrupted or alternative circuit.  Enumerates the 4
    measurement branches for the inputs |0>, |1>, |+>, |+i> and searches for
    the unique local correction (a Pauli, possibly composed with a Hadamard)
    that restores the input on every branch.  The report passes when that
    search derives a total table equal to the engine's; its ``engine_value``
    is the engine's table as text.  Returns the report and the derived
    table, outcome to gate name (None when no consistent table exists).
    """
    circuit = BELL_CIRCUIT if bell_circuit is None else np.asarray(bell_circuit, complex)
    res = DEFAULT_RESOURCE if resource is None else np.asarray(resource, complex)
    if circuit.shape != (4, 4):
        raise ValueError("bell_circuit must be 4x4 (input qubit x resource qubit 1)")

    mapping = {}
    consistent = True
    for branch, (b0, b1) in enumerate(product((0, 1), repeat=2)):
        outcome = f"{b0}{b1}"
        candidates = []
        for gate_name, gate in CORRECTION_GATES.items():
            ok = True
            for psi_in in _BASIS_INPUTS.values():
                # full state on (input, r1, r2); circuit acts on (input, r1)
                full = np.kron(psi_in, res)
                full = np.kron(circuit, np.eye(2)) @ full
                # project qubits 0 and 1 onto the outcome bits
                t = full.reshape(2, 2, 2)
                out_state = t[b0, b1, :]
                if np.linalg.norm(out_state) < 1e-12:
                    ok = False
                    break
                out_state = gate @ (out_state / np.linalg.norm(out_state))
                if not phases_equal(psi_in, out_state):
                    ok = False
                    break
            if ok:
                candidates.append(gate_name)
        if len(candidates) != 1:
            consistent = False
            break
        mapping[outcome] = candidates[0]

    derived = mapping if consistent and len(mapping) == 4 else None
    report = OracleReport(
        quantity="teleportation correction table",
        engine_value=str(dict(CORRECTION_TABLE)),
        oracle_value="unique total table",
        metric="branch consistency",
        distance=0.0 if derived == CORRECTION_TABLE else 1.0,
        tolerance=0.0,
    )
    return report, derived


# ---------------------------------------------------------------------------
# Batch verification
# ---------------------------------------------------------------------------

def _random_model(rng: np.random.Generator, layout: SpaceLayout,
                  n_diss: int = 2) -> LindbladModel:
    n = layout.dim
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = FockOperator(layout, 0.5 * (m + m.conj().T))
    diss = []
    for _ in range(n_diss):
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        x /= np.linalg.norm(x)
        diss.append(Dissipator(FockOperator(layout, x), float(rng.uniform(0.05, 0.5))))
    return LindbladModel(h, tuple(diss))


def _random_density(rng: np.random.Generator, layout: SpaceLayout) -> DensityMatrix:
    n = layout.dim
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(layout, rho)


def verify_all(seed: int = 0, instances: int = 20) -> list[OracleReport]:
    """Randomized oracle-vs-engine agreement suite.

    Covers open-system evolution, steady states, closed-system consistency of
    the two oracle propagators, metric inequalities, and the teleportation
    table.  Any report failing its tolerance means the build is broken.
    """
    rng = np.random.default_rng(seed)
    reports: list[OracleReport] = []

    # engine evolve vs exact superoperator exponential
    for k in range(instances):
        layout = SpaceLayout.single("m", int(rng.integers(2, 5)))
        model = _random_model(rng, layout)
        rho0 = _random_density(rng, layout)
        t = float(rng.uniform(0.2, 2.0))
        method = "adaptive" if k % 2 else "expm"
        final = evolve(model, rho0, t, num_samples=5, method=method,
                       truncation_threshold=1.1).final()
        ref = exact_liouville_evolve(model, rho0, t)
        reports.append(OracleReport(
            quantity=f"evolve[{method}] vs exact exponential #{k}",
            engine_value=None, oracle_value=None,
            metric="trace_distance", distance=trace_distance(final, ref),
            tolerance=1e-6))

    # engine steady state vs long-time exact evolution and generator residual
    for k in range(5):
        layout = SpaceLayout.single("m", 4)
        nbar = float(rng.uniform(0.0, 1.0))
        gamma = float(rng.uniform(0.3, 1.0))
        a = annihilation(4, "m")
        h = FockOperator(a.layout, np.diag(rng.uniform(0, 1, 4)).astype(complex))
        model = LindbladModel(h, thermal_dissipators(a, gamma, nbar))
        ss = steady_state(model)
        ref = exact_liouville_evolve(model, _random_density(rng, layout), 60.0 / gamma)
        reports.append(OracleReport(
            quantity=f"steady state vs long-time limit #{k}",
            engine_value=None, oracle_value=None,
            metric="trace_distance", distance=trace_distance(ss, ref),
            tolerance=1e-6))

    # oracle self-consistency: closed-system superoperator equals lifted unitary
    for k in range(5):
        layout = SpaceLayout.single("m", 3)
        model = _random_model(rng, layout, n_diss=0)
        # unused draw: keeps the seeded stream that the verify-all reference pins
        _random_density(rng, layout)
        # use a pure state for the unitary reference
        vec = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi0 = StateVector(layout, vec / np.linalg.norm(vec))
        t = float(rng.uniform(0.2, 1.5))
        lifted = exact_liouville_evolve(model, DensityMatrix.from_state(psi0), t)
        unit = exact_unitary_evolve(model.hamiltonian, psi0, t)
        reports.append(OracleReport(
            quantity=f"superoperator vs unitary lift #{k}",
            engine_value=None, oracle_value=None,
            metric="trace_distance",
            distance=trace_distance(lifted, DensityMatrix.from_state(unit)),
            tolerance=1e-10))

    # Fuchs-van de Graaff inequalities on random pairs
    worst = 0.0
    layout = SpaceLayout.single("m", 4)
    for _ in range(100):
        r, s = _random_density(rng, layout), _random_density(rng, layout)
        d = trace_distance(r, s)
        f = state_fidelity(r, s)
        lo, hi = 1.0 - np.sqrt(f), np.sqrt(1.0 - f)
        worst = max(worst, lo - d, d - hi)
    reports.append(OracleReport(
        quantity="Fuchs-van de Graaff bounds (100 random pairs)",
        engine_value=None, oracle_value=None,
        metric="max bound violation", distance=max(worst, 0.0), tolerance=1e-9))

    tele_report, _ = verify_teleportation()
    reports.append(tele_report)
    return reports
