"""Truncated Fock-space and spin-1/2 operator algebra on labelled tensor factors.

Every state and operator carries a :class:`SpaceLayout` describing the ordered
tensor factors it lives on.  Subsystem ordering in tensor products is the
declaration order of the layout.  All values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Mapping

import numpy as np

BOSONIC = "bosonic"
SPIN_HALF = "spin-half"

# Default numerical tolerances for the value invariants.
HERMITIAN_OP_TOL = 1e-10
STATE_NORM_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-9
DENSITY_HERM_TOL = 1e-10
DENSITY_POS_TOL = 1e-9


class LayoutMismatchError(ValueError):
    """Two values that must share a tensor layout do not."""


@dataclass(frozen=True)
class Subsystem:
    label: str
    dim: int
    kind: str = BOSONIC

    def __post_init__(self):
        if self.kind not in (BOSONIC, SPIN_HALF):
            raise ValueError(f"unknown subsystem kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError(f"subsystem {self.label!r} needs dim >= 1, got {self.dim}")
        if self.kind == SPIN_HALF and self.dim != 2:
            raise ValueError(f"spin-half subsystem {self.label!r} must have dim 2")


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered list of labelled tensor factors."""

    subsystems: tuple[Subsystem, ...]

    def __post_init__(self):
        object.__setattr__(self, "subsystems", tuple(self.subsystems))
        labels = [s.label for s in self.subsystems]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate subsystem labels in {labels}")
        if not self.subsystems:
            raise ValueError("layout needs at least one subsystem")

    @classmethod
    def of(cls, *specs) -> "SpaceLayout":
        """Build a layout from ``(label, dim)`` or ``(label, dim, kind)`` tuples."""
        return cls(tuple(Subsystem(*spec) for spec in specs))

    @classmethod
    def single(cls, label: str, dim: int, kind: str = BOSONIC) -> "SpaceLayout":
        return cls((Subsystem(label, dim, kind),))

    @property
    def dim(self) -> int:
        return prod(s.dim for s in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subsystems)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.subsystems)

    def index(self, label: str) -> int:
        for i, s in enumerate(self.subsystems):
            if s.label == label:
                return i
        raise KeyError(f"no subsystem labelled {label!r} in {self.labels}")

    def subsystem(self, label: str) -> Subsystem:
        return self.subsystems[self.index(label)]


def _frozen_array(value) -> np.ndarray:
    arr = np.array(value, dtype=complex)
    arr.setflags(write=False)
    return arr


def _require_same_layout(a, b):
    if a.layout != b.layout:
        raise LayoutMismatchError(f"layouts differ: {a.layout.labels} vs {b.layout.labels}")


@dataclass(frozen=True)
class FockOperator:
    """Complex square matrix acting on the Hilbert space of a layout."""

    layout: SpaceLayout
    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen_array(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        if m.shape[0] != self.layout.dim:
            raise ValueError(
                f"matrix dim {m.shape[0]} does not match layout dim {self.layout.dim}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dagger(self) -> "FockOperator":
        return FockOperator(self.layout, self.matrix.conj().T)

    def is_hermitian(self) -> bool:
        """Hermitian within ``HERMITIAN_OP_TOL`` relative to the Frobenius norm."""
        scale = np.linalg.norm(self.matrix)
        if scale == 0.0:
            return True
        return np.linalg.norm(self.matrix - self.matrix.conj().T) <= HERMITIAN_OP_TOL * scale

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "FockOperator") -> "FockOperator":
        _require_same_layout(self, other)
        return FockOperator(self.layout, self.matrix + other.matrix)

    def __mul__(self, scalar) -> "FockOperator":
        return FockOperator(self.layout, self.matrix * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        _require_same_layout(self, other)
        return FockOperator(self.layout, self.matrix @ other.matrix)


@dataclass(frozen=True)
class StateVector:
    """Pure state of unit norm within ``STATE_NORM_TOL``."""

    layout: SpaceLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        v = _frozen_array(self.amplitudes)
        if v.ndim != 1 or v.shape[0] != self.layout.dim:
            raise ValueError(
                f"amplitude vector shape {v.shape} does not match layout dim {self.layout.dim}"
            )
        if abs(np.linalg.norm(v) - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state norm {np.linalg.norm(v)} deviates from 1")
        object.__setattr__(self, "amplitudes", v)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state with trace, hermiticity and positivity invariants enforced."""

    layout: SpaceLayout
    matrix: np.ndarray
    trace_tol: float = DENSITY_TRACE_TOL
    herm_tol: float = DENSITY_HERM_TOL
    pos_tol: float = DENSITY_POS_TOL

    def __post_init__(self):
        m = _frozen_array(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != self.layout.dim:
            raise ValueError(
                f"density matrix shape {m.shape} does not match layout dim {self.layout.dim}"
            )
        tr = np.trace(m)
        if abs(tr - 1.0) > self.trace_tol:
            raise ValueError(f"trace {tr} deviates from 1 beyond {self.trace_tol}")
        scale = np.linalg.norm(m)
        if scale > 0 and np.linalg.norm(m - m.conj().T) > self.herm_tol * scale:
            raise ValueError("density matrix is not hermitian within tolerance")
        lo = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())
        if lo < -self.pos_tol:
            raise ValueError(f"density matrix has negative eigenvalue {lo}")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_state(cls, psi: StateVector) -> "DensityMatrix":
        v = psi.amplitudes
        return cls(psi.layout, np.outer(v, v.conj()))


# ---------------------------------------------------------------------------
# Operator constructors
# ---------------------------------------------------------------------------

def annihilation(dim: int, label: str = "mode") -> FockOperator:
    """Bosonic lowering operator: <n-1|a|n> = sqrt(n)."""
    if dim < 2:
        raise ValueError(f"annihilation needs dim >= 2, got {dim}")
    m = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        m[n - 1, n] = np.sqrt(n)
    return FockOperator(SpaceLayout.single(label, dim), m)


def number(dim: int, label: str = "mode") -> FockOperator:
    return FockOperator(SpaceLayout.single(label, dim), np.diag(np.arange(dim, dtype=complex)))


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(axis: str, label: str = "spin") -> FockOperator:
    """Standard 2x2 Pauli matrix on a spin-half subsystem."""
    try:
        m = _PAULI[axis]
    except KeyError:
        raise ValueError(f"pauli axis must be one of x, y, z; got {axis!r}") from None
    return FockOperator(SpaceLayout.single(label, 2, SPIN_HALF), m)


def sigma_pm() -> FockOperator:
    """The ladder combination sigma_z + i sigma_y on the spin ``"spin"``; its
    adjoint is sigma_z - i sigma_y.

    In the sigma_x eigenbasis it acts as a rung operator with matrix element
    2: it maps the +x eigenstate to the -x eigenstate.
    """
    return FockOperator(SpaceLayout.single("spin", 2, SPIN_HALF), _PAULI["z"] + 1j * _PAULI["y"])


def embed(op: FockOperator, layout: SpaceLayout, target: str) -> FockOperator:
    """Lift a single-subsystem operator into a composite layout.

    Acts as identity on every subsystem other than ``target``.
    """
    idx = layout.index(target)
    if op.dim != layout.subsystems[idx].dim:
        raise ValueError(
            f"operator dim {op.dim} does not match subsystem "
            f"{target!r} dim {layout.subsystems[idx].dim}"
        )
    m = np.array([[1.0 + 0j]])
    for i, sub in enumerate(layout.subsystems):
        block = op.matrix if i == idx else np.eye(sub.dim, dtype=complex)
        m = np.kron(m, block)
    return FockOperator(layout, m)


# ---------------------------------------------------------------------------
# State constructors
# ---------------------------------------------------------------------------

def fock_state(layout: SpaceLayout, occupations: Mapping[str, int]) -> StateVector:
    """Product basis state with the given occupation per subsystem (default 0)."""
    index = 0
    for sub in layout.subsystems:
        n = occupations.get(sub.label, 0)
        if not 0 <= n < sub.dim:
            raise ValueError(f"occupation {n} out of range for {sub.label!r} (dim {sub.dim})")
        index = index * sub.dim + n
    v = np.zeros(layout.dim, dtype=complex)
    v[index] = 1.0
    return StateVector(layout, v)


def kron_states(*states: StateVector) -> StateVector:
    """Tensor product of states on disjoint layouts, in the given order."""
    subs = []
    v = np.array([1.0 + 0j])
    for s in states:
        subs.extend(s.layout.subsystems)
        v = np.kron(v, s.amplitudes)
    return StateVector(SpaceLayout(tuple(subs)), v)


def thermal_state(dim: int, n_bar: float, label: str = "mode") -> DensityMatrix:
    """Truncated Bose-Einstein thermal state with mean occupation ``n_bar``."""
    if n_bar < 0:
        raise ValueError("n_bar must be nonnegative")
    if n_bar == 0:
        p = np.zeros(dim)
        p[0] = 1.0
    else:
        p = (n_bar / (1.0 + n_bar)) ** np.arange(dim)
        p /= p.sum()
    return DensityMatrix(SpaceLayout.single(label, dim), np.diag(p.astype(complex)))


# ---------------------------------------------------------------------------
# Reductions and metrics
# ---------------------------------------------------------------------------

def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Reduced density matrix on the kept subsystems (declaration order preserved)."""
    keep = set(keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    unknown = keep - set(rho.layout.labels)
    if unknown:
        raise KeyError(f"unknown labels in keep set: {sorted(unknown)}")

    dims = rho.layout.dims
    n = len(dims)
    t = rho.matrix.reshape(dims + dims)
    row = list(range(n))
    col = list(range(n, 2 * n))
    out = []
    for i, sub in enumerate(rho.layout.subsystems):
        if sub.label in keep:
            out.extend([row[i], col[i]])
        else:
            col[i] = row[i]  # contract this index pair
    reduced = np.einsum(t, row + col, [s for i, s in enumerate(out)])
    kept_subs = tuple(s for s in rho.layout.subsystems if s.label in keep)
    d = prod(s.dim for s in kept_subs)
    # out interleaves (row, col) per kept subsystem; regroup to matrix form
    k = len(kept_subs)
    perm = list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2))
    reduced = reduced.transpose(perm).reshape(d, d)
    return DensityMatrix(SpaceLayout(kept_subs), reduced,
                         trace_tol=rho.trace_tol, herm_tol=rho.herm_tol, pos_tol=rho.pos_tol)


def fidelity(rho: DensityMatrix, psi: StateVector) -> float:
    """Overlap <psi|rho|psi> of a mixed state with a pure reference."""
    _require_same_layout(rho, psi)
    v = psi.amplitudes
    return float(np.real(np.vdot(v, rho.matrix @ v)))


def top_level_population(rho: DensityMatrix) -> dict[str, float]:
    """Population of the two highest Fock levels of each bosonic subsystem of
    more than two levels, summed from the diagonal of ``rho`` (the diagonal of
    each reduced state is a marginal of it)."""
    pops = np.real(np.diag(rho.matrix)).reshape(rho.layout.dims)
    out = {}
    for i, sub in enumerate(rho.layout.subsystems):
        if sub.kind != BOSONIC or sub.dim <= 2:
            continue
        out[sub.label] = float(np.moveaxis(pops, i, 0)[-2:].sum())
    return out
