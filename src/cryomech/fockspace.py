"""Truncated Fock-space and spin-1/2 operator algebra on labelled tensor factors.

Every state and operator carries a :class:`SpaceLayout` describing the ordered
tensor factors it lives on.  Subsystem ordering in tensor products is the
declaration order of the layout.  All values are immutable after construction.

The invariants of a density matrix are read in one place,
:meth:`VecBlock.check`, from the entries of column-stacked matrices at a set
of vec indices outside which every entry is exactly 0: all n^2 of them for a
:class:`DensityMatrix`, the reachable block for the samples of an evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Iterable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import TruncationError

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


def are_hermitian(matrices: np.ndarray) -> np.ndarray:
    """Whether each finite matrix of a stack (k, n, n) is hermitian within
    ``HERMITIAN_OP_TOL`` relative to its Frobenius norm.

    The norms are taken of each matrix scaled by the power of two that
    brings its largest entry into [1/2, 1), which is exact and keeps them
    from overflowing (or underflowing) for any finite entries; a zero matrix
    stays 0 and is hermitian.
    """
    e = -np.frexp(np.abs(matrices).max(axis=(1, 2)))[1][:, None, None]
    m = np.ldexp(matrices.real, e) + 1j * np.ldexp(matrices.imag, e)
    return (np.linalg.norm(m - m.conj().swapaxes(1, 2), axis=(1, 2))
            <= HERMITIAN_OP_TOL * np.linalg.norm(m, axis=(1, 2)))


def _frozen_array(value) -> np.ndarray:
    arr = np.array(value, dtype=complex)
    arr.setflags(write=False)
    return arr


def _require_same_layout(a, b):
    if a.layout != b.layout:
        raise LayoutMismatchError(f"layouts differ: {a.layout.labels} vs {b.layout.labels}")


@dataclass(frozen=True)
class FockOperator:
    """Complex square matrix acting on the Hilbert space of a layout.  A sum
    or multiple that overflows holds inf or nan, without a warning."""

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
        """Hermitian within ``HERMITIAN_OP_TOL`` relative to the Frobenius
        norm (:func:`are_hermitian`)."""
        return bool(are_hermitian(self.matrix[None])[0])

    # -- arithmetic -------------------------------------------------------

    @np.errstate(over="ignore", invalid="ignore")
    def __add__(self, other: "FockOperator") -> "FockOperator":
        _require_same_layout(self, other)
        return FockOperator(self.layout, self.matrix + other.matrix)

    @np.errstate(over="ignore", invalid="ignore")
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
        full_block(self.layout).check(m.T.reshape(1, -1), self.trace_tol, self.herm_tol,
                                      self.pos_tol)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_state(cls, psi: StateVector) -> "DensityMatrix":
        v = psi.amplitudes
        return cls(psi.layout, np.outer(v, v.conj()))


class VecBlock:
    """Column-stacked density matrices rho on ``layout`` given by their
    entries at ``indices``, sorted vec indices b = j n + i of rho_ij outside
    which every entry is exactly 0, and the index maps from which
    :meth:`check` reads the invariants of a stack of them.

    Basis states i and j are joined when an index holds rho_ij or rho_ji.
    rho is then block-diagonal on the connected components, and so are
    rho^dag, rho - rho^dag and the hermitian part: the norms sum over the
    components, and the spectrum is the union of theirs.  The components
    come from the indices alone, never from the entries' values, by one
    graph search for every index set, all n^2 indices (one component of all
    n states) included.
    """

    def __init__(self, layout: SpaceLayout, indices: np.ndarray):
        n = layout.dim
        self.layout, self.indices = layout, indices
        rows, cols = indices % n, indices // n
        # per mode of :func:`top_level_population`, the positions in
        # ``indices`` of the diagonal entries of its two top levels
        diagonal = np.flatnonzero(rows == cols)
        levels = np.indices(layout.dims).reshape(len(layout.dims), n)[:, rows[diagonal]]
        self._top = {sub.label: diagonal[levels[i] >= sub.dim - 2]
                     for i, sub in enumerate(layout.subsystems)
                     if sub.kind == BOSONIC and sub.dim > 2}
        # the components in runs of equal size k, each run a (components, k,
        # k) stack of the positions in ``indices`` of their entries, and
        # where an index holds each (None: everywhere; elsewhere it is 0)
        graph = sp.csr_array((np.ones(indices.size), (rows, cols)), shape=(n, n))
        labels = connected_components(graph, directed=True, connection="weak")[1]
        sizes = np.bincount(labels)
        order = np.argsort(sizes[labels] * n + labels, kind="stable")
        self._components = []
        for k in np.unique(sizes[labels]):
            members = order[sizes[labels[order]] == k].reshape(-1, k)
            wanted = members[:, None, :] * n + members[:, :, None]
            at = np.minimum(np.searchsorted(indices, wanted), indices.size - 1)
            present = indices[at] == wanted
            self._components.append((at, None if present.all() else present))

    def _invariants(self, entries: np.ndarray) -> tuple[np.ndarray, ...]:
        """The trace, ||rho||_F^2, ||rho - rho^dag||_F^2 and the smallest
        eigenvalue of the hermitian part (rho + rho^dag) / 2 of each row's
        matrix, summed or minimized over the components: elementwise products
        and sums (no BLAS) and one batched ``eigvalsh`` per component size."""
        parts = []
        for at, present in self._components:
            # x[s, c, a, b] is rho_ab of row s on the states a, b of component c
            x = entries[:, at]
            if present is not None:
                x *= present
            xc = x.conj()
            xh = xc.swapaxes(-1, -2)
            d = x - xh
            w = np.linalg.eigvalsh(0.5 * (x + xh))
            parts.append((np.add.reduce(x.diagonal(0, -2, -1), axis=(1, 2)),
                          np.add.reduce((x * xc).real, axis=(1, 2, 3)),
                          np.add.reduce((d * d.conj()).real, axis=(1, 2, 3)),
                          np.minimum.reduce(w.reshape(w.shape[0], -1), axis=1)))
        tr, norm2, skew2, lows = zip(*parts)
        return sum(tr), sum(norm2), sum(skew2), np.minimum.reduce(lows)

    def top_levels(self, entries: np.ndarray) -> dict[str, np.ndarray]:
        """:func:`top_level_population` of each row's matrix, one array of
        rows per mode."""
        return {label: entries[:, at].real.sum(axis=1) for label, at in self._top.items()}

    def fault(self, entries: np.ndarray, trace_tol: float, herm_tol: float, pos_tol: float,
              truncation_threshold: Optional[float] = None
              ) -> Optional[tuple[int, Exception]]:
        """The first row of ``entries`` (rows, indices.size) whose matrix
        breaks an invariant, and the error for its first broken invariant in
        the order trace, hermiticity, positivity, truncation; None where
        every row holds.

        ``ValueError``: the trace is off 1 by more than ``trace_tol``;
        ||rho - rho^dag||_F exceeds ``herm_tol`` ||rho||_F; the hermitian
        part has an eigenvalue below ``-pos_tol``.  :class:`TruncationError`:
        the two top levels of a mode (:func:`top_level_population`) hold
        more than ``truncation_threshold``, when one is given.
        """
        traces, norm2, skew2, lows = (a.tolist() for a in self._invariants(entries))
        tops = ({} if truncation_threshold is None else
                {label: pop.tolist() for label, pop in self.top_levels(entries).items()})
        for j in range(entries.shape[0]):
            # each test is "not within", so a nan fails it
            if not abs(traces[j] - 1.0) <= trace_tol:
                return j, ValueError(f"trace {traces[j]} deviates from 1 beyond {trace_tol}")
            if not math.sqrt(skew2[j]) <= herm_tol * math.sqrt(norm2[j]):  # holds where rho = 0
                return j, ValueError("density matrix is not hermitian within tolerance")
            if not lows[j] >= -pos_tol:
                return j, ValueError(f"density matrix has negative eigenvalue {lows[j]}")
            over = [(label, pop[j]) for label, pop in tops.items()
                    if not pop[j] <= truncation_threshold]
            if over:
                label, pop = over[0]
                return j, TruncationError(
                    f"top two Fock levels of {label!r} hold population {pop:.3g} "
                    f"(threshold {truncation_threshold:.3g}); increase the truncation")
        return None

    def check(self, entries: np.ndarray, trace_tol: float, herm_tol: float, pos_tol: float,
              truncation_threshold: Optional[float] = None):
        """Raise the error of the :meth:`fault` of ``entries``; a row of a
        stack of several is named by its index."""
        found = self.fault(entries, trace_tol, herm_tol, pos_tol, truncation_threshold)
        if found is not None:
            j, fault = found
            if entries.shape[0] > 1:
                fault.args = (f"sample {j}: {fault.args[0]}",)
            raise fault


def vec_block(layout: SpaceLayout, indices: np.ndarray) -> VecBlock:
    """The :class:`VecBlock` of ``layout`` at ``indices``, built once per
    layout and index set, so the models that share both share its graph
    search and index maps.  Its ``indices`` are a read-only int64 copy."""
    return _vec_block(layout, np.asarray(indices, dtype=np.int64).tobytes())


@lru_cache(maxsize=256)
def _vec_block(layout: SpaceLayout, indices: bytes) -> VecBlock:
    return VecBlock(layout, np.frombuffer(indices, dtype=np.int64))


def full_block(layout: SpaceLayout) -> VecBlock:
    """The :func:`vec_block` of all n^2 entries on ``layout``."""
    return vec_block(layout, np.arange(layout.dim ** 2))


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


def number(dim: int) -> FockOperator:
    """Bosonic number operator a^dag a on a mode labelled ``"mode"``;
    :func:`embed` places it on any mode of a layout."""
    return FockOperator(SpaceLayout.single("mode", dim), np.diag(np.arange(dim, dtype=complex)))


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

def vacuum(layout: SpaceLayout) -> StateVector:
    """The product ground state |0 ... 0> of every subsystem of ``layout``."""
    v = np.zeros(layout.dim, dtype=complex)
    v[0] = 1.0
    return StateVector(layout, v)


def kron_states(*states: StateVector) -> StateVector:
    """Tensor product of states on disjoint layouts, in the given order."""
    subs = []
    v = np.array([1.0 + 0j])
    for s in states:
        subs.extend(s.layout.subsystems)
        v = np.kron(v, s.amplitudes)
    return StateVector(SpaceLayout(tuple(subs)), v)


def thermal_state(dim: int, n_bar: float) -> DensityMatrix:
    """Truncated Bose-Einstein thermal state with mean occupation ``n_bar``, on
    a mode labelled ``"mode"``."""
    if n_bar < 0:
        raise ValueError("n_bar must be nonnegative")
    # at n_bar = 0 the powers are 1, 0, 0, ...: the vacuum
    p = (n_bar / (1.0 + n_bar)) ** np.arange(dim)
    p /= p.sum()
    return DensityMatrix(SpaceLayout.single("mode", dim), np.diag(p.astype(complex)))


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


def top_level_population(rho: DensityMatrix) -> dict[str, float]:
    """Population of the two highest Fock levels of each bosonic subsystem of
    more than two levels, summed from the diagonal of ``rho`` (the diagonal of
    each reduced state is a marginal of it)."""
    pops = full_block(rho.layout).top_levels(rho.matrix.T.reshape(1, -1))
    return {label: float(pop[0]) for label, pop in pops.items()}
