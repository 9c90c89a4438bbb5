"""Open-system engine: sparse Lindblad generators, time evolution, steady
states, and adiabatic elimination of the fast microwave mode.

Rate convention: the dissipator is ``D_x rho = 2 x rho x^dag - x^dag x rho
- rho x^dag x`` (note the factor 2), so a rate ``kappa`` attached to a mode's
lowering operator is an *amplitude* decay rate and energy decays at
``2 kappa``.  A thermal bath at occupation ``n_bar`` contributes
``(1 + n_bar) gamma D_a + n_bar gamma D_a^dag``.

The generator is a ``scipy.sparse`` CSR matrix acting on column-stacked
density matrices, built once per model (:attr:`LindbladModel.generator`),
and no routine here forms it densely.  Evolution propagates only the block
of the generator reachable from the initial state's support, a block the
generator leaves invariant (the excitation-number symmetry of the cooling
and exchange models keeps it small), cached on the model per support.  One
truncated Taylor series core of fixed degree m and substep count s (Al-Mohy
& Higham, SIAM J. Sci. Comput. 33, 488 (2011)) serves two paths.  The
stepper applies it to the sample vector at every sample step.  The
propagator applies it once to the identity columns at h / 2^k, squares the
result k times (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)) and
multiplies each sample by that P = exp(h L_R).  A count of stored-entry
products and calls on (block size, nnz, steps, m s) picks the path and k:
long runs of small blocks take the propagator, single steps of large
blocks the stepper.  A block that a diagonal gauge S = diag(i^p), p in
{0, 1}, makes real (:func:`_quarter_turns`: the beamsplitter and JC swap
models, whose jumps are real and whose Hamiltonians have no diagonal, and
every real model) runs both paths in float64 on S^-1 (L_R - mu) S.  States
enter that basis and leave it by exact quarter turns, so every sparse
product and sum of the series is the complex one's, a quarter turn apart;
a complex state meets one complex copy of the real P.  Every series
product is a scipy sparse kernel.  The dense BLAS products are the
squaring, cut into tiles of at most 64 (:func:`_tiled_square`) that
OpenBLAS runs on one thread, and each sample's matvec P f, whose bits
OpenBLAS keeps at any thread count (a GEMM of P with several samples
would not); ``tests/test_lindblad.py`` holds both, real and complex.  (m, s) minimise m s under a bound on the step's exact
1-norm.  Around one sample of an evolution, :func:`expectation_series`
gives expectations as the same series in time, so a maximum between
samples needs no further evolution.  The adaptive path, Dormand-Prince's
8(5,3) pair (DOP853) on the full generator (``method="adaptive"``), runs
in no scenario: it is only the second engine path that
:func:`cryomech.oracle.verify_all` checks against its exact exponential.
The steady state is one sparse LU solve of the generator with one row
replaced by the trace functional; its uniqueness test uses Hager's 1-norm
estimate of the inverse.  Neither draws random numbers.  The dense reference for both
lives in :mod:`cryomech.oracle`.  The bordered matrix's CSC structure and
its fill-reducing column order belong to the generator's sparsity pattern
(:class:`_BorderedPattern`, one per steady state or per sweep): one probe
LU takes SuperLU's COLAMD order from the first matrix of a pattern, and
every matrix, the first included, is factored on that order with no
reordering of its own.  One ``SuperLU.solve`` on three columns gives the
steady state and the two fixed vectors of the estimate.  Along a sweep of a Hamiltonian
affine in one value, H + v T, :func:`steady_states` builds L(H) and L_T
once on one sparsity pattern and solves each point from its generator
data d_0 + v d_1, one sum of two data arrays, on that pattern's one
:class:`_BorderedPattern`: each steady state along an ESR scan costs one
LU on the sweep's one column order and no model of its own, and the
sweep's Hamiltonians and states are each checked as one stack.

Trace is never renormalized during integration.  A stiff sample step, whose
rounding loss ||h (L_R - mu)||_1 2^-53 exceeds ``ROUNDOFF_BUDGET``, is
refused before it runs.  Each sample is validated once, as it came out of
the propagator, and never as a whole matrix: one pass of
:meth:`~cryomech.fockspace.VecBlock.check` over the samples' entries on the
reachable block, shape (samples, block size), checks each one's trace,
hermiticity, positivity and truncation headroom with ``SAMPLE_TOLS`` and
the run's threshold, the formulas of :class:`DensityMatrix`.  Positivity is
read component by component: the block joins basis states i and j wherever
it holds rho_ij, every sample is block-diagonal on the connected components,
and the components of one size share one batched ``eigvalsh``.  The first
failing sample raises, with the first invariant it breaks; nothing is
repaired.  The result keeps the validated entries, and
:func:`expectations` reads them without forming a matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.linalg import splu

from .errors import DegenerateSteadyStateError, PreconditionError
from .fockspace import (
    DensityMatrix,
    FockOperator,
    SpaceLayout,
    VecBlock,
    annihilation,
    are_hermitian,
    embed,
    full_block,
    vec_block,
)
from .model import SystemParams, build_beamsplitter

#: Threshold on the reciprocal 1-norm condition number of the trace-bordered
#: generator (see :func:`steady_state`) used to declare the Liouvillian null
#: space one-dimensional.
NULLSPACE_UNIQUE_TOL = 1e-8

#: Relative and absolute tolerances of the ``adaptive`` (DOP853) method.
ADAPTIVE_RTOL = 1e-9
ADAPTIVE_ATOL = 1e-11

#: Trace, hermiticity and positivity tolerances of every state :func:`evolve` samples.
SAMPLE_TOLS = {"trace_tol": 1e-8, "herm_tol": 1e-9, "pos_tol": 1e-7}

#: Trace, hermiticity and positivity tolerances of every steady state.
STEADY_TOLS = {"trace_tol": 1e-9, "herm_tol": 1e-10, "pos_tol": 1e-7}

_METHODS = ("expm", "adaptive")

#: Largest rounding error ||h (L_R - mu I)||_1 2^-53 that :func:`evolve`
#: accepts on its sample step h (so ||h (L_R - mu I)||_1 up to about 9e4),
#: well inside ``SAMPLE_TOLS``.  Composing short steps at the fast time scale
#: into one sample step, by substeps or by squarings, loses about that much.
ROUNDOFF_BUDGET = 1e-11

#: Largest ||A||_1 for which the degree-m Taylor polynomial of exp(A) meets
#: double-precision backward error, theta_m of Al-Mohy & Higham, SIAM J. Sci.
#: Comput. 33, 488 (2011), Table A.3 (m <= 30) and Table 3.1 (m >= 35).
TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}

#: Fixed Python cost of one call (scipy's or numpy's dispatch and the series
#: bookkeeping around it) in stored-entry products, the unit in which
#: :func:`_taylor_path` prices its two paths: about 8 us against about 1 ns
#: per stored entry on a 2-vCPU x86 VM at one BLAS thread.
_CALL_COST = 8000

#: Price of one :func:`_tiled_square` per dim^3, in the same unit, measured
#: once on the same VM at one BLAS thread: a complex squaring takes 1.4 ms at
#: dim 172 and 0.49 ms at dim 124, about a quarter of dim^3 ns (scipy's
#: sparse kernel takes 8.5 and 3.4 ms for the same products).  A gauged
#: block squares in float64 for several times less, but it keeps the complex
#: price, so that no block's (m, s, k) moves with its gauge.
_SQUARE_RATIO = 0.25

#: Largest tile edge of :func:`_tiled_square`.  OpenBLAS runs a GEMM with
#: M N K <= 64^3 on one thread (``tests/test_lindblad.py`` holds the bits).
_TILE = 64


@dataclass(frozen=True)
class Dissipator:
    """Jump operator with its (amplitude) rate."""

    operator: FockOperator
    rate: float

    def __post_init__(self):
        if not self.rate >= 0:  # "not within", so a nan fails it
            raise ValueError(f"dissipator rate must be nonnegative, got {self.rate}")


def _hamiltonian_fault(matrices: np.ndarray) -> Optional[tuple[int, Exception]]:
    """The first matrix of a stack (k, n, n) that is no model Hamiltonian,
    and the error for it: :class:`PreconditionError` for an entry that is
    not finite, else ``ValueError`` where :func:`are_hermitian` fails; None
    where every matrix is one."""
    finite = np.isfinite(matrices).all(axis=(1, 2))
    valid = finite.copy()
    valid[finite] = are_hermitian(matrices[finite])
    if valid.all():
        return None
    j = int(np.argmin(valid))
    if not finite[j]:
        return j, PreconditionError("model Hamiltonian has entries that are not finite: "
                                    "a parameter of the model overflowed")
    return j, ValueError("model Hamiltonian is not hermitian")


@dataclass(frozen=True)
class LindbladModel:
    hamiltonian: FockOperator
    dissipators: tuple[Dissipator, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "dissipators", tuple(self.dissipators))
        if (found := _hamiltonian_fault(self.hamiltonian.matrix[None])) is not None:
            raise found[1]
        for d in self.dissipators:
            if d.operator.layout != self.hamiltonian.layout:
                raise ValueError("all operators in a model must share one layout")

    @property
    def layout(self) -> SpaceLayout:
        return self.hamiltonian.layout

    @cached_property
    def generator(self) -> sp.csr_array:
        """:func:`liouvillian_matrix` of this model, built on first use."""
        return liouvillian_matrix(self)

    @cached_property
    def _blocks(self) -> dict[bytes, tuple[np.ndarray, _TaylorBlock, VecBlock]]:
        return {}

    def reachable_block(self, support: np.ndarray) -> tuple[np.ndarray, _TaylorBlock, VecBlock]:
        """The sorted indices of vec(rho) reachable from ``support`` along the
        generator's sparsity graph (:func:`_reachable`), the generator
        restricted to them as a :class:`_TaylorBlock`, and the
        :class:`~cryomech.fockspace.VecBlock` that validates states on them,
        for every block alike, all n^2 indices included; computed once per
        support, so every evolution from it shares the block's shift, 1-norm,
        gauge and components.  The block is its own reachable set, so it is
        cached under its own indices too.  The checker is
        :func:`~cryomech.fockspace.vec_block`'s, shared by every model on the
        same layout and block."""
        key = support.tobytes()
        if key not in self._blocks:
            L = self.generator
            block = _reachable(L, support)
            entry = (block, _TaylorBlock(L[block[:, None], block]), vec_block(self.layout, block))
            self._blocks[key] = self._blocks.setdefault(block.tobytes(), entry)
        return self._blocks[key]


@dataclass(frozen=True)
class EvolutionResult:
    times: np.ndarray
    #: the entries of vec(rho) at ``block`` of each validated sample, shape
    #: (samples, block size); every other entry of every sample is exactly 0
    samples: np.ndarray
    #: sorted vec indices the evolution ran on: the reachable block of
    #: rho0's support, or all n^2 for adaptive
    block: np.ndarray
    layout: SpaceLayout
    #: ``"stepper"``, ``"propagator"`` or ``"adaptive"``: the path that ran
    path: str
    #: Taylor degree m, substeps s and squarings k of that path; None for adaptive
    schedule: Optional[tuple[int, int, int]]

    def final(self) -> np.ndarray:
        """The last sample's matrix, built from its validated entries: the
        check of :func:`evolve` is its one check."""
        n = self.layout.dim
        v = np.zeros(n * n, dtype=complex)
        v[self.block] = self.samples[-1]
        return _unvec(v, n)


def _kron_nonzeros(a: np.ndarray, b: np.ndarray):
    """Row indices, column indices and values of the nonzeros of kron(a, b)."""
    ia, ja = np.nonzero(a)
    ib, jb = np.nonzero(b)
    nb = b.shape[0]
    rows = (ia[:, None] * nb + ib).ravel()
    cols = (ja[:, None] * nb + jb).ravel()
    return rows, cols, np.multiply.outer(a[ia, ja], b[ib, jb]).ravel()


def liouvillian_matrix(model: LindbladModel) -> sp.csr_array:
    """Column-stacking vectorization of the generator, vec(drho) = L vec(rho),
    as a sparse CSR matrix.

    With vec(A rho B) = kron(B^T, A) vec(rho) and S = sum_k rate_k x_k^dag x_k,
    L = kron(1, -iH - S) + kron((iH - S)^T, 1) + sum_k 2 rate_k kron(conj(x_k), x_k).
    The nonzeros of every term are collected first and summed in one conversion.
    A rate or an energy so large that an entry of L is not finite raises
    :class:`PreconditionError`.
    """
    n = model.layout.dim
    eye = np.eye(n)
    h = model.hamiltonian.matrix
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
        s = np.zeros((n, n), dtype=complex)
        for d in model.dissipators:
            x = d.operator.matrix
            s += d.rate * (x.conj().T @ x)
        terms = [_kron_nonzeros(eye, -1j * h - s), _kron_nonzeros((1j * h - s).T, eye)]
        for d in model.dissipators:
            if d.rate > 0:
                x = d.operator.matrix
                terms.append(_kron_nonzeros(2.0 * d.rate * x.conj(), x))
    rows, cols, vals = (np.concatenate(part) for part in zip(*terms))
    L = sp.csr_array((vals, (rows, cols)), shape=(n * n, n * n), dtype=complex)
    if not np.isfinite(L.data).all():
        raise PreconditionError("a rate or an energy of the model overflowed, so its "
                                "generator is not finite")
    return L


def _union_aligned(A: sp.csr_array, B: sp.csr_array) -> tuple[np.ndarray, ...]:
    """CSR ``indices`` and ``indptr`` of the union of the sparsity patterns of
    A and B, and the data of A and of B on that pattern (0 where one of them
    stores nothing)."""
    def ones(M):
        return sp.csr_array((np.ones(M.nnz), M.indices, M.indptr), shape=M.shape)

    # structural ones add to 1 or 2, so no entry of the union cancels
    union = ones(A) + ones(B)
    union.sum_duplicates()

    def keys(M):
        return np.repeat(np.arange(M.shape[0]), np.diff(M.indptr)) * M.shape[1] + M.indices

    positions = keys(union)
    data = []
    for M in (A, B):
        d = np.zeros(union.nnz, dtype=complex)
        np.add.at(d, np.searchsorted(positions, keys(M)), M.data)
        data.append(d)
    return union.indices, union.indptr, data[0], data[1]


def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.T.reshape(-1)


def _unvec(v: np.ndarray, n: int) -> np.ndarray:
    return v.reshape(n, n).T


def _norm1(columns: np.ndarray, data: np.ndarray, n: int) -> float:
    """Exact 1-norm (largest absolute column sum) of an n-column sparse
    matrix whose stored entries ``data`` sit in ``columns``: a CSR matrix's
    ``indices``, or :attr:`_BorderedPattern.columns` of a CSC one."""
    return float(np.bincount(columns, weights=np.abs(data), minlength=n).max())


def _reachable(L: sp.csr_array, support: np.ndarray) -> np.ndarray:
    """Sorted indices reachable from ``support`` along the sparsity graph of
    ``L``, which has an edge i -> j wherever L[j, i] is stored.  The span of
    their unit vectors is invariant under L."""
    n = L.shape[0]
    # the CSC arrays of L are the CSR arrays of its transpose; an extra node n
    # points at the whole support, so one search covers every start
    csc = L.tocsc()
    indptr = np.append(csc.indptr, csc.indptr[-1] + support.size)
    indices = np.concatenate([csc.indices, support])
    graph = sp.csr_array((np.ones(indices.size), indices, indptr), shape=(n + 1, n + 1))
    order = breadth_first_order(graph, n, directed=True, return_predecessors=False)
    return np.sort(order[1:])


def _quarter_turns(A: sp.csr_array) -> Optional[np.ndarray]:
    """Powers p in {0, 1}^n of a diagonal S = diag(i^p) for which S^-1 A S
    is real, or None where no such S exists.

    A stored entry A_jk becomes i^(p_k - p_j) A_jk, so a real one asks for
    p_j = p_k and an imaginary one for p_j != p_k.  Node j + n q of a doubled
    graph stands for p_j = q; a real entry joins j + n q to k + n q, an
    imaginary one j + n q to k + n (1 - q), and an entry that is 0 joins
    nothing (it becomes a loop on j + n q).  The graph's CSR rows are A's,
    twice over, so it is built with no sort.  S exists exactly when no
    connected component holds both nodes of one j.  A component and its
    mirror image (every q flipped) are both components; of the two, the one
    with the lower label holds the powers.  An entry with both parts
    nonzero, or an imaginary entry on the diagonal, rules S out before any
    graph is built."""
    n, data = A.shape[0], A.data
    if ((data.real != 0) & (data.imag != 0)).any() or A.diagonal().imag.any():
        return None
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    # the neighbour of node j (q = 0) through each entry; that of j + n is n further on
    near = np.where(data == 0, rows, A.indices + n * (data.imag != 0))
    graph = sp.csr_array((np.ones(2 * near.size), np.concatenate([near, (near + n) % (2 * n)]),
                          np.concatenate([A.indptr, A.indptr[1:] + A.indptr[-1]])),
                         shape=(2 * n, 2 * n))
    labels = connected_components(graph, directed=False)[1]
    if (labels[:n] == labels[n:]).any():
        return None
    return (labels[:n] > labels[n:]).astype(int)


class _TaylorBlock:
    """One block A of the generator, shifted to A - mu I with mu = tr(A) / dim,
    in its real gauge where it has one, and the exact 1-norm from which its
    Taylor schedules are chosen (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
    488 (2011)).

    ``step`` is S^-1 (A - mu I) S for the diagonal S = diag(``phases``) of
    :func:`_quarter_turns`, a real matrix with a real ``mu``, where the
    block has such an S: the beamsplitter and JC swap models, whose jumps
    are real and whose Hamiltonians have no diagonal, and every real model.
    Elsewhere ``phases`` is all 1 and ``step`` is A - mu I, complex.  Each
    phase is a power of i, so S^-1 (A - mu I) S holds the values of
    A - mu I exactly, up to a quarter turn each, and the 1-norm, the schedule
    and every price of :func:`_taylor_path` are the same in both bases.
    """

    def __init__(self, A: sp.csr_array):
        self.dim = n = A.shape[0]
        self.mu = A.trace() / n
        step = A - self.mu * sp.eye_array(n, format="csr")
        self.norm1 = _norm1(step.indices, step.data, n)
        powers = _quarter_turns(A)
        if powers is None:
            self.phases = np.ones(n, dtype=complex)
        else:
            self.phases = np.where(powers == 1, 1j, 1.0)
            self.mu = self.mu.real
            # i^t (x + i y) is real: x where t = 0, -t y where t = +-1
            turns = powers[step.indices] - np.repeat(powers, np.diff(step.indptr))
            data = np.where(turns == 0, step.data.real, -turns * step.data.imag)
            step = sp.csr_array((data, step.indices, step.indptr), shape=step.shape)
        self.step = step

    def gauge(self, v: np.ndarray) -> np.ndarray:
        """Rows v of entries on the block in the basis of ``step``, v
        conj(``phases``), exactly: real where ``step`` is real and v has no
        imaginary part left there, complex elsewhere."""
        w = v * self.phases.conj()
        return w.real if np.isrealobj(self.step.data) and not w.imag.any() else w

    def scaled(self, factor: float, data: np.ndarray) -> sp.csr_array:
        """``step`` times ``factor``, in the dtype of its products with
        ``data``: a real step meets complex data as one complex copy, the
        cast scipy would otherwise make on every product, so the products
        keep their bits."""
        step = self.step * factor
        return step.astype(np.result_type(step.dtype, data.dtype), copy=False)

    def schedule(self, h: float) -> tuple[int, int]:
        """Taylor degree m and substep count s for exp(h step): the smallest
        m s, s = ceil(||h step||_1 / theta_m) over ``TAYLOR_THETA``, the
        smaller m on ties (Al-Mohy & Higham, Code Fragment 3.1).  s is at
        least 1, also where the quotient underflows to 0."""
        norm1 = h * self.norm1
        if norm1 == 0.0:
            return 0, 1
        return min(((m, max(1, int(np.ceil(norm1 / theta))))
                    for m, theta in TAYLOR_THETA.items()),
                   key=lambda ms: (ms[0] * ms[1], ms[0]))


def _taylor_series(block: _TaylorBlock, h: float, m: int, s: int, X: np.ndarray) -> np.ndarray:
    """exp(h S^-1 A S) X for the block's A and gauge S (:class:`_TaylorBlock`)
    and a vector or a dense block of columns X, all in the basis of
    ``block.step``: real where the step and X are.

    s substeps, each the degree-m Taylor series of ``step`` h / s times
    exp(mu h / s).  Each substep's series stops once its last two terms fall
    below the unit roundoff relative to the partial sum (Al-Mohy & Higham,
    Algorithm 3.2), both measured by the largest entry, which the gauge
    leaves as it is.  ``step @ b`` is scipy's sparse kernel for either shape,
    so no product here depends on the BLAS thread count.
    """
    step = block.scaled(h / s, X)
    eta = np.exp(block.mu * h / s)
    tol = 2.0 ** -53
    f = X.copy()
    for _ in range(s):
        b = f
        c1 = bound = np.abs(f).max()
        for j in range(1, m + 1):
            b = step @ b
            b *= 1.0 / j
            c2 = np.abs(b).max()
            f += b
            # bound >= ||f||_inf up to rounding, so the exact norm is
            # only taken when the stopping test can pass
            bound += c2
            if c1 + c2 <= tol * bound and c1 + c2 <= tol * np.abs(f).max():
                break
            c1 = c2
        f = eta * f
    return f


def _taylor_path(block: _TaylorBlock, h: float, steps: int) -> tuple[str, tuple[int, int, int]]:
    """The cheaper way to make ``steps`` sample steps of exp(h A), and its
    Taylor degree m, substeps s and squarings k.

    The ``"stepper"`` runs :func:`_taylor_series` on the sample vector at h,
    every step.  The ``"propagator"`` runs it once on the identity columns at
    h / 2^k, squares the result k times and applies it to each sample as one
    matvec, whose bits do not depend on the BLAS thread count (a test holds
    them).  Both are priced from (dim, nnz, steps, m s) in stored-entry
    products plus ``_CALL_COST`` per call.  A series term costs one call,
    nnz per column and four passes over the columns; a squaring
    (:func:`_tiled_square`) four calls and ``_SQUARE_RATIO`` dim^3, a ratio
    measured once and never at run time; a sample product one call and
    dim^2.  A squaring's own fixed cost is nearer one call, but each
    squaring also doubles the rounding error P carries, and four calls keep
    k low on small blocks: at one call the 12-index eliminated ``cool``
    block would take (7, 1, 9) for (16, 1, 4), and its P would be off by
    1.3e-13 against 4.6e-15.  Every k is priced until its squarings and
    sample products alone cost more than the best price so far; the
    cheapest path and k win, the stepper and the smaller k on ties.  The
    rule counts; it never times.
    """
    dim, nnz = block.dim, block.step.nnz
    m, s = block.schedule(h)
    best = (steps * m * s * (_CALL_COST + nnz + 4 * dim), "stepper", (m, s, 0))
    k = 0
    while (fixed := k * (4 * _CALL_COST + _SQUARE_RATIO * dim ** 3)
           + steps * (_CALL_COST + dim ** 2)) < best[0]:
        m, s = block.schedule(h / 2 ** k)
        price = fixed + m * s * (_CALL_COST + dim * (nnz + 4 * dim))
        if price < best[0]:
            best = (price, "propagator", (m, s, k))
        k += 1
    return best[1:]


def _tiled_square(P: np.ndarray) -> np.ndarray:
    """P @ P for a square dense P, with every BLAS product small enough that
    OpenBLAS runs it on one thread, so the bits do not depend on the thread
    count (a whole-matrix product differs at 1 and 2 threads, e.g. at n = 172;
    Demmel & Nguyen, IEEE Trans. Comput. 64, 2060 (2015)).

    P is padded with zeros to q t, q = ceil(n / ``_TILE``) tiles of edge
    t = ceil(n / q) a side; one batched ``np.matmul`` forms all q^3 tile
    products P_il P_lj, and numpy adds the q products of each output tile
    in the order l = 0 .. q - 1, n <= ``_TILE`` included (q = 1).
    """
    n = P.shape[0]
    q = -(-n // _TILE)
    t = -(-n // q)
    padded = np.zeros((q * t, q * t), dtype=P.dtype)
    padded[:n, :n] = P
    tiles = padded.reshape(q, t, q, t).swapaxes(1, 2)
    # products[i, l, j] = P_il @ P_lj
    products = np.matmul(tiles[:, :, None], tiles[None, :, :])
    out = products[:, 0].copy()
    for l in range(1, q):
        out += products[:, l]
    return out.swapaxes(1, 2).reshape(q * t, q * t)[:n, :n]


def _taylor_samples(block: _TaylorBlock, v0: np.ndarray, h: float,
                    steps: int) -> tuple[np.ndarray, str, tuple[int, int, int]]:
    """Rows exp(j h A) v0 for j = 0 .. steps for the block's A, with the path of
    :func:`_taylor_path` that made them and its (m, s, k).  v0 and the rows
    are in the generator's basis; every step between runs in the block's
    gauge, on v0 conj(phases), and the rows come back as rows times phases,
    both exact.

    The propagator is P = exp(h S^-1 A S) from the series at h / 2^k and k
    squarings P <- P P by :func:`_tiled_square` (Higham, SIAM J. Matrix Anal.
    Appl. 26, 1179 (2005)), real where the block's step is, and each sample
    is one matvec P f from the last.  A real P meets a complex f as one
    complex copy, made once, so each step stays one matvec.  Its bits, like
    the stepper's, do not depend on the BLAS thread count (a test holds them).
    """
    path, (m, s, k) = _taylor_path(block, h, steps)
    f = block.gauge(v0)
    if path == "stepper":
        advance = partial(_taylor_series, block, h, m, s)
    else:
        P = _taylor_series(block, h / 2 ** k, m, s, np.eye(block.dim, dtype=block.step.dtype))
        for _ in range(k):
            P = _tiled_square(P)
        advance = partial(np.matmul, P.astype(f.dtype, copy=False))
    out = np.empty((steps + 1, block.dim), dtype=f.dtype)
    out[0] = f
    for j in range(1, steps + 1):
        out[j] = f = advance(f)
    return out * block.phases, path, (m, s, k)


def evolve(model: LindbladModel, rho0: DensityMatrix, duration: float,
           num_samples: int = 51, method: str = "expm",
           truncation_threshold: float = 1e-6) -> EvolutionResult:
    """Integrate the master equation and sample the trajectory at
    ``num_samples`` (at least 2) evenly spaced times from 0 to ``duration``.

    ``method`` is ``"expm"`` (the default), the one propagator every
    scenario runs, or ``"adaptive"``, which only
    :func:`cryomech.oracle.verify_all` runs, as its second engine path.
    ``"expm"`` restricts the generator to the indices reachable from the
    support of vec(rho0) along its sparsity graph, an invariant block
    (:meth:`LindbladModel.reachable_block`); every other entry stays
    exactly 0.  It propagates the block from one sample to the next on the
    stepper or the propagator of :func:`_taylor_samples`, and the result
    records the path and its (m, s, k).
    ``"adaptive"`` is Dormand-Prince's 8(5,3) pair (DOP853; Hairer, Norsett
    & Wanner, Solving ODEs I, II.5) on the full vectorized state with
    right-hand side ``L @ y`` and tolerances ``ADAPTIVE_RTOL``/
    ``ADAPTIVE_ATOL``; its ``scipy.integrate.solve_ivp`` is imported on its
    first call, so a run that never asks for it never loads
    ``scipy.integrate``.

    Before any series runs, ``"expm"`` raises :class:`PreconditionError`
    when the rounding error ||h (L_R - mu I)||_1 2^-53 of the sample step h
    exceeds ``ROUNDOFF_BUDGET``: such a stiff run would lose the trace, or
    worse, keep it and lose the slow dynamics.

    Every sample is validated once, unrepaired, in one pass over the
    entries of all samples on the block (all n^2 for ``"adaptive"``) by
    :meth:`~cryomech.fockspace.VecBlock.check`, the checker of
    :class:`DensityMatrix`, with ``SAMPLE_TOLS``.  Positivity is checked per
    connected component of the basis states that the block joins (i and j
    where it holds rho_ij), exactly the blocks of every sample's block
    diagonal.  The first failing sample raises, with the first invariant it
    breaks in the order trace, hermiticity, positivity (``ValueError``),
    then a top-level population above ``truncation_threshold``
    (:class:`TruncationError`); the message names the sample.
    """
    if not 0.0 < duration < np.inf:
        raise ValueError(f"duration must be positive and finite, got {duration!r}")
    if num_samples < 2:
        raise ValueError(f"num_samples must be at least 2, got {num_samples}")
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    if rho0.layout != model.layout:
        raise ValueError("initial state layout does not match the model")
    times = np.linspace(0.0, duration, num_samples)
    L = model.generator
    v0 = _vec(rho0.matrix).astype(complex)

    if method == "adaptive":
        # imported here: scipy.integrate loads scipy.optimize, and only
        # verify_all runs the adaptive path
        from scipy.integrate import solve_ivp
        sol = solve_ivp(lambda t, y: L @ y, (0.0, duration), v0,
                        t_eval=times, method="DOP853", rtol=ADAPTIVE_RTOL,
                        atol=ADAPTIVE_ATOL)
        if not sol.success:
            raise RuntimeError(f"adaptive integration failed: {sol.message}")
        samples, path, schedule = sol.y.T, method, None
        checks = full_block(model.layout)
        block = checks.indices
    else:
        block, taylor, checks = model.reachable_block(np.flatnonzero(v0))
        h = duration / (num_samples - 1)
        if not h * taylor.norm1 * 2.0 ** -53 <= ROUNDOFF_BUDGET:
            raise PreconditionError(
                f"stiff run: ||h (L - mu)||_1 = {h * taylor.norm1:.3g} on the sample step "
                f"h = {h:.3g}, so its rounding error exceeds {ROUNDOFF_BUDGET:g}")
        samples, path, schedule = _taylor_samples(taylor, v0[block], h, num_samples - 1)
    checks.check(samples, **SAMPLE_TOLS, truncation_threshold=truncation_threshold)
    return EvolutionResult(times=times, samples=samples, block=block, layout=model.layout,
                           path=path, schedule=schedule)


def _entry_weights(block: np.ndarray, operators: Iterable[FockOperator]) -> np.ndarray:
    """One row per operator O, with tr(O rho) the sum of the row times the
    entries of vec(rho) at ``block``, a reachable block outside which they
    are exactly 0."""
    # tr(O rho) = sum_ij O_ij rho_ji, and rho_ji is entry i n + j of vec(rho)
    return np.array([op.matrix.reshape(-1)[block] for op in operators])


def expectations(result: EvolutionResult, operators: Iterable[FockOperator]) -> np.ndarray:
    """tr(O rho_j) for every sample rho_j of ``result`` and each of
    ``operators``, shape (samples, operators).

    Sums of products of the operators' entries with the samples' validated
    entries on the result's block, as :func:`expectation_series` forms them:
    elementwise, no BLAS, and no matrix formed.
    """
    return (result.samples[:, None, :] * _entry_weights(result.block, operators)).sum(axis=2)


@dataclass(frozen=True)
class ExpectationSeries:
    """Expectations tr(O_k rho(t)) of an evolution around one of its samples
    t_c, in pieces: for t = t_c + offsets[i] + x radius with |x| <= 1,
    piece i is exp(rate x) sum_j coeffs[i, k, j] x^j."""

    offsets: np.ndarray
    radius: float
    rate: complex
    coeffs: np.ndarray

    def evaluate(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The expectations and their first and second derivatives in x at x,
        a scalar or an array, each of shape (pieces, operators) + x.shape.
        Horner's rule on every coefficient row at once: elementwise
        products only, no BLAS."""
        x = np.asarray(x, dtype=float)
        a = self.coeffs.reshape(self.coeffs.shape + (1,) * x.ndim)
        p, d1, d2 = a[:, :, -1], 0.0, 0.0
        for j in range(a.shape[2] - 2, -1, -1):
            d2 = d2 * x + d1
            d1 = d1 * x + p
            p = p * x + a[:, :, j]
        e, r = np.exp(self.rate * x), self.rate
        return e * p, e * (r * p + d1), e * (r * r * p + 2.0 * r * d1 + 2.0 * d2)


def expectation_series(model: LindbladModel, result: EvolutionResult, c: int,
                       operators: Iterable[FockOperator]) -> ExpectationSeries:
    """tr(O rho(t)) for each of ``operators`` on [t_c - h, t_c + h], around
    the sample c >= 1 of ``result = evolve(model, ...)`` with sample step h.

    rho(t_c + tau) = exp(tau A) rho(t_c) on the result's block, the cached
    block the evolution ran on.  The Taylor series of exp(tau
    (A - mu)) takes the degree m and substep count s of the block's
    :meth:`~_TaylorBlock.schedule` at h, so the window splits into s pieces
    of radius h / s, each within the same backward-error bound as one
    substep of the evolution.  A single piece is centred on the sample
    itself; s > 1 pieces are centred at the odd multiples of h / s after
    sample c - 1, propagated forward from it by :func:`_taylor_samples`.
    The m matvecs of each piece run in the block's gauge, on the centres
    times conj(phases), and give every expectation's coefficients as sums of
    products with the entries of O times phases, which undo the gauge
    exactly: no dense BLAS product.
    """
    _, taylor, _ = model.reachable_block(result.block)
    h = result.times[-1] / (result.times.size - 1)
    m, s = taylor.schedule(h)
    r = h / s
    if s == 1:
        centres = result.samples[c][None]
    else:
        rows, _, _ = _taylor_samples(taylor, result.samples[c - 1], r, 2 * s)
        centres = rows[1::2]
    X = taylor.gauge(centres).T
    weights = _entry_weights(result.block, operators) * taylor.phases
    step = taylor.scaled(r, X)
    coeffs = np.empty((s, len(weights), m + 1), dtype=complex)
    for j in range(m + 1):
        if j:
            X = step @ X
            X *= 1.0 / j
        coeffs[:, :, j] = (X.T[:, None, :] * weights).sum(axis=2)
    return ExpectationSeries(offsets=(2.0 * np.arange(s) + 1.0 - s) * r, radius=r,
                             rate=taylor.mu * r, coeffs=coeffs)


def _estimate_vectors(dim: int) -> np.ndarray:
    """The two fixed vectors of Hager's estimate in :func:`_inverse_norm1`,
    as the columns of a (dim, 2) array: its start, every entry 1/dim, and
    Higham's alternating probe (1 + i / (dim - 1)) (-1)^i."""
    alternating = (1.0 + np.arange(dim) / max(dim - 1, 1)) * (-1.0) ** np.arange(dim)
    return np.stack([np.full(dim, 1.0 / dim), alternating], axis=1).astype(complex)


class _BorderedPattern:
    """The trace-bordered matrix B of :func:`steady_state` for every generator
    of an ``n``-level model on one CSR sparsity pattern (``indptr``,
    ``indices``), with its columns in one fill-reducing order.

    B is the generator with its first row replaced by the trace functional,
    whose entries sit at the vec positions of rho_ii.  The pattern holds the
    CSC ``indices`` and ``indptr`` of B[:, order], and a gather map that takes
    the generator's CSR data, followed by the trace row's one value, to that
    CSC data.  ``order`` is SuperLU's own COLAMD column order (Davis,
    Gilbert, Larimore & Ng, ACM TOMS 30, 353 (2004)), taken from one probe
    factorization of the first matrix the pattern sees; it depends on the
    pattern alone, so every later matrix reuses it.  The probe's factor is
    never used: factored on the natural order, where SuperLU switches to its
    symmetric mode, the same matrix comes out with other last bits, so every
    matrix, the first one included, is factored on B[:, order].  Every
    factorization, the probe included, takes SuperLU's panels one column wide
    (``panel_size=1``): the fill is the same as with its default panels, and
    on these generators the LU is faster.  ``columns`` holds the column of
    each stored entry of B[:, order], from which :func:`_norm1` takes its
    1-norm, and ``estimate_vectors`` the :func:`_estimate_vectors` of its
    size.
    """

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n, self.dim = n, n * n
        self._index_dtype = indices.dtype
        rest = indptr[1]
        # the entries of B in CSR order: the trace row, then rows 1.. of the
        # generator, each with its position in (generator data, trace value)
        self._rows = np.concatenate([np.zeros(n, dtype=int),
                                     np.repeat(np.arange(1, self.dim), np.diff(indptr[1:]))])
        self._cols = np.concatenate([np.arange(n) * (n + 1), indices[rest:]])
        self._source = np.concatenate([np.full(n, indptr[-1]), np.arange(rest, indptr[-1])])
        self.estimate_vectors = _estimate_vectors(self.dim)
        self.order: Optional[np.ndarray] = None

    def _csc(self, rank: np.ndarray) -> tuple[np.ndarray, ...]:
        """Gather map, ``indices`` and ``indptr`` of the CSC matrix whose column
        ``rank[j]`` is column j of B."""
        col = rank[self._cols]
        entries = np.lexsort((self._rows, col))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(col, minlength=self.dim))])
        return (self._source[entries], self._rows[entries].astype(self._index_dtype),
                indptr.astype(self._index_dtype))

    def matrix(self, data: np.ndarray, trace_value: float) -> sp.csc_array:
        """B[:, order] as a CSC matrix, for a generator's CSR ``data`` on this
        pattern and the trace row's ``trace_value``: one matrix held by the
        pattern, whose data every call overwrites.  The first call takes
        ``order`` from its probe factorization, which raises SuperLU's
        ``RuntimeError`` where B is exactly singular; the next call probes
        again."""
        source = np.append(data, trace_value)
        if self.order is None:
            shape = (self.dim, self.dim)
            gather, indices, indptr = self._csc(np.arange(self.dim))
            perm_c = splu(sp.csc_array((source[gather], indices, indptr), shape=shape),
                          panel_size=1).perm_c
            # column perm_c[j] of B Pc is column j of B
            self._gather, indices, indptr = self._csc(perm_c)
            self._matrix = sp.csc_array((source[self._gather], indices, indptr), shape=shape)
            self.columns = np.repeat(np.arange(self.dim), np.diff(indptr))
            self.order = np.argsort(perm_c)
        np.take(source, self._gather, out=self._matrix.data)
        return self._matrix


def _inverse_norm1(lu, start: np.ndarray, alternating: np.ndarray) -> float:
    """Hager's estimate of ||B^-1||_1 from a sparse LU factorization of B,
    following LAPACK's ZLACN2 (Hager, SIAM J. Sci. Stat. Comput. 5, 311
    (1984); Higham, ACM TOMS 14, 381 (1988)).

    ``start`` and ``alternating`` are B^-1 times the two columns of
    :func:`_estimate_vectors`, which do not depend on the iteration, so the
    caller solves them in one call with its own right-hand side; the
    iteration between them solves with B and B^H.  Each candidate is
    ||B^-1 x||_1 / ||x||_1 for an explicit x, so the estimate never exceeds
    the true norm; it draws no random numbers.  A solve past the float
    range gives inf.
    """
    tiny = np.finfo(float).tiny
    dim = start.size

    def finite(y):
        if not np.isfinite(y).all():
            raise FloatingPointError
        return y

    def sign(y):
        a = np.abs(y)
        return np.where(a > tiny, y / np.maximum(a, tiny), 1.0)

    try:
        y = finite(start)
        if dim == 1:
            return float(abs(y[0]))
        est = np.abs(y).sum()
        j = int(np.argmax(np.abs(finite(lu.solve(sign(y), trans="H")))))
        for iteration in range(2, 6):
            unit = np.zeros(dim, dtype=complex)
            unit[j] = 1.0
            y = finite(lu.solve(unit))
            est_old, est = est, np.abs(y).sum()
            if est <= est_old:
                break
            z = np.abs(finite(lu.solve(sign(y), trans="H")))
            j_last, j = j, int(np.argmax(z))
            if z[j_last] == z[j] or iteration == 5:
                break
        probe = 2.0 * np.abs(finite(alternating)).sum() / (3 * dim)
    except FloatingPointError:
        return np.inf
    return float(max(est, probe))


def _steady_vector(L: sp.csr_array, pattern: _BorderedPattern) -> np.ndarray:
    """vec(rho) of the unique steady state of the generator ``L``, on the
    sparsity pattern of ``pattern``, at trace 1: the core of
    :func:`steady_state` and :func:`steady_states`, which documents its
    method and runs every check but the state's own, left to the caller.

    One ``SuperLU.solve`` takes the right-hand side scale e_0 and the two
    :func:`_estimate_vectors` as three columns; each column comes out with
    the bits of its own solve (a test holds them).
    """
    dim = L.shape[0]
    with np.errstate(over="ignore"):  # refused below, by name
        scale = float(np.sqrt(np.bincount(L.indices, weights=np.abs(L.data) ** 2,
                                          minlength=dim).max()))
    if not np.isfinite(scale):
        raise PreconditionError(f"cannot solve for the steady state: the generator's "
                                f"largest column 2-norm overflowed ({scale!r})")
    if scale == 0.0:
        raise DegenerateSteadyStateError("generator vanishes; every state is stationary")
    try:
        bordered = pattern.matrix(L.data, scale)
        lu = splu(bordered, permc_spec="NATURAL", panel_size=1)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise DegenerateSteadyStateError(
            f"steady state is not unique (trace-bordered generator is singular: {exc})"
        ) from exc
    rhs = np.zeros((dim, 3), dtype=complex)
    rhs[0, 0] = scale
    rhs[:, 1:] = pattern.estimate_vectors
    y = lu.solve(rhs)
    cond = _norm1(pattern.columns, bordered.data, dim) * _inverse_norm1(lu, y[:, 1], y[:, 2])
    if not cond * NULLSPACE_UNIQUE_TOL < 1.0:
        raise DegenerateSteadyStateError(
            f"steady state is not unique (trace-bordered generator has 1-norm "
            f"condition estimate {cond:.3g})")
    x = np.empty(dim, dtype=complex)
    x[pattern.order] = y[:, 0]
    # the trace is the sum of the entries at the vec positions of rho_ii
    with np.errstate(invalid="ignore"):  # a nan is refused below, by name
        x = x / x[::pattern.n + 1].sum()
    residual = np.linalg.norm(L @ x)
    if not residual <= 1e-10 * max(scale, 1.0):
        raise DegenerateSteadyStateError(f"null-space residual {residual:.3g} too large")
    return x


def steady_state(model: LindbladModel) -> DensityMatrix:
    """Unique null vector of the vectorized generator, normalized to trace 1.

    Every generator preserves trace, vec(1)^T L = 0, so the row of L that
    gives d(rho_00)/dt is a combination of the other population rows.  That
    row is replaced by the trace functional (scaled by the largest column
    2-norm of L, a lower bound on ||L||_2) and the bordered system B x = e_0
    is solved with a sparse LU factorization.  The bordered matrix is
    nonsingular exactly when the null space of L is one-dimensional.

    A :class:`_BorderedPattern` of the generator's sparsity pattern, built
    as :func:`steady_states` builds its one, gathers B[:, order] straight
    into CSC form, with ``order`` SuperLU's COLAMD order from one probe LU
    of that generator.  SuperLU factors B[:, order] on the natural order,
    with its default partial pivoting and panels one column wide, and
    x[order] = y undoes the permutation.  B[:, order]^-1 is B^-1 with its
    rows permuted, so the condition estimate below is that of B.  The solve
    for x and the two fixed solves of that estimate are one call on three
    columns.

    Raises DegenerateSteadyStateError when the factor is exactly singular,
    when the 1-norm condition estimate of the bordered matrix (its exact
    1-norm times Hager's deterministic estimate of the inverse's) exceeds
    ``1 / NULLSPACE_UNIQUE_TOL`` (e.g. a closed system), or when the residual
    ||L vec(rho)|| is not within 1e-10 times that norm bound (or 1), nan
    included.  Raises PreconditionError when that scale is not finite: an
    entry of the generator, or its column 2-norm, overflowed.  The state is
    a :class:`DensityMatrix` with ``STEADY_TOLS``.  :func:`steady_states`
    runs the same core along a sweep.
    """
    L, n = model.generator, model.layout.dim
    rho = _unvec(_steady_vector(L, _BorderedPattern(n, L.indptr, L.indices)), n)
    return DensityMatrix(model.layout, rho, **STEADY_TOLS)


def steady_states(model: LindbladModel, term: FockOperator,
                  values: Sequence[float]) -> np.ndarray:
    """The steady state of ``LindbladModel(H + v term, dissipators)`` of
    ``model`` at each real, finite v of ``values``, as one stack of matrices
    (points, n, n).

    The generator is affine in the Hamiltonian: L(H + v T) = L(H) + v L_T,
    with L_T the generator of the Hamiltonian-only ``LindbladModel(term)``.
    Both are built once and aligned once on the union of their sparsity
    patterns.  Every point is solved by :func:`steady_state`'s core from its
    data d_0 + v d_1 on the union's one :class:`_BorderedPattern`: one
    COLAMD order for the sweep, one LU per point, and no model per point.

    Every point keeps every check of :func:`steady_state`.  H + v T is
    checked for all points as one stack, as ``LindbladModel`` checks its
    Hamiltonian (:class:`PreconditionError` where an entry is not finite,
    ``ValueError`` where it is not hermitian), and the states as one stack
    by :meth:`~cryomech.fockspace.VecBlock.fault` with ``STEADY_TOLS``.  The
    first point, in the order of ``values``, that fails a check raises that
    check's error, its message naming the point's value, so a sweep split
    into chunks names the same point.  ``values`` that are not real or not
    finite raise ``ValueError``.
    """
    values = np.asarray(values)
    if values.ndim != 1 or values.dtype.kind not in "iuf" or not np.isfinite(values).all():
        raise ValueError(f"swept values must be real and finite, got {values.tolist()!r}")
    points = values.tolist()
    n = model.layout.dim
    L0 = model.generator
    indices, indptr, d0, d1 = _union_aligned(L0, LindbladModel(term).generator)
    pattern = _BorderedPattern(n, indptr, indices)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
        hamiltonians = model.hamiltonian.matrix + values[:, None, None] * term.matrix
    stop, fault = _hamiltonian_fault(hamiltonians) or (len(points), None)
    stack = np.empty((stop, n * n), dtype=complex)
    # one generator on the shared index arrays, whose data each point overwrites
    generator = sp.csr_array((d0.copy(), indices, indptr), shape=L0.shape)
    for j in range(stop):
        with np.errstate(over="ignore", invalid="ignore"):  # refused by the core, by name
            np.add(d0, points[j] * d1, out=generator.data)
        try:
            stack[j] = _steady_vector(generator, pattern)
        except (PreconditionError, DegenerateSteadyStateError) as exc:
            stop, fault = j, exc
            break
    # a state that breaks an invariant at an earlier point comes first
    if stop and (found := full_block(model.layout).fault(stack[:stop], **STEADY_TOLS)):
        stop, fault = found
    if fault is not None:
        fault.args = (f"at swept value {points[stop]!r}: {fault.args[0]}",)
        raise fault
    return stack.reshape(-1, n, n).swapaxes(1, 2)


# ---------------------------------------------------------------------------
# Model builders
# ---------------------------------------------------------------------------

def thermal_dissipators(mode: FockOperator, gamma: float, n_bar: float) -> tuple[Dissipator, ...]:
    """(1 + n_bar) gamma D_a and n_bar gamma D_a^dag on the given lowering operator."""
    out = [Dissipator(mode, (1.0 + n_bar) * gamma)]
    if n_bar > 0:
        out.append(Dissipator(mode.dagger(), n_bar * gamma))
    return tuple(out)


def cooling_model(g: float, kappa: float, gamma_m: float, n_bar: float,
                  layout: SpaceLayout) -> LindbladModel:
    """Two-mode sideband-cooling master equation: beamsplitter coupling,
    microwave loss on the cavity mode ``a``, thermal bath on the mechanical
    mode ``a_m``."""
    h = build_beamsplitter(g, layout)
    a = embed(annihilation(layout.subsystem("a").dim, "a"), layout, "a")
    b = embed(annihilation(layout.subsystem("a_m").dim, "a_m"), layout, "a_m")
    diss = (Dissipator(a, kappa),) + thermal_dissipators(b, gamma_m, n_bar)
    return LindbladModel(h, diss)


def eliminated_model(gamma_prime: float, n_bar_prime: float, dim: int) -> LindbladModel:
    """Single-mode effective cooling model of the mechanical mode ``a_m``
    with total damping gamma_prime."""
    b = annihilation(dim, "a_m")
    h = FockOperator(b.layout, np.zeros((dim, dim), dtype=complex))
    return LindbladModel(h, thermal_dissipators(b, gamma_prime, n_bar_prime))


def adiabatic_eliminate(params: SystemParams, dim: int) -> LindbladModel:
    """The sideband-cooling model with the fast-decaying microwave mode ``a``
    removed: the mechanical mode ``a_m`` (``dim`` levels) alone, damped to
    the bath of :meth:`SystemParams.mechanical_bath`, gamma' = gamma_m +
    kappa' at the occupation n_bar'.

    Requires kappa / g >= 5, and warns below 10, where the (g / kappa)^2
    elimination error exceeds 1 %.  Where kappa' = g^2 / kappa is zero or
    undefined (g = 0) the cavity takes nothing out, and the model is the
    bare mechanical one at gamma_m and n_bar.
    """
    for name in ("g", "kappa", "gamma_m", "n_bar"):
        if getattr(params, name) is None:
            raise ValueError(f"adiabatic elimination needs params.{name}")
    g, kappa = params.g, params.kappa
    if g > 0:
        if kappa <= 0 or kappa / g < 5.0:
            raise PreconditionError(
                f"adiabatic elimination needs kappa/g >= 5.0, got {kappa / g}")
        if kappa / g < 10.0:
            warnings.warn(
                f"kappa/g = {kappa / g:.2f} below 10.0; elimination error ~ (g/kappa)^2",
                stacklevel=2,
            )
    return eliminated_model(*params.mechanical_bath(), dim)
