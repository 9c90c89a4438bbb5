"""Open-system engine: sparse Lindblad generators, time evolution, steady
states, and adiabatic elimination of the fast microwave mode.

Rate convention: the dissipator is ``D_x rho = 2 x rho x^dag - x^dag x rho
- rho x^dag x`` (note the factor 2), so a rate ``kappa`` attached to a mode's
lowering operator is an *amplitude* decay rate and energy decays at
``2 kappa``.  A thermal bath at occupation ``n_bar`` contributes
``(1 + n_bar) gamma D_a + n_bar gamma D_a^dag``.

The generator is a ``scipy.sparse`` CSR matrix acting on column-stacked
density matrices, and no routine here forms it densely.  Evolution applies
its exponential to the initial state over the whole sample grid at once
(``expm_multiply``, Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011));
the steady state is one sparse LU solve of the generator with one row
replaced by the trace functional.  The dense reference for both lives in
:mod:`cryomech.oracle`.

Trace is never renormalized during integration; trace drift is a measured
error signal checked against the trajectory invariants.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Mapping, Optional

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import LinearOperator, expm_multiply, onenormest, splu
from scipy.sparse.linalg import norm as sparse_norm

from .errors import DegenerateSteadyStateError, PreconditionError, TruncationError
from .fockspace import (
    DensityMatrix,
    FockOperator,
    SpaceLayout,
    annihilation,
    embed,
    top_level_population,
)
from .model import SystemParams, build_beamsplitter

#: Threshold on the reciprocal 1-norm condition number of the trace-bordered
#: generator (see :func:`steady_state`) used to declare the Liouvillian null
#: space one-dimensional.
NULLSPACE_UNIQUE_TOL = 1e-8

#: Relative and absolute tolerances of the ``adaptive`` (RK45) method.
ADAPTIVE_RTOL = 1e-9
ADAPTIVE_ATOL = 1e-11

#: Trace, hermiticity and positivity tolerances of every state :func:`evolve` samples.
SAMPLE_TOLS = {"trace_tol": 1e-8, "herm_tol": 1e-9, "pos_tol": 1e-7}

_METHODS = ("auto", "expm", "adaptive")


@dataclass(frozen=True)
class Dissipator:
    """Jump operator with its (amplitude) rate."""

    operator: FockOperator
    rate: float

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError(f"dissipator rate must be nonnegative, got {self.rate}")


@dataclass(frozen=True)
class LindbladModel:
    hamiltonian: FockOperator
    dissipators: tuple[Dissipator, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "dissipators", tuple(self.dissipators))
        if not self.hamiltonian.is_hermitian(tol=1e-10):
            raise ValueError("model Hamiltonian is not hermitian")
        for d in self.dissipators:
            if d.operator.layout != self.hamiltonian.layout:
                raise ValueError("all operators in a model must share one layout")

    @property
    def layout(self) -> SpaceLayout:
        return self.hamiltonian.layout


@dataclass(frozen=True)
class EvolutionResult:
    times: np.ndarray
    states: tuple[DensityMatrix, ...]
    observables: Mapping[str, np.ndarray]

    def final(self) -> DensityMatrix:
        return self.states[-1]


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
    """
    n = model.layout.dim
    eye = np.eye(n)
    h = model.hamiltonian.matrix
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
    return sp.csr_array((vals, (rows, cols)), shape=(n * n, n * n), dtype=complex)


def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.T.reshape(-1)


def _unvec(v: np.ndarray, n: int) -> np.ndarray:
    return v.reshape(n, n).T


def _check_truncation(rho: DensityMatrix, threshold: float):
    for label, pop in top_level_population(rho).items():
        if pop > threshold:
            raise TruncationError(
                f"top two Fock levels of {label!r} hold population {pop:.3g} "
                f"(threshold {threshold:.3g}); increase the truncation"
            )


@contextmanager
def _pinned_global_rng():
    """Seed NumPy's legacy global generator for the duration of a block and
    restore the caller's stream afterwards.

    ``onenormest`` starts from random sign vectors drawn from that generator;
    ``expm_multiply`` picks its Taylor degree and step count from such
    estimates.  Pinning them makes identical inputs give bit-identical output.
    """
    state = np.random.get_state()
    np.random.seed(0)
    try:
        yield
    finally:
        np.random.set_state(state)


def evolve(model: LindbladModel, rho0: DensityMatrix, duration: float,
           num_samples: int = 51, method: str = "auto",
           observables: Optional[Mapping[str, FockOperator]] = None,
           truncation_threshold: float = 1e-6) -> EvolutionResult:
    """Integrate the master equation and sample the trajectory at
    ``num_samples`` (at least 2) evenly spaced times from 0 to ``duration``.

    ``method`` is ``"expm"`` (the action of the exponential of the sparse
    generator on the initial state, over the whole sample grid in one
    ``expm_multiply`` call), ``"adaptive"`` (RK45 on the vectorized state with
    right-hand side ``L @ y`` and tolerances ``ADAPTIVE_RTOL``/``ADAPTIVE_ATOL``),
    or ``"auto"``, which is ``"expm"`` at every size.  State invariants (trace,
    hermiticity, positivity within ``SAMPLE_TOLS``, truncation headroom) are
    enforced on every sample; violations raise instead of being repaired.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if num_samples < 2:
        raise ValueError(f"num_samples must be at least 2, got {num_samples}")
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    if rho0.layout != model.layout:
        raise ValueError("initial state layout does not match the model")
    n = model.layout.dim
    times = np.linspace(0.0, duration, num_samples)
    L = liouvillian_matrix(model)
    v0 = _vec(rho0.matrix).astype(complex)

    if method == "adaptive":
        sol = solve_ivp(lambda t, y: L @ y, (0.0, duration), v0,
                        t_eval=times, method="RK45", rtol=ADAPTIVE_RTOL,
                        atol=ADAPTIVE_ATOL)
        if not sol.success:
            raise RuntimeError(f"adaptive integration failed: {sol.message}")
        samples = sol.y.T
    else:
        with _pinned_global_rng():
            samples = expm_multiply(L, v0, start=0.0, stop=duration,
                                    num=num_samples, endpoint=True)
    raw_states = [_unvec(v, n) for v in samples]

    states = []
    for m in raw_states:
        rho = DensityMatrix(model.layout, 0.5 * (m + m.conj().T), **SAMPLE_TOLS)
        # hermitization above is cosmetic only; verify the raw drift first
        tr = np.trace(m)
        if abs(tr - 1.0) > rho.trace_tol:
            raise RuntimeError(f"trace drifted to {tr} during integration")
        scale = max(np.linalg.norm(m), 1e-300)
        if np.linalg.norm(m - m.conj().T) > rho.herm_tol * scale:
            raise RuntimeError("hermiticity lost during integration")
        _check_truncation(rho, truncation_threshold)
        states.append(rho)

    obs = {}
    for name, op in (observables or {}).items():
        obs[name] = np.array([np.real(np.trace(op.matrix @ s.matrix)) for s in states])
    return EvolutionResult(times=times, states=tuple(states), observables=obs)


def steady_state(model: LindbladModel) -> DensityMatrix:
    """Unique null vector of the vectorized generator, normalized to trace 1.

    Every generator preserves trace, vec(1)^T L = 0, so the row of L that
    gives d(rho_00)/dt is a combination of the other population rows.  That
    row is replaced by the trace functional (scaled by the largest column
    2-norm of L, a lower bound on ||L||_2) and the bordered system is solved
    with a sparse LU factorization.  The bordered matrix is nonsingular
    exactly when the null space of L is one-dimensional.

    Raises DegenerateSteadyStateError when the factor is exactly singular,
    when the 1-norm condition estimate of the bordered matrix exceeds
    ``1 / NULLSPACE_UNIQUE_TOL`` (e.g. a closed system), or when the residual
    ||L vec(rho)|| exceeds 1e-10 times that norm bound (or 1).
    """
    n = model.layout.dim
    L = liouvillian_matrix(model)
    scale = float(np.sqrt(np.bincount(L.indices, weights=np.abs(L.data) ** 2,
                                      minlength=n * n).max()))
    if scale == 0.0:
        raise DegenerateSteadyStateError("generator vanishes; every state is stationary")
    trace_row = sp.csr_array((np.full(n, scale, dtype=complex),
                              (np.zeros(n, dtype=int), np.arange(n) * (n + 1))),
                             shape=(1, n * n))
    bordered = sp.vstack([trace_row, L[1:]], format="csc")
    try:
        lu = splu(bordered)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise DegenerateSteadyStateError(
            f"steady state is not unique (trace-bordered generator is singular: {exc})"
        ) from exc
    inverse = LinearOperator(bordered.shape, matvec=lu.solve, dtype=complex,
                             rmatvec=lambda y: lu.solve(y, trans="H"))
    with _pinned_global_rng():
        cond = sparse_norm(bordered, 1) * onenormest(inverse)
    if not cond * NULLSPACE_UNIQUE_TOL < 1.0:
        raise DegenerateSteadyStateError(
            f"steady state is not unique (trace-bordered generator has 1-norm "
            f"condition estimate {cond:.3g})")
    rhs = np.zeros(n * n, dtype=complex)
    rhs[0] = scale
    rho = _unvec(lu.solve(rhs), n)
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)
    residual = np.linalg.norm(L @ _vec(rho))
    if residual > 1e-10 * max(scale, 1.0):
        raise DegenerateSteadyStateError(f"null-space residual {residual:.3g} too large")
    return DensityMatrix(model.layout, rho, pos_tol=1e-7)


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
                  layout: SpaceLayout, cavity: str = "a", mech: str = "a_m") -> LindbladModel:
    """Two-mode sideband-cooling master equation: beamsplitter coupling,
    microwave loss on the cavity mode, thermal bath on the mechanical mode."""
    h = build_beamsplitter(g, layout, cavity, mech)
    a = embed(annihilation(layout.subsystem(cavity).dim, cavity), layout, cavity)
    b = embed(annihilation(layout.subsystem(mech).dim, mech), layout, mech)
    diss = (Dissipator(a, kappa),) + thermal_dissipators(b, gamma_m, n_bar)
    return LindbladModel(h, diss)


def eliminated_model(gamma_prime: float, n_bar_prime: float, dim: int,
                     mech: str = "a_m") -> LindbladModel:
    """Single-mode effective cooling model with total damping gamma_prime."""
    b = annihilation(dim, mech)
    h = FockOperator(b.layout, np.zeros((dim, dim), dtype=complex))
    return LindbladModel(h, thermal_dissipators(b, gamma_prime, n_bar_prime))


def adiabatic_eliminate(model: LindbladModel, params: SystemParams,
                        cavity: str = "a", mech: str = "a_m",
                        ratio_error: float = 5.0, ratio_warn: float = 10.0
                        ) -> tuple[LindbladModel, SystemParams]:
    """Remove the fast-decaying microwave mode from a two-mode cooling model.

    Produces the single-mechanical-mode model with engineered damping
    kappa' = g^2 / kappa folded into gamma' = gamma_m + kappa' and
    n_bar' = n_bar gamma_m / gamma'.  Requires kappa / g >= ``ratio_error``
    (warns below ``ratio_warn``).  With g = 0 the mechanical model is
    unchanged and kappa' = 0.
    """
    for name in ("g", "kappa", "gamma_m", "n_bar"):
        if getattr(params, name) is None:
            raise ValueError(f"adiabatic elimination needs params.{name}")
    g, kappa = params.g, params.kappa
    if g > 0:
        if kappa <= 0 or kappa / g < ratio_error:
            raise PreconditionError(
                f"adiabatic elimination needs kappa/g >= {ratio_error}, got "
                f"{kappa / g if g else 'inf'}"
            )
        if kappa / g < ratio_warn:
            warnings.warn(
                f"kappa/g = {kappa / g:.2f} below {ratio_warn}; elimination error ~ (g/kappa)^2",
                stacklevel=2,
            )
    kappa_prime = (g ** 2 / kappa) if g > 0 else 0.0
    gamma_prime = params.gamma_m + kappa_prime
    n_bar_prime = params.n_bar * params.gamma_m / gamma_prime if gamma_prime > 0 else 0.0
    new_params = replace(params, kappa_prime=kappa_prime, gamma_prime=gamma_prime,
                         n_bar_prime=n_bar_prime)
    dim = model.layout.subsystem(mech).dim
    return eliminated_model(gamma_prime, n_bar_prime, dim, mech), new_params
