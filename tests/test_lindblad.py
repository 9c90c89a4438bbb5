"""Tests for the master-equation engine: generators, evolution, steady
states and adiabatic elimination."""

import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm
from scipy.sparse.linalg import splu

import cryomech
from cryomech import lindblad, protocols
from cryomech.errors import (
    DegenerateSteadyStateError,
    PreconditionError,
    TruncationError,
)
from cryomech.fockspace import (
    DensityMatrix,
    FockOperator,
    SpaceLayout,
    VecBlock,
    annihilation,
    embed,
    number,
    pauli,
    thermal_state,
    top_level_population,
)
from cryomech.lindblad import (
    Dissipator,
    LindbladModel,
    _estimate_vectors,
    _inverse_norm1,
    _union_aligned,
    adiabatic_eliminate,
    cooling_model,
    eliminated_model,
    evolve,
    liouvillian_matrix,
    steady_state,
    steady_states,
    thermal_dissipators,
)
from cryomech.model import SpinParams, SystemParams, build_spin_mech
from cryomech.oracle import _build_liouvillian, _random_density, _random_model, trace_distance
from cryomech.protocols import sideband_cool

from basis import ESR_SWEEP_CONF, SolveSpy, fock_state, sample_matrices


def damped_mode(dim=6, kappa=0.5, n_bar=0.0):
    a = annihilation(dim, "m")
    h = FockOperator(a.layout, np.zeros((dim, dim), dtype=complex))
    return LindbladModel(h, thermal_dissipators(a, kappa, n_bar))


def _mean(op, res):
    """<op> in every sample of an evolution."""
    return np.array([np.real(np.trace(op.matrix @ m)) for m in sample_matrices(res)])


def _random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


def _random_h_mode(gamma, dim=4, seed=7):
    """A mode with a random Hamiltonian and zero-temperature damping gamma."""
    a = annihilation(dim, "m")
    h = FockOperator(a.layout, _random_hermitian(np.random.default_rng(seed), dim))
    return LindbladModel(h, (Dissipator(a, gamma),))


def _uniqueness_model(build):
    """Models whose generator has more than one (near-)null direction."""
    rng = np.random.default_rng(3)
    if build == "closed_diagonal":
        lay = SpaceLayout.single("m", 4)
        return LindbladModel(FockOperator(lay, np.diag([0.0, 0.7, 1.3, 2.9]).astype(complex)))
    if build == "closed_random":
        lay = SpaceLayout.single("m", 4)
        return LindbladModel(FockOperator(lay, _random_hermitian(rng, 4)))
    if build == "pure_dephasing_spin":
        lay = SpaceLayout.single("spin", 2, "spin-half")
        sz = np.diag([1.0, -1.0]).astype(complex)
        return LindbladModel(FockOperator(lay, 0.5 * sz),
                             (Dissipator(FockOperator(lay, sz), 0.1),))
    if build.startswith("damped_beside_undamped"):
        lay = SpaceLayout.of(("m", 3), ("u", 3))
        b = embed(annihilation(3, "m"), lay, "m")
        if build.endswith("diagonal"):
            h = (embed(number(3), lay, "m").matrix
                 + 1.7 * embed(number(3), lay, "u").matrix)
        else:
            h = np.kron(np.eye(3), _random_hermitian(rng, 3))
        return LindbladModel(FockOperator(lay, h.astype(complex)),
                             thermal_dissipators(b, 0.5, 0.2))
    return _random_h_mode(1e-10)


class TestModelValidation:
    def test_nonhermitian_hamiltonian_rejected(self):
        lay = SpaceLayout.single("m", 2)
        with pytest.raises(ValueError):
            LindbladModel(FockOperator(lay, np.array([[0, 1], [0, 0]], dtype=complex)))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            Dissipator(annihilation(3, "m"), -0.1)

    def test_layout_mismatch_rejected(self):
        lay = SpaceLayout.single("m", 2)
        h = FockOperator(lay, np.zeros((2, 2), dtype=complex))
        with pytest.raises(ValueError):
            LindbladModel(h, (Dissipator(annihilation(3, "x"), 0.1),))


class TestGenerator:
    def test_amplitude_decay_convention(self):
        # with D_x carrying a factor 2, energy decays at rate 2 kappa
        kappa = 0.3
        model = damped_mode(kappa=kappa)
        rho0 = DensityMatrix.from_state(fock_state(model.layout, {"m": 1}))
        n = number(6)
        res = evolve(model, rho0, 1.0, num_samples=11, truncation_threshold=1.0)
        expected = np.exp(-2.0 * kappa * res.times)
        assert np.allclose(_mean(n, res), expected, atol=1e-8)

    def test_trace_annihilated(self):
        # columns of the generator conserve trace: Tr(L rho) = 0 for any rho
        model = damped_mode(dim=4, kappa=0.7, n_bar=0.4)
        L = liouvillian_matrix(model)
        eye_vec = np.eye(4, dtype=complex).T.reshape(-1)
        assert np.linalg.norm(eye_vec @ L) < 1e-12


class TestEvolve:
    def test_expm_and_adaptive_agree(self):
        model = damped_mode(dim=5, kappa=0.2, n_bar=0.3)
        rho0 = DensityMatrix(model.layout, thermal_state(5, 0.2).matrix)
        out1 = evolve(model, rho0, 2.0, num_samples=5, method="expm",
                      truncation_threshold=1.0)
        out2 = evolve(model, rho0, 2.0, num_samples=5, method="adaptive",
                      truncation_threshold=1.0)
        assert np.allclose(out1.final(), out2.final(), atol=1e-7)

    def test_invalid_duration(self):
        model = damped_mode()
        rho0 = DensityMatrix(model.layout, thermal_state(6, 0.1).matrix)
        with pytest.raises(ValueError):
            evolve(model, rho0, 0.0)

    def test_too_few_samples(self):
        model = damped_mode()
        rho0 = DensityMatrix(model.layout, thermal_state(6, 0.1).matrix)
        with pytest.raises(ValueError, match="num_samples"):
            evolve(model, rho0, 1.0, num_samples=1)

    def test_truncation_leak_detected(self):
        # driving the top of a tiny ladder must raise, not silently truncate
        dim = 3
        a = annihilation(dim, "m")
        drive = FockOperator(a.layout, (a.dagger() + a).matrix)
        model = LindbladModel(drive)
        rho0 = DensityMatrix.from_state(fock_state(a.layout, {}))
        with pytest.raises(TruncationError):
            evolve(model, rho0, 3.0, num_samples=5)

    def test_observable_sampling(self):
        model = damped_mode(dim=4, kappa=0.5)
        rho0 = DensityMatrix.from_state(fock_state(model.layout, {"m": 1}))
        res = evolve(model, rho0, 1.0, num_samples=7, truncation_threshold=1.0)
        n = _mean(number(4), res)
        assert len(res.times) == 7
        assert n.shape == (7,)
        assert n[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("defect", ["trace", "hermiticity", "positivity"])
    def test_every_sample_is_validated(self, monkeypatch, defect):
        # one drifted sample mid-run raises, unrepaired; each defect breaks
        # only its own invariant, so every check must stay in place
        model = damped_mode(dim=4, kappa=0.5, n_bar=0.2)
        rho0 = DensityMatrix(model.layout,
                             _random_density(np.random.default_rng(2), model.layout.dim))
        taylor_samples = lindblad._taylor_samples

        def drifted(A, v0, h, steps):
            out, path, schedule = taylor_samples(A, v0, h, steps)
            # rho0 has full support, so the rows are whole vec(rho)
            rho = lindblad._unvec(out[2], 4)
            if defect == "trace":
                rho = rho * (1.0 + 1e-7)
            elif defect == "hermiticity":
                swap = np.zeros((4, 4), dtype=complex)
                swap[0, 1] = swap[1, 0] = 1.0
                rho = rho + 10.0 * lindblad.SAMPLE_TOLS["herm_tol"] * 1j * swap
            else:
                # lowest eigenvalue to -1e-6, its weight moved to the highest
                w, v = np.linalg.eigh(rho)
                shift = w[0] + 1e-6
                rho = (rho - shift * np.outer(v[:, 0], v[:, 0].conj())
                       + shift * np.outer(v[:, -1], v[:, -1].conj()))
            out[2] = lindblad._vec(rho)
            return out, path, schedule

        evolve(model, rho0, 1.0, num_samples=5, truncation_threshold=1.0)
        monkeypatch.setattr(lindblad, "_taylor_samples", drifted)
        with pytest.raises(ValueError):
            evolve(model, rho0, 1.0, num_samples=5, truncation_threshold=1.0)


_DEFECTS = ("trace", "hermiticity", "positivity", "truncation")


def _inject(defect, rho, states, low, amount):
    """``rho`` with one defect confined to the basis states ``states``, one
    connected component of the block, whose first state is a top Fock level
    of a mode; ``low``, a state off the top levels, gives up weight where
    the defect moves it.  Trace, hermiticity and positivity are broken 2 to
    60 times beyond ``SAMPLE_TOLS``; truncation moves ``amount`` onto the
    top level."""
    rho = rho.copy()
    top = states[0]
    if defect == "trace":
        rho[top, top] += 2e-8
    elif defect == "hermiticity":
        # an anti-hermitian pair: the hermitian part, so positivity, is unchanged
        rho[top, states[1]] += 1e-8j
        rho[states[1], top] += 1e-8j
    elif defect == "positivity":
        # the component's lowest eigenvalue to -1e-6, its weight moved to
        # the component's highest eigenvector, or to ``low`` outside it
        sub = np.ix_(states, states)
        w, v = np.linalg.eigh(rho[sub])
        shift = w[0] + 1e-6
        rho[sub] -= shift * np.outer(v[:, 0], v[:, 0].conj())
        if low in states:
            rho[sub] += shift * np.outer(v[:, -1], v[:, -1].conj())
        else:
            rho[low, low] += shift
    else:
        assert rho[low, low].real > amount
        rho[low, low] -= amount
        rho[top, top] += amount
    return rho


def _drift(monkeypatch, block, n, defects):
    """Make ``evolve``'s propagated samples carry ``defects``, a map from
    sample index to a function of that sample's matrix, on ``block``."""
    taylor_samples = lindblad._taylor_samples
    off_block = np.setdiff1d(np.arange(n * n), block)

    def drifted(A, v0, h, steps):
        out, path, schedule = taylor_samples(A, v0, h, steps)
        for j, inject in defects.items():
            v = np.zeros(n * n, dtype=complex)
            v[block] = out[j]
            v = lindblad._vec(inject(lindblad._unvec(v, n)))
            assert not v[off_block].any()
            out[j] = v[block]
        return out, path, schedule

    monkeypatch.setattr(lindblad, "_taylor_samples", drifted)


class TestSampleValidation:
    """Every defect fails ``evolve`` on a full block (one component) and on a
    block of several components, where it sits in a component that is not
    the first of the largest ones; a run fails at its first failing sample,
    at the first invariant that sample breaks."""

    @staticmethod
    def _start(kind):
        """The model, rho0, and for each defect the component states it sits
        on (a top level first) and the low state that gives up weight."""
        if kind == "full":
            model = damped_mode(dim=4, kappa=0.5, n_bar=0.2)
            rho0 = _random_density(np.random.default_rng(2), model.layout.dim)
            return (model, DensityMatrix(model.layout, rho0),
                    dict.fromkeys(_DEFECTS, ([3, 0, 1, 2], 0)))
        # a Fock-diagonal start of a (2, 3) cooling model: the block is every
        # rho_ij with equal excitation numbers, so the components are
        # {|0,0>}, {|0,1>, |1,0>}, {|0,2>, |1,1>} and {|1,2>}
        model = cooling_model(1.0, 3.0, 0.2, 0.5, SpaceLayout.of(("a", 2), ("a_m", 3)))
        rho0 = DensityMatrix(model.layout,
                             np.diag([0.4, 0.2, 0.1, 0.15, 0.1, 0.05]).astype(complex))
        where = dict.fromkeys(_DEFECTS, ([5], 0))
        where["hermiticity"] = ([4, 2], 0)
        return model, rho0, where

    @staticmethod
    def _block(model, rho0):
        return model.reachable_block(np.flatnonzero(lindblad._vec(rho0.matrix)))

    def test_fock_diagonal_start_splits_into_components(self):
        model, rho0, _ = self._start("components")
        block, _, checks = self._block(model, rho0)
        assert block.size == 10
        assert sorted(at.shape for at, _ in checks._components) == [(2, 1, 1), (2, 2, 2)]

    def _run(self, monkeypatch, kind, defects):
        """evolve of ``kind``'s start over 5 samples with ``defects``, a map
        from sample index to the defects injected there, at a truncation
        threshold 1e-4 above the clean run's largest top-level population,
        which a truncation defect exceeds by 1e-4."""
        model, rho0, where = self._start(kind)
        clean = evolve(model, rho0, 1.0, num_samples=5, truncation_threshold=1.0)
        tops = [max(top_level_population(DensityMatrix(model.layout, m, **lindblad.SAMPLE_TOLS))
                    .values()) for m in sample_matrices(clean)]
        limit = max(tops) + 1e-4
        block, _, _ = self._block(model, rho0)
        n = model.layout.dim

        def injector(j, names):
            def inject(rho):
                for name in names:
                    rho = _inject(name, rho, *where[name], amount=limit - tops[j] + 1e-4)
                return rho
            return inject

        with monkeypatch.context() as patch:
            _drift(patch, block, n, {j: injector(j, names) for j, names in defects.items()})
            evolve(model, rho0, 1.0, num_samples=5, truncation_threshold=limit)

    @pytest.mark.parametrize("kind", ["full", "components"])
    @pytest.mark.parametrize("defect", _DEFECTS)
    def test_each_defect_fails(self, monkeypatch, defect, kind):
        self._run(monkeypatch, kind, {})  # the clean run passes at that threshold
        error = TruncationError if defect == "truncation" else ValueError
        with pytest.raises(error, match="^sample 2: "):
            self._run(monkeypatch, kind, {2: [defect]})

    def test_first_failing_sample_and_first_invariant(self, monkeypatch):
        # sample 2 breaks truncation and hermiticity, sample 3 the trace: the
        # run fails at sample 2, on hermiticity, which is checked first
        with pytest.raises(ValueError, match="^sample 2: density matrix is not hermitian"):
            self._run(monkeypatch, "components", {2: ["truncation", "hermiticity"], 3: ["trace"]})
        with pytest.raises(ValueError, match="^sample 1: trace"):
            self._run(monkeypatch, "components", {1: ["positivity", "trace"], 3: ["hermiticity"]})


def _first_fault(check):
    """(sample, invariant) of the error ``check()`` raises, or None."""
    try:
        check()
    except (ValueError, TruncationError) as exc:
        message = str(exc)
        j = 0
        if message.startswith("sample "):
            head, message = message.split(": ", 1)
            j = int(head.split()[1])
        if isinstance(exc, TruncationError):
            return j, "truncation"
        for prefix, name in (("trace", "trace"), ("density matrix is not hermitian", "hermiticity"),
                             ("density matrix has negative eigenvalue", "positivity")):
            if message.startswith(prefix):
                return j, name
        raise
    return None


@st.composite
def _block_diagonal_stack(draw):
    """A two-mode layout, a block joining the basis states of random
    components (every rho_ij within one, perhaps but one), 1 to 4 states
    block-diagonal on it, each clean or carrying one defect 10 to 100 times
    beyond ``SAMPLE_TOLS``, and a truncation threshold."""
    layout = SpaceLayout.of(("a", draw(st.integers(2, 4))), ("b", draw(st.integers(2, 4))))
    n = layout.dim
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    components = [np.flatnonzero(labels == c) for c in np.unique(labels)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    defects = draw(st.lists(st.sampled_from([None, "trace", "hermiticity", "positivity"]),
                            min_size=1, max_size=4))
    # optionally one rho_ij whose partner rho_ji is on the block while it is
    # not: rho_ij = 0, and rho_ji is kept or made too small to break hermiticity
    pairs = [(i, j) for c in components for i in c for j in c if i != j]
    unpaired = draw(st.sampled_from(pairs)) if pairs and draw(st.booleans()) else None
    partner_scale = draw(st.sampled_from([1.0, 1e-12]))
    states = []
    for defect in defects:
        rho = np.zeros((n, n), dtype=complex)
        for c in components:
            g = rng.normal(size=(c.size, c.size)) + 1j * rng.normal(size=(c.size, c.size))
            rho[np.ix_(c, c)] = rng.uniform(0.1, 1.0) * (g @ g.conj().T)
        rho /= np.trace(rho).real
        c = components[rng.integers(len(components))]
        if defect == "trace":
            rho *= 1.0 + 1e-6
        elif defect == "hermiticity" and c.size > 1:
            rho[c[0], c[1]] += 1e-7j
            rho[c[1], c[0]] += 1e-7j
        elif defect == "positivity" and (c.size > 1 or len(components) > 1):
            sub = np.ix_(c, c)
            w, v = np.linalg.eigh(rho[sub])
            shift = w[0] + 1e-5
            rho[sub] -= shift * np.outer(v[:, 0], v[:, 0].conj())
            if c.size > 1:
                rho[sub] += shift * np.outer(v[:, -1], v[:, -1].conj())
            else:
                other = np.flatnonzero(labels != labels[c[0]])[0]
                rho[other, other] += shift
        if unpaired is not None:
            i, j = unpaired
            rho[i, j] = 0.0
            rho[j, i] *= partner_scale
        states.append(rho)
    # the vec index j n + i of every rho_ij within one component
    on_block = labels[:, None] == labels[None, :]
    if unpaired is not None:
        on_block[unpaired] = False
    block = np.flatnonzero(on_block.T.reshape(-1))
    return layout, block, np.array(states), draw(st.floats(0.05, 1.0))


class TestBatchedCheckAgainstOneMatrix:
    """The one pass of ``VecBlock.check`` over a stack on a block of several
    components fails exactly where a ``DensityMatrix`` with ``SAMPLE_TOLS``
    and a top-level population test, sample by sample, fail first."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_block_diagonal_stack())
    def test_same_first_sample_and_invariant(self, case):
        layout, block, states, threshold = case

        def one_by_one():
            for j, rho in enumerate(states):
                try:
                    DensityMatrix(layout, rho, **lindblad.SAMPLE_TOLS)
                except ValueError as exc:
                    raise ValueError(f"sample {j}: {exc}") from exc
                for label, pop in top_level_population(DensityMatrix(layout, rho)).items():
                    if pop > threshold:
                        raise TruncationError(f"sample {j}: {label}")

        entries = np.array([lindblad._vec(rho)[block] for rho in states])
        batched = _first_fault(lambda: VecBlock(layout, block).check(
            entries, **lindblad.SAMPLE_TOLS, truncation_threshold=threshold))
        assert batched == _first_fault(one_by_one)

    def test_unpaired_entry_counts_twice(self):
        """rho_10 on the block, rho_01 off it: |rho_10| sits twice in
        ||rho - rho^dag||_F, so 6e-10 fails the 1e-9 relative test on a
        state of norm 0.71 (sqrt(2) 6e-10 > 7.1e-10 > 6e-10)."""
        layout = SpaceLayout.single("m", 2)
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[1, 0] = 6e-10
        with pytest.raises(ValueError, match="not hermitian"):
            DensityMatrix(layout, rho, **lindblad.SAMPLE_TOLS)
        with pytest.raises(ValueError, match="not hermitian"):
            VecBlock(layout, np.array([0, 1, 3])).check(
                lindblad._vec(rho)[[0, 1, 3]][None], **lindblad.SAMPLE_TOLS)

    def test_cool_spectrum_by_components(self, monkeypatch):
        """On the 60 samples of the full ``cool`` at (4, 12), whose 172-index
        block splits into 15 components of 1 to 4 states, the components'
        smallest eigenvalue is the whole matrix's to 1e-14."""
        results = []

        def spy(*args, **kwargs):
            results.append(evolve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(protocols, "evolve", spy)
        sideband_cool(SystemParams(g=1.0, kappa=20.0, gamma_m=0.05, n_bar=3.0, omega_m=50.0),
                      3.0, dims=(4, 12))
        [res] = results
        checks = VecBlock(res.layout, res.block)
        sizes = sorted(at.shape[1] for at, _ in checks._components for _ in range(at.shape[0]))
        assert res.block.size == 172 and len(sizes) == 15 and (sizes[0], sizes[-1]) == (1, 4)
        lo = checks._invariants(res.samples)[3]
        m = sample_matrices(res)
        whole = np.linalg.eigvalsh(0.5 * (m + m.conj().transpose(0, 2, 1))).min(axis=1)
        assert np.abs(lo - whole).max() <= 1e-14


def _assert_sweep_matches_rebuild(model, term, values):
    """The generator data d_0 + v d_1 that ``steady_states`` solves at each
    v, on the union of the patterns of L(H) and L_T, is the generator of
    ``LindbladModel(H + v term, dissipators)`` rebuilt, to 1e-14 of its
    1-norm."""
    indices, indptr, d0, d1 = _union_aligned(model.generator, LindbladModel(term).generator)
    for v in values:
        point = sp.csr_array((d0 + v * d1, indices, indptr), shape=model.generator.shape)
        rebuilt = liouvillian_matrix(LindbladModel(model.hamiltonian + v * term,
                                                   model.dissipators))
        assert point.shape == rebuilt.shape
        diff = point - rebuilt
        assert (lindblad._norm1(diff.indices, diff.data, diff.shape[1])
                <= 1e-14 * lindblad._norm1(rebuilt.indices, rebuilt.data, rebuilt.shape[1])), v


class TestAffineSweep:
    @staticmethod
    def _spin_mech(axis):
        """The ESR model at the swept value 0, and the term (1/2) sigma_axis."""
        layout = SpaceLayout.of(("a_m", 5), ("spin", 2, "spin-half"))
        spin = (SpinParams(lam=0.05, Delta_e=0.0, Omega_d_prime=0.6) if axis == "z"
                else SpinParams(lam=0.05, Delta_e=0.3, Omega_d_prime=0.0))
        b = embed(annihilation(5, "a_m"), layout, "a_m")
        diss = thermal_dissipators(b, 0.01, 0.3) + (
            Dissipator(embed(pauli("z"), layout, "spin"), 0.002),)
        model = LindbladModel(build_spin_mech(SystemParams(omega_m=1.0), spin, layout), diss)
        return model, 0.5 * embed(pauli(axis), layout, "spin")

    @pytest.mark.parametrize("axis", ["z", "x"])
    def test_spin_terms_match_rebuild(self, axis):
        model, term = self._spin_mech(axis)
        base = set(zip(*model.generator.nonzero()))
        extra = set(zip(*LindbladModel(term).generator.nonzero())) - base
        # sigma_z only moves diagonal entries; sigma_x, absent from the base
        # at Omega_d' = 0, adds entries the base does not store
        assert bool(extra) == (axis == "x")
        _assert_sweep_matches_rebuild(model, term, [0.0, 0.37, -1.2])

    def test_each_point_checks_hermiticity(self):
        # a hermitian term at a complex value gives a non-hermitian H + v
        # term, so the sweep refuses every value that is not real and finite
        model, term = self._spin_mech("z")
        for values in ([0.5, 0.5j], [0.5, np.nan], [np.inf], 0.5):
            with pytest.raises(ValueError, match="real and finite"):
                steady_states(model, term, values)

    @settings(max_examples=100, deadline=None)
    @given(dims=st.lists(st.integers(2, 3), min_size=1, max_size=2),
           seed=st.integers(0, 2 ** 32 - 1),
           density=st.floats(0.1, 1.0),
           values=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3))
    def test_matches_rebuild_on_random_models(self, dims, seed, density, values):
        layout = SpaceLayout.of(*((f"m{k}", d) for k, d in enumerate(dims)))
        n = layout.dim
        rng = np.random.default_rng(seed)

        def sparse(hermitian):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m *= rng.random((n, n)) < density
            return FockOperator(layout, 0.5 * (m + m.conj().T) if hermitian else m)

        diss = tuple(Dissipator(sparse(False), float(rng.uniform(0.0, 0.5)))
                     for _ in range(rng.integers(0, 3)))
        model = LindbladModel(sparse(True), diss)
        _assert_sweep_matches_rebuild(model, sparse(True), [0.0] + values)


class TestSteadyState:
    def test_thermal_limit(self):
        n_bar = 0.8
        model = damped_mode(dim=25, kappa=0.4, n_bar=n_bar)
        ss = steady_state(model)
        n_mean = np.real(np.trace(number(25).matrix @ ss.matrix))
        assert n_mean == pytest.approx(n_bar, rel=1e-6)

    def test_closed_system_degenerate(self):
        lay = SpaceLayout.single("m", 3)
        h = FockOperator(lay, np.diag([0.0, 1.0, 2.0]).astype(complex))
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(LindbladModel(h))

    @pytest.mark.parametrize("build", [
        "closed_diagonal", "closed_random", "pure_dephasing_spin",
        "damped_beside_undamped_diagonal", "damped_beside_undamped_random",
        "weakly_damped_1e-10"])
    def test_degenerate_null_space_rejected(self, build):
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(_uniqueness_model(build))

    @pytest.mark.parametrize("gamma", [1e-6, 0.4])
    def test_weak_but_finite_damping_is_unique(self, gamma):
        ss = steady_state(_random_h_mode(gamma))
        assert np.trace(ss.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_matches_long_time_evolution(self):
        model = damped_mode(dim=5, kappa=0.6, n_bar=0.2)
        ss = steady_state(model)
        rho0 = DensityMatrix.from_state(fock_state(model.layout, {"m": 2}))
        final = evolve(model, rho0, 60.0, num_samples=3,
                       truncation_threshold=1.0).final()
        assert np.allclose(ss.matrix, final, atol=1e-8)


def _decaying_qubit(h=((0.0, 0.0), (0.0, 0.0)), rate=1.0):
    """A qubit with Hamiltonian ``h`` that decays at ``rate``."""
    layout = SpaceLayout.single("q", 2)
    lower = FockOperator(layout, np.array([[0, 1], [0, 0]], dtype=complex))
    return LindbladModel(FockOperator(layout, np.array(h, dtype=complex)),
                         (Dissipator(lower, rate),))


def _qubit_term(*rows):
    return FockOperator(SpaceLayout.single("q", 2), np.array(rows, dtype=complex))


class TestBorderedPattern:
    """Every point of a sweep factors its bordered matrix on the one column
    order of the sweep's sparsity pattern."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dims=st.lists(st.integers(2, 3), min_size=1, max_size=2),
           seed=st.integers(0, 2 ** 32 - 1),
           density=st.floats(0.1, 1.0),
           values=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3))
    def test_sweep_matches_standalone_on_random_models(self, dims, seed, density, values):
        layout = SpaceLayout.of(*((f"m{k}", d) for k, d in enumerate(dims)))
        n = layout.dim
        rng = np.random.default_rng(seed)

        def sparse(hermitian):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m *= rng.random((n, n)) < density
            return FockOperator(layout, 0.5 * (m + m.conj().T) if hermitian else m)

        # a full jump operator beside sparse ones keeps the steady state unique
        full = FockOperator(layout, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        diss = (Dissipator(full, float(rng.uniform(0.05, 0.5))),) + tuple(
            Dissipator(sparse(False), float(rng.uniform(0.0, 0.5)))
            for _ in range(rng.integers(0, 2)))
        model, term = LindbladModel(sparse(True), diss), sparse(True)
        states = steady_states(model, term, values)
        assert states.shape == (len(values), n, n)
        for v, rho in zip(values, states):
            alone = steady_state(LindbladModel(model.hamiltonian + v * term, diss))
            assert trace_distance(rho, alone.matrix) <= 1e-12, v

    def test_split_sweeps_give_identical_states(self):
        model, term = TestAffineSweep._spin_mech("z")
        values = list(np.linspace(-1.0, 1.0, 7))
        whole = steady_states(model, term, values)
        split = np.concatenate([steady_states(model, term, part)
                                for part in (values[:3], values[3:])])
        assert [m.tobytes() for m in whole] == [m.tobytes() for m in split]

    def test_one_probe_per_sweep(self, monkeypatch):
        specs = []

        def spy(A, permc_spec=None, **kwargs):
            specs.append(permc_spec)
            return splu(A, permc_spec=permc_spec, **kwargs)

        monkeypatch.setattr(lindblad, "splu", spy)
        model, term = TestAffineSweep._spin_mech("z")
        values = [-0.4, 0.0, 0.3, 0.9]
        steady_states(model, term, values)
        # one COLAMD probe (SuperLU's default order), then the reused order
        assert specs == [None] + ["NATURAL"] * len(values)

    def test_singular_first_point_then_next_solves(self):
        # pure dephasing and no drive at v = 0 keep both populations: the
        # bordered matrix has a zero row; the drive at v = 1 mixes them
        sz = pauli("z")
        model = LindbladModel(FockOperator(sz.layout, np.zeros((2, 2), dtype=complex)),
                              (Dissipator(sz, 0.1),))
        term = 0.5 * pauli("x")
        with pytest.raises(DegenerateSteadyStateError, match="at swept value 0.0: .*singular"):
            steady_states(model, term, [0.0, 1.0])
        [rho] = steady_states(model, term, [1.0])
        assert np.abs(rho - 0.5 * np.eye(2)).max() <= 1e-12

    @pytest.mark.parametrize("model, term, values, error, match", [
        # the decay at 1e-10 beside the splitting at v = 1: a near-degenerate null space
        (_decaying_qubit(rate=1e-10), _qubit_term((0.5, 0), (0, -0.5)), [0.0, 1.0],
         DegenerateSteadyStateError, "at swept value 1.0: .*condition estimate"),
        # v L_T overflows where v T does not
        (_decaying_qubit(), _qubit_term((0.5e308, 0), (0, -0.5e308)), [0.0, 1.9],
         PreconditionError, "at swept value 1.9: .*overflowed"),
        (_decaying_qubit(), _qubit_term((1e300, 0), (0, -1e300)), [0.0, 1e10],
         PreconditionError, "at swept value 10000000000.0: .*not finite"),
        # H_0 = sigma_x + 1e-11 (a skew part) passes; at v = -1 only the skew part is left
        (_decaying_qubit(h=((0, 1 + 1e-11), (1 - 1e-11, 0))), _qubit_term((0, 1), (1, 0)),
         [0.0, -1.0], ValueError, "at swept value -1.0: .*not hermitian"),
    ], ids=["condition", "generator-not-finite", "hamiltonian-not-finite",
            "hamiltonian-not-hermitian"])
    def test_failing_point_names_its_value(self, model, term, values, error, match):
        with pytest.raises(error, match=match):
            steady_states(model, term, values)

    def test_residual_names_its_value(self, monkeypatch):
        def off_the_steady_state(b, y):
            # the three-column solve's first column, as a wrong pivot would leave it
            if b.ndim == 2:
                y[:, 0] += 1e-3 * np.abs(y[:, 0]).max()

        monkeypatch.setattr(lindblad, "splu", lambda *args, **kwargs: SolveSpy(
            splu(*args, **kwargs), off_the_steady_state))
        with pytest.raises(DegenerateSteadyStateError,
                           match="at swept value 0.25: null-space residual"):
            steady_states(_decaying_qubit(), _qubit_term((0, 0.5), (0.5, 0)), [0.25, 0.5])

    def test_broken_state_names_its_value_before_a_later_fault(self, monkeypatch):
        # the point v = 0.25 comes out at trace 2 and v = 0.5 fails to solve:
        # the sweep from 0.25 names 0.25, and the chunk from 0.5 names 0.5
        def core(L, pattern):
            if next(outcomes) == "fails":
                raise DegenerateSteadyStateError("steady state is not unique")
            return 2.0 * steady_vector(L, pattern)

        steady_vector = lindblad._steady_vector
        monkeypatch.setattr(lindblad, "_steady_vector", core)
        model, term = _decaying_qubit(), _qubit_term((0, 0.5), (0.5, 0))
        outcomes = iter(["trace 2", "fails"])
        with pytest.raises(ValueError, match="at swept value 0.25: trace "):
            steady_states(model, term, [0.25, 0.5, 0.75])
        outcomes = iter(["fails"])
        with pytest.raises(DegenerateSteadyStateError, match="at swept value 0.5: "):
            steady_states(model, term, [0.5, 0.75])


def _sequential_inverse_norm1(lu, dim: int) -> float:
    """Hager's estimate with one ``SuperLU.solve`` per vector, the start and
    the alternating probe included: the reference for the batched solve of
    :func:`lindblad._inverse_norm1`."""
    tiny = np.finfo(float).tiny

    def solve(x, trans="N"):
        if not np.isfinite(y := lu.solve(x, trans=trans)).all():
            raise FloatingPointError
        return y

    def sign(y):
        a = np.abs(y)
        return np.where(a > tiny, y / np.maximum(a, tiny), 1.0)

    try:
        y = solve(np.full(dim, 1.0 / dim, dtype=complex))
        if dim == 1:
            return float(abs(y[0]))
        est = np.abs(y).sum()
        j = int(np.argmax(np.abs(solve(sign(y), trans="H"))))
        for iteration in range(2, 6):
            unit = np.zeros(dim, dtype=complex)
            unit[j] = 1.0
            y = solve(unit)
            est_old, est = est, np.abs(y).sum()
            if est <= est_old:
                break
            z = np.abs(solve(sign(y), trans="H"))
            j_last, j = j, int(np.argmax(z))
            if z[j_last] == z[j] or iteration == 5:
                break
        alternating = (1.0 + np.arange(dim) / (dim - 1)) * (-1.0) ** np.arange(dim)
        probe = 2.0 * np.abs(solve(alternating.astype(complex))).sum() / (3 * dim)
    except FloatingPointError:
        return np.inf
    return float(max(est, probe))


def _estimates(monkeypatch, run) -> list:
    """(LU, rhs, columns, estimate) of every ``_inverse_norm1`` call made by
    ``run()``, with the three-column right-hand side the core solved."""
    seen, solves = [], []
    estimate = lindblad._inverse_norm1

    def record(b, y):
        if b.ndim == 2:
            solves.append((b.copy(), y.copy()))

    def spy(lu, start, alternating):
        seen.append((lu.lu, *solves[-1], estimate(lu, start, alternating)))
        return seen[-1][-1]

    monkeypatch.setattr(lindblad, "splu", lambda *a, **k: SolveSpy(splu(*a, **k), record))
    monkeypatch.setattr(lindblad, "_inverse_norm1", spy)
    run()
    return seen


def _model_of_seed(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    return dim, _random_model(rng, SpaceLayout.single("m", dim), n_diss=int(rng.integers(1, 3)))


class TestInverseNormEstimate:
    """Hager's estimate of ||B^-1||_1 on trace-bordered generators."""

    @pytest.mark.parametrize("seed", range(8))
    def test_lower_bound_on_dense_norm(self, seed):
        dim, model = _model_of_seed(seed)
        L = model.generator
        scale = np.linalg.norm(L.toarray(), axis=0).max()
        # B[:, order], whose inverse has the rows of B^-1 permuted: the same 1-norm
        bordered = model._bordered.matrix(L.data, scale)
        lu = splu(bordered, permc_spec="NATURAL")
        estimate = _inverse_norm1(lu, *lu.solve(_estimate_vectors(dim * dim)).T)
        exact = np.linalg.norm(np.linalg.inv(bordered.toarray()), 1)
        assert estimate <= exact * (1.0 + 1e-12)
        assert estimate >= 0.5 * exact

    @pytest.mark.parametrize("seed", range(8))
    def test_batched_estimate_equals_sequential(self, monkeypatch, seed):
        _, model = _model_of_seed(seed)
        [(lu, rhs, y, estimate)] = _estimates(monkeypatch, lambda: steady_state(model))
        for k in range(3):
            assert lu.solve(rhs[:, k]).tobytes() == y[:, k].tobytes(), k
        assert estimate == _sequential_inverse_norm1(lu, rhs.shape[0])

    def test_batched_estimate_equals_sequential_on_the_benchmark_sweep(self, monkeypatch):
        from cryomech import cli

        cfg = cli.parse_config(ESR_SWEEP_CONF)
        seen = _estimates(monkeypatch, lambda: cli._run_esr(cfg, None, 1))
        assert len(seen) == cfg["points"]
        for lu, rhs, y, estimate in seen:
            for k in range(3):
                assert lu.solve(rhs[:, k]).tobytes() == y[:, k].tobytes(), k
            assert estimate == _sequential_inverse_norm1(lu, rhs.shape[0])

    @pytest.mark.parametrize("pivot", [5e-324, 1e-310])
    def test_inverse_past_the_float_range_is_inf(self, pivot):
        # the first solve overflows to inf; its sign then divided inf by inf
        lu = splu(sp.csc_array(np.diag([1.0, pivot, 2.0]).astype(complex)))
        assert _inverse_norm1(lu, *lu.solve(_estimate_vectors(3)).T) == np.inf


class TestTaylorSchedule:
    """The one schedule rule, the smallest m ceil(||h step||_1 / theta_m),
    on the benchmark's stiff cooling block and on blocks far above the 1-norm
    of every benchmark step."""

    COOLING = SystemParams(g=1.0, kappa=20.0, gamma_m=0.05, n_bar=3.0, omega_m=50.0)

    def test_stiff_cooling_block_runs_propagator(self, monkeypatch):
        """Full ``cool`` at (4, 12): one series, on the identity columns of
        the 172-dim block at h / 2^7, where ||h step||_1 is 1.34.  A squaring
        is priced at four calls and ``_SQUARE_RATIO`` = 1/4 of 172^3
        stored-entry products; at the full 172^3 the plan was (40, 1, 5)."""
        runs, calls = [], []
        samples, series = lindblad._taylor_samples, lindblad._taylor_series

        def spy_samples(block, v0, h, steps):
            out = samples(block, v0, h, steps)
            runs.append(out[1:])
            return out

        def spy_series(block, h, m, s, X):
            calls.append((block, h, X.shape[1:]))
            return series(block, h, m, s, X)

        monkeypatch.setattr(lindblad, "_taylor_samples", spy_samples)
        monkeypatch.setattr(lindblad, "_taylor_series", spy_series)
        sideband_cool(self.COOLING, 3.0, dims=(4, 12))
        assert runs == [("propagator", (20, 1, 7))]
        [(block, h, columns)] = calls
        assert columns == (block.dim,) == (172,)
        assert h * block.norm1 == pytest.approx(1.34, abs=0.01)
        assert block.schedule(h) == (20, 1)

    def test_denormal_step_takes_one_substep(self):
        """At h = 5e-324 the quotient ||h step||_1 / theta_m rounds to 0 for
        the large theta_m; a zero substep count would price as free, and the
        series divides by it.  s is at least 1, and exp(h A) is the identity."""
        block = lindblad._TaylorBlock(sp.csr_array(np.diag([0.0, -4.0]).astype(complex)))
        h = 5e-324
        assert h * block.norm1 > 0.0 and h * block.norm1 / lindblad.TAYLOR_THETA[55] == 0.0
        m, s = block.schedule(h)
        assert (m, s) == (1, 1)
        P = lindblad._taylor_series(block, h, m, s, np.eye(2, dtype=complex))
        assert np.array_equal(P, np.eye(2))

    def test_nilpotent_block_matches_expm(self):
        """N = 100 times the 5 x 5 lower shift: ||N||_1 = 100 and N^5 = 0, so a
        schedule that trusted the decay of ||N^p|| could pick a degree too low
        for N^4 / 4! ~ 4e6; the 1-norm rule gives exp(N) to rounding."""
        N = 100.0 * np.eye(5, k=-1)
        block = lindblad._TaylorBlock(sp.csr_array(N.astype(complex)))
        m, s = block.schedule(1.0)
        assert (m, s) == (50, 12)
        P = lindblad._taylor_series(block, 1.0, m, s, np.eye(5, dtype=complex))
        exact = expm(N)
        assert np.abs(P - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_stiff_stepper_step_matches_mpmath(self):
        """One stepper step, ``_taylor_series`` at the block's own schedule,
        with ||h (A - mu)||_1 = 100 on the non-normal 26-index block of a
        transfer at kappa = 50 g, against ``mpmath.expm`` at 30 digits within
        the bound of :class:`TestTaylorAgainstMpmath`.  At this size the count
        rule hands a whole run to the propagator, so the step runs directly."""
        layout = SpaceLayout.of(("a", 2), ("a_m", 3))
        model = cooling_model(1.0, 50.0, 0.001, 0.01, layout)
        psi = np.kron([1.0, 1.0], [1.0, 0.0, 0.0]) / np.sqrt(2)
        v0 = lindblad._vec(np.outer(psi, psi).astype(complex))
        R, block, _ = model.reachable_block(np.flatnonzero(v0))
        A = model.generator.toarray()[np.ix_(R, R)]
        step = block.step.toarray()
        assert block.dim == 26 and np.abs(step @ step.conj().T - step.conj().T @ step).max() > 1e3
        h = 100.0 / block.norm1
        m, s = block.schedule(h)
        assert (m, s) == (50, 12)
        row = lindblad._taylor_series(block, h, m, s, v0[R])
        with mpmath.workdps(30):
            x = mpmath.expm(mpmath.matrix(A.tolist()) * h) * mpmath.matrix(v0[R].tolist())
            exact = np.array([complex(y) for y in x])
        assert np.abs(row - exact).max() <= 16 * max(1.0, h * block.norm1) * 2.0 ** -53


class TestShiftDiagonal:
    """The Taylor block's A - mu I keeps the arrays and bits of scipy's
    ``A - mu * sp.eye_array(n)``, the entries that come out exactly 0
    dropped."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
           density=st.floats(0.0, 1.0), signed_zeros=st.booleans(),
           explicit_zero=st.booleans(),
           mu=st.sampled_from(["trace", "stored", 0j, complex(0.0, -0.0),
                               complex(-0.0, 0.5), complex(1.5, -0.0)]))
    def test_matches_scipy_subtraction(self, n, seed, density, signed_zeros,
                                       explicit_zero, mu):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m *= rng.random((n, n)) < density
        if signed_zeros:
            m.imag[rng.random((n, n)) < 0.5] = -0.0
        A = sp.csr_array(m)
        if explicit_zero and A.nnz:
            A.data[rng.integers(A.nnz)] = 0.0
        if mu == "trace":
            mu = A.trace() / n
        elif mu == "stored":
            # the first stored diagonal entry, which then cancels exactly
            mu = A.diagonal()[np.argmax(A.diagonal() != 0)]
        mu = np.complex128(mu)
        want = A - mu * sp.eye_array(n, format="csr")
        got = [lindblad._shift_diagonal(A, mu)]
        if mu == A.trace() / n:
            got.append(lindblad._TaylorBlock(A).step)
        for step in got:
            for name in ("indptr", "indices", "data"):
                a, b = getattr(want, name), getattr(step, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestStiffRuns:
    """Composing short steps at the fast time scale loses about
    ||h (L_R - mu)||_1 2^-53 on a sample step h, so ``evolve`` refuses a step
    whose loss exceeds ``ROUNDOFF_BUDGET`` instead of losing the trace."""

    LAYOUT = SpaceLayout.of(("a", 2), ("a_m", 3))

    def _block(self):
        # a 1e15 time-scale separation: kappa = 1e6 against gamma_m = 1e-9
        model = cooling_model(1e-3, 1e6, 1e-9, 1.0, self.LAYOUT)
        rho = np.zeros((6, 6), dtype=complex)
        rho[0, 0] = rho[1, 1] = 0.5
        rho0 = DensityMatrix(self.LAYOUT, rho)
        R, block, _ = model.reachable_block(np.flatnonzero(lindblad._vec(rho)))
        return model, rho0, R, block

    def test_over_budget_step_raises(self):
        # one step of h = 8.47e7 on the 10-index block: ||h (L_R - mu)||_1 is
        # 2.5e14, and without the check the engine was off by 1.3e-2
        model, rho0, _, block = self._block()
        assert block.dim == 10 and 8.47e7 * block.norm1 > 1e14
        with pytest.raises(PreconditionError, match="stiff run"):
            evolve(model, rho0, 8.47e7, num_samples=2, truncation_threshold=1.0)

    def test_under_budget_step_matches_mpmath(self):
        # at 0.99 of the budget the step meets the exact exponential of the
        # oracle's dense generator (60 digits) to 4 budgets per entry
        model, rho0, R, block = self._block()
        h = 0.99 * lindblad.ROUNDOFF_BUDGET * 2.0 ** 53 / block.norm1
        final = evolve(model, rho0, h, num_samples=2, truncation_threshold=1.0).final()
        L = _build_liouvillian(model)[np.ix_(R, R)]
        with mpmath.workdps(60):
            v = mpmath.expm(mpmath.matrix(L.tolist()) * h) * mpmath.matrix(
                lindblad._vec(rho0.matrix)[R].tolist())
            exact = np.array([complex(x) for x in v])
        assert np.abs(lindblad._vec(final)[R] - exact).max() <= 4 * lindblad.ROUNDOFF_BUDGET


def _taylor_case(seed, dim, log_norm):
    """The dense block A reachable from a random state of a random one-mode
    Lindbladian (the oracle's draws), its ``_TaylorBlock``, the state on it,
    and the step h with ||h (A - mu)||_1 = 10^log_norm."""
    rng = np.random.default_rng(seed)
    layout = SpaceLayout.single("m", dim)
    model = _random_model(rng, layout, n_diss=int(rng.integers(1, 3)))
    v0 = lindblad._vec(_random_density(rng, dim))
    R, block, _ = model.reachable_block(np.flatnonzero(v0))
    return model.generator.toarray()[np.ix_(R, R)], block, v0[R], 10.0 ** log_norm / block.norm1


class TestTaylorAgainstMpmath:
    """The rows exp(j h A) v0 of ``_taylor_samples`` against ``mpmath.expm``
    at 30 digits, for steps up to ``ROUNDOFF_BUDGET``.  A sample step loses
    about max(1, ||h (A - mu)||_1) 2^-53 (the substeps or squarings composed
    into it), and j steps add up, so row j is held to
    16 j max(1, ||h (A - mu)||_1) 2^-53; over 300 random draws the largest
    error was 5.3 of those units."""

    #: (seed, dim, log10 ||h (A - mu)||_1, steps) and the path and squarings
    #: k each takes: the stepper on one step, the propagator at three k
    COVERAGE = [((1, 3, -0.5, 1), ("stepper", 0)), ((2, 3, 1.3, 1), ("propagator", 5)),
                ((3, 2, 3.0, 3), ("propagator", 11)), ((4, 3, 4.9, 2), ("propagator", 17))]

    @pytest.mark.parametrize("case, path", COVERAGE)
    def test_cases_reach_both_paths(self, case, path):
        _, block, _, h = _taylor_case(*case[:3])
        chosen, (_, _, k) = lindblad._taylor_path(block, h, case[3])
        assert (chosen, k) == path

    @settings(max_examples=26, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 3),
           log_norm=st.floats(-3.0, np.log10(lindblad.ROUNDOFF_BUDGET * 2.0 ** 53)),
           steps=st.integers(1, 4))
    @example(*COVERAGE[0][0])
    @example(*COVERAGE[1][0])
    @example(*COVERAGE[2][0])
    @example(*COVERAGE[3][0])
    def test_rows_match_mpmath(self, seed, dim, log_norm, steps):
        A, block, v0, h = _taylor_case(seed, dim, log_norm)
        rows, _, _ = lindblad._taylor_samples(block, v0, h, steps)
        unit = max(1.0, h * block.norm1) * 2.0 ** -53
        with mpmath.workdps(30):
            step = mpmath.expm(mpmath.matrix(A.tolist()) * h)
            x = mpmath.matrix(v0.tolist())
            for j in range(1, steps + 1):
                x = step * x
                exact = np.array([complex(y) for y in x])
                assert np.abs(rows[j] - exact).max() <= 16 * j * unit


class TestTiledSquare:
    """The propagator's dense BLAS products.  A whole complex ``A @ A`` gives
    different bits at one and two OpenBLAS threads at n = 140, 150, 172 and
    460; ``_tiled_square`` cuts it into tile products of at most 64^3,
    which OpenBLAS runs on one thread, and adds them in a fixed order.  Each
    sample step is one matvec ``P @ f``, whose bits OpenBLAS keeps at any
    thread count (a product with several columns is a GEMM and does not)."""

    SIZES = (48, 124, 140, 150, 172, 200, 256, 460)

    def test_matches_sparse_product(self):
        # to rounding: n terms of at most (|A| |A|)_ij each
        for n in self.SIZES:
            rng = np.random.default_rng(n)
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            exact = sp.csr_array(A) @ A
            bound = 4 * n * 2.0 ** -53 * (np.abs(A) @ np.abs(A)).max()
            assert np.abs(lindblad._tiled_square(A) - exact).max() <= bound, n

    def test_identical_across_blas_threads(self):
        # the SHA-256 of each size's tiled square P, of A @ v and of P @ v,
        # printed by a fresh process; P is the array the propagator holds,
        # a row-strided view of the zero-padded square at n = 140, 172, 460
        script = ("import hashlib\nimport numpy as np\nfrom cryomech import lindblad\n"
                  f"for n in {self.SIZES!r}:\n"
                  "    rng = np.random.default_rng(n)\n"
                  "    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))\n"
                  "    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)\n"
                  "    P = lindblad._tiled_square(A)\n"
                  "    for out in (P, A @ v, P @ v):\n"
                  "        print(hashlib.sha256(out.tobytes()).hexdigest())\n")
        src = str(Path(cryomech.__file__).resolve().parents[1])
        hashes = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                  capture_output=True, text=True)
            hashes[threads] = proc.stdout.split()
        products = ("P = tiled square", "A @ v", "P @ v")
        assert len(hashes["1"]) == len(hashes["2"]) == len(self.SIZES) * len(products)
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        labels = [(n, p) for n in self.SIZES for p in products]
        differ = [label for label, one, two in zip(labels, hashes["1"], hashes["2"]) if one != two]
        assert not differ, (f"products differ at 1 and 2 threads for (n, product) = {differ} "
                            f"with BLAS {blas.get('name')} {blas.get('version')}")


class TestCoolingModels:
    def test_cooling_model_structure(self):
        lay = SpaceLayout.of(("a", 3), ("a_m", 4))
        model = cooling_model(1.0, 20.0, 0.05, 2.0, lay)
        assert len(model.dissipators) == 3  # cavity loss + thermal pair

    def test_adiabatic_elimination_rates(self):
        p = SystemParams(g=1.0, kappa=20.0, gamma_m=0.05, n_bar=2.0)
        assert p.kappa_prime == pytest.approx(0.05)
        assert p.gamma_prime == pytest.approx(0.1)
        assert p.n_bar_prime == pytest.approx(1.0)
        single = adiabatic_eliminate(p, 4)
        assert single.layout.dim == 4
        assert [d.rate for d in single.dissipators] == [(1.0 + p.n_bar_prime) * p.gamma_prime,
                                                        p.n_bar_prime * p.gamma_prime]

    def test_elimination_requires_fast_cavity(self):
        p = SystemParams(g=1.0, kappa=2.0, gamma_m=0.05, n_bar=2.0)
        with pytest.raises(PreconditionError):
            adiabatic_eliminate(p, 4)

    def test_elimination_warns_in_marginal_regime(self):
        p = SystemParams(g=1.0, kappa=7.0, gamma_m=0.05, n_bar=2.0)
        with pytest.warns(UserWarning):
            adiabatic_eliminate(p, 4)

    def test_zero_coupling_leaves_mech_unchanged(self):
        p = SystemParams(g=0.0, kappa=20.0, gamma_m=0.05, n_bar=2.0)
        assert p.kappa_prime == 0.0
        assert p.gamma_prime == pytest.approx(p.gamma_m)
        single = adiabatic_eliminate(p, 4)
        assert [d.rate for d in single.dissipators] == [(1.0 + p.n_bar) * p.gamma_m,
                                                        p.n_bar * p.gamma_m]

    def test_eliminated_model_steady_occupation(self):
        model = eliminated_model(0.1, 0.5, 15)
        ss = steady_state(model)
        n_mean = np.real(np.trace(number(15).matrix @ ss.matrix))
        assert n_mean == pytest.approx(0.5, rel=1e-4)

    def test_two_mode_cooling_reaches_effective_limit(self):
        # modest regime: full model steady occupation near n_bar gamma / gamma'
        lay = SpaceLayout.of(("a", 3), ("a_m", 6))
        g, kappa, gamma, n_bar = 1.0, 20.0, 0.05, 0.8
        model = cooling_model(g, kappa, gamma, n_bar, lay)
        ss = steady_state(model)
        n_mech = embed(number(6), lay, "a_m")
        n_mean = np.real(np.trace(n_mech.matrix @ ss.matrix))
        expected = n_bar * gamma / (gamma + g ** 2 / kappa)
        assert n_mean == pytest.approx(expected, rel=0.1)


class TestGlobalGeneratorPinning:
    """Neither ``evolve`` nor ``steady_state`` may read NumPy's global
    generator: a propagator or condition estimate that drew random start
    vectors from it made this model's state at t = 20 differ at the 1e-14
    level between global seeds."""

    @staticmethod
    def _cooling():
        lay = SpaceLayout.of(("a", 2), ("a_m", 6))
        rho0 = np.kron(np.diag([1.0, 0.0]), thermal_state(6, 1.0).matrix)
        return cooling_model(1.0, 20.0, 0.05, 3.0, lay), DensityMatrix(lay, rho0)

    def test_evolve_independent_of_global_seed(self):
        model, rho0 = self._cooling()
        finals = set()
        for seed in range(8):
            np.random.seed(seed)
            res = evolve(model, rho0, 20.0, num_samples=2, truncation_threshold=1.0)
            finals.add(res.final().tobytes())
        assert len(finals) == 1

    def test_global_generator_state_untouched(self):
        model, rho0 = self._cooling()
        np.random.seed(11)
        before = np.random.get_state()
        evolve(model, rho0, 20.0, num_samples=2, truncation_threshold=1.0)
        steady_state(model)
        after = np.random.get_state()
        assert np.array_equal(before[1], after[1])
        assert before[:1] + before[2:] == after[:1] + after[2:]
