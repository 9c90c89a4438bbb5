"""Tests for the independent exact-dynamics oracle and the cross-validation
batch."""

from types import MappingProxyType

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from cryomech import lindblad, oracle, protocols
from cryomech.fockspace import (
    DensityMatrix,
    FockOperator,
    SpaceLayout,
    StateVector,
    annihilation,
    embed,
    number,
    partial_trace,
    pauli,
    thermal_state,
)
from cryomech.gates import CORRECTION_TABLE, HADAMARD
from cryomech.lindblad import (
    Dissipator,
    LindbladModel,
    cooling_model,
    evolve,
    liouvillian_matrix,
    steady_state,
    thermal_dissipators,
)
from cryomech.model import SpinParams, SystemParams, build_jc, build_spin_mech
from cryomech.oracle import (
    _build_liouvillian,
    _random_density,
    exact_liouville_evolve,
    exact_unitary_evolve,
    lindblad_rhs,
    state_fidelity,
    trace_distance,
    verify_all,
    verify_teleportation,
)
from cryomech.protocols import _swap_channel, _swap_pieces

from basis import fock_state, sample_matrices


class TestExactEvolution:
    def test_unitary_phase(self):
        lay = SpaceLayout.single("m", 3)
        h = FockOperator(lay, np.diag([0.0, 1.0, 2.0]).astype(complex))
        psi0 = fock_state(lay, {"m": 1})
        t = 0.37
        out = exact_unitary_evolve(h, psi0, t)
        assert np.isclose(out.amplitudes[1], np.exp(-1j * t))

    def test_liouville_matches_engine(self):
        a = annihilation(4, "m")
        h = FockOperator(a.layout, 0.8 * number(4).matrix)
        model = LindbladModel(h, thermal_dissipators(a, 0.3, 0.2))
        rho0 = DensityMatrix.from_state(fock_state(a.layout, {"m": 2}))
        exact = exact_liouville_evolve(model, rho0, 1.5)
        num = evolve(model, rho0, 1.5, num_samples=2, method="adaptive",
                     truncation_threshold=1.0).final()
        assert trace_distance(exact.matrix, num) < 1e-8

    def test_closed_system_conserves_energy(self):
        lay = SpaceLayout.single("m", 4)
        rng = np.random.default_rng(2)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = FockOperator(lay, m + m.conj().T)
        model = LindbladModel(h)
        rho0 = DensityMatrix.from_state(fock_state(lay, {"m": 1}))
        out = exact_liouville_evolve(model, rho0, 2.0)
        e0 = np.trace(h.matrix @ rho0.matrix)
        e1 = np.trace(h.matrix @ out.matrix)
        assert np.isclose(e0, e1, atol=1e-9)


def _two_mode_cooling():
    """Sideband cooling on a (3, 4) layout, fast enough to relax by t = 100."""
    return cooling_model(1.0, 2.0, 0.5, 0.3, SpaceLayout.of(("a", 3), ("a_m", 4)))


def _mode_spin():
    """Spin-mechanics model with thermal, spin-decay and dephasing dissipators.
    The sigma_y drive and sigma_y dephasing make H and one jump operator
    complex, so a conjugation or transposition slip in the generator shows."""
    layout = SpaceLayout.of(("a_m", 4), ("spin", 2, "spin-half"))
    b = embed(annihilation(4, "a_m"), layout, "a_m")
    sminus = embed(FockOperator(SpaceLayout.single("spin", 2, "spin-half"),
                                np.array([[0, 0], [1, 0]], dtype=complex)), layout, "spin")
    sy = embed(pauli("y"), layout, "spin")
    h = build_spin_mech(SystemParams(omega_m=1.0),
                        SpinParams(lam=0.05, Delta_e=0.3, Omega_d_prime=0.6), layout)
    h = FockOperator(layout, h.matrix + 0.2 * sy.matrix)
    diss = thermal_dissipators(b, 0.2, 0.4) + (
        Dissipator(sminus, 0.05), Dissipator(embed(pauli("z"), layout, "spin"), 0.02),
        Dissipator(sy, 0.01))
    return LindbladModel(h, diss)


class TestSparseEngineAgainstOracle:
    """The engine's sparse generator, propagators and steady state against
    the oracle's dense generator and Taylor exponential."""

    @pytest.mark.parametrize("build", [_two_mode_cooling, _mode_spin])
    def test_generator_matches_dense(self, build):
        model = build()
        dense = _build_liouvillian(model)
        sparse = liouvillian_matrix(model).toarray()
        assert np.linalg.norm(sparse - dense) <= 1e-13 * np.linalg.norm(dense)

    def test_rhs_matches_vectorized_generator(self):
        rng = np.random.default_rng(4)
        a = annihilation(4, "m")
        model = LindbladModel(FockOperator(a.layout, np.zeros((4, 4), dtype=complex)),
                              thermal_dissipators(a, 0.7, 0.4))
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m + m.conj().T
        direct = lindblad_rhs(model, rho)
        L = liouvillian_matrix(model)
        via_l = (L @ rho.T.reshape(-1)).reshape(4, 4).T
        assert np.allclose(direct, via_l)

    @pytest.mark.parametrize("method", ["expm", "adaptive"])
    def test_evolve_matches_exact(self, method):
        model = _two_mode_cooling()
        lay = model.layout
        rho0 = DensityMatrix(lay, np.kron(np.diag([1.0, 0, 0]),
                                          np.diag([0.1, 0.6, 0.3, 0.0])).astype(complex))
        exact = exact_liouville_evolve(model, rho0, 1.7)
        num = evolve(model, rho0, 1.7, num_samples=4, method=method,
                     truncation_threshold=1.0).final()
        assert trace_distance(exact.matrix, num) < 1e-8

    def test_steady_state_matches_long_time_limit(self):
        model = _two_mode_cooling()
        rho0 = DensityMatrix.from_state(fock_state(model.layout, {"a_m": 2}))
        limit = exact_liouville_evolve(model, rho0, 100.0)
        assert trace_distance(steady_state(model).matrix, limit.matrix) < 1e-8


def _jc_mode_spin():
    """Damped Jaynes-Cummings exchange in the sigma_z basis: every term keeps
    or shifts the excitation number n + (spin up), so the generator splits
    into blocks by the excitation difference of bra and ket."""
    layout = SpaceLayout.of(("a_m", 4), ("spin", 2, "spin-half"))
    b = embed(annihilation(4, "a_m"), layout, "a_m")
    sminus = embed(FockOperator(SpaceLayout.single("spin", 2, "spin-half"),
                                np.array([[0, 0], [1, 0]], dtype=complex)), layout, "spin")
    sz = embed(pauli("z"), layout, "spin")
    exchange = b.matrix @ sminus.matrix.conj().T
    h = FockOperator(layout, 1.1 * b.matrix.conj().T @ b.matrix + 0.45 * sz.matrix
                     + 0.3 * (exchange + exchange.conj().T))
    diss = thermal_dissipators(b, 0.2, 0.4) + (Dissipator(sminus, 0.05), Dissipator(sz, 0.02))
    return LindbladModel(h, diss)


def _closure(pattern, reach):
    """Fixed point of ``reach | (pattern @ reach > 0)`` on a dense 0/1 pattern."""
    while not np.array_equal(grown := reach | (pattern @ reach > 0), reach):
        reach = grown
    return reach


def _reachable_mask(model, rho0):
    """Entries of vec(rho) that the oracle's dense generator can reach from the
    support of vec(rho0), by repeated application of its nonzero pattern."""
    return _closure((_build_liouvillian(model) != 0).astype(int),
                    rho0.matrix.T.reshape(-1) != 0)


@st.composite
def _pattern_and_support(draw):
    """A random sparse n x n pattern (n <= 30) and a nonempty support."""
    n = draw(st.integers(1, 30))
    index = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(index, index), max_size=3 * n))
    rows, cols = zip(*entries) if entries else ((), ())
    L = sp.csr_array((np.ones(len(entries)), (rows, cols)), shape=(n, n))
    support = np.array(sorted(draw(st.sets(index, min_size=1))), dtype=np.intp)
    return L, support


class TestReachableBlock:
    """``evolve(method="expm")`` propagates only the block of the generator
    reachable from the initial support, on the path its count rule picks:
    the stepper, or the propagator with k = 0 or k > 0 squarings.
    ``verify_all`` starts from full-support states, so only these starts
    exercise the restriction; each asserts the path it covers."""

    @staticmethod
    def _check_samples(model, rho0, path, duration=2.5, num_samples=6):
        res = evolve(model, rho0, duration, num_samples=num_samples, method="expm",
                     truncation_threshold=1.0)
        assert res.path == path
        reach = _reachable_mask(model, rho0)
        # every entry off the result's block is exactly 0
        assert np.array_equal(res.block, np.flatnonzero(reach))
        for t, rho in zip(res.times, sample_matrices(res)):
            ref = exact_liouville_evolve(model, rho0, t).matrix
            assert np.abs(rho - ref).max() <= 1e-12
        return reach, res.schedule

    def test_fock_diagonal_cooling_start(self):
        model = cooling_model(1.0, 3.0, 0.2, 0.5, SpaceLayout.of(("a", 2), ("a_m", 6)))
        rho0 = DensityMatrix(model.layout, np.kron(np.diag([1.0, 0.0]),
                                                   thermal_state(6, 0.8).matrix))
        reach, _ = self._check_samples(model, rho0, "propagator")
        assert reach.sum() < reach.size // 4

    def test_single_coherence_mode_spin_start(self):
        model = _jc_mode_spin()
        rho = np.diag(np.linspace(1.0, 2.0, 8)).astype(complex)
        rho[2, 4] = 0.1 + 0.2j  # |1, up><2, up|: excitation difference 1
        rho[4, 2] = np.conj(rho[2, 4])
        reach, _ = self._check_samples(model, DensityMatrix(model.layout, rho / np.trace(rho)),
                                       "propagator")
        assert 0 < reach.sum() < reach.size

    def test_full_support_start(self):
        """The whole 144-dim generator for 5 sample steps: the stepper."""
        model = cooling_model(1.0, 3.0, 0.2, 0.5, SpaceLayout.of(("a", 2), ("a_m", 6)))
        rho0 = DensityMatrix(model.layout,
                             _random_density(np.random.default_rng(8), model.layout.dim))
        reach, _ = self._check_samples(model, rho0, "stepper")
        assert reach.all()

    def test_transfer_start_unsquared_propagator(self):
        """A weakly damped transfer of (|0> + |1>)/sqrt(2) sampled 32 times,
        at the transfer sweep's step pi/(32 g): the propagator with no
        squaring.  Sampled 16 times it takes one squaring since a squaring
        is priced at a quarter of dim^3."""
        layout = SpaceLayout.of(("a", 2), ("a_m", 3))
        model = cooling_model(1.0, 0.01, 0.001, 0.01, layout)
        psi = np.kron([1.0, 1.0], [1.0, 0.0, 0.0]) / np.sqrt(2)
        rho0 = DensityMatrix(layout, np.outer(psi, psi).astype(complex))
        _, (_, _, k) = self._check_samples(model, rho0, "propagator", np.pi, 33)
        assert k == 0

    def test_stiff_cooling_start(self):
        """A sample step with ||h L_R||_1 ~ 344: the propagator with
        squarings."""
        model = cooling_model(1.0, 20.0, 0.05, 3.0, SpaceLayout.of(("a", 2), ("a_m", 6)))
        rho0 = DensityMatrix(model.layout, np.kron(np.diag([1.0, 0.0]),
                                                   thermal_state(6, 3.0).matrix))
        reach, (m, s, k) = self._check_samples(model, rho0, "propagator", 10.0, 3)
        assert k > 0
        block = np.flatnonzero(reach)
        taylor = lindblad._TaylorBlock(model.generator[block[:, None], block])
        # the stepper would run 55 x 35 matvecs a step; the propagator's one
        # series at h / 2^k runs the same rule at its own step
        assert taylor.schedule(5.0) == (55, 35)
        assert taylor.schedule(5.0 / 2 ** k) == (m, s)

    def test_block_cached_per_support(self):
        """One model evolved from two supports gets two blocks, each the
        reachable set of its start; a repeated support gets the cached one,
        and another model on the layout the same checker for the block."""
        model = cooling_model(1.0, 3.0, 0.2, 0.5, SpaceLayout.of(("a", 2), ("a_m", 6)))
        diagonal = np.kron(np.diag([1.0, 0.0]), thermal_state(6, 0.8).matrix)
        coherent = diagonal.astype(complex)
        coherent[0, 1] = coherent[1, 0] = 0.1  # |0, 0><0, 1|: excitation difference 1
        blocks = []
        for rho in (diagonal, coherent, diagonal):
            rho0 = DensityMatrix(model.layout, rho)
            blocks.append(model.reachable_block(np.flatnonzero(rho.T.reshape(-1))))
            assert np.array_equal(blocks[-1][0], np.flatnonzero(_reachable_mask(model, rho0)))
            final = evolve(model, rho0, 2.5, num_samples=2, truncation_threshold=1.0).final()
            ref = exact_liouville_evolve(model, rho0, 2.5).matrix
            assert np.abs(final - ref).max() <= 1e-12
        assert blocks[2] is blocks[0]
        assert blocks[1][0].size != blocks[0][0].size
        other = cooling_model(2.0, 5.0, 0.1, 0.5, model.layout)
        shared = other.reachable_block(np.flatnonzero(diagonal.T.reshape(-1)))
        assert np.array_equal(shared[0], blocks[0][0]) and shared[2] is blocks[0][2]

    @settings(max_examples=200, deadline=None)
    @given(_pattern_and_support())
    def test_reachable_is_the_invariant_closure(self, case):
        """On any sparsity pattern the block is sorted, holds the support, is
        the dense-pattern closure of it, and no stored entry L[j, i] leads
        from i in the block to j outside it."""
        L, support = case
        block = lindblad._reachable(L, support)
        assert np.array_equal(block, np.unique(block))
        assert np.isin(support, block).all()
        start = np.zeros(L.shape[0], dtype=bool)
        start[support] = True
        inside = np.zeros(L.shape[0], dtype=bool)
        inside[block] = True
        assert np.array_equal(inside, _closure((L.toarray() != 0).astype(int), start))
        coo = L.tocoo()
        assert not (inside[coo.col] & ~inside[coo.row]).any()


class TestTransferRefinement:
    """The series refinement of ``transfer_state`` against the dense oracle."""

    @staticmethod
    def _setup(g, kappa, amps):
        layout = SpaceLayout.of(("a", 4), ("a_m", 4))
        model = cooling_model(g, kappa, 0.001 * g, 0.01, layout)
        psi0 = np.kron(np.array([*amps, 0, 0], dtype=complex), np.eye(4)[0])
        return model, DensityMatrix(layout, np.outer(psi0, psi0.conj()))

    @staticmethod
    def _fidelity_at(model, rho0, amps, t):
        """The oracle's transfer fidelity at time t."""
        rho = partial_trace(exact_liouville_evolve(model, rho0, t), {"a_m"}).matrix
        return protocols._qubit_fidelity_up_to_phase(rho[0, 0], rho[1, 1], rho[0, 1], *amps)

    @pytest.mark.parametrize("kappa", [0.01, 3.0, 100.0])
    def test_series_matches_oracle(self, kappa):
        """Every piece of the series, one at kappa <= 3 g and several at
        100 g, gives tr(O rho(t)) of the oracle's state across the window."""
        model, rho0 = self._setup(1.0, kappa, (0.6, 0.8j))
        sweep = evolve(model, rho0, np.pi, num_samples=33, truncation_threshold=1.0)
        unit = np.eye(4, dtype=complex)
        mech = SpaceLayout.single("a_m", 4)
        ops = [embed(FockOperator(mech, np.outer(unit[l], unit[k])), model.layout, "a_m")
               for k, l in ((0, 0), (1, 1), (0, 1), (1, 2))]
        series = lindblad.expectation_series(model, sweep, 10, ops)
        assert (series.offsets.size > 1) == (kappa == 100.0)
        x = np.array([-1.0, 0.5, 1.0])
        values = series.evaluate(x)[0]
        for i, offset in enumerate(series.offsets):
            for j, t in enumerate(sweep.times[10] + offset + x * series.radius):
                rho = exact_liouville_evolve(model, rho0, t).matrix
                exact = [np.trace(op.matrix @ rho) for op in ops]
                assert np.abs(values[i, :, j] - exact).max() <= 1e-12

    @pytest.mark.parametrize("kappa, amps", [
        *((kappa, amps) for kappa in (0.01, 3.0, 100.0) for amps in ((0.6, 0.8j), (0.8, -0.6j))),
        # no coherence term: F = rho_11 (at 100 g it still rises at pi/g + h)
        (0.01, (0, 1)), (3.0, (0, 1))])
    def test_transfer_time_is_local_maximum(self, kappa, amps):
        """The reported time maximizes the oracle's transfer fidelity on its
        neighbourhood: F(t) >= F(t +- 1e-4 h) - 1e-13, h = pi/(32 g).  The
        reported fidelity, read from the sweep's series, is the oracle's F
        at that time within 1e-12."""
        g = 1.0
        model, rho0 = self._setup(g, kappa * g, amps)
        res = protocols.transfer_state(
            StateVector(SpaceLayout.single("a", 4), np.array([*amps, 0, 0], dtype=complex)),
            g, kappa=kappa * g, gamma_m=0.001 * g, n_bar=0.01)
        peak = self._fidelity_at(model, rho0, amps, res.time)
        assert peak == pytest.approx(res.fidelity, abs=1e-12)
        for dt in (-1e-4, 1e-4):
            t = res.time + dt * np.pi / (32.0 * g)
            assert peak >= self._fidelity_at(model, rho0, amps, t) - 1e-13

    @pytest.mark.parametrize("kappa", [0.01, 100.0])
    def test_peak_at_zero_reports_first_sample(self, kappa):
        """|0> on the cavity: F = rho_00 is largest at t = 0, which is no
        transfer time, so the first sample is reported, with its own F, the
        oracle's there within 1e-12."""
        model, rho0 = self._setup(1.0, kappa, (1, 0))
        res = protocols.transfer_state(
            StateVector(SpaceLayout.single("a", 4), np.array([1, 0, 0, 0], dtype=complex)),
            1.0, kappa=kappa, gamma_m=0.001, n_bar=0.01)
        assert res.time == np.linspace(0.0, np.pi, 33)[1]
        assert self._fidelity_at(model, rho0, (1, 0), res.time) == pytest.approx(
            res.fidelity, abs=1e-12)


def _swap_reference(d, lam):
    """Layout, exchange Hamiltonian, swap time pi/(4 lam) and the closed-form
    phase corrections of the spin-phonon swap, written out independently of
    :mod:`cryomech.protocols`: i^n on the phonon ladder forward, i on the
    dressed excited spin (the -x eigenstate) backward."""
    layout = SpaceLayout.of(("a_m", d), ("spin", 2, "spin-half"))
    excited = np.array([1.0, -1.0]) / np.sqrt(2)
    corrections = {
        "spin->mech": np.kron(np.diag(1j ** np.arange(d)), np.eye(2)),
        "mech->spin": np.kron(np.eye(d), np.eye(2) + (1j - 1) * np.outer(excited, excited)),
    }
    return layout, build_jc(lam, layout), np.pi / (4.0 * lam), corrections


class TestSwapChannelAgainstOracle:
    """The swap channel, with its closed-form time and phase corrections,
    against the oracle's eigendecomposition and Taylor exponential."""

    LAM = 1.3

    @pytest.mark.parametrize("direction", ["spin->mech", "mech->spin"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_undamped_is_corrected_unitary(self, d, direction):
        layout, h, t, corrections = _swap_reference(d, self.LAM)
        c = corrections[direction]

        def swap(psi):
            return c @ exact_unitary_evolve(h, StateVector(layout, psi), t).amplitudes

        # the corrections make the swap exact: |e,0> <-> |g,1>, |g,0> fixed
        e0, g1, g0 = (np.kron(np.eye(d)[n], np.array([1.0, s]) / np.sqrt(2))
                      for n, s in ((0, -1.0), (1, 1.0), (0, 1.0)))
        src, dst = (e0, g1) if direction == "spin->mech" else (g1, e0)
        assert np.allclose(swap(src), dst, atol=1e-12)
        assert np.allclose(swap(g0), g0, atol=1e-12)

        rng = np.random.default_rng(d)
        for _ in range(3):
            psi = rng.normal(size=2 * d) + 1j * rng.normal(size=2 * d)
            psi /= np.linalg.norm(psi)
            out = _swap_channel(DensityMatrix(layout, np.outer(psi, psi.conj())),
                                direction, _swap_pieces(self.LAM, d))
            ref = swap(psi)
            assert np.abs(out.matrix - np.outer(ref, ref.conj())).max() < 1e-12

    @pytest.mark.parametrize("direction", ["spin->mech", "mech->spin"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_damped_is_corrected_liouville(self, d, direction):
        gamma, n_bar = 0.1, 0.2
        layout, h, t, corrections = _swap_reference(d, self.LAM)
        c = corrections[direction]
        b = embed(annihilation(d, "a_m"), layout, "a_m")
        model = LindbladModel(h, thermal_dissipators(b, gamma, n_bar))
        rng = np.random.default_rng(10 + d)
        for _ in range(3):
            m = rng.normal(size=(2 * d, 2 * d)) + 1j * rng.normal(size=(2 * d, 2 * d))
            rho = DensityMatrix(layout, m @ m.conj().T / np.trace(m @ m.conj().T))
            out = _swap_channel(rho, direction, _swap_pieces(self.LAM, d, gamma, n_bar))
            ref = c @ exact_liouville_evolve(model, rho, t).matrix @ c.conj().T
            assert trace_distance(out.matrix, ref) < 1e-10


class TestMetrics:
    def test_trace_distance_extremes(self):
        r0 = np.diag([1.0, 0.0]).astype(complex)
        r1 = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(r0, r0) == pytest.approx(0.0, abs=1e-12)
        assert trace_distance(r0, r1) == pytest.approx(1.0)

    def test_state_fidelity_pure(self):
        psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        r = np.outer(psi, psi.conj())
        assert state_fidelity(r, r) == pytest.approx(1.0, abs=1e-12)
        assert state_fidelity(r, np.diag([1.0, 0.0]).astype(complex)) == pytest.approx(0.5)

    def test_fuchs_van_de_graaff(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            def rnd():
                m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                m = m @ m.conj().T
                return m / np.trace(m)

            r, s = rnd(), rnd()
            t, f = trace_distance(r, s), state_fidelity(r, s)
            assert 1.0 - np.sqrt(f) <= t + 1e-9
            assert t <= np.sqrt(1.0 - f) + 1e-9


class TestTeleportationVerification:
    def test_default_circuit_table(self):
        report, table = verify_teleportation()
        assert report.passed
        assert table is not None
        assert set(table) == {"00", "01", "10", "11"}
        # every branch needs the Hadamard-composed family, never a bare Pauli
        assert all(name.endswith("H") for name in table.values())
        # the engine's fixed table is the one the search derives
        assert table == dict(CORRECTION_TABLE)

    def test_swapped_table_fails_verify_all(self, monkeypatch):
        # two swapped corrections leave the search's table unchanged, but the
        # engine's no longer matches it, so verify-all's table report fails
        mapping = dict(CORRECTION_TABLE)
        mapping["00"], mapping["01"] = mapping["01"], mapping["00"]
        monkeypatch.setattr(oracle, "CORRECTION_TABLE", MappingProxyType(mapping))
        report, table = verify_teleportation()
        assert not report.passed and table != mapping
        (report,) = [r for r in verify_all(seed=0, instances=0)
                     if r.quantity == "teleportation correction table"]
        assert not report.passed and report.engine_value == str(mapping)

    def test_corrupted_cphase_fails(self):
        bad = np.kron(HADAMARD, HADAMARD) @ np.diag([1.0, 1.0, 1.0, 1.0])
        report, table = verify_teleportation(bell_circuit=bad)
        assert not report.passed
        assert table is None

    def test_identity_circuit_fails(self):
        report, table = verify_teleportation(bell_circuit=np.eye(4))
        assert not report.passed
        assert table is None

    def test_wrong_resource_fails(self):
        resource = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)  # product state
        report, table = verify_teleportation(resource=resource)
        assert not report.passed


class TestVerifyAll:
    def test_batch_passes(self):
        reports = verify_all(seed=1, instances=4)
        assert reports
        for r in reports:
            assert r.passed, f"{r.quantity}: {r.distance} > {r.tolerance}"

    def test_deterministic_given_seed(self):
        a = verify_all(seed=5, instances=2)
        b = verify_all(seed=5, instances=2)
        assert [r.distance for r in a] == [r.distance for r in b]
