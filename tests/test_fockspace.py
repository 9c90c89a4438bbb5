"""Tests for the labelled tensor-space layer: operators, states and
reductions."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cryomech.fockspace import (
    BOSONIC,
    DensityMatrix,
    FockOperator,
    SpaceLayout,
    StateVector,
    annihilation,
    embed,
    full_block,
    kron_states,
    number,
    partial_trace,
    pauli,
    sigma_pm,
    thermal_state,
    top_level_population,
    vec_block,
)

from basis import fock_state


class TestSpaceLayout:
    def test_labels_dims(self):
        lay = SpaceLayout.of(("a", 4), ("a_m", 6))
        assert lay.dim == 24
        assert lay.dims == (4, 6)
        assert lay.labels == ("a", "a_m")
        assert lay.index("a_m") == 1

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            SpaceLayout.of(("a", 2), ("a", 3))

    def test_unknown_label(self):
        lay = SpaceLayout.single("a", 3)
        with pytest.raises(KeyError):
            lay.index("b")


class TestLadderOperators:
    def test_commutator_canonical(self):
        # [a, a^dag] = 1 on all but the top truncated level
        dim = 8
        a = annihilation(dim, "m").matrix
        ad = a.conj().T
        c = a @ ad - ad @ a
        expected = np.eye(dim)
        expected[-1, -1] = 1 - dim  # truncation artifact in the last level
        assert np.allclose(c, expected)

    def test_number_counts(self):
        n = number(5)
        psi = fock_state(SpaceLayout.single("m", 5), {"m": 3})
        assert np.isclose(np.vdot(psi.amplitudes, n.matrix @ psi.amplitudes).real, 3.0)

    def test_annihilation_matrix_elements(self):
        a = annihilation(4, "m").matrix
        for k in range(1, 4):
            assert np.isclose(a[k - 1, k], np.sqrt(k))

    def test_dim_below_two_rejected(self):
        with pytest.raises(ValueError):
            annihilation(1, "m")


class TestPauli:
    def test_squares_to_identity(self):
        for axis in "xyz":
            m = pauli(axis).matrix
            assert np.allclose(m @ m, np.eye(2))

    def test_commutation(self):
        sx, sy, sz = (pauli(ax).matrix for ax in "xyz")
        assert np.allclose(sx @ sy - sy @ sx, 2j * sz)

    def test_ladder_anticommutator_scale(self):
        # sigma_pm = sigma_z + i sigma_y and its adjoint sigma_z - i sigma_y,
        # so s+s- + s-s+ = 4 I
        sp = sigma_pm().matrix
        sm = sigma_pm().dagger().matrix
        assert np.allclose(sp @ sm + sm @ sp, 4.0 * np.eye(2))

    def test_ladder_is_x_basis_rung(self):
        # sigma_+ maps the +x eigenstate to 2 x the -x eigenstate (the -x
        # state plays the role of the excited dressed level) and kills -x
        sp = sigma_pm().matrix
        minus_x = np.array([1.0, -1.0]) / np.sqrt(2)
        plus_x = np.array([1.0, 1.0]) / np.sqrt(2)
        assert np.allclose(sp @ plus_x, 2.0 * minus_x)
        assert np.allclose(sp @ minus_x, 0.0)


class TestEmbed:
    def test_embedding_acts_on_target_only(self):
        lay = SpaceLayout.of(("a", 3), ("b", 2))
        na = embed(number(3), lay, "a")
        psi = fock_state(lay, {"a": 2, "b": 1})
        assert np.isclose(np.vdot(psi.amplitudes, na.matrix @ psi.amplitudes).real, 2.0)

    def test_wrong_dim_rejected(self):
        lay = SpaceLayout.of(("a", 3), ("b", 2))
        with pytest.raises(ValueError):
            embed(number(4), lay, "a")

    def test_embedded_identity(self):
        lay = SpaceLayout.of(("a", 2), ("b", 2))
        ident = embed(FockOperator(SpaceLayout.single("a", 2), np.eye(2, dtype=complex)),
                      lay, "a")
        assert np.allclose(ident.matrix, np.eye(4))


class TestFockOperator:
    @pytest.mark.parametrize("entries, hermitian", [
        ([[0, 1e300], [0, 0]], False),
        ([[1e300, 1e300j], [-1e300j, 0]], True),
        # the norms' squares underflow to 0
        ([[0, 1e-170], [0, 0]], False),
        ([[1e-170, 1e-170j], [-1e-170j, 0]], True),
    ], ids=["large-nonhermitian", "large-hermitian", "tiny-nonhermitian", "tiny-hermitian"])
    def test_is_hermitian_at_the_ends_of_the_float_range(self, entries, hermitian):
        # the Frobenius norms overflowed to inf, and inf <= tol * inf held
        op = FockOperator(SpaceLayout.single("m", 2), np.array(entries, dtype=complex))
        assert op.is_hermitian() == hermitian


class TestStates:
    def test_norm_enforced(self):
        lay = SpaceLayout.single("m", 3)
        with pytest.raises(ValueError):
            StateVector(lay, np.array([1.0, 1.0, 0.0], dtype=complex))

    def test_kron_states(self):
        a = fock_state(SpaceLayout.single("a", 2), {"a": 1})
        b = fock_state(SpaceLayout.single("b", 3), {"b": 2})
        ab = kron_states(a, b)
        assert ab.layout.labels == ("a", "b")
        assert np.isclose(abs(ab.amplitudes[1 * 3 + 2]), 1.0)

    def test_thermal_state_mean(self):
        n_bar = 1.2
        rho = thermal_state(40, n_bar)
        n = number(40)
        assert np.isclose(np.trace(n.matrix @ rho.matrix).real, n_bar, rtol=1e-6)

    def test_thermal_zero_is_ground(self):
        rho = thermal_state(5, 0.0)
        assert np.isclose(rho.matrix[0, 0].real, 1.0)


class TestDensityMatrix:
    def test_invariants_enforced(self):
        lay = SpaceLayout.single("m", 2)
        with pytest.raises(ValueError):
            DensityMatrix(lay, np.array([[0.7, 0.0], [0.0, 0.7]], dtype=complex))
        with pytest.raises(ValueError):
            DensityMatrix(lay, np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex))

    def test_nan_refused(self):
        """A nan fails every comparison, so each invariant is tested as "not
        within its bound": a nan entry breaks the first invariant it reaches
        instead of passing them all."""
        lay = SpaceLayout.single("m", 2)
        found = full_block(lay).fault(np.full((1, 4), np.nan), 1e-9, 1e-10, 1e-7)
        assert found is not None and found[0] == 0 and isinstance(found[1], ValueError)
        with pytest.raises(ValueError, match="trace .*nan"):
            DensityMatrix(lay, np.full((2, 2), np.nan))
        # the trace holds, the nan sits in rho_10 alone
        with pytest.raises(ValueError, match="not hermitian"):
            DensityMatrix(lay, np.array([[0.5, 0.0], [np.nan, 0.5]]))


class TestVecBlockCache:
    def test_one_checker_per_layout_and_indices(self):
        """Models on one layout share the checker of one index set, whatever
        the indices' integer type; ``full_block`` is the all-n^2 set."""
        lay = SpaceLayout.of(("a", 2), ("m", 3))
        full = full_block(lay)
        assert vec_block(lay, np.arange(36, dtype=np.int32)) is full
        assert not full.indices.flags.writeable
        pair = vec_block(lay, np.array([0, 7]))
        assert vec_block(lay, np.array([0, 7], dtype=np.int32)) is pair
        assert vec_block(SpaceLayout.of(("a", 3), ("m", 2)), np.array([0, 7])) is not pair


class TestPartialTrace:
    def test_product_state(self):
        lay = SpaceLayout.of(("a", 2), ("b", 3))
        rho_a = np.diag([0.25, 0.75]).astype(complex)
        rho_b = np.diag([0.5, 0.3, 0.2]).astype(complex)
        rho = DensityMatrix(lay, np.kron(rho_a, rho_b))
        red = partial_trace(rho, {"a"})
        assert np.allclose(red.matrix, rho_a)

    def test_bell_state_maximally_mixed(self):
        lay = SpaceLayout.of(("a", 2), ("b", 2))
        v = np.zeros(4, dtype=complex)
        v[1] = v[2] = 1 / np.sqrt(2)
        rho = DensityMatrix.from_state(StateVector(lay, v))
        red = partial_trace(rho, {"a"})
        assert np.allclose(red.matrix, 0.5 * np.eye(2))

    def test_trace_preserved_on_random_state(self):
        rng = np.random.default_rng(11)
        lay = SpaceLayout.of(("a", 3), ("b", 2))
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = m @ m.conj().T
        m = m / np.trace(m)
        rho = DensityMatrix(lay, m)
        assert np.isclose(np.trace(partial_trace(rho, {"b"}).matrix).real, 1.0)

    def test_empty_keep_rejected(self):
        lay = SpaceLayout.of(("a", 2), ("b", 2))
        rho = DensityMatrix(lay, 0.25 * np.eye(4, dtype=complex))
        with pytest.raises(ValueError):
            partial_trace(rho, set())

    def test_order_preserved(self):
        lay = SpaceLayout.of(("a", 2), ("b", 2), ("c", 2))
        rho = DensityMatrix(lay, np.eye(8, dtype=complex) / 8)
        red = partial_trace(rho, {"a", "c"})
        assert red.layout.labels == ("a", "c")


class TestTopLevelPopulation:
    def test_ground_state_has_no_leak(self):
        lay = SpaceLayout.of(("a", 4), ("b", 4))
        rho = DensityMatrix.from_state(fock_state(lay, {}))
        pops = top_level_population(rho)
        assert set(pops) == {"a", "b"}
        assert all(v < 1e-15 for v in pops.values())

    def test_top_level_detected(self):
        lay = SpaceLayout.single("a", 4)
        rho = DensityMatrix.from_state(fock_state(lay, {"a": 3}))
        assert np.isclose(top_level_population(rho)["a"], 1.0)

    def test_marginals_of_mode_spin_mode_state(self):
        lay = SpaceLayout.of(("a", 4), ("spin", 2, "spin-half"), ("b", 5))
        rng = np.random.default_rng(3)
        g = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        rho = DensityMatrix(lay, g @ g.conj().T / np.trace(g @ g.conj().T).real)
        pops = top_level_population(rho)
        assert set(pops) == {"a", "b"}
        for label, pop in pops.items():
            diag = np.real(np.diag(partial_trace(rho, {label}).matrix))
            assert abs(pop - diag[-2:].sum()) <= 1e-15


# ---------------------------------------------------------------------------
# Properties on random layouts of 1-3 subsystems, dims 2-4, spin-half allowed
# ---------------------------------------------------------------------------

PROPERTY = settings(derandomize=True, max_examples=50, deadline=None)


@st.composite
def layouts(draw):
    specs = []
    for k in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            specs.append((f"s{k}", 2, "spin-half"))
        else:
            specs.append((f"s{k}", draw(st.integers(2, 4))))
    return SpaceLayout.of(*specs)


def _random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _random_density(rng, n):
    g = _random_matrix(rng, n)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestLayoutProperties:
    @PROPERTY
    @given(layout=layouts(), data=st.data())
    def test_embed_is_kron_in_declaration_order(self, layout, data):
        target = data.draw(st.sampled_from(layout.subsystems))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        op = _random_matrix(rng, target.dim)
        single = FockOperator(SpaceLayout((target,)), op)
        factors = [op if sub is target else np.eye(sub.dim) for sub in layout.subsystems]
        assert np.array_equal(embed(single, layout, target.label).matrix,
                              reduce(np.kron, factors))

    @PROPERTY
    @given(layout=layouts(), data=st.data())
    def test_partial_trace_of_product_keeps_its_factors(self, layout, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        factors = [_random_density(rng, sub.dim) for sub in layout.subsystems]
        keep = data.draw(st.sets(st.sampled_from(layout.labels), min_size=1))
        red = partial_trace(DensityMatrix(layout, reduce(np.kron, factors)), keep)
        kept = [f for f, label in zip(factors, layout.labels) if label in keep]
        assert red.layout.labels == tuple(label for label in layout.labels if label in keep)
        assert np.abs(red.matrix - reduce(np.kron, kept)).max() <= 1e-14

    @PROPERTY
    @given(layout=layouts(), seed=st.integers(0, 2 ** 32 - 1))
    def test_top_level_population_of_each_reduced_mode(self, layout, seed):
        rho = DensityMatrix(layout, _random_density(np.random.default_rng(seed), layout.dim))
        pops = top_level_population(rho)
        assert set(pops) == {sub.label for sub in layout.subsystems
                             if sub.kind == BOSONIC and sub.dim > 2}
        for label, pop in pops.items():
            diag = np.real(np.diag(partial_trace(rho, {label}).matrix))
            assert abs(pop - diag[-2:].sum()) <= 1e-14
