import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qthermo import (
    DensityMatrix,
    Hamiltonian,
    partial_trace,
    pure_state,
    purify,
    relative_entropy_of_coherence,
    trace_distance,
    von_neumann_entropy,
)

from conftest import LN2


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_allows_tiny_negative_eigenvalue(self):
        rho = DensityMatrix(np.diag([1.0 + 5e-10, -5e-10]).astype(complex))
        assert rho.dim == 2

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="dims"):
            DensityMatrix(np.eye(4, dtype=complex) / 4.0, dims=(3, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, bad):
        m = np.eye(2, dtype=complex) / 2
        m[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(m)

    def test_state_is_a_read_only_copy(self):
        m = np.diag([0.25, 0.75]).astype(complex)
        rho = DensityMatrix(m)
        assert rho.matrix is not m
        with pytest.raises(ValueError, match="read-only"):
            rho.matrix[0, 0] = 1.0
        m[0, 0], m[1, 1] = 1.0, 0.0
        assert_allclose(rho.matrix, np.diag([0.25, 0.75]), atol=0)
        assert_allclose(von_neumann_entropy(rho), -0.25 * np.log(0.25) - 0.75 * np.log(0.75))

    def test_eigenvalues_is_a_copy_of_the_kept_spectrum(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        spectrum = rho.eigenvalues()
        spectrum[:] = 0.0
        assert_allclose(rho.eigenvalues(), [0.25, 0.75], atol=0)


class TestPartialTrace:
    def test_product_state(self, rng):
        a = np.diag([0.3, 0.7]).astype(complex)
        b = np.diag([0.9, 0.1]).astype(complex)
        joint = DensityMatrix(np.kron(a, b), dims=(2, 2))
        assert_allclose(partial_trace(joint, "A").matrix, a, atol=1e-12)
        assert_allclose(partial_trace(joint, "B").matrix, b, atol=1e-12)

    def test_bell_marginal_is_maximally_mixed(self, bell_state):
        assert_allclose(partial_trace(bell_state, "A").matrix, np.eye(2) / 2, atol=1e-12)

    def test_steady_state_marginal_is_thermal(self):
        # weights of the closed-form c = 1 steady state, entered directly
        from qthermo.dissipation import KET_EE, KET_GG, PSI_PLUS

        x = np.exp(-10.0)
        z_plus = 1.0 + x + x * x
        m = (
            x * x * np.outer(KET_EE, KET_EE.conj())
            + x * np.outer(PSI_PLUS, PSI_PLUS.conj())
            + np.outer(KET_GG, KET_GG.conj())
        ) / z_plus
        marginal = partial_trace(DensityMatrix(m, dims=(2, 2)), "B").matrix
        p_g = (1.0 + x / 2.0) / z_plus
        assert_allclose(np.diag(marginal).real, [1.0 - p_g, p_g], atol=1e-12)

    def test_missing_dims_rejected(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
        with pytest.raises(ValueError, match="dims"):
            partial_trace(rho, "A")


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(pure_state([1.0, 0.0])) == 0.0

    def test_maximally_mixed(self):
        for d in (2, 3, 4):
            rho = DensityMatrix(np.eye(d, dtype=complex) / d)
            assert_allclose(von_neumann_entropy(rho), np.log(d), atol=1e-12)

    def test_two_level_mixture(self):
        # -0.25 ln 0.25 - 0.75 ln 0.75 by scalar arithmetic
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        assert_allclose(von_neumann_entropy(rho), 0.5623351446188083, atol=1e-12)


class TestPurify:
    def test_pure_input_has_trivial_ancilla(self):
        v = np.array([0.6, 0.8j], dtype=complex)
        psi = purify(pure_state(v))
        assert psi.shape == (2,)
        assert_allclose(abs(np.vdot(v, psi)), 1.0, atol=1e-12)

    def test_maximally_mixed_qubit(self):
        psi = purify(DensityMatrix(np.eye(2, dtype=complex) / 2.0))
        weights = np.linalg.norm(psi.reshape(2, 2), axis=0) ** 2
        assert_allclose(weights, [0.5, 0.5], atol=1e-12)

    def test_rank_two_mixture_schmidt_weights(self, singlet):
        # spectral oracle: orthogonal supports, so the eigenvalues are the
        # mixture weights (0.7, 0.3)
        c = 0.3
        gg = np.zeros(4, dtype=complex)
        gg[3] = 1.0
        m = (1.0 - c) * singlet.matrix + c * np.outer(gg, gg.conj())
        psi = purify(DensityMatrix(m, dims=(2, 2)))
        assert psi.shape == (8,)
        weights = np.linalg.norm(psi.reshape(4, 2), axis=0) ** 2
        assert_allclose(np.sort(weights)[::-1], [0.7, 0.3], atol=1e-12)

    def test_roundtrip(self, rng):
        g = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        m = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real)
        psi = purify(rho)
        mat = psi.reshape(4, -1)
        assert np.abs(mat @ mat.conj().T - rho.matrix).max() < 1e-9


class TestTraceDistance:
    def test_identical(self, bell_state):
        assert trace_distance(bell_state, bell_state) == 0.0

    def test_orthogonal_pure_states(self):
        assert_allclose(
            trace_distance(pure_state([1.0, 0.0]), pure_state([0.0, 1.0])), 1.0, atol=1e-12
        )

    def test_half_distance(self):
        a = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        b = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        assert_allclose(trace_distance(a, b), 0.5, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(np.eye(2) / 2, np.eye(4) / 4)


class TestCoherence:
    def test_diagonal_state_has_none(self):
        rho = np.diag([0.2, 0.8]).astype(complex)
        assert_allclose(relative_entropy_of_coherence(rho, np.eye(2)), 0.0, atol=1e-12)

    def test_plus_state(self):
        plus = pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert_allclose(relative_entropy_of_coherence(plus, np.eye(2)), LN2, atol=1e-12)

    def test_bell_state_in_product_basis(self, bell_state):
        # S(rho_diag) = ln 2 for the two anti-diagonal weights, S(rho) = 0
        assert_allclose(
            relative_entropy_of_coherence(bell_state, np.eye(4)), LN2, atol=1e-12
        )

    def test_non_orthonormal_basis_rejected(self):
        basis = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="orthonormal"):
            relative_entropy_of_coherence(np.eye(2, dtype=complex) / 2, basis)


class TestSpectrum:
    def test_ascending_and_reconstructs(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = 0.5 * (g + g.conj().T)
        ham = Hamiltonian(h)
        assert (np.diff(ham.eigenvalues) >= 0).all()
        v = ham.eigenvectors
        assert np.abs(v.conj().T @ v - np.eye(4)).max() < 1e-9
        assert np.abs((v * ham.eigenvalues) @ v.conj().T - h).max() < 1e-9


@st.composite
def density_matrices(draw, dim=4):
    entries = draw(
        st.lists(
            st.floats(-1.0, 1.0, allow_nan=False),
            min_size=2 * dim * dim,
            max_size=2 * dim * dim,
        )
    )
    raw = np.asarray(entries[: dim * dim]) + 1j * np.asarray(entries[dim * dim :])
    g = raw.reshape(dim, dim)
    m = g @ g.conj().T + 1e-3 * np.eye(dim)
    return DensityMatrix(m / np.trace(m).real)


@settings(max_examples=60, deadline=None)
@given(a=density_matrices(), b=density_matrices())
def test_entropy_concavity(a, b):
    mix = DensityMatrix(0.5 * a.matrix + 0.5 * b.matrix)
    mixed = von_neumann_entropy(mix)
    assert mixed >= 0.5 * von_neumann_entropy(a) + 0.5 * von_neumann_entropy(b) - 1e-9


@settings(max_examples=60, deadline=None)
@given(rho=density_matrices())
def test_entropy_subadditivity(rho):
    rho = DensityMatrix(rho.matrix, dims=(2, 2))
    s_a = von_neumann_entropy(partial_trace(rho, "A"))
    s_b = von_neumann_entropy(partial_trace(rho, "B"))
    assert von_neumann_entropy(rho) <= s_a + s_b + 1e-9


@settings(max_examples=60, deadline=None)
@given(a=density_matrices(dim=2), b=density_matrices(dim=2))
def test_partial_trace_inverts_kron(a, b):
    joint = DensityMatrix(np.kron(a.matrix, b.matrix), dims=(2, 2))
    assert np.abs(partial_trace(joint, "A").matrix - a.matrix).max() < 1e-9
    assert np.abs(partial_trace(joint, "B").matrix - b.matrix).max() < 1e-9


@settings(max_examples=60, deadline=None)
@given(rho=density_matrices())
def test_purify_roundtrip(rho):
    mat = purify(rho).reshape(rho.dim, -1)
    assert np.abs(mat @ mat.conj().T - rho.matrix).max() < 1e-9
