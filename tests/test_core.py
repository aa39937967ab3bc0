import ast
import warnings
from pathlib import Path

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

from qthermo.core import HERMITICITY_TOL, _psd_sqrt, _require_hermitian
from qthermo.io import read_state, write_json
from qthermo.random_states import (
    random_density_matrix,
    random_rank2_two_qubit,
    random_x_state,
)

from conftest import LN2

ROOT = Path(__file__).resolve().parents[1]


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDensityMatrixValidationOrder:
    """Each input breaks two checks at once; the earlier check's message wins,
    in the order finite, square, Hermitian, trace, positivity, dims."""

    @pytest.mark.parametrize(
        "m, message",
        [
            # non-finite and non-Hermitian
            ([[0.5, 1.0], [0.0, np.nan]], "non-finite"),
            # non-square and non-finite
            (np.full((2, 3), np.inf), "non-finite"),
            # non-Hermitian and trace 2
            ([[1.0, 1.0], [0.0, 1.0]], "Hermitian"),
            # trace 2 and a negative eigenvalue
            (np.diag([2.5, -0.5]), "trace"),
        ],
    )
    def test_first_failing_check_is_reported(self, m, message):
        with pytest.raises(ValueError, match=message):
            DensityMatrix(np.asarray(m, dtype=complex))

    def test_negative_eigenvalue_before_dims(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), dims=(3, 2))

    def test_trace_tolerance_edges(self):
        with pytest.raises(ValueError, match="trace 1.0000000002 differs"):
            DensityMatrix(np.diag([0.5 + 2e-10, 0.5]).astype(complex))
        assert DensityMatrix(np.diag([0.5 + 5e-11, 0.5]).astype(complex)).dim == 2


@pytest.mark.parametrize("cls", [DensityMatrix, Hamiltonian])
def test_overflowing_hermiticity_difference_is_refused_without_a_warning(cls):
    # finite entries whose difference overflows; RuntimeWarnings are errors here
    m = np.array([[0.5, 1e308], [-1e308, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian.* = inf"):
        cls(m)


def _errstate_hermiticity_message(m, symbol):
    """The earlier check, max |m - m^dag| under np.errstate: the message it
    raised, or None where m passed."""
    with np.errstate(over="ignore"):
        herm = float(np.abs(m - m.conj().T).max())
    if herm > HERMITICITY_TOL:
        return f"not Hermitian: max |{symbol} - {symbol}^dag| = {herm:.3e}"
    return None


def _hermiticity_corpus():
    """Matrices with unit trace whose hermiticity error sits at the
    tolerance (one ulp either side), overflows, or is subnormal, and
    near-Hermitian draws that straddle the tolerance."""
    tol = HERMITICITY_TOL
    big, tiny = np.finfo(float).max, 5e-324
    pairs = []  # (m[0, 1], m[1, 0]) of a 2x2 matrix with diagonal 0.5
    for d in (np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0)):
        pairs += [(d, 0.0), (0.0, -d), (1j * d, 0.0), (0.3, 0.3 - d), (0.25 + d, 0.25)]
    pairs += [
        (1e308, -1e308), (1e308, 1e308), (big, -big), (1e308j, 1e308j),
        (1.7e308 + 1.7e308j, -1.7e308 + 1.7e308j), (1e308, np.nextafter(1e308, 0.0)),
        (tiny, 0.0), (tiny, -tiny), (1e-310, -1e-310), (1e-310 + 3e-320j, 1e-310),
    ]
    corpus = [np.array([[0.5, a], [b, 0.5]], dtype=complex) for a, b in pairs]
    for d in (np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0), 2 * tiny, 1e-310):
        corpus.append(np.diag([0.5 + 0.5j * d, 0.5]))  # |m - m^dag| = d on the diagonal
    rng = np.random.default_rng(29)
    for scale in (1e-11, 3e-11, 1e-10):
        for _ in range(50):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = g @ g.conj().T
            # hermiticity is checked before the trace, so a rejected draw's
            # message does not depend on the perturbation's trace
            corpus.append(m / np.trace(m).real + scale * rng.standard_normal((4, 4)))
    return corpus


def test_hermiticity_check_matches_the_errstate_form():
    """One helper checks hermiticity for DensityMatrix and Hamiltonian with no
    np.errstate; it accepts and rejects what the errstate form did, with the
    same message, and no warning of any kind is raised."""
    corpus = _hermiticity_corpus()
    rejected = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in corpus:
            for cls, symbol in ((DensityMatrix, "rho"), (Hamiltonian, "H")):
                expected = _errstate_hermiticity_message(m, symbol)
                if expected is None:
                    _require_hermitian(m, symbol)
                    continue
                rejected += 1
                for check in (lambda: _require_hermitian(m, symbol), lambda: cls(m)):
                    with pytest.raises(ValueError) as err:
                        check()
                    assert str(err.value) == expected
    # the exact edge cases land on the side they were made for
    assert 0 < rejected < 2 * len(corpus)
    exact = [corpus[k] for k in range(15) if k % 5 < 3]
    rejects = [_errstate_hermiticity_message(m, "rho") is not None for m in exact]
    assert rejects == [False] * 6 + [True] * 3


class _Draws:
    """A seeded generator with some of its draws replaced."""

    def __init__(self, **replaced):
        self._rng = np.random.default_rng(0)
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestTrustBoundary:
    """States that enter from outside the library (the public constructor,
    state files, the random generators) still pass every check; only the
    states the library derives from them skip it."""

    @pytest.mark.parametrize(
        "m, dims, message",
        [
            ([[0.5, np.nan], [0.0, 0.5]], None, "non-finite"),
            ([[0.5, complex(0.0, np.inf)], [0.0, 0.5]], None, "non-finite"),
            (np.ones((2, 3)) / 2, None, "square"),
            ([[0.5, 0.5], [0.0, 0.5]], None, "Hermitian"),
            ([[0.5, 1e308], [-1e308, 0.5]], None, "Hermitian"),
            (np.eye(2), None, "trace"),
            (np.diag([1.5, -0.5]), None, "negative eigenvalue"),
            (np.eye(4) / 4, [3, 2], "incompatible"),
            (np.eye(4) / 4, [2, 2.0], "two positive integers"),
        ],
    )
    def test_constructor_and_state_file_reject(self, tmp_path, m, dims, message):
        m = np.asarray(m, dtype=complex)
        with pytest.raises(ValueError, match=message):
            DensityMatrix(m, dims)
        path = tmp_path / "state.json"
        write_json(path, {"dims": dims, "re": m.real.tolist(), "im": m.imag.tolist()})
        with pytest.raises(ValueError, match=message):
            read_state(path)

    def test_random_generators_reject_bad_draws(self):
        with pytest.raises(ValueError, match="incompatible"):
            random_density_matrix(4, np.random.default_rng(0), dims=(3, 2))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            random_rank2_two_qubit(_Draws(uniform=lambda *bounds: 1.5))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            random_x_state(_Draws(dirichlet=lambda alpha: np.array([1.5, -0.5, 0.0, 0.0])))


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


def test_psd_sqrt_squares_back_with_negative_round_off_clipped(rng):
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    m = (u * np.array([-1e-17, 0.0, 0.25, 0.75])) @ u.conj().T
    root = _psd_sqrt(m)
    assert np.abs(root - root.conj().T).max() < 1e-15
    assert np.abs(root @ root - m).max() < 1e-15


def _np_linalg_calls(source: str):
    """(enclosing top-level function, name) of every ``np.linalg.<name>(...)``
    call in a module's source."""
    calls = []
    for node in ast.parse(source).body:
        scope = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and ast.unparse(call.func).startswith("np.linalg."):
                calls.append((scope, call.func.attr))
    return calls


_UNCHECKED_SPECTRA = ("von_neumann_entropy", "trace_distance")


def test_trusted_decompositions_bypass_the_numpy_wrappers():
    """Every eigh, QR and SVD goes through the direct LAPACK kernels (core._eigh,
    core._singular_values, core._real_svd, random_unitary's gufunc calls);
    np.linalg.eigvalsh is left only to the two public functions that take an
    unchecked matrix and are not hot."""
    calls = {
        p.name: _np_linalg_calls(p.read_text()) for p in (ROOT / "src" / "qthermo").glob("*.py")
    }
    assert "core.py" in calls and "random_states.py" in calls
    wrappers = [
        (name, scope, f)
        for name, found in calls.items()
        for scope, f in found
        if f in ("eigh", "qr", "svd") or (f == "eigvalsh" and scope not in _UNCHECKED_SPECTRA)
    ]
    assert wrappers == []
    assert ("von_neumann_entropy", "eigvalsh") in calls["core.py"]


def test_each_kernel_is_written_once():
    """Kronecker products go through core._kron and PSD square roots through
    core._psd_sqrt, so no module grows its own copy."""
    sources = {p.name: p.read_text() for p in (ROOT / "src" / "qthermo").glob("*.py")}
    assert "core.py" in sources
    assert [name for name, s in sources.items() if "np.kron(" in s] == []
    assert sum(s.count("np.sqrt(np.clip(") for s in sources.values()) <= 1


def _reduces_a_spectrum(fn: ast.FunctionDef) -> list[str]:
    """Calls in ``fn`` that reduce or sort an ``eigenvalues`` array, read as
    an attribute (not ``rho.eigenvalues()``) or through a name bound to one."""
    spectra = {
        target.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "eigenvalues"
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def is_spectrum(node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "eigenvalues") or (
            isinstance(node, ast.Name) and node.id in spectra
        )

    found = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr in ("min", "max", "tolist"):
            if is_spectrum(f.value):
                found.append(ast.unparse(node))
        elif ast.unparse(f) == "np.sort" and node.args and is_spectrum(node.args[0]):
            found.append(ast.unparse(node))
    return found


def test_thermo_reads_the_spectral_constants_once():
    """Outside Hamiltonian, no function in thermo.py reduces or sorts a
    Hamiltonian's eigenvalues (.min(, .max(, .tolist(, np.sort(): the levels,
    their minimum, spread and gaps are constants each Hamiltonian works out
    once, and the spectrum is already ascending."""
    tree = ast.parse((ROOT / "src" / "qthermo" / "thermo.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert {"log_partition", "bound_ergotropy", "local_inverse_temperature"} <= {
        fn.name for fn in functions
    }
    offenders = {fn.name: _reduces_a_spectrum(fn) for fn in functions}
    assert {name: calls for name, calls in offenders.items() if calls} == {}
