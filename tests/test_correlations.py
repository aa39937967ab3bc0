import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qthermo import (
    DensityMatrix,
    ModelParams,
    Povm,
    analytic_steady_state,
    breakdown,
    chi_A_max,
    chi_from_local_measurement,
    discord_A,
    eof_via_koashi_winter,
    information_gain,
    local_information_gain,
    measure,
    mutual_information,
    partial_trace,
    projective_energy_povm,
    purify,
    von_neumann_entropy,
    wootters_eof,
)
from qthermo.core import ENTROPY_CUTOFF, SIGMA_X, SIGMA_Y, SIGMA_Z, entropy_of_eigenvalues, pure_state
from qthermo.correlations import (
    _ASCENT_MAX_ITER,
    SearchGrid,
    _bloch_data,
    _branch_entropy_grid,
    _branches,
    _entropy_b,
    _g,
    _newton_chi,
    _tangent_model,
)
from qthermo.random_states import (
    random_density_matrix,
    random_rank2_two_qubit,
    random_two_qubit_state,
    random_unitary,
    random_x_state,
)

from conftest import LN2, product_thermal


def _random_state(rng, rank=4):
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims=(2, 2))


def brute_force_chi_a(rho, n_theta=128, n_phi=128):
    """Independent dense-grid oracle: explicit projectors, explicit partial
    traces, no shared code with the optimizer's block arithmetic."""
    s_b = von_neumann_entropy(partial_trace(rho, "B"))
    eye = np.eye(2, dtype=complex)
    best = -np.inf
    for theta in np.linspace(0.0, np.pi, n_theta):
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        for phi in np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False):
            direction = (
                sin_t * np.cos(phi) * SIGMA_X
                + sin_t * np.sin(phi) * SIGMA_Y
                + cos_t * SIGMA_Z
            )
            value = s_b
            for sign in (1.0, -1.0):
                proj = np.kron(0.5 * (eye + sign * direction), eye)
                sub = proj @ rho.matrix @ proj
                p = float(np.trace(sub).real)
                if p < 1e-12:
                    continue
                reduced = sub.reshape(2, 2, 2, 2)
                marginal = np.einsum("abad->bd", reduced) / p
                w = np.clip(np.linalg.eigvalsh(marginal), 0.0, None)
                w = w[w > 1e-12]
                value -= p * float(-(w * np.log(w)).sum())
            best = max(best, value)
    return best


def _reference_chi_A_max(rho):
    """The complex-block form of chi_A_max: each measured branch of B is built
    as a 2x2 block sum and its spectrum taken from trace and determinant, on
    the same grid and pattern search."""
    grid = SearchGrid()
    m = rho.matrix
    b00, b01, b10, b11 = m[:2, :2], m[:2, 2:], m[2:, :2], m[2:, 2:]
    rho_b = b00 + b11
    s_b = entropy_of_eigenvalues(np.linalg.eigvalsh(rho_b))

    def branch_entropies(stack):
        t = np.trace(stack, axis1=-2, axis2=-1).real
        det = (stack[..., 0, 0] * stack[..., 1, 1] - stack[..., 0, 1] * stack[..., 1, 0]).real
        disc = np.sqrt(np.clip(t * t - 4.0 * det, 0.0, None))
        w = np.clip(np.stack([(t - disc) / 2.0, (t + disc) / 2.0], axis=-1), 0.0, None)
        p = w.sum(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(w >= ENTROPY_CUTOFF, w * np.log(np.where(w > 0, w, 1.0)), 0.0)
            plog = np.where(p >= ENTROPY_CUTOFF, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
        return -term.sum(axis=-1) + plog

    def objective(theta, phi):
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        nx = np.sin(theta) * np.cos(phi)
        ny = np.sin(theta) * np.sin(phi)
        nz = np.cos(theta)
        n_plus = (
            ((1.0 + nz) / 2.0)[..., None, None] * b00
            + ((nx + 1.0j * ny) / 2.0)[..., None, None] * b01
            + ((nx - 1.0j * ny) / 2.0)[..., None, None] * b10
            + ((1.0 - nz) / 2.0)[..., None, None] * b11
        )
        both = np.stack([n_plus, rho_b - n_plus], axis=-3)
        return s_b - branch_entropies(both).sum(axis=-1)

    thetas = np.linspace(0.0, np.pi, grid.coarse)
    phis = np.linspace(0.0, 2.0 * np.pi, grid.coarse, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    values = objective(tt, pp)
    best = np.unravel_index(int(np.argmax(values)), values.shape)
    best_val = float(values[best])
    theta, phi = float(tt[best]), float(pp[best])
    step = max(np.pi / max(grid.coarse - 1, 1), 2.0 * np.pi / grid.coarse)
    while step > grid.angle_tol:
        cand_t = np.array([theta + step, theta - step, theta, theta])
        cand_p = np.array([phi, phi, phi + step, phi - step])
        cand_v = objective(cand_t, cand_p)
        k = int(np.argmax(cand_v))
        if cand_v[k] > best_val:
            best_val = float(cand_v[k])
            theta, phi = float(cand_t[k]), float(cand_p[k])
        else:
            step /= 2.0
    return best_val


class TestMutualInformation:
    def test_product_state(self, qubit_h):
        assert_allclose(mutual_information(product_thermal(1.0, qubit_h)), 0.0, atol=1e-12)

    def test_bell_state(self, bell_state):
        assert_allclose(mutual_information(bell_state), 2 * LN2, atol=1e-12)

    def test_singlet_steady_state(self):
        rho = analytic_steady_state(0.0, ModelParams())
        assert_allclose(mutual_information(rho), 2 * LN2, atol=1e-12)


class TestChiFromLocalMeasurement:
    def test_product_state(self, qubit_h):
        rho = product_thermal(1.0, qubit_h)
        povm = projective_energy_povm(qubit_h, (2, 2))
        assert_allclose(chi_from_local_measurement(rho, povm), 0.0, atol=1e-12)

    def test_bell_state(self, bell_state, qubit_h):
        povm = projective_energy_povm(qubit_h, (2, 2))
        assert_allclose(chi_from_local_measurement(bell_state, povm), LN2, atol=1e-12)

    def test_classically_correlated(self, qubit_h):
        # outcomes reveal A exactly: chi = S(rho_A) = ln 2
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[3, 3] = 0.5  # (|ee><ee| + |gg><gg|) / 2
        rho = DensityMatrix(m, dims=(2, 2))
        povm = projective_energy_povm(qubit_h, (2, 2))
        assert_allclose(chi_from_local_measurement(rho, povm), LN2, atol=1e-12)

    def test_rejects_non_local_form(self, bell_state):
        """On every call: the verdict is kept per POVM, and a kept failure
        still raises."""
        from qthermo import Povm

        eye = np.eye(4, dtype=complex)
        povm = Povm([np.outer(eye[:, k], eye[:, k]) for k in range(4)])
        for _ in range(3):
            with pytest.raises(ValueError, match="operator 0 is not of the form I_A"):
                chi_from_local_measurement(bell_state, povm)

    def test_local_form_is_judged_per_split(self, qubit_h):
        """I_2 (x) |e_k><e_k| is local on B for the split (2, 2) and for
        (1, 4), where A is trivial, but not for (4, 1).  Each split keeps its
        own verdict, in any order of calls."""
        povm = projective_energy_povm(qubit_h, (2, 2))
        m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        split = {dims: DensityMatrix(m, dims=dims) for dims in ((2, 2), (1, 4), (4, 1))}
        for dims in ((2, 2), (4, 1), (1, 4), (4, 1), (2, 2), (1, 4)):
            if dims == (4, 1):
                with pytest.raises(ValueError, match="operator 0 is not of the form I_A"):
                    chi_from_local_measurement(split[dims], povm)
            else:
                chi = chi_from_local_measurement(split[dims], povm)
                assert chi == local_information_gain(measure(split[dims], povm), "A")

    def test_matches_local_information_gain(self, rng, qubit_h):
        rho = _random_state(rng)
        povm = projective_energy_povm(qubit_h, (2, 2))
        record = measure(rho, povm)
        assert_allclose(
            chi_from_local_measurement(rho, povm),
            local_information_gain(record, "A"),
            atol=1e-9,
        )


class TestSearchGrid:
    @pytest.mark.parametrize("coarse", [0, -3, True, 2.0, "64", None])
    def test_rejects_bad_coarse(self, coarse):
        with pytest.raises(ValueError, match="coarse"):
            SearchGrid(coarse=coarse)

    @pytest.mark.parametrize("angle_tol", [0.0, -1e-4, np.inf, np.nan, True, "1e-4", None])
    def test_rejects_bad_angle_tol(self, angle_tol):
        with pytest.raises(ValueError, match="angle_tol"):
            SearchGrid(angle_tol=angle_tol)

    def test_smallest_grid_still_searches(self):
        rho = analytic_steady_state(0.5, ModelParams())
        for grid in (SearchGrid(coarse=1), SearchGrid(coarse=np.int64(8), angle_tol=math.pi)):
            assert chi_A_max(rho, grid) >= 0.0


class TestChiAMax:
    def test_product_state(self, qubit_h):
        assert abs(chi_A_max(product_thermal(1.0, qubit_h))) < 1e-9

    def test_bell_state(self, bell_state):
        assert_allclose(chi_A_max(bell_state), LN2, atol=1e-6)

    def test_matches_brute_force_oracle(self):
        rho = analytic_steady_state(0.5, ModelParams())
        assert abs(chi_A_max(rho) - brute_force_chi_a(rho)) < 1e-3

    def test_never_below_z_axis_value(self, rng):
        rho = _random_state(rng)
        # the sigma_z measurement on A, one of the directions chi_A_max searches
        eye = np.eye(2, dtype=complex)
        povm = Povm([np.kron(np.outer(eye[k], eye[k]), eye) for k in range(2)])
        record = measure(rho, povm)
        z_value = local_information_gain(record, "B")
        assert chi_A_max(rho) >= z_value - 1e-9

    def test_monotone_under_grid_doubling(self, rng):
        rho = _random_state(rng, rank=2)
        coarse = chi_A_max(rho, SearchGrid(coarse=64))
        fine = chi_A_max(rho, SearchGrid(coarse=128))
        assert fine >= coarse - 1e-7

    def test_rejects_non_qubit_a(self):
        rho = DensityMatrix(np.eye(8, dtype=complex) / 8.0, dims=(4, 2))
        with pytest.raises(ValueError, match="qubit"):
            chi_A_max(rho)

    def test_rejects_non_qubit_b(self):
        rho = DensityMatrix(np.eye(6, dtype=complex) / 6.0, dims=(2, 3))
        with pytest.raises(ValueError, match=r"two-qubit.*\(2, 3\)"):
            chi_A_max(rho)

    def test_matches_complex_block_reference(self):
        rng = np.random.default_rng(2024)
        states = [random_two_qubit_state(rng) for _ in range(50)]
        states += [random_rank2_two_qubit(rng) for _ in range(50)]
        for beta_e in (10.0, 1.0):  # every 5th c of both sweep families
            params = ModelParams(beta_e=beta_e)
            states += [analytic_steady_state(k / 100.0, params) for k in range(0, 101, 5)]
        grid = SearchGrid()
        worst = max(abs(chi_A_max(rho, grid) - _reference_chi_A_max(rho)) for rho in states)
        assert worst <= 1e-12


ORACLE_STATES_PER_CLASS = 340


@pytest.fixture(scope="module")
def oracle_states():
    """Seeded generic, rank-2 and X-shaped states for the Newton ascent."""
    rng = np.random.default_rng(2025)
    return [
        draw(rng)
        for draw in (random_two_qubit_state, random_rank2_two_qubit, random_x_state)
        for _ in range(ORACLE_STATES_PER_CLASS)
    ]


def _near_pure_states():
    """Pure and nearly pure states, where branch spectra touch zero."""
    product = np.zeros(4, dtype=complex)
    product[0] = 1.0
    states = [
        pure_state(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0), dims=(2, 2)),
        pure_state(product, dims=(2, 2)),
        analytic_steady_state(0.0, ModelParams()),
    ]
    params = ModelParams(beta_e=30.0)
    states += [analytic_steady_state(k / 20.0, params) for k in range(21)]
    return states


class TestNewtonAscent:
    """The default chi_A_max: Newton ascent on the sphere of measurement
    directions, checked against the reference grid search."""

    def test_never_below_the_grid_search(self, oracle_states):
        grid = SearchGrid()
        worst = min(chi_A_max(rho) - chi_A_max(rho, grid) for rho in oracle_states)
        assert worst >= -1e-12

    def test_iterations_stay_below_the_cap(self, oracle_states):
        for rho in oracle_states + _near_pure_states():
            assert _newton_chi(rho.matrix)[1] < _ASCENT_MAX_ITER

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_near_pure_states(self):
        bell, product, singlet, *family = _near_pure_states()
        assert_allclose(chi_A_max(bell), LN2, rtol=0, atol=1e-12)
        assert abs(chi_A_max(product)) <= 1e-12
        assert_allclose(chi_A_max(singlet), LN2, rtol=0, atol=1e-12)
        grid = SearchGrid()
        for rho in family:
            assert chi_A_max(rho) >= chi_A_max(rho, grid) - 1e-12

    def test_x_state_off_axis_optimum(self):
        """Every start direction of this X state (x, y, z) is stationary, and
        the optimum lies off axis (Huang, PRA 88, 014302 (2013)): only the
        step along negative curvature reaches it."""
        m = np.diag([0.04, 0.03, 0.03, 0.9]).astype(complex)
        m[0, 3] = m[3, 0] = 0.152
        rho = DensityMatrix(m, dims=(2, 2))
        eye = np.eye(2, dtype=complex)
        axis_best = max(
            local_information_gain(
                measure(rho, Povm([np.kron((eye + s * pauli) / 2.0, eye) for s in (1.0, -1.0)])),
                "B",
            )
            for pauli in (SIGMA_X, SIGMA_Y, SIGMA_Z)
        )
        chi = chi_A_max(rho)
        assert chi - axis_best > 3e-4
        assert chi >= chi_A_max(rho, SearchGrid()) - 1e-12

    def test_tangent_model_matches_finite_differences(self, oracle_states):
        """Gradient and Riemannian Hessian against central differences of g
        along geodesics, Richardson-extrapolated (error O(h^4))."""
        rng = np.random.default_rng(5)
        for rho in oracle_states[::34]:
            r = _bloch_data(rho.matrix)
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            e1, e2, *model = _tangent_model(r, tuple(n))
            e1, e2 = np.array(e1), np.array(e2)

            def g_at(x, y):
                step = math.hypot(x, y)
                if step == 0.0:
                    return _g(r, tuple(n))
                d = (x * e1 + y * e2) / step
                return _g(r, tuple(n * math.cos(step) + d * math.sin(step)))

            def differences(h):
                g0 = g_at(0.0, 0.0)
                return np.array([
                    (g_at(h, 0.0) - g_at(-h, 0.0)) / (2 * h),
                    (g_at(0.0, h) - g_at(0.0, -h)) / (2 * h),
                    (g_at(h, 0.0) - 2 * g0 + g_at(-h, 0.0)) / h**2,
                    (g_at(h, h) - g_at(h, -h) - g_at(-h, h) + g_at(-h, -h)) / (4 * h * h),
                    (g_at(0.0, h) - 2 * g0 + g_at(0.0, -h)) / h**2,
                ])

            h = 2e-3
            numeric = (4.0 * differences(h / 2) - differences(h)) / 3.0
            assert_allclose(model[:2], numeric[:2], rtol=0, atol=1e-10)
            assert_allclose(model[2:], numeric[2:], rtol=0, atol=1e-8)


class TestReferenceObjective:
    """The reference search scores the ascent's objective S(rho_B) - g(n),
    exact down to zero branch eigenvalues, in its array and scalar forms."""

    @staticmethod
    def _objectives(r, nx, ny, nz):
        t_plus, sq_plus, t_minus, sq_minus = _branches(r, nx, ny, nz)
        grid = _entropy_b(r) - (
            _branch_entropy_grid(t_plus, sq_plus) + _branch_entropy_grid(t_minus, sq_minus)
        )
        scalar = [_entropy_b(r) - _g(r, n) for n in zip(nx.tolist(), ny.tolist(), nz.tolist())]
        return grid, np.array(scalar)

    def test_zero_near_a_on_a_pure_products(self):
        """chi is exactly 0 on rho_A (x) rho_B with rho_A pure.  Within 1e-4 rad
        of a/|a| the minus branch has weight ~1e-9 and eigenvalues crossing
        1e-12, where an entropy cutoff reads ~3e-11 high."""
        rng = np.random.default_rng(15)
        deltas = np.linspace(0.0, 1e-4, 200)[:, None]
        phis = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)[None, :]
        for _ in range(3):
            psi = random_unitary(2, rng)[:, 0]
            rho_b = random_density_matrix(2, rng).matrix
            r = _bloch_data(np.kron(np.outer(psi, psi.conj()), rho_b))
            a = np.array([r[1][0], r[2][0], r[3][0]])
            a /= np.linalg.norm(a)
            e1 = np.cross(a, [1.0, 0.0, 0.0] if abs(a[0]) < 0.9 else [0.0, 1.0, 0.0])
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(a, e1)
            n = np.cos(deltas)[..., None] * a + np.sin(deltas)[..., None] * (
                np.cos(phis)[..., None] * e1 + np.sin(phis)[..., None] * e2
            )
            grid, scalar = self._objectives(r, *(n[..., k].reshape(-1) for k in range(3)))
            assert max(grid.max(), scalar.max()) <= 1e-14

    def test_array_form_matches_g(self, oracle_states):
        rng = np.random.default_rng(8)
        for rho in oracle_states:
            r = _bloch_data(rho.matrix)
            n = rng.standard_normal((3, 16))
            n /= np.linalg.norm(n, axis=0)
            grid, scalar = self._objectives(r, *n)
            assert np.abs(grid - scalar).max() <= 1e-15


class TestDiscord:
    def test_classical_classical_state(self):
        rho = DensityMatrix(np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex), dims=(2, 2))
        assert_allclose(discord_A(rho), 0.0, atol=1e-6)

    def test_bell_state(self, bell_state):
        assert_allclose(discord_A(bell_state), LN2, atol=1e-6)

    def test_product_state(self, qubit_h):
        assert_allclose(discord_A(product_thermal(1.0, qubit_h)), 0.0, atol=1e-9)

    def test_nonnegative_on_random_states(self, rng):
        for _ in range(20):
            assert discord_A(_random_state(rng)) >= -1e-6


class TestKoashiWinterEof:
    def test_pure_state(self, bell_state):
        assert_allclose(eof_via_koashi_winter(bell_state), 0.0, atol=1e-6)

    def test_product_state(self, qubit_h):
        rho = product_thermal(1.0, qubit_h)
        expected = von_neumann_entropy(partial_trace(rho, "B"))
        assert_allclose(eof_via_koashi_winter(rho), expected, atol=1e-9)

    def test_identity_with_chi_is_exact(self, rng):
        rho = _random_state(rng, rank=2)
        s_b = von_neumann_entropy(partial_trace(rho, "B"))
        assert_allclose(chi_A_max(rho) + eof_via_koashi_winter(rho), s_b, atol=1e-12)

    def test_rank_two_mixture_against_wootters(self, singlet):
        # (B, C) marginal of the purification, C a qubit ancilla
        c = 0.3
        gg = np.zeros(4, dtype=complex)
        gg[3] = 1.0
        rho = DensityMatrix(
            (1 - c) * singlet.matrix + c * np.outer(gg, gg.conj()), dims=(2, 2)
        )
        psi = purify(rho).reshape(2, 2, 2)
        rho_bc = np.einsum("abk,acl->bkcl", psi, psi.conj()).reshape(4, 4)
        assert abs(eof_via_koashi_winter(rho) - wootters_eof(rho_bc)) < 1e-12


class TestWoottersEof:
    def test_bell_state(self, bell_state):
        assert_allclose(wootters_eof(bell_state), LN2, atol=1e-12)

    def test_separable_product(self, qubit_h):
        assert_allclose(wootters_eof(product_thermal(1.0, qubit_h)), 0.0, atol=1e-12)

    def test_werner_mixture_concurrence_oracle(self, singlet):
        # direct 4x4 eigenvalue oracle for rho = (|psi-><psi-| + I/2) / 2
        rho = DensityMatrix(0.5 * singlet.matrix + 0.5 * np.eye(4) / 4.0, dims=(2, 2))
        yy = np.kron(SIGMA_Y, SIGMA_Y)
        lam = np.sqrt(
            np.clip(np.linalg.eigvals(rho.matrix @ yy @ rho.matrix.conj() @ yy).real, 0, None)
        )
        lam = np.sort(lam)[::-1]
        concurrence = lam[0] - lam[1] - lam[2] - lam[3]
        assert_allclose(concurrence, 0.25, atol=1e-12)
        x = 0.5 * (1.0 + np.sqrt(1.0 - 0.25**2))
        expected = -x * np.log(x) - (1 - x) * np.log(1 - x)
        assert_allclose(wootters_eof(rho), expected, atol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_locally_rotated_bell_states(self):
        """Round-off can put the concurrence of a pure maximally entangled
        state just above 1."""
        rng = np.random.default_rng(3)
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        for _ in range(200):
            u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            assert_allclose(wootters_eof(pure_state(u @ bell, dims=(2, 2))), LN2, atol=1e-12)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="4x4"):
            wootters_eof(np.eye(2) / 2)


class TestBreakdown:
    def test_product_thermal(self, qubit_h):
        rho = product_thermal(1.0, qubit_h)
        out = breakdown(rho, qubit_h)
        s_b = von_neumann_entropy(partial_trace(rho, "B"))
        assert_allclose(out.chi_B, 0.0, atol=1e-9)
        assert_allclose(out.quantum_gain, s_b, atol=1e-9)
        record = measure(rho, projective_energy_povm(qubit_h, (2, 2)))
        assert_allclose(information_gain(record), s_b, atol=1e-9)

    def test_bell_state(self, bell_state, qubit_h):
        out = breakdown(bell_state, qubit_h)
        assert_allclose(out.chi_B, LN2, atol=1e-6)
        assert_allclose(out.eof_BC, 0.0, atol=1e-6)
        assert_allclose(out.discord_A, LN2, atol=1e-6)
        assert_allclose(out.chi_B + out.quantum_gain, 0.0, atol=1e-6)

    def test_steady_state_split_residual(self, qubit_h):
        rho = analytic_steady_state(0.9, ModelParams())
        out = breakdown(rho, qubit_h)
        record = measure(rho, projective_energy_povm(qubit_h, (2, 2)))
        residual = information_gain(record) - (out.chi_B + out.quantum_gain)
        assert abs(residual) < 2e-6

    def test_breakdown_invariants(self, rng, qubit_h):
        rho = _random_state(rng, rank=2)
        out = breakdown(rho, qubit_h)
        assert_allclose(
            out.discord_A, out.mutual_information - out.chi_A_max, atol=1e-9
        )
        assert_allclose(out.quantum_gain, out.eof_BC - out.discord_A, atol=1e-12)
        assert out.chi_A_max >= -1e-9
        assert out.eof_BC >= -1e-9
