import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qthermo import (
    DensityMatrix,
    Hamiltonian,
    ModelParams,
    analytic_steady_state,
    average_energy,
    bound_ergotropy,
    common_local_beta,
    ergotropy,
    ergotropy_double_sum,
    local_beta,
    local_inverse_temperature,
    log_partition,
    mutual_information,
    passive_state,
    pure_state,
    thermal_state,
    thermo_report,
    von_neumann_entropy,
)
from qthermo import thermo
from qthermo.cli import RunConfig, sweep_rows
from qthermo.core import SIGMA_X, SIGMA_Y, SIGMA_Z, entropy_of_eigenvalues, partial_trace
from qthermo.dissipation import local_qubit_hamiltonian
from qthermo.random_states import random_density_matrix, random_hamiltonian, random_unitary
from qthermo.thermo import ENTROPY_MATCH_TOL
from qthermo.verify import SUITES, run_suites

from conftest import bisect_to_end

H_TOTAL = Hamiltonian(np.diag([2.0, 1.0, 1.0, 0.0]).astype(complex))


def _random_state(rng, dim=4):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def _random_h(rng, dim=4):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Hamiltonian(0.5 * (g + g.conj().T))


def _reference_bound_ergotropy(rho, h):
    """The numpy form of bound_ergotropy: the same bracket doubling and
    bisection, with each thermal entropy and energy from numpy arrays."""
    e = h.eigenvalues
    state_eigs = rho.eigenvalues()
    passive_e = float(np.sort(state_eigs)[::-1] @ np.sort(e))
    if float(e.max() - e.min()) < 1e-12:
        return 0.0
    target = entropy_of_eigenvalues(state_eigs)
    if target < 1e-12:
        return passive_e - float(e.min())

    def entropy_energy(beta):
        w = np.exp(-beta * (e - e.min()))
        p = w / w.sum()
        return entropy_of_eigenvalues(p), float(p @ e)

    lo, hi = 0.0, 50.0 * h.dim / float(e.max() - e.min())
    while hi < 1e6 and entropy_energy(hi)[0] > target:
        hi = min(hi * 2.0, 1e6)
    for _ in range(200):
        beta = 0.5 * (lo + hi)
        s, _ = entropy_energy(beta)
        if abs(s - target) <= 1e-10 * min(1.0, beta):
            break
        if s > target:
            lo = beta
        else:
            hi = beta
    return passive_e - entropy_energy(beta)[1]


class TestHamiltonian:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Hamiltonian(np.diag([bad, 0.0]).astype(complex))

    def test_spectrum_ascending(self, rng):
        h = _random_h(rng)
        assert (np.diff(h.eigenvalues) >= 0).all()

    def test_arrays_are_read_only_copies(self):
        m = np.diag([1.0, 0.0]).astype(complex)
        h = Hamiltonian(m)
        assert h.matrix is not m
        for attr in ("matrix", "eigenvalues", "eigenvectors"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(h, attr)[0, ...] = 5.0
        m[0, 0] = 7.0
        assert_allclose(h.matrix, np.diag([1.0, 0.0]), atol=0)
        assert_allclose(h.eigenvalues, [0.0, 1.0], atol=0)
        assert_allclose(h.doubled.eigenvalues, [0.0, 1.0, 1.0, 2.0], atol=0)


    def test_derived_constants_are_kept_and_immutable(self):
        """The spectral constants are worked out once, as floats, tuples of
        floats or read-only arrays, and agree with the spectrum."""
        h = Hamiltonian(np.array([[1.0, 0.5j], [-0.5j, -2.0]]))
        e = h.eigenvalues
        assert h.levels == tuple(e.tolist()) and h.levels is h.levels
        assert h.gaps == tuple(float(x) for x in e - e.min())
        assert h.spread == float(e.max() - e.min()) and h.log_dim == float(np.log(2))
        assert_allclose(h.eigenvectors_dagger, h.eigenvectors.conj().T, rtol=0, atol=0)
        mean, k, de, de_squared = h._fit_levels
        assert isinstance(de, tuple) and de_squared == sum(d * d for d in de)
        assert all(type(x) is float for x in h.levels + h.gaps + de + (mean, de_squared))
        with pytest.raises(ValueError, match="read-only"):
            h.eigenvectors_dagger[0, 0] = 5.0
        with pytest.raises(TypeError):
            h.levels[0] = 5.0

    def test_beta_fit_roundoff(self):
        """eps sum|D_i| / sum D_i^2: 2 eps / omega for a qubit of gap omega,
        finite down to the smallest subnormal gap, zero for equal levels."""
        eps = np.finfo(float).eps
        for omega in (1.0, 1e-9, 1e-10, 1e-300):
            h = Hamiltonian(np.diag([omega, 0.0]).astype(complex))
            assert h.beta_fit_roundoff == pytest.approx(2 * eps / omega, rel=1e-15)
        levels = [0.0, 1.0, 1.0, 3.0]  # D = -5/4, -1/4, -1/4, 7/4
        h = Hamiltonian(np.diag(levels).astype(complex))
        assert h.beta_fit_roundoff == pytest.approx(eps * 3.5 / 4.75, rel=1e-15)
        tiny = Hamiltonian(np.diag([5e-324, 0.0]).astype(complex))
        assert 1e307 < tiny.beta_fit_roundoff < np.inf
        assert Hamiltonian(np.eye(3)).beta_fit_roundoff == 0.0

    def test_repeated_calls_give_the_same_results(self, rng):
        """The kept constants do not drift: each function returns the same
        result on repeated calls, interleaved with calls on another
        Hamiltonian of the same dimension."""
        rho = _random_state(rng)
        hamiltonians = [_random_h(rng), Hamiltonian(np.diag([3.0, 1.0, 1.0, 0.0]).astype(complex))]
        thermal = thermal_state(hamiltonians[0], 0.8)

        def results(h):
            return (
                log_partition(h, 0.8),
                thermal_state(h, 0.8).matrix.tobytes(),
                ergotropy(rho, h),
                passive_state(rho, h).matrix.tobytes(),
                bound_ergotropy(rho, h),
                local_inverse_temperature(thermal, h),
            )

        first = [results(h) for h in hamiltonians]
        for _ in range(2):
            assert [results(h) for h in hamiltonians] == first
            assert [results(h) for h in reversed(hamiltonians)] == first[::-1]
        assert first[0][-1] == pytest.approx(0.8, rel=1e-12)


class TestThermalState:
    def test_infinite_temperature(self, qubit_h):
        assert_allclose(thermal_state(qubit_h, 0.0).matrix, np.eye(2) / 2, atol=1e-12)

    def test_zero_temperature_ground_projector(self, qubit_h):
        ground = thermal_state(qubit_h, np.inf).matrix
        assert_allclose(ground, np.diag([0.0, 1.0]), atol=1e-12)  # |g> in (e, g)

    def test_degenerate_ground_space(self):
        h = Hamiltonian(np.diag([1.0, 0.0, 0.0]).astype(complex))
        assert_allclose(
            thermal_state(h, np.inf).matrix, np.diag([0.0, 0.5, 0.5]), atol=1e-12
        )

    def test_qubit_populations(self, qubit_h):
        # 1 / (1 + e^{-1}) by scalar arithmetic; excited entry first in (e, g)
        tau = thermal_state(qubit_h, 1.0)
        p_g = 1.0 / (1.0 + np.exp(-1.0))
        assert_allclose(np.diag(tau.matrix).real, [1.0 - p_g, p_g], atol=1e-12)

    def test_negative_beta_rejected(self, qubit_h):
        with pytest.raises(ValueError, match="nonnegative"):
            thermal_state(qubit_h, -0.1)


def free_energy(h: Hamiltonian, beta: float) -> float:
    """F_B = -ln(Z)/beta as thermo_report gives it, on the product thermal state."""
    tau = thermal_state(h, beta).matrix
    joint = DensityMatrix(np.kron(tau, tau), dims=(h.dim, h.dim))
    return thermo_report(joint, h, beta).free_energy


class TestFreeEnergy:
    def test_single_level(self):
        h = Hamiltonian(np.array([[0.7]], dtype=complex))
        assert_allclose(free_energy(h, 2.0), 0.7, atol=1e-12)

    def test_qubit_value(self, qubit_h):
        assert_allclose(free_energy(qubit_h, 1.0), -np.log(1.0 + np.exp(-1.0)), atol=1e-12)

    def test_low_temperature_limit(self, qubit_h):
        f = free_energy(qubit_h, 30.0)
        assert f < 0.0  # approaches the ground energy from below
        assert f > -1e-12


class TestPassiveState:
    def test_thermal_is_already_passive(self, qubit_h):
        tau = thermal_state(qubit_h, 1.3)
        assert_allclose(passive_state(tau, qubit_h).matrix, tau.matrix, atol=1e-12)

    def test_excited_qubit_relaxes(self, qubit_h):
        excited = pure_state([1.0, 0.0])  # |e>
        assert_allclose(
            passive_state(excited, qubit_h).matrix, np.diag([0.0, 1.0]), atol=1e-12
        )

    def test_population_swap(self):
        h = Hamiltonian(np.diag([0.0, 1.0]).astype(complex))
        rho = DensityMatrix(np.diag([0.2, 0.8]).astype(complex))
        assert_allclose(passive_state(rho, h).matrix, np.diag([0.8, 0.2]), atol=1e-12)

    def test_commutes_and_preserves_spectrum(self, rng):
        rho = _random_state(rng)
        h = _random_h(rng)
        p = passive_state(rho, h)
        assert np.abs(h.matrix @ p.matrix - p.matrix @ h.matrix).max() < 1e-10
        assert_allclose(
            np.sort(p.eigenvalues()), np.sort(rho.eigenvalues()), atol=1e-10
        )


class TestErgotropy:
    def test_passive_input_yields_nothing(self, qubit_h):
        assert abs(ergotropy(thermal_state(qubit_h, 2.0), qubit_h)) < 1e-12

    def test_excited_qubit(self, qubit_h):
        assert_allclose(ergotropy(pure_state([1.0, 0.0]), qubit_h), 1.0, atol=1e-12)

    def test_steady_state_quarter_coupling(self):
        # 1 - 2c at c = 0.25 in the cold-bath regime
        rho = analytic_steady_state(0.25, ModelParams())
        assert abs(ergotropy(rho, H_TOTAL) - 0.5) < 5e-3

    def test_double_sum_form_agrees(self, rng):
        for _ in range(20):
            rho = _random_state(rng)
            h = _random_h(rng)
            assert abs(ergotropy(rho, h) - ergotropy_double_sum(rho, h)) < 1e-9


def _converged_thermal(e, target):
    """beta* with S(exp(-beta* H)/Z) = target for the levels ``e``, by a
    bisection on [0, 1e6] run until its bracket cannot shrink further, and
    the energy of that thermal state."""

    def populations(beta):
        w = np.exp(-beta * (e - e.min()))
        return w / w.sum()

    def entropy(beta):
        p = populations(beta)
        p = p[p > 1e-12]
        return float(-(p * np.log(p)).sum())

    beta = bisect_to_end(lambda beta: entropy(beta) > target, 0.0, 1e6)
    return beta, float(populations(beta) @ e)


class TestBoundErgotropy:
    def test_thermal_input(self, qubit_h):
        assert abs(bound_ergotropy(thermal_state(qubit_h, 1.0), qubit_h)) < 1e-9

    def test_pure_qubit(self, qubit_h):
        assert abs(bound_ergotropy(pure_state([1.0, 0.0]), qubit_h)) < 1e-12

    def test_steady_state_respects_mutual_information_bound(self):
        params = ModelParams()
        rho = analytic_steady_state(0.25, params)
        eb = bound_ergotropy(rho, H_TOTAL)
        assert eb > 0.0
        total = ergotropy(rho, H_TOTAL) + eb
        beta = local_beta(0.25, params)
        assert beta * total <= mutual_information(rho) + 1e-9

    def test_nonnegative_random(self, rng):
        for _ in range(20):
            assert bound_ergotropy(_random_state(rng), _random_h(rng)) >= -1e-9

    def test_flat_spectrum(self):
        h = Hamiltonian(np.eye(3, dtype=complex))
        rho = DensityMatrix(np.diag([0.7, 0.2, 0.1]).astype(complex))
        assert bound_ergotropy(rho, h) == 0.0

    def test_matches_numpy_reference(self, qubit_h):
        rng = np.random.default_rng(99)
        pairs = [
            (random_density_matrix(dim, rng), random_hamiltonian(dim, rng))
            for dim in (2, 4)
            for _ in range(50)
        ]
        pairs += [
            (thermal_state(qubit_h, 1.0), qubit_h),
            (thermal_state(H_TOTAL, 0.3), H_TOTAL),
            (pure_state([0.6, 0.8]), qubit_h),
            (pure_state([0.0, 0.6, 0.8, 0.0]), H_TOTAL),
            # H_TOTAL has a degenerate middle level
            (analytic_steady_state(0.25, ModelParams()), H_TOTAL),
            (_random_state(rng), H_TOTAL),
        ]
        for rho, h in pairs:
            assert abs(bound_ergotropy(rho, h) - _reference_bound_ergotropy(rho, h)) <= 1e-12

    @pytest.mark.parametrize("seed", [88, 185, 232, 270, 280])
    def test_near_maximally_mixed_draws_pass_verify(self, seed):
        """At these seeds the suite draws states so close to maximally mixed
        that beta* is small (0.0048 at seed 232), where a stop rule on the
        entropy alone left the energy off by up to 3.9e-9."""
        (result,) = run_suites(seed=seed, n=500, names=["bound_ergotropy_nonneg"])
        assert result.failures == 0, result

    def test_small_beta_matches_the_converged_root(self):
        """The qubit draw k = 74 of seed 232's bound_ergotropy_nonneg suite,
        against a bisection run to the end of its bracket."""
        index = next(i for i, (name, _, _) in enumerate(SUITES) if name == "bound_ergotropy_nonneg")
        rng = np.random.default_rng([232, index])
        for k in range(75):
            dim = 4 if k % 2 else 2
            rho, h = random_density_matrix(dim, rng), random_hamiltonian(dim, rng)
        assert dim == 2
        e = h.eigenvalues
        beta_star, energy = _converged_thermal(e, entropy_of_eigenvalues(rho.eigenvalues()))
        assert beta_star < 0.005
        passive_e = float(np.sort(rho.eigenvalues())[::-1] @ e)
        assert abs(bound_ergotropy(rho, h) - (passive_e - energy)) <= 2.0 * ENTROPY_MATCH_TOL

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_maximally_mixed_input(self, dim):
        """At I/d the matched state sits at beta* = 0, where the stop rule
        asks for more than the round-off of S allows and may never fire.
        The bound ergotropy, exactly 0, is then as accurate as the float
        target: within sqrt(2 Var(H) dS) for a round-off dS = 4 eps ln d."""
        rng = np.random.default_rng(dim)
        rho = DensityMatrix(np.eye(dim, dtype=complex) / dim)
        d_s = 4.0 * np.finfo(float).eps * math.log(dim)
        for _ in range(50):
            h = random_hamiltonian(dim, rng)
            tol = math.sqrt(2.0 * float(np.var(h.eigenvalues)) * d_s)
            assert abs(bound_ergotropy(rho, h)) <= tol


def _population_floor(m, h) -> float:
    """The round-off of a population after the basis change: 0 when the
    eigenvectors are a permutation (entries 0 or of modulus 1), else
    4 d eps max|m_ij|."""
    v = h.eigenvectors
    if ((v == 0.0) | (np.abs(v) == 1.0)).all():
        return 0.0
    return 4 * h.dim * np.finfo(float).eps * np.abs(m).max()


def _lstsq_fit(m, h):
    """The earlier fit: a design matrix and np.linalg.lstsq for the line
    ln p = c - beta e, with the same coherence, population-floor and residual
    checks."""
    v = h.eigenvectors
    in_basis = v.conj().T @ m @ v
    if np.abs(in_basis - np.diag(np.diag(in_basis))).max() > 1e-8:
        return None
    populations = np.diag(in_basis).real
    if populations.min() <= _population_floor(m, h):
        return None
    log_p = np.log(populations)
    design = np.stack([-h.eigenvalues, np.ones(h.dim)], axis=1)
    coef, *_ = np.linalg.lstsq(design, log_p, rcond=None)
    if np.abs(design @ coef - log_p).max() > 1e-8:
        return None
    return float(coef[0])


def _log_populations(m, h):
    v = h.eigenvectors
    return [math.log(p) for p in np.diag(v.conj().T @ m @ v).real.tolist()]


def _exact_fit(m, h) -> float:
    """The least-squares slope in exact rationals from the float logs."""
    log_p = [Fraction(l) for l in _log_populations(m, h)]
    energies = [Fraction(e) for e in h.eigenvalues.tolist()]
    e_mean, l_mean = sum(energies) / len(energies), sum(log_p) / len(log_p)
    num = sum((e - e_mean) * (l - l_mean) for e, l in zip(energies, log_p))
    return float(-num / sum((e - e_mean) ** 2 for e in energies))


def _slope_roundoff(m, h) -> float:
    """eps max|ln p| / spread: the round-off scale of a fitted slope."""
    spread = float(h.eigenvalues[-1] - h.eigenvalues[0])
    return np.finfo(float).eps * max(map(abs, _log_populations(m, h))) / spread


def _fit_cases():
    """Seeded local states of random 2-, 3- and 4-level Hamiltonians: thermal
    ones, and ones made non-thermal by a coherence, by perturbed populations
    (beyond and within the 1e-8 residual), or by a zero or negative
    population."""
    rng = np.random.default_rng(314)
    cases = []
    for dim in (2, 3, 4):
        for k in range(150):
            h = random_hamiltonian(dim, rng)
            v = h.eigenvectors
            beta = float(rng.uniform(0.05, 5.0))
            p = np.exp(-beta * (h.eigenvalues - h.eigenvalues[0]))
            kind = k % 6
            if kind == 1:
                p = p * (1.0 + 1e-6 * rng.standard_normal(dim))
            elif kind == 2:
                p = p * (1.0 + 1e-11 * rng.standard_normal(dim))
            elif kind == 3:
                p[rng.integers(dim)] = 0.0
            elif kind == 4:
                p[rng.integers(dim)] = -0.1
            m = (v * (p / p.sum())) @ v.conj().T
            if kind == 5:
                coherence = v[:, [0]] @ v[:, [1]].conj().T
                m = m + 1e-6 * (coherence + coherence.conj().T)
            cases.append((m, h))
    return cases


class TestLocalInverseTemperature:
    def test_roundtrip(self, qubit_h):
        assert_allclose(
            local_inverse_temperature(thermal_state(qubit_h, 1.7), qubit_h), 1.7, atol=1e-9
        )

    def test_maximally_mixed_is_infinite_temperature(self, qubit_h):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        assert_allclose(local_inverse_temperature(rho, qubit_h), 0.0, atol=1e-12)

    def test_coherences_flagged(self, qubit_h):
        plus = pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert local_inverse_temperature(plus, qubit_h) is None

    def test_non_thermal_populations_flagged(self, rng):
        h = Hamiltonian(np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex))
        rho = DensityMatrix(np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex))
        assert local_inverse_temperature(rho, h) is None

    def test_matches_the_least_squares_fit(self):
        """Same verdict as the lstsq fit on every case; where both fit, the
        values differ by round-off of the size eps max|ln p| / spread, the
        conditioning of the line's slope (at most 5.4 such units here)."""
        for m, h in _fit_cases():
            fitted, reference = local_inverse_temperature(m, h), _lstsq_fit(m, h)
            assert (fitted is None) == (reference is None)
            if fitted is not None:
                assert abs(fitted - reference) <= 16 * _slope_roundoff(m, h)

    def test_is_the_exact_least_squares_line(self):
        """Against the least-squares slope computed in exact rationals from the
        same float logarithms: within a few units of round-off (at most 1.8
        here), where lstsq itself is off by up to 4.8."""
        for m, h in _fit_cases():
            fitted = local_inverse_temperature(m, h)
            if fitted is not None:
                assert abs(fitted - _exact_fit(m, h)) <= 4 * _slope_roundoff(m, h)

    @pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e100, 1e200])
    def test_any_energy_scale(self, qubit_h, scale):
        """Same populations, levels scaled: beta scales inversely, with no
        underflow or overflow in the squared deviations."""
        rho = thermal_state(qubit_h, 0.7)
        fitted = local_inverse_temperature(rho, Hamiltonian(scale * qubit_h.matrix))
        assert fitted * scale == pytest.approx(local_inverse_temperature(rho, qubit_h), rel=1e-15)

    def test_a_population_at_the_rotation_roundoff_is_zero(self):
        """The ground state of a random qubit Hamiltonian: its excited
        population comes out of the basis change as ~1e-17, not 0, and a line
        through it would give beta = 18.4.  It is not thermal at any finite
        beta."""
        h = random_hamiltonian(2, np.random.default_rng(5))
        ground = h.eigenvectors[:, [0]] @ h.eigenvectors[:, [0]].conj().T
        populations = np.diag(h.eigenvectors.conj().T @ ground @ h.eigenvectors).real
        assert 0.0 < populations.min() <= _population_floor(ground, h)
        assert local_inverse_temperature(ground, h) is None

    @pytest.mark.parametrize("beta", [30.0, 700.0])
    def test_permutation_eigenvectors_have_no_floor(self, qubit_h, beta):
        """diag(1, 0) rotates exactly, so a population of e^-700 still fits."""
        assert _population_floor(np.eye(2), qubit_h) == 0.0
        rho = thermal_state(qubit_h, beta)
        assert local_inverse_temperature(rho, qubit_h) == pytest.approx(beta, rel=1e-12)

    def test_zeroed_populations_are_not_thermal(self):
        """Every fit case with a population set to 0 is refused, including
        the 16 qubit ones whose zero comes out of the basis change as a
        positive round-off that a line would fit with a finite beta."""
        for k, (m, h) in enumerate(_fit_cases()):
            if k % 150 % 6 == 3:
                assert local_inverse_temperature(m, h) is None

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_degenerate_spectrum_is_infinite_temperature(self, dim):
        """All levels equal, exactly or up to eigh round-off after a rotation:
        uniform populations fit beta = 0.0, anything else is not thermal."""
        u = random_unitary(dim, np.random.default_rng(dim))
        uniform = np.eye(dim, dtype=complex) / dim
        skewed = np.diag(np.linspace(1.0, 2.0, dim)).astype(complex)
        skewed /= np.trace(skewed)
        for h in (
            Hamiltonian(2.5 * np.eye(dim, dtype=complex)),
            Hamiltonian(2.5 * u @ u.conj().T),
            Hamiltonian(np.zeros((dim, dim), dtype=complex)),
        ):
            assert local_inverse_temperature(uniform, h) == 0.0
            assert local_inverse_temperature(skewed, h) is None


class TestThermoReport:
    def test_global_is_sum(self, qubit_h):
        rho = analytic_steady_state(0.3, ModelParams())
        rep = thermo_report(rho, qubit_h, beta=local_beta(0.3, ModelParams()))
        assert_allclose(
            rep.global_ergotropy, rep.ergotropy + rep.bound_ergotropy, atol=1e-12
        )
        assert rep.ergotropy >= -1e-9
        assert rep.bound_ergotropy >= -1e-9

    def test_avg_energy_is_marginal_energy(self, qubit_h):
        params = ModelParams()
        rho = analytic_steady_state(0.6, params)
        rep = thermo_report(rho, qubit_h, beta=local_beta(0.6, params))
        from qthermo import partial_trace

        assert_allclose(
            rep.avg_energy, average_energy(partial_trace(rho, "B"), qubit_h), atol=1e-12
        )

    def test_beta_zero_free_energy(self, qubit_h, singlet):
        rep = thermo_report(singlet, qubit_h, beta=0.0)
        assert rep.free_energy == -np.inf


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_perm=st.integers(1, 30),
)
def test_passive_assignment_minimizes_energy(seed, n_perm):
    rng = np.random.default_rng(seed)
    rho = _random_state(rng)
    h = _random_h(rng)
    r_desc = np.sort(rho.eigenvalues())[::-1]
    e_asc = h.eigenvalues
    passive_energy = r_desc @ e_asc
    for _ in range(n_perm):
        perm = rng.permutation(4)
        assert e_asc[perm] @ r_desc >= passive_energy - 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_thermal_state_minimizes_energy_at_fixed_entropy(seed):
    rng = np.random.default_rng(seed)
    rho = _random_state(rng)
    h = _random_h(rng)
    assert bound_ergotropy(rho, h) >= -1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_thermal_entropy_matching_accuracy(seed):
    rng = np.random.default_rng(seed)
    rho = _random_state(rng)
    h = _random_h(rng)
    eb = bound_ergotropy(rho, h)
    passive_e = np.sort(rho.eigenvalues())[::-1] @ h.eigenvalues
    beta_star, energy = _converged_thermal(h.eigenvalues, von_neumann_entropy(rho))
    # the bisection stops within ENTROPY_MATCH_TOL min(1, beta) of the target
    # entropy, and dE = dS / beta, so the energy is within ENTROPY_MATCH_TOL
    # min(1, 1 / beta*) of the root's to first order; twice that covers the
    # second order, plus round-off
    tol = 2.0 * ENTROPY_MATCH_TOL * min(1.0, 1.0 / beta_star) + 1e-12
    assert abs((passive_e - eb) - energy) <= tol


def _cache_misses() -> tuple[int, int]:
    """Body runs so far of the fit and of the global-work pair."""
    return thermo._fitted_beta.cache_info().misses, thermo._global_work.cache_info().misses


def _clear_caches() -> None:
    thermo._fitted_beta.cache_clear()
    thermo._global_work.cache_clear()


def _report_hexes(rho, h_b, beta) -> list[str]:
    return [float.hex(float(v)) for v in dataclasses.astuple(thermo_report(rho, h_b, beta))]


def _fit_hexes(rho, h_b) -> list[str]:
    fits = [local_inverse_temperature(partial_trace(rho, side), h_b) for side in "AB"]
    return [float.hex(common_local_beta(rho, h_b))] + [float.hex(b) for b in fits]


class TestMemoizedWorkAndFit:
    """thermo_report keeps the global work of the last state object it met,
    and local_inverse_temperature the fit of the last marginal content.
    Neither memo may change a value, or serve an input it was not made for."""

    @pytest.mark.parametrize("beta_e", [10.0, 1.0])
    def test_warm_values_are_the_cold_bits_on_the_default_grid(self, beta_e):
        params = ModelParams(beta_e=beta_e)
        h_b = local_qubit_hamiltonian(params.omega)
        for c in RunConfig(beta_e=beta_e).c_grid().tolist():
            rho, beta = analytic_steady_state(c, params), local_beta(c, params)
            _clear_caches()
            cold_report = _report_hexes(rho, h_b, beta)
            _clear_caches()
            cold_fits = _fit_hexes(rho, h_b)
            thermo_report(rho, h_b, beta)  # the fit memo is warm; warm the work memo
            misses = _cache_misses()
            assert _report_hexes(rho, h_b, beta) == cold_report
            assert _fit_hexes(rho, h_b) == cold_fits
            assert _cache_misses() == misses  # every warm value came from a memo

    def test_a_different_state_gets_its_own_values(self, qubit_h):
        """After hits on a steady state, a non-X state with thermal marginals
        at the same beta is a new object with new marginal bytes: its work
        and its fits are computed, not served."""
        params = ModelParams(omega=1.0)
        steady = analytic_steady_state(0.5, params)
        beta = local_beta(0.5, params)
        tau = thermal_state(qubit_h, beta).matrix
        skew = 0.05 * (np.kron(SIGMA_X, SIGMA_Y) + np.kron(SIGMA_Z, SIGMA_X))
        non_x = DensityMatrix(np.kron(tau, tau) + skew * tau[1, 1] ** 2, dims=(2, 2))
        for _ in range(2):
            _report_hexes(steady, qubit_h, beta)
            _fit_hexes(steady, qubit_h)
        fit_misses, work_misses = _cache_misses()
        warm = (_report_hexes(non_x, qubit_h, beta), _fit_hexes(non_x, qubit_h))
        assert _cache_misses()[1] == work_misses + 1
        assert _cache_misses()[0] >= fit_misses + 1
        _clear_caches()
        cold_report = _report_hexes(non_x, qubit_h, beta)
        _clear_caches()
        assert warm == (cold_report, _fit_hexes(non_x, qubit_h))
        assert thermo_report(non_x, qubit_h, beta).ergotropy != thermo_report(
            steady, qubit_h, beta
        ).ergotropy

    def test_the_sign_of_a_zero_entry_is_a_new_fit(self, qubit_h):
        positive = thermal_state(qubit_h, 0.7).matrix.copy()
        negative = positive.copy()
        negative[0, 1] = complex(-0.0, 0.0)
        assert positive[0, 1] == negative[0, 1] and positive.tobytes() != negative.tobytes()
        fitted = local_inverse_temperature(positive, qubit_h)
        assert local_inverse_temperature(positive, qubit_h) == fitted
        misses = _cache_misses()[0]
        refit = local_inverse_temperature(negative, qubit_h)
        assert _cache_misses()[0] == misses + 1
        _clear_caches()
        assert float.hex(refit) == float.hex(local_inverse_temperature(negative, qubit_h))

    @pytest.mark.parametrize("beta_e", [10.0, 1.0])
    def test_one_fit_one_root_per_sweep_row(self, monkeypatch, beta_e):
        """A sweep row reports its state 6 times and fits its two equal
        marginals 10 times; each body runs once, and each memo keeps one
        entry.  The c = 0 steady state is pure, so its bound ergotropy needs
        no root."""
        runs = {"bound_ergotropy": 0, "_entropy_matched_energy": 0}
        for name in runs:
            body = getattr(thermo, name)

            def counted(*args, _body=body, _name=name):
                runs[_name] += 1
                return _body(*args)

            monkeypatch.setattr(thermo, name, counted)
        _clear_caches()
        rows = sweep_rows(RunConfig(beta_e=beta_e, c_step=0.25))
        assert len(rows) == 5
        assert runs == {"bound_ergotropy": 5, "_entropy_matched_energy": 4}
        assert _cache_misses() == (5, 5)
        assert thermo._fitted_beta.cache_info().currsize <= 1
        assert thermo._global_work.cache_info().currsize <= 1
