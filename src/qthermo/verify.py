"""Seeded randomized property suites covering every module's invariants.

Each suite is declared once, by the ``_suite`` decorator on its body, and
draws its own generator from (seed, suite index), so results are
deterministic for a fixed seed and independent of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import (
    POSITIVITY_TOL,
    DensityMatrix,
    _kron,
    _spectrum,
    marginal_entropy,
    partial_trace,
    purify,
    relative_entropy_of_coherence,
    trace_distance,
    von_neumann_entropy,
)
from .correlations import (
    SPLIT_TOL,
    SearchGrid,
    breakdown,
    chi_A_max,
    discord_A,
    eof_via_koashi_winter,
    mutual_information,
    wootters_eof,
)
from .dissipation import (
    ModelParams,
    _effective_cs,
    _non_x_magnitudes,
    analytic_ergotropy_low_temperature,
    analytic_steady_state,
    effective_c,
    evolve,
    lindblad_rhs,
    local_beta,
    local_qubit_hamiltonian,
)
from .measurement import (
    _product_povm,
    correlations_lost,
    entropy_cost,
    holevo_of_measurement,
    information_gain,
    local_information_gain,
    measure,
    projective_energy_povm,
)
from .random_states import (
    _projectors,
    random_density_matrix,
    random_general_povm,
    random_hamiltonian,
    random_local_general_povm,
    random_local_projective_povm,
    random_projective_povm,
    random_rank2_two_qubit,
    random_two_outcome_projective,
    random_two_qubit_state,
    random_unitary,
    random_unsharp_on_b,
    random_x_state,
)
from .thermo import (
    Hamiltonian,
    bound_ergotropy,
    ergotropy,
    ergotropy_double_sum,
    local_inverse_temperature,
    passive_state,
    thermal_state,
)

DEFAULT_SEED = 7


@dataclass
class SuiteResult:
    """Outcome of one randomized property suite.

    ``kind`` is "slack" (every value must be >= -tolerance, worst = min) or
    "residual" (every |value| must be <= tolerance, worst = max |value|).
    """

    name: str
    count: int
    failures: int
    worst: float
    tolerance: float
    kind: str

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        out = dict(vars(self))
        return {"suite": out.pop("name"), **out, "passed": self.passed}


# (name, run, scale) in definition order: a suite's index here seeds its
# generator, so suites are appended, never reordered
SUITES: list[tuple] = []


def _suite(name: str, kind: str, tolerance: float, scale: float = 1.0):
    """Register a suite body, a generator over (rng, count) that yields each
    checked value, as a ``kind`` suite at ``tolerance`` (see SuiteResult)
    whose count is ``scale`` times the one asked for."""

    def register(body):
        def run(rng, n) -> SuiteResult:
            values = np.asarray(list(body(rng, n)), dtype=float)
            if kind == "slack":
                failures, worst = (values < -tolerance).sum(), values.min()
            else:
                values = np.abs(values)
                failures, worst = (values > tolerance).sum(), values.max()
            return SuiteResult(name, values.size, int(failures), float(worst), tolerance, kind)

        SUITES.append((name, run, scale))
        return run

    return register


def _mixed_povm(rng, k: int):
    kind = k % 5
    if kind == 0:
        return random_projective_povm(4, rng)
    if kind == 1:
        return random_local_projective_povm(rng)
    if kind == 2:
        return random_general_povm(4, rng, n_outcomes=3)
    if kind == 3:
        return random_local_general_povm(rng)
    return random_unsharp_on_b(rng)


def _projective_povm(rng, k: int):
    kind = k % 3
    if kind == 0:
        return random_projective_povm(4, rng)
    if kind == 1:
        return random_two_outcome_projective(4, rng)
    return random_local_projective_povm(rng)


def _local_projective(rng, k: int):
    side = (None, "A", "B")[k % 3]
    return random_local_projective_povm(rng, side=side)


def _local_or_general(rng, k: int):
    return random_local_general_povm(rng) if k % 2 else _local_projective(rng, k)


def _measured(rng, n: int, draw_povm):
    """Draw n (state, POVM) pairs, each state before its POVM ``draw_povm(rng,
    k)``, and yield each pair's record."""
    for k in range(n):
        rho = random_two_qubit_state(rng)
        yield measure(rho, draw_povm(rng, k))


_QUBIT_H = local_qubit_hamiltonian(1.0)
_ENERGY_POVM_B = projective_energy_povm(_QUBIT_H, (2, 2))
# every ordering of four energy levels, for the exhaustive passive check
_PERMUTATIONS_4 = np.array(list(permutations(range(4))))


@_suite("entropy_concavity", "slack", 1e-9, scale=2.0)
def suite_entropy_concavity(rng, n):
    for _ in range(n):
        a = random_density_matrix(4, rng)
        b = random_density_matrix(4, rng)
        mix = DensityMatrix(0.5 * a.matrix + 0.5 * b.matrix)
        yield (
            von_neumann_entropy(mix)
            - 0.5 * von_neumann_entropy(a)
            - 0.5 * von_neumann_entropy(b)
        )


@_suite("entropy_subadditivity", "slack", 1e-9)
def suite_entropy_subadditivity(rng, n):
    for _ in range(n):
        rho = random_two_qubit_state(rng)
        yield mutual_information(rho)


@_suite("ptrace_kron_roundtrip", "residual", 1e-9)
def suite_ptrace_kron_roundtrip(rng, n):
    for _ in range(n):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(2, rng)
        joint = DensityMatrix(_kron(a.matrix, b.matrix), dims=(2, 2))
        yield np.abs(partial_trace(joint, "A").matrix - a.matrix).max()
        yield np.abs(partial_trace(joint, "B").matrix - b.matrix).max()


@_suite("purify_roundtrip", "residual", 1e-9)
def suite_purify_roundtrip(rng, n):
    for k in range(n):
        rho = random_density_matrix(4, rng, rank=1 + k % 4)
        psi = purify(rho)
        mat = psi.reshape(4, -1)
        yield np.abs(mat @ mat.conj().T - rho.matrix).max()


@_suite("dimension_bound", "slack", 1e-9)
def suite_dimension_bound(rng, n):
    for record in _measured(rng, n, _mixed_povm):
        rhs = np.log(4.0) - mutual_information(record.pre_state)
        yield rhs - information_gain(record)


@_suite("gain_decomposition", "residual", 1e-9)
def suite_gain_decomposition(rng, n):
    for record in _measured(rng, n, _local_or_general):
        lost = correlations_lost(record)
        lhs = information_gain(record)
        rhs = (
            local_information_gain(record, "A")
            + local_information_gain(record, "B")
            - lost
        )
        yield lhs - rhs


@_suite("correlations_lost_nonneg", "slack", 1e-9)
def suite_correlations_lost(rng, n):
    for record in _measured(rng, n, _local_projective):
        yield correlations_lost(record)


@_suite("gain_subadditivity", "slack", 1e-9)
def suite_gain_subadditivity(rng, n):
    for record in _measured(rng, n, _local_projective):
        lhs = information_gain(record)
        rhs = local_information_gain(record, "A") + local_information_gain(record, "B")
        yield rhs - lhs


@_suite("gain_nonneg_rank_one", "slack", 1e-9)
def suite_gain_nonnegative(rng, n):
    for record in _measured(rng, n, lambda rng, k: random_projective_povm(4, rng)):
        yield information_gain(record)


@_suite("holevo_closure", "residual", 1e-9)
def suite_holevo_closure(rng, n):
    for record in _measured(rng, n, _mixed_povm):
        yield (
            holevo_of_measurement(record)
            - information_gain(record)
            - entropy_cost(record)
        )


@_suite("delta_projective", "slack", 1e-9)
def suite_entropy_cost_projective(rng, n):
    for record in _measured(rng, n, _projective_povm):
        yield entropy_cost(record)


@_suite("coherence_gap", "residual", 1e-9)
def suite_coherence_gap(rng, n):
    # known product bases, so the coherence basis matches the projectors
    for _ in range(n):
        rho = random_two_qubit_state(rng)
        u_a, u_b = random_unitary(2, rng), random_unitary(2, rng)
        record = measure(rho, _product_povm(_projectors(u_a), _projectors(u_b)))
        gap = holevo_of_measurement(record) - information_gain(record)
        coherence = relative_entropy_of_coherence(rho.matrix, _kron(u_a, u_b))
        yield gap - coherence


@_suite("energy_measurement_structure", "residual", 1e-9)
def suite_energy_measurement_structure(rng, n):
    for record in _measured(rng, n, lambda rng, k: _ENERGY_POVM_B):
        for p, s in zip(record.probabilities, record.post_states):
            if s is None:
                continue
            yield marginal_entropy(s, "B")
            yield mutual_information(s)


@_suite("local_gain_identity", "residual", 1e-9)
def suite_local_gain_identity(rng, n):
    for record in _measured(rng, n, lambda rng, k: _ENERGY_POVM_B):
        rho = record.pre_state
        chi_b = local_information_gain(record, "A")
        s_b = marginal_entropy(rho, "B")
        yield information_gain(record) - (chi_b + s_b - mutual_information(rho))


@_suite("gain_split", "residual", SPLIT_TOL)
def suite_gain_split(rng, n):
    """information gain = chi_B + quantum gain under the energy measurement on B.

    The quantum gain is (S_B - chi_A) - (I - chi_A) = S_B - I, so chi_A
    cancels and this suite cannot see it; discord_nonneg and kw_vs_wootters
    test chi_A.  The tolerance allows the two 1e-6 clamps of discord and EoF.
    """
    for _ in range(n):
        rho = random_rank2_two_qubit(rng)
        corr = breakdown(rho, _QUBIT_H)
        yield corr.information_gain - (corr.chi_B + corr.quantum_gain)


@_suite("discord_nonneg", "slack", 1e-6)
def suite_discord_nonnegative(rng, n):
    for _ in range(n):
        rho = random_two_qubit_state(rng)
        yield discord_A(rho)


@_suite("kw_vs_wootters", "residual", 1e-12)
def suite_kw_vs_wootters(rng, n):
    # the one exact oracle for chi_A_max: Koashi-Winter EoF against Wootters'
    # concurrence formula on rank-2 states.  The concurrence comes from the
    # singular values of sqrt(rho)^T (sy(x)sy) sqrt(rho) (Uhlmann's form), so
    # the oracle is accurate to round-off and both sides agree to a few 1e-15
    # at count 500; the tolerance leaves room for that round-off only
    for _ in range(n):
        rho = random_rank2_two_qubit(rng)
        via_kw = eof_via_koashi_winter(rho)
        psi = purify(rho).reshape(2, 2, -1)
        r = psi.shape[-1]
        rho_bc = np.einsum("abk,acl->bkcl", psi, psi.conj()).reshape(2 * r, 2 * r)
        if r == 1:
            rho_bc = _kron(rho_bc, np.diag([1.0, 0.0]))
        yield via_kw - wootters_eof(rho_bc)


@_suite("chi_grid_monotone", "slack", 1e-12, scale=0.1)
def suite_chi_grid_monotone(rng, n):
    # the Newton ascent against the reference grid search at its finer 128x128
    # grid: both are lower bounds, and the ascent converges to round-off, so
    # it may fall short only by round-off
    for _ in range(n):
        rho = random_two_qubit_state(rng)
        yield chi_A_max(rho) - chi_A_max(rho, SearchGrid(coarse=128))


@_suite("ergotropy_double_sum", "residual", 1e-9)
def suite_ergotropy_double_sum(rng, n):
    for _ in range(n):
        rho = random_density_matrix(4, rng)
        h = random_hamiltonian(4, rng)
        yield ergotropy(rho, h) - ergotropy_double_sum(rho, h)


@_suite("ergotropy_nonneg", "slack", 1e-9)
def suite_ergotropy_nonnegative(rng, n):
    for _ in range(n):
        yield ergotropy(random_density_matrix(4, rng), random_hamiltonian(4, rng))


@_suite("ergotropy_unitary_invariance", "residual", 1e-9)
def suite_ergotropy_unitary_invariance(rng, n):
    for _ in range(n):
        rho = random_density_matrix(4, rng)
        h = random_hamiltonian(4, rng)
        u = random_unitary(4, rng)
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
        passive_e = np.sort(rho.eigenvalues())[::-1] @ h.eigenvalues
        expected = float(np.trace(h.matrix @ rotated.matrix).real - passive_e)
        yield ergotropy(rotated, h) - expected


@_suite("passive_minimality", "slack", 1e-9)
def suite_passive_minimality(rng, n):
    for _ in range(n):
        rho = random_density_matrix(4, rng)
        h = random_hamiltonian(4, rng)
        r_desc = np.sort(rho.eigenvalues())[::-1]
        e_asc = h.eigenvalues
        passive_e = float(r_desc @ e_asc)
        permuted = e_asc[_PERMUTATIONS_4] @ r_desc
        yield float(permuted.min()) - passive_e


@_suite("bound_ergotropy_nonneg", "slack", 1e-9)
def suite_bound_ergotropy_nonnegative(rng, n):
    for k in range(n):
        dim = 4 if k % 2 else 2
        rho = random_density_matrix(dim, rng)
        h = random_hamiltonian(dim, rng)
        yield bound_ergotropy(rho, h)


@_suite("thermal_fit_roundtrip", "residual", 1e-8)
def suite_thermal_roundtrip(rng, n):
    # populations below ~1e-8 are not recoverable from a dense matrix, so the
    # draw keeps beta * spectral spread small enough to resolve every level
    for _ in range(n):
        h = random_hamiltonian(4, rng)
        beta = rng.uniform(0.05, 14.0 / h.spread)
        fitted = local_inverse_temperature(thermal_state(h, beta), h)
        yield np.inf if fitted is None else fitted - beta


@_suite("passive_commutes_zero_work", "residual", 1e-8)
def suite_passive_is_stationary(rng, n):
    for _ in range(n):
        rho = random_density_matrix(4, rng)
        h = random_hamiltonian(4, rng)
        p = passive_state(rho, h)
        yield np.abs(h.matrix @ p.matrix - p.matrix @ h.matrix).max()
        yield ergotropy(p, h)


@_suite("beta_formula_vs_fit", "residual", 1e-9)
def suite_beta_formula(rng, n):
    for k in range(n):
        beta_e = 10.0 if k % 2 else rng.uniform(0.5, 6.0)
        omega = 1.0 if k % 3 else rng.uniform(0.5, 2.0)
        params = ModelParams(omega=omega, beta_e=beta_e)
        c = rng.uniform(0.0, 1.0)
        rho = analytic_steady_state(c, params)
        h = local_qubit_hamiltonian(omega)
        fitted = local_inverse_temperature(partial_trace(rho, "B"), h)
        yield np.inf if fitted is None else fitted - local_beta(c, params)


@_suite("steady_state_fixed_point", "residual", 1e-10)
def suite_steady_state_fixed_point(rng, n):
    params = ModelParams()
    for _ in range(n):
        c = rng.uniform(0.0, 1.0)
        yield np.abs(lindblad_rhs(analytic_steady_state(c, params), params)).max()


_COLD = ModelParams()  # the cold bath: beta_e = 10, omega = 1


@_suite("steady_state_ergotropy", "residual", math.exp(-_COLD.beta_e * _COLD.omega))
def suite_steady_state_ergotropy(rng, n):
    """Steady-state ergotropy against its cold-bath form max(1 - 2c, 0).

    With x = exp(-beta_e omega) and Z = 1 + x + x^2, rho(c) puts 1 - c on the
    singlet (energy 1) and c/Z, c x/Z, c x^2/Z on gg, psi_+, ee (energies 0,
    1, 2).  Sorting them onto the levels gives the exact ergotropy
    1 - c (1 + 1/Z) up to c = Z/(1 + Z), then 0, and at most c x^2/Z once
    1 - c < c x^2/Z.  So it departs from max(1 - 2c, 0) by at most
    (x + x^2)/(2Z) < x/2, at c = 1/2; the tolerance is x.
    """
    h_total = Hamiltonian(np.diag([2.0, 1.0, 1.0, 0.0]).astype(complex))
    cs = np.linspace(0.0, 1.0, max(n, 2))
    for c in cs:
        rho = analytic_steady_state(float(c), _COLD)
        yield ergotropy(rho, h_total) - analytic_ergotropy_low_temperature(float(c))


def _trajectory_score(rho0: DensityMatrix, states: np.ndarray, x_input: bool) -> float:
    """The largest of the (n, 4, 4) trajectory's deviations, each over its
    floor: from unit trace (1e-9), below zero in an eigenvalue
    (POSITIVITY_TOL), from the singlet weight of ``rho0`` (1e-6) and, where
    ``x_input``, from the X shape (1e-10).  One array pass per invariant."""
    # the suite's own spectra, independent of evolve's min_eigenvalues
    lowest = float(_spectrum(states)[:, 0].min())
    trace_dev = np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0)
    c_dev = np.abs(_effective_cs(states) - effective_c(rho0))
    scores = [
        float(trace_dev.max()) / 1e-9,
        max(0.0, -lowest) / POSITIVITY_TOL,
        float(c_dev.max()) / 1e-6,
    ]
    if x_input:
        scores.append(float(_non_x_magnitudes(states).max()) / 1e-10)
    return max(scores)


@_suite("trajectory_invariants", "residual", 1.0, scale=0.02)
def suite_trajectory_invariants(rng, n):
    """Trace, positivity, singlet-weight conservation, and X-shape
    preservation along short trajectories."""
    params = ModelParams()
    for k in range(n):
        x_input = k % 2 == 0
        rho0 = random_x_state(rng) if x_input else random_two_qubit_state(rng)
        yield _trajectory_score(rho0, evolve(rho0, params, dt=0.005, t_max=4.0).states, x_input)


@_suite("steady_state_convergence", "residual", 1e-6, scale=0.006)
def suite_convergence_to_steady_state(rng, n):
    # the closed-form fixed-point family is reached from X-shape initial
    # states; generic states carry singlet <-> ground coherences that decay
    # only at the absorption rate gamma * nbar and outlive this horizon
    params = ModelParams()
    for _ in range(n):
        rho0 = random_x_state(rng)
        traj = evolve(rho0, params, dt=0.005, t_max=50.0)
        target = analytic_steady_state(effective_c(rho0), params)
        yield trace_distance(traj.states[-1], target)


def run_suites(seed: int = DEFAULT_SEED, n: int = 500, names=None) -> list[SuiteResult]:
    """Run the property suites with per-suite counts scaled from ``n``."""
    results = []
    for index, (name, fn, scale) in enumerate(SUITES):
        if names is not None and name not in names:
            continue
        rng = np.random.default_rng([seed, index])
        count = max(1, int(round(n * scale)))
        results.append(fn(rng, count))
    return results
