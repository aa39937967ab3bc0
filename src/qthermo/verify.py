"""Seeded randomized property suites covering every module's invariants.

Each suite draws its own generator from (seed, suite index), so results are
deterministic for a fixed seed and independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import (
    DensityMatrix,
    kron,
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
    chi_from_local_measurement,
    discord_A,
    eof_via_koashi_winter,
    mutual_information,
    wootters_eof,
)
from .dissipation import (
    ModelParams,
    analytic_ergotropy_low_temperature,
    analytic_steady_state,
    effective_c,
    evolve,
    lindblad_rhs,
    local_beta,
    local_qubit_hamiltonian,
    max_non_x_magnitude,
)
from .measurement import (
    Povm,
    correlations_lost,
    entropy_cost,
    holevo_of_measurement,
    information_gain,
    local_information_gain,
    local_povm,
    measure,
    projective_energy_povm,
)
from .random_states import (
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
        return {
            "suite": self.name,
            "count": self.count,
            "failures": self.failures,
            "worst": self.worst,
            "tolerance": self.tolerance,
            "kind": self.kind,
            "passed": self.passed,
        }


def _slack_suite(name, tolerance, values) -> SuiteResult:
    values = np.asarray(values, dtype=float)
    return SuiteResult(
        name=name,
        count=values.size,
        failures=int((values < -tolerance).sum()),
        worst=float(values.min()),
        tolerance=tolerance,
        kind="slack",
    )


def _residual_suite(name, tolerance, values) -> SuiteResult:
    values = np.abs(np.asarray(values, dtype=float))
    return SuiteResult(
        name=name,
        count=values.size,
        failures=int((values > tolerance).sum()),
        worst=float(values.max()),
        tolerance=tolerance,
        kind="residual",
    )


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


_QUBIT_H = local_qubit_hamiltonian(1.0)
# every ordering of four energy levels, for the exhaustive passive check
_PERMUTATIONS_4 = np.array(list(permutations(range(4))))


def suite_entropy_concavity(rng, n):
    vals = []
    for _ in range(n):
        a = random_density_matrix(4, rng)
        b = random_density_matrix(4, rng)
        mix = DensityMatrix(0.5 * a.matrix + 0.5 * b.matrix)
        vals.append(
            von_neumann_entropy(mix)
            - 0.5 * von_neumann_entropy(a)
            - 0.5 * von_neumann_entropy(b)
        )
    return _slack_suite("entropy_concavity", 1e-9, vals)


def suite_entropy_subadditivity(rng, n):
    vals = []
    for _ in range(n):
        rho = random_two_qubit_state(rng)
        vals.append(mutual_information(rho))
    return _slack_suite("entropy_subadditivity", 1e-9, vals)


def suite_ptrace_kron_roundtrip(rng, n):
    vals = []
    for _ in range(n):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(2, rng)
        joint = DensityMatrix(kron(a, b), dims=(2, 2))
        vals.append(np.abs(partial_trace(joint, "A").matrix - a.matrix).max())
        vals.append(np.abs(partial_trace(joint, "B").matrix - b.matrix).max())
    return _residual_suite("ptrace_kron_roundtrip", 1e-9, vals)


def suite_purify_roundtrip(rng, n):
    vals = []
    for k in range(n):
        rho = random_density_matrix(4, rng, rank=1 + k % 4)
        psi = purify(rho)
        mat = psi.reshape(4, -1)
        vals.append(np.abs(mat @ mat.conj().T - rho.matrix).max())
    return _residual_suite("purify_roundtrip", 1e-9, vals)


def suite_dimension_bound(rng, n):
    vals = []
    for k in range(n):
        rho = random_two_qubit_state(rng)
        record = measure(rho, _mixed_povm(rng, k))
        rhs = np.log(4.0) - mutual_information(rho)
        vals.append(rhs - information_gain(record))
    return _slack_suite("dimension_bound", 1e-9, vals)


def suite_gain_decomposition(rng, n):
    vals = []
    for k in range(n):
        rho = random_two_qubit_state(rng)
        povm = random_local_general_povm(rng) if k % 2 else _local_projective(rng, k)
        record = measure(rho, povm)
        lost = correlations_lost(record)
        lhs = information_gain(record)
        rhs = (
            local_information_gain(record, "A")
            + local_information_gain(record, "B")
            - lost
        )
        vals.append(lhs - rhs)
    return _residual_suite("gain_decomposition", 1e-9, vals)


def suite_correlations_lost(rng, n):
    vals = []
    for k in range(n):
        rho = random_two_qubit_state(rng)
        record = measure(rho, _local_projective(rng, k))
        vals.append(correlations_lost(record))
    return _slack_suite("correlations_lost_nonneg", 1e-9, vals)


def suite_gain_subadditivity(rng, n):
    vals = []
    for k in range(n):
        rho = random_two_qubit_state(rng)
        record = measure(rho, _local_projective(rng, k))
        lhs = information_gain(record)
        rhs = local_information_gain(record, "A") + local_information_gain(record, "B")
        vals.append(rhs - lhs)
    return _slack_suite("gain_subadditivity", 1e-9, vals)


def suite_gain_nonnegative(rng, n):
    vals = []
    for _ in range(n):
        rho = random_two_qubit_state(rng)
        vals.append(information_gain(measure(rho, random_projective_povm(4, rng))))
    return _slack_suite("gain_nonneg_rank_one", 1e-9, vals)


def suite_holevo_closure(rng, n):
    vals = []
    for k in range(n):
        rho = random_two_qubit_state(rng)
        record = measure(rho, _mixed_povm(rng, k))
        vals.append(
            holevo_of_measurement(record)
            - information_gain(record)
            - entropy_cost(record)
        )
    return _residual_suite("holevo_closure", 1e-9, vals)


def suite_entropy_cost_projective(rng, n):
    vals = []
    for k in range(n):
        rho = random_two_qubit_state(rng)
        vals.append(entropy_cost(measure(rho, _projective_povm(rng, k))))
    return _slack_suite("delta_projective", 1e-9, vals)


def suite_coherence_gap(rng, n):
    vals = []
    for _ in range(n):
        rho = random_two_qubit_state(rng)
        # known product bases, so the coherence basis matches the projectors
        u_a = random_unitary(2, rng)
        u_b = random_unitary(2, rng)
        proj_a = Povm([np.outer(u_a[:, i], u_a[:, i].conj()) for i in range(2)])
        proj_b = Povm([np.outer(u_b[:, i], u_b[:, i].conj()) for i in range(2)])
        record = measure(rho, local_povm(proj_a, proj_b))
        gap = holevo_of_measurement(record) - information_gain(record)
        coherence = relative_entropy_of_coherence(rho.matrix, np.kron(u_a, u_b))
        vals.append(gap - coherence)
    return _residual_suite("coherence_gap", 1e-9, vals)


def suite_energy_measurement_structure(rng, n):
    vals = []
    for _ in range(n):
        rho = random_two_qubit_state(rng)
        record = measure(rho, projective_energy_povm(_QUBIT_H, "B", (2, 2)))
        for p, s in zip(record.probabilities, record.post_states):
            if s is None:
                continue
            vals.append(marginal_entropy(s, "B"))
            vals.append(mutual_information(s))
    return _residual_suite("energy_measurement_structure", 1e-9, vals)


def suite_local_gain_identity(rng, n):
    vals = []
    for _ in range(n):
        rho = random_two_qubit_state(rng)
        povm = projective_energy_povm(_QUBIT_H, "B", (2, 2))
        record = measure(rho, povm)
        chi_b = chi_from_local_measurement(rho, povm)
        s_b = marginal_entropy(rho, "B")
        vals.append(information_gain(record) - (chi_b + s_b - mutual_information(rho)))
    return _residual_suite("local_gain_identity", 1e-9, vals)


def suite_gain_split(rng, n):
    """information gain = chi_B + quantum gain under the energy measurement on B.

    The quantum gain is (S_B - chi_A) - (I - chi_A) = S_B - I, so chi_A
    cancels and this suite cannot see it; discord_nonneg and kw_vs_wootters
    test chi_A.  The tolerance allows the two 1e-6 clamps of discord and EoF.
    """
    vals = []
    for _ in range(n):
        rho = random_rank2_two_qubit(rng)
        corr = breakdown(rho, _QUBIT_H)
        record = measure(rho, projective_energy_povm(_QUBIT_H, "B", (2, 2)))
        vals.append(information_gain(record) - (corr.chi_B + corr.quantum_gain))
    return _residual_suite("gain_split", SPLIT_TOL, vals)


def suite_discord_nonnegative(rng, n):
    vals = []
    for _ in range(n):
        rho = random_two_qubit_state(rng)
        vals.append(discord_A(rho))
    return _slack_suite("discord_nonneg", 1e-6, vals)


def suite_kw_vs_wootters(rng, n):
    # the one exact oracle for chi_A_max: Koashi-Winter EoF against Wootters'
    # concurrence formula on rank-2 states, to the refinement's 1e-7
    # termination level (as chi_grid_monotone)
    vals = []
    for _ in range(n):
        rho = random_rank2_two_qubit(rng)
        via_kw = eof_via_koashi_winter(rho)
        psi = purify(rho).reshape(2, 2, -1)
        r = psi.shape[-1]
        rho_bc = np.einsum("abk,acl->bkcl", psi, psi.conj()).reshape(2 * r, 2 * r)
        if r == 1:
            rho_bc = np.kron(rho_bc, np.diag([1.0, 0.0]))
        vals.append(via_kw - wootters_eof(rho_bc))
    return _residual_suite("kw_vs_wootters", 1e-7, vals)


def suite_chi_grid_monotone(rng, n):
    # tolerance matches the refinement resolution: the pattern search stops at
    # angle steps of 1e-4, so values carry O(step^2) ~ 1e-8 termination noise
    vals = []
    for _ in range(n):
        rho = random_two_qubit_state(rng)
        vals.append(chi_A_max(rho, SearchGrid(coarse=128)) - chi_A_max(rho, SearchGrid()))
    return _slack_suite("chi_grid_monotone", 1e-7, vals)


def suite_ergotropy_double_sum(rng, n):
    vals = []
    for _ in range(n):
        rho = random_density_matrix(4, rng)
        h = random_hamiltonian(4, rng)
        vals.append(ergotropy(rho, h) - ergotropy_double_sum(rho, h))
    return _residual_suite("ergotropy_double_sum", 1e-9, vals)


def suite_ergotropy_nonnegative(rng, n):
    vals = []
    for _ in range(n):
        vals.append(ergotropy(random_density_matrix(4, rng), random_hamiltonian(4, rng)))
    return _slack_suite("ergotropy_nonneg", 1e-9, vals)


def suite_ergotropy_unitary_invariance(rng, n):
    vals = []
    for _ in range(n):
        rho = random_density_matrix(4, rng)
        h = random_hamiltonian(4, rng)
        u = random_unitary(4, rng)
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
        passive_e = np.sort(rho.eigenvalues())[::-1] @ h.eigenvalues
        expected = float(np.trace(h.matrix @ rotated.matrix).real - passive_e)
        vals.append(ergotropy(rotated, h) - expected)
    return _residual_suite("ergotropy_unitary_invariance", 1e-9, vals)


def suite_passive_minimality(rng, n):
    vals = []
    for _ in range(n):
        rho = random_density_matrix(4, rng)
        h = random_hamiltonian(4, rng)
        r_desc = np.sort(rho.eigenvalues())[::-1]
        e_asc = h.eigenvalues
        passive_e = float(r_desc @ e_asc)
        permuted = e_asc[_PERMUTATIONS_4] @ r_desc
        vals.append(float(permuted.min()) - passive_e)
    return _slack_suite("passive_minimality", 1e-9, vals)


def suite_bound_ergotropy_nonnegative(rng, n):
    vals = []
    for k in range(n):
        dim = 4 if k % 2 else 2
        rho = random_density_matrix(dim, rng)
        h = random_hamiltonian(dim, rng)
        vals.append(bound_ergotropy(rho, h))
    return _slack_suite("bound_ergotropy_nonneg", 1e-9, vals)


def suite_thermal_roundtrip(rng, n):
    # populations below ~1e-8 are not recoverable from a dense matrix, so the
    # draw keeps beta * spectral spread small enough to resolve every level
    vals = []
    for _ in range(n):
        h = random_hamiltonian(4, rng)
        spread = float(h.eigenvalues.max() - h.eigenvalues.min())
        beta = rng.uniform(0.05, 14.0 / spread)
        fitted = local_inverse_temperature(thermal_state(h, beta), h)
        vals.append(np.inf if fitted is None else fitted - beta)
    return _residual_suite("thermal_fit_roundtrip", 1e-8, vals)


def suite_passive_is_stationary(rng, n):
    vals = []
    for _ in range(n):
        rho = random_density_matrix(4, rng)
        h = random_hamiltonian(4, rng)
        p = passive_state(rho, h)
        vals.append(np.abs(h.matrix @ p.matrix - p.matrix @ h.matrix).max())
        vals.append(ergotropy(p, h))
    return _residual_suite("passive_commutes_zero_work", 1e-8, vals)


def suite_beta_formula(rng, n):
    vals = []
    for k in range(n):
        beta_e = 10.0 if k % 2 else rng.uniform(0.5, 6.0)
        omega = 1.0 if k % 3 else rng.uniform(0.5, 2.0)
        params = ModelParams(omega=omega, beta_e=beta_e)
        c = rng.uniform(0.0, 1.0)
        rho = analytic_steady_state(c, params)
        h = local_qubit_hamiltonian(omega)
        fitted = local_inverse_temperature(partial_trace(rho, "B"), h)
        vals.append(np.inf if fitted is None else fitted - local_beta(c, params))
    return _residual_suite("beta_formula_vs_fit", 1e-9, vals)


def suite_steady_state_fixed_point(rng, n):
    params = ModelParams()
    vals = []
    for _ in range(n):
        c = rng.uniform(0.0, 1.0)
        vals.append(np.abs(lindblad_rhs(analytic_steady_state(c, params), params)).max())
    return _residual_suite("steady_state_fixed_point", 1e-10, vals)


def suite_steady_state_ergotropy(rng, n):
    params = ModelParams()
    h_total = Hamiltonian(np.diag([2.0, 1.0, 1.0, 0.0]).astype(complex))
    cs = np.linspace(0.0, 1.0, max(n, 2))
    vals = []
    for c in cs:
        rho = analytic_steady_state(float(c), params)
        vals.append(ergotropy(rho, h_total) - analytic_ergotropy_low_temperature(float(c)))
    return _residual_suite("steady_state_ergotropy", 5e-3, vals)


def suite_trajectory_invariants(rng, n):
    """Trace, positivity, singlet-weight conservation, and X-shape
    preservation along short trajectories."""
    params = ModelParams()
    vals = []
    for k in range(n):
        x_input = k % 2 == 0
        rho0 = random_x_state(rng) if x_input else random_two_qubit_state(rng)
        traj = evolve(rho0, params, dt=0.005, t_max=4.0)
        c0 = effective_c(rho0)
        worst = 0.0
        for state in traj.states:
            worst = max(worst, abs(np.trace(state).real - 1.0) / 1e-9)
            worst = max(worst, max(0.0, -float(np.linalg.eigvalsh(state).min())) / 1e-6)
            worst = max(worst, abs(effective_c(state) - c0) / 1e-6)
            if x_input:
                worst = max(worst, max_non_x_magnitude(state) / 1e-10)
        vals.append(worst)
    return _residual_suite("trajectory_invariants", 1.0, vals)


def suite_convergence_to_steady_state(rng, n):
    # the closed-form fixed-point family is reached from X-shape initial
    # states; generic states carry singlet <-> ground coherences that decay
    # only at the absorption rate gamma * nbar and outlive this horizon
    params = ModelParams()
    vals = []
    for _ in range(n):
        rho0 = random_x_state(rng)
        traj = evolve(rho0, params, dt=0.005, t_max=50.0)
        target = analytic_steady_state(effective_c(rho0), params)
        vals.append(trace_distance(traj.states[-1], target))
    return _residual_suite("steady_state_convergence", 1e-6, vals)


SUITES = [
    ("entropy_concavity", suite_entropy_concavity, 2.0),
    ("entropy_subadditivity", suite_entropy_subadditivity, 1.0),
    ("ptrace_kron_roundtrip", suite_ptrace_kron_roundtrip, 1.0),
    ("purify_roundtrip", suite_purify_roundtrip, 1.0),
    ("dimension_bound", suite_dimension_bound, 1.0),
    ("gain_decomposition", suite_gain_decomposition, 1.0),
    ("correlations_lost_nonneg", suite_correlations_lost, 1.0),
    ("gain_subadditivity", suite_gain_subadditivity, 1.0),
    ("gain_nonneg_rank_one", suite_gain_nonnegative, 1.0),
    ("holevo_closure", suite_holevo_closure, 1.0),
    ("delta_projective", suite_entropy_cost_projective, 1.0),
    ("coherence_gap", suite_coherence_gap, 1.0),
    ("energy_measurement_structure", suite_energy_measurement_structure, 1.0),
    ("local_gain_identity", suite_local_gain_identity, 1.0),
    ("gain_split", suite_gain_split, 1.0),
    ("discord_nonneg", suite_discord_nonnegative, 1.0),
    ("kw_vs_wootters", suite_kw_vs_wootters, 1.0),
    ("chi_grid_monotone", suite_chi_grid_monotone, 0.1),
    ("ergotropy_double_sum", suite_ergotropy_double_sum, 1.0),
    ("ergotropy_nonneg", suite_ergotropy_nonnegative, 1.0),
    ("ergotropy_unitary_invariance", suite_ergotropy_unitary_invariance, 1.0),
    ("passive_minimality", suite_passive_minimality, 1.0),
    ("bound_ergotropy_nonneg", suite_bound_ergotropy_nonnegative, 1.0),
    ("thermal_fit_roundtrip", suite_thermal_roundtrip, 1.0),
    ("passive_commutes_zero_work", suite_passive_is_stationary, 1.0),
    ("beta_formula_vs_fit", suite_beta_formula, 1.0),
    ("steady_state_fixed_point", suite_steady_state_fixed_point, 0.2),
    ("steady_state_ergotropy", suite_steady_state_ergotropy, 0.2),
    ("trajectory_invariants", suite_trajectory_invariants, 0.02),
    ("steady_state_convergence", suite_convergence_to_steady_state, 0.006),
]


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
