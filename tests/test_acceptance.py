"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them)."""

import time

import numpy as np
import pytest

from qthermo import (
    DensityMatrix,
    ModelParams,
    analytic_steady_state,
    effective_c,
    evolve,
    pure_state,
    trace_distance,
)
from qthermo.cli import RunConfig, sweep_rows
from qthermo.dissipation import KET_EE, KET_GG
from qthermo.verify import run_suites

GRID_RUNTIME_BUDGET = 60.0  # seconds for the full c grid


def _criterion(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def sweep():
    start = time.perf_counter()
    rows = sweep_rows(RunConfig())
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_1_tight_bound_saturation(sweep):
    rows, elapsed = sweep
    c = np.array([row["c"] for row in rows])
    slack2 = np.array([row["slack2"] for row in rows])
    ok = bool(
        len(rows) == 101
        and (slack2 >= -1e-9).all()
        and (slack2[c >= 0.75 - 1e-12] <= 0.02).all()
        and elapsed <= GRID_RUNTIME_BUDGET
    )
    _criterion(
        1,
        f"tight bound: slack2 >= -1e-9 everywhere, <= 0.02 nats for c >= 0.75, "
        f"grid in {elapsed:.1f} s <= {GRID_RUNTIME_BUDGET:.0f} s",
        ok,
    )


def test_criterion_2_plain_bound_and_kink(sweep):
    rows, _ = sweep
    slack1 = np.array([row["slack1"] for row in rows])
    slack2 = np.array([row["slack2"] for row in rows])
    rhs1 = np.array([row["rhs_ineq1"] for row in rows])
    step = rows[1]["c"] - rows[0]["c"]
    kink_index = int(round(0.5 / step))
    slope_left = (rhs1[kink_index] - rhs1[kink_index - 1]) / step
    slope_right = (rhs1[kink_index + 1] - rhs1[kink_index]) / step
    jump = abs(slope_right - slope_left)
    ok = bool(
        (slack1 >= -1e-9).all()
        and (slack1 >= slack2 - 1e-12).all()
        and jump > 0.5
    )
    _criterion(
        2,
        f"plain bound: slack1 >= -1e-9, slack1 >= slack2 pointwise, "
        f"slope jump {jump:.2f} > 0.5 at c = 0.5",
        ok,
    )


def test_criterion_3_ergotropy_regression(sweep):
    rows, _ = sweep
    c = np.array([row["c"] for row in rows])
    ergotropy = np.array([row["ergotropy"] for row in rows])
    deviation = np.abs(ergotropy - np.maximum(1.0 - 2.0 * c, 0.0))
    ok = bool((deviation <= 5e-3).all())
    _criterion(3, f"ergotropy matches max(1 - 2c, 0), worst {deviation.max():.2e} <= 5e-3", ok)


def test_criterion_4_steady_state_convergence():
    params = ModelParams()
    horizon = 50.0 / float(params.gamma.max())
    worst_distance = 0.0
    invariants_ok = True
    for rho0 in (
        pure_state(KET_GG, dims=(2, 2)),
        pure_state(KET_EE, dims=(2, 2)),
        DensityMatrix(np.eye(4, dtype=complex) / 4.0, dims=(2, 2)),
    ):
        trajectory = evolve(rho0, params, dt=0.005, t_max=horizon)
        target = analytic_steady_state(effective_c(rho0), params)
        worst_distance = max(worst_distance, trace_distance(trajectory.states[-1], target))
        for state in trajectory.states:
            if abs(np.trace(state.matrix).real - 1.0) > 1e-9:
                invariants_ok = False
            if state.eigenvalues().min() < -1e-6:
                invariants_ok = False
    ok = bool(worst_distance <= 1e-6 and invariants_ok)
    _criterion(
        4,
        f"gg, ee, I/4 reach the analytic steady state: worst distance "
        f"{worst_distance:.2e} <= 1e-6 with trace/positivity intact",
        ok,
    )


def test_criterion_5_energy_balance_and_tradeoff(sweep):
    rows, _ = sweep
    c = np.array([row["c"] for row in rows])
    euler = np.array([row["euler_residual"] for row in rows])
    tradeoff = np.array([row["_tradeoff_residual"] for row in rows])
    beta = np.array([row["_beta"] for row in rows])
    finite = np.isfinite(euler)
    scaling = np.abs(tradeoff[finite] - beta[finite] * euler[finite])
    ok = bool(
        (euler >= -2e-3).all()
        and (np.abs(euler[c >= 0.75 - 1e-12]) <= 0.02).all()
        and (scaling <= 1e-9).all()
    )
    _criterion(
        5,
        "energy balance: slack >= -2e-3 on the grid, |residual| <= 0.02 for "
        f"c >= 0.75, trade-off = beta * residual to 1e-9 (worst {scaling.max():.2e})",
        ok,
    )


def test_criterion_6_randomized_property_suites():
    results = run_suites()  # default seed and n = 500
    # true per-suite counts at n = 500 (scales in verify.SUITES); 500 otherwise
    counts = {
        "entropy_concavity": 1000,
        "chi_grid_monotone": 50,
        "steady_state_fixed_point": 100,
        "steady_state_ergotropy": 100,
        "trajectory_invariants": 10,
        "steady_state_convergence": 3,
    }
    short = [r.name for r in results if r.count < counts.get(r.name, 500)]
    required = {
        "dimension_bound",
        "gain_decomposition",
        "gain_subadditivity",
        "holevo_closure",
        "delta_projective",
        "coherence_gap",
        "kw_vs_wootters",
        "beta_formula_vs_fit",
        "passive_minimality",
        "bound_ergotropy_nonneg",
    }
    names = {r.name for r in results}
    missing = required - names
    failed = [r.name for r in results if not r.passed]
    for r in results:
        print(
            f"    suite {r.name:32s} {'ok' if r.passed else 'FAIL'} "
            f"n={r.count} worst={r.worst:.3e} tol={r.tolerance:g}"
        )
    ok = not failed and not missing and not short
    _criterion(
        6,
        f"{len(results)} randomized suites, zero failures"
        + (f" (failed: {failed})" if failed else "")
        + (f" (below their stated count: {short})" if short else ""),
        ok,
    )
