import decimal
import math
import re
import sys
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from qthermo import (
    DensityMatrix,
    Hamiltonian,
    ModelParams,
    analytic_ergotropy_low_temperature,
    analytic_steady_state,
    build_hamiltonian,
    chi_A_max,
    effective_c,
    ergotropy,
    evolve,
    lindblad_rhs,
    local_beta,
    local_inverse_temperature,
    max_non_x_magnitude,
    partial_trace,
    pure_state,
    thermal_state,
    trace_distance,
)
from qthermo import dissipation
from qthermo.cli import sweep_row
from qthermo.core import (
    POSITIVITY_TOL,
    SIGMA_X,
    SIGMA_Z,
    TRACE_TOL,
    _spectrum,
    as_matrix,
    entropy_of_eigenvalues,
)
from qthermo.dissipation import (
    FIXED_POINT_TOL,
    KET_EE,
    KET_EG,
    KET_GG,
    PSI_MINUS,
    PSI_PLUS,
    MAX_STEP_NORM,
    STEP_BLOCK,
    Trajectory,
    _step_increments,
    _step_norm,
    _superoperator,
)
from qthermo.random_states import random_two_qubit_state, random_x_state

from test_closed_form_sweep import closed_form_columns
from test_imports import _python

BELL_PHI = (KET_GG + KET_EE) / np.sqrt(2.0)

H_TOTAL = Hamiltonian(np.diag([2.0, 1.0, 1.0, 0.0]).astype(complex))


class TestModelParams:
    def test_nbar_matches_definition(self):
        p = ModelParams(omega=1.0, beta_e=10.0)
        assert abs(p.nbar - 1.0 / (np.exp(10.0) - 1.0)) < 1e-12

    def test_nbar_vanishes_at_huge_beta_omega(self):
        # expm1 overflows beyond beta_e * omega ~ 709; the limit is exact
        assert ModelParams(beta_e=800.0).nbar == 0.0
        assert ModelParams(omega=2000.0).nbar == 0.0

    def test_infinite_nbar_refused_by_name(self):
        # beta_e * omega underflows to 0, where 1/expm1 divides by zero
        params = ModelParams(beta_e=1e-200, omega=1e-200)
        with pytest.raises(ValueError, match=r"nbar is infinite at beta_e \* omega = 0$"):
            params.nbar
        # closed dynamics never evaluate nbar
        closed = ModelParams(beta_e=1e-200, omega=1e-200, gamma=0.0)
        traj = evolve(pure_state(KET_EG, dims=(2, 2)), closed, dt=0.005, t_max=0.05)
        assert traj.stop_reason == "fixed_point"

    def test_gamma_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="gamma must be nonnegative"):
            ModelParams(gamma=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["omega", "f", "beta_e", "gamma"])
    def test_non_finite_value_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ModelParams(**{name: value})

    def test_positive_frequencies_required(self):
        with pytest.raises(ValueError, match="omega"):
            ModelParams(omega=0.0)
        with pytest.raises(ValueError, match="beta_e"):
            ModelParams(beta_e=-1.0)


class TestBuildHamiltonian:
    def test_uncoupled_is_diagonal(self):
        h = build_hamiltonian(ModelParams(omega=1.0, f=0.0))
        assert_allclose(h.matrix, np.diag([2.0, 1.0, 1.0, 0.0]), atol=1e-12)

    def test_coupled_spectrum(self):
        # single-excitation block eigenvalues are omega +/- f
        h = build_hamiltonian(ModelParams(omega=1.0, f=0.1))
        assert_allclose(h.eigenvalues, [0.0, 0.9, 1.1, 2.0], atol=1e-12)

    def test_single_excitation_eigenvectors_are_psi_pm(self):
        h = build_hamiltonian(ModelParams(omega=1.0, f=0.3))
        for vec, energy in ((PSI_PLUS, 1.3), (PSI_MINUS, 0.7)):
            assert np.abs(h.matrix @ vec - energy * vec).max() < 1e-12


class TestLindbladRhs:
    def test_steady_state_is_fixed_point(self):
        params = ModelParams()
        for c in (0.0, 0.3, 1.0):
            rhs = lindblad_rhs(analytic_steady_state(c, params), params)
            assert np.abs(rhs).max() < 1e-10

    def test_trace_free_and_hermiticity_preserving(self, rng):
        params = ModelParams(f=0.2)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real, dims=(2, 2))
        out = lindblad_rhs(rho, params)
        assert abs(np.trace(out)) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12

    def test_closed_dynamics_conserves_energy(self):
        params = ModelParams(f=0.1, gamma=0.0)
        h = build_hamiltonian(params)
        rho0 = pure_state((KET_EE + PSI_PLUS) / np.sqrt(2.0), dims=(2, 2))
        traj = evolve(rho0, params, dt=0.005, t_max=0.005)
        e0 = np.trace(h.matrix @ rho0.matrix).real
        e1 = np.trace(h.matrix @ traj.states[-1]).real
        assert abs(e1 - e0) < 1e-12

    def test_collective_dissipator_annihilates_singlet(self, singlet):
        rhs = lindblad_rhs(singlet, ModelParams())
        assert np.abs(rhs).max() < 1e-14


# the default model first: f = 0.0 and f = -0.0 then meet its cache entry,
# and gamma = -0.0 meets that of gamma = 0.0
_CACHED_MODELS = [
    ModelParams(),
    ModelParams(f=0.0),
    ModelParams(f=-0.0),
    ModelParams(f=0.3, beta_e=1.0),
    ModelParams(gamma=0.0),
    ModelParams(f=-0.0, gamma=-0.0),
    ModelParams(omega=2.0, f=-1.5, beta_e=0.5, gamma=0.2),
]


class TestSuperoperatorCache:
    """L is built once per parameter value, read-only; what the cache returns
    has the bits of a fresh build, and so does everything computed from it."""

    def test_cached_matrix_is_a_read_only_fresh_build(self):
        _superoperator.cache_clear()
        for params in _CACHED_MODELS:
            lind = _superoperator(params)
            assert not lind.flags.writeable
            assert lind.tobytes() == _superoperator.__wrapped__(params).tobytes()
            assert _superoperator(params) is lind
        assert _superoperator.cache_info().misses == 4
        with pytest.raises(ValueError, match="read-only"):
            lind[0, 0] = 0.0

    def test_distinct_parameters_give_distinct_matrices(self):
        models = [_CACHED_MODELS[k] for k in (0, 3, 4, 6)] + [ModelParams(beta_e=1.0)]
        assert len({_superoperator(params).tobytes() for params in models}) == len(models)

    def test_rhs_and_evolve_match_a_fresh_build(self, monkeypatch):
        rng = np.random.default_rng(37)
        starts = [random_two_qubit_state(rng), random_x_state(rng), pure_state(BELL_PHI, dims=(2, 2))]
        cases = [(rho, params) for rho in starts for params in _CACHED_MODELS]

        def outputs():
            rhs = [lindblad_rhs(rho, params) for rho, params in cases]
            trajectories = [evolve(rho, params, dt=0.01, t_max=0.6) for rho, params in cases]
            return rhs + [traj.states for traj in trajectories] + [
                np.array([traj.final_residual]) for traj in trajectories
            ]

        cached = outputs()
        monkeypatch.setattr(dissipation, "_superoperator", _superoperator.__wrapped__)
        fresh = outputs()
        assert [a.tobytes() for a in cached] == [b.tobytes() for b in fresh]


class TestEvolve:
    def test_steady_state_stays_put(self):
        params = ModelParams()
        rho = analytic_steady_state(0.4, params)
        traj = evolve(rho, params, dt=0.005, t_max=5.0)
        assert trace_distance(traj.states[-1], rho) < 1e-9

    def test_ground_pair_reaches_full_coupling_state(self):
        params = ModelParams()
        rho0 = pure_state(KET_GG, dims=(2, 2))
        traj = evolve(rho0, params, dt=0.005, t_max=50.0)
        target = analytic_steady_state(1.0, params)
        assert trace_distance(traj.states[-1], target) < 1e-6

    def test_singlet_is_decoherence_free(self, singlet):
        traj = evolve(singlet, ModelParams(), dt=0.005, t_max=10.0)
        assert trace_distance(traj.states[-1], singlet) < 1e-12

    def test_fixed_point_ends_a_far_horizon(self):
        # 2e8 steps of storage would not fit in memory; the fixed point comes
        # after about 5 000
        rng = np.random.default_rng(11)
        traj = evolve(random_x_state(rng), ModelParams(), dt=0.005, t_max=1e6)
        assert traj.stop_reason == "fixed_point"
        assert len(traj.states) < 10_000

    def test_states_are_held_once(self):
        # a second copy of the states (a list of step groups and their
        # concatenation) would take the peak to about twice their size
        rho0 = random_two_qubit_state(np.random.default_rng(3))
        evolve(rho0, ModelParams(), dt=0.005, t_max=1.0)  # first-use work off the trace
        tracemalloc.start()
        try:
            traj = evolve(rho0, ModelParams(), dt=0.005, t_max=50.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.stop_reason == "horizon" and len(traj.states) == 10_001
        assert peak < 1.5 * traj.states.nbytes

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_far_horizon_stores_only_the_steps_it_takes(self):
        """A horizon of 2e302 steps sizes the state buffer by the step cap
        (256 MB), but a run that reaches its fixed point after about 5 000
        steps makes only those resident, and returns the trajectory of a
        horizon just past them, bit for bit.  Run in a fresh interpreter, and
        read its own peak (VmHWM): ru_maxrss after an exec starts from the
        peak of the process that spawned it, this test session's."""
        result = _python(
            """
import json
import numpy as np
from qthermo import ModelParams, evolve
from qthermo.random_states import random_x_state

def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

rho0 = random_x_state(np.random.default_rng(3))
evolve(rho0, ModelParams(), dt=0.005, t_max=1.0)
before = peak_kb()
far = evolve(rho0, ModelParams(), dt=0.005, t_max=1e300)
rise_kb = peak_kb() - before
near = evolve(rho0, ModelParams(), dt=0.005, t_max=50.0)
fields = ("times", "states", "min_eigenvalues")
print(json.dumps({
    "steps": len(near.states),
    "stops": [far.stop_reason, near.stop_reason],
    "same": [getattr(far, f).tobytes() == getattr(near, f).tobytes() for f in fields]
    + [repr(far.final_residual) == repr(near.final_residual)],
    "rise_mb": rise_kb / 1024,
}))
"""
        )
        assert result["steps"] == 5108
        assert result["stops"] == ["fixed_point", "fixed_point"]
        assert all(result["same"])
        assert result["rise_mb"] < 32

    def test_steps_past_the_cap_refused(self, monkeypatch):
        # no step of dt = 1e-300 changes an entry of the Bell state, so no
        # fixed point ever comes; a horizon of exactly the cap still runs
        monkeypatch.setattr(dissipation, "MAX_TRAJECTORY_STEPS", 100)
        bell = pure_state(BELL_PHI, dims=(2, 2))
        with pytest.raises(
            ValueError,
            match=r"^t_max / dt = 1e\+300 steps exceeds the cap of 100 stored steps "
            r"\(no fixed point before it\)$",
        ):
            evolve(bell, ModelParams(), dt=1e-300, t_max=1.0)
        assert len(evolve(bell, ModelParams(), dt=0.005, t_max=0.5).states) == 101
        with pytest.raises(ValueError, match="steps exceeds the cap of 100 stored steps"):
            evolve(bell, ModelParams(), dt=0.005, t_max=0.505)

    @pytest.mark.parametrize(
        "dt, t_max, message",
        [
            (0.005, 0.0, "t_max must be positive, got 0"),
            (0.005, -1.0, "t_max must be positive, got -1"),
            (1e-300, 1e10, r"t_max / dt = inf steps is not finite"),
            (0.005, np.nan, r"t_max / dt = nan steps is not finite"),
            (0.005, 0.002, r"t_max = 0.002 with dt = 0.005 gives no integration step"),
        ],
    )
    def test_bad_horizon_rejected(self, dt, t_max, message):
        params = ModelParams()
        with pytest.raises(ValueError, match=f"^{message}$"):
            evolve(analytic_steady_state(0.5, params), params, dt=dt, t_max=t_max)

    def test_step_size_precondition(self):
        # a generic start runs 10 000 steps just below the bound within both
        # floors; just above it, and where ||L||_1 overflows, it is refused
        params = ModelParams(f=1e6)
        rho0 = random_two_qubit_state(np.random.default_rng(5))
        dt = MAX_STEP_NORM / _step_norm(_superoperator(params), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve(rho0, params, dt=dt * (1.0 - 1e-6), t_max=dt * 10_000)
            assert traj.stop_reason == "horizon" and len(traj.states) == 10_001
            assert _trace_drift(traj.states) <= TRACE_TOL
            assert traj.min_eigenvalues.min() >= -POSITIVITY_TOL
            for model, step, shown in [
                (params, dt * (1.0 + 1e-6), r"1e\+04"),
                (params, 1.0, r"2e\+06"),
                (ModelParams(f=1e308), 1.0, "inf"),
            ]:
                with pytest.raises(
                    ValueError,
                    match=rf"^dt \* \|\|L\|\|_1 = {shown} exceeds 10000: the propagator "
                    "of so long a step is lost to round-off$",
                ):
                    evolve(rho0, model, dt=step, t_max=step * 10_000)

    def test_trajectory_invariants_and_x_preservation(self):
        params = ModelParams()
        m = np.diag([0.3, 0.25, 0.25, 0.2]).astype(complex)
        m[0, 3], m[3, 0] = 0.1 + 0.05j, 0.1 - 0.05j
        m[1, 2], m[2, 1] = -0.12j, 0.12j
        rho0 = DensityMatrix(m, dims=(2, 2))
        c0 = effective_c(rho0)
        traj = evolve(rho0, params, dt=0.005, t_max=5.0)
        for state in traj.states:
            assert abs(np.trace(state).real - 1.0) <= 1e-9
            assert np.linalg.eigvalsh(state).min() >= -POSITIVITY_TOL
            assert abs(effective_c(state) - c0) <= 1e-6
            assert max_non_x_magnitude(state) < 1e-10

    def test_min_eigenvalues_match_each_state(self, rng):
        params = ModelParams()
        traj = evolve(random_two_qubit_state(rng), params, dt=0.005, t_max=1.0)
        assert traj.states.shape == (201, 4, 4)
        assert_array_equal(traj.times, [0.005 * k for k in range(201)])
        assert_array_equal(
            traj.min_eigenvalues, [np.linalg.eigvalsh(s).min() for s in traj.states]
        )
        # its own array, not a column view that keeps the whole spectrum alive
        assert traj.min_eigenvalues.flags.owndata

    @pytest.mark.parametrize(
        "ket, params",
        [
            # dt * f = 3: one step turns the exchange phase by 3 rad
            (KET_EG, ModelParams(f=600.0)),
            (BELL_PHI, ModelParams(f=600.0)),
            # beta_e * omega = 2e4: the bath is at zero temperature
            (BELL_PHI, ModelParams(omega=2000.0)),
        ],
    )
    def test_large_frequencies_reach_the_steady_state(self, ket, params):
        rho0 = pure_state(ket, dims=(2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve(rho0, params, dt=0.005, t_max=50.0)
        assert traj.stop_reason == "fixed_point"
        assert traj.min_eigenvalues.min() >= -1e-14
        assert _trace_drift(traj.states) < 1e-12
        target = analytic_steady_state(effective_c(rho0), params)
        assert trace_distance(traj.states[-1], target) < 1e-11

    def test_non_finite_step_is_reported(self, monkeypatch):
        # far past the step bound the squarings overflow; the guard stops at
        # the first state, with no RuntimeWarning
        monkeypatch.setattr(dissipation, "MAX_STEP_NORM", math.inf)
        rho0 = pure_state(BELL_PHI, dims=(2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="t = 0.005 .*non-finite"):
                evolve(rho0, ModelParams(omega=1e300), dt=0.005, t_max=1.0)


def _eigen_generator(params):
    """Eigenvalues and eigenvectors of L; cond(V) is about 271 at the defaults."""
    lam, vecs = np.linalg.eig(_superoperator(params))
    return lam, vecs, np.linalg.inv(vecs)


def _trace_drift(states):
    return float(np.abs(np.trace(states, axis1=1, axis2=2) - 1.0).max())


def _trajectory_start(name):
    rng = np.random.default_rng(2024)
    return {
        "x": lambda: random_x_state(rng),
        "generic": lambda: random_two_qubit_state(rng),
        "ground": lambda: pure_state(KET_GG, dims=(2, 2)),
        "singlet": lambda: pure_state(PSI_MINUS, dims=(2, 2)),
    }[name]()


class TestStepMatrix:
    """The block integrator against the exact propagator V exp(Lambda t) V^-1
    from the eigendecomposition of L."""

    def test_increments_match_eigendecomposition(self):
        # dt * ||L||_1 = 0.03 takes no squaring, 3.0 and 12.0 take 3 and 5
        for params, dt in [
            (ModelParams(), 0.005),
            (ModelParams(), 0.5),
            (ModelParams(f=600.0), 0.005),
        ]:
            lam, vecs, inv = _eigen_generator(params)
            incs = _step_increments(_superoperator(params), dt)
            assert incs.shape == (STEP_BLOCK, 16, 16)
            # k = 1 is Delta = P - I itself
            for k in range(1, STEP_BLOCK + 1):
                expected = (vecs * np.expm1(k * dt * lam)) @ inv
                assert np.abs(incs[k - 1] - expected).max() < 1e-13

    # (start, t_max, stop): 1000 steps is not a multiple of the block size
    CASES = [
        ("x", 50.0, "fixed_point"),
        ("generic", 5.0, "horizon"),
        ("ground", 50.0, "fixed_point"),
        ("singlet", 10.0, "fixed_point"),
    ]

    @pytest.mark.parametrize("start, t_max, stop", CASES)
    def test_matches_exact_propagator(self, start, t_max, stop):
        params = ModelParams()
        rho0 = _trajectory_start(start)
        traj = evolve(rho0, params, dt=0.005, t_max=t_max)
        lam, vecs, inv = _eigen_generator(params)
        modes = inv @ rho0.matrix.reshape(16)
        exact = (np.exp(np.outer(traj.times, lam)) * modes) @ vecs.T
        assert np.abs(traj.states.reshape(-1, 16) - exact).max() < 1e-13
        assert traj.stop_reason == stop
        lind = _superoperator(params)
        final = np.abs(lind @ traj.states[-1].reshape(16)).max()
        assert_allclose(traj.final_residual, final, rtol=1e-6, atol=1e-18)
        if stop == "horizon":
            assert len(traj.states) == int(round(t_max / 0.005)) + 1
            assert traj.final_residual >= FIXED_POINT_TOL
        else:
            assert traj.final_residual < FIXED_POINT_TOL

    @pytest.mark.parametrize("start", ["x", "generic", "ground", "singlet"])
    def test_step_size_does_not_change_the_states(self, start):
        # one step of 0.5 is 100 steps of 0.005, up to round-off
        params = ModelParams()
        rho0 = _trajectory_start(start)
        coarse = evolve(rho0, params, dt=0.5, t_max=50.0)
        fine = evolve(rho0, params, dt=0.005, t_max=50.0)
        shared = fine.states[::100][: len(coarse.states)]
        assert len(shared) >= len(coarse.states) - 1
        assert np.abs(coarse.states[: len(shared)] - shared).max() < 1e-13


def _reference_block_evolve(rho0, params, dt, t_max):
    """``evolve`` as it was with the stop rules checked after every 16-step
    block: the same increments, re-hermitization and chaining, and the same
    check of the finished trajectory."""
    lind = _superoperator(params)
    horizon = int(round(t_max / dt))
    v = as_matrix(rho0).reshape(16)
    blocks = [v[None]]
    last = 0
    with np.errstate(over="ignore", invalid="ignore"):
        incs = _step_increments(lind, dt).reshape(STEP_BLOCK * 16, 16)
        residual = float(np.abs(lind @ v).max())
        while last < horizon and not residual < FIXED_POINT_TOL:
            size = min(STEP_BLOCK, horizon - last)
            r = (v + (incs[: size * 16] @ v).reshape(size, 16)).reshape(size, 4, 4)
            block = (0.5 * (r + r.conj().transpose(0, 2, 1))).reshape(size, 16)
            residuals = np.abs(block @ lind.T).max(axis=1)
            guard = ~(np.abs(block).max(axis=1) <= 2.0)
            stops = np.flatnonzero(guard | (residuals < FIXED_POINT_TOL))
            size = stops[0] + 1 if stops.size else size
            if last + size > dissipation.MAX_TRAJECTORY_STEPS:
                raise ValueError(
                    f"t_max / dt = {t_max / dt:g} steps exceeds the cap of "
                    f"{dissipation.MAX_TRAJECTORY_STEPS} stored steps (no fixed point before it)"
                )
            blocks.append(block[:size])
            last += size
            v = block[size - 1]
            residual = float(residuals[size - 1])
            if guard[size - 1]:
                break
    states = np.concatenate(blocks).reshape(-1, 4, 4)
    times = dt * np.arange(len(states))
    checked = states if np.isfinite(v).all() else states[:-1]
    lowest = _spectrum(checked)[:, 0]
    off_trace = np.abs(np.trace(checked, axis1=1, axis2=2) - 1.0) > TRACE_TOL
    bad = np.flatnonzero(off_trace | (lowest < -POSITIVITY_TOL))
    k = bad[0] if bad.size else len(checked)
    if k == len(states):
        stop = "fixed_point" if residual < FIXED_POINT_TOL else "horizon"
        return Trajectory(times, states, lowest, stop, residual)
    if k == len(checked):
        err = "density matrix has non-finite entries"
    elif off_trace[k]:
        err = f"trace {np.trace(states[k]).real:.12g} differs from 1 beyond {TRACE_TOL}"
    else:
        err = f"negative eigenvalue {lowest[k]:.3e} below -{POSITIVITY_TOL:g}"
    raise ValueError(f"integration failed at t = {times[k]:.6g} with dt = {dt:g}: {err}")


def _assert_same_trajectory(traj, expected):
    assert traj.times.tobytes() == expected.times.tobytes()
    assert traj.states.tobytes() == expected.states.tobytes()
    assert traj.min_eigenvalues.tobytes() == expected.min_eigenvalues.tobytes()
    assert traj.stop_reason == expected.stop_reason
    assert repr(traj.final_residual) == repr(expected.final_residual)


def _raised(run):
    with pytest.raises(ValueError) as info:
        run()
    return str(info.value)


class TestStopChecks:
    """``evolve`` checks its stop rules once per CHECK_BLOCKS blocks; the
    trajectory and every error are those of a check after each block."""

    @pytest.mark.parametrize("start", ["generic", "x"])
    def test_full_horizon_matches_block_checks(self, start):
        params = ModelParams()
        rho0 = _trajectory_start(start)
        expected = _reference_block_evolve(rho0, params, 0.005, 50.0)
        assert expected.stop_reason == ("horizon" if start == "generic" else "fixed_point")
        _assert_same_trajectory(evolve(rho0, params, dt=0.005, t_max=50.0), expected)

    # 1 + 16 k steps end in a one-step block, whose residual numpy takes from
    # the vector kernel; 4097 is 16 full groups and that one step
    @pytest.mark.parametrize("steps", [1, 2, 17, 33, 49, 247, 273, 4097])
    @pytest.mark.parametrize("seed", range(4))
    def test_horizons_match_block_checks(self, steps, seed):
        rng = np.random.default_rng(seed)
        params = ModelParams(f=float(rng.uniform(0.0, 2.0)), beta_e=float(rng.uniform(0.5, 10.0)))
        for rho0 in (random_two_qubit_state(rng), random_x_state(rng)):
            expected = _reference_block_evolve(rho0, params, 0.005, 0.005 * steps)
            traj = evolve(rho0, params, dt=0.005, t_max=0.005 * steps)
            _assert_same_trajectory(traj, expected)

    # far past the step bound, which is lifted here, the squarings lose the
    # propagator (f = 1e200) or overflow (f, omega = 1e300)
    @pytest.mark.parametrize(
        "params, message",
        [
            (ModelParams(f=1e200), "t = 0.005 .*: negative eigenvalue -.* below -1e-09"),
            (ModelParams(f=1e300), "t = 0.005 .*: density matrix has non-finite entries"),
            (ModelParams(omega=1e300), "t = 0.005 .*: density matrix has non-finite entries"),
        ],
    )
    def test_failures_match_block_checks(self, monkeypatch, params, message):
        monkeypatch.setattr(dissipation, "MAX_STEP_NORM", math.inf)
        bell = pure_state(BELL_PHI, dims=(2, 2))
        expected = _raised(lambda: _reference_block_evolve(bell, params, 0.005, 50.0))
        assert re.fullmatch(f"integration failed at {message}", expected)
        assert _raised(lambda: evolve(bell, params, dt=0.005, t_max=50.0)) == expected

    @pytest.mark.parametrize("cap", [100, 300, 4096])
    def test_step_cap_matches_block_checks(self, monkeypatch, cap):
        monkeypatch.setattr(dissipation, "MAX_TRAJECTORY_STEPS", cap)
        bell = pure_state(BELL_PHI, dims=(2, 2))
        expected = _raised(lambda: _reference_block_evolve(bell, ModelParams(), 1e-300, 1.0))
        assert expected.startswith(f"t_max / dt = 1e+300 steps exceeds the cap of {cap} ")
        assert _raised(lambda: evolve(bell, ModelParams(), dt=1e-300, t_max=1.0)) == expected


def _chi_measuring_a(rho, axis):
    """Holevo quantity about B of the projective measurement of ``axis`` on A."""
    m = rho.matrix
    chi = entropy_of_eigenvalues(np.linalg.eigvalsh(partial_trace(rho, "B").matrix))
    _, vecs = np.linalg.eigh(axis)
    for k in range(2):
        proj = np.kron(np.outer(vecs[:, k], vecs[:, k].conj()), np.eye(2))
        branch = np.einsum("abad->bd", (proj @ m @ proj).reshape(2, 2, 2, 2))
        weight = np.trace(branch).real
        chi -= weight * entropy_of_eigenvalues(np.linalg.eigvalsh(branch / weight))
    return chi


class TestSteadyStateFamilyClosedForm:
    """The closed forms of the steady-state family behind the paper's figures.

    rho(c) = (1 - c)|psi_-><psi_-| + c/Z (x^2|ee><ee| + x|psi_+><psi_+| + |gg><gg|)
    with x = exp(-beta_e omega) and Z = 1 + x + x^2.

    On this family chi_A_max is the better of the sigma_z and sigma_x
    measurements on A.  The state is X-shaped with rho_{ee,gg} = 0, so its
    Bloch data are a = b = (0, 0, a_z) and T = diag(t, t, t_zz): the
    one-way Holevo quantity is symmetric about the z axis and depends on the
    polar angle of the measurement only.  For X states the extremum over that
    angle lies at the poles or the equator (Ali, Rau & Alber, PRA 81, 042105
    (2010)); Huang, PRA 88, 014302 (2013) gives X states for which the
    reduction fails, which is why it is checked here rather than assumed.
    ``chi_A_max`` is a search, a lower bound on the optimum that starts from
    both axes: it may fall short of the axis value only by round-off (1e-12)
    and exceed it only by round-off (1e-10); a larger excess would be an
    off-axis optimum.
    """

    C_GRID = np.linspace(0.0, 1.0, 21)

    @pytest.mark.parametrize("beta_e", [0.1, 1.0, 10.0, 30.0])
    def test_spectrum_marginals_and_chi(self, beta_e, qubit_h):
        params = ModelParams(beta_e=beta_e)
        x = np.exp(-beta_e)
        z = 1.0 + x + x * x
        for c in self.C_GRID:
            c = float(c)
            rho = analytic_steady_state(c, params)
            spectrum = [1.0 - c, c * x * x / z, c * x / z, c / z]
            assert_allclose(np.sort(rho.eigenvalues()), np.sort(spectrum), rtol=0, atol=1e-12)
            tau = thermal_state(qubit_h, local_beta(c, params)).matrix
            for side in ("A", "B"):
                assert np.abs(partial_trace(rho, side).matrix - tau).max() < 1e-12
            axis_best = max(_chi_measuring_a(rho, SIGMA_Z), _chi_measuring_a(rho, SIGMA_X))
            assert -1e-12 <= chi_A_max(rho) - axis_best <= 1e-10

    @pytest.mark.parametrize("beta_e", [0.1, 1.0, 3.0, 10.0, 30.0])
    def test_ergotropy(self, beta_e, qubit_h):
        """Sorting the spectrum onto the levels {0, omega, omega, 2 omega} gives
        E(c) = omega max(1 - c - c/Z, 0, c x^2/Z - (1 - c)): zero between the
        kinks at Z/(1 + Z) and Z/(Z + x^2)."""
        params = ModelParams(beta_e=beta_e)
        x = np.exp(-beta_e * params.omega)
        z = 1.0 + x + x * x
        kinks = [z / (1.0 + z), z / (z + x * x)]
        for c in np.concatenate([np.linspace(0.0, 1.0, 101), kinks]):
            c = float(c)
            closed = params.omega * max(1.0 - c - c / z, 0.0, c * x * x / z - (1.0 - c))
            work = ergotropy(analytic_steady_state(c, params), qubit_h.doubled)
            assert abs(work - closed) <= 1e-12, c

    @pytest.mark.parametrize("beta_e", [0.1, 1.0, 3.0, 10.0, 30.0])
    def test_sweep_columns(self, beta_e, qubit_h):
        """Every column of ``sweep_row`` on c = 0, 0.01, ..., 1 and the two
        ergotropy kinks at omega = 1 against the closed forms of
        test_closed_form_sweep.py, which also covers omega != 1 through the
        CLI's own grid."""
        params = ModelParams(beta_e=beta_e)
        x = math.exp(-beta_e * params.omega)
        z = 1.0 + x + x * x
        kinks = [z / (1.0 + z), z / (z + x * x)]
        for c in np.concatenate([np.linspace(0.0, 1.0, 101), kinks]):
            c = float(c)
            row = sweep_row(c, params, qubit_h)
            for column, (value, tol) in closed_form_columns(c, beta_e, params.omega).items():
                assert row[column] == pytest.approx(value, rel=0, abs=tol), (column, c)


class TestEffectiveC:
    def test_singlet(self, singlet):
        assert_allclose(effective_c(singlet), 0.0, atol=1e-12)

    def test_ground_pair(self):
        assert_allclose(effective_c(pure_state(KET_GG, dims=(2, 2))), 1.0, atol=1e-12)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0, dims=(2, 2))
        assert_allclose(effective_c(rho), 0.75, atol=1e-12)


class TestAnalyticSteadyState:
    def test_zero_coupling_is_singlet(self, singlet):
        rho = analytic_steady_state(0.0, ModelParams())
        assert trace_distance(rho, singlet) < 1e-12

    def test_hot_bath_spreads_over_triplet(self):
        rho = analytic_steady_state(1.0, ModelParams(beta_e=1e-9))
        w = np.sort(rho.eigenvalues())[::-1]
        assert_allclose(w[:3], [1.0 / 3.0] * 3, atol=1e-6)

    def test_cold_bath_populations(self):
        rho = analytic_steady_state(1.0, ModelParams(beta_e=10.0))
        x = np.exp(-10.0)
        z = 1.0 + x + x * x
        for vec, weight in ((KET_EE, x * x / z), (PSI_PLUS, x / z), (KET_GG, 1.0 / z)):
            assert_allclose((vec.conj() @ rho.matrix @ vec).real, weight, atol=1e-12)

    def test_x_shape(self):
        rho = analytic_steady_state(0.35, ModelParams())
        assert max_non_x_magnitude(rho.matrix) < 1e-15

    def test_rejects_out_of_range_c(self):
        with pytest.raises(ValueError, match="c must"):
            analytic_steady_state(1.2, ModelParams())


class TestLocalBeta:
    def test_zero_coupling(self):
        assert local_beta(0.0, ModelParams()) == 0.0

    def test_full_coupling_formula(self):
        params = ModelParams(omega=1.0, beta_e=10.0)
        expected = np.log((1.0 + 2.0 * np.exp(10.0)) / (1.0 + 2.0 * np.exp(-10.0)))
        assert_allclose(local_beta(1.0, params), expected, atol=1e-9)

    def test_consistent_with_marginal_fit(self, qubit_h):
        params = ModelParams()
        rho = analytic_steady_state(0.5, params)
        fitted = local_inverse_temperature(partial_trace(rho, "B"), qubit_h)
        assert abs(fitted - local_beta(0.5, params)) < 1e-9

    @pytest.mark.parametrize("beta_e", [20.0, 40.0, 100.0, 700.0])
    def test_cold_bath_full_coupling(self, beta_e):
        # at c = 1 the marginal has p_g / p_e = (2 + x) / (x (1 + 2x)),
        # x = exp(-beta_e), so beta = beta_e + ln(2 + x) - log1p(2x)
        x = np.exp(-beta_e)
        expected = beta_e + np.log(2.0 + x) - np.log1p(2.0 * x)
        assert_allclose(local_beta(1.0, ModelParams(beta_e=beta_e)), expected, rtol=1e-15)

    @pytest.mark.parametrize("c", [0.25, 1.0])
    @pytest.mark.parametrize("omega", [1e-4, 1e-6, 1e-9, 1e-12, 1e-300])
    def test_small_beta_e_omega(self, omega, c):
        """As beta_e omega -> 0 the ratio num/den tends to 1, and its log lost
        digits: 5e-11 relative at omega = 1e-6, and 2.2e284 in place of about
        13.3 at 1e-300.  Against the same ratio in 400-digit decimals, and
        against the limit 4 c beta_e / 3, whose relative distance to the true
        value is below beta_e omega."""
        beta_e = 10.0
        with decimal.localcontext() as ctx:
            ctx.prec = 400
            x = (-Decimal(beta_e) * Decimal(omega)).exp()
            cd = Decimal(c)
            ratio = ((1 + cd) + x + (1 - cd) * x * x) / ((1 - cd) + x + (1 + cd) * x * x)
            expected = float(ratio.ln() / Decimal(omega))
        beta = local_beta(c, ModelParams(omega=omega, beta_e=beta_e))
        assert abs(beta - expected) <= 1e-15 * expected
        limit = 4.0 * c * beta_e / 3.0
        assert abs(beta - limit) <= max(beta_e * omega, 1e-15) * limit

    @pytest.mark.parametrize("beta_omega", [0.1, 0.5, 1.0, 10.0])
    def test_log1p_form_against_decimal_reference(self, beta_omega):
        """Over the c grid, within 1e-15 relative of the ratio's log in
        50-digit decimals; the log of the float ratio was off by up to 5.7e-14
        relative at beta_e omega = 0.1 and 1.5e-14 at 1."""
        for c in np.linspace(0.01, 1.0, 100).tolist():
            with decimal.localcontext() as ctx:
                ctx.prec = 50
                x = (-Decimal(beta_omega)).exp()
                cd = Decimal(c)
                ratio = ((1 + cd) + x + (1 - cd) * x * x) / ((1 - cd) + x + (1 + cd) * x * x)
                expected = float(ratio.ln())
            beta = local_beta(c, ModelParams(omega=1.0, beta_e=beta_omega))
            assert abs(beta - expected) <= 1e-15 * expected, c


class TestAnalyticErgotropy:
    def test_endpoints_and_kink(self):
        assert analytic_ergotropy_low_temperature(0.0) == 1.0
        assert analytic_ergotropy_low_temperature(0.5) == 0.0
        assert analytic_ergotropy_low_temperature(0.8) == 0.0

    def test_matches_numeric_ergotropy_on_grid(self):
        params = ModelParams()
        for c in np.linspace(0.0, 1.0, 21):
            rho = analytic_steady_state(float(c), params)
            dev = ergotropy(rho, H_TOTAL) - analytic_ergotropy_low_temperature(float(c))
            assert abs(dev) < 5e-3

