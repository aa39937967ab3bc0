import decimal
import math
import re
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
    ENTROPY_CUTOFF,
    SIGMA_X,
    SIGMA_Z,
    TRACE_TOL,
    _spectrum,
    as_matrix,
    dagger,
    entropy_of_eigenvalues,
)
from qthermo.dissipation import (
    FIXED_POINT_TOL,
    KET_EE,
    KET_EG,
    KET_GG,
    PSI_MINUS,
    PSI_PLUS,
    STEP_BLOCK,
    STEP_POSITIVITY_TOL,
    Trajectory,
    _step_increments,
    _superoperator,
)
from qthermo.random_states import random_two_qubit_state, random_x_state
from qthermo.thermo import ENTROPY_MATCH_TOL

BELL_PHI = (KET_GG + KET_EE) / np.sqrt(2.0)


def _shannon(probabilities) -> float:
    """Entropy in nats with the library's convention: probabilities below
    ENTROPY_CUTOFF contribute nothing."""
    return -sum(p * math.log(p) for p in probabilities if p >= ENTROPY_CUTOFF)


def _binary_entropy(p: float) -> float:
    return _shannon([p, 1.0 - p])


def _doubled_thermal(beta: float, omega: float) -> tuple[list[float], float]:
    """Populations of exp(-beta H)/Z on the doubled qubit levels {0, omega,
    omega, 2 omega}, a product of two qubit Gibbs states, and its energy."""
    q = 1.0 / (1.0 + math.exp(beta * omega)) if beta * omega < 700.0 else 0.0
    return [(1.0 - q) ** 2, q * (1.0 - q), q * (1.0 - q), q * q], 2.0 * omega * q


def _reference_matched_beta(target: float, omega: float) -> float:
    """beta* with S(exp(-beta* H)/Z) = target on the doubled levels, by a
    bisection run until the bracket cannot shrink further."""

    def entropy(beta):
        return _shannon(_doubled_thermal(beta, omega)[0])

    lo, hi = 0.0, 1.0
    while entropy(hi) > target:
        hi *= 2.0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if entropy(mid) > target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid

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
        params = ModelParams()
        with pytest.raises(ValueError, match="dt"):
            evolve(analytic_steady_state(0.5, params), params, dt=0.02, t_max=1.0)

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
            assert np.linalg.eigvalsh(state).min() >= -1e-6
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

    @pytest.mark.parametrize(
        "ket, params, t, lowest",
        [
            # every state after the first is far from positive
            (KET_EG, ModelParams(f=600.0), "0.005", "-2.331e+01"),
            # dt * f = 3 lies outside RK4's stability region, so the state
            # grows from round-off; where it first dips below the floor is set
            # by round-off too (a start 2 ulp away fails elsewhere)
            (BELL_PHI, ModelParams(f=600.0), "0.05", "-8.925e-06"),
            # beta_e * omega = 2e4 overflows expm1 in nbar
            (BELL_PHI, ModelParams(omega=2000.0), "0.005", "-3.299e+03"),
        ],
    )
    def test_unstable_step_reports_first_bad_state(self, ket, params, t, lowest):
        rho0 = pure_state(ket, dims=(2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                evolve(rho0, params, dt=0.005, t_max=50.0)
        assert str(info.value) == (
            f"integration failed at t = {t} with dt = 0.005 (reduce the step size): "
            f"negative eigenvalue {lowest} below -1e-06"
        )
        # every state before the reported one passes the check; at t = dt
        # that is the initial state alone, and a zero horizon is refused
        if float(t) > 0.005:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                evolve(rho0, params, dt=0.005, t_max=float(t) - 0.005)

    def test_non_finite_step_is_reported(self):
        # a huge frequency overflows within one RK4 step, with no RuntimeWarning
        rho0 = pure_state(BELL_PHI, dims=(2, 2))
        with pytest.raises(ValueError, match="t = 0.005 .*non-finite"):
            evolve(rho0, ModelParams(omega=1e200), dt=0.005, t_max=1.0)


def _reference_evolve(rho0, params, dt, t_max):
    """The one-step-at-a-time RK4 loop that ``evolve`` replaced: four
    generator products per step, re-hermitized, with the same two stop rules."""
    lind = _superoperator(params)
    v = as_matrix(rho0).reshape(16)
    vectors = [v]
    for _ in range(int(round(t_max / dt))):
        k1 = lind @ v
        if np.abs(k1).max() < FIXED_POINT_TOL:
            break
        k2 = lind @ (v + 0.5 * dt * k1)
        k3 = lind @ (v + 0.5 * dt * k2)
        k4 = lind @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        r = v.reshape(4, 4)
        v = (0.5 * (r + dagger(r))).reshape(16)
        vectors.append(v)
        if not np.abs(v).max() <= 2.0:
            break
    return np.stack(vectors).reshape(-1, 4, 4)


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
    """The block integrator against the RK4 loop it replaced and against the
    exact propagator V exp(Lambda t) V^-1 from the eigendecomposition of L."""

    def test_increments_match_eigendecomposition(self):
        params, dt = ModelParams(), 0.005
        lam, vecs, inv = _eigen_generator(params)
        z = dt * lam
        step = 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
        incs = _step_increments(_superoperator(params), dt)
        assert incs.shape == (STEP_BLOCK, 16, 16)
        # k = 1 is Delta = P - I itself
        for k in range(1, STEP_BLOCK + 1):
            expected = (vecs * (step**k - 1.0)) @ inv
            assert np.abs(incs[k - 1] - expected).max() < 1e-13

    # (start, t_max, stop): 1000 steps is not a multiple of the block size
    CASES = [
        ("x", 50.0, "fixed_point"),
        ("generic", 5.0, "horizon"),
        ("ground", 50.0, "fixed_point"),
        ("singlet", 10.0, "fixed_point"),
    ]

    @pytest.mark.parametrize("start, t_max, stop", CASES)
    def test_matches_reference_loop(self, start, t_max, stop):
        params = ModelParams()
        rho0 = _trajectory_start(start)
        expected = _reference_evolve(rho0, params, 0.005, t_max)
        traj = evolve(rho0, params, dt=0.005, t_max=t_max)
        assert traj.states.shape == expected.shape
        assert np.abs(traj.states - expected).max() < 1e-12
        assert _trace_drift(traj.states) <= _trace_drift(expected)
        assert traj.stop_reason == stop
        lind = _superoperator(params)
        final = np.abs(lind @ traj.states[-1].reshape(16)).max()
        assert_allclose(traj.final_residual, final, rtol=1e-6, atol=1e-18)
        if stop == "horizon":
            assert len(traj.states) == int(round(t_max / 0.005)) + 1
            assert traj.final_residual >= FIXED_POINT_TOL
        else:
            assert traj.final_residual < FIXED_POINT_TOL

    @pytest.mark.parametrize("start, t_max, stop", CASES)
    def test_matches_exact_propagator(self, start, t_max, stop):
        params = ModelParams()
        rho0 = _trajectory_start(start)
        traj = evolve(rho0, params, dt=0.005, t_max=t_max)
        lam, vecs, inv = _eigen_generator(params)
        modes = inv @ rho0.matrix.reshape(16)
        exact = (np.exp(np.outer(traj.times, lam)) * modes) @ vecs.T
        assert np.abs(traj.states.reshape(-1, 16) - exact).max() < 1e-9


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
    bad = np.flatnonzero(off_trace | (lowest < -STEP_POSITIVITY_TOL))
    k = bad[0] if bad.size else len(checked)
    if k == len(states):
        stop = "fixed_point" if residual < FIXED_POINT_TOL else "horizon"
        return Trajectory(times, states, lowest, stop, residual)
    if k == len(checked):
        err = "density matrix has non-finite entries"
    elif off_trace[k]:
        err = f"trace {np.trace(states[k]).real:.12g} differs from 1 beyond {TRACE_TOL}"
    else:
        err = f"negative eigenvalue {lowest[k]:.3e} below -{STEP_POSITIVITY_TOL:g}"
    raise ValueError(
        f"integration failed at t = {times[k]:.6g} with dt = {dt:g} "
        f"(reduce the step size): {err}"
    )


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

    @pytest.mark.parametrize(
        "params, message",
        [
            (ModelParams(f=600.0), "t = 0.05 .*: negative eigenvalue -8.925e-06 below -1e-06"),
            (ModelParams(f=1e200), "t = 0.005 .*: density matrix has non-finite entries"),
            (ModelParams(omega=1e200), "t = 0.005 .*: density matrix has non-finite entries"),
        ],
    )
    def test_failures_match_block_checks(self, params, message):
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
        """The B energy measurement leaves A diagonal, so with p_e the
        excited population of B and q_e = (c x^2/Z)/p_e, q_g = (c/Z)/(1 - p_e)
        the conditional excited and ground populations of A:
        I_g = S - p_e h(q_e) - (1 - p_e) h(q_g), chi_B = h(p_e) - p_e h(q_e)
        - (1 - p_e) h(q_g), MI = 2 h(p_e) - S, <H_B> = omega p_e,
        F_B = -ln(1 + e^{-beta omega})/beta and rhs_ineq1 = chi_B
        + beta (omega p_e - E) + ln(1 + e^{-beta omega}), with beta the local
        inverse temperature and E the closed-form ergotropy.

        The bound ergotropy is the passive energy (the spectrum sorted onto
        {0, omega, omega, 2 omega}) less the energy of the thermal state of
        the same entropy.  Its beta* is a root with no closed form, so it
        comes from a reference bisection.  The library's bisection stops once
        the entropy is within ENTROPY_MATCH_TOL of the target, and at a
        thermal state dE = dS / beta, so its thermal energy is within
        ENTROPY_MATCH_TOL / beta* of the root's to first order; twice that
        covers the second order, plus the 1e-12 of round-off of the other
        columns (a pure spectrum takes the ground state, with no root).  The
        global ergotropy E + bound carries the same tolerance, and rhs_ineq2
        = chi_B + beta (omega p_e - E - bound) + ln(1 + e^{-beta omega}) and
        slack2 = rhs_ineq2 - I_g carry beta times it."""
        params = ModelParams(beta_e=beta_e)
        omega = params.omega
        x = math.exp(-beta_e * omega)
        z = 1.0 + x + x * x
        kinks = [z / (1.0 + z), z / (z + x * x)]
        for c in np.concatenate([np.linspace(0.0, 1.0, 101), kinks]):
            c = float(c)
            row = sweep_row(c, params, qubit_h)
            beta = row["_beta"]
            p_e = c * x * x / z + (1.0 - c) / 2.0 + c * x / (2.0 * z)
            s = _shannon([1.0 - c, c * x * x / z, c * x / z, c / z])
            cond = p_e * _binary_entropy(c * x * x / z / p_e) + (1.0 - p_e) * _binary_entropy(
                c / z / (1.0 - p_e)
            )
            chi_b = _binary_entropy(p_e) - cond
            work = omega * max(1.0 - c - c / z, 0.0, c * x * x / z - (1.0 - c))
            log_z = math.log1p(math.exp(-beta * omega))
            closed = {
                "I_g": s - cond,
                "chi_B": chi_b,
                "MI": 2.0 * _binary_entropy(p_e) - s,
                "avg_energy_B": omega * p_e,
                "rhs_ineq1": chi_b + beta * (omega * p_e - work) + log_z,
            }
            for column, value in closed.items():
                assert abs(row[column] - value) <= 1e-12, (column, c)
            spectrum = [1.0 - c, c * x * x / z, c * x / z, c / z]
            levels = [0.0, omega, omega, 2.0 * omega]
            passive = sum(p * e for p, e in zip(sorted(spectrum, reverse=True), levels))
            target = _shannon(spectrum)
            if target < ENTROPY_CUTOFF:
                bound, bound_tol = passive, 1e-12
            else:
                beta_star = _reference_matched_beta(target, omega)
                bound = passive - _doubled_thermal(beta_star, omega)[1]
                bound_tol = 2.0 * ENTROPY_MATCH_TOL / beta_star + 1e-12
            rhs2 = chi_b + beta * (omega * p_e - work - bound) + log_z
            matched = {
                "bound_ergotropy": (bound, bound_tol),
                "global_ergotropy": (work + bound, bound_tol),
                "rhs_ineq2": (rhs2, beta * bound_tol + 1e-12),
                "slack2": (rhs2 - (s - cond), beta * bound_tol + 2e-12),
            }
            for column, (value, tol) in matched.items():
                assert abs(row[column] - value) <= tol, (column, c)
            if beta == 0.0:
                assert row["free_energy_B"] == -math.inf, c
            else:
                assert abs(row["free_energy_B"] - (-log_z / beta)) <= 1e-12, c
        assert sweep_row(0.0, params, qubit_h)["free_energy_B"] == -math.inf


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

