"""Two-qubit collective dissipation: master equation, fixed-step RK4 evolution,
and the closed-form steady-state family.

Basis ordering is {|ee>, |eg>, |ge>, |gg>} everywhere; the single-qubit basis
is (|e>, |g>).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TRACE_TOL, DensityMatrix, _kron, _spectrum, as_matrix, dagger
from .thermo import Hamiltonian

# single-qubit operators in the (e, g) basis
_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|
_I2 = np.eye(2, dtype=complex)

SIGMA_MINUS = (_kron(_LOWER, _I2), _kron(_I2, _LOWER))
SIGMA_PLUS = tuple(dagger(s) for s in SIGMA_MINUS)

KET_EE = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
KET_EG = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
KET_GE = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
KET_GG = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
PSI_PLUS = (KET_GE + KET_EG) / np.sqrt(2.0)
PSI_MINUS = (KET_GE - KET_EG) / np.sqrt(2.0)

FIXED_POINT_TOL = 1e-12
STEP_POSITIVITY_TOL = 1e-6


@dataclass(frozen=True)
class ModelParams:
    """Two qubits of frequency omega with exchange coupling f, damped by a bath
    at inverse temperature beta_e through the collective jump operator
    J = s1- + s2-: emission at gamma (nbar + 1), absorption at gamma nbar.
    All four values are finite; omega and beta_e positive, gamma >= 0."""

    omega: float = 1.0
    f: float = 0.0
    beta_e: float = 10.0
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("omega", "f", "beta_e", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.beta_e <= 0:
            raise ValueError("beta_e must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")

    @property
    def nbar(self) -> float:
        """Mean photon number 1/expm1(beta_e omega) of the bath at the qubit
        frequency; ValueError where it is infinite (beta_e * omega < ~5.6e-309)."""
        arg = self.beta_e * self.omega
        # expm1 overflows to inf above arg ~ 709; 1/inf = 0 is the limit
        with np.errstate(over="ignore", divide="ignore"):
            nbar = 1.0 / np.expm1(arg)
        if not np.isfinite(nbar):
            raise ValueError(f"bath occupation nbar is infinite at beta_e * omega = {arg:g}")
        return nbar


def local_qubit_hamiltonian(omega: float) -> Hamiltonian:
    """omega |e><e| in the (e, g) basis: the local Hamiltonian of either qubit."""
    return Hamiltonian(np.diag([omega, 0.0]).astype(complex))


def build_hamiltonian(params: ModelParams) -> Hamiltonian:
    """Free qubit terms plus the excitation-exchange coupling,
    omega (s1+ s1- + s2+ s2-) + f (s1+ s2- + s2+ s1-)."""
    h = params.omega * (
        SIGMA_PLUS[0] @ SIGMA_MINUS[0] + SIGMA_PLUS[1] @ SIGMA_MINUS[1]
    )
    h = h + params.f * (
        SIGMA_PLUS[0] @ SIGMA_MINUS[1] + SIGMA_PLUS[1] @ SIGMA_MINUS[0]
    )
    return Hamiltonian(h)


def _superoperator(params: ModelParams) -> np.ndarray:
    """16x16 matrix L with L vec(rho) = rhs(rho) for row-major vec.

    Uses vec(A X B) = (A kron B^T) vec(X).
    """
    h = build_hamiltonian(params).matrix
    eye = np.eye(4, dtype=complex)
    lind = -1.0j * (_kron(h, eye) - _kron(eye, h.T))
    if params.gamma == 0.0:
        return lind  # closed dynamics: nbar plays no part
    nbar = params.nbar
    jump = SIGMA_MINUS[0] + SIGMA_MINUS[1]
    for coeff, a in (
        (params.gamma * (nbar + 1.0), jump),  # emission
        (params.gamma * nbar, dagger(jump)),  # absorption
    ):
        ba = dagger(a) @ a
        lind += coeff * (_kron(a, a.conj()) - 0.5 * (_kron(ba, eye) + _kron(eye, ba.T)))
    return lind


def lindblad_rhs(rho, params: ModelParams) -> np.ndarray:
    """Generator of the collective-dissipation master equation applied to rho.
    Trace-free and hermiticity-preserving."""
    return (_superoperator(params) @ as_matrix(rho).reshape(16)).reshape(4, 4)


@dataclass
class Trajectory:
    """Fixed-step RK4 output: times, the (n, 4, 4) states and their smallest
    eigenvalues, and how the integration ended: ``stop_reason`` is
    "fixed_point" when max|L v| of the last state is below 1e-12 (its value
    is ``final_residual``), "horizon" otherwise."""

    times: np.ndarray
    states: np.ndarray
    min_eigenvalues: np.ndarray
    stop_reason: str
    final_residual: float


# steps advanced per block of the integrator
STEP_BLOCK = 16
# blocks advanced between two checks of the stop rules
CHECK_BLOCKS = 16
# steps a trajectory may store: 100 times the default run, 256 MB of states
MAX_TRAJECTORY_STEPS = 1_000_000


def _step_increments(lind: np.ndarray, dt: float) -> np.ndarray:
    """(STEP_BLOCK, 16, 16) increments D_k = P^k - I, k = 1..STEP_BLOCK, of the
    classical RK4 step matrix P = I + Delta for the linear generator lind.

    Delta = dt L (I + dt L/2 (I + dt L/3 (I + dt L/4))) in Horner form, and
    D_{k+1} = D_k + Delta + Delta D_k.  The increments stay as small as the
    change they describe, so v + D_k v keeps the round-off of k single steps
    (the powers P^k themselves lose digits to the identity).
    """
    a = dt * lind
    eye = np.eye(16, dtype=complex)
    delta = a @ (eye + 0.5 * a @ (eye + a / 3.0 @ (eye + 0.25 * a)))
    incs = np.empty((STEP_BLOCK, 16, 16), dtype=complex)
    incs[0] = delta
    for k in range(1, STEP_BLOCK):
        incs[k] = incs[k - 1] + delta + delta @ incs[k - 1]
    return incs


def evolve(rho0: DensityMatrix, params: ModelParams, dt: float, t_max: float) -> Trajectory:
    """Integrate the master equation with classical fixed-step RK4.

    For the time-independent generator L one RK4 step is v -> P v with a fixed
    16x16 matrix P; the integrator advances STEP_BLOCK steps at once from the
    precomputed increments P^k - I (see ``_step_increments``).  Every stored
    state is re-hermitized ((rho + rho^dag)/2).  Stops early at the first
    state with max|L v| < 1e-12, or at a state with an entry that no density
    matrix has (non-finite, or above 2 in modulus).  The blocks are chained
    one by one, and the two stop rules are checked once per CHECK_BLOCKS
    blocks, over the stacked states; the run is then cut at the first
    stopping state, so the result is the same as a check after every block.
    The trajectory is then checked once: the first state off unit trace
    (1e-10) or below the positivity floor of -1e-6 aborts with a step-size
    diagnostic.  Refused up front: dt or t_max <= 0, a non-finite t_max / dt,
    a t_max / dt that rounds to no step, dt * gamma * (nbar + 1) > 0.01.  A
    run that would store more than MAX_TRAJECTORY_STEPS steps before it stops
    raises when it gets there.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max:g}")
    steps = t_max / dt
    if not math.isfinite(steps):
        raise ValueError(f"t_max / dt = {steps:g} steps is not finite")
    horizon = int(round(steps))
    if horizon == 0:
        raise ValueError(f"t_max = {t_max:g} with dt = {dt:g} gives no integration step")
    rate = params.gamma * (params.nbar + 1.0) if params.gamma else 0.0
    if dt * rate > 0.01 + 1e-12:
        raise ValueError(
            f"dt too large: dt * gamma * (nbar + 1) = {dt * rate:.4g} > 0.01"
        )
    lind = _superoperator(params)
    v = as_matrix(rho0).reshape(16)
    # groups are kept as made, so a horizon far past a fixed point allocates nothing
    groups = [v[None]]
    last = 0
    # a Hamiltonian scale far beyond 1/dt overflows within a step; the guard
    # below stops there and the check reports the non-finite state
    with np.errstate(over="ignore", invalid="ignore"):
        incs = _step_increments(lind, dt).reshape(STEP_BLOCK * 16, 16)
        residual = float(np.abs(lind @ v).max())
        while last < horizon and not residual < FIXED_POINT_TOL:
            size = min(CHECK_BLOCKS * STEP_BLOCK, horizon - last)
            group = np.empty((size, 16), dtype=complex)
            for start in range(0, size, STEP_BLOCK):
                n = min(STEP_BLOCK, size - start)
                r = (v + (incs[: n * 16] @ v).reshape(n, 16)).reshape(n, 4, 4)
                block = 0.5 * (r + r.conj().transpose(0, 2, 1))
                group[start : start + n] = block.reshape(n, 16)
                v = group[start + n - 1]
            residuals = np.abs(group @ lind.T).max(axis=1)
            if n == 1 and size > 1:
                # numpy multiplies a lone row by the vector kernel, whose last
                # bit can differ from the same row inside a stacked product
                residuals[-1] = np.abs(group[-1:] @ lind.T).max()
            guard = ~(np.abs(group).max(axis=1) <= 2.0)  # also true for NaN
            stops = np.flatnonzero(guard | (residuals < FIXED_POINT_TOL))
            size = stops[0] + 1 if stops.size else size
            if last + size > MAX_TRAJECTORY_STEPS:
                raise ValueError(
                    f"t_max / dt = {steps:g} steps exceeds the cap of "
                    f"{MAX_TRAJECTORY_STEPS} stored steps (no fixed point before it)"
                )
            groups.append(group[:size])
            last += size
            v = group[size - 1]
            residual = float(residuals[size - 1])
            if guard[size - 1]:
                break
    states = np.concatenate(groups).reshape(-1, 4, 4)
    times = dt * np.arange(len(states))
    # the spectrum kernel takes finite states only, and only the last one can
    # be non-finite
    checked = states if np.isfinite(v).all() else states[:-1]
    lowest = _spectrum(checked)[:, 0]
    off_trace = np.abs(np.trace(checked, axis1=1, axis2=2) - 1.0) > TRACE_TOL
    bad = np.flatnonzero(off_trace | (lowest < -STEP_POSITIVITY_TOL))
    k = bad[0] if bad.size else len(checked)
    if k == len(states):
        return Trajectory(
            times=times,
            states=states,
            min_eigenvalues=lowest,
            stop_reason="fixed_point" if residual < FIXED_POINT_TOL else "horizon",
            final_residual=residual,
        )
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


def effective_c(rho) -> float:
    """Weight of the state outside the singlet: c = 1 - <psi_-|rho|psi_->."""
    m = as_matrix(rho)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 state, got {m.shape}")
    c = 1.0 - float((PSI_MINUS.conj() @ m @ PSI_MINUS).real)
    return min(max(c, 0.0), 1.0)


def analytic_steady_state(c: float, params: ModelParams) -> DensityMatrix:
    """Closed-form X-shape steady state for singlet weight 1 - c:

    (1-c)|psi_-><psi_-| + c/Z_+ (e^{-2 omega beta_e}|ee><ee|
                                 + e^{-omega beta_e}|psi_+><psi_+| + |gg><gg|).
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"c must lie in [0, 1], got {c}")
    x = np.exp(-params.omega * params.beta_e)
    z_plus = 1.0 + x + x * x
    m = (1.0 - c) * np.outer(PSI_MINUS, PSI_MINUS.conj())
    m = m + (c / z_plus) * (
        x * x * np.outer(KET_EE, KET_EE.conj())
        + x * np.outer(PSI_PLUS, PSI_PLUS.conj())
        + np.outer(KET_GG, KET_GG.conj())
    )
    return DensityMatrix(m, dims=(2, 2), spectrum=_spectrum(m))


def local_beta(c: float, params: ModelParams) -> float:
    """Inverse temperature of either qubit marginal of the steady state:

    (1/omega) ln[((1 + c) + x + (1 - c) x^2) / ((1 - c) + x + (1 + c) x^2)]

    with x = exp(-beta_e omega), free of the cancellation in the equivalent
    cosh/sinh form.  Numerator minus denominator is -2c expm1(-2 beta_e
    omega) exactly, so beta = log1p((num - den) / den) / omega, which keeps
    every digit where the ratio is near 1 (limit 4 c beta_e / 3 as beta_e
    omega -> 0).  At c = 1, (num - den) / den is about 2/x, which overflows
    once beta_e omega > ln(DBL_MAX / 2) ~ 709.09; there the marginals are the
    ground state (beta = inf), and this raises ValueError.
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"c must lie in [0, 1], got {c}")
    arg = params.beta_e * params.omega
    x = math.exp(-arg)
    den = (1.0 - c) + x + (1.0 + c) * x * x
    excess = -2.0 * c * math.expm1(-2.0 * arg) / den if den > 0.0 else math.inf
    if not math.isfinite(excess):
        raise ValueError(
            f"local temperature is zero at beta_e * omega = {arg:g}, c = {c:g}: "
            "the qubit marginals are in the ground state"
        )
    return math.log1p(excess) / params.omega


def analytic_ergotropy_low_temperature(c: float) -> float:
    """Closed-form steady-state ergotropy in the cold-bath regime
    (beta_e = 10, omega = 1): 1 - 2c up to c = 1/2, zero beyond."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"c must lie in [0, 1], got {c}")
    return max(1.0 - 2.0 * c, 0.0)


_X_MASK = np.array(
    [
        [True, False, False, True],
        [False, True, True, False],
        [False, True, True, False],
        [True, False, False, True],
    ]
)


def max_non_x_magnitude(matrix) -> float:
    """Largest entry outside the X pattern (diagonal plus anti-diagonal)."""
    m = as_matrix(matrix)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
    return float(np.abs(m[~_X_MASK]).max())
