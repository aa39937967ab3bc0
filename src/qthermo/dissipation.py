"""Two-qubit collective dissipation: master equation, fixed-step evolution by
its exact propagator, and the closed-form steady-state family.

Basis ordering is {|ee>, |eg>, |ge>, |gg>} everywhere; the single-qubit basis
is (|e>, |g>).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    POSITIVITY_TOL,
    TRACE_TOL,
    DensityMatrix,
    _kron,
    _read_only,
    _spectrum,
    as_matrix,
    dagger,
)
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


# ModelParams is frozen and compared by value; f = -0.0 and gamma = -0.0 hit
# the entries of +0.0, whose L has the same bits
@lru_cache(maxsize=8)
def _superoperator(params: ModelParams) -> np.ndarray:
    """16x16 matrix L with L vec(rho) = rhs(rho) for row-major vec, built
    once per parameter value and returned read-only.

    Uses vec(A X B) = (A kron B^T) vec(X).
    """
    h = build_hamiltonian(params).matrix
    eye = np.eye(4, dtype=complex)
    lind = -1.0j * (_kron(h, eye) - _kron(eye, h.T))
    if params.gamma == 0.0:
        return _read_only(lind)  # closed dynamics: nbar plays no part
    nbar = params.nbar
    jump = SIGMA_MINUS[0] + SIGMA_MINUS[1]
    for coeff, a in (
        (params.gamma * (nbar + 1.0), jump),  # emission
        (params.gamma * nbar, dagger(jump)),  # absorption
    ):
        ba = dagger(a) @ a
        lind += coeff * (_kron(a, a.conj()) - 0.5 * (_kron(ba, eye) + _kron(eye, ba.T)))
    return _read_only(lind)


def lindblad_rhs(rho, params: ModelParams) -> np.ndarray:
    """Generator of the collective-dissipation master equation applied to rho.
    Trace-free and hermiticity-preserving."""
    return (_superoperator(params) @ as_matrix(rho).reshape(16)).reshape(4, 4)


@dataclass
class Trajectory:
    """Fixed-step evolution output: times, the (n, 4, 4) states and their smallest
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
# steps a trajectory may store: 100 times the default run.  At 256 B per
# stored step its 256 MB is address space that evolve reserves; it becomes
# resident only as steps are stored
MAX_TRAJECTORY_STEPS = 1_000_000
# degree of the Taylor series of the propagator on a step scaled to norm 1/2
TAYLOR_DEGREE = 18
# largest dt * ||L||_1 a step may have.  At 1e4 (f = 1e6 at dt = 0.005) the
# Bell state's run keeps its smallest eigenvalue above -4e-12; at 1e6 the
# squarings take it below the -1e-9 floor by t = 2.1
MAX_STEP_NORM = 1e4


# entries of the row-major vec(rho) on the diagonal of rho
_DIAGONAL = np.arange(0, 16, 5)


def _step_norm(lind: np.ndarray, dt: float) -> float:
    """dt ||L||_1, the largest column sum of |dt L|; inf, with no numpy
    warning, where the sum overflows."""
    with np.errstate(over="ignore"):
        return dt * float(np.abs(lind).sum(axis=0).max())


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(I + a)(I + b) - I = a + b + a b: two propagators composed, each held
    as its difference from the identity."""
    return a + b + a @ b


def _step_increments(lind: np.ndarray, dt: float) -> np.ndarray:
    """(STEP_BLOCK, 16, 16) increments D_k = P^k - I, k = 1..STEP_BLOCK, of the
    exact one-step propagator P = exp(dt L) of the linear generator lind.

    Delta = P - I by scaling and squaring (Moler and Van Loan, SIAM Rev. 45, 3
    (2003)): the Taylor series of exp(A) - I to degree TAYLOR_DEGREE on
    A = dt L / 2^s, with s the least that gives ||A||_1 < 1/2, so the
    remainder ||A||^19 / 19! < 2e-23 lies below round-off; then s squarings
    E -> (I + E)^2 - I.  exp(dt L) keeps the trace exactly (vec(I)^T L = 0),
    but each squaring doubles the round-off, so Delta's trace row is reset to
    zero: a drift of 1e-13 per step would otherwise add up over the run.  The
    increments follow as D_{k+1} = Delta + D_k + Delta D_k.  They stay as
    small as the change they describe, so v + D_k v keeps the round-off of k
    single steps (P^k itself loses digits to the identity).
    """
    # frexp gives norm < 2^e, so 2^(e + 1) scales it below 1/2
    squarings = max(0, math.frexp(_step_norm(lind, dt))[1] + 1)
    a = lind * (dt / 2.0**squarings)
    eye = np.eye(16, dtype=complex)
    poly = eye + a / TAYLOR_DEGREE
    for j in range(TAYLOR_DEGREE - 1, 1, -1):
        poly = eye + (a / j) @ poly
    delta = a @ poly
    for _ in range(squarings):
        delta = _compose(delta, delta)
    delta[_DIAGONAL] -= delta[_DIAGONAL].sum(axis=0) / 4.0
    incs = np.empty((STEP_BLOCK, 16, 16), dtype=complex)
    incs[0] = delta
    for k in range(1, STEP_BLOCK):
        incs[k] = _compose(delta, incs[k - 1])
    return incs


def evolve(rho0: DensityMatrix, params: ModelParams, dt: float, t_max: float) -> Trajectory:
    """Integrate the master equation in fixed steps of its exact propagator.

    The generator L is time-independent, so one step of dt is v -> P v with
    the fixed 16x16 matrix P = exp(dt L); the integrator advances STEP_BLOCK
    steps at once from the precomputed increments P^k - I (see
    ``_step_increments``).  Every stored state is re-hermitized
    ((rho + rho^dag)/2).  Stops early at the first state with max|L v| <
    1e-12, or at a state with an entry that no density matrix has
    (non-finite, or above 2 in modulus).  The blocks are chained one by one,
    and the two stop rules are checked once per CHECK_BLOCKS blocks, over the
    stacked states; the run is then cut at the first stopping state, so the
    result is the same as a check after every block.
    Each state is held once, 256 B per stored step: the blocks are written
    straight into one array of min(horizon, MAX_TRAJECTORY_STEPS) + 1 rows,
    and ``states`` is a view of its filled prefix.  Rows past the last
    checked group are never written, so a horizon far past a fixed point
    adds only the resident memory of the steps it stores.
    The trajectory is then checked once, as a ``DensityMatrix`` is: the first
    state off unit trace (TRACE_TOL) or below the positivity floor
    (-POSITIVITY_TOL) raises.  Refused up front: dt or t_max <= 0, a
    non-finite t_max / dt, a t_max / dt that rounds to no step, and a step
    with dt * ||L||_1 above MAX_STEP_NORM.  A run that would store more than
    MAX_TRAJECTORY_STEPS steps before it stops raises when it gets there.
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
    lind = _superoperator(params)
    step_norm = _step_norm(lind, dt)
    if not step_norm <= MAX_STEP_NORM:
        raise ValueError(
            f"dt * ||L||_1 = {step_norm:.4g} exceeds {MAX_STEP_NORM:g}: the propagator "
            "of so long a step is lost to round-off"
        )
    v = as_matrix(rho0).reshape(16)
    capacity = min(horizon, MAX_TRAJECTORY_STEPS)
    buffer = np.empty((capacity + 1, 16), dtype=complex)
    buffer[0] = v
    last = 0
    # should a step overflow, the guard below stops there and the check
    # reports the non-finite state, with no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        incs = _step_increments(lind, dt).reshape(STEP_BLOCK * 16, 16)
        residual = float(np.abs(lind @ v).max())
        while last < horizon and not residual < FIXED_POINT_TOL:
            if last == capacity:
                raise ValueError(
                    f"t_max / dt = {steps:g} steps exceeds the cap of "
                    f"{MAX_TRAJECTORY_STEPS} stored steps (no fixed point before it)"
                )
            size = min(CHECK_BLOCKS * STEP_BLOCK, capacity - last)
            group = buffer[last + 1 : last + 1 + size]
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
            last += size
            v = group[size - 1]
            residual = float(residuals[size - 1])
            if guard[size - 1]:
                break
    states = buffer[: last + 1].reshape(-1, 4, 4)
    times = dt * np.arange(len(states))
    # the spectrum kernel takes finite states only, and only the last one can
    # be non-finite
    checked = states if np.isfinite(v).all() else states[:-1]
    # a copy: a column view would keep the whole (n, 4) spectrum alive
    lowest = _spectrum(checked)[:, 0].copy()
    off_trace = np.abs(np.trace(checked, axis1=1, axis2=2) - 1.0) > TRACE_TOL
    bad = np.flatnonzero(off_trace | (lowest < -POSITIVITY_TOL))
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
        err = f"negative eigenvalue {lowest[k]:.3e} below -{POSITIVITY_TOL:g}"
    raise ValueError(f"integration failed at t = {times[k]:.6g} with dt = {dt:g}: {err}")


def effective_c(rho) -> float:
    """Weight of the state outside the singlet: c = 1 - <psi_-|rho|psi_->."""
    m = as_matrix(rho)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 state, got {m.shape}")
    return float(_effective_cs(m))


def _effective_cs(m: np.ndarray) -> np.ndarray:
    """``effective_c`` of a 4x4 matrix, or of each matrix of an ``(n, 4, 4)``
    stack, clipped to [0, 1].  Each <psi_-|rho|psi_-> is a (1, 4) @ (4, 1)
    product, which numpy computes as the dot of the two vectors whether or
    not it is stacked, so a state's c has the same bits alone or in a stack."""
    weights = (PSI_MINUS.conj() @ m)[..., None, :] @ PSI_MINUS[:, None]
    return np.clip(1.0 - weights[..., 0, 0].real, 0.0, 1.0)


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
    return float(_non_x_magnitudes(m))


def _non_x_magnitudes(m: np.ndarray) -> np.ndarray:
    """``max_non_x_magnitude`` of a 4x4 matrix, or of each matrix of an
    ``(n, 4, 4)`` stack."""
    return np.abs(m[..., ~_X_MASK]).max(axis=-1)
