"""Two-qubit collective dissipation: master equation, fixed-step RK4 evolution,
and the closed-form steady-state family.

Basis ordering is {|ee>, |eg>, |ge>, |gg>} everywhere; the single-qubit basis
is (|e>, |g>).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DensityMatrix, as_matrix, dagger
from .thermo import Hamiltonian

# single-qubit operators in the (e, g) basis
_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|
_I2 = np.eye(2, dtype=complex)

SIGMA_MINUS = (np.kron(_LOWER, _I2), np.kron(_I2, _LOWER))
SIGMA_PLUS = tuple(dagger(s) for s in SIGMA_MINUS)

KET_EE = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
KET_EG = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
KET_GE = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
KET_GG = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
PSI_PLUS = (KET_GE + KET_EG) / np.sqrt(2.0)
PSI_MINUS = (KET_GE - KET_EG) / np.sqrt(2.0)

FIXED_POINT_TOL = 1e-12
STEP_POSITIVITY_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Two qubits of frequency omega with exchange coupling f, collectively
    damped by a bath at inverse temperature beta_e through the decay matrix
    gamma (fully collective by default)."""

    omega: float = 1.0
    f: float = 0.0
    beta_e: float = 10.0
    gamma: np.ndarray = field(default_factory=lambda: np.ones((2, 2)))

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.beta_e <= 0:
            raise ValueError("beta_e must be positive")
        g = np.asarray(self.gamma, dtype=float)
        object.__setattr__(self, "gamma", g)
        if g.shape != (2, 2):
            raise ValueError(f"gamma must be 2x2, got shape {g.shape}")
        if np.abs(g - g.T).max() > 1e-12 or g.min() < 0:
            raise ValueError("gamma must be symmetric with nonnegative entries")
        if float(np.linalg.eigvalsh(g).min()) < -1e-12:
            raise ValueError("gamma must be positive semi-definite")

    @property
    def nbar(self) -> float:
        """Mean photon number of the bath at the qubit frequency."""
        return 1.0 / np.expm1(self.beta_e * self.omega)


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
    lind = -1.0j * (np.kron(h, eye) - np.kron(eye, h.T))
    nbar = params.nbar
    for i in range(2):
        for j in range(2):
            g = params.gamma[i, j]
            if g == 0.0:
                continue
            for coeff, a, b in (
                (g * (nbar + 1.0), SIGMA_MINUS[j], SIGMA_PLUS[i]),  # emission
                (g * nbar, SIGMA_PLUS[j], SIGMA_MINUS[i]),  # absorption
            ):
                ba = b @ a
                lind += coeff * (
                    np.kron(a, b.T)
                    - 0.5 * (np.kron(ba, eye) + np.kron(eye, ba.T))
                )
    return lind


def lindblad_rhs(rho, params: ModelParams) -> np.ndarray:
    """Generator of the collective-dissipation master equation applied to rho.
    Trace-free and hermiticity-preserving."""
    return (_superoperator(params) @ as_matrix(rho).reshape(16)).reshape(4, 4)


@dataclass
class Trajectory:
    """Fixed-step integration output: stored times and validated states."""

    times: np.ndarray
    states: list


def evolve(rho0: DensityMatrix, params: ModelParams, dt: float, t_max: float) -> Trajectory:
    """Integrate the master equation with classical fixed-step RK4.

    Every stored state is re-hermitized ((rho + rho^dag)/2) and validated with
    a positivity floor of -1e-6; a violation aborts with a step-size
    diagnostic.  Stops early once max|rhs| < 1e-12.
    """
    rate = float(np.max(params.gamma)) * (params.nbar + 1.0)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt * rate > 0.01 + 1e-12:
        raise ValueError(
            f"dt too large: dt * max(gamma) * (nbar + 1) = {dt * rate:.4g} > 0.01"
        )
    lind = _superoperator(params)
    v = rho0.matrix.reshape(16).copy()
    times = [0.0]
    states = [rho0]
    n_steps = int(round(t_max / dt))
    for k in range(n_steps):
        k1 = lind @ v
        if np.abs(k1).max() < FIXED_POINT_TOL:
            break
        k2 = lind @ (v + 0.5 * dt * k1)
        k3 = lind @ (v + 0.5 * dt * k2)
        k4 = lind @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        r = v.reshape(4, 4)
        r = 0.5 * (r + dagger(r))
        v = r.reshape(16)
        t = (k + 1) * dt
        try:
            state = DensityMatrix(r, dims=(2, 2), positivity_tol=STEP_POSITIVITY_TOL)
        except ValueError as err:
            raise ValueError(
                f"integration failed at t = {t:.6g} with dt = {dt:g} "
                f"(reduce the step size): {err}"
            ) from None
        times.append(t)
        states.append(state)
    return Trajectory(times=np.asarray(times), states=states)


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
    return DensityMatrix(m, dims=(2, 2))


def local_beta(c: float, params: ModelParams) -> float:
    """Inverse temperature of either qubit marginal of the steady state:

    (1/omega) ln[(1 + 2 cosh(beta_e omega) + 2 c sinh(beta_e omega)) /
                 (1 + 2 cosh(beta_e omega) - 2 c sinh(beta_e omega))].
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"c must lie in [0, 1], got {c}")
    arg = params.beta_e * params.omega
    num = 1.0 + 2.0 * np.cosh(arg) + 2.0 * c * np.sinh(arg)
    den = 1.0 + 2.0 * np.cosh(arg) - 2.0 * c * np.sinh(arg)
    if den <= 0:
        raise ValueError("invalid argument of the logarithm")
    return float(np.log(num / den) / params.omega)


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


@dataclass(frozen=True)
class XState:
    """Entries of a two-qubit X-shape matrix in the {ee, eg, ge, gg} basis."""

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho14: complex
    rho23: complex

    def __post_init__(self):
        diag_sum = self.rho11 + self.rho22 + self.rho33 + self.rho44
        if abs(diag_sum - 1.0) > 1e-9:
            raise ValueError(f"diagonal sums to {diag_sum:.12g}, not 1")
        if abs(self.rho14) > np.sqrt(max(self.rho11 * self.rho44, 0.0)) + 1e-9:
            raise ValueError("|rho14| exceeds sqrt(rho11 rho44)")
        if abs(self.rho23) > np.sqrt(max(self.rho22 * self.rho33, 0.0)) + 1e-9:
            raise ValueError("|rho23| exceeds sqrt(rho22 rho33)")

    @classmethod
    def from_matrix(cls, matrix, tol: float = 1e-10) -> "XState":
        m = as_matrix(matrix)
        stray = max_non_x_magnitude(m)
        if stray > tol:
            raise ValueError(f"matrix is not X-shaped: stray entry {stray:.3e}")
        return cls(
            rho11=float(m[0, 0].real),
            rho22=float(m[1, 1].real),
            rho33=float(m[2, 2].real),
            rho44=float(m[3, 3].real),
            rho14=complex(m[0, 3]),
            rho23=complex(m[1, 2]),
        )

    def to_matrix(self) -> np.ndarray:
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.rho11, self.rho22, self.rho33, self.rho44
        m[0, 3], m[3, 0] = self.rho14, np.conj(self.rho14)
        m[1, 2], m[2, 1] = self.rho23, np.conj(self.rho23)
        return m

    def to_density_matrix(self) -> DensityMatrix:
        return DensityMatrix(self.to_matrix(), dims=(2, 2))
