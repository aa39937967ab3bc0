"""Bipartite correlation measures: mutual information, Holevo quantities,
quantum discord, and entanglement of formation via the purification identity.

The one-way quantities (``chi_A_max`` and with it discord and EoF) are
defined for two-qubit states: the optimization over rank-one projective
measurements on qubit A evaluates the measured branches of B in closed form
from the real Bloch data of the state, on a coarse (theta, phi) grid followed
by pattern-search refinement.  The result is a lower bound on the optimum.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    _kron,
    _partial_trace,
    _read_only,
    as_matrix,
    entropy_of_eigenvalues,
    marginal_entropy,
    mutual_information,
    ENTROPY_CUTOFF,
)
from .measurement import (
    Povm,
    information_gain,
    local_information_gain,
    measure,
    projective_energy_povm,
)

LOCAL_FORM_TOL = 1e-9
CLAMP_TOL = 1e-6
# The gain split is exact algebra (quantum gain = S_B - I, chi_A cancels) up
# to the two CLAMP_TOL clamps of discord and EoF.
SPLIT_TOL = 2e-6


@dataclass(frozen=True)
class SearchGrid:
    """Resolution of the measurement maximization: coarse grid points per angle
    and the refinement step floor in radians."""

    coarse: int = 64
    angle_tol: float = 1e-4

    def __post_init__(self):
        if isinstance(self.coarse, bool) or not isinstance(self.coarse, numbers.Integral):
            raise ValueError(f"coarse must be an integer, got {self.coarse!r}")
        if self.coarse < 1:
            raise ValueError(f"coarse must be at least 1, got {self.coarse}")
        tol = self.angle_tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not (
            math.isfinite(tol) and tol > 0
        ):
            raise ValueError(f"angle_tol must be finite and positive, got {tol!r}")


@dataclass(frozen=True)
class CorrelationBreakdown:
    """Correlation quantities entering the classical/quantum split of the
    information gain under the local energy measurement on B (all in nats)."""

    mutual_information: float
    chi_B: float
    chi_A_max: float
    discord_A: float
    eof_BC: float
    quantum_gain: float


def _require_dims(rho: DensityMatrix):
    if rho.dims is None:
        raise ValueError("state carries no bipartite dims")
    return rho.dims


def chi_from_local_measurement(rho: DensityMatrix, povm_on_b: Povm) -> float:
    """Holevo quantity about A extracted by measuring B:
    S(rho_A) - sum_n p_n S(rho_A^n).

    The POVM must act as the identity on partition A.
    """
    d_a, d_b = _require_dims(rho)
    for k, m in enumerate(povm_on_b.operators):
        local = _partial_trace(m, (d_a, d_b), "B") / d_a
        if np.abs(m - _kron(np.eye(d_a), local)).max() > LOCAL_FORM_TOL:
            raise ValueError(f"operator {k} is not of the form I_A (x) K")
    return local_information_gain(measure(rho, povm_on_b), "A")


_PAULI = np.stack([np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z])


def _bloch_data(m: np.ndarray) -> list:
    """R[mu][nu] = tr rho (s_mu (x) s_nu) with s = (I, sigma_x, sigma_y, sigma_z)
    for a 4x4 two-qubit matrix: R[0][0] is the trace, R[i][0] = a_i,
    R[0][j] = b_j and R[i][j] = T_ij."""
    r = m.reshape(2, 2, 2, 2)
    return np.einsum("ijkl,mki,nlj->mn", r, _PAULI, _PAULI).real.tolist()


def _branches(r, nx, ny, nz):
    """Weights and squared Bloch lengths of the two unnormalized B branches
    N_+- = [(tr rho +- n.a) I + (b +- T^T n).sigma] / 4 for the measurement of
    direction n on A.  Works elementwise on floats or arrays of directions."""
    (tr, b1, b2, b3), (a1, t11, t12, t13), (a2, t21, t22, t23), (a3, t31, t32, t33) = r
    na = a1 * nx + a2 * ny + a3 * nz
    u1 = t11 * nx + t21 * ny + t31 * nz
    u2 = t12 * nx + t22 * ny + t32 * nz
    u3 = t13 * nx + t23 * ny + t33 * nz
    p1, p2, p3 = b1 + u1, b2 + u2, b3 + u3
    m1, m2, m3 = b1 - u1, b2 - u2, b3 - u3
    return (
        (tr + na) / 2.0,
        p1 * p1 + p2 * p2 + p3 * p3,
        (tr - na) / 2.0,
        m1 * m1 + m2 * m2 + m3 * m3,
    )


def _xlogx_grid(x: np.ndarray) -> np.ndarray:
    return np.where(x >= ENTROPY_CUTOFF, x * np.log(np.maximum(x, ENTROPY_CUTOFF)), 0.0)


def _branch_entropy_grid(t: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """p S(N / p) for branches of trace t and squared Bloch length sq: the
    eigenvalues (t -+ sqrt(sq) / 2) / 2, clipped at 0, and p their sum."""
    disc = np.sqrt(sq) / 2.0
    lo = np.maximum((t - disc) / 2.0, 0.0)
    hi = np.maximum((t + disc) / 2.0, 0.0)
    return -(_xlogx_grid(lo) + _xlogx_grid(hi)) + _xlogx_grid(lo + hi)


def _xlogx(x: float) -> float:
    return x * math.log(x) if x >= ENTROPY_CUTOFF else 0.0


def _branch_entropy(t: float, sq: float) -> float:
    """Scalar form of _branch_entropy_grid."""
    disc = math.sqrt(sq) / 2.0
    lo = max((t - disc) / 2.0, 0.0)
    hi = max((t + disc) / 2.0, 0.0)
    return -(_xlogx(lo) + _xlogx(hi)) + _xlogx(lo + hi)


@lru_cache(maxsize=4)
def _direction_grid(coarse: int):
    """The coarse (theta, phi) grid of chi_A_max: the 1-D angles and the
    Cartesian components of every direction, indexed [theta, phi].  Read-only,
    since every caller shares them; 3 coarse^2 floats per size (393 kB at
    coarse = 128)."""
    thetas = np.linspace(0.0, np.pi, coarse)
    phis = np.linspace(0.0, 2.0 * np.pi, coarse, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    sin_t = np.sin(tt)
    return tuple(
        _read_only(a) for a in (thetas, phis, sin_t * np.cos(pp), sin_t * np.sin(pp), np.cos(tt))
    )


def chi_A_max(rho: DensityMatrix, grid: SearchGrid = SearchGrid()) -> float:
    """Best Holevo quantity about B over rank-one projective measurements on
    qubit A: max over Bloch directions n of S(rho_B) - sum_+- p_+- S(rho_B^+-).

    Two-qubit states only (dims (2, 2)).  The branch spectra come in closed
    form from the real Bloch data (a, b, T) of the state (Luo, PRA 77, 042303
    (2008)): branch +- has weight (1 +- n.a)/2 and eigenvalues
    ((1 +- n.a)/2 -+ |b +- T^T n|/2)/2.  The objective is evaluated on a
    coarse (theta, phi) grid, and the best grid point is refined by a pattern
    search that halves its angle step down to ``grid.angle_tol``.

    The returned value is a lower bound on the optimum over this measurement
    class; the search never does worse than the z-axis measurement, which is
    a grid point.
    """
    d_a, d_b = _require_dims(rho)
    if d_a != 2:
        raise ValueError("only a qubit partition A is supported")
    if d_b != 2:
        raise ValueError(f"only two-qubit states are supported, got dims {(d_a, d_b)}")
    m = rho.matrix
    s_b = entropy_of_eigenvalues(np.linalg.eigvalsh(m[:2, :2] + m[2:, 2:]))
    r = _bloch_data(m)

    thetas, phis, nx, ny, nz = _direction_grid(grid.coarse)
    t_plus, sq_plus, t_minus, sq_minus = _branches(r, nx, ny, nz)
    values = s_b - (_branch_entropy_grid(t_plus, sq_plus) + _branch_entropy_grid(t_minus, sq_minus))
    best = np.unravel_index(int(np.argmax(values)), values.shape)
    best_val = float(values[best])
    theta, phi = float(thetas[best[0]]), float(phis[best[1]])

    def objective(theta: float, phi: float) -> float:
        sin_theta = math.sin(theta)
        t_plus, sq_plus, t_minus, sq_minus = _branches(
            r, sin_theta * math.cos(phi), sin_theta * math.sin(phi), math.cos(theta)
        )
        return s_b - (_branch_entropy(t_plus, sq_plus) + _branch_entropy(t_minus, sq_minus))

    step = max(math.pi / max(grid.coarse - 1, 1), 2.0 * math.pi / grid.coarse)
    while step > grid.angle_tol:
        candidates = (
            (theta + step, phi),
            (theta - step, phi),
            (theta, phi + step),
            (theta, phi - step),
        )
        cand_v = [objective(t, p) for t, p in candidates]
        k = max(range(4), key=cand_v.__getitem__)  # the first maximum, as argmax
        if cand_v[k] > best_val:
            best_val = cand_v[k]
            theta, phi = candidates[k]
        else:
            step /= 2.0
    return best_val


def _clamp_small_negative(x: float) -> float:
    return 0.0 if -CLAMP_TOL <= x < 0.0 else x


def discord_A(rho: DensityMatrix) -> float:
    """Quantum discord I(A:B) - chi_A_max, measurements on the qubit partition A."""
    return _clamp_small_negative(mutual_information(rho) - chi_A_max(rho))


def eof_via_koashi_winter(rho: DensityMatrix) -> float:
    """Entanglement of formation E(B:C) for the purifying environment C,
    obtained as S(rho_B) - chi_A_max."""
    return _clamp_small_negative(marginal_entropy(rho, "B") - chi_A_max(rho))


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log(x) - (1.0 - x) * np.log(1.0 - x))


def wootters_eof(rho_2qubit) -> float:
    """Entanglement of formation (nats) of a two-qubit state via the concurrence.

    C = max(0, l1 - l2 - l3 - l4) from the square-rooted eigenvalues of
    rho (sy(x)sy) rho* (sy(x)sy), then E = h((1 + sqrt(1 - C^2)) / 2).
    """
    m = as_matrix(rho_2qubit)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 state, got {m.shape}")
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    flipped = m @ yy @ m.conj() @ yy
    lam = np.sqrt(np.clip(np.linalg.eigvals(flipped).real, 0.0, None))
    lam = np.sort(lam)[::-1]
    concurrence = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    if concurrence <= 0.0:
        return 0.0
    return _binary_entropy(0.5 * (1.0 + np.sqrt(1.0 - concurrence**2)))


def breakdown(rho: DensityMatrix, h_b) -> CorrelationBreakdown:
    """Assemble the correlation quantities and the classical/quantum split of
    the information gain under the local energy measurement on B.

    Raises when the split identity (information gain = chi_B + quantum gain)
    is violated beyond 2e-6.
    """
    dims = _require_dims(rho)
    povm = projective_energy_povm(h_b, dims)
    record = measure(rho, povm)
    gain = information_gain(record)
    chi_b = chi_from_local_measurement(rho, povm)
    mi = mutual_information(rho)
    chi_a = chi_A_max(rho)
    s_b = marginal_entropy(rho, "B")
    discord = _clamp_small_negative(mi - chi_a)
    eof = _clamp_small_negative(s_b - chi_a)
    quantum_gain = eof - discord
    residual = gain - (chi_b + quantum_gain)
    if abs(residual) > SPLIT_TOL:
        raise ValueError(f"gain split identity violated: residual {residual:.3e}")
    return CorrelationBreakdown(
        mutual_information=mi,
        chi_B=chi_b,
        chi_A_max=chi_a,
        discord_A=discord,
        eof_BC=eof,
        quantum_gain=quantum_gain,
    )
