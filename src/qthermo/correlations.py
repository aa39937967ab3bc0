"""Bipartite correlation measures: mutual information, Holevo quantities,
quantum discord, and entanglement of formation via the purification identity.

The measured partition A is always a qubit here; the optimization over its
rank-one projective measurements runs on a coarse (theta, phi) grid followed
by pattern-search refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    SIGMA_Y,
    DensityMatrix,
    _partial_trace,
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
SPLIT_TOL = 2e-3


@dataclass(frozen=True)
class SearchGrid:
    """Resolution of the measurement maximization: coarse grid points per angle
    and the refinement step floor in radians."""

    coarse: int = 64
    angle_tol: float = 1e-4


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
        if np.abs(m - np.kron(np.eye(d_a), local)).max() > LOCAL_FORM_TOL:
            raise ValueError(f"operator {k} is not of the form I_A (x) K")
    return local_information_gain(measure(rho, povm_on_b), "A")


def _branch_entropies(stack: np.ndarray) -> np.ndarray:
    """sum_i p_i S(N_i / p_i) for a stack of unnormalized PSD 2x2-or-larger blocks.

    For an unnormalized block N with eigenvalues nu and weight p = tr N the
    contribution is -sum nu ln nu + p ln p.
    """
    d = stack.shape[-1]
    if d == 2:
        t = np.trace(stack, axis1=-2, axis2=-1).real
        det = (stack[..., 0, 0] * stack[..., 1, 1] - stack[..., 0, 1] * stack[..., 1, 0]).real
        disc = np.sqrt(np.clip(t * t - 4.0 * det, 0.0, None))
        w = np.stack([(t - disc) / 2.0, (t + disc) / 2.0], axis=-1)
    else:
        w = np.linalg.eigvalsh(stack)
    w = np.clip(w, 0.0, None)
    p = w.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(w >= ENTROPY_CUTOFF, w * np.log(np.where(w > 0, w, 1.0)), 0.0)
        plog = np.where(p >= ENTROPY_CUTOFF, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -term.sum(axis=-1) + plog


def chi_A_max(rho: DensityMatrix, grid: SearchGrid = SearchGrid()) -> float:
    """Best Holevo quantity about B over rank-one projective measurements on
    qubit A: max over Bloch directions of S(rho_B) - sum p S(rho_B^n).

    The returned value is a lower bound on the optimum over this measurement
    class; the search never does worse than the z-axis measurement.
    """
    d_a, d_b = _require_dims(rho)
    if d_a != 2:
        raise ValueError("only a qubit partition A is supported")
    m = rho.matrix
    b00, b01 = m[:d_b, :d_b], m[:d_b, d_b:]
    b10, b11 = m[d_b:, :d_b], m[d_b:, d_b:]
    rho_b = b00 + b11
    s_b = entropy_of_eigenvalues(np.linalg.eigvalsh(rho_b))

    def objective(theta, phi):
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        nx = np.sin(theta) * np.cos(phi)
        ny = np.sin(theta) * np.sin(phi)
        nz = np.cos(theta)
        # N_+ = sum_{a a'} P_{a' a} B_{a a'} for the projector P = (I + n.sigma)/2
        p00 = (1.0 + nz) / 2.0
        p11 = (1.0 - nz) / 2.0
        p01 = (nx - 1.0j * ny) / 2.0
        p10 = (nx + 1.0j * ny) / 2.0
        n_plus = (
            p00[..., None, None] * b00
            + p10[..., None, None] * b01
            + p01[..., None, None] * b10
            + p11[..., None, None] * b11
        )
        n_minus = rho_b - n_plus
        both = np.stack([n_plus, n_minus], axis=-3)
        return s_b - _branch_entropies(both).sum(axis=-1)

    thetas = np.linspace(0.0, np.pi, grid.coarse)
    phis = np.linspace(0.0, 2.0 * np.pi, grid.coarse, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    values = objective(tt, pp)
    best = np.unravel_index(int(np.argmax(values)), values.shape)
    best_val = float(values[best])
    theta, phi = float(tt[best]), float(pp[best])

    step = max(np.pi / max(grid.coarse - 1, 1), 2.0 * np.pi / grid.coarse)
    while step > grid.angle_tol:
        cand_t = np.array([theta + step, theta - step, theta, theta])
        cand_p = np.array([phi, phi, phi + step, phi - step])
        cand_v = objective(cand_t, cand_p)
        k = int(np.argmax(cand_v))
        if cand_v[k] > best_val:
            best_val = float(cand_v[k])
            theta, phi = float(cand_t[k]), float(cand_p[k])
        else:
            step /= 2.0
    return best_val


def _clamp_small_negative(x: float) -> float:
    return 0.0 if -CLAMP_TOL <= x < 0.0 else x


def discord_A(rho: DensityMatrix, grid: SearchGrid = SearchGrid()) -> float:
    """Quantum discord I(A:B) - chi_A_max, measurements on the qubit partition A."""
    return _clamp_small_negative(mutual_information(rho) - chi_A_max(rho, grid))


def eof_via_koashi_winter(rho: DensityMatrix, grid: SearchGrid = SearchGrid()) -> float:
    """Entanglement of formation E(B:C) for the purifying environment C,
    obtained as S(rho_B) - chi_A_max."""
    return _clamp_small_negative(marginal_entropy(rho, "B") - chi_A_max(rho, grid))


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


def breakdown(rho: DensityMatrix, h_b, grid: SearchGrid = SearchGrid()) -> CorrelationBreakdown:
    """Assemble the correlation quantities and the classical/quantum split of
    the information gain under the local energy measurement on B.

    Raises when the split identity (information gain = chi_B + quantum gain)
    is violated beyond 2e-3.
    """
    dims = _require_dims(rho)
    povm = projective_energy_povm(h_b, "B", dims)
    record = measure(rho, povm)
    gain = information_gain(record)
    chi_b = chi_from_local_measurement(rho, povm)
    mi = mutual_information(rho)
    chi_a = chi_A_max(rho, grid)
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
