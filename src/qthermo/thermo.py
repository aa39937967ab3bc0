"""Thermal states, free energy, ergotropy, passive states, and the
local-temperature fit.  Units: hbar = 1, energies in units of the qubit
frequency where one appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import (
    DensityMatrix,
    ENTROPY_CUTOFF,
    HERMITICITY_TOL,
    _kron,
    _read_only,
    as_matrix,
    dagger,
    entropy_of_eigenvalues,
    partial_trace,
)

THERMAL_FIT_TOL = 1e-8
ENTROPY_MATCH_TOL = 1e-10
BETA_CAP = 1e6
# levels closer than this times their magnitude are equal up to eigh round-off
LEVEL_ROUNDOFF = 64 * float(np.finfo(float).eps)


class Hamiltonian:
    """Hermitian operator with its one spectral decomposition: ``eigenvalues``
    ascending, ``eigenvectors`` the matching orthonormal columns.  ``matrix``
    is a read-only copy of the input, and both spectral arrays are read-only."""

    def __init__(self, matrix):
        m = as_matrix(matrix).copy()
        if not np.isfinite(m).all():
            raise ValueError("Hamiltonian has non-finite entries")
        herm = float(np.abs(m - dagger(m)).max())
        if herm > HERMITICITY_TOL:
            raise ValueError(f"not Hermitian: max |H - H^dag| = {herm:.3e}")
        self.matrix = _read_only(m)
        eigenvalues, eigenvectors = np.linalg.eigh(m)
        self.eigenvalues = _read_only(eigenvalues)
        self.eigenvectors = _read_only(eigenvectors)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def doubled(self) -> "Hamiltonian":
        """H (x) I + I (x) H: two non-interacting copies, built once."""
        eye = np.eye(self.dim)
        return Hamiltonian(_kron(self.matrix, eye) + _kron(eye, self.matrix))

    def __repr__(self) -> str:
        return f"Hamiltonian(dim={self.dim})"


@dataclass(frozen=True)
class ThermoReport:
    """Energetics of a bipartite state whose two partitions share one local
    Hamiltonian H.

    ``avg_energy`` and ``free_energy`` refer to partition B; the ergotropies
    are global (total Hamiltonian H (x) I + I (x) H, no interaction term).
    ``free_energy`` is -inf when beta is 0.
    """

    avg_energy: float
    free_energy: float
    ergotropy: float
    bound_ergotropy: float
    global_ergotropy: float
    beta: float


def thermal_state(h: Hamiltonian, beta: float) -> DensityMatrix:
    """exp(-beta H)/Z through the spectral decomposition.

    ``beta = inf`` gives the ground-state projector (uniform mixture on a
    degenerate ground space).
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    e = h.eigenvalues
    v = h.eigenvectors
    if np.isinf(beta):
        ground = (e - e.min() < 1e-12).astype(float)
        p = ground / ground.sum()
    else:
        w = np.exp(-beta * (e - e.min()))
        p = w / w.sum()
    return DensityMatrix((v * p) @ dagger(v))


def log_partition(h: Hamiltonian, beta: float) -> float:
    """ln Z(beta) = ln sum_i exp(-beta eps_i), computed stably."""
    e = h.eigenvalues
    return float(-beta * e.min() + np.log(np.exp(-beta * (e - e.min())).sum()))


def average_energy(rho, h: Hamiltonian) -> float:
    return float((h.matrix @ as_matrix(rho)).trace().real)


def passive_state(rho: DensityMatrix, h: Hamiltonian) -> DensityMatrix:
    """Populations of ``rho`` sorted descending onto energy eigenstates sorted
    ascending; commutes with H and shares the spectrum of ``rho``."""
    if h.dim != rho.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, Hamiltonian {h.dim}")
    populations = np.sort(rho.eigenvalues())[::-1]
    v = h.eigenvectors
    return DensityMatrix((v * populations) @ dagger(v), dims=rho.dims)


def _passive_energy(state_eigenvalues: np.ndarray, energies: np.ndarray) -> float:
    return float(np.sort(state_eigenvalues)[::-1] @ np.sort(energies))


def ergotropy(rho: DensityMatrix, h: Hamiltonian) -> float:
    """Maximum work extractable by unitary, cyclic operations:
    tr{H (rho - P_rho)}."""
    if h.dim != rho.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, Hamiltonian {h.dim}")
    return average_energy(rho, h) - _passive_energy(rho.eigenvalues(), h.eigenvalues)


def ergotropy_double_sum(rho: DensityMatrix, h: Hamiltonian) -> float:
    """Equivalent double-sum form
    sum_ij r_j eps_i (|<r_j|eps_i>|^2 - delta_ij)
    with populations r descending and energies eps ascending."""
    r, u = np.linalg.eigh(rho.matrix)
    order = np.argsort(r)[::-1]
    r, u = r[order], u[:, order]
    e = h.eigenvalues
    v = h.eigenvectors
    overlaps = np.abs(dagger(v) @ u) ** 2  # overlaps[i, j] = |<eps_i|r_j>|^2
    return float(np.einsum("j,i,ij->", r, e, overlaps) - r @ e)


def _thermal_entropy_energy(energies: list[float], beta: float) -> tuple[float, float]:
    """Entropy and mean energy of exp(-beta H)/Z from the levels of H, on
    Python floats; populations below 1e-12 contribute no entropy."""
    e_min = min(energies)
    w = [math.exp(-beta * (e - e_min)) for e in energies]
    z = sum(w)
    entropy = 0.0
    energy = 0.0
    for w_i, e in zip(w, energies):
        p = w_i / z
        if p >= ENTROPY_CUTOFF:
            entropy -= p * math.log(p)
        energy += p * e
    return entropy, energy


def _thermal_entropy(gaps: list[float], beta: float) -> float:
    """The entropy of _thermal_entropy_energy, by the same arithmetic, from
    the precomputed gaps e - min(e)."""
    w = [math.exp(-beta * g) for g in gaps]
    z = sum(w)
    entropy = 0.0
    for w_i in w:
        p = w_i / z
        if p >= ENTROPY_CUTOFF:
            entropy -= p * math.log(p)
    return entropy


@lru_cache(maxsize=1)
def _entropy_matched_beta(levels: tuple[float, ...], target: float) -> float:
    """beta* with S(thermal(beta*)) = ``target`` for the energy ``levels``, by
    bisection with bracket auto-expansion (upper bound doubled until the
    entropy falls below the target, capped at 1e6).

    The cache holds the last solve only: callers that evaluate one state
    several times in a row (the sweep's relation checks) solve once, and
    nothing is carried across states.
    """
    e_min = min(levels)
    gaps = [level - e_min for level in levels]
    lo, hi = 0.0, 50.0 * len(levels) / (max(levels) - e_min)
    while hi < BETA_CAP and _thermal_entropy(gaps, hi) > target:
        hi = min(hi * 2.0, BETA_CAP)
    beta_star = hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        s_mid = _thermal_entropy(gaps, mid)
        beta_star = mid
        if abs(s_mid - target) <= ENTROPY_MATCH_TOL:
            break
        if s_mid > target:
            lo = mid
        else:
            hi = mid
    return beta_star


def bound_ergotropy(rho: DensityMatrix, h: Hamiltonian) -> float:
    """Extra work unlocked by global operations on many copies:
    tr{(P_rho - P_th) H} where P_th is the thermal state with the entropy of
    the passive state, at the beta* of ``_entropy_matched_beta``.
    """
    if h.dim != rho.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, Hamiltonian {h.dim}")
    e = h.eigenvalues
    spread = float(e.max() - e.min())
    state_eigs = rho.eigenvalues()
    passive_e = _passive_energy(state_eigs, e)
    if spread < 1e-12:
        return 0.0
    target = entropy_of_eigenvalues(state_eigs)
    if target > np.log(h.dim) + 1e-9:
        raise ValueError(f"spectrum entropy {target:.12g} exceeds ln(d)")
    if target < ENTROPY_CUTOFF:
        # pure state: the entropy-matched thermal state is the ground projector
        return passive_e - float(e.min())
    levels = e.tolist()
    beta_star = _entropy_matched_beta(tuple(levels), target)
    return passive_e - _thermal_entropy_energy(levels, beta_star)[1]


def local_inverse_temperature(rho_local, h: Hamiltonian):
    """Least-squares line through ln(populations) against -energies in the
    energy eigenbasis, in closed form: beta = -sum (e_i - <e>)(l_i - <l>) /
    sum (e_i - <e>)^2 with l = ln p.  Returns beta, or None when the state is
    not thermal for ``h`` (coherences or fit residual beyond 1e-8, or a
    population that is not positive).  A degenerate spectrum (all levels
    equal, up to the round-off of the eigendecomposition) fits beta = 0, which
    is thermal only for uniform populations.
    """
    m = as_matrix(rho_local)
    if h.dim != m.shape[0]:
        raise ValueError(f"dimension mismatch: state {m.shape[0]}, Hamiltonian {h.dim}")
    v = h.eigenvectors
    in_basis = (dagger(v) @ m @ v).tolist()
    coherence = max(
        (abs(x) for i, row in enumerate(in_basis) for j, x in enumerate(row) if i != j),
        default=0.0,
    )
    if coherence > THERMAL_FIT_TOL:
        return None
    populations = [row[i].real for i, row in enumerate(in_basis)]
    if min(populations) <= 0.0:
        return None
    log_p = [math.log(p) for p in populations]
    energies = h.eigenvalues.tolist()  # ascending
    n = len(energies)
    e_mean = sum(energies) / n
    l_mean = sum(log_p) / n
    lowest, highest = energies[0], energies[-1]
    if highest - lowest <= LEVEL_ROUNDOFF * max(abs(lowest), abs(highest)):
        beta = 0.0
    else:
        # deviations scaled by a power of two near 1/spread, which is exact and
        # keeps their squares from under- or overflowing at any energy scale
        k = math.frexp(highest - lowest)[1]
        de = [math.ldexp(e - e_mean, -k) for e in energies]
        slope = sum(d * (l_mean - l) for d, l in zip(de, log_p)) / sum(d * d for d in de)
        beta = math.ldexp(slope, -k)
    intercept = l_mean + beta * e_mean
    if max(abs(l - (intercept - beta * e)) for l, e in zip(log_p, energies)) > THERMAL_FIT_TOL:
        return None
    return beta


def thermo_report(rho: DensityMatrix, h_b: Hamiltonian, beta: float) -> ThermoReport:
    """Assemble the thermodynamic quantities of a bipartite state at the common
    local inverse temperature ``beta``.  Both partitions carry the local
    Hamiltonian ``h_b``, so H_total = H (x) I + I (x) H."""
    if rho.dims is None:
        raise ValueError("state carries no bipartite dims")
    d_a, d_b = rho.dims
    if h_b.dim != d_a or h_b.dim != d_b:
        raise ValueError("local Hamiltonian dimensions do not match the partition dims")
    h_total = h_b.doubled
    rho_b = partial_trace(rho, "B")
    avg = average_energy(rho_b, h_b)
    f_b = -np.inf if beta == 0 else -log_partition(h_b, beta) / beta
    work = ergotropy(rho, h_total)
    bound = bound_ergotropy(rho, h_total)
    return ThermoReport(
        avg_energy=avg,
        free_energy=f_b,
        ergotropy=work,
        bound_ergotropy=bound,
        global_ergotropy=work + bound,
        beta=beta,
    )
