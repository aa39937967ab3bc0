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
    _eigh,
    _first_failure,
    _kron,
    _read_only,
    _require_hermitian,
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
    is a read-only copy of the input, and both spectral arrays are read-only.

    The constants that the thermodynamic functions derive from the spectrum
    are computed on first use and kept, as floats, tuples of floats or
    read-only arrays, so none can be changed or go stale: ``levels`` (the
    eigenvalues as floats, so ``levels[0]`` is the ground level), ``spread``,
    ``gaps`` (each level minus the ground level), ``log_dim`` = ln d,
    ``eigenvectors_dagger`` = V^dag, the centred, scaled levels and the
    round-off floor of ``local_inverse_temperature``, and the round-off
    bound of the beta it fits (``beta_fit_roundoff``).

    ``eigh`` is for Hamiltonians checked as part of a stack
    (``_checked_hamiltonians``): the caller hands over a freshly computed
    complex matrix it does not keep and its ``(eigenvalues, eigenvectors)``,
    which are then stored read-only as they are, and no check runs."""

    def __init__(self, matrix, *, eigh=None):
        if eigh is None:
            matrix = as_matrix(matrix).copy()
            eigh = _hamiltonian_checks(matrix, 2)
        self.matrix = _read_only(matrix)
        self.eigenvalues = _read_only(eigh[0])
        self.eigenvectors = _read_only(eigh[1])

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def doubled(self) -> "Hamiltonian":
        """H (x) I + I (x) H: two non-interacting copies, built once."""
        eye = np.eye(self.dim)
        return Hamiltonian(_kron(self.matrix, eye) + _kron(eye, self.matrix))

    @cached_property
    def levels(self) -> tuple[float, ...]:
        return tuple(self.eigenvalues.tolist())

    @cached_property
    def spread(self) -> float:
        return self.levels[-1] - self.levels[0]

    @cached_property
    def gaps(self) -> tuple[float, ...]:
        ground = self.levels[0]
        return tuple(level - ground for level in self.levels)

    @cached_property
    def log_dim(self) -> float:
        return float(np.log(self.dim))

    @cached_property
    def eigenvectors_dagger(self) -> np.ndarray:
        return _read_only(dagger(self.eigenvectors))

    @cached_property
    def _fit_levels(self) -> tuple[float, int | None, tuple[float, ...], float]:
        """The mean level and, unless all levels are equal up to the round-off
        of the eigendecomposition (then ``k`` is None), the deviations from it
        scaled by 2^-k with 2^k near the spread, which is exact and keeps
        their squares from under- or overflowing at any energy scale, and the
        sum of those squares."""
        levels = self.levels
        mean = sum(levels) / len(levels)
        lowest, highest = levels[0], levels[-1]
        if highest - lowest <= LEVEL_ROUNDOFF * max(abs(lowest), abs(highest)):
            return mean, None, (), 0.0
        k = math.frexp(highest - lowest)[1]
        de = tuple(math.ldexp(e - mean, -k) for e in levels)
        return mean, k, de, sum(d * d for d in de)

    @cached_property
    def beta_fit_roundoff(self) -> float:
        """How far round-off in the populations alone can move the beta that
        ``local_inverse_temperature`` fits against this spectrum.

        The fit is beta = -sum_i D_i l_i / sum_i D_i^2, with D_i = e_i - <e>
        (so sum_i D_i = 0) and l_i = ln p_i.  A population held as a float
        is known to a relative error eps, which moves l_i by up to eps and so,
        to first order, beta by up to eps sum_i |D_i| / sum_i D_i^2.  For a
        qubit of gap omega, D = +-omega/2 and the bound is 2 eps / omega: 4.4e-7
        at omega = 1e-9, 4.4e-6 at omega = 1e-10, 4.5e307 at the smallest
        subnormal gap.  Zero for a degenerate spectrum, whose fit is beta = 0
        by definition."""
        _, k, de, de_squared = self._fit_levels
        if k is None:
            return 0.0
        return math.ldexp(float(np.finfo(float).eps) * sum(map(abs, de)) / de_squared, -k)

    @cached_property
    def _population_floor(self) -> float:
        """Round-off of a population after the basis change V^dag rho V, per
        unit of max |rho_ij|: 0 when V is a permutation (every entry 0 or of
        modulus 1), whose rotation is exact, else 4 d eps."""
        v = self.eigenvectors
        if ((v == 0.0) | (np.abs(v) == 1.0)).all():
            return 0.0
        return 4 * self.dim * float(np.finfo(float).eps)

    def __repr__(self) -> str:
        return f"Hamiltonian(dim={self.dim})"


def _hamiltonian_checks(m: np.ndarray, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """Hamiltonian's checks of a square complex matrix or, each once, of an
    ``(n, d, d)`` stack (``ndim`` 3): finite, then Hermitian.  Returns the
    eigenvalues and eigenvectors."""
    if not np.logical_and.reduce(np.isfinite(m), None):
        raise ValueError("Hamiltonian has non-finite entries")
    _require_hermitian(m, "H")
    return _eigh(m)


def _checked_hamiltonians(m: np.ndarray) -> list[Hamiltonian]:
    """The Hamiltonians of a freshly computed complex ``(n, d, d)`` stack
    that the caller does not keep, checked and decomposed once as a stack;
    each holds the bits of ``Hamiltonian(m[k])``."""
    eigenvalues, eigenvectors = _first_failure(_hamiltonian_checks, m)
    return [Hamiltonian(one, eigh=(w, v)) for one, w, v in zip(m, eigenvalues, eigenvectors)]


@dataclass(frozen=True)
class ThermoReport:
    """Energetics of a bipartite state whose two partitions share one local
    Hamiltonian H.

    ``avg_energy``, ``free_energy`` and ``log_z`` = ln Z_B refer to partition
    B; the ergotropies are global (total Hamiltonian H (x) I + I (x) H, no
    interaction term).  ``free_energy`` is -inf when beta is 0.
    """

    avg_energy: float
    free_energy: float
    ergotropy: float
    bound_ergotropy: float
    global_ergotropy: float
    beta: float
    log_z: float


def thermal_state(h: Hamiltonian, beta: float) -> DensityMatrix:
    """exp(-beta H)/Z through the spectral decomposition.

    ``beta = inf`` gives the ground-state projector (uniform mixture on a
    degenerate ground space).
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    gaps = h.eigenvalues - h.levels[0]
    if np.isinf(beta):
        ground = (gaps < 1e-12).astype(float)
        p = ground / ground.sum()
    else:
        w = np.exp(-beta * gaps)
        p = w / w.sum()
    return DensityMatrix((h.eigenvectors * p) @ h.eigenvectors_dagger)


def log_partition(h: Hamiltonian, beta: float) -> float:
    """ln Z(beta) = ln sum_i exp(-beta eps_i), computed stably."""
    ground = h.levels[0]
    return float(-beta * ground + np.log(np.exp(-beta * (h.eigenvalues - ground)).sum()))


def average_energy(rho, h: Hamiltonian) -> float:
    return float((h.matrix @ as_matrix(rho)).trace().real)


def passive_state(rho: DensityMatrix, h: Hamiltonian) -> DensityMatrix:
    """Populations of ``rho`` sorted descending onto energy eigenstates sorted
    ascending; commutes with H and shares the spectrum of ``rho``."""
    if h.dim != rho.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, Hamiltonian {h.dim}")
    populations = rho.eigenvalues()[::-1]  # the spectrum is ascending
    return DensityMatrix((h.eigenvectors * populations) @ h.eigenvectors_dagger, dims=rho.dims)


def ergotropy(rho: DensityMatrix, h: Hamiltonian) -> float:
    """Maximum work extractable by unitary, cyclic operations:
    tr{H (rho - P_rho)}, with the passive energy from the descending
    populations against the ascending levels."""
    if h.dim != rho.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, Hamiltonian {h.dim}")
    return average_energy(rho, h) - float(rho.eigenvalues()[::-1] @ h.eigenvalues)


def ergotropy_double_sum(rho: DensityMatrix, h: Hamiltonian) -> float:
    """Equivalent double-sum form
    sum_ij r_j eps_i (|<r_j|eps_i>|^2 - delta_ij)
    with populations r descending and energies eps ascending."""
    r, u = _eigh(rho.matrix)
    order = np.argsort(r)[::-1]
    r, u = r[order], u[:, order]
    e = h.eigenvalues
    overlaps = np.abs(h.eigenvectors_dagger @ u) ** 2  # overlaps[i, j] = |<eps_i|r_j>|^2
    return float(np.einsum("j,i,ij->", r, e, overlaps) - r @ e)


def _thermal_entropy(gaps: tuple[float, ...], beta: float) -> float:
    """Entropy of exp(-beta H)/Z from the gaps e - min(e) of H, on Python
    floats; populations below 1e-12 contribute no entropy."""
    w = [math.exp(-beta * g) for g in gaps]
    z = sum(w)
    entropy = 0.0
    for w_i in w:
        p = w_i / z
        if p >= ENTROPY_CUTOFF:
            entropy -= p * math.log(p)
    return entropy


def _entropy_matched_energy(h: Hamiltonian, target: float) -> float:
    """Mean energy of the thermal state of ``h`` whose entropy is ``target``.

    Bisects on beta, with bracket auto-expansion (upper bound doubled until
    the entropy falls below the target, capped at 1e6), stops once
    |S(beta) - target| <= ENTROPY_MATCH_TOL min(1, beta), and evaluates the
    energy there, on Python floats.  At a thermal state dE = dS / beta, so
    both the entropy and, to first order, the energy are then within
    ENTROPY_MATCH_TOL, as long as ENTROPY_MATCH_TOL beta* exceeds the
    round-off of S (beta* above about 4e-6).  Nearer the maximally mixed
    state the rule may never fire, and after 200 steps the energy is as
    accurate as the float target allows: about sqrt(2 Var(H) dS) for a
    round-off dS of S, 1e-8 at dS = 4e-16.

    Every call solves: a state that ``thermo_report`` meets again takes its
    bound ergotropy from ``_global_work`` instead.
    """
    gaps = h.gaps
    lo, hi = 0.0, 50.0 * h.dim / h.spread
    while hi < BETA_CAP and _thermal_entropy(gaps, hi) > target:
        hi = min(hi * 2.0, BETA_CAP)
    for _ in range(200):
        beta = 0.5 * (lo + hi)
        s = _thermal_entropy(gaps, beta)
        if abs(s - target) <= ENTROPY_MATCH_TOL * min(1.0, beta):
            break
        if s > target:
            lo = beta
        else:
            hi = beta
    w = [math.exp(-beta * g) for g in gaps]
    z = sum(w)
    energy = 0.0
    for w_i, e in zip(w, h.levels):
        energy += w_i / z * e
    return energy


def bound_ergotropy(rho: DensityMatrix, h: Hamiltonian) -> float:
    """Extra work unlocked by global operations on many copies:
    tr{(P_rho - P_th) H} where P_th is the thermal state with the entropy of
    the passive state, whose energy ``_entropy_matched_energy`` returns.
    """
    if h.dim != rho.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, Hamiltonian {h.dim}")
    if h.spread < 1e-12:
        return 0.0
    state_eigs = rho.eigenvalues()
    passive_e = float(state_eigs[::-1] @ h.eigenvalues)
    target = entropy_of_eigenvalues(state_eigs)
    if target > h.log_dim + 1e-9:
        raise ValueError(f"spectrum entropy {target:.12g} exceeds ln(d)")
    if target < ENTROPY_CUTOFF:
        # pure state: the entropy-matched thermal state is the ground projector
        return passive_e - h.levels[0]
    return passive_e - _entropy_matched_energy(h, target)


def local_inverse_temperature(rho_local, h: Hamiltonian):
    """Least-squares line through ln(populations) against -energies in the
    energy eigenbasis, in closed form: beta = -sum (e_i - <e>)(l_i - <l>) /
    sum (e_i - <e>)^2 with l = ln p.  Returns beta, or None when the state is
    not thermal for ``h``: coherences or fit residual beyond 1e-8, or a
    population at or below the round-off of the basis change (0 when the
    eigenvectors are a permutation, else 4 d eps max |rho_ij|).  A degenerate
    spectrum (all levels equal, up to the round-off of the eigendecomposition)
    fits beta = 0, which is thermal only for uniform populations.
    """
    m = as_matrix(rho_local)
    if h.dim != m.shape[0]:
        raise ValueError(f"dimension mismatch: state {m.shape[0]}, Hamiltonian {h.dim}")
    return _fitted_beta(h, m.shape, m.tobytes())


# Keyed on the marginal's content, not its object: the two marginals of a
# swap-symmetric state are separate objects with the same bytes, and a sweep
# row fits them 10 times, 9 of them from this memo.  The bytes tell -0.0 from
# 0.0, so a hit returns exactly what the body would.
@lru_cache(maxsize=1)
def _fitted_beta(h: Hamiltonian, shape: tuple[int, int], content: bytes):
    """The body of ``local_inverse_temperature``, on the complex matrix of
    ``shape`` whose C-order bytes are ``content``."""
    m = np.frombuffer(content, dtype=complex).reshape(shape)
    in_basis = (h.eigenvectors_dagger @ m @ h.eigenvectors).tolist()
    coherence = max(
        (abs(x) for i, row in enumerate(in_basis) for j, x in enumerate(row) if i != j),
        default=0.0,
    )
    if coherence > THERMAL_FIT_TOL:
        return None
    populations = [row[i].real for i, row in enumerate(in_basis)]
    floor = h._population_floor and h._population_floor * float(np.abs(m).max())
    if min(populations) <= floor:
        return None
    log_p = [math.log(p) for p in populations]
    energies = h.levels
    e_mean, k, de, de_squared = h._fit_levels
    l_mean = sum(log_p) / len(log_p)
    if k is None:
        beta = 0.0
    else:
        slope = sum(d * (l_mean - l) for d, l in zip(de, log_p)) / de_squared
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
    log_z = log_partition(h_b, beta)
    f_b = -np.inf if beta == 0 else -log_z / beta
    work, bound = _global_work(rho, h_total)
    return ThermoReport(
        avg_energy=avg,
        free_energy=f_b,
        ergotropy=work,
        bound_ergotropy=bound,
        global_ergotropy=work + bound,
        beta=beta,
        log_z=log_z,
    )


# Keyed on the state and Hamiltonian objects, both immutable and hashed by
# identity (the memo holds a reference to each key, so a cached id cannot be
# reused): a sweep row reports one state 6 times and solves its root once.
@lru_cache(maxsize=1)
def _global_work(rho: DensityMatrix, h_total: Hamiltonian) -> tuple[float, float]:
    """The ergotropy and bound ergotropy of ``rho`` for ``h_total``."""
    return ergotropy(rho, h_total), bound_ergotropy(rho, h_total)
