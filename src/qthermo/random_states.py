"""Seeded random states, Hamiltonians, and POVMs for the property suites."""

from __future__ import annotations

import numpy as np

from .core import SIGMA_X, SIGMA_Y, SIGMA_Z, DensityMatrix, _psd_sqrt, dagger
from .measurement import Povm, local_povm
from .thermo import Hamiltonian


def _ginibre(rng, rows, cols) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1.0j * rng.standard_normal((rows, cols))


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary from the QR decomposition of a Ginibre matrix."""
    q, r = np.linalg.qr(_ginibre(rng, dim, dim))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases.conj()


def random_density_matrix(dim: int, rng, rank: int | None = None, dims=None) -> DensityMatrix:
    """G G^dag / tr(G G^dag) with a Ginibre G of the requested rank."""
    g = _ginibre(rng, dim, rank or dim)
    m = g @ dagger(g)
    return DensityMatrix(m / np.trace(m).real, dims=dims)


def random_two_qubit_state(rng) -> DensityMatrix:
    return random_density_matrix(4, rng, dims=(2, 2))


def random_rank2_two_qubit(rng) -> DensityMatrix:
    """Mixture of two random orthonormal pure states with weights in
    [0.1, 0.9], so the rank stays numerically clean."""
    u = random_unitary(4, rng)
    w = rng.uniform(0.1, 0.9)
    m = w * np.outer(u[:, 0], u[:, 0].conj()) + (1.0 - w) * np.outer(u[:, 1], u[:, 1].conj())
    return DensityMatrix(m, dims=(2, 2))


def random_hamiltonian(dim: int, rng) -> Hamiltonian:
    g = _ginibre(rng, dim, dim)
    return Hamiltonian(0.5 * (g + dagger(g)))


def random_x_state(rng) -> DensityMatrix:
    """Random two-qubit X-shape state (diagonal plus anti-diagonal entries).

    The anti-diagonal moduli are drawn uniformly up to 0.95 of the positivity
    radii |rho14| <= sqrt(rho11 rho44), |rho23| <= sqrt(rho22 rho33).
    """
    diag = rng.dirichlet(np.ones(4))
    m = np.diag(diag).astype(complex)
    r14 = rng.uniform(0.0, 0.95) * np.sqrt(diag[0] * diag[3])
    r23 = rng.uniform(0.0, 0.95) * np.sqrt(diag[1] * diag[2])
    m[0, 3] = r14 * np.exp(2.0j * np.pi * rng.uniform())
    m[3, 0] = np.conj(m[0, 3])
    m[1, 2] = r23 * np.exp(2.0j * np.pi * rng.uniform())
    m[2, 1] = np.conj(m[1, 2])
    return DensityMatrix(m, dims=(2, 2))


def random_projective_povm(dim: int, rng) -> Povm:
    """Rank-one projectors onto the columns of a random unitary."""
    u = random_unitary(dim, rng)
    return Povm([np.outer(u[:, k], u[:, k].conj()) for k in range(dim)])


def random_two_outcome_projective(dim: int, rng) -> Povm:
    """{P, I - P} with P projecting onto a random two-dimensional subspace."""
    u = random_unitary(dim, rng)
    p = u[:, :2] @ dagger(u[:, :2])
    return Povm([p, np.eye(dim) - p])


def random_local_projective_povm(rng, side: str | None = None) -> Povm:
    """Product of single-qubit projective measurements on two qubits.

    ``side`` restricts the measurement to one qubit (identity on the other).
    """
    trivial = Povm([np.eye(2, dtype=complex)])
    basis_a = random_projective_povm(2, rng)
    basis_b = random_projective_povm(2, rng)
    if side == "A":
        return local_povm(basis_a, trivial)
    if side == "B":
        return local_povm(trivial, basis_b)
    return local_povm(basis_a, basis_b)


def random_general_povm(dim: int, rng, n_outcomes: int = 3) -> Povm:
    """Efficient POVM with Hermitian PSD operators built from random positive
    blocks normalized through S^{-1/2}."""
    blocks = []
    for _ in range(n_outcomes):
        g = _ginibre(rng, dim, dim)
        blocks.append(g @ dagger(g))
    total = sum(blocks)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v / np.sqrt(w)) @ dagger(v)
    return Povm([_psd_sqrt(inv_sqrt @ b @ inv_sqrt) for b in blocks])


def random_local_general_povm(rng) -> Povm:
    """Product of two independent two-outcome general qubit POVMs."""
    return local_povm(random_general_povm(2, rng, 2), random_general_povm(2, rng, 2))


def random_unsharp_on_b(rng) -> Povm:
    """Identity on A times the square-root two-outcome POVM ((I +/- n.sigma)/2)^{1/2}."""
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    pauli = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    ops = [_psd_sqrt(0.5 * (np.eye(2) + sign * pauli)) for sign in (1.0, -1.0)]
    trivial = Povm([np.eye(2, dtype=complex)])
    return local_povm(trivial, Povm(ops))
