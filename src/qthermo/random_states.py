"""Seeded random states, Hamiltonians, and POVMs for the property suites."""

from __future__ import annotations

import numpy as np

from .core import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    _eigh,
    _psd_sqrt,
    _qr,
    _read_only,
    dagger,
)
from .measurement import Povm, _product_povm
from .thermo import Hamiltonian

# the one operator of the trivial measurement on a qubit
_QUBIT_IDENTITY = (_read_only(np.eye(2, dtype=complex)),)


def _ginibre(rng, rows, cols) -> np.ndarray:
    """A rows x cols complex Gaussian matrix: the real block is drawn first,
    then the imaginary one, and both are written into one complex array.
    The bits are those of re + 1j * im, since 1j * im has real part +-0.0."""
    g = np.empty((rows, cols), dtype=complex)
    parts = g.view(float).reshape(rows, cols, 2)
    parts[...] = rng.standard_normal((2, rows, cols)).transpose(1, 2, 0)
    return g


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar unitary from the QR of a Ginibre draw (Mezzadri, Notices AMS 54, 592
    (2007)), with the phases of R's diagonal divided out of Q's columns."""
    q, r_diagonal = _qr(_ginibre(rng, dim, dim))
    return q * (r_diagonal / np.abs(r_diagonal)).conj()


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
    m = w * (u[:, 0, None] * u[:, 0].conj()) + (1.0 - w) * (u[:, 1, None] * u[:, 1].conj())
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


def _projectors(u: np.ndarray) -> list[np.ndarray]:
    """Rank-one projectors onto the columns of ``u``."""
    return [u[:, k, None] * u[:, k].conj() for k in range(u.shape[1])]


def random_projective_povm(dim: int, rng) -> Povm:
    """Rank-one projectors onto the columns of a random unitary."""
    return Povm(_projectors(random_unitary(dim, rng)))


def random_two_outcome_projective(dim: int, rng) -> Povm:
    """{P, I - P} with P projecting onto a random two-dimensional subspace."""
    u = random_unitary(dim, rng)
    p = u[:, :2] @ dagger(u[:, :2])
    return Povm([p, np.eye(dim) - p])


def random_local_projective_povm(rng, side: str | None = None) -> Povm:
    """Product of single-qubit projective measurements on two qubits.

    ``side`` restricts the measurement to one qubit (identity on the other);
    both bases are drawn either way.
    """
    basis_a = _projectors(random_unitary(2, rng))
    basis_b = _projectors(random_unitary(2, rng))
    if side == "A":
        return _product_povm(basis_a, _QUBIT_IDENTITY)
    if side == "B":
        return _product_povm(_QUBIT_IDENTITY, basis_b)
    return _product_povm(basis_a, basis_b)


def _general_povm_operators(dim: int, rng, n_outcomes: int) -> list[np.ndarray]:
    blocks = [g @ dagger(g) for g in (_ginibre(rng, dim, dim) for _ in range(n_outcomes))]
    total = sum(blocks)
    w, v = _eigh(total)
    inv_sqrt = (v / np.sqrt(w)) @ dagger(v)
    return [_psd_sqrt(inv_sqrt @ b @ inv_sqrt) for b in blocks]


def random_general_povm(dim: int, rng, n_outcomes: int = 3) -> Povm:
    """Efficient POVM with Hermitian PSD operators built from random positive
    blocks normalized through S^{-1/2}."""
    return Povm(_general_povm_operators(dim, rng, n_outcomes))


def random_local_general_povm(rng) -> Povm:
    """Product of two independent two-outcome general qubit POVMs."""
    return _product_povm(_general_povm_operators(2, rng, 2), _general_povm_operators(2, rng, 2))


def random_unsharp_on_b(rng) -> Povm:
    """Identity on A times the square-root two-outcome POVM ((I +/- n.sigma)/2)^{1/2}."""
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    pauli = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    ops = [_psd_sqrt(0.5 * (np.eye(2) + sign * pauli)) for sign in (1.0, -1.0)]
    return _product_povm(_QUBIT_IDENTITY, ops)
