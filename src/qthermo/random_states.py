"""Seeded random states, Hamiltonians, and POVMs for the property suites."""

from __future__ import annotations

import numpy as np

from .core import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    _checked_states,
    _eigh,
    _psd_sqrt,
    _qr,
    _read_only,
    dagger,
)
from .measurement import Povm, _product_povm
from .thermo import Hamiltonian, _checked_hamiltonians

# the one operator of the trivial measurement on a qubit
_QUBIT_IDENTITY = (_read_only(np.eye(2, dtype=complex)),)


def _ginibre(rng, rows, cols, count=None) -> np.ndarray:
    """A rows x cols complex Gaussian matrix: the real block is drawn first,
    then the imaginary one, and both are written into one complex array.
    The bits are those of re + 1j * im, since 1j * im has real part +-0.0.
    With a ``count``, a ``(count, rows, cols)`` stack of such matrices from
    one standard_normal call, which draws the stream of ``count`` calls."""
    if count is None:
        shape, axes = (rows, cols), (1, 2, 0)
    else:
        shape, axes = (count, rows, cols), (0, 2, 3, 1)
    g = np.empty(shape, dtype=complex)
    parts = g.view(float).reshape(*shape, 2)
    parts[...] = rng.standard_normal((*shape[:-2], 2, rows, cols)).transpose(axes)
    return g


def _haar(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from the QR of Ginibre draws, one ``(d, d)`` draw or an
    ``(n, d, d)`` stack (Mezzadri, Notices AMS 54, 592 (2007)), with the
    phases of R's diagonal divided out of Q's columns.  Overwrites ``g``."""
    q, r_diagonal = _qr(g)
    return q * (r_diagonal / np.abs(r_diagonal)).conj()[..., None, :]


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar unitary of dimension ``dim`` from one Ginibre draw."""
    return _haar(_ginibre(rng, dim, dim))


def _states(g: np.ndarray, dims=None) -> list[DensityMatrix]:
    """The states G G^dag / tr(G G^dag) of an ``(n, d, r)`` stack of
    Ginibre draws G, built and checked as one stack."""
    m = g @ g.conj().mT
    m /= m.trace(0, 1, 2).real[:, None, None]
    return _checked_states(m, dims)


def random_density_matrix(dim: int, rng, rank: int | None = None, dims=None) -> DensityMatrix:
    """G G^dag / tr(G G^dag) with a Ginibre G of the requested rank."""
    return _states(_ginibre(rng, dim, rank or dim, 1), dims)[0]


def random_two_qubit_state(rng) -> DensityMatrix:
    return random_density_matrix(4, rng, dims=(2, 2))


def _rank2_two_qubits(rng, n: int) -> list[DensityMatrix]:
    """n draws of random_rank2_two_qubit, each a 4x4 Ginibre block and then
    a weight w, built and checked as one stack."""
    blocks, weights = np.empty((n, 4, 4), dtype=complex), np.empty(n)
    for k in range(n):
        blocks[k] = _ginibre(rng, 4, 4)
        weights[k] = rng.uniform(0.1, 0.9)
    u = _haar(blocks)
    w = weights[:, None, None]
    first = u[:, :, 0, None] * u[:, None, :, 0].conj()
    second = u[:, :, 1, None] * u[:, None, :, 1].conj()
    return _checked_states(w * first + (1.0 - w) * second, (2, 2))


def random_rank2_two_qubit(rng) -> DensityMatrix:
    """w |u_0><u_0| + (1 - w) |u_1><u_1|, a mixture of two columns of a Haar
    unitary (two random orthonormal pure states) with w uniform in
    [0.1, 0.9], so the rank stays numerically clean."""
    return _rank2_two_qubits(rng, 1)[0]


def _hamiltonians(g: np.ndarray) -> list[Hamiltonian]:
    """The Hamiltonians (G + G^dag) / 2 of an ``(n, d, d)`` stack of Ginibre
    draws G, built, checked and decomposed as one stack."""
    return _checked_hamiltonians(0.5 * (g + g.conj().mT))


def random_hamiltonian(dim: int, rng) -> Hamiltonian:
    return _hamiltonians(_ginibre(rng, dim, dim, 1))[0]


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
