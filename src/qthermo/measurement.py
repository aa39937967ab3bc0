"""POVM measurements: outcome statistics, information gain, entropy cost, and
the Holevo quantity of a measurement.

Only efficient measurements are supported: one operator per outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix,
    as_matrix,
    dagger,
    marginal_entropy,
    mutual_information,
    spectral_decomposition,
    von_neumann_entropy,
)

COMPLETENESS_TOL = 1e-9
OPERATOR_PSD_TOL = 1e-10
PROB_CUTOFF = 1e-12
DEGENERACY_TOL = 1e-10


class Povm:
    """Ordered measurement operators {M_n} with sum_n M_n^dag M_n = I.

    ``is_local`` marks a POVM built as a tensor product of local
    measurements.  ``degenerate_basis`` flags energy-projective POVMs built
    from an arbitrary eigenbasis of a degenerate spectrum.
    """

    def __init__(self, operators, is_local: bool = False, degenerate_basis: bool = False):
        ops = [as_matrix(m) for m in operators]
        if not ops:
            raise ValueError("a POVM needs at least one operator")
        d = ops[0].shape[0]
        if any(m.shape != (d, d) for m in ops):
            raise ValueError("POVM operators must share a single dimension")
        total = sum(dagger(m) @ m for m in ops)
        dev = float(np.abs(total - np.eye(d)).max())
        if dev > COMPLETENESS_TOL:
            raise ValueError(f"completeness violated: max |sum M^dag M - I| = {dev:.3e}")
        for k, m in enumerate(ops):
            lowest = float(np.linalg.eigvalsh(dagger(m) @ m).min())
            if lowest < -OPERATOR_PSD_TOL:
                raise ValueError(f"operator {k}: M^dag M has eigenvalue {lowest:.3e}")
        self.operators = ops
        self.is_local = is_local
        self.degenerate_basis = degenerate_basis

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def __len__(self) -> int:
        return len(self.operators)

    def is_projective(self, tol: float = 1e-9) -> bool:
        """True when every operator is a Hermitian idempotent."""
        return all(
            np.abs(m - dagger(m)).max() <= tol and np.abs(m @ m - m).max() <= tol
            for m in self.operators
        )


@dataclass
class MeasurementRecord:
    """Outcome statistics of one POVM applied to one state.

    ``post_states`` holds None for outcomes with probability below 1e-12;
    those outcomes are excluded from every entropy average.
    """

    probabilities: np.ndarray
    post_states: list
    pre_state: DensityMatrix
    channel_output: DensityMatrix
    degenerate_basis: bool = False

    def average_post_entropy(self) -> float:
        return sum(
            p * von_neumann_entropy(s)
            for p, s in zip(self.probabilities, self.post_states)
            if s is not None
        )


def measure(rho: DensityMatrix, povm: Povm) -> MeasurementRecord:
    """Apply the POVM: p_n = tr(M_n rho M_n^dag), rho_n = M_n rho M_n^dag / p_n."""
    if povm.dim != rho.dim:
        raise ValueError(f"POVM dimension {povm.dim} != state dimension {rho.dim}")
    unnormalized = [m @ rho.matrix @ dagger(m) for m in povm.operators]
    probs = np.array([float(np.trace(u).real) for u in unnormalized])
    if probs.min() < -PROB_CUTOFF:
        raise ValueError(f"negative outcome probability {probs.min():.3e}")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"outcome probabilities sum to {total:.12g}")
    posts = [
        DensityMatrix(u / p, dims=rho.dims) if p >= PROB_CUTOFF else None
        for u, p in zip(unnormalized, probs)
    ]
    output = DensityMatrix(sum(unnormalized), dims=rho.dims)
    return MeasurementRecord(
        probabilities=probs,
        post_states=posts,
        pre_state=rho,
        channel_output=output,
        degenerate_basis=povm.degenerate_basis,
    )


def information_gain(record: MeasurementRecord) -> float:
    """Entropy reduction S(rho) - sum_n p_n S(rho_n) caused by the measurement (nats)."""
    return von_neumann_entropy(record.pre_state) - record.average_post_entropy()


def entropy_cost(record: MeasurementRecord) -> float:
    """S(M(rho)) - S(rho); nonnegative for projective POVMs, may be negative otherwise."""
    return von_neumann_entropy(record.channel_output) - von_neumann_entropy(record.pre_state)


def holevo_of_measurement(record: MeasurementRecord) -> float:
    """S(M(rho)) - sum_n p_n S(rho_n); equals information gain plus entropy cost."""
    return von_neumann_entropy(record.channel_output) - record.average_post_entropy()


def local_povm(povm_a: Povm, povm_b: Povm) -> Povm:
    """All tensor products M_a (x) M_b, outcome pairs flattened row-major."""
    ops = [np.kron(m_a, m_b) for m_a in povm_a.operators for m_b in povm_b.operators]
    return Povm(ops, is_local=True)


def projective_energy_povm(h, side: str, dims) -> Povm:
    """Rank-one projectors onto the energy eigenbasis of one side, identity on the other.

    ``h`` is the local Hamiltonian of the chosen side.  A degenerate spectrum
    is resolved with an arbitrary orthonormal eigenbasis and flagged.
    """
    d_a, d_b = int(dims[0]), int(dims[1])
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    d_side = d_a if side == "A" else d_b
    h_mat = as_matrix(h)
    if h_mat.shape[0] != d_side:
        raise ValueError(f"Hamiltonian dimension {h_mat.shape[0]} != side dimension {d_side}")
    sd = spectral_decomposition(h_mat)
    gaps = np.diff(sd.eigenvalues)
    degenerate = bool(gaps.size and (np.abs(gaps) < DEGENERACY_TOL).any())
    eye_other = np.eye(d_b if side == "A" else d_a, dtype=complex)
    ops = []
    for k in range(d_side):
        v = sd.eigenvectors[:, k]
        proj = np.outer(v, v.conj())
        ops.append(np.kron(proj, eye_other) if side == "A" else np.kron(eye_other, proj))
    return Povm(ops, is_local=True, degenerate_basis=degenerate)


def local_information_gain(record: MeasurementRecord, side: str) -> float:
    """S(rho_side) - sum_n p_n S(rho_n^side), marginals via the partial trace."""
    avg = sum(
        p * marginal_entropy(s, side)
        for p, s in zip(record.probabilities, record.post_states)
        if s is not None
    )
    return marginal_entropy(record.pre_state, side) - avg


def correlations_lost(record: MeasurementRecord) -> float:
    """Total correlations destroyed by the measurement: I(A:B) - sum_n p_n I_n(A:B).

    Nonnegative for local measurements whose post-measurement states have
    orthogonal supports.
    """
    avg = sum(
        p * mutual_information(s)
        for p, s in zip(record.probabilities, record.post_states)
        if s is not None
    )
    return mutual_information(record.pre_state) - avg
