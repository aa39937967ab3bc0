"""POVM measurements: outcome statistics, information gain, entropy cost, and
the Holevo quantity of a measurement.

Only efficient measurements are supported: one operator per outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix,
    _kron,
    _read_only,
    as_matrix,
    dagger,
    marginal_entropy,
    mutual_information,
    von_neumann_entropy,
)
from .thermo import Hamiltonian

COMPLETENESS_TOL = 1e-9
PROB_CUTOFF = 1e-12


class Povm:
    """Ordered measurement operators {M_n} with sum_n M_n^dag M_n = I to 1e-9
    (each M_n^dag M_n is positive semi-definite by construction).
    ``operators`` is a tuple of read-only copies of the input (views of one
    stacked copy), so the checked completeness cannot change afterwards.
    Construction rejects non-finite entries, then an empty list, then
    operators of different dimensions, then a completeness deviation beyond
    1e-9."""

    def __init__(self, operators):
        mats = [as_matrix(m) for m in operators]
        if not mats:
            raise ValueError("a POVM needs at least one operator")
        d = mats[0].shape[0]
        same_shape = all(m.shape == (d, d) for m in mats)
        if same_shape:
            stack = np.array(mats)
            finite = np.isfinite(stack).all()
        else:
            # mixed shapes do not stack; a non-finite entry is still reported first
            finite = all(np.isfinite(m).all() for m in mats)
        if not finite:
            raise ValueError("POVM operators have non-finite entries")
        if not same_shape:
            raise ValueError("POVM operators must share a single dimension")
        # sum_n M_n^dag M_n as one product of the operators stacked row-wise,
        # minus I in place
        rows = stack.reshape(-1, d)
        deviation = rows.conj().T @ rows
        deviation.reshape(-1)[:: d + 1] -= 1.0
        dev = float(np.abs(deviation).max())
        if dev > COMPLETENESS_TOL:
            raise ValueError(f"completeness violated: max |sum M^dag M - I| = {dev:.3e}")
        self.operators = tuple(_read_only(stack))

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def __len__(self) -> int:
        return len(self.operators)


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

    def average(self, f) -> float:
        """Outcome-weighted average sum_n p_n f(rho_n) over the outcomes that
        have a post-measurement state."""
        return sum(
            p * f(s) for p, s in zip(self.probabilities, self.post_states) if s is not None
        )

    def average_post_entropy(self) -> float:
        return self.average(von_neumann_entropy)


def measure(rho: DensityMatrix, povm: Povm) -> MeasurementRecord:
    """Apply the POVM: p_n = tr(M_n rho M_n^dag), rho_n = M_n rho M_n^dag / p_n."""
    if povm.dim != rho.dim:
        raise ValueError(f"POVM dimension {povm.dim} != state dimension {rho.dim}")
    unnormalized = [m @ rho.matrix @ dagger(m) for m in povm.operators]
    probs = np.array([float(u.trace().real) for u in unnormalized])
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
    return Povm(ops)


def projective_energy_povm(h: Hamiltonian, dims) -> Povm:
    """The local energy measurement on B: I_A (x) |e_k><e_k| over the
    eigenvectors e_k of B's Hamiltonian ``h``, in ascending energy order.

    A degenerate eigenspace is resolved with an arbitrary orthonormal basis.
    """
    d_a, d_b = int(dims[0]), int(dims[1])
    if h.dim != d_b:
        raise ValueError(f"Hamiltonian dimension {h.dim} != dimension {d_b} of B")
    eye_a = np.eye(d_a, dtype=complex)
    vecs = h.eigenvectors
    return Povm([_kron(eye_a, np.outer(vecs[:, k], vecs[:, k].conj())) for k in range(d_b)])


def local_information_gain(record: MeasurementRecord, side: str) -> float:
    """S(rho_side) - sum_n p_n S(rho_n^side), marginals via the partial trace."""
    avg = record.average(lambda s: marginal_entropy(s, side))
    return marginal_entropy(record.pre_state, side) - avg


def correlations_lost(record: MeasurementRecord) -> float:
    """Total correlations destroyed by the measurement: I(A:B) - sum_n p_n I_n(A:B).

    Nonnegative for local measurements whose post-measurement states have
    orthogonal supports.
    """
    return mutual_information(record.pre_state) - record.average(mutual_information)
