"""POVM measurements: outcome statistics, information gain, entropy cost, and
the Holevo quantity of a measurement.

Only efficient measurements are supported: one operator per outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import (
    DensityMatrix,
    _add_reduce,
    _kron,
    _marginal_entropies,
    _partial_trace,
    _read_only,
    _spectrum,
    as_matrix,
    von_neumann_entropy,
)
from .thermo import Hamiltonian

COMPLETENESS_TOL = 1e-9
PROB_CUTOFF = 1e-12
LOCAL_FORM_TOL = 1e-9


class Povm:
    """Ordered measurement operators {M_n} with sum_n M_n^dag M_n = I to 1e-9
    (each M_n^dag M_n is positive semi-definite by construction).
    ``operators`` is a tuple of read-only copies of the input (views of one
    stacked copy), so the checked completeness cannot change afterwards.
    Construction rejects non-finite entries, then an empty list, then
    operators of different dimensions, then a completeness deviation beyond
    1e-9.  The stack and its conjugate transposes (``_stack``, ``_dagger``,
    both read-only) feed ``measure``.  Whether the operators act on B
    alone is worked out once per bipartite split
    (``_first_nonlocal_operator``)."""

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
        self._stack = _read_only(stack)
        # each M_n^dag with the layout of dagger(M_n): a transposed view, conjugated
        self._dagger = _read_only(np.conj(stack.transpose(0, 2, 1)))
        self.operators = tuple(self._stack)
        self._nonlocal_by_dims = {}

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def _first_nonlocal_operator(self, dims: tuple[int, int]) -> int | None:
        """Index of the first operator that is not I_A (x) K, to 1e-9, on the
        split ``dims = (d_A, d_B)``, or None when all are.  The verdict is
        kept per split: the operators are read-only."""
        if dims not in self._nonlocal_by_dims:
            d_a = dims[0]
            first = None
            for k, m in enumerate(self.operators):
                local = _partial_trace(m, dims, "B") / d_a
                if np.abs(m - _kron(np.eye(d_a), local)).max() > LOCAL_FORM_TOL:
                    first = k
                    break
            self._nonlocal_by_dims[dims] = first
        return self._nonlocal_by_dims[dims]

    def __len__(self) -> int:
        return len(self.operators)


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome statistics of one POVM applied to one state.

    ``probabilities`` is read-only, and ``post_states`` is a tuple that holds
    None for outcomes with probability below 1e-12; those outcomes are
    excluded from every entropy average.  The entropies derived from the
    record (the marginal entropies per side, the average post-measurement
    entropy and the information gain) are kept once worked out
    (``_entropies``); every record that ``measure`` makes of one (state,
    POVM) pair shares that one dict, so the record is frozen and its arrays
    read-only: no record can change what the others read.
    """

    probabilities: np.ndarray
    post_states: tuple
    pre_state: DensityMatrix
    channel_output: DensityMatrix
    _entropies: dict = field(default_factory=dict, repr=False, compare=False)

    def average(self, f) -> float:
        """Outcome-weighted average sum_n p_n f(rho_n) over the outcomes that
        have a post-measurement state."""
        return sum(
            p * f(s) for p, s in zip(self.probabilities, self.post_states) if s is not None
        )

    def average_post_entropy(self) -> float:
        if "post" not in self._entropies:
            self._entropies["post"] = self.average(von_neumann_entropy)
        return self._entropies["post"]

    def _marginal_entropies(self, side: str) -> tuple[float, list]:
        """S(rho_side) of the pre-state, and of each outcome's post-state
        (None where dropped).  Worked out per side on first use, with one
        partial trace and one spectrum call, and kept."""
        if side not in self._entropies:
            kept = [s.matrix for s in self.post_states if s is not None]
            matrices = np.array([self.pre_state.matrix, *kept])
            self._entropies[side] = _marginal_entropies(matrices, self.pre_state.dims, side)
        pre, *kept = self._entropies[side]
        kept = iter(kept)
        return pre, [None if s is None else next(kept) for s in self.post_states]


def measure(rho: DensityMatrix, povm: Povm) -> MeasurementRecord:
    """Apply the POVM: p_n = tr(M_n rho M_n^dag), rho_n = M_n rho M_n^dag / p_n.

    Raises on a dimension mismatch, a probability below -1e-12, or
    probabilities that do not sum to 1 within 1e-9, checked in that order.
    The post-measurement states and the channel output derive from validated
    inputs: no re-validation, and one spectrum call for all of them.  Each
    call returns a new record with new post-state and channel-output objects;
    the outcomes behind them are worked out once per (state, POVM) pair
    (``_outcomes``).
    """
    probs, kept, rows, derived = _outcomes(rho, povm)
    made = (DensityMatrix(m, rho.dims, spectrum=w) for m, w in rows)
    posts = tuple(next(made) if keep else None for keep in kept)
    return MeasurementRecord(probs, posts, rho, next(made), derived)


# Keyed on the state and POVM objects, both immutable and hashed by identity
# (the memo holds a reference to each key, so a cached id cannot be reused): a
# sweep row measures one state 7 times with one POVM.  An invalid pair raises,
# and nothing is cached for it.
@lru_cache(maxsize=1)
def _outcomes(rho: DensityMatrix, povm: Povm):
    """The checks and arithmetic of ``measure``: the read-only probabilities,
    which outcomes keep a post-state, one (matrix, spectrum) pair per kept
    post-state and then the channel output's, all read-only, and the dict of
    derived entropies that the records of this pair share."""
    if povm.dim != rho.dim:
        raise ValueError(f"POVM dimension {povm.dim} != state dimension {rho.dim}")
    products = povm._stack @ rho.matrix @ povm._dagger
    raw = products.trace(axis1=1, axis2=2).real
    if min(raw.tolist()) < -PROB_CUTOFF:  # raw.min(): finite products have no NaN
        raise ValueError(f"negative outcome probability {raw.min():.3e}")
    probs = np.maximum(raw, 0.0)  # np.clip(raw, 0.0, None)
    if abs(_add_reduce(probs.tolist()) - 1.0) > 1e-9:  # probs.sum(), on Python floats
        raise ValueError(f"outcome probabilities sum to {probs.sum():.12g}")
    kept = probs >= PROB_CUTOFF
    # the kept post-states, then the channel output: Python's sum(products) from 0.0
    rows = np.empty((np.count_nonzero(kept) + 1, rho.dim, rho.dim), dtype=complex)
    np.divide(products[kept], probs[kept][:, None, None], out=rows[:-1])
    np.add.reduce(products, axis=0, initial=0.0, out=rows[-1])  # a -0.0 entry becomes 0.0
    _read_only(rows)
    spectra = _read_only(_spectrum(rows))
    return _read_only(probs), tuple(kept.tolist()), tuple(zip(rows, spectra)), {}


def information_gain(record: MeasurementRecord) -> float:
    """Entropy reduction S(rho) - sum_n p_n S(rho_n) caused by the measurement
    (nats), worked out once per record (or per pair, for ``measure``'s records)."""
    if "gain" not in record._entropies:
        pre = von_neumann_entropy(record.pre_state)
        record._entropies["gain"] = pre - record.average_post_entropy()
    return record._entropies["gain"]


def entropy_cost(record: MeasurementRecord) -> float:
    """S(M(rho)) - S(rho); nonnegative for projective POVMs, may be negative otherwise."""
    return von_neumann_entropy(record.channel_output) - von_neumann_entropy(record.pre_state)


def holevo_of_measurement(record: MeasurementRecord) -> float:
    """S(M(rho)) - sum_n p_n S(rho_n); equals information gain plus entropy cost."""
    return von_neumann_entropy(record.channel_output) - record.average_post_entropy()


def local_povm(povm_a: Povm, povm_b: Povm) -> Povm:
    """All tensor products M_a (x) M_b, outcome pairs flattened row-major."""
    return _product_povm(povm_a.operators, povm_b.operators)


def _product_povm(ops_a, ops_b) -> Povm:
    """``local_povm`` of two lists of operators: only the product is
    validated, not the factors."""
    return Povm([_kron(m_a, m_b) for m_a in ops_a for m_b in ops_b])


def projective_energy_povm(h: Hamiltonian, dims) -> Povm:
    """The local energy measurement on B: I_A (x) |e_k><e_k| over the
    eigenvectors e_k of B's Hamiltonian ``h``, in ascending energy order.

    A degenerate eigenspace is resolved with an arbitrary orthonormal basis.
    The POVM is built and validated once per ``(h, d_A)`` and then shared.
    """
    d_a, d_b = int(dims[0]), int(dims[1])
    if h.dim != d_b:
        raise ValueError(f"Hamiltonian dimension {h.dim} != dimension {d_b} of B")
    return _energy_povm(h, d_a)


# Hamiltonian is immutable and hashed by identity; the cache holds a reference
# to each key, so a cached id cannot be reused by a new Hamiltonian
@lru_cache(maxsize=4)
def _energy_povm(h: Hamiltonian, d_a: int) -> Povm:
    eye_a = np.eye(d_a, dtype=complex)
    vecs = h.eigenvectors
    return Povm([_kron(eye_a, np.outer(vecs[:, k], vecs[:, k].conj())) for k in range(h.dim)])


def local_information_gain(record: MeasurementRecord, side: str) -> float:
    """S(rho_side) - sum_n p_n S(rho_n^side), marginals via the partial trace
    (taken once per side and record)."""
    pre, post = record._marginal_entropies(side)
    return pre - sum(p * s for p, s in zip(record.probabilities, post) if s is not None)


def correlations_lost(record: MeasurementRecord) -> float:
    """Total correlations destroyed by the measurement: I(A:B) - sum_n p_n I_n(A:B),
    with I = S_A + S_B - S.

    Nonnegative for local measurements whose post-measurement states have
    orthogonal supports.
    """
    pre_a, post_a = record._marginal_entropies("A")
    pre_b, post_b = record._marginal_entropies("B")
    lost = sum(
        p * (s_a + s_b - von_neumann_entropy(s))
        for p, s_a, s_b, s in zip(record.probabilities, post_a, post_b, record.post_states)
        if s is not None
    )
    return pre_a + pre_b - von_neumann_entropy(record.pre_state) - lost
