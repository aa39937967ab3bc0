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
    both read-only) feed ``measure_many``.  Whether the operators act on B
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


class _Stack:
    """The states of one stacked measurement, as rows of one array: the
    ``pairs`` pre-states, then every outcome's post-measurement state of each
    pair in order (zero for a dropped outcome, whose row is never read).
    Their marginal entropies are worked out per side on first use, with one
    partial trace and one spectrum call.  The records share the array and
    point here; the stack holds no reference to them."""

    __slots__ = ("rows", "pairs", "dims", "_entropies")

    def __init__(self, rows: np.ndarray, pairs: int, dims):
        self.rows = rows
        self.pairs = pairs
        self.dims = dims
        self._entropies: dict[str, list[float]] = {}

    def marginal_entropies(self, side: str) -> list[float]:
        if side not in self._entropies:
            self._entropies[side] = _marginal_entropies(self.rows, self.dims, side)
        return self._entropies[side]


@dataclass
class MeasurementRecord:
    """Outcome statistics of one POVM applied to one state.

    ``post_states`` holds None for outcomes with probability below 1e-12;
    those outcomes are excluded from every entropy average.  A record from
    ``measure`` or ``measure_many`` shares its states with the other records
    of its stack (``_stack``), as pair ``_index`` there.
    """

    probabilities: np.ndarray
    post_states: list
    pre_state: DensityMatrix
    channel_output: DensityMatrix
    _stack: _Stack | None = field(default=None, repr=False, compare=False)
    _index: int = field(default=0, repr=False, compare=False)

    def average(self, f) -> float:
        """Outcome-weighted average sum_n p_n f(rho_n) over the outcomes that
        have a post-measurement state."""
        return sum(
            p * f(s) for p, s in zip(self.probabilities, self.post_states) if s is not None
        )

    def average_post_entropy(self) -> float:
        return self.average(von_neumann_entropy)

    def _marginal_entropies(self, side: str) -> tuple[float, list]:
        """S(rho_side) of the pre-state, and of each outcome's post-state
        (None where dropped), read from the record's stack."""
        if self._stack is None:  # a record built by hand: a stack of its own
            zero = np.zeros_like(self.pre_state.matrix)
            post = [zero if s is None else s.matrix for s in self.post_states]
            self._stack = _Stack(np.array([self.pre_state.matrix, *post]), 1, self.pre_state.dims)
        entropies = self._stack.marginal_entropies(side)
        row = self._stack.pairs + self._index * len(self.post_states)  # of outcome 0
        post = [None if s is None else entropies[row + m] for m, s in enumerate(self.post_states)]
        return entropies[self._index], post


def measure(rho: DensityMatrix, povm: Povm) -> MeasurementRecord:
    """Apply the POVM: p_n = tr(M_n rho M_n^dag), rho_n = M_n rho M_n^dag / p_n.
    The one-pair call of ``measure_many``."""
    return _measure_pairs([rho], [povm])[0]


def measure_many(states, povms) -> list[MeasurementRecord]:
    """``measure`` of each (state, POVM) pair, in input order.

    Pairs with the same dimension, outcome count and dims form one stack:
    one M rho M^dag product and one spectrum call for all their
    post-measurement states and channel outputs, with the float operations
    of a single pair.  The pairs are checked in input order, and the first
    that fails raises ``measure``'s error: a dimension mismatch, a
    probability below -1e-12, or probabilities that do not sum to 1 within
    1e-9.
    """
    states, povms = list(states), list(povms)
    if len(states) != len(povms):
        raise ValueError(f"{len(states)} states but {len(povms)} POVMs")
    return _measure_pairs(states, povms)


def _measure_pairs(states: list, povms: list) -> list[MeasurementRecord]:
    groups: dict[tuple, list[int]] = {}
    failed = False
    for i, (rho, povm) in enumerate(zip(states, povms)):
        if povm.dim == rho.dim:
            groups.setdefault((rho.dim, len(povm), rho.dims), []).append(i)
        else:
            failed = True
    # per group: its rows (see _records), the products M rho M^dag, the clipped
    # and the raw probabilities
    measured = []
    for (d, k, _), members in groups.items():
        n = len(members)
        rows = np.zeros((n * (k + 2), d, d), dtype=complex)
        for j, i in enumerate(members):
            rows[j] = states[i].matrix
        products = _products(rows[:n], [povms[i] for i in members])
        raw = products.trace(axis1=2, axis2=3).real
        probs = np.maximum(raw, 0.0)  # np.clip(raw, 0.0, None)
        measured.append((rows, products, probs, raw))
        totals = np.add.reduce(probs, axis=1).tolist()
        failed = failed or raw.min() < -PROB_CUTOFF or any(abs(t - 1.0) > 1e-9 for t in totals)
    if failed:
        _raise_first_failure(states, povms, groups, measured)
    records = [None] * len(states)
    for ((_, _, dims), members), (rows, products, probs, _) in zip(groups.items(), measured):
        group = _records([states[i] for i in members], rows, products, probs, dims)
        for i, record in zip(members, group):
            records[i] = record
    return records


def _raise_first_failure(states, povms, groups, measured):
    """Raise the error of the first pair, in input order, that fails a check."""
    pairs = {}  # pair -> its raw and clipped probabilities
    for members, (_, _, probs, raw) in zip(groups.values(), measured):
        pairs.update((i, (raw[j], probs[j])) for j, i in enumerate(members))
    for i, (rho, povm) in enumerate(zip(states, povms)):
        if i not in pairs:
            raise ValueError(f"POVM dimension {povm.dim} != state dimension {rho.dim}")
        raw, probs = pairs[i]
        if raw.min() < -PROB_CUTOFF:
            raise ValueError(f"negative outcome probability {raw.min():.3e}")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"outcome probabilities sum to {probs.sum():.12g}")


def _products(pre: np.ndarray, povms: list) -> np.ndarray:
    """M_n rho M_n^dag of each pair and outcome, as one (pairs, outcomes, d, d) stack."""
    first = povms[0]
    if all(p is first for p in povms):  # one POVM for all: broadcast it
        ops, dag = first._stack, first._dagger
    else:
        ops = np.array([p._stack for p in povms])
        dag = np.array([p._dagger for p in povms])
    return ops @ pre[:, None] @ dag


def _records(states, rows, products, probs, dims) -> list[MeasurementRecord]:
    """The records of one stack of checked pairs.  ``rows`` holds the n
    pre-states and room for the n k post-measurement states and the n channel
    outputs, which derive from validated inputs: one stacked spectrum and no
    re-validation."""
    n, k, d = products.shape[:3]
    kept = probs >= PROB_CUTOFF
    # M rho M^dag / p for every outcome (zero for a dropped one), then each
    # pair's sum(unnormalized): from 0, over the outcomes in order
    posts = rows[n : n + n * k].reshape(n, k, d, d)
    np.divide(products, probs[:, :, None, None], out=posts, where=kept[:, :, None, None])
    channels = rows[n + n * k :]
    for outcome in range(k):
        channels += products[:, outcome]
    derived = _read_only(rows)[n:]
    spectra = _spectrum(derived)
    stack = _Stack(rows[: n + n * k], n, dims)

    def state(row):
        return DensityMatrix(derived[row], dims, spectrum=spectra[row])

    return [
        MeasurementRecord(
            probabilities=probs[j],
            post_states=[state(j * k + m) if keep else None for m, keep in enumerate(outcomes)],
            pre_state=rho,
            channel_output=state(n * k + j),
            _stack=stack,
            _index=j,
        )
        for j, (rho, outcomes) in enumerate(zip(states, kept.tolist()))
    ]


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
    (taken once per side for the record's whole stack)."""
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
