"""Dense linear algebra and entropy primitives for small quantum systems.

Operators are numpy complex arrays (row-major); every dimension handled by
this package is tiny (<= 16), so all routines are dense and eigendecomposition
based.  Entropies are natural-log (nats) throughout.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-9
ENTROPY_CUTOFF = 1e-12
RANK_CUTOFF = 1e-10
BASIS_TOL = 1e-9
_ON_FIRST_READ = object()  # the spectrum argument of a marginal's DensityMatrix
_NAN_SPECTRUM = "NaN eigenvalue in the spectrum: the entropy is undefined"

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def as_matrix(obj) -> np.ndarray:
    """Return the underlying complex square matrix of an operator-like object."""
    m = obj.matrix if hasattr(obj, "matrix") else obj
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m.T)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a finite Hermitian positive semi-definite matrix from
    ``_eigh``, with negative round-off eigenvalues clipped to zero."""
    w, v = _eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 2-D arrays as one broadcasted outer product: the same
    elementwise products, without np.kron's shape bookkeeping."""
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a finite Hermitian complex matrix, or one row
    of them per matrix of an ``(n, d, d)`` stack.

    The LAPACK gufunc behind ``np.linalg.eigvalsh`` (private ``_umath_linalg``,
    numpy >= 2) without the wrapper's dispatch: the same bits at under half the
    cost.  ``_eigh``, ``_qr``, ``_real_svd`` and ``_singular_values`` do the
    same, for finite inputs only.  A failed solve sets the invalid flag, which
    the caller's ``np.errstate`` handles (by default a warning) before LinAlgError.
    """
    w = _umath_linalg.eigvalsh_lo(m, signature="D->d")
    lowest = w[0] if w.ndim == 1 else w[:, 0].min()  # min propagates a NaN
    if math.isnan(lowest):
        raise LinAlgError("Eigenvalues did not converge")
    return w


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a finite Hermitian complex matrix (lower triangle)."""
    w, v = _umath_linalg.eigh_lo(m, signature="D->dD")
    if math.isnan(w[0]):
        raise LinAlgError("Eigenvalues did not converge")
    return w, v


def _singular_values(m: np.ndarray) -> np.ndarray:
    """``np.linalg.svd`` of a finite complex matrix with ``compute_uv=False``."""
    s = _umath_linalg.svd(m, signature="D->d")
    if math.isnan(s[0]):
        raise LinAlgError("SVD did not converge")
    return s


def _real_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.linalg.svd`` of a finite real matrix: square u, s descending, vh."""
    u, s, vh = _umath_linalg.svd_f(m, signature="d->ddd")
    if math.isnan(s[0]):
        raise LinAlgError("SVD did not converge")
    return u, s, vh


def _qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q and R's diagonal of ``np.linalg.qr`` of a finite square ``a``, overwriting ``a``."""
    tau = _umath_linalg.qr_r_raw(a, signature="D->D")
    return _umath_linalg.qr_reduced(a, tau, signature="DD->D"), a.diagonal()


def _require_hermitian(m: np.ndarray, symbol: str) -> None:
    """Raise ValueError unless the finite square complex ``m`` is Hermitian
    to HERMITICITY_TOL, naming it ``symbol`` in the message.

    max |m - m^dag| is taken as twice max |m/2 - (m/2)^dag|: the halves'
    difference cannot overflow, so no np.errstate is needed, and doubling the
    Python float gives inf, silently, where the full difference overflows.
    Halving and doubling are exact above the subnormal range, so the value
    is that of the plain difference wherever it can exceed the tolerance.
    """
    half = 0.5 * m
    herm = 2.0 * float(np.abs(half - half.conj().T).max())
    if herm > HERMITICITY_TOL:
        raise ValueError(f"not Hermitian: max |{symbol} - {symbol}^dag| = {herm:.3e}")


def _read_only(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


class DensityMatrix:
    """Positive semi-definite, unit-trace operator with an optional bipartite split.

    ``dims = (d_A, d_B)``, two positive integers, labels the tensor factors;
    marginals and local measurements require it.  Construction rejects
    non-finite entries, then a non-square shape, then validates hermiticity
    (1e-10), unit trace (1e-10), positivity (smallest eigenvalue >= -1e-9)
    and ``dims``, in that order.  ``matrix`` is a read-only copy of the
    input, so the validated state and the spectrum kept from the positivity
    check cannot change afterwards.

    ``spectrum`` is for states the library derives from validated inputs
    (marginals, post-measurement states, channel outputs, analytic steady
    states): the caller hands over a freshly computed complex matrix it does
    not keep, its ascending spectrum and ``dims`` in normal form.  Both
    arrays are then stored read-only as they are, and no check runs.  A
    marginal passes ``_ON_FIRST_READ``: its spectrum, seldom read, is taken
    on first read, once, and kept read-only.
    """

    def __init__(self, matrix, dims=None, *, spectrum=None):
        if spectrum is not None:
            self.matrix = _read_only(matrix)
            self.dims = dims
            if spectrum is not _ON_FIRST_READ:
                self._spectrum = _read_only(spectrum)
            return
        m = np.array(matrix, dtype=complex)
        if not np.isfinite(m).all():
            raise ValueError("density matrix has non-finite entries")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        _require_hermitian(m, "rho")
        tr = sum(m.diagonal().tolist())
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr.real:.12g} differs from 1 beyond {TRACE_TOL}")
        spectrum = _spectrum(m)
        lowest = float(spectrum[0])  # ascending
        if lowest < -POSITIVITY_TOL:
            raise ValueError(f"negative eigenvalue {lowest:.3e} below -{POSITIVITY_TOL:g}")
        if dims is not None:
            if not (
                isinstance(dims, (tuple, list))
                and len(dims) == 2
                and all(
                    isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d > 0
                    for d in dims
                )
            ):
                raise ValueError(f"dims must be two positive integers, got {dims!r}")
            d_a, d_b = int(dims[0]), int(dims[1])
            if d_a * d_b != m.shape[0]:
                raise ValueError(f"dims {dims!r} incompatible with dimension {m.shape[0]}")
            dims = (d_a, d_b)
        self.matrix = _read_only(m)
        self.dims = dims
        self._spectrum = _read_only(spectrum)

    @cached_property
    def _spectrum(self) -> np.ndarray:  # a marginal's, from the module function
        return _read_only(_spectrum(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """The ascending spectrum, as a writable copy."""
        return self._spectrum.copy()

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim}, dims={self.dims})"


def pure_state(vector, dims=None) -> DensityMatrix:
    """|psi><psi| for a (normalized on entry, up to 1e-8) state vector."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"state vector norm {norm:.12g} is not 1")
    v = v / norm
    return DensityMatrix(np.outer(v, v.conj()), dims=dims)


_NO_DIMS = "state carries no bipartite dims; cannot take a marginal"


def _partial_trace(matrix: np.ndarray, dims, keep: str) -> np.ndarray:
    """The marginal of a matrix, or of each matrix of an ``(n, d, d)`` stack."""
    d_a, d_b = dims
    split = (d_a, d_b, d_a, d_b)
    r = matrix.reshape(split if matrix.ndim == 2 else (-1, *split))
    if keep == "A":
        return np.einsum("...ibjb->...ij", r)
    if keep == "B":
        return np.einsum("...aiaj->...ij", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Marginal state on subsystem ``keep`` ("A" or "B") of a bipartite state."""
    if rho.dims is None:
        raise ValueError(_NO_DIMS)
    return DensityMatrix(_partial_trace(rho.matrix, rho.dims, keep), spectrum=_ON_FIRST_READ)


def entropy_of_eigenvalues(values) -> float:
    """Shannon entropy (nats) of a spectrum; values below 1e-12 contribute zero.

    Values in [-1e-9, 0) are treated as integration round-off and clamped;
    anything more negative is an error, and so is a NaN anywhere.
    """
    w = np.asarray(values, dtype=float).ravel().tolist()
    lowest = min(w) if w else 0.0
    if lowest < -POSITIVITY_TOL:
        if any(map(math.isnan, w)):
            raise ValueError(_NAN_SPECTRUM)
        raise ValueError(f"eigenvalue {lowest:.3e} too negative for an entropy")
    # a NaN is not below the cutoff, so it is kept and makes the sum NaN
    kept = [p for p in w if not p < ENTROPY_CUTOFF]
    if not kept:
        return 0.0
    # np.log: its bits do not depend on the array's length; math.log's differ
    entropy = -_add_reduce([p * log_p for p, log_p in zip(kept, np.log(kept).tolist())])
    if entropy != entropy:
        raise ValueError(_NAN_SPECTRUM)
    return entropy


def _add_reduce(terms: list) -> float:
    """The bits of ``np.add.reduce`` over the float64 ``terms``: 0.0 plus
    numpy's pairwise sum, which below 8 terms is a left fold from -0.0, done
    here on Python floats; from 8 terms on numpy sums them itself."""
    if len(terms) >= 8:
        return 0.0 + float(np.add.reduce(np.array(terms)))
    total = -0.0
    for term in terms:
        total += term
    return 0.0 + total


def von_neumann_entropy(rho) -> float:
    """S(rho) = -tr(rho ln rho) in nats."""
    if isinstance(rho, DensityMatrix):
        return entropy_of_eigenvalues(rho._spectrum)
    return entropy_of_eigenvalues(np.linalg.eigvalsh(as_matrix(rho)))


def marginal_entropy(rho: DensityMatrix, side: str) -> float:
    """S(rho_side) in nats, from the raw partial trace (the marginal is not
    re-validated as a DensityMatrix)."""
    if rho.dims is None:
        raise ValueError(_NO_DIMS)
    return entropy_of_eigenvalues(_spectrum(_partial_trace(rho.matrix, rho.dims, side)))


def _marginal_entropies(matrices: np.ndarray, dims, side: str) -> list[float]:
    """``marginal_entropy`` of each matrix of an ``(n, d, d)`` stack of
    states on the split ``dims``: one partial trace and one spectrum call."""
    if dims is None:
        raise ValueError(_NO_DIMS)
    return [entropy_of_eigenvalues(w) for w in _spectrum(_partial_trace(matrices, dims, side))]


def mutual_information(rho: DensityMatrix) -> float:
    """I(A:B) = S(rho_A) + S(rho_B) - S(rho_AB) in nats."""
    return marginal_entropy(rho, "A") + marginal_entropy(rho, "B") - von_neumann_entropy(rho)


def purify(rho: DensityMatrix) -> np.ndarray:
    """Pure state on (system (x) ancilla) whose system marginal is ``rho``.

    The ancilla dimension equals the rank of ``rho`` (eigenvalues above 1e-10)
    and the Schmidt weights come out sorted descending.  The returned vector is
    flattened row-major with the system index major, so ``v.reshape(d, r)``
    recovers the Schmidt matrix.
    """
    m = as_matrix(rho)
    if not np.isfinite(m).all():  # _eigh takes finite inputs only
        raise LinAlgError("Eigenvalues did not converge")
    w, v = _eigh(m)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    keep = w > RANK_CUTOFF
    w, v = w[keep], v[:, keep]
    return (v * np.sqrt(w)).reshape(-1)


def trace_distance(a, b) -> float:
    """(1/2) sum |eigenvalues(a - b)|; the standard distinguishability metric."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(ma - mb)).sum())


def relative_entropy_of_coherence(rho, basis) -> float:
    """S(rho_diag) - S(rho) in nats, with the diagonal taken in the
    orthonormal ``basis`` (basis vectors as columns)."""
    m = as_matrix(rho)
    b = np.asarray(basis, dtype=complex)
    if b.shape != m.shape:
        raise ValueError(f"basis shape {b.shape} does not match operator {m.shape}")
    dev = float(np.abs(dagger(b) @ b - np.eye(b.shape[0])).max())
    if dev > BASIS_TOL:
        raise ValueError(f"basis not orthonormal: max |B^dag B - I| = {dev:.3e}")
    populations = np.diag(dagger(b) @ m @ b)
    return von_neumann_entropy((b * populations) @ dagger(b)) - von_neumann_entropy(m)
