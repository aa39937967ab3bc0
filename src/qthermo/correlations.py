"""Bipartite correlation measures: mutual information, Holevo quantities,
quantum discord, and entanglement of formation via the purification identity.

The one-way quantities (``chi_A_max`` and with it discord and EoF) are
defined for two-qubit states: the optimization over rank-one projective
measurements on qubit A evaluates the measured branches of B in closed form
from the real Bloch data of the state, by a Riemannian Newton ascent on the
sphere of measurement directions.  A ``SearchGrid`` selects the reference
search instead: the same exact objective on a coarse (theta, phi) grid
followed by pattern-search refinement.  Either result is a lower bound on the
optimum.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    _kron,
    _psd_sqrt,
    _read_only,
    _real_svd,
    _singular_values,
    as_matrix,
    marginal_entropy,
    mutual_information,
)
from .measurement import (
    MeasurementRecord,
    Povm,
    information_gain,
    local_information_gain,
    measure,
    projective_energy_povm,
)

CLAMP_TOL = 1e-6
# The gain split is exact algebra (quantum gain = S_B - I, chi_A cancels) up
# to the two CLAMP_TOL clamps of discord and EoF.
SPLIT_TOL = 2e-6
# sy (x) sy, the spin flip in Wootters' concurrence
SPIN_FLIP = _read_only(_kron(SIGMA_Y, SIGMA_Y))


class PropertyFailure(ValueError):
    """An identity that holds for every valid input is violated beyond its
    tolerance: a fault of the computation, not of the input."""


@dataclass(frozen=True)
class SearchGrid:
    """Resolution of the reference grid search for ``chi_A_max``: coarse grid
    points per angle and the refinement step floor in radians.  Passing one
    selects that search instead of the default Newton ascent."""

    coarse: int = 64
    angle_tol: float = 1e-4

    def __post_init__(self):
        if isinstance(self.coarse, bool) or not isinstance(self.coarse, numbers.Integral):
            raise ValueError(f"coarse must be an integer, got {self.coarse!r}")
        if self.coarse < 1:
            raise ValueError(f"coarse must be at least 1, got {self.coarse}")
        tol = self.angle_tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not (
            math.isfinite(tol) and tol > 0
        ):
            raise ValueError(f"angle_tol must be finite and positive, got {tol!r}")


@dataclass(frozen=True)
class CorrelationBreakdown:
    """Correlation quantities entering the classical/quantum split of the
    information gain under the local energy measurement on B, in nats, and
    ``record``, the energy measurement on B that the split was checked on."""

    mutual_information: float
    chi_B: float
    chi_A_max: float
    discord_A: float
    eof_BC: float
    quantum_gain: float
    record: MeasurementRecord = field(compare=False, repr=False)


def _require_dims(rho: DensityMatrix):
    if rho.dims is None:
        raise ValueError("state carries no bipartite dims")
    return rho.dims


def chi_from_local_measurement(rho: DensityMatrix, povm_on_b: Povm) -> float:
    """Holevo quantity about A extracted by measuring B:
    S(rho_A) - sum_n p_n S(rho_A^n).

    The POVM must act as the identity on partition A.
    """
    k = povm_on_b._first_nonlocal_operator(_require_dims(rho))
    if k is not None:
        raise ValueError(f"operator {k} is not of the form I_A (x) K")
    return local_information_gain(measure(rho, povm_on_b), "A")


_PAULI = np.stack([np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z])


def _bloch_data(m: np.ndarray) -> list:
    """R[mu][nu] = tr rho (s_mu (x) s_nu) with s = (I, sigma_x, sigma_y, sigma_z)
    for a 4x4 two-qubit matrix: R[0][0] is the trace, R[i][0] = a_i,
    R[0][j] = b_j and R[i][j] = T_ij."""
    r = m.reshape(2, 2, 2, 2)
    return np.einsum("ijkl,mki,nlj->mn", r, _PAULI, _PAULI).real.tolist()


def _branches(r, nx, ny, nz):
    """Weights and squared Bloch lengths of the two unnormalized B branches
    N_+- = [(tr rho +- n.a) I + (b +- T^T n).sigma] / 4 for the measurement of
    direction n on A.  Works elementwise on floats or arrays of directions."""
    (tr, b1, b2, b3), (a1, t11, t12, t13), (a2, t21, t22, t23), (a3, t31, t32, t33) = r
    na = a1 * nx + a2 * ny + a3 * nz
    u1 = t11 * nx + t21 * ny + t31 * nz
    u2 = t12 * nx + t22 * ny + t32 * nz
    u3 = t13 * nx + t23 * ny + t33 * nz
    p1, p2, p3 = b1 + u1, b2 + u2, b3 + u3
    m1, m2, m3 = b1 - u1, b2 - u2, b3 - u3
    return (
        (tr + na) / 2.0,
        p1 * p1 + p2 * p2 + p3 * p3,
        (tr - na) / 2.0,
        m1 * m1 + m2 * m2 + m3 * m3,
    )


def _xlogx_grid(x: np.ndarray) -> np.ndarray:
    """x ln x elementwise for x >= 0, with 0 ln 0 = 0 and no cutoff."""
    return x * np.log(np.where(x > 0.0, x, 1.0))


def _branch_entropy_grid(t: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """p S(N / p) for branches of trace t and squared Bloch length sq: the
    eigenvalues (t -+ sqrt(sq) / 2) / 2, clipped at 0, and p their sum.  The
    array form of one branch's term of ``_g``."""
    disc = np.sqrt(sq) / 2.0
    lo = np.maximum((t - disc) / 2.0, 0.0)
    hi = np.maximum((t + disc) / 2.0, 0.0)
    return -(_xlogx_grid(lo) + _xlogx_grid(hi)) + _xlogx_grid(lo + hi)


@lru_cache(maxsize=4)
def _direction_grid(coarse: int):
    """The coarse (theta, phi) grid of chi_A_max: the 1-D angles and the
    Cartesian components of every direction, indexed [theta, phi].  Read-only,
    since every caller shares them; 3 coarse^2 floats per size (393 kB at
    coarse = 128)."""
    thetas = np.linspace(0.0, np.pi, coarse)
    phis = np.linspace(0.0, 2.0 * np.pi, coarse, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    sin_t = np.sin(tt)
    return tuple(
        _read_only(a) for a in (thetas, phis, sin_t * np.cos(pp), sin_t * np.sin(pp), np.cos(tt))
    )


# Newton ascent of chi_A_max on the unit sphere of measurement directions.
_ASCENT_MAX_ITER = 60
# Branch weights below this are left out of the model, and Bloch lengths below
# it take their r -> 0 limit.
_TINY_BRANCH = 1e-9
# Floor on the smaller branch eigenvalue inside the model (pure branches).
_EIG_FLOOR = 1e-30
# Shift added to the tangent Hessian beyond its most negative eigenvalue.
_SHIFT = 1e-10
# Longest tangent step before retraction to the sphere.
_MAX_STEP = 1.0
# A step whose model decrease falls below this cannot lower g in floating point.
_MIN_DECREASE = 1e-17
_MAX_HALVINGS = 40


def _entropy_term(x: float) -> float:
    """x ln x for x > 0, without the entropy cutoff: a cutoff would make g
    drop by up to ~3e-11 where a branch eigenvalue crosses it, and the ascent
    would climb into that drop."""
    return x * math.log(x) if x > 0.0 else 0.0


def _entropy_b(r) -> float:
    """S(rho_B) from the Bloch data: the eigenvalues (tr -+ |b|) / 2."""
    tr, b1, b2, b3 = r[0]
    b_len = math.sqrt(b1 * b1 + b2 * b2 + b3 * b3)
    return -(_entropy_term((tr - b_len) / 2.0) + _entropy_term((tr + b_len) / 2.0))


def _g(r, n) -> float:
    """Sum over both branches of p S(N / p) for measurement direction n:
    chi = S(rho_B) - g(n)."""
    t_plus, sq_plus, t_minus, sq_minus = _branches(r, *n)
    total = 0.0
    for t, sq in ((t_plus, sq_plus), (t_minus, sq_minus)):
        half = math.sqrt(sq) / 2.0
        lo = max((t - half) / 2.0, 0.0)
        hi = max((t + half) / 2.0, 0.0)
        total += _entropy_term(lo + hi) - _entropy_term(lo) - _entropy_term(hi)
    return total


def _tangent_model(r, n):
    """Gradient (g1, g2) and Riemannian Hessian (h11, h12, h22) of g at the
    unit vector n, in an orthonormal basis (e1, e2) of its tangent plane.

    Branch +- contributes F(p, l) = p ln p - (p - l) ln(p - l) - l ln l, with
    weight p = (1 +- n.a)/2 and smaller eigenvalue l = (p - r/2)/2, where
    r = |b +- T^T n|.  In (p, l) only F_ll is singular at a pure branch, and
    it multiplies the gradient of l, which vanishes there, so near-pure
    branches lose no precision to cancellation.  l is floored at _EIG_FLOOR
    and r below _TINY_BRANCH takes its r -> 0 limit, so the model stays
    finite; backtracking on the exact g keeps the descent monotone.
    """
    (tr, b1, b2, b3), (a1, t11, t12, t13), (a2, t21, t22, t23), (a3, t31, t32, t33) = r
    nx, ny, nz = n
    if abs(nx) < 0.9:  # e1 = n x (1, 0, 0), normalized
        k = 1.0 / math.sqrt(ny * ny + nz * nz)
        e1 = (0.0, nz * k, -ny * k)
    else:  # e1 = (0, 1, 0) x n, normalized
        k = 1.0 / math.sqrt(nx * nx + nz * nz)
        e1 = (nz * k, 0.0, -nx * k)
    e2 = (ny * e1[2] - nz * e1[1], nz * e1[0] - nx * e1[2], nx * e1[1] - ny * e1[0])
    # a.d and T^T d for d = n, e1, e2
    dirs = (n, e1, e2)
    na = [a1 * d[0] + a2 * d[1] + a3 * d[2] for d in dirs]
    w = [
        (
            t11 * d[0] + t21 * d[1] + t31 * d[2],
            t12 * d[0] + t22 * d[1] + t32 * d[2],
            t13 * d[0] + t23 * d[1] + t33 * d[2],
        )
        for d in dirs
    ]
    u1, u2, u3 = w[0]
    (x1, x2, x3), (y1, y2, y3) = w[1], w[2]
    ww11, ww12, ww22 = x1 * x1 + x2 * x2 + x3 * x3, x1 * y1 + x2 * y2 + x3 * y3, y1 * y1 + y2 * y2 + y3 * y3
    g0 = g1 = g2 = h11 = h12 = h22 = 0.0
    for sign in (1.0, -1.0):
        p = (tr + sign * na[0]) / 2.0
        if p <= _TINY_BRANCH:
            continue
        v1, v2, v3 = b1 + sign * u1, b2 + sign * u2, b3 + sign * u3
        rad = math.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
        lam = max((p - rad / 2.0) / 2.0, _EIG_FLOOR)
        big = p - lam
        f_p = math.log(p / big)
        f_pp = -lam / (p * big)
        f_pl = 1.0 / big
        f_ll = -1.0 / big - 1.0 / lam
        if rad < _TINY_BRANCH:
            f_l_r = 0.5 / lam  # F_l / r
            dr0 = dr1 = dr2 = 0.0
        else:
            f_l_r = math.log1p(0.5 * rad / lam) / rad
            k = sign / rad
            dr0 = k * (u1 * v1 + u2 * v2 + u3 * v3)
            dr1 = k * (x1 * v1 + x2 * v2 + x3 * v3)
            dr2 = k * (y1 * v1 + y2 * v2 + y3 * v3)
        f_l = f_l_r * rad
        # derivatives of p and l along n, e1, e2
        dp0, dp1, dp2 = sign * na[0] / 2.0, sign * na[1] / 2.0, sign * na[2] / 2.0
        dl0, dl1, dl2 = (dp0 - dr0 / 2.0) / 2.0, (dp1 - dr1 / 2.0) / 2.0, (dp2 - dr2 / 2.0) / 2.0
        g0 += f_p * dp0 + f_l * dl0
        g1 += f_p * dp1 + f_l * dl1
        g2 += f_p * dp2 + f_l * dl2
        # F_l times the Hessian of l = -(Hessian of r) / 4
        c = -0.25 * f_l_r
        h11 += f_pp * dp1 * dp1 + 2.0 * f_pl * dp1 * dl1 + f_ll * dl1 * dl1 + c * (ww11 - dr1 * dr1)
        h12 += f_pp * dp1 * dp2 + f_pl * (dp1 * dl2 + dp2 * dl1) + f_ll * dl1 * dl2 + c * (ww12 - dr1 * dr2)
        h22 += f_pp * dp2 * dp2 + 2.0 * f_pl * dp2 * dl2 + f_ll * dl2 * dl2 + c * (ww22 - dr2 * dr2)
    # Riemannian Hessian: P (Hess g) P - (n . grad g) P
    return e1, e2, g1, g2, h11 - g0, h12, h22 - g0


def _descend(r, n, value):
    """Riemannian Newton descent of g from the unit vector n (g(n) = value).
    Returns the lowest g reached and the number of iterations taken."""
    for it in range(1, _ASCENT_MAX_ITER + 1):
        e1, e2, g1, g2, h11, h12, h22 = _tangent_model(r, n)
        # eigen-decomposition of the 2x2 tangent Hessian
        mean = 0.5 * (h11 + h22)
        half_gap = math.hypot(0.5 * (h11 - h22), h12)
        det = h11 * h22 - h12 * h12
        if mean >= 0.0:
            lam_hi = mean + half_gap
            lam_lo = det / lam_hi if lam_hi > 0.0 else mean - half_gap
        else:
            lam_lo = mean - half_gap
            lam_hi = det / lam_lo
        # unit eigenvector (x1, x2) of lam_lo, and (-x2, x1) of lam_hi
        c1, c2 = h12, lam_lo - h11
        d1, d2 = lam_lo - h22, h12
        if c1 * c1 + c2 * c2 < d1 * d1 + d2 * d2:
            c1, c2 = d1, d2
        norm = math.hypot(c1, c2)
        x1, x2 = (c1 / norm, c2 / norm) if norm > 0.0 else (1.0, 0.0)
        g_lo = g1 * x1 + g2 * x2
        g_hi = -g1 * x2 + g2 * x1
        shift = max(0.0, -lam_lo) + _SHIFT
        s_hi = -g_hi / (lam_hi + shift)
        if lam_lo < -_SHIFT * (1.0 + abs(lam_hi)):
            # negative curvature: go as far as allowed along it, downhill, which
            # also escapes the stationary axis directions of X states
            s_lo = -_MAX_STEP if g_lo > 0.0 else _MAX_STEP
        else:
            s_lo = -g_lo / (lam_lo + shift)
        length = math.hypot(s_lo, s_hi)
        if length > _MAX_STEP:
            s_lo, s_hi = s_lo * _MAX_STEP / length, s_hi * _MAX_STEP / length
        for _ in range(_MAX_HALVINGS):
            decrease = -(g_lo * s_lo + g_hi * s_hi + 0.5 * (lam_lo * s_lo * s_lo + lam_hi * s_hi * s_hi))
            if decrease < _MIN_DECREASE:
                return value, it
            t1 = s_lo * x1 - s_hi * x2
            t2 = s_lo * x2 + s_hi * x1
            m = (
                n[0] + t1 * e1[0] + t2 * e2[0],
                n[1] + t1 * e1[1] + t2 * e2[1],
                n[2] + t1 * e1[2] + t2 * e2[2],
            )
            k = 1.0 / math.sqrt(m[0] * m[0] + m[1] * m[1] + m[2] * m[2])
            m = (m[0] * k, m[1] * k, m[2] * k)
            trial = _g(r, m)
            if trial < value:
                n, value = m, trial
                break
            s_lo, s_hi = s_lo / 2.0, s_hi / 2.0
        else:
            return value, it
    return value, _ASCENT_MAX_ITER


def _newton_chi(m: np.ndarray) -> tuple[float, int]:
    """chi_A_max of the 4x4 two-qubit matrix m by Newton descent of g from the
    best two of five start directions (the left singular vectors of T, the
    direction of a, and z); returns chi and the largest iteration count."""
    r = _bloch_data(m)
    _, (a1, *_), (a2, *_), (a3, *_) = r
    starts = [tuple(col) for col in _real_svd(np.array([row[1:] for row in r[1:]]))[0].T.tolist()]
    a_len = math.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
    if a_len > _TINY_BRANCH:
        starts.append((a1 / a_len, a2 / a_len, a3 / a_len))
    starts.append((0.0, 0.0, 1.0))
    scored = sorted(((_g(r, n), k) for k, n in enumerate(starts)))
    best, iterations = math.inf, 0
    for value, k in scored[:2]:
        value, it = _descend(r, starts[k], value)
        best, iterations = min(best, value), max(iterations, it)
    return _entropy_b(r) - best, iterations


def chi_A_max(rho: DensityMatrix, grid: SearchGrid | None = None) -> float:
    """Best Holevo quantity about B over rank-one projective measurements on
    qubit A: max over Bloch directions n of S(rho_B) - sum_+- p_+- S(rho_B^+-).

    Two-qubit states only (dims (2, 2)).  The branch spectra come in closed
    form from the real Bloch data (a, b, T) of the state (Luo, PRA 77, 042303
    (2008)): branch +- has weight (1 +- n.a)/2 and eigenvalues
    ((1 +- n.a)/2 -+ |b +- T^T n|/2)/2, so the gradient and Hessian over n
    are closed-form too.  By default the objective is maximized by a
    Riemannian Newton ascent on the unit sphere from the best two of five
    start directions (the left singular vectors of T, the direction of a, and
    z).  A shifted Hessian with a step along negative curvature escapes the
    stationary axis directions of X states, whose optimum can lie off axis
    (Huang, PRA 88, 014302 (2013)).

    Passing a ``SearchGrid`` selects the reference grid search instead: the
    ascent's objective, exact x ln x with no cutoff, on a coarse (theta, phi)
    grid, the best point refined by a pattern search that halves its angle
    step down to ``grid.angle_tol``.

    Either way the returned value is a lower bound on the optimum over this
    measurement class, never below the z-axis measurement, which both
    searches evaluate.
    """
    d_a, d_b = _require_dims(rho)
    if d_a != 2:
        raise ValueError("only a qubit partition A is supported")
    if d_b != 2:
        raise ValueError(f"only two-qubit states are supported, got dims {(d_a, d_b)}")
    m = rho.matrix
    if grid is None:
        return _newton_chi(m)[0]
    r = _bloch_data(m)
    s_b = _entropy_b(r)

    thetas, phis, nx, ny, nz = _direction_grid(grid.coarse)
    t_plus, sq_plus, t_minus, sq_minus = _branches(r, nx, ny, nz)
    values = s_b - (_branch_entropy_grid(t_plus, sq_plus) + _branch_entropy_grid(t_minus, sq_minus))
    best = np.unravel_index(int(np.argmax(values)), values.shape)
    best_val = float(values[best])
    theta, phi = float(thetas[best[0]]), float(phis[best[1]])

    def objective(theta: float, phi: float) -> float:
        sin_theta = math.sin(theta)
        return s_b - _g(r, (sin_theta * math.cos(phi), sin_theta * math.sin(phi), math.cos(theta)))

    step = max(math.pi / max(grid.coarse - 1, 1), 2.0 * math.pi / grid.coarse)
    while step > grid.angle_tol:
        candidates = (
            (theta + step, phi),
            (theta - step, phi),
            (theta, phi + step),
            (theta, phi - step),
        )
        cand_v = [objective(t, p) for t, p in candidates]
        k = max(range(4), key=cand_v.__getitem__)  # the first maximum, as argmax
        if cand_v[k] > best_val:
            best_val = cand_v[k]
            theta, phi = candidates[k]
        else:
            step /= 2.0
    return best_val


def _clamp_small_negative(x: float) -> float:
    return 0.0 if -CLAMP_TOL <= x < 0.0 else x


def discord_A(rho: DensityMatrix) -> float:
    """Quantum discord I(A:B) - chi_A_max, measurements on the qubit partition A."""
    return _clamp_small_negative(mutual_information(rho) - chi_A_max(rho))


def eof_via_koashi_winter(rho: DensityMatrix) -> float:
    """Entanglement of formation E(B:C) for the purifying environment C,
    obtained as S(rho_B) - chi_A_max."""
    return _clamp_small_negative(marginal_entropy(rho, "B") - chi_A_max(rho))


def wootters_eof(rho_2qubit) -> float:
    """Entanglement of formation (nats) of a two-qubit state via the concurrence.

    C = max(0, l1 - l2 - l3 - l4) from the descending singular values l_i of
    sqrt(rho)^T (sy(x)sy) sqrt(rho), then E = h((1 + sqrt(1 - C^2)) / 2).
    These are the square roots of the eigenvalues of rho (sy(x)sy) rho*
    (sy(x)sy) (Uhlmann's form), but taken without a square root of
    eigenvalues that are zero up to round-off, which would turn a 1e-16
    error into 1e-8.  sqrt(rho) comes from ``eigh`` with negative round-off
    eigenvalues clipped to zero.
    """
    m = as_matrix(rho_2qubit)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 state, got {m.shape}")
    if not np.isfinite(m).all():  # the kernels take finite inputs only
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    sqrt_rho = _psd_sqrt(m)
    lam = _singular_values(sqrt_rho.T @ SPIN_FLIP @ sqrt_rho).tolist()
    concurrence = lam[0] - lam[1] - lam[2] - lam[3]
    if concurrence <= 0.0:
        return 0.0
    # a pure maximally entangled state can give C = 1 + 2e-16
    x = 0.5 * (1.0 + math.sqrt(max(1.0 - concurrence * concurrence, 0.0)))
    return -(_entropy_term(x) + _entropy_term(1.0 - x))


def breakdown(rho: DensityMatrix, h_b) -> CorrelationBreakdown:
    """Assemble the correlation quantities and the classical/quantum split of
    the information gain under the local energy measurement on B, whose
    record it keeps (``record``).

    Raises when the split identity (information gain = chi_B + quantum gain)
    is violated beyond 2e-6.
    """
    dims = _require_dims(rho)
    povm = projective_energy_povm(h_b, dims)
    record = measure(rho, povm)
    gain = information_gain(record)
    chi_b = chi_from_local_measurement(rho, povm)
    mi = mutual_information(rho)
    chi_a = chi_A_max(rho)
    s_b = marginal_entropy(rho, "B")
    discord = _clamp_small_negative(mi - chi_a)
    eof = _clamp_small_negative(s_b - chi_a)
    quantum_gain = eof - discord
    residual = gain - (chi_b + quantum_gain)
    if abs(residual) > SPLIT_TOL:
        raise PropertyFailure(f"gain split identity violated: residual {residual:.3e}")
    return CorrelationBreakdown(
        mutual_information=mi,
        chi_B=chi_b,
        chi_A_max=chi_a,
        discord_A=discord,
        eof_BC=eof,
        quantum_gain=quantum_gain,
        record=record,
    )
