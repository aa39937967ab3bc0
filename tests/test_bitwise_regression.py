"""Bitwise regression of the cached and precomputed kernels.

Each reference below is the earlier inline form of a kernel: the kron-sum
total Hamiltonian that ``thermo_report`` built on every call, the spectrum
recomputed by every entropy and ergotropy, the bisection that evaluated
entropy and energy together, the (theta, phi) grid that ``chi_A_max`` built
on every call, and ``np.linalg.eigvalsh``, whose LAPACK gufunc
``core._spectrum`` calls directly.  The current kernels reuse work
(``Hamiltonian.doubled``, the spectrum kept by ``DensityMatrix``, the level
gaps, the memoized root solve, the cached grid) or skip wrapper overhead but
must do the same floating-point operations, so results are compared with
``==``, not a tolerance.  The same holds for the states the library derives
without re-validation (marginals, post-measurement states, channel outputs,
analytic steady states): each equals the validated construction of its
matrix.
"""

import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest

from qthermo import (
    DensityMatrix,
    Hamiltonian,
    ModelParams,
    analytic_steady_state,
    average_energy,
    bound_ergotropy,
    chi_A_max,
    ergotropy,
    local_povm,
    log_partition,
    measure,
    partial_trace,
    passive_state,
    projective_energy_povm,
    standard_reports,
    thermo_report,
    von_neumann_entropy,
)
from qthermo import core
from qthermo.cli import sweep_row
from qthermo.core import ENTROPY_CUTOFF, SIGMA_X, SIGMA_Y, SIGMA_Z, _kron, entropy_of_eigenvalues
from qthermo.correlations import (
    SearchGrid,
    _bloch_data,
    _branch_entropy_grid,
    _branches,
    _entropy_b,
    _g,
)
from qthermo.dissipation import local_qubit_hamiltonian
from qthermo.random_states import (
    random_hamiltonian,
    random_projective_povm,
    random_rank2_two_qubit,
    random_two_qubit_state,
    random_x_state,
    random_unitary,
)

STATES_PER_FAMILY = 170
# the total Hamiltonian of the sweep: two qubits of frequency 1
H_SWEEP = Hamiltonian(np.diag([2.0, 1.0, 1.0, 0.0]).astype(complex))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def states():
    """Seeded generic, rank-2 and X-shaped two-qubit states."""
    rng = np.random.default_rng(2024)
    return [
        draw(rng)
        for draw in (random_two_qubit_state, random_rank2_two_qubit, random_x_state)
        for _ in range(STATES_PER_FAMILY)
    ]


def _local_hamiltonians():
    rng = np.random.default_rng(7)
    return [random_hamiltonian(2, rng) for _ in range(5)] + [
        Hamiltonian(np.diag([1.0, 0.0]).astype(complex)),
        Hamiltonian(np.diag([0.0, 1.0]).astype(complex)),
        Hamiltonian(2.5 * np.eye(2, dtype=complex)),
        Hamiltonian(np.zeros((2, 2), dtype=complex)),
    ]


def _total_hamiltonians():
    """Random 4x4 Hamiltonians and degenerate ones: a two-fold middle level,
    two two-fold levels, a three-fold level, and a multiple of I."""
    rng = np.random.default_rng(11)
    random = [random_hamiltonian(4, rng) for _ in range(3)]
    degenerate = []
    for levels in ([2.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 3.0]):
        u = random_unitary(4, rng)
        degenerate.append(Hamiltonian(np.diag(levels).astype(complex)))
        degenerate.append(Hamiltonian((u * np.array(levels)) @ u.conj().T))
    return random + degenerate + [Hamiltonian(1.5 * np.eye(4, dtype=complex))]


# -- the earlier inline forms -------------------------------------------------


def _kron_sum(h):
    d = h.dim
    return Hamiltonian(np.kron(h.matrix, np.eye(d)) + np.kron(np.eye(d), h.matrix))


def _spectrum(rho):
    return np.linalg.eigvalsh(rho.matrix)


def _thermal_entropy_energy(energies, beta):
    e_min = min(energies)
    w = [math.exp(-beta * (e - e_min)) for e in energies]
    z = sum(w)
    entropy = 0.0
    energy = 0.0
    for w_i, e in zip(w, energies):
        p = w_i / z
        if p >= ENTROPY_CUTOFF:
            entropy -= p * math.log(p)
        energy += p * e
    return entropy, energy


def _passive_energy(state_eigenvalues, energies):
    return float(np.sort(state_eigenvalues)[::-1] @ np.sort(energies))


def _ergotropy(rho, h):
    return average_energy(rho, h) - _passive_energy(_spectrum(rho), h.eigenvalues)


def _bound_ergotropy(rho, h):
    e = h.eigenvalues
    spread = float(e.max() - e.min())
    state_eigs = _spectrum(rho)
    passive_e = _passive_energy(state_eigs, e)
    if spread < 1e-12:
        return 0.0
    target = entropy_of_eigenvalues(state_eigs)
    if target < ENTROPY_CUTOFF:
        return passive_e - float(e.min())
    levels = e.tolist()
    lo, hi = 0.0, 50.0 * h.dim / spread
    while hi < 1e6 and _thermal_entropy_energy(levels, hi)[0] > target:
        hi = min(hi * 2.0, 1e6)
    beta_star = hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        s_mid, _ = _thermal_entropy_energy(levels, mid)
        beta_star = mid
        if abs(s_mid - target) <= 1e-10:
            break
        if s_mid > target:
            lo = mid
        else:
            hi = mid
    return passive_e - _thermal_entropy_energy(levels, beta_star)[1]


def _thermo_report(rho, h_b, beta):
    h_total = _kron_sum(h_b)
    work = _ergotropy(rho, h_total)
    bound = _bound_ergotropy(rho, h_total)
    f_b = -np.inf if beta == 0 else -log_partition(h_b, beta) / beta
    return (
        average_energy(partial_trace(rho, "B"), h_b),
        f_b,
        work,
        bound,
        work + bound,
        beta,
    )


def _chi_A_max(rho, grid):
    r = _bloch_data(rho.matrix)
    s_b = _entropy_b(r)
    thetas = np.linspace(0.0, np.pi, grid.coarse)
    phis = np.linspace(0.0, 2.0 * np.pi, grid.coarse, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    sin_t = np.sin(tt)
    t_plus, sq_plus, t_minus, sq_minus = _branches(
        r, sin_t * np.cos(pp), sin_t * np.sin(pp), np.cos(tt)
    )
    values = s_b - (_branch_entropy_grid(t_plus, sq_plus) + _branch_entropy_grid(t_minus, sq_minus))
    best = np.unravel_index(int(np.argmax(values)), values.shape)
    best_val = float(values[best])
    theta, phi = float(tt[best]), float(pp[best])

    def objective(theta, phi):
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
        k = max(range(4), key=cand_v.__getitem__)
        if cand_v[k] > best_val:
            best_val = cand_v[k]
            theta, phi = candidates[k]
        else:
            step /= 2.0
    return best_val


# -- comparisons --------------------------------------------------------------


def test_kron_matches_numpy_bitwise():
    rng = np.random.default_rng(5)

    def draw(shape, kind):
        a = rng.standard_normal(shape)
        a[rng.random(shape) < 0.3] = -0.0
        a[rng.random(shape) < 0.2] = 0.0
        if kind == "real":
            return a
        b = rng.standard_normal(shape)
        b[rng.random(shape) < 0.3] = -0.0
        return a + 1j * b

    for shape_a, shape_b in itertools.product(itertools.product(range(1, 5), repeat=2), repeat=2):
        for kinds in itertools.product(("real", "complex"), repeat=2):
            a, b = draw(shape_a, kinds[0]), draw(shape_b, kinds[1])
            assert _same_bits(_kron(a, b), np.kron(a, b)), (shape_a, shape_b, kinds)


@pytest.mark.parametrize("h", _local_hamiltonians())
def test_doubled_is_the_kron_sum(h):
    doubled, reference = h.doubled, _kron_sum(h)
    assert h.doubled is doubled
    for attr in ("matrix", "eigenvalues", "eigenvectors"):
        assert _same_bits(getattr(doubled, attr), getattr(reference, attr)), attr


def test_spectral_readers_match_recomputed_spectrum(states):
    v = H_SWEEP.eigenvectors
    for rho in states:
        assert _same_bits(rho.eigenvalues(), _spectrum(rho))
        assert von_neumann_entropy(rho) == entropy_of_eigenvalues(_spectrum(rho))
        populations = np.sort(_spectrum(rho))[::-1]
        expected = (v * populations) @ v.conj().T
        assert _same_bits(passive_state(rho, H_SWEEP).matrix, expected)


def test_ergotropies_match_the_earlier_bisection(states):
    """Every state against the sweep's total Hamiltonian and one of the others
    in turn, so each Hamiltonian meets states of all three families."""
    hamiltonians = _total_hamiltonians()
    for k, rho in enumerate(states):
        for h in (H_SWEEP, hamiltonians[k % len(hamiltonians)]):
            assert ergotropy(rho, h) == _ergotropy(rho, h)
            assert bound_ergotropy(rho, h) == _bound_ergotropy(rho, h)


def test_memoized_root_matches_the_earlier_bisection_in_any_call_order(states):
    """bound_ergotropy keeps its last root solve.  Repeats, alternations and
    returns to an earlier state (A, A, B, A, B, B) must each give the
    bisection's own value, so a stale memo shows as a mismatch."""
    hamiltonians = _total_hamiltonians()
    for k in range(0, len(states) - 1, 17):
        a, b = states[k], states[k + 1]
        for h in (H_SWEEP, hamiltonians[k % len(hamiltonians)]):
            for rho in (a, a, b, a, b, b):
                assert bound_ergotropy(rho, h) == _bound_ergotropy(rho, h)
    # the same state against two Hamiltonians in turn
    rho = states[0]
    for h in (H_SWEEP, hamiltonians[0], H_SWEEP, H_SWEEP, hamiltonians[0]):
        assert bound_ergotropy(rho, h) == _bound_ergotropy(rho, h)


def test_thermo_report_matches_the_inline_kron_sum(states):
    for h_b in _local_hamiltonians():
        for k, rho in enumerate(states[::5]):
            beta = 0.0 if k % 7 == 0 else 0.1 + 0.05 * k
            assert astuple(thermo_report(rho, h_b, beta)) == _thermo_report(rho, h_b, beta)


# the last grid is the grid-only call of the benchmark's chi re-timing
@pytest.mark.parametrize(
    "grid",
    [SearchGrid(), SearchGrid(coarse=128), SearchGrid(coarse=64, angle_tol=math.pi)],
    ids=repr,
)
def test_chi_A_max_matches_the_inline_grid(states, grid):
    for rho in states:
        assert chi_A_max(rho, grid) == _chi_A_max(rho, grid)


def test_spectrum_kernel_matches_eigvalsh(states):
    for rho in states:
        m = rho.matrix
        marginals = (
            core._partial_trace(m, rho.dims, "A"),
            core._partial_trace(m, rho.dims, "B"),
        )
        for a in (m, *marginals):
            assert _same_bits(core._spectrum(a), np.linalg.eigvalsh(a))


def test_spectrum_kernel_raises_on_nonconvergence(monkeypatch):
    """LAPACK leaves NaN where it does not converge; the kernel raises as the
    numpy wrapper would, and so does DensityMatrix."""
    monkeypatch.setattr(
        core._umath_linalg, "eigvalsh_lo", lambda m, signature: np.full(m.shape[-1], np.nan)
    )
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        core._spectrum(np.eye(2, dtype=complex) / 2)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        DensityMatrix(np.eye(4, dtype=complex) / 4, dims=(2, 2))


def test_hot_paths_bypass_the_eigvalsh_wrapper(monkeypatch):
    """A sweep row and the standard reports run without np.linalg.eigvalsh,
    so its dispatch overhead cannot creep back into the validated-state path."""
    params = ModelParams()
    h_local = local_qubit_hamiltonian(params.omega)
    # locally thermal, not X-shaped: the Pauli products leave both marginals alone
    tau = np.diag([math.exp(-0.8), 1.0]) / (1.0 + math.exp(-0.8))
    coherent = DensityMatrix(
        np.kron(tau, tau) + 0.03 * (np.kron(SIGMA_X, SIGMA_Z) + np.kron(SIGMA_Y, SIGMA_X)),
        dims=(2, 2),
    )
    expected_row = sweep_row(0.3, params, h_local)  # also builds h_local.doubled
    expected_reports = [r.to_dict() for r in standard_reports(coherent, h_local)]

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.eigvalsh called on a hot path")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    assert sweep_row(0.3, params, h_local) == expected_row
    assert [r.to_dict() for r in standard_reports(coherent, h_local)] == expected_reports


def test_stacked_spectrum_matches_the_per_matrix_call(states):
    stack = np.array([rho.matrix for rho in states])
    expected = [core._spectrum(m) for m in stack]
    assert _same_bits(core._spectrum(stack), np.array(expected))
    marginals = np.array([core._partial_trace(rho.matrix, rho.dims, "B") for rho in states])
    assert _same_bits(core._spectrum(marginals), np.array([core._spectrum(m) for m in marginals]))


def _derived_states(rho, povms):
    derived = [partial_trace(rho, "A"), partial_trace(rho, "B")]
    for povm in povms:
        record = measure(rho, povm)
        derived.extend(s for s in record.post_states if s is not None)
        derived.append(record.channel_output)
    return derived


def test_derived_states_match_their_validated_construction(states):
    """Every derived state has the matrix, spectrum and dims of the validated
    construction of its matrix, and both arrays refuse writes."""
    rng = np.random.default_rng(3)
    povms = (
        projective_energy_povm(local_qubit_hamiltonian(1.0), (2, 2)),
        local_povm(random_projective_povm(2, rng), random_projective_povm(2, rng)),
        random_projective_povm(4, rng),
    )
    steady = [analytic_steady_state(c, ModelParams()) for c in np.linspace(0.0, 1.0, 21)]
    derived = steady + [s for rho in states for s in _derived_states(rho, povms)]
    for s in derived:
        validated = DensityMatrix(s.matrix, s.dims)
        assert _same_bits(s.matrix, validated.matrix)
        assert _same_bits(s._spectrum, validated._spectrum)
        assert s.dims == validated.dims
        assert not s.matrix.flags.writeable and not s._spectrum.flags.writeable
