"""Bitwise regression of the cached and precomputed kernels.

Each reference below is the earlier inline form of a kernel: the kron-sum
total Hamiltonian that ``thermo_report`` built on every call, the spectrum
recomputed by every entropy and ergotropy, the bisection that evaluated
entropy and energy together, the (theta, phi) grid that ``chi_A_max`` built
on every call, the Ginibre draw that took its real and imaginary blocks in
two calls, and ``np.linalg.eigvalsh``, ``eigh``, ``svd`` and ``qr``, whose
LAPACK gufuncs ``core._spectrum``, ``core._eigh``, ``core._singular_values``,
``core._real_svd`` and ``random_unitary`` call directly.  Further down: the
earlier ``measure``, one product and one spectrum call per outcome, with its
per-state marginal entropies; the entropy on numpy arrays and the ``measure``
body that re-stacked its rows, which the Python-float entropy and the
preallocated rows replaced; the product POVMs built from validated factor
POVMs; the verify suites with a reference measurement loop of their own; and
the per-state loop that ``trajectory_invariants`` ran before its array pass.
The current kernels reuse work (``Hamiltonian.doubled`` and the spectral
constants each ``Hamiltonian`` keeps, the spectrum kept by
``DensityMatrix``, the global work that ``thermo_report`` memoizes, the
local-form verdict each ``Povm`` keeps, the cached grid, the one stacked
product and spectrum call of ``measure``) or skip wrapper overhead but must
do the same floating-point operations, so results are compared with ``==``,
not a tolerance.  The same holds for the states the library derives without
re-validation (marginals, post-measurement states, channel outputs, analytic
steady states): each equals the validated construction of its matrix.
"""

import itertools
import math
import re
from dataclasses import astuple

import numpy as np
import pytest

from qthermo import (
    DensityMatrix,
    Hamiltonian,
    MeasurementRecord,
    ModelParams,
    Povm,
    analytic_steady_state,
    average_energy,
    bound_ergotropy,
    chi_A_max,
    chi_from_local_measurement,
    correlations_lost,
    effective_c,
    entropy_cost,
    ergotropy,
    evolve,
    holevo_of_measurement,
    information_gain,
    local_information_gain,
    local_inverse_temperature,
    local_povm,
    log_partition,
    measure,
    partial_trace,
    passive_state,
    projective_energy_povm,
    relative_entropy_of_coherence,
    standard_reports,
    thermal_state,
    thermo_report,
    von_neumann_entropy,
)
from qthermo import core, verify
from qthermo.cli import sweep_row
from qthermo.core import ENTROPY_CUTOFF, SIGMA_X, SIGMA_Y, SIGMA_Z, _kron, entropy_of_eigenvalues
from qthermo.correlations import (
    SPIN_FLIP,
    SearchGrid,
    _bloch_data,
    _branch_entropy_grid,
    _branches,
    _entropy_b,
    _g,
    wootters_eof,
)
from qthermo.dissipation import KET_GG, PSI_MINUS, _effective_cs, local_qubit_hamiltonian
from qthermo.measurement import PROB_CUTOFF
from qthermo.random_states import (
    _ginibre,
    _projectors,
    random_general_povm,
    random_hamiltonian,
    random_local_general_povm,
    random_local_projective_povm,
    random_projective_povm,
    random_rank2_two_qubit,
    random_two_outcome_projective,
    random_two_qubit_state,
    random_x_state,
    random_unitary,
    random_unsharp_on_b,
)
from qthermo.verify import SUITES, SuiteResult

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


def _hamiltonians(dim):
    """Per dimension: two random Hamiltonians, a diagonal one (permutation
    eigenvectors), a degenerate spectrum as a diagonal and rotated (for a
    qubit, a multiple of I up to eigh round-off), an exact multiple of I,
    and the first random one scaled by 1e-200 and by 1e200."""
    rng = np.random.default_rng(100 + dim)
    random = [random_hamiltonian(dim, rng) for _ in range(2)]
    degenerate = {2: [1.0, 1.0], 3: [0.0, 1.0, 1.0], 4: [2.0, 1.0, 1.0, 0.0]}[dim]
    u = random_unitary(dim, rng)
    return random + [
        Hamiltonian(np.diag(np.arange(dim, 0.0, -1.0)).astype(complex)),
        Hamiltonian(np.diag(degenerate).astype(complex)),
        Hamiltonian((u * np.array(degenerate)) @ u.conj().T),
        Hamiltonian(1.5 * np.eye(dim, dtype=complex)),
        Hamiltonian(1e-200 * random[0].matrix),
        Hamiltonian(1e200 * random[0].matrix),
    ]


def _states_of_dim(states, dim):
    """The corpus itself (dim 4), its marginals on A and B in turn (dim 2),
    and its normalized leading 3x3 blocks (dim 3)."""
    if dim == 4:
        return states
    if dim == 2:
        return [partial_trace(rho, "A" if k % 2 else "B") for k, rho in enumerate(states)]
    blocks = [rho.matrix[:3, :3] for rho in states]
    return [DensityMatrix(b / b.trace().real) for b in blocks]


def _betas(h):
    """Inverse temperatures from hot to cold on the scale of the spectrum."""
    spread = float(h.eigenvalues[-1] - h.eigenvalues[0])
    unit = 1.0 / spread if spread > 0.0 else 1.0
    return [0.0, 0.3 * unit, 1.7 * unit, 9.0 * unit]


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
    for _ in range(200):
        beta = 0.5 * (lo + hi)
        s, _ = _thermal_entropy_energy(levels, beta)
        if abs(s - target) <= 1e-10 * min(1.0, beta):
            break
        if s > target:
            lo = beta
        else:
            hi = beta
    return passive_e - _thermal_entropy_energy(levels, beta)[1]


def _log_partition(h, beta):
    e = h.eigenvalues
    return float(-beta * e.min() + np.log(np.exp(-beta * (e - e.min())).sum()))


def _thermal_matrix(h, beta):
    e = h.eigenvalues
    v = h.eigenvectors
    if np.isinf(beta):
        ground = (e - e.min() < 1e-12).astype(float)
        p = ground / ground.sum()
    else:
        w = np.exp(-beta * (e - e.min()))
        p = w / w.sum()
    return (v * p) @ core.dagger(v)


def _passive_matrix(rho, h):
    v = h.eigenvectors
    return (v * np.sort(_spectrum(rho))[::-1]) @ core.dagger(v)


def _local_inverse_temperature(m, h):
    """The earlier fit, with the population floor of the basis change."""
    v = h.eigenvectors
    in_basis = (core.dagger(v) @ m @ v).tolist()
    coherence = max(
        (abs(x) for i, row in enumerate(in_basis) for j, x in enumerate(row) if i != j),
        default=0.0,
    )
    if coherence > 1e-8:
        return None
    populations = [row[i].real for i, row in enumerate(in_basis)]
    exact = ((v == 0.0) | (np.abs(v) == 1.0)).all()
    floor = 0.0 if exact else 4 * h.dim * np.finfo(float).eps * np.abs(m).max()
    if min(populations) <= floor:
        return None
    log_p = [math.log(p) for p in populations]
    energies = h.eigenvalues.tolist()
    n = len(energies)
    e_mean = sum(energies) / n
    l_mean = sum(log_p) / n
    lowest, highest = energies[0], energies[-1]
    if highest - lowest <= 64 * np.finfo(float).eps * max(abs(lowest), abs(highest)):
        beta = 0.0
    else:
        k = math.frexp(highest - lowest)[1]
        de = [math.ldexp(e - e_mean, -k) for e in energies]
        slope = sum(d * (l_mean - l) for d, l in zip(de, log_p)) / sum(d * d for d in de)
        beta = math.ldexp(slope, -k)
    intercept = l_mean + beta * e_mean
    if max(abs(l - (intercept - beta * e)) for l, e in zip(log_p, energies)) > 1e-8:
        return None
    return beta


def _chi_from_local_measurement(rho, povm):
    d_a, d_b = rho.dims
    for k, m in enumerate(povm.operators):
        local = core._partial_trace(m, (d_a, d_b), "B") / d_a
        if np.abs(m - _kron(np.eye(d_a), local)).max() > 1e-9:
            raise ValueError(f"operator {k} is not of the form I_A (x) K")
    return local_information_gain(measure(rho, povm), "A")


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
        log_partition(h_b, beta),
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


def test_memoized_work_matches_the_earlier_bisection_in_any_call_order(states):
    """thermo_report keeps the global work of the last state it met.
    Repeats, alternations and returns to an earlier state (A, A, B, A, B, B)
    must each give the bisection's own value, so a stale memo shows as a
    mismatch; so must bound_ergotropy, which solves on every call."""
    hamiltonians = _total_hamiltonians()
    h_b = Hamiltonian(np.diag([1.0, 0.0]).astype(complex))  # doubled: H_SWEEP
    for k in range(0, len(states) - 1, 17):
        a, b = states[k], states[k + 1]
        for rho in (a, a, b, a, b, b):
            rep = thermo_report(rho, h_b, 1.0)
            assert rep.ergotropy == _ergotropy(rho, H_SWEEP)
            assert rep.bound_ergotropy == _bound_ergotropy(rho, H_SWEEP)
            for h in (H_SWEEP, hamiltonians[k % len(hamiltonians)]):
                assert bound_ergotropy(rho, h) == _bound_ergotropy(rho, h)
    # the same state against two Hamiltonians in turn
    rho = states[0]
    h_wide = Hamiltonian(np.diag([3.0, 0.5]).astype(complex))
    for h in (H_SWEEP, hamiltonians[0], H_SWEEP, H_SWEEP, hamiltonians[0]):
        assert bound_ergotropy(rho, h) == _bound_ergotropy(rho, h)
    for local in (h_b, h_wide, h_b, h_b, h_wide):
        rep = thermo_report(rho, local, 1.0)
        assert rep.bound_ergotropy == _bound_ergotropy(rho, local.doubled)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_hamiltonian_constants_give_the_inline_results(states, dim):
    """Every function that reads the constants a Hamiltonian keeps returns
    the earlier inline result, on Hamiltonians of each dimension including
    degenerate and 1e+-200-scaled ones.  Each state meets one Hamiltonian in
    turn; the fit also sees thermal states, and thermal states with one
    population zeroed (refused by the round-off floor where V rotates)."""
    hamiltonians = _hamiltonians(dim)
    for h in hamiltonians:
        betas = _betas(h)
        for beta in betas + [np.inf]:
            assert _same_bits(thermal_state(h, beta).matrix, _thermal_matrix(h, beta))
        for beta in betas:
            assert log_partition(h, beta) == _log_partition(h, beta)
            p = np.exp(-beta * (h.eigenvalues - h.eigenvalues[0]))
            zeroed = p.copy()
            zeroed[-1] = 0.0
            for q in (p, zeroed):
                m = (h.eigenvectors * (q / q.sum())) @ h.eigenvectors.conj().T
                assert local_inverse_temperature(m, h) == _local_inverse_temperature(m, h)
    for k, rho in enumerate(_states_of_dim(states, dim)):
        h = hamiltonians[k % len(hamiltonians)]
        assert ergotropy(rho, h) == _ergotropy(rho, h)
        assert bound_ergotropy(rho, h) == _bound_ergotropy(rho, h)
        assert _same_bits(passive_state(rho, h).matrix, _passive_matrix(rho, h))
        assert local_inverse_temperature(rho, h) == _local_inverse_temperature(rho.matrix, h)


def test_chi_from_local_measurement_matches_the_inline_check(states):
    """Local POVMs give the earlier value on every state, and a non-local
    one raises the earlier error on every call, not only the first."""
    rng = np.random.default_rng(29)
    local = [
        projective_energy_povm(local_qubit_hamiltonian(1.0), (2, 2)),
        projective_energy_povm(random_hamiltonian(2, rng), (2, 2)),
        local_povm(Povm([np.eye(2)]), random_projective_povm(2, rng)),
    ]
    nonlocal_povm = random_projective_povm(4, rng)
    for rho in states:
        for povm in local:
            assert chi_from_local_measurement(rho, povm) == _chi_from_local_measurement(rho, povm)
    for rho in states[::17]:
        with pytest.raises(ValueError) as expected:
            _chi_from_local_measurement(rho, nonlocal_povm)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            chi_from_local_measurement(rho, nonlocal_povm)


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


def _ginibre_draws():
    rng = np.random.default_rng(19)
    return [_ginibre(rng, dim, dim) for dim in (2, 4) for _ in range(50)]


def test_eigh_kernel_matches_numpy(states):
    """On the states, on their PSD square roots, and on Hermitian Ginibre
    products of dims 2 and 4 (the blocks random_general_povm sums)."""
    roots = [core._psd_sqrt(rho.matrix) for rho in states]
    products = [g @ g.conj().T for g in _ginibre_draws()]
    for m in [rho.matrix for rho in states] + roots + products:
        for kernel, reference in zip(core._eigh(m), np.linalg.eigh(m)):
            assert _same_bits(kernel, reference)


def test_singular_values_kernel_matches_numpy(states):
    """On the spin-flipped products that wootters_eof builds from _psd_sqrt,
    and on complex Ginibre draws of dims 2 and 4."""
    flipped = []
    for rho in states:
        root = core._psd_sqrt(rho.matrix)
        flipped.append(root.T @ SPIN_FLIP @ root)
    for m in flipped + _ginibre_draws():
        assert _same_bits(core._singular_values(m), np.linalg.svd(m, compute_uv=False))


def test_real_svd_kernel_matches_numpy(states):
    """On the 3x3 correlation blocks T of the states (the start directions
    of the chi ascent) and on real Gaussian matrices of dims 2 and 4."""
    blocks = [np.array([row[1:] for row in _bloch_data(rho.matrix)[1:]]) for rho in states]
    rng = np.random.default_rng(23)
    gaussian = [rng.standard_normal((dim, dim)) for dim in (2, 4) for _ in range(50)]
    for m in blocks + gaussian:
        for kernel, reference in zip(core._real_svd(m), np.linalg.svd(m)):
            assert _same_bits(kernel, reference)


@pytest.mark.parametrize(
    "gufunc, kernel, arg",
    [
        ("eigvalsh_lo", core._spectrum, np.full((4, 4), np.nan + 0j)),
        ("eigh_lo", core._eigh, np.full((4, 4), np.nan + 0j)),
        ("svd", core._singular_values, np.full((4, 4), np.nan + 0j)),
        ("svd_f", core._real_svd, np.full((3, 3), np.nan)),
    ],
)
def test_kernels_raise_on_nonconvergence(gufunc, kernel, arg):
    """A NaN entry makes the LAPACK solve fail for real: it fills the outputs
    with NaN and sets numpy's invalid flag. The kernels run under the caller's
    np.errstate, not the wrapper's, so the flag warns (or raises under
    invalid='raise') first; then each kernel raises LinAlgError as the
    wrapper does."""
    with pytest.warns(RuntimeWarning, match=f"invalid value encountered in {gufunc}"):
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            kernel(arg)
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError, match=gufunc):
        kernel(arg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (2, 1), (1, 2), (3, 0)])
def test_unchecked_matrices_with_a_non_finite_entry_raise(bad, entry):
    """wootters_eof and purify take any matrix, not only validated states;
    a non-finite entry anywhere raises LinAlgError, not a RuntimeWarning from
    the kernels."""
    m = np.eye(4, dtype=complex) / 4.0
    m[entry] = bad
    for f in (wootters_eof, core.purify):
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            f(m)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("dim, rank", [(2, 2), (4, 4), (4, 1), (4, 3)])
def test_one_draw_ginibre_keeps_the_two_draw_stream(seed, dim, rank):
    one, two = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = two.standard_normal((dim, rank)) + 1.0j * two.standard_normal((dim, rank))
    assert _same_bits(_ginibre(one, dim, rank), expected)
    assert one.bit_generator.state == two.bit_generator.state


@pytest.mark.parametrize("rows, cols", [(4, 4), (2, 2), (4, 1), (4, 2), (4, 3)])
def test_ginibre_fills_the_bits_of_the_complex_sum(rows, cols):
    """On 10 000 draws of each shape the generators take (random_unitary and
    the POVM blocks: 2x2 and 4x4; random_density_matrix: 4 x rank), the one
    preallocated array holds the bits of re + 1j * im from the same draw."""
    ours, theirs = np.random.default_rng([rows, cols]), np.random.default_rng([rows, cols])
    drawn = np.array([_ginibre(ours, rows, cols) for _ in range(10_000)])
    expected = []
    for _ in range(10_000):
        re, im = theirs.standard_normal((2, rows, cols))
        expected.append(re + 1.0j * im)
    assert _same_bits(drawn, np.array(expected))
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("dim", [2, 4])
def test_random_unitary_matches_the_numpy_qr_form(dim):
    """core._qr gives np.linalg.qr's Q and diagonal of R, and random_unitary
    the Haar form built from them, bit for bit."""
    ours, theirs = np.random.default_rng(dim), np.random.default_rng(dim)
    for _ in range(50):
        g = _ginibre(theirs, dim, dim)
        q, r = np.linalg.qr(g)
        kernel_q, r_diagonal = core._qr(g.copy())
        assert _same_bits(kernel_q, q) and _same_bits(r_diagonal, np.diag(r))
        phases = np.diag(r).copy()
        phases /= np.abs(phases)
        assert _same_bits(random_unitary(dim, ours), q * phases.conj())


# -- the measurement ----------------------------------------------------------


def _measure(rho, povm):
    """The earlier per-pair measure: probabilities, the kept outcomes, and
    the stack of their post-measurement states plus the channel output."""
    if povm.dim != rho.dim:
        raise ValueError(f"POVM dimension {povm.dim} != state dimension {rho.dim}")
    unnormalized = [m @ rho.matrix @ core.dagger(m) for m in povm.operators]
    probs = np.array([float(u.trace().real) for u in unnormalized])
    if probs.min() < -PROB_CUTOFF:
        raise ValueError(f"negative outcome probability {probs.min():.3e}")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"outcome probabilities sum to {total:.12g}")
    kept = [n for n, p in enumerate(probs) if p >= PROB_CUTOFF]
    stack = np.array([unnormalized[n] / probs[n] for n in kept] + [sum(unnormalized)])
    return probs, kept, stack


def _local_information_gain(record, side):
    avg = record.average(lambda s: core.marginal_entropy(s, side))
    return core.marginal_entropy(record.pre_state, side) - avg


def _correlations_lost(record):
    return core.mutual_information(record.pre_state) - record.average(core.mutual_information)


_ENERGY_POVM = projective_energy_povm(local_qubit_hamiltonian(1.0), (2, 2))

# every family of POVM the verify suites measure
POVM_FAMILIES = {
    "projective": lambda rng: random_projective_povm(4, rng),
    "two_outcome": lambda rng: random_two_outcome_projective(4, rng),
    "local_projective": lambda rng: random_local_projective_povm(rng),
    "local_projective_A": lambda rng: random_local_projective_povm(rng, side="A"),
    "local_projective_B": lambda rng: random_local_projective_povm(rng, side="B"),
    "local_general": random_local_general_povm,
    "general_3": lambda rng: random_general_povm(4, rng, 3),
    "unsharp_on_b": random_unsharp_on_b,
    "energy": lambda rng: _ENERGY_POVM,
}


def _eigenbasis_povm(rho):
    """Projectors onto the eigenvectors of ``rho``: on a rank-2 state two of
    the four outcomes fall below PROB_CUTOFF."""
    return Povm(_projectors(np.linalg.eigh(rho.matrix)[1]))


def _assert_matches_the_per_pair_measure(record, rho, povm):
    probs, kept, stack = _measure(rho, povm)
    assert record.pre_state is rho
    assert _same_bits(record.probabilities, probs)
    assert [n for n, s in enumerate(record.post_states) if s is not None] == kept
    derived = [record.post_states[n] for n in kept] + [record.channel_output]
    for state, m in zip(derived, stack):
        assert _same_bits(state.matrix, m)
        assert _same_bits(state._spectrum, np.linalg.eigvalsh(m))
        assert state.dims == rho.dims


# qubit POVMs for the dims-less qubit states of the mixed batch
QUBIT_POVM_FAMILIES = (
    lambda rng: random_projective_povm(2, rng),
    lambda rng: random_two_outcome_projective(2, rng),
    lambda rng: random_general_povm(2, rng, 3),
)


def _mixed_batch(states):
    """(state, POVM) pairs for the per-pair measure tests: the corpus, each
    state with a POVM of the families in turn (outcome counts 1 to 4), plus
    the rank-2 states measured in their eigenbasis, which drops outcomes
    below the cutoff.  Between them, every tenth pair is a qubit marginal
    without dims under a qubit POVM, or a corpus state on the split (4, 1)
    under a two-qubit POVM, so that the pairs mix state dimensions and
    dims."""
    rng = np.random.default_rng(31)
    families = list(POVM_FAMILIES.values())
    povms = [families[k % len(families)](rng) for k in range(len(states))]
    rank2 = states[STATES_PER_FAMILY : 2 * STATES_PER_FAMILY : 10]
    pairs = list(zip(states, povms)) + [(rho, _eigenbasis_povm(rho)) for rho in rank2]
    mixed = []
    for k, pair in enumerate(pairs):
        mixed.append(pair)
        if k % 10 == 3:
            rho = states[(7 * k) % len(states)]
            if k % 20 == 3:
                qubit = QUBIT_POVM_FAMILIES[(k // 20) % len(QUBIT_POVM_FAMILIES)]
                mixed.append((partial_trace(rho, "AB"[k % 2]), qubit(rng)))
            else:
                povm = families[k % len(families)](rng)
                mixed.append((DensityMatrix(rho.matrix, dims=(4, 1)), povm))
    return [rho for rho, _ in mixed], [povm for _, povm in mixed]


def test_stacked_measure_matches_the_per_pair_measure(states):
    """measure on every pair of the mixed batch (all families, both state
    dimensions, dropped outcomes), and on every state under each family,
    gives the reference per-pair arithmetic bit for bit."""
    batch_states, povms = _mixed_batch(states)
    assert {rho.dim for rho in batch_states} == {2, 4}
    assert {rho.dims for rho in batch_states} == {None, (2, 2), (4, 1)}
    records = [measure(rho, povm) for rho, povm in zip(batch_states, povms)]
    dropped = sum(s is None for r in records for s in r.post_states)
    assert dropped >= 2 * len(states[STATES_PER_FAMILY : 2 * STATES_PER_FAMILY : 10])
    for record, rho, povm in zip(records, batch_states, povms):
        _assert_matches_the_per_pair_measure(record, rho, povm)
    rng = np.random.default_rng(37)
    for name, family in POVM_FAMILIES.items():
        for rho in states:
            povm = family(rng)
            _assert_matches_the_per_pair_measure(measure(rho, povm), rho, povm)


def test_stacked_marginal_gains_match_the_inline_expressions(states):
    """local_information_gain and correlations_lost read the marginal
    entropies each record keeps; each equals the inline per-state
    expression, in any call order, and so does a record built by hand.  A
    record of a state without dims raises the per-state error instead."""
    batch_states, povms = _mixed_batch(states)
    records = [measure(rho, povm) for rho, povm in zip(batch_states, povms)]
    with_dims = [r for r in records if r.pre_state.dims is not None]
    for record in records:
        if record.pre_state.dims is None:
            with pytest.raises(ValueError, match="^state carries no bipartite dims"):
                local_information_gain(record, "A")
    for k, record in enumerate(with_dims):
        sides = ("A", "B") if k % 2 else ("B", "A")
        if k % 3 == 0:
            assert correlations_lost(record) == _correlations_lost(record)
        for side in sides:
            assert local_information_gain(record, side) == _local_information_gain(record, side)
        assert correlations_lost(record) == _correlations_lost(record)
    for record in with_dims[::7]:
        by_hand = MeasurementRecord(
            record.probabilities, record.post_states, record.pre_state, record.channel_output
        )
        assert correlations_lost(by_hand) == _correlations_lost(record)
        assert local_information_gain(by_hand, "A") == _local_information_gain(record, "A")


def _over_complete_pair():
    """|+><+| on two qubits and the one-outcome POVM sqrt(I + a J), J all
    ones, a = 0.9e-9: completeness holds to 1e-9 per entry, yet the one
    probability is 1 + 4a."""
    plus = DensityMatrix(np.full((4, 4), 0.25, dtype=complex), dims=(2, 2))
    return plus, Povm([core._psd_sqrt(np.eye(4) + 0.9e-9 * np.ones((4, 4)))])


def _negative_pair():
    """A state whose smallest eigenvalue, -5e-10, passes validation, under
    the computational POVM: one probability is -5e-10."""
    rho = DensityMatrix(np.diag([0.5 + 5e-10, 0.25, 0.25, -5e-10]).astype(complex), dims=(2, 2))
    eye = np.eye(4, dtype=complex)
    return rho, Povm([np.outer(eye[k], eye[k]) for k in range(4)])


def test_stacked_marginals_without_dims_raise_the_per_state_error(states):
    """A state without dims measures, but its marginal gains raise the
    per-state error, also between records of states with dims, which are
    unaffected."""
    flat = DensityMatrix(states[0].matrix)
    with pytest.raises(ValueError) as expected:
        _local_information_gain(measure(flat, _ENERGY_POVM), "A")
    assert str(expected.value).startswith("state carries no bipartite dims")
    records = [measure(rho, _ENERGY_POVM) for rho in (states[1], flat, states[2])]
    for f in (lambda r: local_information_gain(r, "A"), correlations_lost):
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            f(records[1])
    assert local_information_gain(records[0], "B") == _local_information_gain(records[0], "B")
    assert correlations_lost(records[2]) == _correlations_lost(records[2])
    with pytest.raises(ValueError, match="keep must be 'A' or 'B', got 'C'"):
        local_information_gain(records[0], "C")



# -- the leaves on Python floats and preallocated rows ------------------------


def _entropy_on_arrays(values):
    """The earlier entropy_of_eigenvalues: check, cutoff and weighted sum on
    numpy arrays."""
    w = np.asarray(values, dtype=float)
    lowest = float(w.min(initial=0.0))
    if lowest < -core.POSITIVITY_TOL:
        raise ValueError(f"eigenvalue {lowest:.3e} too negative for an entropy")
    nz = w[w >= ENTROPY_CUTOFF]
    if nz.size == 0:
        return 0.0
    return float(-(nz * np.log(nz)).sum())


def _outcome(f, values):
    """The float64 bits f returns, or the type and message of its error."""
    try:
        return np.float64(f(values)).tobytes()
    except ValueError as err:
        return type(err), str(err)


def _entropy_cases(states):
    rng = np.random.default_rng(43)
    below = np.nextafter(ENTROPY_CUTOFF, 0.0)
    cases = [rho.eigenvalues() for rho in states]
    for n in [*range(1, 9), 16]:
        for _ in range(50):
            p = rng.dirichlet(np.ones(n))
            cases.append(p)
            cases.append(p * 10.0 ** rng.integers(-14, 1, n))
    cases += [
        [], [1.0], [0.0], [-0.0], [0.0, 1.0], [-0.0, 1.0], [1.0, -0.0, 0.0],
        [ENTROPY_CUTOFF, 1.0 - ENTROPY_CUTOFF], [below, 1.0 - below], [ENTROPY_CUTOFF], [below],
        [-1e-9, 0.5, 0.5 + 1e-9], [-5e-10, -1e-12, 0.25, 0.75], [-0.0, -1e-9, 1.0],
        [-1.0000001e-9, 1.0], [0.5, -2e-9, 0.5], [-np.inf, 1.0], [np.inf, 0.5],
        np.array([[0.25, 0.25], [0.5, 0.0]]), np.array([[0.5, -2e-9], [0.5, 0.0]]),
        np.array(0.5), np.array(-1.0),
        np.full(16, 1.0 / 16), np.full(300, 1.0 / 300), rng.dirichlet(np.ones(1000)),
    ]
    return cases


def test_entropy_on_python_floats_matches_the_array_form(states):
    """Every spectrum without a NaN (lengths 1 to 8, 16 and longer, signed
    zeros, values at and just below the cutoff, round-off in [-1e-9, 0),
    infinities, any shape) gives the array form's bits, sign included, or its
    error."""
    cases = _entropy_cases(states)
    outcomes = [_outcome(entropy_of_eigenvalues, w) for w in cases]
    assert outcomes == [_outcome(_entropy_on_arrays, w) for w in cases]
    errors = [o for o in outcomes if isinstance(o, tuple)]
    assert (ValueError, "eigenvalue -2.000e-09 too negative for an entropy") in errors
    assert (ValueError, "eigenvalue -inf too negative for an entropy") in errors
    assert math.copysign(1.0, entropy_of_eigenvalues([1.0])) == -1.0  # a pure state gives -0.0
    assert math.copysign(1.0, entropy_of_eigenvalues([0.0, -0.0])) == 1.0


@pytest.mark.parametrize(
    "values",
    [
        [np.nan, 0.5, 0.5], [0.5, 0.5, np.nan], [np.nan, -1.0, 1.0], [-1.0, 1.0, np.nan],
        [np.nan], [np.nan] * 9, [0.1] * 8 + [np.nan] + [0.2] * 8,
        np.array([[np.nan, -1.0], [0.5, 0.5]]),
    ],
)
def test_entropy_raises_on_a_nan_anywhere(values):
    """A NaN in any position, beside valid or too-negative values, raises
    the one NaN error: the cutoff does not drop it, and a too-negative value
    does not report first."""
    with pytest.raises(ValueError, match="^NaN eigenvalue in the spectrum"):
        entropy_of_eigenvalues(values)


def _measure_restacked(rho, povm):
    """The earlier measure body: the checks on numpy arrays, then the kept
    post-states and Python's sum of the products, re-stacked by np.array,
    then one spectrum call."""
    if povm.dim != rho.dim:
        raise ValueError(f"POVM dimension {povm.dim} != state dimension {rho.dim}")
    products = povm._stack @ rho.matrix @ povm._dagger
    raw = products.trace(axis1=1, axis2=2).real
    if raw.min() < -PROB_CUTOFF:
        raise ValueError(f"negative outcome probability {raw.min():.3e}")
    probs = np.maximum(raw, 0.0)
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError(f"outcome probabilities sum to {probs.sum():.12g}")
    kept = probs >= PROB_CUTOFF
    rows = np.array([*(products[kept] / probs[kept, None, None]), sum(products)])
    return probs, kept.tolist(), rows, core._spectrum(rows)


def _assert_matches_the_restacked_measure(record, rho, povm):
    probs, kept, rows, spectra = _measure_restacked(rho, povm)
    assert _same_bits(record.probabilities, probs)
    assert [s is not None for s in record.post_states] == kept
    derived = [s for s in record.post_states if s is not None] + [record.channel_output]
    assert len(derived) == len(rows)
    for state, m, w in zip(derived, rows, spectra):
        assert _same_bits(state.matrix, m) and _same_bits(state._spectrum, w)
        assert state.dims == rho.dims
        assert not state.matrix.flags.writeable and not state._spectrum.flags.writeable


class _PlantedProducts:
    """Stands in for a Povm whose products M_n rho M_n^dag are a given stack:
    matmul never returns -0.0, so this is how a -0.0 product reaches measure."""

    def __init__(self, products):
        self.products = products
        self.dim = products.shape[-1]
        self._stack = self
        self._dagger = "dagger"

    def __matmul__(self, other):
        return self.products if other is self._dagger else self


def _planted_pairs(states):
    """Products of the energy measurement with -0.0 planted in entries that
    are zero in every outcome, in one outcome only, or in all but one."""
    rng = np.random.default_rng(47)
    pairs = []
    for rho in states[::10]:
        povm = _ENERGY_POVM
        products = povm._stack @ rho.matrix @ povm._dagger
        planted = products.copy()
        for m in planted:
            zeros = m == 0
            pick = zeros & (rng.random(m.shape) < 0.7)
            m.real[pick] = -0.0
            m.imag[zeros & (rng.random(m.shape) < 0.7)] = -0.0
        pairs.append((rho, _PlantedProducts(planted)))
    return pairs


def test_measure_into_preallocated_rows_matches_the_restacked_body(states):
    """The corpus under every POVM family, the mixed batch (dropped outcomes,
    both state dimensions) and stacks with planted -0.0 products give the
    earlier body's bits: a -0.0 entry of every product still sums to 0.0."""
    rng = np.random.default_rng(53)
    for name, family in POVM_FAMILIES.items():
        for rho in states[::3]:
            povm = family(rng)
            _assert_matches_the_restacked_measure(measure(rho, povm), rho, povm)
    batch_states, povms = _mixed_batch(states)
    for rho, povm in zip(batch_states, povms):
        _assert_matches_the_restacked_measure(measure(rho, povm), rho, povm)
    planted = _planted_pairs(states)
    signed_zeros = 0
    for rho, povm in planted:
        record = measure(rho, povm)
        _assert_matches_the_restacked_measure(record, rho, povm)
        every = (povm.products == 0) & np.signbit(povm.products.real)
        signed_zeros += int(every.all(axis=0).sum())
        assert not np.signbit(record.channel_output.matrix.real[every.all(axis=0)]).any()
    assert signed_zeros > 0
    eye = np.eye(8, dtype=complex)
    eight = Povm([np.outer(eye[k], eye[k]) for k in range(8)])  # a pairwise sum of 8
    rho = random_two_qubit_state(rng)
    spread = DensityMatrix(np.kron(rho.matrix, np.diag([0.3, 0.7])), dims=(4, 2))
    _assert_matches_the_restacked_measure(measure(spread, eight), spread, eight)
    for rho, povm in [(states[0], Povm([np.eye(2)])), _negative_pair(), _over_complete_pair()]:
        with pytest.raises(ValueError) as expected:
            _measure_restacked(rho, povm)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            measure(rho, povm)


def test_marginal_takes_its_spectrum_on_first_read(states, monkeypatch):
    """partial_trace takes no spectrum; the first read takes one, later reads
    none, and it equals the validated construction's spectrum."""
    calls = []
    spectrum = core._spectrum
    monkeypatch.setattr(core, "_spectrum", lambda m: calls.append(m.shape) or spectrum(m))
    for rho in states[::7]:
        for side in "AB":
            marginal = partial_trace(rho, side)
            assert calls == []
            first = marginal.eigenvalues()
            assert calls == [(2, 2)]
            assert von_neumann_entropy(marginal) == entropy_of_eigenvalues(first)
            assert _same_bits(marginal.eigenvalues(), first)
            assert calls == [(2, 2)]
            validated = DensityMatrix(marginal.matrix, marginal.dims)
            assert _same_bits(marginal._spectrum, validated._spectrum)
            assert not marginal._spectrum.flags.writeable
            calls.clear()


# -- product POVMs, validated once --------------------------------------------

# The earlier builders validated each factor as a Povm of its own, then the
# product of their operators through local_povm.


def _local_povm(povm_a, povm_b):
    return Povm([np.kron(m_a, m_b) for m_a in povm_a.operators for m_b in povm_b.operators])


def _validated_projective_povm(dim, rng):
    u = random_unitary(dim, rng)
    return Povm([u[:, k, None] * u[:, k].conj() for k in range(dim)])


def _validated_local_projective_povm(rng, side=None):
    trivial = Povm([np.eye(2, dtype=complex)])
    basis_a = _validated_projective_povm(2, rng)
    basis_b = _validated_projective_povm(2, rng)
    if side == "A":
        return _local_povm(basis_a, trivial)
    if side == "B":
        return _local_povm(trivial, basis_b)
    return _local_povm(basis_a, basis_b)


def _validated_general_povm(dim, rng, n_outcomes):
    blocks = [g @ core.dagger(g) for g in (_ginibre(rng, dim, dim) for _ in range(n_outcomes))]
    w, v = np.linalg.eigh(sum(blocks))
    inv_sqrt = (v / np.sqrt(w)) @ core.dagger(v)
    return Povm([core._psd_sqrt(inv_sqrt @ b @ inv_sqrt) for b in blocks])


def _validated_local_general_povm(rng):
    return _local_povm(_validated_general_povm(2, rng, 2), _validated_general_povm(2, rng, 2))


def _validated_unsharp_on_b(rng):
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    pauli = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    ops = [core._psd_sqrt(0.5 * (np.eye(2) + sign * pauli)) for sign in (1.0, -1.0)]
    return _local_povm(Povm([np.eye(2, dtype=complex)]), Povm(ops))


@pytest.mark.parametrize(
    "ours, validated",
    [
        (lambda rng: random_local_projective_povm(rng), _validated_local_projective_povm),
        (
            lambda rng: random_local_projective_povm(rng, side="A"),
            lambda rng: _validated_local_projective_povm(rng, side="A"),
        ),
        (
            lambda rng: random_local_projective_povm(rng, side="B"),
            lambda rng: _validated_local_projective_povm(rng, side="B"),
        ),
        (random_local_general_povm, _validated_local_general_povm),
        (random_unsharp_on_b, _validated_unsharp_on_b),
        (lambda rng: random_projective_povm(4, rng), lambda rng: _validated_projective_povm(4, rng)),
        (
            lambda rng: random_general_povm(4, rng, 3),
            lambda rng: _validated_general_povm(4, rng, 3),
        ),
    ],
)
def test_product_povms_match_the_validated_factor_builders(ours, validated):
    """The same operators, bit for bit, from the same draws: the generator's
    next draw agrees too, also after the unused basis of a one-sided draw."""
    rng_ours, rng_validated = np.random.default_rng(43), np.random.default_rng(43)
    for _ in range(60):
        povm, expected = ours(rng_ours), validated(rng_validated)
        assert _same_bits(np.array(povm.operators), np.array(expected.operators))
        assert rng_ours.bit_generator.state == rng_validated.bit_generator.state
    assert rng_ours.standard_normal() == rng_validated.standard_normal()


# -- the verify suites, measured pair by pair ---------------------------------


def _mixed_povm(rng, k):
    kind = k % 5
    if kind == 0:
        return _validated_projective_povm(4, rng)
    if kind == 1:
        return _validated_local_projective_povm(rng)
    if kind == 2:
        return _validated_general_povm(4, rng, 3)
    if kind == 3:
        return _validated_local_general_povm(rng)
    return _validated_unsharp_on_b(rng)


def _projective_povm(rng, k):
    kind = k % 3
    if kind == 0:
        return _validated_projective_povm(4, rng)
    if kind == 1:
        return random_two_outcome_projective(4, rng)
    return _validated_local_projective_povm(rng)


def _local_projective(rng, k):
    return _validated_local_projective_povm(rng, side=(None, "A", "B")[k % 3])


def _per_pair(rng, n, draw_povm, seen):
    """Each state measured as it is drawn, before the next draw; ``seen``
    collects the pairs."""
    for k in range(n):
        rho = random_two_qubit_state(rng)
        povm = draw_povm(rng, k)
        seen.append((rho, povm))
        yield measure(rho, povm)


def _ref_dimension_bound(rng, n, seen):
    for record in _per_pair(rng, n, _mixed_povm, seen):
        rhs = np.log(4.0) - core.mutual_information(record.pre_state)
        yield rhs - information_gain(record)


def _ref_gain_decomposition(rng, n, seen):
    def draw(rng, k):
        return _validated_local_general_povm(rng) if k % 2 else _local_projective(rng, k)

    for record in _per_pair(rng, n, draw, seen):
        lost = _correlations_lost(record)
        lhs = information_gain(record)
        rhs = _local_information_gain(record, "A") + _local_information_gain(record, "B") - lost
        yield lhs - rhs


def _ref_correlations_lost(rng, n, seen):
    for record in _per_pair(rng, n, _local_projective, seen):
        yield _correlations_lost(record)


def _ref_gain_subadditivity(rng, n, seen):
    for record in _per_pair(rng, n, _local_projective, seen):
        lhs = information_gain(record)
        rhs = _local_information_gain(record, "A") + _local_information_gain(record, "B")
        yield rhs - lhs


def _ref_gain_nonneg_rank_one(rng, n, seen):
    for record in _per_pair(rng, n, lambda rng, k: _validated_projective_povm(4, rng), seen):
        yield information_gain(record)


def _ref_holevo_closure(rng, n, seen):
    for record in _per_pair(rng, n, _mixed_povm, seen):
        yield holevo_of_measurement(record) - information_gain(record) - entropy_cost(record)


def _ref_delta_projective(rng, n, seen):
    for record in _per_pair(rng, n, _projective_povm, seen):
        yield entropy_cost(record)


def _ref_coherence_gap(rng, n, seen):
    for _ in range(n):
        rho = random_two_qubit_state(rng)
        u_a = random_unitary(2, rng)
        u_b = random_unitary(2, rng)
        proj_a = Povm([np.outer(u_a[:, i], u_a[:, i].conj()) for i in range(2)])
        proj_b = Povm([np.outer(u_b[:, i], u_b[:, i].conj()) for i in range(2)])
        povm = _local_povm(proj_a, proj_b)
        seen.append((rho, povm))
        record = measure(rho, povm)
        gap = holevo_of_measurement(record) - information_gain(record)
        yield gap - relative_entropy_of_coherence(rho.matrix, np.kron(u_a, u_b))


def _ref_energy_measurement_structure(rng, n, seen):
    for record in _per_pair(rng, n, lambda rng, k: _ENERGY_POVM, seen):
        for s in record.post_states:
            if s is not None:
                yield core.marginal_entropy(s, "B")
                yield core.mutual_information(s)


def _ref_local_gain_identity(rng, n, seen):
    """chi_B measured a second time, through chi_from_local_measurement."""
    for record in _per_pair(rng, n, lambda rng, k: _ENERGY_POVM, seen):
        rho = record.pre_state
        chi_b = chi_from_local_measurement(rho, _ENERGY_POVM)
        s_b = core.marginal_entropy(rho, "B")
        yield information_gain(record) - (chi_b + s_b - core.mutual_information(rho))


REFERENCE_SUITES = {
    "dimension_bound": _ref_dimension_bound,
    "gain_decomposition": _ref_gain_decomposition,
    "correlations_lost_nonneg": _ref_correlations_lost,
    "gain_subadditivity": _ref_gain_subadditivity,
    "gain_nonneg_rank_one": _ref_gain_nonneg_rank_one,
    "holevo_closure": _ref_holevo_closure,
    "delta_projective": _ref_delta_projective,
    "coherence_gap": _ref_coherence_gap,
    "energy_measurement_structure": _ref_energy_measurement_structure,
    "local_gain_identity": _ref_local_gain_identity,
}


@pytest.mark.parametrize("seed", [5, 2027])
@pytest.mark.parametrize("name", list(REFERENCE_SUITES))
def test_stacked_suites_match_the_per_pair_loop(name, seed, monkeypatch):
    """Each measuring suite, one measure call per draw, measures the
    reference loop's states and POVMs (coherence_gap's product bases
    included), in its order, gives its SuiteResult and leaves the generator
    where the loop does."""
    index, run = next((i, run) for i, (n, run, _) in enumerate(SUITES) if n == name)
    measured = []

    def spy(rho, povm):
        measured.append((rho, povm))
        return measure(rho, povm)

    monkeypatch.setattr(verify, "measure", spy)
    rng, rng_ref = np.random.default_rng([seed, index]), np.random.default_rng([seed, index])
    result = run(rng, 20)
    seen = []
    values = np.asarray(list(REFERENCE_SUITES[name](rng_ref, 20, seen)), dtype=float)
    assert len(measured) == len(seen) == 20
    for (rho, povm), (rho_ref, povm_ref) in zip(measured, seen):
        assert _same_bits(rho.matrix, rho_ref.matrix)
        assert _same_bits(np.array(povm.operators), np.array(povm_ref.operators))
    if result.kind == "slack":
        failures, worst = (values < -result.tolerance).sum(), values.min()
    else:
        values = np.abs(values)
        failures, worst = (values > result.tolerance).sum(), values.max()
    expected = SuiteResult(
        name, values.size, int(failures), float(worst), result.tolerance, result.kind
    )
    assert result == expected
    assert rng.bit_generator.state == rng_ref.bit_generator.state


# -- trajectory_invariants ----------------------------------------------------

_X_PATTERN = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]


def _ref_effective_c(m):
    """The earlier body of effective_c."""
    c = 1.0 - float((PSI_MINUS.conj() @ m @ PSI_MINUS).real)
    return min(max(c, 0.0), 1.0)


def _ref_trajectory_score(rho0, states, x_input):
    """The earlier per-state loop of trajectory_invariants, with the earlier
    bodies of effective_c and max_non_x_magnitude, scored at the positivity
    floor POSITIVITY_TOL."""
    effective_c = _ref_effective_c
    c0 = effective_c(rho0.matrix)
    lowest = core._spectrum(states)[:, 0]
    trace_dev = np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0)
    worst = max(
        float(trace_dev.max()) / 1e-9, max(0.0, -float(lowest.min())) / core.POSITIVITY_TOL
    )
    for state in states:
        worst = max(worst, abs(effective_c(state) - c0) / 1e-6)
        if x_input:
            worst = max(worst, float(np.abs(state[~_X_PATTERN]).max()) / 1e-10)
    return worst


@pytest.mark.parametrize("seed", [5, 2027])
def test_trajectory_suite_matches_the_per_state_loop(seed):
    """trajectory_invariants, one array pass per invariant, gives the
    SuiteResult of the per-state loop on the same X-shaped and generic
    trajectories, and leaves the generator where the loop does."""
    index, run = next(
        (i, run) for i, (n, run, _) in enumerate(SUITES) if n == "trajectory_invariants"
    )
    rng, rng_ref = np.random.default_rng([seed, index]), np.random.default_rng([seed, index])
    result = run(rng, 4)
    values = []
    for k in range(4):
        rho0 = random_x_state(rng_ref) if k % 2 == 0 else random_two_qubit_state(rng_ref)
        states = evolve(rho0, ModelParams(), dt=0.005, t_max=4.0).states
        values.append(_ref_trajectory_score(rho0, states, k % 2 == 0))
    worst = max(values)
    assert result == SuiteResult(
        "trajectory_invariants", 4, int(worst > 1.0), worst, 1.0, "residual"
    )
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def _dominated_trajectories():
    """(rho0, states, x_input, term) of trajectories in which one of the four
    scores is the largest: each is an evolved trajectory with one state or
    all of them nudged off one invariant."""
    rng = np.random.default_rng(41)
    ground = core.pure_state(KET_GG, dims=(2, 2))  # its singlet weight stays exactly 0
    starts = [(random_x_state(rng), True), (random_two_qubit_state(rng), False), (ground, True)]
    cases = []
    for rho0, x_input in starts:
        states = evolve(rho0, ModelParams(), dt=0.005, t_max=1.0).states
        cases.append((rho0, states, x_input, "as evolved"))
        cases.append((rho0, states * (1.0 + 3e-9), x_input, "trace"))
        ground_to_singlet = np.outer(PSI_MINUS, PSI_MINUS) - np.outer(KET_GG, KET_GG)
        cases.append((rho0, states + 1e-7 * ground_to_singlet, x_input, "singlet weight"))
        if x_input:
            off_x = np.zeros((4, 4), dtype=complex)
            off_x[0, 1] = off_x[1, 0] = 1e-11
            cases.append((rho0, states + off_x, True, "X shape"))
    # below the positivity floor in one state, trace and singlet weight kept
    states = evolve(ground, ModelParams(), dt=0.005, t_max=1.0).states.copy()
    w, v = np.linalg.eigh(states[50])
    states[50] += 3e-9 * (np.outer(KET_GG, KET_GG) - np.outer(v[:, 0], v[:, 0].conj()))
    cases.append((ground, states, False, "positivity"))
    return cases


def test_trajectory_score_matches_the_per_state_loop_when_any_term_dominates():
    cases = _dominated_trajectories()
    for rho0, states, _, _ in cases:
        per_state = [_ref_effective_c(m) for m in states]
        assert _same_bits(_effective_cs(states), np.array(per_state))
        assert [effective_c(m) for m in states] == per_state
        assert effective_c(rho0) == _ref_effective_c(rho0.matrix)
    scores = [verify._trajectory_score(rho0, states, x) for rho0, states, x, _ in cases]
    expected = [_ref_trajectory_score(rho0, states, x) for rho0, states, x, _ in cases]
    assert scores == expected
    # the nudged invariant is the one that sets the score
    for (_, _, _, term), score in zip(cases, scores):
        if term in ("trace", "positivity"):
            assert 2.0 < score < 4.0
        elif term in ("singlet weight", "X shape"):
            assert 0.05 < score < 0.2
