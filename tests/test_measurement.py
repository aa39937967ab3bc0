import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qthermo import (
    DensityMatrix,
    Hamiltonian,
    Povm,
    correlations_lost,
    entropy_cost,
    holevo_of_measurement,
    information_gain,
    local_information_gain,
    local_povm,
    measure,
    projective_energy_povm,
    pure_state,
    von_neumann_entropy,
)
from qthermo import cli, core, correlations, measurement, relations
from qthermo.cli import RunConfig, sweep_rows
from qthermo.core import SIGMA_X
from qthermo.dissipation import ModelParams, analytic_steady_state, local_qubit_hamiltonian

from conftest import LN2, clear_memos, memo_misses

E_PROJ = np.diag([1.0, 0.0]).astype(complex)  # |e><e| in the (e, g) basis
G_PROJ = np.diag([0.0, 1.0]).astype(complex)


def computational_povm(dim):
    eye = np.eye(dim, dtype=complex)
    return Povm([np.outer(eye[:, k], eye[:, k]) for k in range(dim)])


@pytest.fixture
def energy_povm_b(qubit_h):
    return projective_energy_povm(qubit_h, (2, 2))


class TestPovm:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError, match="completeness"):
            Povm([E_PROJ])

    def test_dimension_consistency(self):
        with pytest.raises(ValueError, match="dimension"):
            Povm([np.eye(2, dtype=complex), np.zeros((4, 4), dtype=complex)])

    def test_rejects_non_finite_entry(self):
        with pytest.raises(ValueError, match="non-finite"):
            Povm([np.diag([np.nan, 1.0]).astype(complex), np.diag([0.0, 0.0]).astype(complex)])

    def test_operators_are_read_only_copies(self):
        """A write to the source arrays after construction cannot break the
        completeness already checked, and the kept operators refuse writes."""
        ops = [E_PROJ.copy(), G_PROJ.copy()]
        povm = Povm(ops)
        ops[0][0, 0] = 5.0
        assert isinstance(povm.operators, tuple)
        assert_allclose(povm.operators[0], E_PROJ, atol=0)
        with pytest.raises(ValueError, match="read-only"):
            povm.operators[0][0, 0] = 5.0
        record = measure(DensityMatrix(np.eye(2, dtype=complex) / 2), povm)
        assert_allclose(record.probabilities, [0.5, 0.5], atol=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPovmValidationOrder:
    """Checks run in the order: non-finite entries, no operators, mixed
    dimensions, completeness."""

    @pytest.mark.parametrize(
        "ops, message",
        [
            ([], "at least one"),
            ([np.diag([np.nan, 1.0]), G_PROJ], "non-finite"),
            ([np.eye(2), np.zeros((4, 4))], "single dimension"),
            # mixed shapes do not stack, yet the non-finite entry is still reported first
            ([np.eye(2), np.full((4, 4), np.inf)], "non-finite"),
            ([E_PROJ, np.sqrt(1.0 + 1e-8) * G_PROJ], "completeness"),
        ],
    )
    def test_first_failing_check_is_reported(self, ops, message):
        with pytest.raises(ValueError, match=message):
            Povm([np.asarray(m, dtype=complex) for m in ops])

    def test_deviation_within_tolerance_accepted(self):
        povm = Povm([E_PROJ, np.sqrt(1.0 + 1e-10) * G_PROJ])
        assert len(povm) == 2 and povm.dim == 2


class TestMeasure:
    def test_projectors_on_ground_state(self):
        ground = pure_state([0.0, 1.0])  # |g> in the (e, g) basis
        record = measure(ground, Povm([G_PROJ, E_PROJ]))
        assert_allclose(record.probabilities, [1.0, 0.0], atol=1e-12)
        assert_allclose(record.post_states[0].matrix, ground.matrix, atol=1e-12)
        assert record.post_states[1] is None  # null marker for a dead outcome
        flipped = measure(ground, Povm([E_PROJ, G_PROJ]))
        assert flipped.post_states[0] is None
        assert_allclose(flipped.post_states[1].matrix, ground.matrix, atol=1e-12)

    def test_average_skips_dead_outcomes(self):
        record = measure(pure_state([0.0, 1.0]), Povm([G_PROJ, E_PROJ]))
        # the dead outcome is skipped, not passed to f as None
        assert record.average(lambda s: s.dim) == record.probabilities[0] * 2

    def test_symmetric_outcome_split(self):
        record = measure(DensityMatrix(np.eye(2, dtype=complex) / 2), computational_povm(2))
        assert_allclose(record.probabilities, [0.5, 0.5], atol=1e-12)

    def test_product_projectors_dephase_the_state(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real, dims=(2, 2))
        povm = local_povm(computational_povm(2), computational_povm(2))
        record = measure(rho, povm)
        assert_allclose(
            record.channel_output.matrix, np.diag(np.diag(rho.matrix)), atol=1e-12
        )

    def test_channel_output_is_outcome_average(self, rng, bell_state, energy_povm_b):
        record = measure(bell_state, energy_povm_b)
        avg = sum(
            p * s.matrix
            for p, s in zip(record.probabilities, record.post_states)
            if s is not None
        )
        assert np.abs(record.channel_output.matrix - avg).max() < 1e-9

    def test_dimension_mismatch(self, bell_state):
        with pytest.raises(ValueError, match="dimension"):
            measure(bell_state, computational_povm(2))

    def test_shared_parts_refuse_writes(self, bell_state, energy_povm_b):
        """The probabilities are read-only, the post-states a tuple and the
        record frozen, so no caller can change what the other records of the
        pair read."""
        record = measure(bell_state, energy_povm_b)
        assert isinstance(record.post_states, tuple)
        with pytest.raises(ValueError, match="read-only"):
            record.probabilities[0] = 1.0
        with pytest.raises(TypeError):
            record.post_states[0] = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.post_states = ()

    def test_invalid_outcomes_raise_their_exact_messages(self):
        """A dimension mismatch; a state whose smallest eigenvalue, -5e-10,
        passes validation, under the computational POVM; and |+><+| under the
        one-outcome POVM sqrt(I + a J), J all ones, a = 0.9e-9, complete to
        1e-9 per entry, whose one probability is 1 + 4a."""
        plus = DensityMatrix(np.full((4, 4), 0.25, dtype=complex), dims=(2, 2))
        with pytest.raises(ValueError, match=r"^POVM dimension 2 != state dimension 4$"):
            measure(plus, Povm([np.eye(2)]))
        negative = np.diag([0.5 + 5e-10, 0.25, 0.25, -5e-10]).astype(complex)
        with pytest.raises(ValueError, match=r"^negative outcome probability -5\.000e-10$"):
            measure(DensityMatrix(negative, dims=(2, 2)), computational_povm(4))
        over_complete = Povm([core._psd_sqrt(np.eye(4) + 0.9e-9 * np.ones((4, 4)))])
        with pytest.raises(ValueError, match=r"^outcome probabilities sum to 1\.0000000036"):
            measure(plus, over_complete)


class TestInformationGain:
    def test_rank_one_projective_gains_full_entropy(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real, dims=(2, 2))
        record = measure(rho, computational_povm(4))
        assert_allclose(information_gain(record), von_neumann_entropy(rho), atol=1e-12)

    def test_maximally_mixed_under_energy_measurement(self, energy_povm_b):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0, dims=(2, 2))
        record = measure(rho, energy_povm_b)
        assert_allclose(information_gain(record), LN2, atol=1e-12)

    def test_bell_state_gains_nothing(self, bell_state, energy_povm_b):
        record = measure(bell_state, energy_povm_b)
        assert_allclose(information_gain(record), 0.0, atol=1e-12)


class TestEntropyCost:
    def test_commuting_projectors_cost_nothing(self):
        rho = DensityMatrix(np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex), dims=(2, 2))
        record = measure(rho, computational_povm(4))
        assert_allclose(entropy_cost(record), 0.0, atol=1e-12)

    def test_bell_state_costs_ln2(self, bell_state):
        povm = local_povm(computational_povm(2), computational_povm(2))
        record = measure(bell_state, povm)
        # S(rho_diag) = ln 2, S(rho) = 0
        assert_allclose(entropy_cost(record), LN2, atol=1e-12)


class TestHolevo:
    def test_diagonal_state_closure_with_zero_cost(self):
        rho = DensityMatrix(np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex), dims=(2, 2))
        record = measure(rho, computational_povm(4))
        assert_allclose(holevo_of_measurement(record), von_neumann_entropy(rho), atol=1e-12)

    def test_bell_state_strictly_exceeds_gain(self, bell_state):
        povm = local_povm(computational_povm(2), computational_povm(2))
        record = measure(bell_state, povm)
        chi = holevo_of_measurement(record)
        assert_allclose(chi, LN2, atol=1e-12)
        assert chi > information_gain(record) + 0.5

    def test_closure_identity(self, rng, energy_povm_b):
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        m = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real, dims=(2, 2))
        record = measure(rho, energy_povm_b)
        assert_allclose(
            holevo_of_measurement(record),
            information_gain(record) + entropy_cost(record),
            atol=1e-9,
        )


class TestDerivedStates:
    """Post-measurement states and channel outputs are not re-validated;
    their spectra come from one stacked call."""

    def test_non_converged_spectrum_in_the_stack_raises(self, monkeypatch, bell_state, energy_povm_b):
        """LAPACK leaves NaN where it does not converge; one such matrix in
        measure's stack of post-measurement states raises."""
        solve = core._umath_linalg.eigvalsh_lo

        def one_fails(m, signature):
            w = solve(m, signature=signature)
            if w.ndim == 2:
                w[1] = np.nan
            return w

        monkeypatch.setattr(core._umath_linalg, "eigvalsh_lo", one_fails)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            measure(bell_state, energy_povm_b)


class TestLocalPovm:
    def test_product_of_computational_bases(self):
        povm = local_povm(computational_povm(2), computational_povm(2))
        assert len(povm) == 4
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert_allclose(povm.operators[0], expected, atol=1e-12)

    def test_identity_times_measurement(self, qubit_h, energy_povm_b):
        # same operators as the energy measurement on B, up to outcome order
        trivial = Povm([np.eye(2, dtype=complex)])
        povm = local_povm(trivial, computational_povm(2))
        for ours, theirs in zip(povm.operators, reversed(energy_povm_b.operators)):
            assert_allclose(ours, theirs, atol=1e-12)

    def test_square_root_pair_completeness(self):
        # direct summation check for ((I +/- sigma_x)/2)^{1/2}
        ops = []
        for sign in (1.0, -1.0):
            e = 0.5 * (np.eye(2) + sign * SIGMA_X)
            w, v = np.linalg.eigh(e)
            ops.append((v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T)
        total = sum(op.conj().T @ op for op in ops)
        assert np.abs(total - np.eye(2)).max() < 1e-12
        pair = Povm(ops)
        product = local_povm(pair, pair)
        assert len(product) == 4


class TestProjectiveEnergyPovm:
    def test_side_b(self, qubit_h, energy_povm_b):
        # eigenvalues ascend, so the ground projector comes first
        assert_allclose(energy_povm_b.operators[0], np.kron(np.eye(2), G_PROJ), atol=1e-12)
        assert_allclose(energy_povm_b.operators[1], np.kron(np.eye(2), E_PROJ), atol=1e-12)

    def test_completeness(self, energy_povm_b):
        total = sum(m.conj().T @ m for m in energy_povm_b.operators)
        assert_allclose(total, np.eye(4), atol=1e-12)

    def test_built_once_per_hamiltonian(self, qubit_h, energy_povm_b):
        """The POVM is validated once and shared; another Hamiltonian with the
        same matrix, or another d_A, gets its own."""
        assert projective_energy_povm(qubit_h, (2, 2)) is energy_povm_b
        vecs = qubit_h.eigenvectors
        fresh = Povm([np.kron(np.eye(2), np.outer(vecs[:, k], vecs[:, k].conj())) for k in range(2)])
        for ours, theirs in zip(energy_povm_b.operators, fresh.operators):
            assert ours.tobytes() == theirs.tobytes()
        assert projective_energy_povm(Hamiltonian(qubit_h.matrix), (2, 2)) is not energy_povm_b
        wider = projective_energy_povm(qubit_h, (3, 2))
        assert wider is not energy_povm_b and wider.dim == 6

    def test_dimension_mismatch_raises_on_every_call(self, qubit_h, energy_povm_b):
        for _ in range(2):
            with pytest.raises(ValueError, match="dimension 2 != dimension 3 of B"):
                projective_energy_povm(qubit_h, (2, 3))


class TestLocalInformationGain:
    def test_product_state_side_a_untouched(self, qubit_h, energy_povm_b):
        a = np.diag([0.3, 0.7]).astype(complex)
        b = np.diag([0.6, 0.4]).astype(complex)
        rho = DensityMatrix(np.kron(a, b), dims=(2, 2))
        record = measure(rho, energy_povm_b)
        assert_allclose(local_information_gain(record, "A"), 0.0, atol=1e-12)

    def test_bell_state_side_a(self, bell_state, energy_povm_b):
        record = measure(bell_state, energy_povm_b)
        assert_allclose(local_information_gain(record, "A"), LN2, atol=1e-12)

    def test_side_b_equals_marginal_entropy(self, rng, energy_povm_b):
        g = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        m = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real, dims=(2, 2))
        record = measure(rho, energy_povm_b)
        from qthermo import partial_trace

        assert_allclose(
            local_information_gain(record, "B"),
            von_neumann_entropy(partial_trace(rho, "B")),
            atol=1e-9,
        )

    def test_missing_dims(self, energy_povm_b):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
        record = measure(rho, energy_povm_b)
        with pytest.raises(ValueError, match="dims"):
            local_information_gain(record, "A")


class TestCorrelationsLost:
    def test_product_state_loses_nothing(self, energy_povm_b):
        a = np.diag([0.3, 0.7]).astype(complex)
        rho = DensityMatrix(np.kron(a, a), dims=(2, 2))
        record = measure(rho, energy_povm_b)
        assert_allclose(correlations_lost(record), 0.0, atol=1e-12)

    def test_bell_state_loses_everything(self, bell_state, energy_povm_b):
        record = measure(bell_state, energy_povm_b)
        assert_allclose(correlations_lost(record), 2 * LN2, atol=1e-12)

    def test_trivial_povm_loses_nothing(self, bell_state):
        record = measure(bell_state, Povm([np.eye(4, dtype=complex)]))
        assert_allclose(correlations_lost(record), 0.0, atol=1e-12)


def _record_bits(record) -> list:
    """Every value a record gives, as bytes or float.hex: the probabilities,
    the post-state and channel-output matrices and spectra, and the derived
    entropies."""
    derived = [s for s in record.post_states if s is not None] + [record.channel_output]
    return [
        record.probabilities.tobytes(),
        [s is None for s in record.post_states],
        [(s.matrix.tobytes(), s.eigenvalues().tobytes()) for s in derived],
        float.hex(information_gain(record)),
        float.hex(local_information_gain(record, "A")),
        float.hex(local_information_gain(record, "B")),
        float.hex(correlations_lost(record)),
    ]


def _cold_bits(rho, povm) -> list:
    """``_record_bits`` with each derived entropy taken on an empty memo, so
    no value is read from one filled for another."""
    reads = [
        lambda r: _record_bits(r)[:3],
        lambda r: float.hex(information_gain(r)),
        lambda r: float.hex(local_information_gain(r, "A")),
        lambda r: float.hex(local_information_gain(r, "B")),
        lambda r: float.hex(correlations_lost(r)),
    ]
    bits = []
    for read in reads:
        clear_memos()
        value = read(measure(rho, povm))
        bits.extend(value if isinstance(value, list) else [value])
    return bits


class TestMemoizedOutcomes:
    """measure works out the outcomes of the last (state, POVM) pair it met
    once, and the records of that pair share their derived entropies.  The
    memo may not change a value, serve a pair it was not made for, or keep
    an invalid pair."""

    @pytest.mark.parametrize("beta_e", [10.0, 1.0])
    def test_warm_values_are_the_cold_bits_on_the_default_grid(self, beta_e):
        params = ModelParams(beta_e=beta_e)
        h_b = local_qubit_hamiltonian(params.omega)
        for c in RunConfig(beta_e=beta_e).c_grid().tolist():
            rho = analytic_steady_state(c, params)
            povm = projective_energy_povm(h_b, rho.dims)
            cold = _cold_bits(rho, povm)
            _record_bits(measure(rho, povm))  # fill every derived entropy
            misses = memo_misses()
            assert _record_bits(measure(rho, povm)) == cold
            assert memo_misses() == misses  # every warm value came from the memo

    def test_equal_bytes_or_another_povm_is_a_new_pair(self, rng, energy_povm_b):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real, dims=(2, 2))
        twin = DensityMatrix(rho.matrix, dims=(2, 2))
        assert twin.matrix.tobytes() == rho.matrix.tobytes()
        same_operators = Povm(energy_povm_b.operators)
        other = local_povm(computational_povm(2), computational_povm(2))
        clear_memos()
        warm = _record_bits(measure(rho, energy_povm_b))
        for state, povm in [(twin, energy_povm_b), (rho, same_operators), (rho, other)]:
            misses = memo_misses()["outcomes"]
            bits = _record_bits(measure(state, povm))
            assert memo_misses()["outcomes"] == misses + 1
            assert bits == _cold_bits(state, povm)
        assert _record_bits(measure(twin, energy_povm_b)) == warm
        assert _record_bits(measure(rho, same_operators)) == warm
        assert _record_bits(measure(rho, other)) != warm

    def test_an_invalid_pair_raises_on_every_call_and_is_not_kept(self, bell_state, energy_povm_b):
        negative = DensityMatrix(
            np.diag([0.5 + 5e-10, 0.25, 0.25, -5e-10]).astype(complex), dims=(2, 2)
        )
        invalid = [
            (bell_state, computational_povm(2), r"^POVM dimension 2 != state dimension 4$"),
            (negative, computational_povm(4), r"^negative outcome probability -5\.000e-10$"),
        ]
        clear_memos()
        measure(bell_state, energy_povm_b)
        for rho, povm, message in invalid:
            for _ in range(2):
                misses = memo_misses()["outcomes"]
                with pytest.raises(ValueError, match=message):
                    measure(rho, povm)
                assert memo_misses()["outcomes"] == misses + 1  # the body ran again
        info = measurement._outcomes.cache_info()
        assert info.currsize == 1
        measure(bell_state, energy_povm_b)  # the valid pair is still the one kept
        assert measurement._outcomes.cache_info().hits == info.hits + 1

    @pytest.mark.parametrize("beta_e", [10.0, 1.0])
    def test_one_kernel_run_per_sweep_row(self, monkeypatch, beta_e):
        """A sweep row measures its state 7 times with one POVM; the outcomes
        are worked out once per row, and the memo keeps one entry."""
        calls = {"measure": 0}
        original = measurement.measure

        def counted(*args):
            calls["measure"] += 1
            return original(*args)

        for module in (cli, correlations, measurement, relations):
            if getattr(module, "measure", None) is original:
                monkeypatch.setattr(module, "measure", counted)
        clear_memos()
        rows = sweep_rows(RunConfig(beta_e=beta_e, c_step=0.25))
        assert len(rows) == 5
        assert calls == {"measure": 35}
        assert memo_misses()["outcomes"] == 5
        assert measurement._outcomes.cache_info().currsize == 1

    def test_each_call_returns_a_new_record(self, bell_state, energy_povm_b):
        """Only the read-only outcomes and the derived entropies are shared;
        the record and its post-state and channel-output objects are new."""
        first, second = measure(bell_state, energy_povm_b), measure(bell_state, energy_povm_b)
        assert first is not second
        assert first.channel_output is not second.channel_output
        for a, b in zip(first.post_states, second.post_states):
            assert a is not b and a.matrix.tobytes() == b.matrix.tobytes()
        assert first.pre_state is second.pre_state is bell_state
        assert first._entropies is second._entropies
