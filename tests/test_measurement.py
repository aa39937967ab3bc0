import numpy as np
import pytest
from numpy.testing import assert_allclose

from qthermo import (
    DensityMatrix,
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
from qthermo.core import SIGMA_X

from conftest import LN2

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
