import numpy as np
import pytest
from numpy.testing import assert_allclose

from qthermo import (
    DensityMatrix,
    ModelParams,
    NotLocallyThermalError,
    Povm,
    analytic_steady_state,
    breakdown,
    check_ergotropy_bound,
    check_global_ergotropy_bound,
    common_local_beta,
    euler_residual,
    information_gain,
    local_beta,
    local_povm,
    log_partition,
    measure,
    mutual_information,
    projective_energy_povm,
    pure_state,
    standard_reports,
    thermal_state,
    thermo_report,
    tradeoff_residual,
)
from qthermo import core, correlations, measurement, relations, thermo, verify
from qthermo.core import SIGMA_X, SIGMA_Y, SIGMA_Z, marginal_entropy
from qthermo.random_states import random_two_qubit_state
from qthermo.relations import RelationReport, _report, temperature_free_reports

from conftest import LN2, product_thermal


def computational_povm(dim):
    eye = np.eye(dim, dtype=complex)
    return Povm([np.outer(eye[:, k], eye[:, k]) for k in range(dim)])


def product_projectors():
    return local_povm(computational_povm(2), computational_povm(2))


class TestRelationReport:
    def test_satisfied_iff_slack_above_negative_tolerance(self):
        ok = _report("demo", 1.0, 1.0 - 5e-10, 1e-9, "")
        assert ok.satisfied and abs(ok.slack + 5e-10) < 1e-15
        bad = _report("demo", 1.0, 0.9, 1e-9, "")
        assert not bad.satisfied

    def test_round_trip_dict(self):
        rep = _report("demo", 0.5, 1.0, 1e-9, "state", near_band=0.02)
        d = rep.to_dict()
        assert d["name"] == "demo" and d["near_equality"] is False
        assert isinstance(RelationReport(**{**d, "near_equality": None}), RelationReport)


class TestDimensionBound:
    """I_g <= ln d - I(A:B), from information_gain and mutual_information."""

    def test_maximally_mixed_saturates(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0, dims=(2, 2))
        gain = information_gain(measure(rho, computational_povm(4)))
        assert_allclose(gain, np.log(4.0), atol=1e-12)
        assert_allclose(np.log(4.0) - mutual_information(rho) - gain, 0.0, atol=1e-12)

    def test_bell_state_saturates_through_correlations(self, bell_state, qubit_h):
        povm = projective_energy_povm(qubit_h, (2, 2))
        assert_allclose(information_gain(measure(bell_state, povm)), 0.0, atol=1e-12)
        # ln 4 - 2 ln 2
        assert_allclose(np.log(4.0) - mutual_information(bell_state), 0.0, atol=1e-12)

    def test_random_states_satisfy(self, rng):
        for _ in range(25):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = g @ g.conj().T
            rho = DensityMatrix(m / np.trace(m).real, dims=(2, 2))
            gain = information_gain(measure(rho, product_projectors()))
            assert gain <= np.log(4.0) - mutual_information(rho) + 1e-9


def subadditivity(rho, h):
    (report,) = [r for r in temperature_free_reports(rho, h) if r.name == "subadditivity"]
    return report


class TestSubadditivity:
    def test_product_state_saturates(self, qubit_h):
        rep = subadditivity(product_thermal(0.7, qubit_h), qubit_h)
        assert_allclose(rep.slack, 0.0, atol=1e-12)
        assert rep.satisfied

    def test_bell_state_slack_is_full_correlation(self, bell_state, qubit_h):
        rep = subadditivity(bell_state, qubit_h)
        assert_allclose(rep.slack, 2 * LN2, atol=1e-12)


class TestErgotropyBound:
    def test_product_thermal_saturates(self, qubit_h):
        # Gibbs identity: rhs collapses to S(rho_B)
        rho = product_thermal(1.0, qubit_h)
        rep = check_ergotropy_bound(rho, qubit_h, beta=1.0)
        assert_allclose(rep.slack, 0.0, atol=1e-9)

    def test_steady_state_gap(self, qubit_h):
        params = ModelParams()
        rep = check_ergotropy_bound(
            analytic_steady_state(0.25, params), qubit_h, beta=local_beta(0.25, params)
        )
        assert rep.satisfied
        assert rep.slack > 0.05

    def test_thermal_endpoint(self, qubit_h):
        params = ModelParams()
        rep = check_ergotropy_bound(
            analytic_steady_state(1.0, params), qubit_h, beta=local_beta(1.0, params)
        )
        assert rep.satisfied

    def test_rejects_wrong_beta(self, qubit_h):
        rho = product_thermal(1.0, qubit_h)
        with pytest.raises(NotLocallyThermalError):
            check_ergotropy_bound(rho, qubit_h, beta=2.0)

    def test_rejects_non_thermal_marginal(self, qubit_h):
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        tau = thermal_state(qubit_h, 1.0)
        rho = DensityMatrix(np.kron(pure_state(plus).matrix, tau.matrix), dims=(2, 2))
        with pytest.raises(NotLocallyThermalError):
            check_ergotropy_bound(rho, qubit_h, beta=1.0)


class TestGlobalErgotropyBound:
    def test_product_thermal_saturates(self, qubit_h):
        rho = product_thermal(1.0, qubit_h)
        rep = check_global_ergotropy_bound(rho, qubit_h, beta=1.0)
        assert_allclose(rep.slack, 0.0, atol=1e-9)

    def test_high_coupling_is_tight(self, qubit_h):
        params = ModelParams()
        rep = check_global_ergotropy_bound(
            analytic_steady_state(0.9, params), qubit_h, beta=local_beta(0.9, params)
        )
        assert rep.satisfied
        assert rep.slack <= 0.02

    def test_slack_grows_at_low_coupling(self, qubit_h):
        params = ModelParams()
        slack = {}
        for c in (0.3, 0.9):
            rep = check_global_ergotropy_bound(
                analytic_steady_state(c, params), qubit_h, beta=local_beta(c, params)
            )
            assert rep.satisfied
            slack[c] = rep.slack
        assert slack[0.3] > slack[0.9]

    def test_tighter_than_plain_bound(self, qubit_h):
        params = ModelParams()
        for c in (0.1, 0.5, 0.8):
            beta = local_beta(c, params)
            rho = analytic_steady_state(c, params)
            rhs1 = check_ergotropy_bound(rho, qubit_h, beta).rhs
            rhs2 = check_global_ergotropy_bound(rho, qubit_h, beta).rhs
            assert rhs2 <= rhs1 + 1e-9


class TestEulerResidual:
    def test_product_thermal_is_exact(self, qubit_h):
        rho = product_thermal(1.0, qubit_h)
        rep = euler_residual(rho, qubit_h, 1.0, breakdown(rho, qubit_h))
        assert_allclose(rep.slack, 0.0, atol=1e-9)
        assert rep.near_equality

    def test_high_coupling_near_equality(self, qubit_h):
        params = ModelParams()
        rho = analytic_steady_state(0.9, params)
        rep = euler_residual(rho, qubit_h, local_beta(0.9, params), breakdown(rho, qubit_h))
        assert rep.satisfied and rep.near_equality

    def test_low_coupling_inequality_only(self, qubit_h):
        params = ModelParams()
        rho = analytic_steady_state(0.2, params)
        rep = euler_residual(rho, qubit_h, local_beta(0.2, params), breakdown(rho, qubit_h))
        assert rep.satisfied
        assert not rep.near_equality

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5])
    def test_werner_states_at_infinite_temperature(self, qubit_h, singlet, p):
        """p |psi-><psi-| + (1 - p) I/4 has maximally mixed marginals, so beta
        = 0, where F_B and quantum_gain / beta diverge; their sum is <H_B>
        plus the one quotient (quantum_gain - ln 2) / beta, not inf - inf.
        A beta below 1e-12 is taken as 0, also where beta <H_B> is below the
        round-off of ln Z_B (1e-300) or ln Z_B / beta overflows (1e-310)."""
        rho = DensityMatrix(p * singlet.matrix + (1.0 - p) * np.eye(4) / 4.0, dims=(2, 2))
        reports = {r.name: r for r in standard_reports(rho, qubit_h)}
        tradeoff, euler = reports["tradeoff"], reports["euler"]
        assert tradeoff.satisfied and euler.satisfied
        if p == 0.0:
            # quantum_gain = ln 2 exactly: the divergent terms cancel, and the
            # slack is -E_G, with E_G = 0 up to the root's error
            assert tradeoff.slack == 0.0
            assert abs(euler.slack) < 1e-7 and euler.near_equality
        else:
            assert tradeoff.slack > 0.0 and euler.slack == np.inf
        corr = breakdown(rho, qubit_h)
        for beta in (0.0, 1e-300, 1e-310):
            assert euler_residual(rho, qubit_h, beta, corr) == euler
            assert tradeoff_residual(rho, qubit_h, beta, corr) == tradeoff


class TestTradeoffResidual:
    def test_product_thermal_is_exact(self, qubit_h):
        rho = product_thermal(1.0, qubit_h)
        rep = tradeoff_residual(rho, qubit_h, 1.0, breakdown(rho, qubit_h))
        assert_allclose(rep.slack, 0.0, atol=1e-9)

    def test_high_coupling_band(self, qubit_h):
        params = ModelParams()
        rho = analytic_steady_state(0.9, params)
        rep = tradeoff_residual(rho, qubit_h, local_beta(0.9, params), breakdown(rho, qubit_h))
        assert abs(rep.slack) <= 0.02

    def test_scales_energy_balance_residual(self, qubit_h):
        params = ModelParams()
        for c in (0.2, 0.6, 0.95):
            beta = local_beta(c, params)
            rho = analytic_steady_state(c, params)
            corr = breakdown(rho, qubit_h)
            euler = euler_residual(rho, qubit_h, beta, corr)
            tradeoff = tradeoff_residual(rho, qubit_h, beta, corr)
            assert abs(tradeoff.slack - beta * euler.slack) < 1e-9


class TestCommonLocalBeta:
    def test_steady_state_family(self, qubit_h):
        params = ModelParams()
        for c in (0.0, 0.4, 1.0):
            rho = analytic_steady_state(c, params)
            assert abs(common_local_beta(rho, qubit_h) - local_beta(c, params)) < 1e-9

    def test_rejects_coherent_marginal(self, qubit_h):
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        tau = thermal_state(qubit_h, 1.0)
        rho = DensityMatrix(np.kron(pure_state(plus).matrix, tau.matrix), dims=(2, 2))
        with pytest.raises(NotLocallyThermalError):
            common_local_beta(rho, qubit_h)

    def test_rejects_mismatched_marginals(self, qubit_h):
        rho = DensityMatrix(
            np.kron(thermal_state(qubit_h, 0.5).matrix, thermal_state(qubit_h, 2.0).matrix),
            dims=(2, 2),
        )
        with pytest.raises(NotLocallyThermalError, match="disagree"):
            common_local_beta(rho, qubit_h)


class TestStandardReports:
    def test_product_thermal_all_slacks_vanish(self, qubit_h):
        reports = standard_reports(product_thermal(1.0, qubit_h), qubit_h)
        assert len(reports) == 8
        for rep in reports:
            assert rep.satisfied
            assert abs(rep.slack) < 1e-9

    def test_steady_state_reports_are_satisfied(self, qubit_h):
        rho = analytic_steady_state(0.85, ModelParams())
        for rep in standard_reports(rho, qubit_h):
            assert rep.satisfied

    @staticmethod
    def _wrapper_reports(rho, h):
        beta, corr = common_local_beta(rho, h), breakdown(rho, h)
        return [
            subadditivity(rho, h),
            check_ergotropy_bound(rho, h, beta),
            check_global_ergotropy_bound(rho, h, beta),
            tradeoff_residual(rho, h, beta, corr),
            euler_residual(rho, h, beta, corr),
        ]

    def test_matches_public_wrappers_exactly(self, qubit_h):
        params = ModelParams()
        states = [analytic_steady_state(c, params) for c in (0.0, 0.05, 0.3, 0.5, 0.75, 1.0)]
        # locally thermal but not X-shaped: Pauli products leave both marginals alone
        coherent = product_thermal(0.8, qubit_h).matrix + 0.03 * (
            np.kron(SIGMA_X, SIGMA_Z) + np.kron(SIGMA_Y, SIGMA_X)
        )
        states.append(DensityMatrix(coherent, dims=(2, 2)))
        for rho in states:
            by_name = {rep.name: rep.to_dict() for rep in standard_reports(rho, qubit_h)}
            for rep in self._wrapper_reports(rho, qubit_h):
                # exact equality, including the +/-inf energy balance at c = 0
                assert by_name[rep.name] == rep.to_dict()
        c0 = {rep.name: rep for rep in standard_reports(states[0], qubit_h)}
        assert c0["euler"].lhs == -np.inf and c0["euler"].slack == np.inf

    def test_each_state_is_measured_twice(self, monkeypatch, qubit_h, rng):
        """breakdown's record and the one behind chi_B are the only energy
        measurements: the reports and the gain_split suite read corr.record."""
        calls = []

        def counting(rho, povm):
            calls.append(rho)
            return measurement.measure(rho, povm)

        for module in (correlations, relations, verify):
            monkeypatch.setattr(module, "measure", counting)
        standard_reports(analytic_steady_state(0.5, ModelParams()), qubit_h)
        assert len(calls) == 2
        calls.clear()
        temperature_free_reports(random_two_qubit_state(rng), qubit_h)
        assert len(calls) == 2
        calls.clear()
        (result,) = verify.run_suites(n=5, names=["gain_split"])
        assert result.count == 5 and len(calls) == 2 * 5

    def test_each_quantity_is_computed_once(self, monkeypatch, qubit_h):
        """One call takes ln Z_B, S_B and the information gain once each,
        in whatever module it reaches them through (mutual_information reads
        core's own marginal_entropy), and the records hold those values."""
        originals = {
            "log_partition": thermo.log_partition,
            "marginal_entropy": core.marginal_entropy,
            "information_gain": measurement.information_gain,
        }
        calls = dict.fromkeys(originals, 0)

        def spy(name):
            def counting(*args):
                if name != "marginal_entropy" or args[1] == "B":
                    calls[name] += 1
                return originals[name](*args)

            return counting

        for module in (core, correlations, measurement, relations, thermo, verify):
            for name, original in originals.items():
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, spy(name))
        rho = analytic_steady_state(0.5, ModelParams())
        standard_reports(rho, qubit_h)
        assert calls == dict.fromkeys(originals, 1)
        monkeypatch.undo()
        beta = common_local_beta(rho, qubit_h)
        corr, rep = breakdown(rho, qubit_h), thermo_report(rho, qubit_h, beta)
        assert corr.information_gain == information_gain(corr.record)
        assert corr.entropy_B == marginal_entropy(rho, "B")
        assert rep.log_z == log_partition(qubit_h, beta)
