"""Machine-checkable reports for the bounds and identities tying the
information gain to correlations and to thermodynamic quantities.

Every report records left side, right side, slack = rhs - lhs, and a
satisfied flag (slack >= -tolerance).  Each relation's arithmetic is written
once, in a private helper fed with precomputed quantities: the public check
functions gather those for one relation, standard_reports once for all.  The
thermodynamic checks require the state to be locally thermal at a common
inverse temperature on both partitions; bound right-hand sides are assembled
through beta * F = -ln Z so that they stay finite at beta = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, marginal_entropy, partial_trace
from .correlations import (
    SPLIT_TOL,
    CorrelationBreakdown,
    PropertyFailure,
    breakdown,
    chi_from_local_measurement,
)
from .measurement import (
    entropy_cost,
    holevo_of_measurement,
    information_gain,
    local_information_gain,
    measure,
    projective_energy_povm,
)
from .thermo import (
    Hamiltonian,
    ThermoReport,
    local_inverse_temperature,
    log_partition,
    thermo_report,
)

# Relations in standard_reports that need a common local temperature.
THERMODYNAMIC_RELATIONS = ("ergotropy_bound", "global_ergotropy_bound", "tradeoff", "euler")

SPECTRAL_TOL = 1e-9
THERMO_TOL = 2e-3
NEAR_EQUALITY_BAND = 0.02
BETA_MATCH_TOL = 1e-6


@dataclass(frozen=True)
class RelationReport:
    """One evaluated inequality or identity."""

    name: str
    lhs: float
    rhs: float
    slack: float
    satisfied: bool
    tolerance: float
    inputs_digest: str
    near_equality: bool | None = None

    def to_dict(self) -> dict:
        """The fields in declaration order, leaving out an unset near_equality."""
        return {k: v for k, v in vars(self).items() if v is not None}


class NotLocallyThermalError(ValueError):
    """The state's marginals are not thermal (or disagree) for the local
    Hamiltonian."""


def _report(name, lhs, rhs, tolerance, digest, near_band=None) -> RelationReport:
    slack = rhs - lhs
    near = None if near_band is None else bool(abs(slack) <= near_band)
    return RelationReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        satisfied=bool(slack >= -tolerance),
        tolerance=float(tolerance),
        inputs_digest=digest,
        near_equality=near,
    )


def _digest(rho: DensityMatrix, extra: str = "") -> str:
    base = f"state {rho.dim}x{rho.dim}, dims={rho.dims}"
    return f"{base}; {extra}" if extra else base


def common_local_beta(rho: DensityMatrix, h_b: Hamiltonian) -> float:
    """Shared inverse temperature of the two marginals, both fitted against
    ``h_b``; raises NotLocallyThermalError when either marginal is not
    thermal or the fitted temperatures disagree beyond 1e-6."""
    beta_a = local_inverse_temperature(partial_trace(rho, "A"), h_b)
    beta_b = local_inverse_temperature(partial_trace(rho, "B"), h_b)
    if beta_a is None or beta_b is None:
        raise NotLocallyThermalError("a marginal is not thermal for its Hamiltonian")
    if abs(beta_a - beta_b) > BETA_MATCH_TOL:
        raise NotLocallyThermalError(
            f"marginal temperatures disagree: beta_A = {beta_a:.9g}, beta_B = {beta_b:.9g}"
        )
    # fit noise around infinite temperature snaps to exactly zero
    return 0.0 if abs(beta_b) < 1e-12 else beta_b


def _require_locally_thermal(rho, h_b, beta) -> None:
    """Raise unless the state is locally thermal at ``beta`` to 1e-6.  Where
    round-off alone can move the fit that far (``h_b.beta_fit_roundoff``),
    a mismatch says nothing about the state: that is a ValueError naming the
    ill-conditioned fit, not NotLocallyThermalError."""
    fitted = common_local_beta(rho, h_b)
    if abs(fitted - beta) > BETA_MATCH_TOL:
        if h_b.beta_fit_roundoff > BETA_MATCH_TOL:
            raise ValueError(
                f"temperature fit is ill-conditioned at omega = {h_b.spread:.3g} "
                f"(beta * omega = {beta * h_b.spread:.3g}): round-off alone can move the "
                f"fitted beta by {h_b.beta_fit_roundoff:.3g}, beyond the match tolerance "
                f"{BETA_MATCH_TOL:g} (fitted {fitted:.9g}, expected {beta:.9g})"
            )
        raise NotLocallyThermalError(
            f"state is locally thermal at beta = {fitted:.9g}, not {beta:.9g}"
        )


def _subadditivity(rho, record, gain: float) -> RelationReport:
    rhs = local_information_gain(record, "A") + local_information_gain(record, "B")
    digest = _digest(rho, f"local povm with {len(record.probabilities)} outcomes")
    return _report("subadditivity", gain, rhs, SPECTRAL_TOL, digest)


def _ergotropy_bound(gain, chi_b, rep: ThermoReport, log_z, digest, global_work: bool):
    """Information gain against chi_B + beta (<H_B> - W) + ln Z_B, where W is
    the ergotropy or, for the tighter bound, the global ergotropy."""
    name = "global_ergotropy_bound" if global_work else "ergotropy_bound"
    work = rep.global_ergotropy if global_work else rep.ergotropy
    rhs = chi_b + rep.beta * (rep.avg_energy - work) + log_z
    return _report(name, gain, rhs, THERMO_TOL, digest)


def _checked_ergotropy_bound(rho, h_b, beta, global_work: bool) -> RelationReport:
    _require_locally_thermal(rho, h_b, beta)
    povm = projective_energy_povm(h_b, rho.dims)
    lhs = information_gain(measure(rho, povm))
    chi_b = chi_from_local_measurement(rho, povm)
    rep = thermo_report(rho, h_b, beta)
    digest = _digest(rho, f"beta={beta:.9g}")
    return _ergotropy_bound(lhs, chi_b, rep, log_partition(h_b, beta), digest, global_work)


def check_ergotropy_bound(rho: DensityMatrix, h_b: Hamiltonian, beta: float) -> RelationReport:
    """Information gain under the local energy measurement on B against
    chi_B + beta (<H_B> - ergotropy - F_B)."""
    return _checked_ergotropy_bound(rho, h_b, beta, global_work=False)


def check_global_ergotropy_bound(rho: DensityMatrix, h_b: Hamiltonian, beta: float) -> RelationReport:
    """Tighter bound with the ergotropy replaced by the global ergotropy."""
    return _checked_ergotropy_bound(rho, h_b, beta, global_work=True)


def _energy_balance(quantum_gain, rep: ThermoReport, digest) -> RelationReport:
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gain_term = float(np.divide(quantum_gain, rep.beta))
    lhs = rep.global_ergotropy + rep.free_energy + gain_term
    return _report("euler", lhs, rep.avg_energy, THERMO_TOL, digest, near_band=NEAR_EQUALITY_BAND)


def euler_residual(
    rho: DensityMatrix, h_b: Hamiltonian, beta: float, corr: CorrelationBreakdown | None = None
) -> RelationReport:
    """Energy balance <H_B> against E_G + F_B + quantum_gain / beta.

    Satisfied means the general inequality (slack >= -2e-3) holds; the
    near_equality flag marks |slack| <= 0.02.  At beta = 0 the right-hand
    terms are infinite and the slack is +/-inf.
    """
    _require_locally_thermal(rho, h_b, beta)
    if corr is None:
        corr = breakdown(rho, h_b)
    rep = thermo_report(rho, h_b, beta)
    return _energy_balance(corr.quantum_gain, rep, _digest(rho, f"beta={beta:.9g}"))


def _tradeoff(quantum_gain, rep: ThermoReport, log_z, digest, energy_balance) -> RelationReport:
    beta = rep.beta
    rhs = beta * (rep.avg_energy - rep.global_ergotropy) + log_z
    report = _report(
        "tradeoff", quantum_gain, rhs, THERMO_TOL, digest, near_band=NEAR_EQUALITY_BAND
    )
    if np.isfinite(energy_balance.slack):
        mismatch = abs(report.slack - beta * energy_balance.slack)
        if mismatch > 1e-9:
            raise PropertyFailure(
                f"trade-off and energy-balance residuals disagree by {mismatch:.3e}"
            )
    return report


def tradeoff_residual(
    rho: DensityMatrix, h_b: Hamiltonian, beta: float, corr: CorrelationBreakdown | None = None
) -> RelationReport:
    """Quantum gain E(B:C) - D_A against beta (<H_B> - E_G - F_B).

    The slack equals beta times the energy-balance slack; the consistency is
    checked to 1e-9 whenever both are finite.
    """
    _require_locally_thermal(rho, h_b, beta)
    if corr is None:
        corr = breakdown(rho, h_b)
    rep = thermo_report(rho, h_b, beta)
    energy_balance = euler_residual(rho, h_b, beta, corr=corr)
    digest = _digest(rho, f"beta={beta:.9g}")
    return _tradeoff(corr.quantum_gain, rep, log_partition(h_b, beta), digest, energy_balance)


def _temperature_free(rho, gain, corr, digest) -> list[RelationReport]:
    s_b = marginal_entropy(rho, "B")
    return [
        _subadditivity(rho, corr.record, gain),
        _report(
            "holevo_closure",
            gain + entropy_cost(corr.record),
            holevo_of_measurement(corr.record),
            SPECTRAL_TOL,
            digest,
            near_band=SPECTRAL_TOL,
        ),
        _report(
            "local_gain_identity",
            gain,
            corr.chi_B + s_b - corr.mutual_information,
            SPECTRAL_TOL,
            digest,
            near_band=SPECTRAL_TOL,
        ),
        _report(
            "gain_split",
            gain,
            corr.chi_B + corr.quantum_gain,
            SPLIT_TOL,
            digest,
            near_band=SPLIT_TOL,
        ),
    ]


def temperature_free_reports(rho: DensityMatrix, h_b: Hamiltonian) -> list[RelationReport]:
    """The relations of standard_reports that hold for any bipartite state:
    subadditivity, holevo_closure, local_gain_identity and gain_split."""
    corr = breakdown(rho, h_b)
    return _temperature_free(rho, information_gain(corr.record), corr, _digest(rho))


def standard_reports(rho: DensityMatrix, h_b: Hamiltonian) -> list[RelationReport]:
    """All relations for one locally thermal state under the canonical local
    energy measurement on B.

    The temperature is fitted once; the correlation breakdown, with the
    energy measurement it keeps, and the thermodynamic report are each built
    once and shared by every relation.  The dimension bound is exercised
    separately (its slack is structurally nonzero even for uncorrelated
    thermal states).
    """
    beta = common_local_beta(rho, h_b)
    corr = breakdown(rho, h_b)
    gain = information_gain(corr.record)
    rep = thermo_report(rho, h_b, beta)
    log_z = log_partition(h_b, beta)
    digest = _digest(rho, f"beta={beta:.9g}")
    balance = _energy_balance(corr.quantum_gain, rep, digest)
    return _temperature_free(rho, gain, corr, digest) + [
        _ergotropy_bound(gain, corr.chi_B, rep, log_z, digest, global_work=False),
        _ergotropy_bound(gain, corr.chi_B, rep, log_z, digest, global_work=True),
        _tradeoff(corr.quantum_gain, rep, log_z, digest, balance),
        balance,
    ]
