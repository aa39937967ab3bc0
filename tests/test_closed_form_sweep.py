"""Closed-form oracle for three sweep columns: avg_energy_B, ergotropy and MI.

The steady state at singlet weight 1 - c is
(1 - c)|psi_-><psi_-| + c/Z (x^2 |ee><ee| + x |psi_+><psi_+| + |gg><gg|)
with x = exp(-beta_e omega) and Z = 1 + x + x^2.  Its spectrum is
{1 - c, c/Z, c x/Z, c x^2/Z}, and each qubit is excited with probability
p_e = c x^2/Z + (1 - c)/2 + c x/(2Z).  The oracle below is float arithmetic
in c, x and Z alone; no qthermo kernel enters it.
"""

import math

import pytest

from qthermo.cli import RunConfig, sweep_rows
from qthermo.core import ENTROPY_CUTOFF

BETAS = (0.1, 1.0, 10.0, 30.0)
OMEGAS = (0.5, 1.0, 2.0)
TOL = 1e-12


def _plogp(p: float) -> float:
    return -p * math.log(p) if p > 0.0 else 0.0


def _oracle(c: float, beta_e: float, omega: float) -> dict:
    x = math.exp(-beta_e * omega)
    z = 1.0 + x + x * x
    p_e = c * x * x / z + (1.0 - c) / 2.0 + c * x / (2.0 * z)
    spectrum = [1.0 - c, c / z, c * x / z, c * x * x / z]
    # the passive state puts the largest eigenvalue on the lowest level of
    # H_A + H_B, whose levels are (0, omega, omega, 2 omega)
    passive = omega * sum(
        p * level for p, level in zip(sorted(spectrum, reverse=True), (0.0, 1.0, 1.0, 2.0))
    )
    energy = omega * (1.0 - c + c * (x + 2.0 * x * x) / z)
    marginal = [p_e, 1.0 - p_e]
    return {
        "avg_energy_B": omega * p_e,
        "ergotropy": energy - passive,
        "MI": 2.0 * sum(map(_plogp, marginal)) - sum(map(_plogp, spectrum)),
        # what the library leaves out of MI by dropping eigenvalues below its
        # entropy cutoff: those terms of both marginals and of the state
        "_dropped": sum(_plogp(p) for p in 2 * marginal + spectrum if p < ENTROPY_CUTOFF),
    }


@pytest.mark.parametrize("omega", OMEGAS)
@pytest.mark.parametrize("beta_e", BETAS)
def test_sweep_columns_match_the_closed_form(beta_e, omega):
    rows = sweep_rows(RunConfig(beta_e=beta_e, omega=omega, c_start=0.05, c_step=0.05))
    assert len(rows) == 20
    for row in rows:
        want = _oracle(row["c"], beta_e, omega)
        assert row["avg_energy_B"] == pytest.approx(want["avg_energy_B"], rel=0, abs=TOL)
        assert row["ergotropy"] == pytest.approx(want["ergotropy"], rel=0, abs=TOL)
        assert row["MI"] == pytest.approx(want["MI"], rel=0, abs=TOL + want["_dropped"])
