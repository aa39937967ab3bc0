"""Closed-form oracle for every sweep column.

The steady state at singlet weight 1 - c is
(1 - c)|psi_-><psi_-| + c/Z (x^2 |ee><ee| + x |psi_+><psi_+| + |gg><gg|)
with x = exp(-beta_e omega) and Z = 1 + x + x^2.  In the basis
(ee, eg, ge, gg) its diagonal is (c x^2/Z, m, m, c/Z) with
m = (1 - c)/2 + c x/(2Z), its only coherence is k = <eg|rho|ge> =
c x/(2Z) - (1 - c)/2, and its spectrum is {1 - c, c/Z, c x/Z, c x^2/Z}.
Each qubit is excited with probability p_e = c x^2/Z + m.  The oracle below
is float arithmetic in c, x and Z alone; no qthermo kernel enters it.
``TestSteadyStateFamilyClosedForm.test_sweep_columns`` in test_dissipation.py
holds ``sweep_row`` to the same oracle on a finer c grid at omega = 1.

- Measuring the energy of B (or sigma_z on A) leaves the other qubit in
  diag(c x^2/Z, m)/p_e or diag(m, c/Z)/(1 - p_e).  Measuring sigma_x on A
  gives each outcome with probability 1/2 and leaves B in
  [[p_e, +-k], [+-k, 1 - p_e]], with eigenvalues 1/2 +- r,
  r = |(p_e - 1/2, k)|.  On this family chi_A_max is the better of the two
  axes (see ``TestSteadyStateFamilyClosedForm`` in test_dissipation.py).
- The local inverse temperature is beta = ln((1 - p_e)/p_e)/omega, and
  1 - 2 p_e = c (1 - x^2)/Z exactly, so beta = log1p(c (1 - x^2)/(Z p_e))/omega.
- The thermal state of H_A + H_B is a product of two qubit Gibbs states with
  excited population q, entropy 2 h(q) and energy 2 omega q, so the bound
  ergotropy's entropy-matched state solves 2 h(q) = S(rho), which the
  oracle inverts by a bisection run to the end of its bracket.

Each entropy leaves out probabilities below ENTROPY_CUTOFF, as the
library's entropies do, so the entropic columns are compared to 1e-12.
That is stricter than comparing the exact entropies to 1e-12 plus the
terms the cutoff drops (up to 2.8e-12 on this grid, from c x/Z at
beta_e omega = 30).  The library's root stops once its entropy is within
ENTROPY_MATCH_TOL min(1, beta) of the target, and at a thermal state
dE = dS/beta, so the bound ergotropy is compared to twice
ENTROPY_MATCH_TOL min(1, 1/beta*) (second order included) plus 1e-12; the
columns built on it carry that tolerance times their factor of it.
"""

import math

import pytest

from qthermo.cli import RunConfig, sweep_rows
from qthermo.core import ENTROPY_CUTOFF
from qthermo.thermo import ENTROPY_MATCH_TOL

from conftest import bisect_to_end

BETAS = (0.1, 1.0, 10.0, 30.0)
OMEGAS = (0.5, 1.0, 2.0)
TOL = 1e-12


def _plogp(p: float) -> float:
    return -p * math.log(p) if p >= ENTROPY_CUTOFF else 0.0


def _h(p: float) -> float:
    return _plogp(p) + _plogp(1.0 - p)


def closed_form_columns(c: float, beta_e: float, omega: float) -> dict:
    """Each sweep column at c, with its tolerance, as {column: (value, tol)}.

    At c = 0 the state is the singlet: beta = 0, so the free energy is -inf
    and the energy balance, which divides by beta, is left out."""
    x = math.exp(-beta_e * omega)
    z = 1.0 + x + x * x
    ee, gg = c * x * x / z, c / z
    m = (1.0 - c) / 2.0 + c * x / (2.0 * z)
    k = c * x / (2.0 * z) - (1.0 - c) / 2.0
    p_e, p_g = ee + m, m + gg
    spectrum = [1.0 - c, gg, c * x / z, ee]
    s, s_b = sum(map(_plogp, spectrum)), _h(p_e)
    cond = p_e * _h(ee / p_e) + p_g * _h(gg / p_g)
    chi_b = s_b - cond
    chi_a = max(chi_b, s_b - _h(0.5 + math.hypot(p_e - 0.5, k)))
    mi = 2.0 * s_b - s
    discord, eof = mi - chi_a, s_b - chi_a

    beta = math.log1p(-c * math.expm1(-2.0 * beta_e * omega) / (z * p_e)) / omega
    log_z = math.log1p(math.exp(-beta * omega))
    # the passive state puts the largest eigenvalue on the lowest level of
    # H_A + H_B, whose levels are (0, omega, omega, 2 omega)
    passive = omega * sum(
        p * level for p, level in zip(sorted(spectrum, reverse=True), (0.0, 1.0, 1.0, 2.0))
    )
    work = omega * (1.0 - c + c * (x + 2.0 * x * x) / z) - passive
    if s < ENTROPY_CUTOFF:
        # pure state: the entropy-matched state is the ground state, no root
        bound, bound_tol = passive, TOL
    else:
        q = bisect_to_end(lambda q: 2.0 * _h(q) < s, 0.0, 0.5)
        bound = passive - 2.0 * omega * q
        beta_star = math.log1p((1.0 - 2.0 * q) / q) / omega
        bound_tol = 2.0 * ENTROPY_MATCH_TOL * min(1.0, 1.0 / beta_star) + TOL
    rhs1 = chi_b + beta * (omega * p_e - work) + log_z
    rhs2 = chi_b + beta * (omega * p_e - work - bound) + log_z
    columns = {
        "I_g": (s - cond, TOL),
        "chi_B": (chi_b, TOL),
        "MI": (mi, TOL),
        "discord_A": (discord, TOL),
        "eof_BC": (eof, TOL),
        "quantum_gain": (eof - discord, TOL),
        "avg_energy_B": (omega * p_e, TOL),
        "free_energy_B": (-log_z / beta if beta else -math.inf, TOL),
        "ergotropy": (work, TOL),
        "bound_ergotropy": (bound, bound_tol),
        "global_ergotropy": (work + bound, bound_tol),
        "rhs_ineq1": (rhs1, TOL),
        "rhs_ineq2": (rhs2, beta * bound_tol + TOL),
        "slack1": (rhs1 - (s - cond), TOL),
        "slack2": (rhs2 - (s - cond), beta * bound_tol + TOL),
    }
    if beta:
        columns["euler_residual"] = (
            omega * p_e - (work + bound) + log_z / beta - (eof - discord) / beta,
            bound_tol + TOL / beta,
        )
    return columns


@pytest.mark.parametrize("omega", OMEGAS)
@pytest.mark.parametrize("beta_e", BETAS)
def test_sweep_columns_match_the_closed_form(beta_e, omega):
    rows = sweep_rows(RunConfig(beta_e=beta_e, omega=omega, c_start=0.05, c_step=0.05))
    assert len(rows) == 20
    for row in rows:
        for column, (value, tol) in closed_form_columns(row["c"], beta_e, omega).items():
            assert row[column] == pytest.approx(value, rel=0, abs=tol), (column, row["c"])
