"""Measurement information gain, bipartite correlations, ergotropy, and
collective-dissipation numerics for small quantum systems."""

from .core import (
    DensityMatrix,
    partial_trace,
    pure_state,
    purify,
    relative_entropy_of_coherence,
    trace_distance,
    von_neumann_entropy,
)
from .measurement import (
    MeasurementRecord,
    Povm,
    correlations_lost,
    entropy_cost,
    holevo_of_measurement,
    information_gain,
    local_information_gain,
    local_povm,
    measure,
    projective_energy_povm,
)
from .correlations import (
    CorrelationBreakdown,
    breakdown,
    chi_A_max,
    chi_from_local_measurement,
    discord_A,
    eof_via_koashi_winter,
    mutual_information,
    wootters_eof,
)
from .thermo import (
    Hamiltonian,
    ThermoReport,
    average_energy,
    bound_ergotropy,
    ergotropy,
    ergotropy_double_sum,
    local_inverse_temperature,
    log_partition,
    passive_state,
    thermal_state,
    thermo_report,
)
from .dissipation import (
    ModelParams,
    Trajectory,
    analytic_ergotropy_low_temperature,
    analytic_steady_state,
    build_hamiltonian,
    effective_c,
    evolve,
    lindblad_rhs,
    local_beta,
    max_non_x_magnitude,
)
from .relations import (
    NotLocallyThermalError,
    RelationReport,
    check_ergotropy_bound,
    check_global_ergotropy_bound,
    common_local_beta,
    euler_residual,
    standard_reports,
    tradeoff_residual,
)
from .verify import SuiteResult, run_suites

__version__ = "0.1.0"
