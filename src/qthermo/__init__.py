"""Measurement information gain, bipartite correlations, ergotropy, and
collective-dissipation numerics for small quantum systems.

Every public name, and every submodule, is loaded on first use (PEP 562): a
bare ``import qthermo`` loads none of the submodules, and ``qthermo.measure``
loads ``qthermo.measurement`` and what it imports.
"""

import importlib

__version__ = "0.1.0"

# home module of each public name
_EXPORTS = {
    "core": [
        "DensityMatrix",
        "partial_trace",
        "pure_state",
        "purify",
        "relative_entropy_of_coherence",
        "trace_distance",
        "von_neumann_entropy",
    ],
    "measurement": [
        "MeasurementRecord",
        "Povm",
        "correlations_lost",
        "entropy_cost",
        "holevo_of_measurement",
        "information_gain",
        "local_information_gain",
        "local_povm",
        "measure",
        "projective_energy_povm",
    ],
    "correlations": [
        "CorrelationBreakdown",
        "PropertyFailure",
        "breakdown",
        "chi_A_max",
        "chi_from_local_measurement",
        "discord_A",
        "eof_via_koashi_winter",
        "mutual_information",
        "wootters_eof",
    ],
    "thermo": [
        "Hamiltonian",
        "ThermoReport",
        "average_energy",
        "bound_ergotropy",
        "ergotropy",
        "ergotropy_double_sum",
        "local_inverse_temperature",
        "log_partition",
        "passive_state",
        "thermal_state",
        "thermo_report",
    ],
    "dissipation": [
        "ModelParams",
        "Trajectory",
        "analytic_ergotropy_low_temperature",
        "analytic_steady_state",
        "build_hamiltonian",
        "effective_c",
        "evolve",
        "lindblad_rhs",
        "local_beta",
        "max_non_x_magnitude",
    ],
    "relations": [
        "NotLocallyThermalError",
        "RelationReport",
        "check_ergotropy_bound",
        "check_global_ergotropy_bound",
        "common_local_beta",
        "euler_residual",
        "standard_reports",
        "tradeoff_residual",
    ],
    "verify": ["SuiteResult", "run_suites"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "io", "random_states"}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
