"""Command-line interface: steady-state sweeps, trajectory simulation,
randomized verification, and relation reports.

Commands: sweep | simulate | verify | report.
Exit codes: 0 success, 1 property failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

# OpenBLAS reads its thread count once, when numpy loads it.  The CLI's
# largest product is 256x16 by 16x16 (the integrator's stop checks), where a
# second thread gains nothing.  On a busy 2-core x86-64 machine, verify's
# trajectory_invariants suite took 0.55-1.31 s in 5 of 32 runs at the default
# count, and at most 0.16 s in all 32 runs with one thread.  A count the
# caller sets wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the thread cap)

from .core import DensityMatrix, trace_distance
from .correlations import PropertyFailure, breakdown
from .dissipation import (
    ModelParams,
    analytic_steady_state,
    effective_c,
    evolve,
    local_beta,
    local_qubit_hamiltonian,
)
from .io import (
    read_hamiltonian,
    read_state,
    write_csv,
    write_json,
    write_reports,
    write_trajectory_csv,
)
from .measurement import information_gain, measure, projective_energy_povm
from .relations import (
    THERMODYNAMIC_RELATIONS,
    NotLocallyThermalError,
    check_ergotropy_bound,
    check_global_ergotropy_bound,
    euler_residual,
    standard_reports,
    temperature_free_reports,
    tradeoff_residual,
)
from .thermo import Hamiltonian, thermo_report

SWEEP_COLUMNS = [
    "c",
    "I_g",
    "chi_B",
    "MI",
    "discord_A",
    "eof_BC",
    "quantum_gain",
    "avg_energy_B",
    "free_energy_B",
    "ergotropy",
    "bound_ergotropy",
    "global_ergotropy",
    "rhs_ineq1",
    "rhs_ineq2",
    "slack1",
    "slack2",
    "euler_residual",
]

MAX_C_GRID_POINTS = 100_001  # c_step 1e-5 on [0, 1]

# where each command writes without --out
DEFAULT_OUTPUTS = {
    "sweep": "sweep.csv",
    "simulate": "trajectory.csv",
    "verify": "verify_report.json",
    "report": "reports.json",
}


@dataclass
class RunConfig:
    """Model, grid, and output settings shared by the commands."""

    beta_e: float = ModelParams.beta_e
    omega: float = ModelParams.omega
    f: float = ModelParams.f
    gamma: float = ModelParams.gamma  # collective decay rate
    c_start: float = 0.0
    c_stop: float = 1.0
    c_step: float = 0.01
    seed: int | None = None  # None: the suites' own DEFAULT_SEED
    dt: float = 0.005
    t_max: float | None = None
    verify_count: int = 500
    output_path: str | None = None

    def __post_init__(self):
        # values arrive from JSON files and flags; with postponed annotations
        # f.type is the annotation string, e.g. "float | None"
        for f in dataclasses.fields(self):
            _check_config_value(f.name, f.type, getattr(self, f.name))
        if self.verify_count < 1:
            raise ValueError(f"count must be at least 1, got {self.verify_count}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def model_params(self) -> ModelParams:
        return ModelParams(
            omega=self.omega,
            f=self.f,
            beta_e=self.beta_e,
            gamma=self.gamma,
        )

    def c_grid(self) -> np.ndarray:
        if self.c_step <= 0:
            raise ValueError("c_step must be positive")
        if not (0.0 <= self.c_start <= self.c_stop <= 1.0):
            raise ValueError("c grid must satisfy 0 <= start <= stop <= 1")
        # every k with k c_step <= c_stop - c_start to a relative 1e-9; capped
        # before the floor, as a tiny c_step makes the ratio overflow to inf
        span = min((self.c_stop - self.c_start) / self.c_step, MAX_C_GRID_POINTS)
        count = math.floor(span * (1.0 + 1e-9)) + 1
        if count > MAX_C_GRID_POINTS:
            raise ValueError(
                f"c_step {self.c_step:g} gives more than {MAX_C_GRID_POINTS} grid points"
            )
        grid = self.c_start + self.c_step * np.arange(count)
        return np.clip(grid, 0.0, 1.0)

    def horizon(self) -> float:
        if self.t_max is not None:
            return self.t_max
        if self.gamma <= 0:
            raise ValueError("gamma must be positive when t_max is derived from it")
        return 50.0 / self.gamma


def _check_config_value(name: str, annotation: str, value) -> None:
    """Reject a value whose type does not match its RunConfig annotation:
    ``int`` takes an int, ``float`` an int or a finite float (never a bool),
    ``str`` a string, and ``... | None`` also None."""
    kind, _, optional = annotation.partition(" | ")
    if value is None and optional == "None":
        return
    if kind == "str":
        ok, wanted = isinstance(value, str), "a string"
    elif kind == "int":
        ok, wanted = isinstance(value, int) and not isinstance(value, bool), "an integer"
    else:
        ok = (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value)
        )
        wanted = "a finite number"
    if not ok:
        if optional == "None":
            wanted += " or null"
        raise ValueError(f"config value {name} must be {wanted}, got {value!r}")


def load_config(path: str | None = None, **overrides) -> RunConfig:
    """Config from an optional JSON file plus keyword overrides (None skipped)."""
    values = {}
    if path is not None:
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file must hold a JSON object, got {type(loaded).__name__}")
        values.update(loaded)
    values.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**values)


def sweep_row(c: float, params: ModelParams, h_local: Hamiltonian) -> dict:
    """All sweep columns for one steady state, plus private keys ``_beta`` and
    ``_tradeoff_residual`` that are not written to the CSV."""
    rho = analytic_steady_state(c, params)
    beta = local_beta(c, params)
    corr = breakdown(rho, h_local)
    # the same pair as corr.record, measured again: bench/run.py
    # (SWEEP_ROW_COUNTS) pins 7 measure and 4 projective_energy_povm per row;
    # a repeat costs only the new record (measurement._outcomes keeps the rest)
    record = measure(rho, projective_energy_povm(h_local, rho.dims))
    rep = thermo_report(rho, h_local, beta)
    bound1 = check_ergotropy_bound(rho, h_local, beta)
    bound2 = check_global_ergotropy_bound(rho, h_local, beta)
    euler = euler_residual(rho, h_local, beta, corr)
    tradeoff = tradeoff_residual(rho, h_local, beta, corr)
    return {
        "c": c,
        "I_g": information_gain(record),
        "chi_B": corr.chi_B,
        "MI": corr.mutual_information,
        "discord_A": corr.discord_A,
        "eof_BC": corr.eof_BC,
        "quantum_gain": corr.quantum_gain,
        "avg_energy_B": rep.avg_energy,
        "free_energy_B": rep.free_energy,
        "ergotropy": rep.ergotropy,
        "bound_ergotropy": rep.bound_ergotropy,
        "global_ergotropy": rep.global_ergotropy,
        "rhs_ineq1": bound1.rhs,
        "rhs_ineq2": bound2.rhs,
        "slack1": bound1.slack,
        "slack2": bound2.slack,
        "euler_residual": euler.slack,
        "_beta": beta,
        "_tradeoff_residual": tradeoff.slack,
    }


def sweep_rows(config: RunConfig) -> list[dict]:
    params = config.model_params()
    h_local = local_qubit_hamiltonian(config.omega)
    return [sweep_row(float(c), params, h_local) for c in config.c_grid()]


def cmd_sweep(config: RunConfig) -> int:
    rows = sweep_rows(config)
    out = config.output_path or DEFAULT_OUTPUTS["sweep"]
    write_csv(out, SWEEP_COLUMNS, rows)
    saturated = [r["c"] for r in rows if abs(r["slack2"]) <= 0.02]
    threshold = min(saturated) if saturated else None
    print(f"wrote {len(rows)} rows to {out}")
    if threshold is not None:
        print(f"tight bound saturated (|slack2| <= 0.02) from c = {threshold:g} on")
    return 0


def cmd_simulate(config: RunConfig, rho0_path: str) -> int:
    rho0 = read_state(rho0_path)
    if rho0.dim != 4:
        raise ValueError(f"simulation needs a 4x4 two-qubit state, got {rho0.dim}x{rho0.dim}")
    params = config.model_params()
    trajectory = evolve(rho0, params, config.dt, config.horizon())
    c = effective_c(rho0)
    final = DensityMatrix(trajectory.states[-1], dims=(2, 2))
    distance = trace_distance(final, analytic_steady_state(c, params))

    out = Path(config.output_path or DEFAULT_OUTPUTS["simulate"])
    write_trajectory_csv(out, trajectory)
    print(f"wrote {len(trajectory.states)} steps to {out}")
    print(
        f"stopped at {trajectory.stop_reason}: "
        f"max|L rho| of the final state = {trajectory.final_residual!r}"
    )
    print(f"effective c = {c:.9g}")
    print(f"trace distance to the analytic steady state: {distance:.3e}")

    h_local = local_qubit_hamiltonian(config.omega)
    try:
        reports = standard_reports(final, h_local)
    except NotLocallyThermalError as err:
        # generic states keep non-X coherences past the horizon
        reports = temperature_free_reports(final, h_local)
        print(
            f"skipped {', '.join(THERMODYNAMIC_RELATIONS)}: "
            f"final state is not locally thermal ({err})"
        )
    reports_path = _reports_path(out)
    write_reports(reports_path, reports)
    print(f"relation reports: {reports_path}")
    return 0


def cmd_verify(config: RunConfig) -> int:
    # imported here: the other commands never load the suites or their generators
    from . import verify

    seed = verify.DEFAULT_SEED if config.seed is None else config.seed
    results = verify.run_suites(seed=seed, n=config.verify_count)
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(
            f"{r.name:32s} {status:4s} n={r.count:<5d} failures={r.failures:<3d} "
            f"worst={r.worst:.3e} tol={r.tolerance:g} ({r.kind})"
        )
    out = config.output_path or DEFAULT_OUTPUTS["verify"]
    write_json(out, [r.to_dict() for r in results])
    failed = [r.name for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed; report: {out}")
    if failed:
        print(f"failed: {', '.join(failed)}")
        return 1
    return 0


def cmd_report(config: RunConfig, state_path: str, h_path: str) -> int:
    rho = read_state(state_path)
    if rho.dims is None:
        raise ValueError("state file must carry bipartite dims for a relation report")
    h_b = read_hamiltonian(h_path)
    reports = standard_reports(rho, h_b)
    for r in reports:
        flag = "satisfied" if r.satisfied else "VIOLATED"
        print(f"{r.name:24s} lhs={r.lhs:.9g} rhs={r.rhs:.9g} slack={r.slack:.3e} {flag}")
    out = config.output_path or DEFAULT_OUTPUTS["report"]
    write_reports(out, reports)
    print(f"wrote {len(reports)} reports to {out}")
    return 0


# each global flag is "--" plus its RunConfig field name with "-" for "_", but these
_FLAG_NAMES = {"verify_count": "--count", "output_path": "--out"}


def _flag(f: dataclasses.Field) -> tuple[str, type]:
    """Name and type of the global flag that sets the RunConfig field ``f``;
    the type is the one its annotation names first."""
    name = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
    return name, {"float": float, "int": int, "str": str}[f.type.partition(" | ")[0]]


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ValueError, so that it ends in
    the same one-line JSON error as every other invalid input."""

    def error(self, message):
        raise ValueError(message)


@functools.cache  # parsing keeps no state in the parser, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qthermo",
        description="Steady-state sweeps, trajectories, property verification, "
        "and relation reports for the two-qubit collective-dissipation model.",
    )
    parser.add_argument("--config", help="JSON file with RunConfig fields")
    for f in dataclasses.fields(RunConfig):
        name, kind = _flag(f)
        parser.add_argument(name, type=kind, dest=f.name)

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("sweep", help="write the steady-state sweep CSV")
    p_sim = sub.add_parser("simulate", help="integrate a state file to the steady state")
    p_sim.add_argument("rho0", help="initial state JSON file")
    sub.add_parser("verify", help="run the randomized property suites")
    p_rep = sub.add_parser("report", help="evaluate every relation for a state file")
    p_rep.add_argument("state", help="state JSON file")
    p_rep.add_argument("hamiltonian", help="local Hamiltonian JSON file (partition B)")
    return parser


def _reports_path(out: Path) -> Path:
    """Where simulate writes its relation reports: beside the trajectory CSV."""
    return out.with_name(out.stem + "_reports.json")


def _check_output_path(path: str, command: str) -> None:
    """Refuse an output path that cannot be opened for writing before any work
    is done: its directory must exist, and neither the path nor, for
    simulate, the reports file beside it may be a directory."""
    out = Path(path)
    if out.is_dir():
        raise ValueError(f"--out {path} is a directory")
    if command == "simulate" and _reports_path(out).is_dir():
        raise ValueError(f"--out {path}: its reports file {_reports_path(out)} is a directory")
    if not out.parent.is_dir():
        raise ValueError(f"--out {path}: directory {out.parent} does not exist")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)}
        config = load_config(args.config, **overrides)
        _check_output_path(config.output_path or DEFAULT_OUTPUTS[args.command], args.command)
        if args.command == "sweep":
            return cmd_sweep(config)
        if args.command == "simulate":
            return cmd_simulate(config, args.rho0)
        if args.command == "verify":
            return cmd_verify(config)
        return cmd_report(config, args.state, args.hamiltonian)
    except NotLocallyThermalError as err:
        print(json.dumps({"error": "not_locally_thermal", "message": str(err)}))
        return 2
    except PropertyFailure as err:
        print(json.dumps({"error": "property_failure", "message": str(err)}))
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as err:
        print(json.dumps({"error": "invalid_input", "message": str(err)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
