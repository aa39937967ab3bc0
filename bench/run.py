"""Benchmark of the qthermo command-line interface.

Drives ``qthermo.cli.main`` in-process, from this single process and thread,
on one of four workloads (sweep, verify, simulate, report) and prints, as the
last line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

    python3 bench/run.py --workload report --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; qthermo is imported from ``src``.
With ``--trace 0`` it times complete workload passes for ``--seconds`` and
reports the end-to-end metrics, corrected for the vCPU's changing speed
(see ``speedprobe.py``). With ``--trace 1`` it alternates plain passes
with passes that have every qthermo module wrapped (see ``tracing.py``),
checks that tracing changed nothing, and reports the per-module metrics.
bench/NOTES.md describes the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread in this process (and the set-up probes
# it starts) before numpy is imported; the machine's settings are untouched.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
INHERITED_BLAS_ENV = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from inputs import SIZES, VERIFY_SEED, WORKLOADS, write_inputs  # noqa: E402
from speedprobe import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path.cwd()
REFERENCE_DIR = BENCH_DIR / "reference"
SETUP_PROBES = 15

# Sweep outputs must match the stored reference to this absolute tolerance;
# non-finite entries (the c = 0 row) must match exactly.
SWEEP_TOL = 1e-9
# X-shaped simulate runs must end this close (trace distance) to the
# closed-form steady state.
STEADY_STATE_TOL = 1e-6
MIN_SUITES = 30

# Per-row call counts of one beta_e = 10 sweep pass, the baseline recorded
# in ROADMAP.md (3 838 DensityMatrix per 101 rows).
SWEEP_ROW_COUNTS = {
    "thermo.thermo_report": 6,
    "relations.common_local_beta": 5,
    "measurement.measure": 7,
    "measurement.projective_energy_povm": 4,
    "correlations.chi_from_local_measurement": 3,
    "core.DensityMatrix": 38,
    "cli.sweep_row": 1,
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# Span metrics of the traced run: module.function -> reported fields.
SPANS = {
    "correlations.chi_A_max": ("calls", "self_s"),
    "correlations.breakdown": ("calls", "self_s"),
    "correlations.chi_from_local_measurement": ("calls", "self_s"),
    "thermo.thermo_report": ("calls", "self_s"),
    "thermo.bound_ergotropy": ("calls", "self_s"),
    "relations.common_local_beta": ("calls", "self_s"),
    "relations.check_ergotropy_bound": ("calls",),
    "relations.check_global_ergotropy_bound": ("calls",),
    "relations.euler_residual": ("calls",),
    "relations.tradeoff_residual": ("calls",),
    "relations.standard_reports": ("calls", "self_s"),
    "measurement.measure": ("calls", "self_s"),
    "measurement.projective_energy_povm": ("calls", "self_s"),
    "measurement.Povm": ("calls",),
    "core.DensityMatrix": ("calls", "self_s"),
    "core.entropy_of_eigenvalues": ("calls",),
    "core.partial_trace": ("calls",),
    "dissipation.evolve": ("calls", "self_s"),
    "dissipation.analytic_steady_state": ("calls",),
    "io.write_trajectory_csv": ("self_s",),
    "io.write_csv": ("self_s",),
    "io.write_reports": ("self_s",),
    "io.read_state": ("calls", "self_s"),
    "cli.sweep_row": ("calls",),
}
UNITS = {"calls": "count", "self_s": "s"}

# The per-layer metrics of BENCHMARK.json: every count, and the times of the
# layers that all four workloads run. A layer time that is zero on some
# workload (evolve on sweep, sweep_row on report, ...) is printed only in the
# full trace report line, because a zero reads the same on every run.
PER_LAYER_TIMES = {
    "correlations.chi_A_max.self_s",
    "correlations.chi_A_max.grid_s",
    "correlations.chi_A_max.refine_s",
    "correlations.breakdown.self_s",
    "correlations.chi_from_local_measurement.self_s",
    "thermo.bound_ergotropy.self_s",
    "measurement.measure.self_s",
    "measurement.projective_energy_povm.self_s",
    "core.DensityMatrix.self_s",
    "trace_overhead_frac",
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every metric in the full trace report."""
    units = {}
    for span, fields in SPANS.items():
        for field in fields:
            units[f"{span}.{field}"] = UNITS[field]
    units.update(
        {
            "correlations.chi_A_max.grid_s": "s",
            "correlations.chi_A_max.refine_s": "s",
            "thermo.bound_ergotropy.entropy_evals": "count",
            "dissipation.evolve.steps": "count",
            "dissipation.evolve.step_us": "us",
            "io.write_trajectory_csv.bytes": "B",
            "cli.sweep_row.p50_ms": "ms",
            "cli.sweep_row.p90_ms": "ms",
            "random_states.self_s": "s",
            "trace_overhead_frac": "frac",
        }
    )
    from qthermo.verify import SUITES

    for suite, _, _ in SUITES:
        units[f"verify.suite_s.{suite}"] = "s"
    return units


def per_layer_names(units: dict[str, str]) -> list[str]:
    """The subset of the trace report that BENCHMARK.json lists."""
    return [n for n, u in units.items() if u in ("count", "B") or n in PER_LAYER_TIMES]


# ---------------------------------------------------------------------------
# operations and their output checks


@dataclass
class Op:
    """One ``qthermo`` invocation and the check of what it printed and wrote.

    ``check(rc, stdout)`` returns "ok", "known_defect" (a documented program
    defect, still a failed op) or "fail: <reason>".
    """

    argv: list[str]
    outputs: tuple[Path, ...]
    check: Callable[[int, str], str]


def invoke(argv: list[str]) -> tuple[int, str, float, float]:
    """Run ``qthermo.cli.main(argv)``; return exit code, stdout, and the
    start and end ``perf_counter`` readings.

    An exception escaping ``main`` is a failed op (the console script would
    exit 1 with a traceback), recorded with its traceback.
    """
    from qthermo import cli

    buf = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except Exception:  # noqa: BLE001 - the benchmark reports it as a failed op
            rc = 1
            buf.write(traceback.format_exc())
    return rc, buf.getvalue(), start, perf_counter()


def read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_sweep_csv(path: Path, reference: Path, expected_rows: int) -> str:
    header, rows = read_csv_rows(path)
    ref_header, ref_rows = read_csv_rows(reference)
    if header != ref_header:
        return f"fail: sweep columns {header} differ from the reference"
    if len(rows) != expected_rows:
        return f"fail: sweep wrote {len(rows)} rows, expected {expected_rows}"
    by_c = {row[0]: row for row in ref_rows}
    for row in rows:
        ref = by_c.get(row[0])
        if ref is None:
            return f"fail: sweep row c = {row[0]} has no reference row"
        for col, got, want in zip(header, row, ref):
            g, w = float(got), float(want)
            if math.isfinite(w):
                ok = math.isfinite(g) and abs(g - w) <= SWEEP_TOL
            else:
                ok = g == w or (math.isnan(g) and math.isnan(w))
            if not ok:
                return f"fail: sweep c = {row[0]} {col} = {got}, reference {want}"
    if len(rows) != len({row[0] for row in rows}):
        return "fail: sweep rows repeat a c value"
    return "ok"


_PSI_MINUS = np.array([0.0, -1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
_PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def closed_form_steady_state(rho0: np.ndarray, omega: float = 1.0, beta_e: float = 10.0):
    """Steady state of the fully collective model reached from an X-shaped
    rho0, basis {ee, eg, ge, gg}: the singlet weight 1 - c is conserved and
    the rest relaxes to the bath's thermal populations of the triplet,
    (1 - c)|psi-><psi-| + c/Z (x^2 |ee><ee| + x |psi+><psi+| + |gg><gg|),
    x = exp(-omega beta_e), Z = 1 + x + x^2."""
    c = 1.0 - float((_PSI_MINUS.conj() @ rho0 @ _PSI_MINUS).real)
    x = math.exp(-omega * beta_e)
    triplet = np.diag([x * x, 0.0, 0.0, 1.0]).astype(complex) + x * np.outer(_PSI_PLUS, _PSI_PLUS)
    return (1.0 - c) * np.outer(_PSI_MINUS, _PSI_MINUS) + (c / (1.0 + x + x * x)) * triplet


def last_trajectory_state(path: Path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.readline().decode().strip().split(",")
        fh.seek(0, os.SEEK_END)
        fh.seek(max(0, fh.tell() - 8192))
        last = fh.read().decode().strip().splitlines()[-1].split(",")
    row = dict(zip(header, (float(v) for v in last)))
    return np.array(
        [[row[f"re_{i}{j}"] + 1.0j * row[f"im_{i}{j}"] for j in range(4)] for i in range(4)]
    )


def read_state_matrix(path: Path) -> np.ndarray:
    obj = json.loads(path.read_text())
    return np.asarray(obj["re"], dtype=float) + 1.0j * np.asarray(obj["im"], dtype=float)


def check_simulate(rc: int, stdout: str, traj: Path, rho0: np.ndarray, x_shaped: bool) -> str:
    reports = traj.with_name(traj.stem + "_reports.json")
    if x_shaped:
        if rc != 0:
            return f"fail: X-shaped simulate exited {rc}: {stdout.strip()[-200:]}"
        m = re.search(r"trace distance to the analytic steady state: (\S+)", stdout)
        if m is None or not float(m.group(1)) <= STEADY_STATE_TOL:
            return "fail: X-shaped simulate printed no trace distance within tolerance"
        diff = last_trajectory_state(traj) - closed_form_steady_state(rho0)
        distance = 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())
        if not distance <= STEADY_STATE_TOL:
            return f"fail: final state {distance:.3e} from the closed-form steady state"
        if not all(r["satisfied"] for r in json.loads(reports.read_text())):
            return "fail: a relation report of the final state is violated"
        return "ok"
    if rc == 0 and traj.is_file() and reports.is_file():
        return "ok"
    if rc == 2 and '"not_locally_thermal"' in stdout and traj.is_file():
        # Known defect: a generic state integrates the whole horizon, writes
        # its trajectory, then exits 2 because the final marginals are not
        # thermal; no trace distance is printed and no reports are written.
        return "known_defect"
    return f"fail: generic-state simulate exited {rc}: {stdout.strip()[-200:]}"


def check_report(rc: int, stdout: str, out: Path) -> str:
    if rc != 0:
        return f"fail: report exited {rc}: {stdout.strip()[-200:]}"
    reports = json.loads(out.read_text())
    if not reports or not all(r["satisfied"] for r in reports) or "VIOLATED" in stdout:
        return "fail: a relation report is violated"
    return "ok"


def check_verify(rc: int, stdout: str) -> str:
    m = re.search(r"(\d+)/(\d+) suites passed", stdout)
    if rc != 0 or m is None or m.group(1) != m.group(2) or int(m.group(2)) < MIN_SUITES:
        return f"fail: verify exited {rc}: {stdout.strip()[-200:]}"
    return "ok"


def build_ops(workload: str, inputs: Path, out: Path, manifest: dict) -> tuple[list[Op], list[str]]:
    """One workload pass as a list of ops, plus an untimed warm-up argv."""
    out.mkdir(parents=True, exist_ok=True)
    ops = []
    if workload == "sweep":
        for entry in manifest["files"]:
            csv = out / f"sweep_beta{entry['beta_e']:g}.csv"
            ref = REFERENCE_DIR / csv.name
            ops.append(
                Op(
                    ["--config", str(inputs / entry["config"]), "--out", str(csv), "sweep"],
                    (csv,),
                    lambda rc, s, csv=csv, ref=ref, rows=entry["rows"]: (
                        check_sweep_csv(csv, ref, rows) if rc == 0 else f"fail: sweep exited {rc}"
                    ),
                )
            )
        warmup = ["--c-step", "0.5", "--out", str(out / "warmup.csv"), "sweep"]
    elif workload == "verify":
        report = out / "verify_report.json"
        config = str(inputs / manifest["files"][0]["config"])
        ops.append(Op(["--config", config, "--out", str(report), "verify"], (report,), check_verify))
        warmup = ["--count", "1", "--out", str(out / "warmup.json"), "verify"]
    elif workload == "simulate":
        for k, entry in enumerate(manifest["files"]):
            state = inputs / entry["state"]
            traj = out / f"trajectory_{k}.csv"
            rho0 = read_state_matrix(state)
            ops.append(
                Op(
                    ["--out", str(traj), "simulate", str(state)],
                    (traj, traj.with_name(traj.stem + "_reports.json")),
                    lambda rc, s, traj=traj, rho0=rho0, x=entry["x_shaped"]: check_simulate(
                        rc, s, traj, rho0, x
                    ),
                )
            )
        warmup = ["--t-max", "0.5", "--out", str(out / "warmup.csv"), "simulate",
                  str(inputs / manifest["files"][0]["state"])]
    elif workload == "report":
        h_b = str(inputs / "h_b.json")
        for k, entry in enumerate(manifest["files"]):
            rep = out / f"reports_{k}.json"
            ops.append(
                Op(
                    ["--out", str(rep), "report", str(inputs / entry["state"]), h_b],
                    (rep,),
                    lambda rc, s, rep=rep: check_report(rc, s, rep),
                )
            )
        warmup = ["--out", str(out / "warmup.json")] + ops[0].argv[2:]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops, warmup


def run_pass(ops: list[Op], after_op=None) -> tuple[float, float, list]:
    """Run every op once, back to back; return the pass's start and end and
    the ``invoke`` result of each op. Nothing else runs in between."""
    results = []
    start = perf_counter()
    for op in ops:
        results.append(invoke(op.argv))
        if after_op is not None:
            after_op()
    return start, perf_counter(), results


def check_pass(ops: list[Op], results) -> list[str]:
    """Check each op's outputs, then delete them so no later pass can pass a
    check with a stale file."""
    statuses = []
    for op, (rc, stdout, *_) in zip(ops, results):
        try:
            statuses.append(op.check(rc, stdout))
        except (OSError, ValueError, KeyError, IndexError) as err:
            statuses.append(f"fail: output unreadable: {err!r}")
        for path in op.outputs:
            path.unlink(missing_ok=True)
    return statuses


# ---------------------------------------------------------------------------
# set-up


class SetupProbes:
    """Set-up time: each probe is a fresh interpreter that imports qthermo and
    writes the workload's inputs. The probes are spread over the run so that
    they see the same machine conditions as the timed passes, and every
    probe must write the same bytes as the first."""

    def __init__(self, workload: str, seed: int, size: str, work: Path, speed: SpeedProbe):
        self.cmd = [sys.executable, str(BENCH_DIR / "inputs.py"), "--workload", workload,
                    "--seed", str(seed), "--size", size, "--out"]
        self.work = work
        self.speed = speed
        self.raw_times: list[float] = []
        # At nominal speed; see speedprobe.py.
        self.times: list[float] = []
        self.inputs: Path | None = None

    def probe(self) -> None:
        out = self.work / f"setup_{len(self.times)}"
        before = self.speed.burst()
        with self.speed.paused():
            start = perf_counter()
            subprocess.run(self.cmd + [str(out)], check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
            raw = perf_counter() - start
        self.raw_times.append(raw)
        self.times.append(raw / (0.5 * (before + self.speed.burst())))
        if self.inputs is None:
            self.inputs = out
        elif _dir_bytes(out) != _dir_bytes(self.inputs):
            raise RuntimeError("set-up probes with one seed wrote different inputs")
        else:
            shutil.rmtree(out)


def _dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git (the
    benchmark may run in an exported tree that has no .git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_header(args) -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "blas_threads_env_inherited": INHERITED_BLAS_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": SIZES[args.size],
        "verify_seed": VERIFY_SEED if args.workload == "verify" else None,
    }


# ---------------------------------------------------------------------------
# timed (trace 0) and traced (trace 1) runs


def percentile_or_none(values: list[float], q: int) -> float | None:
    """q-th percentile, or None when fewer than ten samples lie beyond it."""
    if len(values) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def outcome(statuses: list[str]) -> dict:
    failed = [s for s in statuses if s != "ok"]
    return {
        "correct": all(s in ("ok", "known_defect") for s in statuses),
        "attempted": len(statuses),
        "failed": len(failed),
        "known_defect": failed.count("known_defect"),
        "failures": sorted({s for s in failed if s != "known_defect"})[:5],
    }


def timed_run(ops, warmup, seconds: float, probes: SetupProbes, speed: SpeedProbe):
    """Repeat whole passes for ``seconds``; the remaining set-up probes run
    between passes at even intervals. Every time is reported at nominal
    vCPU speed (see ``speedprobe.py``); the raw medians go to the summary."""
    invoke(warmup)
    passes, op_spans, statuses = [], [], []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        pass_start, pass_end, results = run_pass(ops)
        passes.append((pass_start, pass_end))
        op_spans.extend((op_start, op_end) for _, _, op_start, op_end in results)
        statuses.extend(check_pass(ops, results))
        due = len(probes.times) * seconds / SETUP_PROBES
        if len(probes.times) < SETUP_PROBES and perf_counter() - start >= due:
            probes.probe()
    while len(probes.times) < SETUP_PROBES:
        probes.probe()
    speed.stop()

    def median(spans, scale=1.0):
        return (
            scale * statistics.median(speed.nominal(s, e) for s, e in spans),
            scale * statistics.median(e - s for s, e in spans),
        )

    setup_s = statistics.median(probes.times)
    raw_setup_s = statistics.median(probes.raw_times)
    wall_s, raw_wall_s = median(passes)
    op_p50_ms, raw_op_p50_ms = median(op_spans, 1e3)
    op_ms = [1e3 * speed.nominal(s, e) for s, e in op_spans]
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_p50_ms": op_p50_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result = outcome(statuses)
    summary = {
        **result,
        "failed_frac": result["failed"] / result["attempted"],
        "passes": len(passes),
        "ops": len(op_ms),
        "op_p95_ms": percentile_or_none(op_ms, 95),
        "raw": {"setup_s": raw_setup_s, "wall_s": raw_wall_s, "op_p50_ms": raw_op_p50_ms},
        "setup_probe_s": probes.raw_times,
        "speed_probe": speed.summary(),
    }
    return result, metrics, summary


def retime_chi(chi_inputs) -> tuple[float, float]:
    """Untraced time of chi_A_max on the traced run's own states: the full
    search, and the coarse grid alone (an angle_tol at least the initial
    refinement step skips the refinement)."""
    from qthermo.correlations import SearchGrid, chi_A_max

    full = grid_only = 0.0
    for rho, grid in chi_inputs:
        grid = grid or SearchGrid()
        start = perf_counter()
        chi_A_max(rho, grid)
        mid = perf_counter()
        chi_A_max(rho, SearchGrid(coarse=grid.coarse, angle_tol=math.pi))
        grid_only += perf_counter() - mid
        full += mid - start
    return full, grid_only


def span_values(tracer: Tracer) -> dict:
    """Per-module metrics of one traced pass, from its spans and counters."""
    values = {}
    for span, fields in SPANS.items():
        stats = tracer.stats.get(span)
        for field in fields:
            values[f"{span}.{field}"] = getattr(stats, field) if stats else 0
    values.update(tracer.counters)
    steps = tracer.counters["dissipation.evolve.steps"]
    evolve = tracer.stats["dissipation.evolve"]
    values["dissipation.evolve.step_us"] = 1e6 * evolve.total_s / steps if steps else None
    rows_ms = [1e3 * d for d in tracer.durations["cli.sweep_row"]]
    values["cli.sweep_row.p50_ms"] = percentile_or_none(rows_ms, 50)
    values["cli.sweep_row.p90_ms"] = percentile_or_none(rows_ms, 90)
    values["random_states.self_s"] = sum(
        s.self_s for name, s in tracer.stats.items() if name.startswith("random_states.")
    )
    return values


def sweep_count_problems(calls: dict, manifest: dict) -> list[str]:
    """Compare the beta_e = 10 pass's call counts with the per-row baseline."""
    entry = manifest["files"][0]
    if entry["beta_e"] != 10.0:
        raise RuntimeError("the per-row count check expects the beta_e = 10 pass first")
    rows = entry["rows"]
    return [
        f"beta_e = 10 pass: {name} ran {calls.get(name, 0)} times, "
        f"expected {per_row} x {rows} rows"
        for name, per_row in SWEEP_ROW_COUNTS.items()
        if calls.get(name, 0) != per_row * rows
    ]


def traced_run(workload, ops, warmup, manifest, seconds: float, speed: SpeedProbe):
    """Alternate untraced and traced passes for ``seconds`` (at least two of
    each). Checks that tracing changes no sweep output byte and that every
    traced pass makes the same calls; reports each metric's median over the
    traced passes. Only the pass times behind ``trace_overhead_frac`` are
    speed-corrected; layer times are raw."""
    from qthermo.verify import SUITES, run_suites

    invoke(warmup)
    statuses, problems = [], []
    untraced_walls, traced_walls, per_pass, counts = [], [], [], []
    reference_outputs = None
    first_tracer = None
    start = perf_counter()
    while len(per_pass) < 2 or perf_counter() - start < seconds:
        pass_start, pass_end, results = run_pass(ops)
        untraced_walls.append(speed.nominal(pass_start, pass_end))
        if workload == "sweep" and reference_outputs is None:
            reference_outputs = [op.outputs[0].read_bytes() for op in ops]
        statuses.extend(check_pass(ops, results))

        tracer = Tracer()
        snapshots = []
        tracer.install()
        try:
            pass_start, pass_end, results = run_pass(
                ops, after_op=lambda: snapshots.append(tracer.calls())
            )
        finally:
            tracer.uninstall()
        traced_walls.append(speed.nominal(pass_start, pass_end))
        if reference_outputs is not None:
            if [op.outputs[0].read_bytes() for op in ops] != reference_outputs:
                problems.append("traced sweep CSV differs from the untraced one")
        statuses.extend(check_pass(ops, results))
        if workload == "sweep" and not per_pass:
            problems.extend(sweep_count_problems(snapshots[0], manifest))
        counts.append((tracer.calls(), dict(tracer.counters)))
        per_pass.append(span_values(tracer))
        first_tracer = first_tracer or tracer
    speed.stop()
    if any(c != counts[0] for c in counts[1:]):
        problems.append("call counts differ between traced passes")

    values = {}
    for name in per_pass[0]:
        samples = [p[name] for p in per_pass]
        values[name] = None if None in samples else statistics.median(samples)
    full, grid_only = retime_chi(first_tracer.chi_inputs)
    values["correlations.chi_A_max.grid_s"] = grid_only
    values["correlations.chi_A_max.refine_s"] = full - grid_only
    values["trace_overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    for suite, _, _ in SUITES:
        suite_s = None
        if workload == "verify":
            t0 = perf_counter()
            run_suites(seed=VERIFY_SEED, n=manifest["files"][0]["count"], names=[suite])
            suite_s = perf_counter() - t0
        values[f"verify.suite_s.{suite}"] = suite_s

    result = outcome(statuses)
    result["correct"] = result["correct"] and not problems
    summary = {
        **result,
        "failed_frac": result["failed"] / result["attempted"],
        "self_check_problems": sorted(set(problems)),
        "traced_passes": len(per_pass),
        "untraced_wall_s": statistics.median(untraced_walls),
        "traced_wall_s": statistics.median(traced_walls),
    }
    return result, values, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the qthermo CLI.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qthermo" / "__init__.py").is_file():
        print(f"no qthermo sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    # One vCPU for this process and the set-up probes it starts, so that the
    # speed probe samples the core that runs the work.
    with contextlib.suppress(OSError, AttributeError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(json.dumps({"header": run_header(args)}))

    speed = SpeedProbe()
    probes = SetupProbes(args.workload, args.seed, args.size, work, speed)
    try:
        speed.start()
        if args.trace:
            inputs = work / "inputs"
            sys.path.insert(0, str(ROOT / "src"))
            write_inputs(args.workload, args.seed, inputs, args.size)
        else:
            probes.probe()
            inputs = probes.inputs
            sys.path.insert(0, str(ROOT / "src"))
        import qthermo  # noqa: F401

        manifest = json.loads((inputs / "manifest.json").read_text())
        ops, warmup = build_ops(args.workload, inputs, work / "out", manifest)

        if args.trace:
            result, values, summary = traced_run(
                args.workload, ops, warmup, manifest, args.seconds, speed
            )
            units = per_layer_units()
            print(json.dumps({"trace_report": {n: {"value": values[n], "unit": u}
                                               for n, u in units.items()}}))
            names = per_layer_names(units)
        else:
            result, values, summary = timed_run(ops, warmup, args.seconds, probes, speed)
            units, names = END_TO_END, list(END_TO_END)
    finally:
        speed.stop()
    print(json.dumps({"summary": summary}))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
