"""Self-test of the benchmark at tiny sizes: output schema and metric names.

    python3 bench/selftest.py

Run from the repository root. It checks BENCHMARK.json against the format
the benchmark promises, runs every workload with ``--size tiny`` with tracing
off and on, and checks that the last output line carries exactly the metrics
BENCHMARK.json names, with their units. Finally it runs the benchmark in a
directory holding only BENCHMARK.json and bench/, where it must fail without
printing a result. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
HEADER_KEYS = {"git_sha", "nproc", "python", "numpy", "blas_threads_env", "seed", "sizes"}


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def check_spec(spec: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        if not NAME.match(name):
            fail(f"bad name {name!r}")
    if len(set(names)) != len(names):
        fail("a name is used twice")
    if not 2 <= len(spec["workloads"]) <= 8:
        fail("need 2 to 8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            fail(f"workload {w['name']}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end-to-end metric {m['name']}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per-layer metric {m['name']}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            fail(f"metric {m['name']} unit/better")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s missing or malformed")
    if setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must have the largest bound")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        fail("run_seconds")


def run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_output(lines: list[str], expected: dict[str, str], trace: int, label: str) -> None:
    header = json.loads(lines[0]).get("header", {})
    if not HEADER_KEYS <= set(header):
        fail(f"{label}: header lacks {sorted(HEADER_KEYS - set(header))}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{label}: outputs not correct: {lines[-2]}")
    for key in ("attempted", "failed"):
        if type(result[key]) is not int:
            fail(f"{label}: {key} is not a whole number")
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        fail(f"{label}: attempted/failed out of range")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"{label}: metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, m in metrics.items():
        value = m["value"]
        if set(m) != {"value", "unit"} or m["unit"] != expected[name]:
            fail(f"{label}: {name} is {m}, unit should be {expected[name]}")
        if type(value) not in (int, float) or not math.isfinite(value):
            fail(f"{label}: {name} value {value!r} is not a finite number")
        if trace == 0 and value <= 0:
            fail(f"{label}: end-to-end {name} is {value}, expected a positive reading")
    if trace == 1 and not any('"trace_report"' in line for line in lines):
        fail(f"{label}: no trace report line")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    command = spec["command"]
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = run(
                command
                + ["--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--size", "tiny"],
                ROOT,
            )
            if proc.returncode != 0:
                fail(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
            check_output(proc.stdout.strip().splitlines(), units[trace], trace, label)
            print(f"ok  {label}")

    bare = ROOT / ".bench_work" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(command + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                              "--seconds", "1", "--trace", "0"], bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            fail("the benchmark did not fail in a directory without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  fails without the program")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
