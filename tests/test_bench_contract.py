"""The benchmark still runs against the current sources.

Each workload of ``bench/run.py`` runs once in trace mode at tiny size, in a
copy of ``src/``, ``bench/`` and ``BENCHMARK.json``, so the checkout is never
written to.  Trace mode checks every op's output, the pinned per-row call
counts of the sweep and the library names the harness imports; this test
keeps those in step with the library.  The result line must name exactly the
per-layer metrics of BENCHMARK.json, with their units.  Without the sources
the harness must refuse to run rather than print a result.  It has no timing
gate.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_copy")
    for name in ("src", "bench"):
        shutil.copytree(REPO / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", root)
    return root


@pytest.mark.parametrize("workload", ["sweep", "verify", "simulate", "report"])
def test_traced_workload_passes_its_checks(bench_copy, workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1"]
        + ["--seconds", "0.1", "--trace", "1", "--size", "tiny"],
        cwd=bench_copy,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    summary = next(line["summary"] for line in lines if "summary" in line)
    result = lines[-1]
    assert summary["self_check_problems"] == []
    assert (result["correct"], result["failed"]) == (True, 0), summary
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in spec["per_layer"]}


def test_refuses_a_checkout_without_sources(tmp_path):
    """Only ``bench/`` and BENCHMARK.json: exit 2 and no result line."""
    shutil.copytree(REPO / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert '"metrics"' not in proc.stdout
    assert not (tmp_path / ".bench_work").exists()
