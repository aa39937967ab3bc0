"""Smoke tests of the example scripts and README's library sketch: each runs
in a fresh interpreter on the package from this checkout, with RuntimeWarning
raised as an error, and the scripts print their headline lines."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _run(*argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout.splitlines()


def test_reproduce_figures(tmp_path):
    out = tmp_path / "sweep.csv"
    lines = _run(
        SCRIPTS / "reproduce_figures.py", "--c-step", "0.1", "--out", str(out), cwd=tmp_path
    )
    assert lines[0] == f"wrote 11 rows to {out}"
    assert "tight bound saturated (|slack| <= 0.02 nats) for c >= 0.8" in lines
    assert any(line.startswith("slope discontinuity of the plain bound at c = 0.5: ") for line in lines)
    assert len(out.read_text().splitlines()) == 12


def test_steady_state_convergence(tmp_path):
    lines = _run(SCRIPTS / "steady_state_convergence.py", cwd=tmp_path)
    singlet = [line.split() for line in lines if line.startswith("singlet")]
    assert len(singlet) == 1
    # the singlet is dark: it starts on its steady state and stays there
    label, c, *distances = singlet[0]
    assert c == "0.00"
    assert len(distances) == 5
    assert all(float(d) < 1e-12 for d in distances)


def test_readme_library_sketch(tmp_path):
    (sketch,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert _run("-c", sketch, cwd=tmp_path) == []
