"""What importing qthermo loads. Each import check runs in a fresh
interpreter, since this test session has long since loaded every module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _python(code: str, env=None):
    """Run ``code`` in a fresh interpreter on this checkout's package, in
    ``env`` (default: this process's environment); return what it printed as
    one JSON value."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'qthermo')"


def test_import_qthermo_loads_no_submodule():
    assert _python(f"import json, sys, qthermo; print(json.dumps({_LOADED}))") == ["qthermo"]


def test_cli_loads_neither_verify_nor_random_states():
    loaded = _python(f"import json, sys, qthermo.cli; print(json.dumps({_LOADED}))")
    assert "qthermo.cli" in loaded
    assert "qthermo.verify" not in loaded and "qthermo.random_states" not in loaded


def test_reading_a_state_loads_only_what_it_uses():
    loaded = _python(f"import json, sys; from qthermo.io import read_state; print(json.dumps({_LOADED}))")
    assert loaded == ["qthermo", "qthermo.core", "qthermo.io", "qthermo.thermo"]


def test_every_export_is_the_object_of_its_home_module():
    mismatched, uncached = _python(
        "import importlib, json, qthermo\n"
        "mismatched = [name for name in qthermo.__all__ if getattr(qthermo, name) is not\n"
        "    getattr(importlib.import_module('qthermo.' + qthermo._HOME[name]), name)]\n"
        "print(json.dumps([mismatched, sorted(set(qthermo.__all__) - set(vars(qthermo)))]))"
    )
    assert mismatched == []
    assert uncached == []  # a second read finds the name without __getattr__


def test_exports_keep_their_names_and_submodules_stay_reachable():
    found = _python(
        "import json, qthermo\n"
        "from qthermo import DensityMatrix, core, verify\n"
        "print(json.dumps([DensityMatrix is core.DensityMatrix, qthermo.run_suites is verify.run_suites,\n"
        "    qthermo.cli.__name__, qthermo.__version__, len(qthermo.__all__)]))"
    )
    assert found == [True, True, "qthermo.cli", "0.1.0", 57]


def test_an_unknown_attribute_raises_attribute_error():
    message = _python(
        "import json, qthermo\n"
        "try:\n"
        "    qthermo.no_such_name\n"
        "except AttributeError as err:\n"
        "    print(json.dumps(str(err)))"
    )
    assert message == "module 'qthermo' has no attribute 'no_such_name'"


def test_dir_lists_the_exports_before_they_load():
    listed, loaded = _python(
        f"import json, sys, qthermo; print(json.dumps([dir(qthermo), {_LOADED}]))"
    )
    assert loaded == ["qthermo"]
    assert {"DensityMatrix", "measure", "run_suites", "__version__", "cli", "io"} <= set(listed)


def test_verify_without_a_seed_runs_the_suites_default_seed(tmp_path, monkeypatch, capsys):
    # RunConfig leaves the seed unset rather than import verify for its default
    from qthermo import cli, verify

    seeds = []
    monkeypatch.setattr(verify, "run_suites", lambda seed, n: seeds.append(seed) or [])
    out = str(tmp_path / "v.json")
    assert cli.main(["--count", "1", "--out", out, "verify"]) == 0
    assert cli.main(["--seed", "3", "--count", "1", "--out", out, "verify"]) == 0
    assert seeds == [verify.DEFAULT_SEED, 3]


# Records the BLAS thread variable at the moment numpy is first imported.
_SPY_ON_NUMPY = (
    "import json, os, sys\n"
    "seen = []\n"
    "class Spy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'numpy' and not seen:\n"
    "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    "sys.meta_path.insert(0, Spy())\n"
    "import qthermo.cli\n"
    "print(json.dumps(seen))"
)


@pytest.mark.parametrize("given, loaded_with", [(None, "1"), ("2", "2")])
def test_cli_caps_blas_threads_before_numpy_loads(given, loaded_with):
    """One OpenBLAS thread unless the caller set a count."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    assert _python(_SPY_ON_NUMPY, env) == [loaded_with]
