"""Seeded inputs for the qthermo benchmark workloads.

Run as a script, this is the set-up probe: a fresh interpreter that imports
qthermo and writes one workload's input files, so that its wall time is the
set-up time a user pays before the first command runs:

    python3 bench/inputs.py --workload report --seed 3 --out .bench_work/probe
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "verify", "simulate", "report")

# verify runs at a fixed seed: its suites must all pass, and the seed only
# reorders which random states they draw, not how much work they do.
VERIFY_SEED = 7

SIZES = {
    # full: what BENCHMARK.json measures.
    "full": {
        "sweep": {"betas": [10.0, 1.0], "c_step": 0.01},
        "verify": {"count": 50},
        "simulate": {"states": 5},
        "report": {"states": 20},
    },
    # tiny: the self-test's schema check, seconds per workload.
    "tiny": {
        "sweep": {"betas": [10.0, 1.0], "c_step": 0.25},
        "verify": {"count": 2},
        "simulate": {"states": 2},
        "report": {"states": 2},
    },
}

_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _matrix_json(m: np.ndarray, dims=None) -> dict:
    obj = {
        "re": [[float(v.real) for v in row] for row in m],
        "im": [[float(v.imag) for v in row] for row in m],
    }
    if dims is not None:
        obj = {"dims": list(dims), **obj}
    return obj


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def locally_thermal_state(rng, omega: float = 1.0) -> np.ndarray:
    """Two-qubit state whose marginals are both thermal for diag(omega, 0) at
    one random beta, and which is not X-shaped.

    thermal (x) thermal plus a traceless sum_ij t_ij sigma_i (x) sigma_j: the
    added term leaves both marginals unchanged, and it is scaled below the
    product state's smallest eigenvalue so the sum stays positive.
    """
    beta = rng.uniform(0.2, 3.0)
    p = np.exp(-beta * np.array([omega, 0.0]))
    p /= p.sum()
    product = np.kron(np.diag(p), np.diag(p)).astype(complex)
    t = rng.standard_normal((3, 3))
    corr = sum(t[i, j] * np.kron(_PAULIS[i], _PAULIS[j]) for i in range(3) for j in range(3))
    scale = rng.uniform(0.1, 0.9) * np.linalg.eigvalsh(product).min()
    return product + scale * corr / np.abs(np.linalg.eigvalsh(corr)).max()


def write_inputs(workload: str, seed: int, out: Path, size: str = "full") -> dict:
    """Write the input files of one workload into ``out``; return a manifest
    of what was written and the parameters each command gets."""
    from qthermo.random_states import random_two_qubit_state, random_x_state

    spec = SIZES[size][workload]
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "size": size, "files": []}

    if workload == "sweep":
        # The paper's figure grid: independent of the seed by design, so that
        # every run can be checked against the stored reference CSVs.
        for beta in spec["betas"]:
            name = f"sweep_beta{beta:g}.json"
            _write_json(out / name, {"beta_e": beta, "c_step": spec["c_step"]})
            rows = int(round(1.0 / spec["c_step"])) + 1
            manifest["files"].append({"config": name, "beta_e": beta, "rows": rows})
    elif workload == "verify":
        _write_json(out / "verify.json", {"seed": VERIFY_SEED, "verify_count": spec["count"]})
        manifest["files"].append({"config": "verify.json", "count": spec["count"]})
    elif workload == "simulate":
        # Alternately generic full-rank (run the whole horizon) and X-shaped
        # (reach the closed-form fixed point and stop early). An odd count
        # with one generic state more keeps the median op inside the generic
        # mode instead of between the two modes.
        rng = np.random.default_rng([seed, 1])
        for k in range(spec["states"]):
            x_shaped = k % 2 == 1
            rho = random_x_state(rng) if x_shaped else random_two_qubit_state(rng)
            name = f"rho0_{k}.json"
            _write_json(out / name, _matrix_json(rho.matrix, rho.dims))
            manifest["files"].append({"state": name, "x_shaped": x_shaped})
    elif workload == "report":
        rng = np.random.default_rng([seed, 2])
        _write_json(out / "h_b.json", _matrix_json(np.diag([1.0, 0.0]).astype(complex)))
        for k in range(spec["states"]):
            name = f"state_{k}.json"
            _write_json(out / name, _matrix_json(locally_thermal_state(rng), (2, 2)))
            manifest["files"].append({"state": name})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write_json(out / "manifest.json", manifest)
    return manifest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import qthermo  # noqa: F401  (the import is part of the measured set-up)

    write_inputs(args.workload, args.seed, Path(args.out), args.size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
