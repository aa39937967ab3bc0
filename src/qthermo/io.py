"""Readers and writers for the file formats: JSON states and Hamiltonians
(re/im layout), relation and verify reports, and the CSV tables.

Floats in CSV carry 12 significant digits with a '.' decimal separator.
Non-finite floats are encoded as the strings "inf", "-inf", "nan" in JSON
(strict parsers reject bare Infinity tokens).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import DensityMatrix
from .dissipation import Trajectory
from .relations import RelationReport
from .thermo import Hamiltonian


def _write_rows(fh, rows, width: int) -> None:
    """Write each row of ``width`` numbers as one CSV line, every value in the
    12-significant-digit "%.12g" form."""
    row_format = ",".join(["%.12g"] * width) + "\n"
    fh.write("".join([row_format % tuple(row) for row in rows]))


def _matrix_to_json(m: np.ndarray) -> dict:
    return {
        "re": [[float(v.real) for v in row] for row in m],
        "im": [[float(v.imag) for v in row] for row in m],
    }


def _matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError(f"matrix file must hold a JSON object, got {type(obj).__name__}")
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (TypeError, OverflowError) as err:
        raise ValueError(f"re and im must be arrays of numbers: {err}") from None
    if re.shape != im.shape:
        raise ValueError(f"re/im shapes disagree: {re.shape} vs {im.shape}")
    # 1j * inf has a NaN real part; the non-finite check rejects it
    with np.errstate(invalid="ignore"):
        return re + 1.0j * im


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isfinite(v):
            return v
        return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    return value


def write_json(path, obj) -> None:
    """Write ``obj`` as indented JSON plus a newline, non-finite floats as
    strings; every JSON artifact goes through here."""
    with open(path, "w") as fh:
        fh.write(json.dumps(_jsonable(obj), indent=1, allow_nan=False))
        fh.write("\n")


def write_state(path, rho: DensityMatrix) -> None:
    obj = {
        "dims": list(rho.dims) if rho.dims is not None else None,
        **_matrix_to_json(rho.matrix),
    }
    write_json(path, obj)


def read_state(path) -> DensityMatrix:
    """Load a state file and validate the density-matrix invariants; a
    missing or null ``dims`` means no bipartite split."""
    with open(path) as fh:
        obj = json.load(fh)
    return DensityMatrix(_matrix_from_json(obj), dims=obj.get("dims"))


def write_hamiltonian(path, h: Hamiltonian) -> None:
    write_json(path, _matrix_to_json(h.matrix))


def read_hamiltonian(path) -> Hamiltonian:
    with open(path) as fh:
        obj = json.load(fh)
    return Hamiltonian(_matrix_from_json(obj))


def write_reports(path, reports: list[RelationReport]) -> None:
    write_json(path, [r.to_dict() for r in reports])


def trajectory_header() -> list[str]:
    cols = ["t"]
    for i in range(4):
        for j in range(4):
            cols.append(f"re_{i}{j}")
            cols.append(f"im_{i}{j}")
    cols.extend(["trace", "min_eigenvalue"])
    return cols


# rows formatted per write of the trajectory CSV
CSV_CHUNK_ROWS = 512


def write_trajectory_csv(path, trajectory: Trajectory) -> None:
    """One row per stored step: t, the 16 entries re/im interleaved, trace,
    and the smallest eigenvalue (from the trajectory's own check)."""
    header = trajectory_header()
    states = trajectory.states
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(states), CSV_CHUNK_ROWS):
            rows = slice(start, start + CSV_CHUNK_ROWS)
            chunk = states[rows]
            table = np.empty((len(chunk), len(header)))
            table[:, 0] = trajectory.times[rows]
            entries = chunk.reshape(-1, 16)
            table[:, 1:33:2] = entries.real
            table[:, 2:33:2] = entries.imag
            table[:, 33] = np.trace(chunk, axis1=1, axis2=2).real
            table[:, 34] = trajectory.min_eigenvalues[rows]
            _write_rows(fh, table.tolist(), len(header))


def write_csv(path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        _write_rows(fh, [[row[c] for c in columns] for row in rows], len(columns))
