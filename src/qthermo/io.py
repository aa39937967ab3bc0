"""Readers and writers for the file formats: JSON states and Hamiltonians
(re/im layout), relation and verify reports, and the CSV tables.

Floats in CSV carry 12 significant digits with a '.' decimal separator, the
bytes of "%.12g", rendered by ``_csvcells``, which the CSV writers import on
first use; CSV files are written in binary mode, so lines end in '\n' on
every platform.
Non-finite floats are encoded as the strings "inf", "-inf", "nan" in JSON
(strict parsers reject bare Infinity tokens).
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

from .core import DensityMatrix
from .thermo import Hamiltonian

if TYPE_CHECKING:  # annotations only: reading a state loads neither module
    from .dissipation import Trajectory
    from .relations import RelationReport


def _matrix_to_json(m: np.ndarray) -> dict:
    return {
        "re": [[float(v.real) for v in row] for row in m],
        "im": [[float(v.imag) for v in row] for row in m],
    }


def _matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError(f"matrix file must hold a JSON object, got {type(obj).__name__}")
    missing = [key for key in ("re", "im") if key not in obj]
    if missing:
        raise ValueError(
            f"matrix file needs both re and im arrays; missing {' and '.join(missing)}"
        )
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


# rows rendered per write of the trajectory CSV: a chunk's table and the
# renderer's work arrays, text and output take about 110 bytes per cell, a
# 1.02 MB peak at 256 rows of 35 cells
CSV_CHUNK_ROWS = 256


def write_trajectory_csv(path, trajectory: Trajectory) -> None:
    """One row per stored step: t, the 16 entries re/im interleaved, trace,
    and the smallest eigenvalue (from the trajectory's own check).  The file
    is written in binary mode, so every line ends in "\\n" on every platform,
    CSV_CHUNK_ROWS rows at a time, each chunk rendered to bytes by one
    ``CsvRenderer``."""
    from ._csvcells import CsvRenderer

    header = trajectory_header()
    states = trajectory.states
    table = np.empty((min(CSV_CHUNK_ROWS, len(states)), len(header)))
    renderer = CsvRenderer(table.size)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(states), CSV_CHUNK_ROWS):
            rows = slice(start, start + CSV_CHUNK_ROWS)
            chunk = states[rows]
            part = table[: len(chunk)]
            part[:, 0] = trajectory.times[rows]
            entries = chunk.reshape(-1, 16)
            part[:, 1:33:2] = entries.real
            part[:, 2:33:2] = entries.imag
            part[:, 33] = np.trace(chunk, axis1=1, axis2=2).real
            part[:, 34] = trajectory.min_eigenvalues[rows]
            fh.write(renderer.render(part))


def write_csv(path, columns: list[str], rows: list[dict]) -> None:
    """One header line, then one line per row dict in ``columns`` order,
    written in binary mode like the trajectory CSV."""
    from ._csvcells import CsvRenderer

    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        table = np.array([[row[c] for c in columns] for row in rows], dtype=float)
        table = table.reshape(len(rows), len(columns))
        fh.write(CsvRenderer(table.size).render(table) if table.size else b"\n" * len(rows))
