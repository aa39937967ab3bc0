"""Readers and writers for the file formats: JSON states and Hamiltonians
(re/im layout), relation and verify reports, and the CSV tables.

Floats in CSV carry 12 significant digits with a '.' decimal separator; CSV
files are written in binary mode, so lines end in '\n' on every platform.
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


def _write_rows(fh, table: np.ndarray) -> None:
    """Write each row of the float64 ``table`` as one CSV line to the binary
    file ``fh``, every value in the 12-significant-digit "%.12g" form (bytes
    ``%`` makes the same conversion as str ``%``, with no encoding pass).  A
    column whose float64 bits are the same in every row (so -0.0 and +0.0
    differ) is formatted once, into the row format itself; the other columns
    are formatted by one ``%`` over the row format repeated once per row."""
    if not len(table):
        return
    bits = table.view(np.int64)
    constant = (bits == bits[0]).all(axis=0)
    row_format = b",".join(
        b"%.12g" % x if same else b"%.12g" for x, same in zip(table[0].tolist(), constant)
    ) + b"\n"
    fh.write((row_format * len(table)) % tuple(table[:, ~constant].ravel().tolist()))


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


# rows formatted per write of the trajectory CSV
CSV_CHUNK_ROWS = 512


def write_trajectory_csv(path, trajectory: Trajectory) -> None:
    """One row per stored step: t, the 16 entries re/im interleaved, trace,
    and the smallest eigenvalue (from the trajectory's own check).  The file
    is written in binary mode, so every line ends in "\\n" on every platform,
    CSV_CHUNK_ROWS rows at a time, each chunk formatted to bytes by
    ``_write_rows``; a column that is constant by bits within a chunk (the
    re-hermitized diagonal's zero imaginary parts, the zeros off an X-shaped
    state's X) is formatted once for that chunk, with the same bytes as row
    by row."""
    header = trajectory_header()
    states = trajectory.states
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
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
            _write_rows(fh, table)


def write_csv(path, columns: list[str], rows: list[dict]) -> None:
    """One header line, then one line per row dict in ``columns`` order,
    written in binary mode like the trajectory CSV."""
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        table = np.array([[row[c] for c in columns] for row in rows], dtype=float)
        _write_rows(fh, table.reshape(len(rows), len(columns)))
