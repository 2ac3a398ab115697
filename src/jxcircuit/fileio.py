"""Schema-versioned file formats: matrix JSON, phase JSON, record CSV, metadata.

Matrices are stored with separate real/imaginary grids for human
diffability; floats round-trip bitwise (shortest-decimal JSON encoding,
non-finite values rejected).  Phase grids are canonicalized into
[0, 2 pi) on write.  Loaders reject unknown major schema versions.  Every
file is written atomically (see ``write_text``).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import platform
from pathlib import Path

import numpy as np

from .circuit import PhaseProgram
from .experiments import ExperimentRecord
from .numerics import SpdSolver, as_complex_matrix, unitarity_defect

__all__ = [
    "MATRIX_SCHEMA_VERSION",
    "PHASE_SCHEMA_VERSION",
    "METADATA_SCHEMA_VERSION",
    "UNITARY_LOAD_TOLERANCE",
    "write_text",
    "write_matrix",
    "read_matrix",
    "write_phases",
    "read_phases",
    "write_records",
    "read_records",
    "write_metadata",
    "read_metadata",
]

MATRIX_SCHEMA_VERSION = "1.0"
PHASE_SCHEMA_VERSION = "1.0"
METADATA_SCHEMA_VERSION = "1.0"

#: a file claiming role "unitary" is rejected on load beyond this defect
UNITARY_LOAD_TOLERANCE = 1e-6

#: record CSV header: the fields of ExperimentRecord, in declaration order
RECORD_COLUMNS = [f.name for f in dataclasses.fields(ExperimentRecord)]
#: cell parser per annotated field type; an empty cell is an unmeasured value
_CELL_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "float | None": lambda text: None if text == "" else float(text),
}
_COLUMN_PARSERS = [_CELL_PARSERS[f.type] for f in dataclasses.fields(ExperimentRecord)]


def _load_json(path, version: str, kind: str | None, keys: tuple[str, ...] = ()) -> dict:
    """The JSON object in ``path``, of ``version``'s major schema version, of
    ``kind`` (any, if None) and holding every key of ``keys``; any other
    document is a ``ValueError`` that names the file."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    found, major = doc.get("schema_version"), version.split(".")[0]
    if str(found).split(".")[0] != major:
        raise ValueError(
            f"{path}: unsupported schema version {found!r} (supported major version {major})")
    if kind is not None and doc.get("kind") != kind:
        raise ValueError(f"{path}: not a {kind} file (kind={doc.get('kind')!r})")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    return doc


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as given (no newline translation), atomically.

    The text goes to a temporary file beside ``path`` that replaces it only
    once complete, so an interrupted write leaves the previous file intact
    and no partial one behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_matrix(path, matrix) -> None:
    """Write a unitary matrix as a file of role "unitary"."""
    m = as_complex_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix file stores square matrices, got {m.shape}")
    doc = {
        "schema_version": MATRIX_SCHEMA_VERSION,
        "kind": "matrix",
        "role": "unitary",
        "n": m.shape[0],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }
    write_text(path, json.dumps(doc, indent=1, allow_nan=False) + "\n")


def read_matrix(path) -> np.ndarray:
    """Load a matrix file, validating shape, finiteness and claimed role
    (a file of role "general", or of none, may hold any finite matrix)."""
    doc = _load_json(path, MATRIX_SCHEMA_VERSION, "matrix", ("n", "re", "im"))
    n = int(doc["n"])
    re = np.asarray(doc["re"], dtype=float)
    im = np.asarray(doc["im"], dtype=float)
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(
            f"{path}: grids have shape {re.shape}/{im.shape}, expected ({n}, {n})"
        )
    m = re + 1j * im
    if not np.isfinite(m).all():
        raise ValueError(f"{path}: matrix contains non-finite entries")
    if doc.get("role", "general") == "unitary":
        defect = unitarity_defect(m)
        if defect > UNITARY_LOAD_TOLERANCE:
            raise ValueError(
                f"{path}: claims role 'unitary' but ||U†U - I||_F = {defect:.3e}"
            )
    return m


def write_phases(path, program: PhaseProgram) -> None:
    """Serialize a phase program, canonicalizing phases into [0, 2 pi)."""
    canon = program.canonical()
    mask_rows = []
    for mm in range(canon.layers):
        row: list = []
        for pp in range(canon.ports):
            row.append(float(canon.theta[mm, pp]) if canon.fixed[mm, pp] else "free")
        mask_rows.append(row)
    doc = {
        "schema_version": PHASE_SCHEMA_VERSION,
        "kind": "phases",
        "n": canon.ports,
        "m": canon.layers,
        "theta": canon.theta.tolist(),
        "mask": mask_rows,
    }
    write_text(path, json.dumps(doc, indent=1, allow_nan=False) + "\n")


def read_phases(path) -> PhaseProgram:
    doc = _load_json(path, PHASE_SCHEMA_VERSION, "phases", ("m", "n", "theta", "mask"))
    m, n = int(doc["m"]), int(doc["n"])
    theta = np.asarray(doc["theta"], dtype=float)
    if theta.shape != (m, n):
        raise ValueError(f"{path}: theta shape {theta.shape}, expected ({m}, {n})")
    mask = doc["mask"]
    if len(mask) != m or any(len(row) != n for row in mask):
        raise ValueError(f"{path}: mask dimensions do not match theta")
    fixed = np.zeros((m, n), dtype=bool)
    for mm in range(m):
        for pp in range(n):
            entry = mask[mm][pp]
            if entry == "free":
                continue
            # the mask value is authoritative for frozen shifters
            fixed[mm, pp] = True
            theta[mm, pp] = float(entry)
    return PhaseProgram(theta, fixed)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_records(path, records) -> None:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(RECORD_COLUMNS)
    for rec in records:
        writer.writerow([_format_cell(getattr(rec, name)) for name in RECORD_COLUMNS])
    write_text(path, buffer.getvalue())


def read_records(path) -> list[ExperimentRecord]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RECORD_COLUMNS:
            raise ValueError(
                f"{path}: unrecognized record header (schema mismatch): {header}"
            )
        out = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(RECORD_COLUMNS):
                raise ValueError(
                    f"{path}:{reader.line_num}: {len(row)} cells, "
                    f"expected {len(RECORD_COLUMNS)}"
                )
            out.append(ExperimentRecord(**{
                name: parse(cell)
                for name, parse, cell in zip(RECORD_COLUMNS, _COLUMN_PARSERS, row)
            }))
    return out


def write_metadata(path, experiment: str, master_seed: int, parameters: dict) -> None:
    """Write the run's metadata; ``versions`` records the numeric environment,
    because the last bits of the records at N = 16 depend on it."""
    from . import __version__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    doc = {
        "schema_version": METADATA_SCHEMA_VERSION,
        "experiment": experiment,
        "master_seed": master_seed,
        "parameters": parameters,
        "versions": {
            "jxcircuit": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "damped_solve": SpdSolver.lapack,
            **{name: os.environ.get(name)
               for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
    }
    write_text(path, json.dumps(doc, indent=1, allow_nan=False) + "\n")


def read_metadata(path) -> dict:
    return _load_json(path, METADATA_SCHEMA_VERSION, None)
