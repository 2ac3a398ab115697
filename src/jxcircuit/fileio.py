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
from .numerics import SpdSolver, _blas_threads, as_complex_matrix, unitarity_defect

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


#: the keys of a matrix and of a phase file, each with the value it must
#: hold: None for a positive integer, else ``(dims, words)`` for a grid, a
#: list of equal-length lists whose shape is the values of the keys ``dims``
#: and whose entries are numbers or one of ``words``
_MATRIX_KEYS = {"n": None, "re": (("n", "n"), ()), "im": (("n", "n"), ())}
_PHASE_KEYS = {"m": None, "n": None, "theta": (("m", "n"), ()), "mask": (("m", "n"), ("free",))}
_FLOAT_MAX = float(np.finfo(float).max)


def _is_number(value) -> bool:
    """A JSON number that converts to a float (an integer may be too large)."""
    return isinstance(value, float) or (
        isinstance(value, int) and not isinstance(value, bool) and abs(value) <= _FLOAT_MAX)


def _is_grid(value, rows: int, cols: int, words: tuple) -> bool:
    return isinstance(value, list) and len(value) == rows and all(
        isinstance(row, list) and len(row) == cols
        and all(_is_number(entry) or entry in words for entry in row) for row in value)


def _load_json(path, version: str, kind: str | None, keys: dict | None = None) -> dict:
    """The JSON object in ``path``, of ``version``'s major schema version, of
    ``kind`` (any, if None) and holding every key of ``keys`` with a value
    of the type and shape given there (see ``_MATRIX_KEYS``); any other
    document is a ``ValueError`` that names the file (and the key)."""
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
    for key, spec in (keys or {}).items():
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
        value = doc[key]
        if spec is None and not (isinstance(value, int) and not isinstance(value, bool)
                                 and value >= 1):
            raise ValueError(f"{path}: key {key!r} must be a positive integer, got {value!r}")
        if spec is not None and not _is_grid(value, *(doc[d] for d in spec[0]), spec[1]):
            shape = tuple(doc[d] for d in spec[0])
            raise ValueError(f"{path}: key {key!r} is not a grid of shape {shape} of numbers"
                             + "".join(f" or {word!r}" for word in spec[1]))
    return doc


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as given (no newline translation), atomically.

    The text goes to a temporary file beside ``path`` that replaces it only
    once complete, so an interrupted write leaves the previous file intact
    and no partial one behind.  An ``OSError`` names ``path``, not the
    temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        if tmp.exists():  # False too where the directory is a file
            tmp.unlink()


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
    doc = _load_json(path, MATRIX_SCHEMA_VERSION, "matrix", _MATRIX_KEYS)
    m = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
    if not np.isfinite(m).all():
        raise ValueError(f"{path}: matrix contains non-finite entries")
    if doc.get("role", "general") == "unitary":
        defect = unitarity_defect(m)
        if not defect <= UNITARY_LOAD_TOLERANCE:  # a NaN defect too
            raise ValueError(
                f"{path}: claims role 'unitary' but ||U†U - I||_F = {defect:.3e}"
            )
    return m


def write_phases(path, program: PhaseProgram) -> None:
    """Serialize a phase program, canonicalizing phases into [0, 2 pi)."""
    canon = program.canonical()
    mask_rows = [[float(value) if frozen else "free" for value, frozen in zip(*rows)]
                 for rows in zip(canon.theta, canon.fixed)]
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
    doc = _load_json(path, PHASE_SCHEMA_VERSION, "phases", _PHASE_KEYS)
    theta = np.asarray(doc["theta"], dtype=float)
    fixed = np.array([[entry != "free" for entry in row] for row in doc["mask"]], dtype=bool)
    # the mask value is authoritative for frozen shifters
    theta[fixed] = [entry for row in doc["mask"] for entry in row if entry != "free"]
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
            fields = {}
            for name, parse, cell in zip(RECORD_COLUMNS, _COLUMN_PARSERS, row):
                try:
                    fields[name] = parse(cell)
                except ValueError:
                    raise ValueError(f"{path}:{reader.line_num}: bad {name} {cell!r}") from None
            out.append(ExperimentRecord(**fields))
    return out


def write_metadata(path, experiment: str, master_seed: int, parameters: dict) -> None:
    """Write the run's metadata; ``versions`` records the numeric environment
    (``blas_threads`` as numpy's OpenBLAS reports it), because the last bits
    of the records at N = 16 depend on it."""
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
            "blas_threads": _blas_threads(),
            **{name: os.environ.get(name)
               for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
    }
    write_text(path, json.dumps(doc, indent=1, allow_nan=False) + "\n")


def read_metadata(path) -> dict:
    return _load_json(path, METADATA_SCHEMA_VERSION, None)
