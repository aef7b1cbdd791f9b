"""JSON file formats for states, Hamiltonians, measurements, optimizer
configs, and protocol scripts.

Complex matrices are serialized row-major as [[ [re, im], ... ], ...].
Parsers refuse NaN, infinities and integers beyond the float range.
Floats written by this module carry 12 significant digits, and infinities
become the string "inf".

Each loader checks the structure of its file and leaves the values to the
input rules of ``resourceforge.states``, which the constructors apply; the
TypeError or ValueError of a rule becomes a FileFormatError.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
from typing import Any

import numpy as np

from .entropy import Hamiltonian
from .measurements import ProjectiveMeasurement
from .protocols import (
    AddMaxMixedAncilla,
    LocalPartialTrace,
    LocalUnitary,
    ProtocolScript,
    ProtocolStep,
    SendQubit,
)
from .quantumness import OptimizerConfig
from .states import DensityMatrix, _integer, _real, check_dimension_cap, validate


class FileFormatError(Exception):
    """Structurally invalid input file (CLI exit status 2)."""


def format_float(value: float):
    """12-significant-digit float, or the string "inf" for infinity."""
    v = float(value)
    if math.isinf(v):
        return "inf"
    if math.isnan(v):
        raise ValueError("cannot serialize NaN")
    return float(f"{v:.12g}")


def _reject_constant(name: str):
    """Refuse the constants NaN, Infinity and -Infinity while parsing, by
    the finite-number rule."""
    with _format_errors():
        _real(float(name), name)


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _load_object(path: str, *keys: str) -> dict:
    """The JSON object in ``path``, checked to hold each of ``keys``."""
    data = load_json(path)
    if not isinstance(data, dict) or any(key not in data for key in keys):
        expected = "keys " + " and ".join(map(repr, keys)) if keys else "a JSON object"
        raise FileFormatError(f"{path}: expected {expected}")
    return data


@contextlib.contextmanager
def _format_errors(where: str | None = None):
    """Report the TypeError or ValueError of an input rule as a
    FileFormatError, prefixed with ``where``."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{where}: {exc}" if where else str(exc)) from exc


def _finite_pairs(rows) -> np.ndarray | None:
    """The complex matrix of well-formed rows of finite [re, im] number
    pairs, converted in one array operation; None for anything else."""
    try:
        pairs = np.asarray(rows)
    except (ValueError, OverflowError):     # ragged, or a number out of range
        return None
    if pairs.ndim != 3 or pairs.shape[2] != 2 or pairs.dtype.kind not in "if":
        return None
    # among numbers numpy reads a boolean as 0 or 1: look at those entries
    flagged = zip(*(idx.tolist() for idx in np.nonzero((pairs == 0) | (pairs == 1))))
    if any(type(rows[i][j][k]) is bool for i, j, k in flagged):
        return None
    pairs = pairs.astype(np.float64)
    if not np.isfinite(pairs).all():
        return None
    return pairs.view(np.complex128)[..., 0]


def matrix_from_json(rows, where: str = "matrix") -> np.ndarray:
    """Parse [[ [re, im], ... ], ...] into a complex array.

    Well-formed input is converted in one array operation.  Anything else
    is walked entry by entry, and the first bad entry is named."""
    parsed = _finite_pairs(rows)
    if parsed is not None:
        return parsed
    if not isinstance(rows, list) or not rows:
        raise FileFormatError(f"{where}: expected a non-empty list of rows")
    width = None
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise FileFormatError(f"{where}: row {i} is not a non-empty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FileFormatError(f"{where}: row {i} has ragged length")
        parsed = []
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise FileFormatError(
                    f"{where}: entry ({i},{j}) must be a [re, im] pair"
                )
            with _format_errors():
                re = _real(entry[0], f"{where} ({i},{j}) re")
                im = _real(entry[1], f"{where} ({i},{j}) im")
            parsed.append(complex(re, im))
        out.append(parsed)
    return np.asarray(out, dtype=np.complex128)


def matrix_to_json(matrix) -> list:
    m = np.asarray(matrix, dtype=np.complex128)
    return [
        [[format_float(z.real), format_float(z.imag)] for z in row]
        for row in m
    ]


def load_state(path: str) -> DensityMatrix:
    data = _load_object(path, "dims", "matrix")
    dims = data["dims"]
    if not isinstance(dims, list) or not dims:
        raise FileFormatError(f"{path}: 'dims' must be a list of positive integers")
    with _format_errors(path):
        for i, d in enumerate(dims):
            _integer(d, f"dims[{i}]", 1)
    check_dimension_cap(dims, "state dimension")
    matrix = matrix_from_json(data["matrix"], f"{path}: matrix")
    return validate(matrix, dims)


def state_to_json(rho: DensityMatrix) -> dict:
    return {"dims": list(rho.dims), "matrix": matrix_to_json(rho.matrix)}


def load_hamiltonian(path: str) -> Hamiltonian:
    data = _load_object(path, "beta", "matrix")
    with _format_errors(path):         # beta is read first, as a format error
        beta = _real(data["beta"], "beta", 0)
    matrix = matrix_from_json(data["matrix"], f"{path}: matrix")
    return Hamiltonian(matrix, beta)


def load_measurement(path: str) -> ProjectiveMeasurement:
    data = _load_object(path, "dimension", "basis")
    with _format_errors(path):
        dim = _integer(data["dimension"], "dimension", 1)
    basis = matrix_from_json(data["basis"], f"{path}: basis")
    return ProjectiveMeasurement(dim, basis)


def measurement_to_json(m: ProjectiveMeasurement) -> dict:
    return {"dimension": m.dimension, "basis": matrix_to_json(m.basis)}


def load_optimizer_config(path: str) -> OptimizerConfig:
    data = _load_object(path)
    unknown = set(data) - {f.name for f in dataclasses.fields(OptimizerConfig)}
    if unknown:
        raise FileFormatError(f"{path}: unknown keys {sorted(unknown)}")
    with _format_errors(path):
        return OptimizerConfig(**data)


def _step_from_json(obj, where: str) -> ProtocolStep:
    if not isinstance(obj, dict) or "op" not in obj:
        raise FileFormatError(f"{where}: step must be an object with an 'op' key")
    op = obj["op"]
    try:
        with _format_errors(where):
            if op == "LocalUnitary":
                return LocalUnitary(obj["side"], matrix_from_json(obj["matrix"], where))
            if op == "AddMaxMixedAncilla":
                return AddMaxMixedAncilla(obj["side"], obj["dim"])
            if op == "LocalPartialTrace":
                return LocalPartialTrace(obj["side"], obj["subsystem"])
            if op == "SendQubit":
                return SendQubit(obj["from"], obj["qubit"])
    except KeyError as exc:
        raise FileFormatError(f"{where}: missing field {exc} for op {op!r}") from exc
    raise FileFormatError(f"{where}: unknown op {op!r}")


def load_script(path: str) -> ProtocolScript:
    data = _load_object(path, "mode", "steps")
    if not isinstance(data["steps"], list):
        raise FileFormatError(f"{path}: 'steps' must be a list")
    steps = [
        _step_from_json(s, f"{path}: step {k}")
        for k, s in enumerate(data["steps"])
    ]
    with _format_errors(path):
        return ProtocolScript(data["mode"], tuple(steps))
