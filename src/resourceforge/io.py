"""JSON file formats for states, Hamiltonians, measurements, optimizer
configs, and protocol scripts.

Complex matrices are serialized row-major as [[ [re, im], ... ], ...].
Parsers reject non-finite numbers.  Floats written by this module carry 12
significant digits, and infinities become the string "inf".
"""

from __future__ import annotations

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
from .states import DensityMatrix, check_dimension_cap, validate


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
    raise FileFormatError(f"non-finite number {name!r} in input")


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FileFormatError(f"{where}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise FileFormatError(f"{where}: non-finite number")
    return float(value)


def matrix_from_json(rows, where: str = "matrix") -> np.ndarray:
    """Parse [[ [re, im], ... ], ...] into a complex array."""
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
            re = _require_number(entry[0], f"{where} ({i},{j}) re")
            im = _require_number(entry[1], f"{where} ({i},{j}) im")
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
    data = load_json(path)
    if not isinstance(data, dict) or "dims" not in data or "matrix" not in data:
        raise FileFormatError(f"{path}: expected keys 'dims' and 'matrix'")
    dims = data["dims"]
    if (
        not isinstance(dims, list)
        or not dims
        or any(isinstance(d, bool) or not isinstance(d, int) or d < 1 for d in dims)
    ):
        raise FileFormatError(f"{path}: 'dims' must be a list of positive integers")
    check_dimension_cap(dims, "state dimension")
    matrix = matrix_from_json(data["matrix"], f"{path}: matrix")
    return validate(matrix, dims)


def state_to_json(rho: DensityMatrix) -> dict:
    return {"dims": list(rho.dims), "matrix": matrix_to_json(rho.matrix)}


def load_hamiltonian(path: str) -> Hamiltonian:
    data = load_json(path)
    if not isinstance(data, dict) or "beta" not in data or "matrix" not in data:
        raise FileFormatError(f"{path}: expected keys 'beta' and 'matrix'")
    beta = _require_number(data["beta"], f"{path}: beta")
    if beta < 0:
        raise FileFormatError(f"{path}: beta must be >= 0")
    matrix = matrix_from_json(data["matrix"], f"{path}: matrix")
    return Hamiltonian(matrix, beta)


def load_measurement(path: str) -> ProjectiveMeasurement:
    data = load_json(path)
    if not isinstance(data, dict) or "dimension" not in data or "basis" not in data:
        raise FileFormatError(f"{path}: expected keys 'dimension' and 'basis'")
    dim = data["dimension"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise FileFormatError(f"{path}: 'dimension' must be a positive integer")
    basis = matrix_from_json(data["basis"], f"{path}: basis")
    return ProjectiveMeasurement(dim, basis)


def measurement_to_json(m: ProjectiveMeasurement) -> dict:
    return {"dimension": m.dimension, "basis": matrix_to_json(m.basis)}


def load_optimizer_config(path: str) -> OptimizerConfig:
    data = load_json(path)
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: expected a JSON object")
    known = {"restarts", "grid_points", "max_iterations", "tolerance", "seed"}
    unknown = set(data) - known
    if unknown:
        raise FileFormatError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key in known & set(data):
        value = data[key]
        if key == "tolerance":
            kwargs[key] = _require_number(value, f"{path}: {key}")
        else:
            if isinstance(value, bool) or not isinstance(value, int):
                raise FileFormatError(f"{path}: {key} must be an integer")
            kwargs[key] = value
    try:
        return OptimizerConfig(**kwargs)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _step_from_json(obj, where: str) -> ProtocolStep:
    if not isinstance(obj, dict) or "op" not in obj:
        raise FileFormatError(f"{where}: step must be an object with an 'op' key")
    op = obj["op"]
    try:
        if op == "LocalUnitary":
            return LocalUnitary(obj["side"], matrix_from_json(obj["matrix"], where))
        if op == "AddMaxMixedAncilla":
            return AddMaxMixedAncilla(obj["side"], int(obj["dim"]))
        if op == "LocalPartialTrace":
            return LocalPartialTrace(obj["side"], int(obj["subsystem"]))
        if op == "SendQubit":
            return SendQubit(obj["from"], int(obj["qubit"]))
    except KeyError as exc:
        raise FileFormatError(f"{where}: missing field {exc} for op {op!r}") from exc
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{where}: {exc}") from exc
    raise FileFormatError(f"{where}: unknown op {op!r}")


def load_script(path: str) -> ProtocolScript:
    data = load_json(path)
    if not isinstance(data, dict) or "mode" not in data or "steps" not in data:
        raise FileFormatError(f"{path}: expected keys 'mode' and 'steps'")
    if not isinstance(data["steps"], list):
        raise FileFormatError(f"{path}: 'steps' must be a list")
    steps = [
        _step_from_json(s, f"{path}: step {k}")
        for k, s in enumerate(data["steps"])
    ]
    try:
        return ProtocolScript(data["mode"], tuple(steps))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
