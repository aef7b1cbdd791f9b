"""Complete rank-one projective measurements and local dephasing maps.

A measurement is stored as the unitary whose columns are the measured
basis, which keeps the projector family complete and orthogonal by
construction.  Measurements are parametrised by d(d - 1) angles: a fixed
sequence of two-angle Givens rotations (the elimination order of a QR
sweep).  A projector |b><b| does not depend on the phase of b, so the chart
carries no column phases; it reaches every rank-one complete measurement,
and only projector relabeling is redundant.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotAQubit,
    NotUnitary,
    ParamCountMismatch,
)
from .states import CONSTRUCTION_TOL, DensityMatrix, _conjugate_site, require_bipartite


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """Complete family of rank-one projectors P_i = |b_i><b_i|."""

    dimension: int
    basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basis, dtype=np.complex128)
        if b.shape != (self.dimension, self.dimension):
            raise DimensionMismatch(
                f"basis shape {b.shape} does not match dimension {self.dimension}"
            )
        if np.max(np.abs(b.conj().T @ b - np.eye(self.dimension))) > CONSTRUCTION_TOL:
            raise NotUnitary("basis columns are not orthonormal")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    def projectors(self) -> list[np.ndarray]:
        return [
            np.outer(self.basis[:, i], self.basis[:, i].conj())
            for i in range(self.dimension)
        ]


def param_count(d: int) -> int:
    """Number of angles parametrising measurements in dimension d."""
    return d * (d - 1)


@functools.lru_cache(maxsize=None)
def _elimination_sequence(d: int) -> tuple[tuple[int, int, int], ...]:
    # (i, j, col): the rotation on rows (i, j) that zeroes entry (j, col)
    seq = []
    for col in range(d - 1):
        for row in range(d - 1, col, -1):
            seq.append((row - 1, row, col))
    return tuple(seq)


def unitary_from_params(params, d: int) -> np.ndarray:
    """Build the basis unitary for a parameter vector of length d(d - 1).

    Layout: [theta_1, phi_1, ..., theta_K, phi_K] with K = d(d-1)/2, one
    Givens rotation per pair.  Natural ranges are theta in [0, pi/2] and
    phi in [0, 2 pi); the chart is periodic so any real values are valid.
    """
    p = np.asarray(params, dtype=float).ravel()
    if p.shape != (param_count(d),):
        raise ParamCountMismatch(
            f"expected {param_count(d)} parameters for dimension {d}, got {p.size}"
        )
    # each Givens factor mixes two columns only; on lists of Python complex
    # numbers that costs less than array updates at the dimensions searched
    cols = np.eye(d).tolist()
    pairs = p.reshape(-1, 2).tolist()
    for (i, j, _col), (theta, phi) in zip(_elimination_sequence(d), pairs):
        c, s = math.cos(theta), math.sin(theta) * cmath.exp(1j * phi)
        col_i, col_j = cols[i], cols[j]
        cols[i] = [c * x + s.conjugate() * y for x, y in zip(col_i, col_j)]
        cols[j] = [c * y - s * x for x, y in zip(col_i, col_j)]
    return np.array(cols, dtype=np.complex128).T


def params_from_unitary(u) -> np.ndarray:
    """Invert the chart: angles reproducing the measurement of u.

    ``unitary_from_params(params_from_unitary(u), d)`` equals u with each
    column times its own unit-modulus phase, so it has the same projectors.
    """
    v = np.array(u, dtype=np.complex128)
    d = v.shape[0]
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {v.shape}")
    if np.max(np.abs(v.conj().T @ v - np.eye(d))) > CONSTRUCTION_TOL:
        raise NotUnitary("matrix is not unitary")
    rot = []
    for (i, j, col) in _elimination_sequence(d):
        a, b = v[i, col], v[j, col]
        if abs(b) < 1e-14:
            theta, phi = 0.0, 0.0
        elif abs(a) < 1e-14:
            theta, phi = np.pi / 2, 0.0
        else:
            theta = np.arctan2(abs(b), abs(a))
            phi = float(np.angle(a) - np.angle(b))
        rot.extend((theta, phi))
        c, s = np.cos(theta), np.sin(theta)
        row_i = c * v[i] + s * np.exp(1j * phi) * v[j]
        row_j = -s * np.exp(-1j * phi) * v[i] + c * v[j]
        v[i], v[j] = row_i, row_j
    return np.asarray(rot, dtype=float)


def param_ranges(d: int) -> np.ndarray:
    """(n, 2) array of natural [lo, hi) ranges matching the chart layout."""
    pair = [(0.0, np.pi / 2), (0.0, 2 * np.pi)]
    return np.asarray(pair * (d * (d - 1) // 2), dtype=float).reshape(-1, 2)


def measurement_from_params(params, d: int) -> ProjectiveMeasurement:
    """Measurement whose basis is the chart unitary at ``params``."""
    return ProjectiveMeasurement(d, unitary_from_params(params, d))


def _dephase_site(matrix: np.ndarray, dims: tuple[int, ...], site: int) -> np.ndarray:
    """Zero every block that is off-diagonal in the site's computational index."""
    left, ds, right = math.prod(dims[:site]), dims[site], math.prod(dims[site + 1:])
    t = matrix.reshape(left, ds, right, left, ds, right)
    out = np.zeros_like(t)
    for s in range(ds):
        out[:, s, :, :, s, :] = t[:, s, :, :, s, :]
    d = matrix.shape[0]
    return out.reshape(d, d)


def measure_local(
    rho: DensityMatrix, m: ProjectiveMeasurement, side: int
) -> DensityMatrix:
    """Dephase one subsystem in the measurement basis: sum_i P_i rho P_i."""
    n = len(rho.dims)
    if side < 0 or side >= n:
        raise DimensionMismatch(f"subsystem {side} not in 0..{n - 1}")
    if m.dimension != rho.dims[side]:
        raise DimensionMismatch(
            f"measurement dimension {m.dimension} != subsystem dimension "
            f"{rho.dims[side]}"
        )
    rotated = _conjugate_site(rho.matrix, rho.dims, side, m.basis.conj().T)
    dephased = _dephase_site(rotated, rho.dims, side)
    out = _conjugate_site(dephased, rho.dims, side, m.basis)
    out = (out + out.conj().T) / 2
    return DensityMatrix(out, rho.dims)


def measure_both(
    rho: DensityMatrix,
    m_a: ProjectiveMeasurement,
    m_b: ProjectiveMeasurement,
) -> DensityMatrix:
    """Dephase both sides of a bipartite state; order does not matter."""
    require_bipartite(rho)
    return measure_local(measure_local(rho, m_a, 0), m_b, 1)


def dephasing_channel(rho: DensityMatrix, qubit: int) -> DensityMatrix:
    """Computational-basis dephasing of one qubit subsystem.

    This is the classical-communication primitive; other dephasing bases
    are obtained by conjugating with local unitaries.
    """
    n = len(rho.dims)
    if qubit < 0 or qubit >= n:
        raise DimensionMismatch(f"subsystem {qubit} not in 0..{n - 1}")
    if rho.dims[qubit] != 2:
        raise NotAQubit(
            f"subsystem {qubit} has dimension {rho.dims[qubit]}, expected 2"
        )
    return DensityMatrix(_dephase_site(rho.matrix, rho.dims, qubit), rho.dims)
