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
from .states import (
    DensityMatrix,
    _check_orthonormal,
    _check_subsystem,
    _conjugate_site,
    _finite_matrix,
    _integer,
    require_bipartite,
)


@dataclass(frozen=True, slots=True)
class ProjectiveMeasurement:
    """Complete family of rank-one projectors P_i = |b_i><b_i|."""

    dimension: int
    basis: np.ndarray

    def __post_init__(self):
        _integer(self.dimension, "dimension")
        b = np.array(self.basis, dtype=np.complex128)
        if b.shape != (self.dimension, self.dimension):
            raise DimensionMismatch(
                f"basis shape {b.shape} does not match dimension {self.dimension}"
            )
        b = _finite_matrix(b)
        _check_orthonormal(b, NotUnitary)
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
    return _unitaries_from_params(p[None], d)[0]


def _unitaries_from_params(params: np.ndarray, d: int) -> np.ndarray:
    """The chart on an (N, d(d - 1)) stack of angle vectors: (N, d, d)."""
    u = np.tile(np.eye(d, dtype=np.complex128), (len(params), 1, 1))
    c = np.cos(params[:, 0::2])
    s = np.sin(params[:, 0::2]) * np.exp(1j * params[:, 1::2])
    # each Givens factor mixes two columns
    for k, (i, j, _col) in enumerate(_elimination_sequence(d)):
        ck, sk = c[:, k, None], s[:, k, None]
        col_i, col_j = u[:, :, i], u[:, :, j]
        u[:, :, i], u[:, :, j] = ck * col_i + sk.conj() * col_j, ck * col_j - sk * col_i
    return u


def params_from_unitary(u) -> np.ndarray:
    """Invert the chart: angles reproducing the measurement of u.

    ``unitary_from_params(params_from_unitary(u), d)`` equals u with each
    column times its own unit-modulus phase, so it has the same projectors.
    """
    v = _finite_matrix(u)
    _check_orthonormal(v, NotUnitary)
    rot = []
    for (i, j, col) in _elimination_sequence(len(v)):
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
    _check_subsystem(rho.dims, side, DimensionMismatch)
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
    _check_subsystem(rho.dims, qubit, DimensionMismatch)
    if rho.dims[qubit] != 2:
        raise NotAQubit(
            f"subsystem {qubit} has dimension {rho.dims[qubit]}, expected 2"
        )
    return DensityMatrix(_dephase_site(rho.matrix, rho.dims, qubit), rho.dims)
