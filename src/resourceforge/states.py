"""Dense linear algebra for finite-dimensional quantum states.

A state is a complex density matrix tagged with an ordered tuple of
subsystem dimensions.  The subsystem order is significant and never
reordered implicitly; ``permute_subsystems`` is the only way to move
factors around.  All operations are pure functions and the arrays stored
inside a :class:`DensityMatrix` are frozen, so values can be shared freely
across threads.

This module is the one home of the construction checks: every matrix a
state, Hamiltonian, measurement basis, local unitary or isometry is built
from is checked here for its shape, for finite entries (a NaN or an
infinity is rejected with ``ValueError``), and for being Hermitian or
having orthonormal columns.

Tolerance ladder: construction checks run at ``CONSTRUCTION_TOL`` (1e-10),
derived-quantity checks at ``DERIVED_TOL`` (1e-9), and ``EIG_FLOOR`` (1e-12)
decides support: an eigenvalue of sigma at or below it is outside the
support in a relative entropy S(rho || sigma).  Entropies themselves count
every positive eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import max_dim
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    EmptyKeepSet,
    IndexOutOfRange,
    NotBipartite,
    NotHermitian,
    NotIsometry,
    NotPSD,
    NotUnitTrace,
    RankOutOfRange,
)

CONSTRUCTION_TOL = 1e-10
DERIVED_TOL = 1e-9
EIG_FLOOR = 1e-12


def _finite_matrix(matrix, tall: bool = False) -> np.ndarray:
    """A complex copy of ``matrix``, checked square (with ``tall``, at least
    as many rows as columns) and finite."""
    m = np.array(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < m.shape[1] or (m.shape[0] > m.shape[1] and not tall):
        shape = "a tall" if tall else "a square"
        raise DimensionMismatch(f"expected {shape} matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def _check_hermitian(m: np.ndarray) -> None:
    gap = np.max(np.abs(m - m.conj().T))
    if gap > CONSTRUCTION_TOL:
        raise NotHermitian(f"max |M - M^dag| = {gap:.3e}")


def _check_orthonormal(m: np.ndarray, error: type[Exception]) -> None:
    """Raise ``error`` unless the columns of ``m`` are orthonormal."""
    gap = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1])))
    if gap > CONSTRUCTION_TOL:
        raise error(f"max |V^dag V - I| = {gap:.3e}")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix with a subsystem-dimension signature.

    Direct construction assumes the caller provides a valid state; use
    :func:`validate` for untrusted input.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        m = np.asarray(self.matrix, dtype=np.complex128)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def check_dimension_cap(dims: Sequence[int], what: str = "dimension") -> None:
    """Raise DimensionTooLarge when the product of ``dims`` exceeds the cap."""
    d = math.prod(dims)
    if d > max_dim():
        raise DimensionTooLarge(f"{what} {d} exceeds cap {max_dim()}")


def require_bipartite(rho: DensityMatrix) -> None:
    """Raise NotBipartite unless ``rho`` has exactly two subsystems."""
    if len(rho.dims) != 2:
        raise NotBipartite(f"expected two subsystems, got dims {rho.dims}")


def validate(matrix, dims: Sequence[int]) -> DensityMatrix:
    """Check matrix and dims and return a :class:`DensityMatrix`.

    Raises the error of the first violated invariant: DimensionMismatch,
    DimensionTooLarge, ValueError (non-finite entries), NotHermitian,
    NotUnitTrace, or NotPSD.
    """
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise DimensionMismatch(f"subsystem dimensions must be >= 1, got {dims}")
    check_dimension_cap(dims)
    m = _finite_matrix(matrix)
    d = m.shape[0]
    if int(np.prod(dims)) != d:
        raise DimensionMismatch(
            f"product of dims {dims} is {int(np.prod(dims))}, matrix side is {d}"
        )
    _check_hermitian(m)
    tr = np.trace(m)
    if abs(tr - 1.0) > CONSTRUCTION_TOL:
        raise NotUnitTrace(f"trace is {tr:.12g}")
    w = np.linalg.eigvalsh(m)
    if w[0] < -CONSTRUCTION_TOL:
        raise NotPSD(f"min eigenvalue is {w[0]:.3e}")
    return DensityMatrix(m, dims)


def maximally_mixed(dims: Sequence[int]) -> DensityMatrix:
    """Identity / d on the given subsystem layout."""
    dims = tuple(int(x) for x in dims)
    d = int(np.prod(dims))
    return DensityMatrix(np.eye(d, dtype=np.complex128) / d, dims)


def pure_state(vector, dims: Sequence[int]) -> DensityMatrix:
    """Projector onto a (normalised) state vector."""
    v = np.asarray(vector, dtype=np.complex128).ravel()
    dims = tuple(int(x) for x in dims)
    if v.size != int(np.prod(dims)):
        raise DimensionMismatch(
            f"vector length {v.size} does not match dims {dims}"
        )
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("zero vector")
    v = v / n
    return DensityMatrix(np.outer(v, v.conj()), dims)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; dims are concatenated (a's subsystems first)."""
    check_dimension_cap((a.dim, b.dim), "tensor dimension")
    return DensityMatrix(np.kron(a.matrix, b.matrix), a.dims + b.dims)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the subsystems in ``keep`` (original order kept)."""
    keep_set = sorted(set(int(k) for k in keep))
    if not keep_set:
        raise EmptyKeepSet("keep set is empty")
    n = len(rho.dims)
    for k in keep_set:
        if k < 0 or k >= n:
            raise IndexOutOfRange(f"subsystem {k} not in 0..{n - 1}")
    traced = [i for i in range(n) if i not in keep_set]
    dims = list(rho.dims)
    t = rho.matrix.reshape(dims + dims)
    for idx in sorted(traced, reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + len(dims))
        dims.pop(idx)
    d = int(np.prod(dims))
    return DensityMatrix(t.reshape(d, d), tuple(dims))


def permute_subsystems(rho: DensityMatrix, perm: Sequence[int]) -> DensityMatrix:
    """Reorder subsystems; output factor k is input factor ``perm[k]``."""
    n = len(rho.dims)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(n)):
        raise IndexOutOfRange(f"{perm} is not a permutation of 0..{n - 1}")
    dims = list(rho.dims)
    t = rho.matrix.reshape(dims + dims)
    axes = list(perm) + [p + n for p in perm]
    new_dims = tuple(dims[p] for p in perm)
    d = rho.dim
    return DensityMatrix(t.transpose(axes).reshape(d, d), new_dims)


def eig_hermitian(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""
    m = _finite_matrix(matrix)
    _check_hermitian(m)
    w, v = np.linalg.eigh(m)
    return w[::-1].copy(), v[:, ::-1].copy()


def spectrum(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues of a state, sorted descending."""
    return np.linalg.eigvalsh(rho.matrix)[::-1].copy()


def validate_isometry(matrix) -> np.ndarray:
    """Check V^dag V = I (tall matrix) and return the array."""
    v = _finite_matrix(matrix, tall=True)
    _check_orthonormal(v, NotIsometry)
    return v


def _conjugate_site(
    matrix: np.ndarray, dims: tuple[int, ...], site: int, op: np.ndarray
) -> np.ndarray:
    """(I (x) op (x) I) M (I (x) op (x) I)^dag for a d' x d unitary or
    isometry op on ``site``, contracted without a full-size Kronecker operator."""
    left = math.prod(dims[:site])
    right = math.prod(dims[site + 1:])
    t = matrix.reshape(left, dims[site], right, left, dims[site], right)
    t = np.einsum("xs,lsrmtq->lxrmtq", op, t)
    t = np.einsum("lxrmtq,yt->lxrmyq", t, op.conj())
    d = left * op.shape[0] * right
    return t.reshape(d, d)


def embed(rho: DensityMatrix, isometry, subsystem: int) -> DensityMatrix:
    """Apply an isometry to one subsystem: (I (x) V (x) I) rho (...)^dag.

    The spectrum is unchanged; the chosen subsystem dimension grows from
    V's column count to its row count.
    """
    v = validate_isometry(isometry)
    n = len(rho.dims)
    if subsystem < 0 or subsystem >= n:
        raise IndexOutOfRange(f"subsystem {subsystem} not in 0..{n - 1}")
    if v.shape[1] != rho.dims[subsystem]:
        raise DimensionMismatch(
            f"isometry domain {v.shape[1]} != subsystem dimension "
            f"{rho.dims[subsystem]}"
        )
    new_dims = (
        rho.dims[:subsystem] + (v.shape[0],) + rho.dims[subsystem + 1:]
    )
    check_dimension_cap(new_dims, "embedded dimension")
    return DensityMatrix(
        _conjugate_site(rho.matrix, rho.dims, subsystem, v), new_dims
    )


def random_density(dim: int, rank: int, seed: int) -> DensityMatrix:
    """Random state induced by tracing a Haar-random pure state on dim x rank.

    Deterministic for a fixed seed.
    """
    if rank < 1 or rank > dim:
        raise RankOutOfRange(f"rank {rank} not in 1..{dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    m = (m + m.conj().T) / 2
    return DensityMatrix(m, (dim,))
