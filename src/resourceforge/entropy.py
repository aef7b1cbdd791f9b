"""Entropic functionals in bits: von Neumann and relative entropy, mutual
information, negentropy, Gibbs states, and free-energy gaps.

All logarithms are base 2, so every quantity counts qubits.  The relative
entropy returns ``math.inf`` when the first state has support outside the
second's; callers that minimise over states must treat that as a rejected
candidate, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .states import (
    EIG_FLOOR,
    DensityMatrix,
    _check_hermitian,
    _finite_matrix,
    partial_trace,
    require_bipartite,
)


@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian operator plus an inverse temperature beta >= 0."""

    matrix: np.ndarray
    beta: float

    def __post_init__(self):
        m = _finite_matrix(self.matrix)
        _check_hermitian(m)
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _shannon_rows(p: np.ndarray) -> np.ndarray:
    """-sum p log2 p over the positive entries of each row (axis 0) of
    ``p``, whatever its shape: the one entropy kernel, which
    ``shannon_bits`` applies to a single distribution."""
    positive = p > 0.0
    terms = np.where(positive, p * np.log2(np.where(positive, p, 1.0)), 0.0)
    return np.maximum(0.0, -terms.reshape(len(p), -1).sum(axis=1))


def shannon_bits(probs) -> float:
    """-sum p log2 p over every p > 0 (so 0 log 0 = 0).

    Non-positive entries, such as the rounding noise of eigenvalues that are
    zero in exact arithmetic, are dropped; any positive mass, however small,
    is counted, so a search cannot lower an entropy by pushing weight just
    under a threshold.
    """
    p = np.asarray(probs, dtype=float).reshape(1, -1)
    # Python's max, not np.maximum, so that no entropy reads -0.0
    return max(0.0, float(_shannon_rows(p)[0]))


def vn_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits, in [0, log2 d]."""
    return shannon_bits(np.linalg.eigvalsh(rho.matrix))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr rho log2 rho - Tr rho log2 sigma, evaluated in sigma's eigenbasis.

    Returns ``math.inf`` when rho has weight above 1e-12 outside sigma's
    support (support decided at eigenvalue threshold 1e-12).  Non-negative.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatch(
            f"dimension {rho.dim} vs {sigma.dim}"
        )
    s_vals, s_vecs = np.linalg.eigh(sigma.matrix)
    rho_diag = np.real(
        np.einsum("ij,jk,ki->i", s_vecs.conj().T, rho.matrix, s_vecs)
    )
    on_support = s_vals > EIG_FLOOR
    if np.any(rho_diag[~on_support] > EIG_FLOOR):
        return math.inf
    tr_rho_log_sigma = float(
        (rho_diag[on_support] * np.log2(s_vals[on_support])).sum()
    )
    tr_rho_log_rho = -shannon_bits(np.linalg.eigvalsh(rho.matrix))
    return max(0.0, tr_rho_log_rho - tr_rho_log_sigma)


def mutual_information(rho: DensityMatrix) -> float:
    """S(A) + S(B) - S(AB) for a bipartite state."""
    require_bipartite(rho)
    s_a = vn_entropy(partial_trace(rho, [0]))
    s_b = vn_entropy(partial_trace(rho, [1]))
    return max(0.0, s_a + s_b - vn_entropy(rho))


def negentropy(rho: DensityMatrix) -> float:
    """log2 d - S(rho): distance in bits from the maximally mixed state."""
    return max(0.0, math.log2(rho.dim) - vn_entropy(rho))


def gibbs_state(h: Hamiltonian) -> DensityMatrix:
    """exp(-beta H) / Z, built through the eigendecomposition of H."""
    w, v = np.linalg.eigh(h.matrix)
    # shift by the ground energy so the exponentials cannot overflow
    weights = np.exp(-h.beta * (w - w.min()))
    p = weights / weights.sum()
    m = (v * p) @ v.conj().T
    m = (m + m.conj().T) / 2
    return DensityMatrix(m, (h.dim,))


def free_energy_gap(rho: DensityMatrix, h: Hamiltonian) -> float:
    """Relative entropy in bits between rho and the Gibbs state of h.

    The thermodynamic work interpretation is F(rho) - F(gibbs) =
    kT ln 2 times this value; only the bit-valued gap is computed here.
    """
    if rho.dim != h.dim:
        raise DimensionMismatch(f"state dimension {rho.dim} vs Hamiltonian {h.dim}")
    return relative_entropy(rho, gibbs_state(h))
