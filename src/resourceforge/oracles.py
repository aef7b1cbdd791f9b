"""Reference implementations that optimizer output is checked against.

These trade speed for independence from the search machinery, and no
search calls them.  The measurement grids (run in the test suite) re-derive
the dephased-state entropies from scratch, vectorised over the whole grid,
instead of calling the optimizer's objective; the relative-entropy
references build Pi(rho) and evaluate S(rho || Pi(rho)) directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import relative_entropy, vn_entropy
from .errors import NotAQubitOnA, UnequalSums
from .measurements import ProjectiveMeasurement, measure_both, measure_local
from .states import (
    DERIVED_TOL,
    EIG_FLOOR,
    DensityMatrix,
    _integer,
    partial_trace,
    require_bipartite,
)


@dataclass(frozen=True)
class GridSpec:
    """Bloch-sphere discretisation for qubit measurement bases."""

    theta_points: int = 100
    phi_points: int = 100

    def __post_init__(self):
        _integer(self.theta_points, "theta_points", 2)
        _integer(self.phi_points, "phi_points", 2)


def _qubit_grid_bases(g: GridSpec) -> np.ndarray:
    thetas = np.linspace(0.0, np.pi, g.theta_points)
    phis = np.linspace(0.0, 2 * np.pi, g.phi_points, endpoint=False)
    ct = np.cos(thetas / 2)[:, None] * np.ones_like(phis)[None, :]
    st = np.sin(thetas / 2)[:, None] * np.ones_like(phis)[None, :]
    ph = np.exp(1j * phis)[None, :] * np.ones_like(thetas)[:, None]
    bases = np.empty((g.theta_points, g.phi_points, 2, 2), dtype=np.complex128)
    bases[..., 0, 0] = ct
    bases[..., 1, 0] = st * ph
    bases[..., 0, 1] = -st * np.conj(ph)
    bases[..., 1, 1] = ct
    return bases.reshape(-1, 2, 2)


def _grid_scan(rho: DensityMatrix, g: GridSpec):
    require_bipartite(rho)
    if rho.dims[0] != 2:
        raise NotAQubitOnA(f"first subsystem has dimension {rho.dims[0]}")
    d_b = rho.dims[1]
    bases = _qubit_grid_bases(g)
    t = rho.matrix.reshape(2, d_b, 2, d_b)
    blocks = np.einsum("gai,abcd,gci->gibd", bases.conj(), t, bases)
    w = np.linalg.eigvalsh(blocks)
    safe = np.where(w > EIG_FLOOR, w, 1.0)
    entropies = -(w * np.log2(safe)).sum(axis=(1, 2))
    probs = np.einsum("gibb->gi", blocks).real
    return entropies, probs


def grid_min_deficit(rho: DensityMatrix, g: GridSpec) -> float:
    """Exhaustive minimum of the fixed one-way deficit over the qubit grid."""
    entropies, _ = _grid_scan(rho, g)
    return float(entropies.min() - vn_entropy(rho))


def grid_min_discord(rho: DensityMatrix, g: GridSpec) -> float:
    """Exhaustive minimum of the fixed discord over the qubit grid."""
    entropies, probs = _grid_scan(rho, g)
    safe = np.where(probs > EIG_FLOOR, probs, 1.0)
    s_a_prime = -(probs * np.log2(safe)).sum(axis=1)
    s_a = vn_entropy(partial_trace(rho, [0]))
    values = (entropies - vn_entropy(rho)) - (s_a_prime - s_a)
    return float(values.min())


def relent_to_dephased(rho: DensityMatrix, m: ProjectiveMeasurement) -> float:
    """S(rho || Pi(rho)) for the dephasing Pi of A in the basis of m."""
    return relative_entropy(rho, measure_local(rho, m, 0))


def relent_to_doubly_dephased(
    rho: DensityMatrix, m_a: ProjectiveMeasurement, m_b: ProjectiveMeasurement
) -> float:
    """S(rho || Pi_AB(rho)) for the dephasing of A in m_a and B in m_b."""
    return relative_entropy(rho, measure_both(rho, m_a, m_b))


def random_bistochastic_reachability(
    x, y, samples: int, seed: int
) -> bool:
    """Whether a sampled convex mixture of permutations maps x onto y.

    Sample 0 is the identity alone; every other sample draws 2 * len(x)
    random permutations and fits the best convex weights by non-negative
    least squares.  True when some fitted mixture lands within 1e-6 of y
    in the infinity norm.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise UnequalSums(f"lengths differ: {x.size} vs {y.size}")
    if abs(x.sum() - y.sum()) > DERIVED_TOL:
        raise UnequalSums(f"sums differ: {x.sum():.12g} vs {y.sum():.12g}")
    from scipy.optimize import nnls    # here only: the package imports no scipy

    d = x.size
    rng = np.random.default_rng(seed)
    weight_row = 100.0
    for s in range(samples):
        if s == 0:
            columns = x[:, None]
        else:
            perms = [rng.permutation(d) for _ in range(2 * d)]
            columns = np.stack([x[p] for p in perms], axis=1)
        a = np.vstack([columns, weight_row * np.ones((1, columns.shape[1]))])
        b = np.concatenate([y, [weight_row]])
        w, _res = nnls(a, b)
        total = w.sum()
        if total <= 0:
            continue
        w = w / total
        if np.max(np.abs(columns @ w - y)) <= 1e-6:
            return True
    return False
