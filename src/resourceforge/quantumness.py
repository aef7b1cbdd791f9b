"""Discord, one-way and zero-way deficits, their relative-entropy twins,
isometry-extended and two-copy variants.

Each quantity has one objective of the measured basis columns, shared by
its fixed and optimised forms.  Every minimisation runs the same engine: a
grid-seeded multi-start Nelder-Mead simplex over the angle chart of
``resourceforge.measurements``, followed by a short polish from the best
point.  Structured starting points are always included, in particular the
local eigenbasis of the measured marginal, which makes the minimum vanish
identically on classical-quantum (or classical-classical) states.
Restarts are reduced in restart-index order, so results are deterministic
for a fixed seed regardless of how evaluations are scheduled.  Since
S(rho || Pi(rho)) = S(Pi(rho)) - S(rho) for a dephasing Pi, the
relative-entropy twins run the deficit searches and certify their value at
the argmin with ``resourceforge.oracles``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .errors import DimensionMismatch, NotBipartite
from .entropy import mutual_information, shannon_bits, vn_entropy
from .measurements import (
    ProjectiveMeasurement,
    measurement_from_params,
    param_count,
    param_ranges,
    params_from_unitary,
    unitary_from_params,
)
from .oracles import relent_to_dephased, relent_to_doubly_dephased
from .states import (
    DensityMatrix,
    check_dimension_cap,
    partial_trace,
    permute_subsystems,
    tensor,
)

_LATTICE_CAP = 4096         # full seeding lattice only up to this many points

_Objective = Callable[..., float]   # of the measured columns (one or two sides)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for every measurement-basis search.

    ``grid_points`` is the number of lattice values per angle used for
    seeding; when the full lattice is too large it is subsampled at random
    (deterministically from ``seed``).  ``tolerance`` is the simplex
    convergence tolerance of each restart.
    """

    restarts: int = 32
    grid_points: int = 12
    max_iterations: int = 500
    tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.grid_points < 1 or self.max_iterations < 1:
            raise ValueError("restarts, grid_points, max_iterations must be >= 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


@dataclass
class QuantumnessResult:
    """Minimised value in bits plus the argmin measurement and search trace.

    ``trace`` holds (restart index, converged value) pairs; the final entry
    is the polish run, and ``value`` is the minimum over the trace (for the
    relative-entropy forms, only to rounding: see ``relent_to_cq``).
    """

    value: float
    argmin_measurement: (
        ProjectiveMeasurement | tuple[ProjectiveMeasurement, ProjectiveMeasurement]
    )
    trace: list[tuple[int, float]] = field(default_factory=list)
    argmin_isometry: Optional[np.ndarray] = None


def _require_bipartite(rho: DensityMatrix) -> None:
    if len(rho.dims) != 2:
        raise NotBipartite(f"expected two subsystems, got dims {rho.dims}")


def _check_side_a(rho: DensityMatrix, m: ProjectiveMeasurement) -> None:
    _require_bipartite(rho)
    if m.dimension != rho.dims[0]:
        raise DimensionMismatch(
            f"measurement dimension {m.dimension} != first subsystem "
            f"dimension {rho.dims[0]}"
        )


def _blocks_after_measurement(
    t: np.ndarray, columns: np.ndarray
) -> np.ndarray:
    # B_i = (<c_i| (x) I) rho (|c_i> (x) I) for each column c_i;
    # for an orthonormal family these are the diagonal blocks of the
    # dephased state, whose joint spectrum is the union of block spectra.
    return np.einsum("ai,abcd,ci->ibd", columns.conj(), t, columns)


def _doubly_measured_probs(
    t: np.ndarray, u_a: np.ndarray, u_b: np.ndarray
) -> np.ndarray:
    # both-sides dephasing leaves a diagonal state: q_ij = <b_i f_j|rho|b_i f_j>
    return np.einsum(
        "ai,bj,abcd,ci,dj->ij", u_a.conj(), u_b.conj(), t, u_a, u_b
    ).real


def _deficit_objective(rho: DensityMatrix) -> _Objective:
    """S(rho') - S(rho) of the columns measured on A; they need not be
    square (an embedded A measured in U is A measured with V^dag U)."""
    _require_bipartite(rho)
    t = rho.matrix.reshape(rho.dims * 2)
    s0 = vn_entropy(rho)

    def objective(columns: np.ndarray) -> float:
        blocks = _blocks_after_measurement(t, columns)
        return shannon_bits(np.linalg.eigvalsh(blocks)) - s0

    return objective


def _discord_objective(rho: DensityMatrix) -> _Objective:
    """Mutual-information loss of the basis measured on A."""
    _require_bipartite(rho)
    t = rho.matrix.reshape(rho.dims * 2)
    s0 = vn_entropy(rho)
    s_a = vn_entropy(partial_trace(rho, [0]))

    def objective(basis: np.ndarray) -> float:
        blocks = _blocks_after_measurement(t, basis)
        s_prime = shannon_bits(np.linalg.eigvalsh(blocks))
        s_a_prime = shannon_bits(np.einsum("ibb->i", blocks).real)
        return (s_prime - s0) - (s_a_prime - s_a)

    return objective


def _zero_way_deficit_objective(rho: DensityMatrix) -> _Objective:
    """S(rho'') - S(rho) of the bases measured on A and B."""
    _require_bipartite(rho)
    t = rho.matrix.reshape(rho.dims * 2)
    s0 = vn_entropy(rho)

    def objective(u_a: np.ndarray, u_b: np.ndarray) -> float:
        return shannon_bits(_doubly_measured_probs(t, u_a, u_b)) - s0

    return objective


def _zero_way_discord_objective(rho: DensityMatrix) -> _Objective:
    """I(rho) - I(rho'') of the bases measured on A and B."""
    _require_bipartite(rho)
    t = rho.matrix.reshape(rho.dims * 2)
    i_m = mutual_information(rho)

    def objective(u_a: np.ndarray, u_b: np.ndarray) -> float:
        q = _doubly_measured_probs(t, u_a, u_b)
        i_measured = (
            shannon_bits(q.sum(axis=1))
            + shannon_bits(q.sum(axis=0))
            - shannon_bits(q)
        )
        return i_m - i_measured

    return objective


def deficit_one_way_fixed(rho: DensityMatrix, m: ProjectiveMeasurement) -> float:
    """Entropy increase S(rho') - S(rho) for a fixed measurement on A."""
    _check_side_a(rho, m)
    return _deficit_objective(rho)(m.basis)


def discord_fixed(rho: DensityMatrix, m: ProjectiveMeasurement) -> float:
    """Mutual-information loss for a fixed measurement on A.

    Equals the fixed one-way deficit minus the entropy produced on A
    itself: [S(rho') - S(rho)] - [S(rho'_A) - S(rho_A)].
    """
    _check_side_a(rho, m)
    return _discord_objective(rho)(m.basis)


def _nelder_mead(
    objective: Callable[[np.ndarray], float],
    x0: np.ndarray,
    max_iterations: int,
    xatol: float,
    fatol: float,
    step: float,
) -> tuple[float, np.ndarray]:
    n = x0.size
    simplex = np.vstack([x0] + [x0 + step * e for e in np.eye(n)])
    res = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={
            "maxiter": max_iterations,
            "xatol": xatol,
            "fatol": fatol,
            "initial_simplex": simplex,
            "adaptive": n >= 6,
        },
    )
    return float(res.fun), np.asarray(res.x, dtype=float)


def _multistart_minimize(
    objective: Callable[[np.ndarray], float],
    ranges: np.ndarray,
    cfg: OptimizerConfig,
    structured_seeds: Sequence[np.ndarray] = (),
) -> tuple[float, np.ndarray, list[tuple[int, float]]]:
    """Grid-seeded multi-start simplex search; deterministic for fixed seed."""
    rng = np.random.default_rng(cfg.seed)
    n = len(ranges)
    axes = [
        np.linspace(lo, hi, cfg.grid_points, endpoint=False)
        for lo, hi in ranges
    ]
    if cfg.grid_points ** n <= max(_LATTICE_CAP, 4 * cfg.restarts):
        mesh = np.meshgrid(*axes, indexing="ij")
        candidates = np.stack([m.ravel() for m in mesh], axis=-1)
    else:
        count = max(8 * cfg.restarts, 256)
        idx = rng.integers(0, cfg.grid_points, size=(count, n))
        candidates = np.stack(
            [axes[k][idx[:, k]] for k in range(n)], axis=-1
        )
    seeds = [np.asarray(s, dtype=float).ravel() for s in structured_seeds]
    for s in seeds:
        if s.size != n:
            raise ValueError(f"seed length {s.size} != parameter count {n}")
    cand_vals = np.array([objective(c) for c in candidates])
    order = np.argsort(cand_vals, kind="stable")
    starts = seeds[: cfg.restarts]
    for i in order[: max(0, cfg.restarts - len(starts))]:
        starts.append(candidates[i])

    trace: list[tuple[int, float]] = []
    best_val, best_x = math.inf, starts[0]
    for i, x0 in enumerate(starts):
        val, x = _nelder_mead(
            objective,
            x0,
            cfg.max_iterations,
            xatol=cfg.tolerance,
            fatol=cfg.tolerance,
            step=0.35,
        )
        trace.append((i, val))
        if val < best_val:
            best_val, best_x = val, x
    # polish: two short restarts from the incumbent with a tight simplex
    for _ in range(2):
        val, x = _nelder_mead(
            objective,
            best_x,
            cfg.max_iterations,
            xatol=1e-8,
            fatol=1e-12,
            step=0.02,
        )
        if val < best_val:
            best_val, best_x = val, x
    trace.append((len(starts), best_val))
    return best_val, best_x, trace


def _eigenbasis_params(reduced: np.ndarray) -> np.ndarray:
    _, vecs = np.linalg.eigh(reduced)
    return params_from_unitary(vecs)


def _one_sided_search(
    rho: DensityMatrix,
    objective: _Objective,
    cfg: OptimizerConfig,
    extra_seeds: Sequence[np.ndarray] = (),
) -> QuantumnessResult:
    d_a = rho.dims[0]

    def at_params(p: np.ndarray) -> float:
        return objective(unitary_from_params(p, d_a))

    rho_a = partial_trace(rho, [0]).matrix
    seeds = list(extra_seeds) + [
        _eigenbasis_params(rho_a),
        np.zeros(param_count(d_a)),
    ]
    val, x, trace = _multistart_minimize(at_params, param_ranges(d_a), cfg, seeds)
    return QuantumnessResult(val, measurement_from_params(x, d_a), trace)


def _two_sided_search(
    rho: DensityMatrix,
    objective: _Objective,
    cfg: OptimizerConfig,
) -> QuantumnessResult:
    d_a, d_b = rho.dims
    n_a = param_count(d_a)

    def at_params(p: np.ndarray) -> float:
        u_a = unitary_from_params(p[:n_a], d_a)
        u_b = unitary_from_params(p[n_a:], d_b)
        return objective(u_a, u_b)

    seeds = [
        np.concatenate([
            _eigenbasis_params(partial_trace(rho, [0]).matrix),
            _eigenbasis_params(partial_trace(rho, [1]).matrix),
        ]),
        np.zeros(n_a + param_count(d_b)),
    ]
    ranges = np.vstack([param_ranges(d_a), param_ranges(d_b)])
    val, x, trace = _multistart_minimize(at_params, ranges, cfg, seeds)
    pair = (
        measurement_from_params(x[:n_a], d_a),
        measurement_from_params(x[n_a:], d_b),
    )
    return QuantumnessResult(val, pair, trace)


def deficit_one_way(rho: DensityMatrix, cfg: OptimizerConfig) -> QuantumnessResult:
    """Minimal entropy increase under a rank-one measurement on A."""
    return _one_sided_search(rho, _deficit_objective(rho), cfg)


def discord(rho: DensityMatrix, cfg: OptimizerConfig) -> QuantumnessResult:
    """Minimal mutual-information loss under a rank-one measurement on A."""
    return _one_sided_search(rho, _discord_objective(rho), cfg)


def deficit_zero_way(rho: DensityMatrix, cfg: OptimizerConfig) -> QuantumnessResult:
    """Minimal entropy increase when both sides are measured."""
    return _two_sided_search(rho, _zero_way_deficit_objective(rho), cfg)


def discord_zero_way(rho: DensityMatrix, cfg: OptimizerConfig) -> QuantumnessResult:
    """Minimal mutual-information loss when both sides are measured."""
    return _two_sided_search(rho, _zero_way_discord_objective(rho), cfg)


def relent_to_cq(rho: DensityMatrix, cfg: OptimizerConfig) -> QuantumnessResult:
    """Relative-entropy distance to states classical on A.

    The closest such state is the dephased state Pi(rho), and
    S(rho || Pi(rho)) = S(Pi(rho)) - S(rho), so this runs the
    ``deficit_one_way`` search.  ``value`` is S(rho || Pi(rho)) certified at
    its argmin by ``oracles.relent_to_dephased``, an evaluation path
    independent of the entropy-difference objective.
    """
    res = deficit_one_way(rho, cfg)
    return replace(res, value=relent_to_dephased(rho, res.argmin_measurement))


def relent_to_cc(rho: DensityMatrix, cfg: OptimizerConfig) -> QuantumnessResult:
    """Relative-entropy distance to states classical on both sides: the
    ``deficit_zero_way`` search, with ``value`` S(rho || Pi_AB(rho)) certified
    at its argmin by ``oracles.relent_to_doubly_dephased``."""
    res = deficit_zero_way(rho, cfg)
    value = relent_to_doubly_dephased(rho, *res.argmin_measurement)
    return replace(res, value=value)


def generalized_deficit(
    rho: DensityMatrix, extra_dim: int, cfg: OptimizerConfig
) -> QuantumnessResult:
    """One-way deficit minimised jointly over local isometric embeddings.

    A is embedded into a space of dimension dA + extra_dim through the
    first dA columns of a parametrised unitary, and the measurement runs
    on the enlarged side.  The search is warm-started at the plain
    one-way optimum (identity embedding), so the value never exceeds it
    beyond solver noise.
    """
    _require_bipartite(rho)
    if extra_dim < 0:
        raise ValueError(f"extra_dim must be >= 0, got {extra_dim}")
    d_a, d_b = rho.dims
    d_ap = d_a + extra_dim
    n_iso = param_count(d_ap)
    n_meas = param_count(d_ap)
    deficit = _deficit_objective(rho)

    def objective(p: np.ndarray) -> float:
        w = unitary_from_params(p[:n_iso], d_ap)
        v = w[:, :d_a]
        # measuring the embedded state in basis U is measuring the original
        # state with the column family K = V^dag U
        return deficit(v.conj().T @ unitary_from_params(p[n_iso:], d_ap))

    base = deficit_one_way(rho, cfg)
    base_u = np.zeros((d_ap, d_ap), dtype=np.complex128)
    base_u[:d_a, :d_a] = base.argmin_measurement.basis
    if extra_dim:
        base_u[d_a:, d_a:] = np.eye(extra_dim)
    embedded_marginal = np.zeros((d_ap, d_ap), dtype=np.complex128)
    embedded_marginal[:d_a, :d_a] = partial_trace(rho, [0]).matrix
    seeds = [
        np.concatenate([np.zeros(n_iso), params_from_unitary(base_u)]),
        np.concatenate([np.zeros(n_iso), _eigenbasis_params(embedded_marginal)]),
        np.zeros(n_iso + n_meas),
    ]
    ranges = np.vstack([param_ranges(d_ap), param_ranges(d_ap)])
    val, x, trace = _multistart_minimize(objective, ranges, cfg, seeds)
    w = unitary_from_params(x[:n_iso], d_ap)
    return QuantumnessResult(
        val,
        measurement_from_params(x[n_iso:], d_ap),
        trace,
        argmin_isometry=w[:, :d_a].copy(),
    )


def _regroup_two_copies(rho: DensityMatrix) -> DensityMatrix:
    d_a, d_b = rho.dims
    two = tensor(rho, rho)                       # order A1 B1 A2 B2
    grouped = permute_subsystems(two, (0, 2, 1, 3))
    return DensityMatrix(grouped.matrix, (d_a * d_a, d_b * d_b))


def multicopy_deficit(rho: DensityMatrix, n: int, cfg: OptimizerConfig) -> float:
    """One-way deficit per copy of n grouped copies, with collective
    measurements on the joined A side.  Only n = 1 and n = 2 are supported.
    """
    _require_bipartite(rho)
    if n not in (1, 2):
        raise ValueError(f"copy count must be 1 or 2, got {n}")
    if n == 1:
        return deficit_one_way(rho, cfg).value
    check_dimension_cap((rho.dim, rho.dim), "two-copy dimension")
    base = deficit_one_way(rho, cfg)
    doubled = _regroup_two_copies(rho)
    product_seed = params_from_unitary(
        np.kron(base.argmin_measurement.basis, base.argmin_measurement.basis)
    )
    res = _one_sided_search(
        doubled, _deficit_objective(doubled), cfg, extra_seeds=[product_seed]
    )
    return res.value / 2
