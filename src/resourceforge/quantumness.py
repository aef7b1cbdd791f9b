"""Discord, one-way and zero-way deficits, their relative-entropy twins,
isometry-extended and two-copy variants.

Each quantity has one objective of the measured basis columns, shared by
its fixed and optimised forms.  Every minimisation runs one search,
``_search``, over the measured sites: a grid-seeded multi-start Nelder-Mead
simplex over the angle chart of ``resourceforge.measurements``, followed
by a short polish from the best point.  The simplex, ``minimize``, is this
module's own and needs numpy only; it repeats scipy's Nelder-Mead step for
step, so its iterates are bit-identical to scipy's.  A one-level side has
no angles, and the search returns the objective at the identity.
Structured starting points are always included, in particular the local
eigenbasis of the measured marginal, which makes the minimum vanish
identically on classical-quantum (or classical-classical) states.
Restarts are reduced in restart-index order, so results are deterministic
for a fixed seed regardless of how evaluations are scheduled.

Every search also carries a lower bound on its objective that costs three
entropies, and stops as soon as its best value is within ``_STOP_EPS``
bits of it.  Measuring A in a basis leaves sum_i p_i |i><i| (x) rho_i, of
entropy H(p) + sum_i p_i S(rho_i).  That is at least S(sum_i p_i rho_i) =
S(B), the entropy of a mixture being at most H(p) plus the mean entropy
of its parts.  It is also at least S(A): p is the diagonal of rho_A in
the measured basis, which the spectrum of rho_A majorises (Schur), so
H(p) >= S(A).  So the one-way deficit is at least
max(0, S(A) - S(AB), S(B) - S(AB)).  Discord is
S(A) - S(AB) + sum_i p_i S(rho_i) >= max(0, S(A) - S(AB)); the S(B) term
does not bound it.  Each zero-way form is at least both of its one-way
forms (measuring the second side only loses more), so both take the full
deficit bound.  The bound is met on classical-quantum, classical-classical,
pure and maximally correlated states; there the search usually ends at a
structured seed or after its first restarts.  Since
S(rho || Pi(rho)) = S(Pi(rho)) - S(rho) for a dephasing Pi, the
relative-entropy twins run the deficit searches and certify their value at
the argmin with ``resourceforge.oracles``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch
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
    embed,
    partial_trace,
    permute_subsystems,
    require_bipartite,
    tensor,
)

_LATTICE_CAP = 4096         # full seeding lattice only up to this many points
_STOP_EPS = 1e-12           # bits: a search stops this close to its lower bound

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
        if not 0 < self.tolerance < math.inf:
            raise ValueError(
                f"tolerance must be positive and finite, got {self.tolerance!r}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class QuantumnessResult:
    """Minimised value in bits plus the argmin measurement and search trace.

    ``trace`` holds (restart index, converged value) pairs; the final entry
    is the polish run, and ``value`` is the minimum over the trace (for the
    relative-entropy forms, only to rounding: see ``relent_to_cq``).  A
    search that reaches its entropic lower bound stops there: at a
    structured seed, the trace holds (seed index, value) for each seed
    evaluated up to and including that one; after a restart, it holds the
    restarts run so far and no polish entry.
    """

    value: float
    argmin_measurement: (
        ProjectiveMeasurement | tuple[ProjectiveMeasurement, ProjectiveMeasurement]
    )
    trace: list[tuple[int, float]] = field(default_factory=list)
    argmin_isometry: Optional[np.ndarray] = None


def _check_side_a(rho: DensityMatrix, m: ProjectiveMeasurement) -> None:
    require_bipartite(rho)
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
    """S(rho') - S(rho) of the basis measured on A."""
    require_bipartite(rho)
    t = rho.matrix.reshape(rho.dims * 2)
    s0 = vn_entropy(rho)

    def objective(basis: np.ndarray) -> float:
        blocks = _blocks_after_measurement(t, basis)
        return shannon_bits(np.linalg.eigvalsh(blocks)) - s0

    return objective


def _discord_objective(rho: DensityMatrix) -> _Objective:
    """Mutual-information loss of the basis measured on A."""
    require_bipartite(rho)
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
    require_bipartite(rho)
    t = rho.matrix.reshape(rho.dims * 2)
    s0 = vn_entropy(rho)

    def objective(u_a: np.ndarray, u_b: np.ndarray) -> float:
        return shannon_bits(_doubly_measured_probs(t, u_a, u_b)) - s0

    return objective


def _zero_way_discord_objective(rho: DensityMatrix) -> _Objective:
    """I(rho) - I(rho'') of the bases measured on A and B."""
    require_bipartite(rho)
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


def _entropic_bound(rho: DensityMatrix, sides: Sequence[int] = (0, 1)) -> float:
    """max(0, S(X) - S(AB)) over the marginals X on ``sides``: a lower bound
    on the one-way deficit and both zero-way forms with ``sides=(0, 1)``,
    and on discord with ``sides=(0,)`` (see the module docstring)."""
    s0 = vn_entropy(rho)
    return max([0.0] + [vn_entropy(partial_trace(rho, [s])) - s0 for s in sides])


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


class SimplexResult(NamedTuple):
    """One simplex run: the best value and vertex, the iterations (counted
    from 1), the objective evaluations, and whether it converged before the
    iteration cap."""

    fun: float
    x: np.ndarray
    nit: int
    nfev: int
    success: bool


def minimize(
    objective: Callable[[np.ndarray], float],
    simplex: np.ndarray,
    max_iterations: int,
    xatol: float,
    fatol: float,
) -> SimplexResult:
    """Nelder-Mead search from the (n + 1, n) vertices ``simplex``, n >= 1.

    Step for step the Nelder-Mead of scipy 1.17 (``scipy.optimize.minimize``
    with ``initial_simplex``, ``maxiter``, ``xatol``, ``fatol`` and
    ``adaptive=n >= 6``), so its iterates are bit-identical to scipy's.
    From 6 angles on it takes the dimension-adapted expansion, contraction
    and shrink factors of Gao & Han, Comput. Optim. Appl. 51 (2012) 259.
    It stops when every vertex lies within ``xatol`` of the best one in each
    coordinate and within ``fatol`` of its value.
    """
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    if n >= 6:
        chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    else:
        chi, psi, sigma = 2, 0.5, 0.5
    nfev = 0

    def f(x: np.ndarray) -> float:
        nonlocal nfev
        nfev += 1
        return objective(x)

    def by_value(sim, fsim):
        order = np.argsort(fsim)
        return np.take(sim, order, 0), np.take(fsim, order, 0)

    fsim = np.array([f(v) for v in sim], dtype=float)
    # sorted twice, as scipy does: argsort need not keep tied values in order
    sim, fsim = by_value(*by_value(sim, fsim))
    nit = 1
    while nit < max_iterations:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + chi) * xbar - chi * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = (1 + psi) * xbar - psi * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
                fsim[1:] = [f(v) for v in sim[1:]]
        nit += 1
        sim, fsim = by_value(sim, fsim)
    return SimplexResult(np.min(fsim), sim[0], nit, nfev, nit < max_iterations)


def _multistart_minimize(
    objective: Callable[[np.ndarray], float],
    ranges: np.ndarray,
    cfg: OptimizerConfig,
    structured_seeds: Sequence[np.ndarray] = (),
    bound: float = -math.inf,
) -> tuple[float, np.ndarray, list[tuple[int, float]]]:
    """Grid-seeded multi-start simplex search; deterministic for fixed seed.

    ``bound`` is a lower bound on ``objective``.  The structured seeds are
    evaluated in order before the lattice, and the first within
    ``_STOP_EPS`` of the bound is returned with the trace of the seeds so
    far.  After each restart the best value is checked again, and once it
    is within ``_STOP_EPS`` the remaining restarts and the polish are
    skipped.  A search that never gets that close runs, and returns,
    exactly as it would without a bound.
    """
    n = len(ranges)
    if n == 0:      # a one-level side: its only basis is the identity
        val = float(objective(np.zeros(0)))
        return val, np.zeros(0), [(0, val)]

    def simplex_search(x0, step, xatol, fatol):
        simplex = np.vstack([x0, x0 + step * np.eye(n)])
        res = minimize(objective, simplex, cfg.max_iterations, xatol, fatol)
        return float(res.fun), res.x

    rng = np.random.default_rng(cfg.seed)
    axes = [
        np.linspace(lo, hi, cfg.grid_points, endpoint=False)
        for lo, hi in ranges
    ]
    if cfg.grid_points ** n <= max(_LATTICE_CAP, 4 * cfg.restarts):
        # not meshgrid, which refuses more than 64 axes
        candidates = np.array(list(itertools.product(*axes)))
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
    stop = bound + _STOP_EPS
    seed_trace: list[tuple[int, float]] = []
    for i, s in enumerate(seeds):
        val = float(objective(s))
        seed_trace.append((i, val))
        if val <= stop:
            return val, s, seed_trace
    cand_vals = np.array([objective(c) for c in candidates])
    order = np.argsort(cand_vals, kind="stable")
    starts = seeds[: cfg.restarts]
    for i in order[: max(0, cfg.restarts - len(starts))]:
        starts.append(candidates[i])

    trace: list[tuple[int, float]] = []
    best_val, best_x = math.inf, starts[0]
    for i, x0 in enumerate(starts):
        val, x = simplex_search(x0, 0.35, cfg.tolerance, cfg.tolerance)
        trace.append((i, val))
        if val < best_val:
            best_val, best_x = val, x
        if best_val <= stop:
            return best_val, best_x, trace
    # polish: two short restarts from the incumbent with a tight simplex
    for _ in range(2):
        val, x = simplex_search(best_x, 0.02, 1e-8, 1e-12)
        if val < best_val:
            best_val, best_x = val, x
    trace.append((len(starts), best_val))
    return best_val, best_x, trace


def _measured_dims(rho: DensityMatrix, sites: Sequence[int]) -> list[int]:
    """Dimensions of the measured sites.  The dimension cap that bounds
    states also bounds each site's d(d - 1) chart angles, so no search runs
    over more angles than the cap."""
    dims = [rho.dims[s] for s in sites]
    for d in dims:
        check_dimension_cap((param_count(d),), "search angles")
    return dims


def _search(
    rho: DensityMatrix,
    objective: _Objective,
    bound: float,
    cfg: OptimizerConfig,
    sites: Sequence[int] = (0,),
    warm_bases: Sequence[np.ndarray] = (),
) -> QuantumnessResult:
    """Minimise ``objective`` over one basis per measured site.

    The angle vector holds each site's chart angles in ``sites`` order, and
    the objective takes one basis per site in the same order.  Structured
    starts come first: the warm bases (one-site searches only), then the
    eigenbases of the measured marginals, then the zero angles.  The
    argmin is one measurement, or a tuple of them for several sites.

    ``bound`` is a certified lower bound on ``objective``, an
    ``_entropic_bound`` of the searched state.  The search stops once its
    best value is within ``_STOP_EPS`` bits of it, so a stopped value lies
    within that distance of the true minimum; ``value`` is still the
    minimum over the trace and the objective at the returned basis.
    """
    dims = _measured_dims(rho, sites)
    bounds = list(itertools.accumulate(map(param_count, dims), initial=0))
    charts = [(slice(lo, hi), d) for lo, hi, d in zip(bounds, bounds[1:], dims)]

    def at_params(p: np.ndarray) -> float:
        return objective(*[unitary_from_params(p[c], d) for c, d in charts])

    eigenbases = [
        params_from_unitary(np.linalg.eigh(partial_trace(rho, [s]).matrix)[1])
        for s in sites
    ]
    seeds = [params_from_unitary(u) for u in warm_bases]
    seeds += [np.concatenate(eigenbases), np.zeros(bounds[-1])]
    ranges = np.vstack([param_ranges(d) for d in dims])
    val, x, trace = _multistart_minimize(at_params, ranges, cfg, seeds, bound)
    found = tuple(measurement_from_params(x[c], d) for c, d in charts)
    return QuantumnessResult(val, found if len(found) > 1 else found[0], trace)


def deficit_one_way(rho: DensityMatrix, cfg: OptimizerConfig) -> QuantumnessResult:
    """Minimal entropy increase under a rank-one measurement on A."""
    return _search(rho, _deficit_objective(rho), _entropic_bound(rho), cfg)


def discord(rho: DensityMatrix, cfg: OptimizerConfig) -> QuantumnessResult:
    """Minimal mutual-information loss under a rank-one measurement on A."""
    return _search(rho, _discord_objective(rho), _entropic_bound(rho, (0,)), cfg)


def deficit_zero_way(rho: DensityMatrix, cfg: OptimizerConfig) -> QuantumnessResult:
    """Minimal entropy increase when both sides are measured."""
    return _search(
        rho, _zero_way_deficit_objective(rho), _entropic_bound(rho), cfg, sites=(0, 1)
    )


def discord_zero_way(rho: DensityMatrix, cfg: OptimizerConfig) -> QuantumnessResult:
    """Minimal mutual-information loss when both sides are measured."""
    return _search(
        rho, _zero_way_discord_objective(rho), _entropic_bound(rho), cfg, sites=(0, 1)
    )


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


def _lifted_deficit(
    rho: DensityMatrix,
    lifted: DensityMatrix,
    lift: Callable[[np.ndarray], np.ndarray],
    cfg: OptimizerConfig,
) -> QuantumnessResult:
    """One-way deficit of ``lifted``, a state with a larger A side that
    ``lift`` maps bases of rho's A side into, warm-started at the lift of
    rho's own optimal basis."""
    _measured_dims(lifted, (0,))     # refuse before the unlifted search runs
    base = deficit_one_way(rho, cfg)
    warm = lift(base.argmin_measurement.basis)
    return _search(
        lifted, _deficit_objective(lifted), _entropic_bound(lifted), cfg,
        warm_bases=[warm],
    )


def generalized_deficit(
    rho: DensityMatrix, extra_dim: int, cfg: OptimizerConfig
) -> QuantumnessResult:
    """One-way deficit minimised jointly over local isometric embeddings.

    A is embedded into a space of dimension dA + extra_dim and measured
    there.  The embedding is absorbed into the measurement: for an isometry
    V with unitary completion W, measuring V rho V^dag in basis U measures
    the padded state (rho with dA + extra_dim levels on A) in basis W^dag U,
    and W^dag U ranges over every basis as U does.  So this is the plain
    one-way deficit of the padded state, warm-started at the unpadded
    optimum; ``argmin_isometry`` is the canonical embedding.
    """
    require_bipartite(rho)
    if extra_dim < 0:
        raise ValueError(f"extra_dim must be >= 0, got {extra_dim}")
    d_a = rho.dims[0]
    isometry = np.eye(d_a + extra_dim, d_a, dtype=np.complex128)
    padded = embed(rho, isometry, 0)

    def pad(u: np.ndarray) -> np.ndarray:
        w = np.eye(d_a + extra_dim, dtype=np.complex128)
        w[:d_a, :d_a] = u
        return w

    res = _lifted_deficit(rho, padded, pad, cfg)
    return replace(res, argmin_isometry=isometry)


def _regroup_two_copies(rho: DensityMatrix) -> DensityMatrix:
    d_a, d_b = rho.dims
    two = tensor(rho, rho)                       # order A1 B1 A2 B2
    grouped = permute_subsystems(two, (0, 2, 1, 3))
    return DensityMatrix(grouped.matrix, (d_a * d_a, d_b * d_b))


def multicopy_deficit(rho: DensityMatrix, n: int, cfg: OptimizerConfig) -> float:
    """One-way deficit per copy of n grouped copies, with collective
    measurements on the joined A side.  Only n = 1 and n = 2 are supported.
    """
    require_bipartite(rho)
    if n not in (1, 2):
        raise ValueError(f"copy count must be 1 or 2, got {n}")
    if n == 1:
        return deficit_one_way(rho, cfg).value
    check_dimension_cap((rho.dim, rho.dim), "two-copy dimension")
    doubled = _regroup_two_copies(rho)
    return _lifted_deficit(rho, doubled, lambda u: np.kron(u, u), cfg).value / 2
