"""Discord, one-way and zero-way deficits, their relative-entropy twins,
isometry-extended and two-copy variants.

Each quantity has one objective of the measured bases, shared by its fixed
and optimised forms.  The objective is batched: it takes one (R, d, d)
stack of bases per measured site and returns R values, and on request the
Riemannian gradient of each on the unitary group.  Write df = -2 Re sum_i
u_i^dag M_i du_i, for the columns u_i of a basis U and Hermitian M_i.
Moving U to U exp(Omega), Omega skew-Hermitian, the gradient is G = A - A^dag
with A[i, j] = u_i^dag M_i u_j, and df = -Re tr(G Omega).  For the one-way
deficit, sum_i H(B_i) - S(rho) with B_i the block of rho left by outcome i,
M_i[a, c] = tr(log2(B_i) R_ac), R_ac the (a, c) block of rho; the trace
terms cancel because sum_i B_i = rho_B for every basis.  Discord subtracts
log2(p_i) rho_A from each M_i.  In the zero-way forms the outcome weights
q_ij are bilinear in the two sides' columns, so each side gets the same
form with M summed over the other side's outcomes.  A column phase changes
no value, and G has a zero diagonal.  Gradients take log2 of weights at
least 2^-60, where the value counts every positive weight exactly.

Every minimisation runs one search, ``_search``, over the measured sites.
It evaluates its structured starts (warm bases, the eigenbases of the
measured marginals, the identity) in one batched call, then a seeding
lattice over the angle chart of ``resourceforge.measurements`` in batched
calls of 64 points; the lattice depends only on the sites and the config,
and the last few are cached.  The lattice starts are taken in ascending
value, skipping any point within ``_START_DISTANCE`` of a start already
chosen on every site, so that the starts spread over the basins.  Then
``minimize`` runs every start at once: a Barzilai-Borwein descent with the
retraction U <- U exp(-tau G) and a per-start backtrack on the nonmonotone
test of Zhang & Hager (SIAM J. Optim. 14 (2004) 1043), as in Wen & Yin,
Math. Program. 142 (2013) 397 (see also Abrudan, Eriksson & Koivunen, IEEE
TSP 56 (2008) 1134).  A value may rise on the way, so each start keeps the
lowest value it reached.  A start stops when the norm of G is at most
``OptimizerConfig.tolerance``.  The objectives contract rho, reshaped once
per objective, with one small gemm per row.  Every step acts row by row,
so a start follows the same path whichever starts share its batch, and
repeat runs are bit-identical.  A one-level side has no other basis than
the identity, and the search returns the objective there.

Every search also carries a lower bound on its objective that costs three
entropies, and stops as soon as a value is within ``_STOP_EPS`` bits of it.
Measuring A in a basis leaves sum_i p_i |i><i| (x) rho_i, of
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
structured start.  Since
S(rho || Pi(rho)) = S(Pi(rho)) - S(rho) for a dephasing Pi, the
relative-entropy twins run the deficit searches and certify their value at
the argmin with ``resourceforge.oracles``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch
from .entropy import _shannon_rows, mutual_information, vn_entropy
from .measurements import (
    ProjectiveMeasurement,
    _unitaries_from_params,
    param_count,
    param_ranges,
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
_START_DISTANCE = 0.1       # lattice starts this close to a chosen one are skipped
_NONMONOTONE = 0.85         # weight of the past in the descent's reference value

# An objective takes one (R, d, d) stack of bases per measured site and
# returns R values; with ``gradient=True``, also one (R, d, d) stack of
# Riemannian gradients per site.
_Objective = Callable[..., "np.ndarray | tuple[np.ndarray, tuple[np.ndarray, ...]]"]


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for every measurement-basis search.

    ``restarts`` is the number of starts of the descent.  ``grid_points`` is
    the number of lattice values per chart angle used for seeding; when the
    full lattice is too large it is subsampled at random (deterministically
    from ``seed``).  ``max_iterations`` caps the descent steps of each start,
    and ``tolerance`` is the norm of the Riemannian gradient at which a
    start has converged.
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


@dataclass(slots=True)
class QuantumnessResult:
    """Minimised value in bits plus the argmin measurement and search trace.

    ``trace`` holds (start index, final value) pairs, one per start of the
    descent, then (number of starts, best value); ``value`` is the minimum
    over the trace (for the relative-entropy forms, only to rounding: see
    ``relent_to_cq``).  A search that reaches its entropic lower bound stops
    there: at a structured start, the trace holds (start index, value) for
    each structured start up to and including that one; after the descent,
    it holds the starts up to the first one within the bound, and no final
    entry.
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


def _log2_floored(p: np.ndarray) -> np.ndarray:
    # gradients only: a weight below 2^-60 counts as 2^-60, not as log 0
    return np.log2(np.maximum(p, 2.0 ** -60))


def _ordered_pairs(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """rho as T[(a, c), (b, d)] = <a b|rho|c d>, and its transpose, each a
    contiguous (dA^2, dB^2) or (dB^2, dA^2) matrix for the gemm contractions."""
    d_a, d_b = rho.dims
    t = rho.matrix.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3)
    t = np.ascontiguousarray(t.reshape(d_a * d_a, d_b * d_b))
    return t, np.ascontiguousarray(t.T)


def _projectors(u: np.ndarray) -> np.ndarray:
    """P[r, i, (a, c)] = conj(u[r, a, i]) u[r, c, i], the projector onto each
    column u_i flattened, so that P @ T contracts it with rho."""
    r, d, _ = u.shape
    cols = u.swapaxes(1, 2)
    return (cols.conj()[:, :, :, None] * cols[:, :, None, :]).reshape(r, d, d * d)


def _riemannian_gradient(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """G = A - A^dag, A[i, j] = u_i^dag M_i u_j, for df = -2 Re sum_i
    u_i^dag M_i du_i (see the module docstring); ``m`` holds M_i[a, c] as
    m[r, i, (a, c)]."""
    r, d, _ = u.shape
    rows = u.conj().swapaxes(1, 2)[:, :, None, :] @ m.reshape(r, d, d, d)
    a = rows[:, :, 0, :] @ u
    return a - a.conj().swapaxes(1, 2)


def _one_way_objective(rho: DensityMatrix, discord: bool) -> _Objective:
    """S(rho') - S(rho) of the bases measured on A; with ``discord``, the
    mutual-information loss I(rho) - I(rho') instead."""
    require_bipartite(rho)
    t, t_swapped = _ordered_pairs(rho)
    d_b = rho.dims[1]
    s0 = vn_entropy(rho)
    rho_a = partial_trace(rho, [0])
    s_a = vn_entropy(rho_a)

    def objective(u: np.ndarray, gradient: bool = False):
        # B_i = (<u_i| (x) I) rho (|u_i> (x) I) for each column u_i of each
        # basis; for an orthonormal family these are the diagonal blocks of
        # the dephased state, whose joint spectrum is the union of block spectra
        flat = _projectors(u) @ t
        blocks = flat.reshape(len(u), -1, d_b, d_b)
        w, v = np.linalg.eigh(blocks)
        value = _shannon_rows(w) - s0
        if discord:
            p = flat[:, :, :: d_b + 1].sum(axis=2).real
            value = value - (_shannon_rows(p) - s_a)
        if not gradient:
            return value
        # M_i[a, c] = tr(log2(B_i) R_ac), R_ac the (a, c) block of rho; the
        # transpose of log2(B_i) pairs (b, d) with T's column order
        logs_t = (v.conj() * _log2_floored(w)[..., None, :]) @ v.swapaxes(-1, -2)
        m = logs_t.reshape(len(u), -1, d_b * d_b) @ t_swapped
        if discord:
            m = m - _log2_floored(p)[..., None] * rho_a.matrix.reshape(-1)
        return value, (_riemannian_gradient(u, m),)

    return objective


def _two_way_objective(rho: DensityMatrix, discord: bool) -> _Objective:
    """S(rho'') - S(rho) of the bases measured on A and B; with ``discord``,
    I(rho) - I(rho'') instead."""
    require_bipartite(rho)
    t, t_swapped = _ordered_pairs(rho)
    s0 = vn_entropy(rho)
    i_m = mutual_information(rho)

    def objective(u_a: np.ndarray, u_b: np.ndarray, gradient: bool = False):
        blocks = _projectors(u_a) @ t
        p_b = _projectors(u_b)
        # both-sides dephasing leaves a diagonal state: q_ij = <a_i b_j|rho|a_i b_j>
        q = (blocks @ p_b.swapaxes(1, 2)).real
        if discord:
            q_a, q_b = q.sum(axis=2), q.sum(axis=1)
            i_measured = _shannon_rows(q_a) + _shannon_rows(q_b) - _shannon_rows(q)
            value = i_m - i_measured
        else:
            value = _shannon_rows(q) - s0
        if not gradient:
            return value
        # df = -sum_ij w_ij dq_ij; M sums each side's conditional blocks by w
        w = _log2_floored(q)
        if discord:
            w = w - _log2_floored(q_a)[:, :, None] - _log2_floored(q_b)[:, None, :]
        given_b = p_b @ t_swapped
        m_a = w @ given_b
        m_b = w.swapaxes(1, 2) @ blocks
        return value, (_riemannian_gradient(u_a, m_a), _riemannian_gradient(u_b, m_b))

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
    return float(_one_way_objective(rho, discord=False)(m.basis[None])[0])


def discord_fixed(rho: DensityMatrix, m: ProjectiveMeasurement) -> float:
    """Mutual-information loss for a fixed measurement on A.

    Equals the fixed one-way deficit minus the entropy produced on A
    itself: [S(rho') - S(rho)] - [S(rho'_A) - S(rho_A)].
    """
    _check_side_a(rho, m)
    return float(_one_way_objective(rho, discord=True)(m.basis[None])[0])


class Descent(NamedTuple):
    """The lowest value each start reached and its bases there (one stack
    per site), the iterations and objective rows evaluated, summed over the
    starts, and whether every start converged."""

    fun: np.ndarray
    bases: tuple[np.ndarray, ...]
    nit: int
    nfev: int
    success: bool


def _inner(xs: Sequence[np.ndarray], ys: Sequence[np.ndarray]) -> np.ndarray:
    """Re tr(x^dag y) summed over the sites, per row."""
    return sum((x.conj() * y).real.sum(axis=(1, 2)) for x, y in zip(xs, ys))


def _turned(turns: Sequence[tuple], tau: np.ndarray, rows) -> list[np.ndarray]:
    """U exp(-tau G) = (U V) diag(exp(i tau w)) V^dag at ``rows``, from each
    site's (U V, w, V^dag), where iG = V diag(w) V^dag."""
    return [
        (uv[rows] * np.exp(1j * tau[rows, None, None] * w[rows, None, :])) @ vh[rows]
        for uv, w, vh in turns
    ]


def minimize(
    objective: _Objective,
    starts: Sequence[np.ndarray],
    max_iterations: int,
    gtol: float,
) -> Descent:
    """Riemannian descent on U(d), one basis per site, from every start at once.

    ``starts`` holds one (R, d, d) stack of bases per site.  Each iteration
    moves every unfinished start to U exp(-tau G), with G its gradient,
    built from one ``eigh`` of iG that serves every trial step.  The step
    tau is Barzilai-Borwein, the long and the short form in turn, turning at
    most one radian.  A step is accepted by the nonmonotone test of Zhang &
    Hager against the reference value C, a running mean of the start's
    values weighted by ``_NONMONOTONE`` (Wen & Yin's Algorithm 2); a start
    whose step fails it halves the step, up to 30 times.  A start converges
    once the norm of G is at most ``gtol``, and stops unconverged at
    ``max_iterations`` steps or when no halved step passes.  Its value may
    rise on the way, so each start returns the lowest value it reached and
    the bases there.  Only the unfinished starts are carried from one
    iteration to the next.  Every operation acts row by row, so a start
    follows the same path whichever starts share its batch.
    """
    u = [np.array(x, dtype=np.complex128) for x in starts]
    f, g = objective(*u, gradient=True)
    nfev, nit = len(f), 0
    gg = _inner(g, g)
    with np.errstate(divide="ignore"):
        tau = 1 / np.sqrt(gg)
    # each start's lowest value and its bases there
    fun, bases = f, u
    converged = gg <= gtol**2
    # the working set: the unfinished starts, and the Zhang-Hager reference
    # value C and its weight Q
    rows = np.flatnonzero(~converged)
    u, g = [x[rows] for x in u], [x[rows] for x in g]
    gg, tau = gg[rows], tau[rows]
    ref, weight = f[rows], np.ones(rows.size)
    for it in range(max_iterations):
        if not rows.size:
            break
        nit += rows.size
        turns = []
        for x, y in zip(u, g):
            w, v = np.linalg.eigh(1j * y)
            turns.append((x @ v, w, v.conj().swapaxes(1, 2)))
        new_u = _turned(turns, tau, slice(None))
        new_f, new_g = objective(*new_u, gradient=True)
        nfev += rows.size
        todo = np.flatnonzero(new_f > ref - 1e-4 * tau * gg)
        for _ in range(29):                 # up to 30 trials in all
            if not todo.size:
                break
            tau[todo] /= 2
            trial = _turned(turns, tau, todo)
            trial_f, trial_g = objective(*trial, gradient=True)
            nfev += todo.size
            new_f[todo] = trial_f
            for k in range(len(u)):
                new_u[k][todo], new_g[k][todo] = trial[k], trial_g[k]
            todo = todo[trial_f > ref[todo] - 1e-4 * tau[todo] * gg[todo]]
        moved = np.ones(rows.size, dtype=bool)
        moved[todo] = False
        y = [a - b for a, b in zip(new_g, g)]
        sy = -tau * _inner(g, y)                # s = -tau G
        new_gg = _inner(new_g, new_g)
        with np.errstate(divide="ignore", invalid="ignore"):
            bb = (tau**2 * gg / sy) if it % 2 == 0 else (sy / _inner(y, y))
            cap = 1 / np.sqrt(new_gg)
        tau = np.where(sy > 0, np.minimum(bb, cap), cap)
        lower = moved & (new_f < fun[rows])
        fun[rows[lower]] = new_f[lower]
        for k in range(len(u)):
            bases[k][rows[lower]] = new_u[k][lower]
        past = _NONMONOTONE * weight
        weight = past + 1
        ref = (past * ref + new_f) / weight
        done = moved & (new_gg <= gtol**2)
        stay = moved & ~done
        if not stay.all():
            converged[rows[done]] = True
            rows, tau, ref, weight = rows[stay], tau[stay], ref[stay], weight[stay]
            new_u, new_g = [x[stay] for x in new_u], [x[stay] for x in new_g]
            new_gg = new_gg[stay]
        u, g, gg = new_u, new_g, new_gg
    return Descent(fun, tuple(bases), nit, nfev, bool(converged.all()))


def _measured_dims(rho: DensityMatrix, sites: Sequence[int]) -> list[int]:
    """Dimensions of the measured sites.  The dimension cap that bounds
    states also bounds each site's d(d - 1) chart angles, so no search runs
    over more angles than the cap."""
    dims = [rho.dims[s] for s in sites]
    for d in dims:
        check_dimension_cap((param_count(d),), "search angles")
    return dims


def _lattice(dims: Sequence[int], cfg: OptimizerConfig) -> tuple[np.ndarray, ...]:
    """The seeding lattice over all sites' chart angles, one read-only
    (N, d, d) stack per site: the full grid when it has at most
    max(_LATTICE_CAP, 4 restarts) points, else max(8 restarts, 256) grid
    points drawn from ``cfg.seed``.  It depends on neither the state nor the
    objective, so the last few are kept."""
    return _cached_lattice(tuple(dims), cfg)


@functools.lru_cache(maxsize=8)
def _cached_lattice(dims: tuple[int, ...], cfg: OptimizerConfig) -> tuple[np.ndarray, ...]:
    axes = [
        np.linspace(lo, hi, cfg.grid_points, endpoint=False)
        for lo, hi in np.vstack([param_ranges(d) for d in dims])
    ]
    n = len(axes)
    if cfg.grid_points ** n <= max(_LATTICE_CAP, 4 * cfg.restarts):
        # not meshgrid, which refuses more than 64 axes
        angles = np.array(list(itertools.product(*axes)))
    else:
        count = max(8 * cfg.restarts, 256)
        idx = np.random.default_rng(cfg.seed).integers(0, cfg.grid_points, size=(count, n))
        angles = np.stack([axes[k][idx[:, k]] for k in range(n)], axis=-1)
    cuts = np.cumsum([param_count(d) for d in dims])[:-1]
    stacks = tuple(
        _unitaries_from_params(p, d)
        for p, d in zip(np.split(angles, cuts, axis=1), dims)
    )
    for stack in stacks:
        stack.flags.writeable = False
    return stacks


def _distance(u: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """1 - sum_ij |<u_i|v_j>|^4 / d for each basis v of ``stack``: 0 exactly
    when both measure the same projectors, whatever their columns' phases
    or order.  On a qubit it is sin^2(theta) / 2 for Bloch axes theta apart.
    One gemm over the stack laid side by side."""
    d = len(u)
    overlaps = np.abs(u.conj().T @ stack.swapaxes(0, 1).reshape(d, -1)) ** 2
    return 1 - (overlaps**2).reshape(d, len(stack), d).sum(axis=(0, 2)) / d


def _diverse_picks(
    lattice: Sequence[np.ndarray],
    order: np.ndarray,
    chosen: Sequence[Sequence[np.ndarray]],
    count: int,
) -> np.ndarray:
    """``count`` lattice indices to start from after the ``chosen`` starts
    (each one basis per site).

    Walking the lattice in ``order`` (ascending value), a point is skipped
    when on every site it lies within ``_START_DISTANCE`` of a start already
    chosen, so the starts spread over the basins.  Places left are filled
    with the lowest points not yet taken.
    """
    near = np.zeros(len(order), dtype=bool)

    def mark(bases):
        close = [_distance(u, site) < _START_DISTANCE for u, site in zip(bases, lattice)]
        np.logical_or(near, np.logical_and.reduce(close), out=near)

    for bases in chosen:
        mark(bases)
    picks = []
    while len(picks) < count:
        free = order[~near[order]]
        if not free.size:
            break
        picks.append(free[0])
        mark([site[free[0]] for site in lattice])
    rest = order[~np.isin(order, picks)]
    return np.concatenate([np.array(picks, dtype=int), rest[: count - len(picks)]])


def _walk(values: list[float], stop: float) -> tuple[int, list[tuple[int, float]]]:
    """The index of the lowest of ``values``, and the trace that walks them
    in order: it ends at the first value at most ``stop``, or else after
    them all with (number of values, lowest value)."""
    best = 0
    for k, value in enumerate(values):
        if value < values[best]:
            best = k
        if values[best] <= stop:
            return best, list(enumerate(values[: k + 1]))
    return best, list(enumerate(values)) + [(len(values), values[best])]


def _result(value: float, bases: Sequence[np.ndarray], trace) -> QuantumnessResult:
    found = tuple(ProjectiveMeasurement(len(u), u) for u in bases)
    return QuantumnessResult(value, found if len(found) > 1 else found[0], trace)


def _multistart(
    objective: _Objective,
    dims: Sequence[int],
    cfg: OptimizerConfig,
    structured: Sequence[Sequence[np.ndarray]] = (),
    bound: float = -math.inf,
) -> QuantumnessResult:
    """Minimise ``objective`` over one basis per site of dimensions ``dims``.

    ``structured`` holds starts of one basis per site.  They are evaluated
    first, in one batched call; then the seeding lattice, from which the
    starts after them are picked (see ``_diverse_picks``) up to
    ``cfg.restarts``.  ``minimize`` then runs all starts.

    ``bound`` is a lower bound on ``objective``.  The first structured start
    within ``_STOP_EPS`` bits of it ends the search.  After the descent, the
    trace walks the starts in order and ends at the first one within that
    distance; so a stopped value lies within it of the true minimum.
    ``value`` is the minimum over the trace and the objective at the
    returned bases.
    """
    stop = bound + _STOP_EPS
    seeds = [
        np.array([bases[s] for bases in structured], dtype=np.complex128).reshape(-1, d, d)
        for s, d in enumerate(dims)
    ]
    if structured:
        values = objective(*seeds).tolist()
        best, trace = _walk(values, stop)
        if values[best] <= stop:
            return _result(values[best], [site[best] for site in seeds], trace)
    chosen = structured[: cfg.restarts]
    starts = [site[: cfg.restarts] for site in seeds]
    places = cfg.restarts - len(chosen)
    if places > 0:
        lattice = _lattice(dims, cfg)
        # 64 rows at a time: the same values, as rows are independent, but
        # never the eigenvectors of the whole lattice in memory at once
        values = np.concatenate([
            objective(*(site[k : k + 64] for site in lattice))
            for k in range(0, len(lattice[0]), 64)
        ])
        order = np.argsort(values, kind="stable")
        picks = _diverse_picks(lattice, order, chosen, places)
        starts = [np.concatenate([s, site[picks]]) for s, site in zip(starts, lattice)]
    found = minimize(objective, starts, cfg.max_iterations, cfg.tolerance)
    values = found.fun.tolist()
    best, trace = _walk(values, stop)
    return _result(values[best], [site[best] for site in found.bases], trace)


def _search(
    rho: DensityMatrix,
    objective: _Objective,
    bound: float,
    cfg: OptimizerConfig,
    sites: Sequence[int] = (0,),
    warm_bases: Sequence[np.ndarray] = (),
) -> QuantumnessResult:
    """Minimise ``objective`` over one basis per measured site of ``rho``.

    The objective takes one stack of bases per site, in ``sites`` order.
    The structured starts are, in order: the warm bases (one-site searches
    only), the eigenbases of the measured marginals, the identity.  The
    argmin is one measurement, or a tuple of them for several sites.
    ``bound`` is a certified lower bound on ``objective``, an
    ``_entropic_bound`` of the searched state (see ``_multistart``).
    """
    dims = _measured_dims(rho, sites)
    eigenbases = tuple(np.linalg.eigh(partial_trace(rho, [s]).matrix)[1] for s in sites)
    identity = tuple(np.eye(d, dtype=np.complex128) for d in dims)
    structured = [*((u,) for u in warm_bases), eigenbases, identity]
    return _multistart(objective, dims, cfg, structured, bound)


def deficit_one_way(rho: DensityMatrix, cfg: OptimizerConfig) -> QuantumnessResult:
    """Minimal entropy increase under a rank-one measurement on A."""
    objective = _one_way_objective(rho, discord=False)
    return _search(rho, objective, _entropic_bound(rho), cfg)


def discord(rho: DensityMatrix, cfg: OptimizerConfig) -> QuantumnessResult:
    """Minimal mutual-information loss under a rank-one measurement on A."""
    objective = _one_way_objective(rho, discord=True)
    return _search(rho, objective, _entropic_bound(rho, (0,)), cfg)


def deficit_zero_way(rho: DensityMatrix, cfg: OptimizerConfig) -> QuantumnessResult:
    """Minimal entropy increase when both sides are measured."""
    objective = _two_way_objective(rho, discord=False)
    return _search(rho, objective, _entropic_bound(rho), cfg, sites=(0, 1))


def discord_zero_way(rho: DensityMatrix, cfg: OptimizerConfig) -> QuantumnessResult:
    """Minimal mutual-information loss when both sides are measured."""
    objective = _two_way_objective(rho, discord=True)
    return _search(rho, objective, _entropic_bound(rho), cfg, sites=(0, 1))


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
    objective = _one_way_objective(lifted, discord=False)
    return _search(lifted, objective, _entropic_bound(lifted), cfg, warm_bases=[warm])


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
