"""Site-local contractions and the relative-entropy certifiers, checked
against Kronecker-built references and closed forms over random states;
the two gauge identities the measurement search relies on; and the batched
objectives: their values against plain numpy, their gradients against
finite differences, and each row independent of its batch; the descent's
contract; and the seeding lattice's cache and distance."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import resourceforge as rf
from resourceforge import quantumness
from resourceforge.oracles import relent_to_dephased, relent_to_doubly_dephased
from resourceforge.quantumness import (
    _one_way_objective,
    _two_way_objective,
    minimize,
)
from helpers import (
    kron_embed,
    kron_local_unitary,
    kron_measure_local,
    random_bipartite,
    random_isometry,
    random_unitary,
)

DIMS = st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)])
SEEDS = st.integers(0, 2**31 - 1)
PROPERTY = settings(max_examples=40, deadline=None)


def _state_and_rng(dims, seed):
    return random_bipartite(seed, *dims), np.random.default_rng(seed + 1)


@PROPERTY
@given(dims=DIMS, side=st.integers(0, 1), seed=SEEDS)
def test_measure_local_matches_kron(dims, side, seed):
    rho, rng = _state_and_rng(dims, seed)
    m = rf.ProjectiveMeasurement(dims[side], random_unitary(dims[side], rng))
    got = rf.measure_local(rho, m, side).matrix
    np.testing.assert_allclose(
        got, kron_measure_local(rho, m, side).matrix, rtol=0, atol=1e-12
    )


@PROPERTY
@given(dims=DIMS, subsystem=st.integers(0, 1), extra=st.integers(0, 2), seed=SEEDS)
def test_embed_matches_kron(dims, subsystem, extra, seed):
    rho, rng = _state_and_rng(dims, seed)
    d = dims[subsystem]
    v = random_isometry(d + extra, d, rng)
    got = rf.embed(rho, v, subsystem)
    want = kron_embed(rho, v, subsystem)
    assert got.dims == want.dims
    np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-12)


@PROPERTY
@given(
    dims=DIMS,
    ancilla=st.booleans(),
    owners=st.lists(st.sampled_from("AB"), min_size=3, max_size=3),
    side=st.sampled_from("AB"),
    seed=SEEDS,
)
def test_local_unitary_matches_kron(dims, ancilla, owners, side, seed):
    rho, rng = _state_and_rng(dims, seed)
    if ancilla:
        rho = rf.tensor(rho, rf.random_density(2, 2, seed))
    ownership = tuple(owners[: len(rho.dims)])
    owned = [d for d, o in zip(rho.dims, ownership) if o == side]
    assume(owned)
    step = rf.LocalUnitary(side, random_unitary(int(np.prod(owned)), rng))
    reg = rf.Register(rho, ownership)
    got = rf.apply_step(reg, step)
    want = kron_local_unitary(reg, step)
    assert got.ownership == want.ownership
    np.testing.assert_allclose(
        got.state.matrix, want.state.matrix, rtol=0, atol=1e-12
    )


@PROPERTY
@given(dims=DIMS, seed=SEEDS)
def test_certifier_matches_fixed_deficit(dims, seed):
    rho, rng = _state_and_rng(dims, seed)
    m = rf.ProjectiveMeasurement(dims[0], random_unitary(dims[0], rng))
    assert abs(relent_to_dephased(rho, m) - rf.deficit_one_way_fixed(rho, m)) <= 1e-10


@PROPERTY
@given(dims=DIMS, seed=SEEDS)
def test_two_sided_certifier_is_outcome_entropy_gap(dims, seed):
    rho, rng = _state_and_rng(dims, seed)
    u_a, u_b = random_unitary(dims[0], rng), random_unitary(dims[1], rng)
    w = np.kron(u_a, u_b)
    q = np.real(np.diagonal(w.conj().T @ rho.matrix @ w))
    q = q[q > 1e-12]
    gap = -(q * np.log2(q)).sum() - rf.vn_entropy(rho)
    value = relent_to_doubly_dephased(
        rho,
        rf.ProjectiveMeasurement(dims[0], u_a),
        rf.ProjectiveMeasurement(dims[1], u_b),
    )
    assert abs(value - gap) <= 1e-10


def _bits(p):
    p = p[p > 1e-15]
    return float(-(p * np.log2(p)).sum())


def _deficit_at(rho, columns):
    """S(rho') - S(rho) for A measured with the columns, in plain numpy."""
    d_a, d_b = rho.dims
    t = rho.matrix.reshape(d_a, d_b, d_a, d_b)
    blocks = np.einsum("ai,ajbk,bi->ijk", columns.conj(), t, columns)
    return _bits(np.linalg.eigvalsh(blocks)) - _bits(np.linalg.eigvalsh(rho.matrix))


@PROPERTY
@given(dims=DIMS, seed=SEEDS)
def test_objectives_ignore_column_phases(dims, seed):
    rho, rng = _state_and_rng(dims, seed)
    u_a, u_b = random_unitary(dims[0], rng), random_unitary(dims[1], rng)
    v_a = u_a * np.exp(2j * np.pi * rng.random(dims[0]))
    v_b = u_b * np.exp(2j * np.pi * rng.random(dims[1]))
    for discord in (False, True):
        objective = _one_way_objective(rho, discord)
        assert abs(objective(v_a[None])[0] - objective(u_a[None])[0]) <= 1e-12
    for discord in (False, True):
        objective = _two_way_objective(rho, discord)
        assert abs(
            objective(v_a[None], v_b[None])[0] - objective(u_a[None], u_b[None])[0]
        ) <= 1e-12


@PROPERTY
@given(dims=DIMS, extra=st.integers(1, 2), seed=SEEDS)
def test_embedding_is_absorbed_by_the_measurement(dims, extra, seed):
    # for V completed to a unitary W, measuring V rho V^dag in U measures
    # rho with V^dag U = (W^dag U)[:dA], i.e. the padded state in W^dag U
    rho, rng = _state_and_rng(dims, seed)
    d_ap = dims[0] + extra
    w = random_unitary(d_ap, rng)
    v = w[:, : dims[0]]
    u = random_unitary(d_ap, rng)
    rotated = w.conj().T @ u
    at_v = _deficit_at(rho, v.conj().T @ u)
    assert abs(at_v - _deficit_at(rho, rotated[: dims[0]])) <= 1e-12
    embedded = rf.embed(rho, v, 0)
    padded = rf.embed(rho, np.eye(d_ap, dims[0]), 0)
    in_u = rf.deficit_one_way_fixed(embedded, rf.ProjectiveMeasurement(d_ap, u))
    in_rotated = rf.deficit_one_way_fixed(padded, rf.ProjectiveMeasurement(d_ap, rotated))
    assert abs(in_u - at_v) <= 1e-12
    assert abs(in_rotated - at_v) <= 1e-12


# each objective's factory, called with rho, and its number of measured sites
_OBJECTIVES = {
    "deficit_one_way": (lambda rho: _one_way_objective(rho, discord=False), 1),
    "discord": (lambda rho: _one_way_objective(rho, discord=True), 1),
    "deficit_zero_way": (lambda rho: _two_way_objective(rho, discord=False), 2),
    "discord_zero_way": (lambda rho: _two_way_objective(rho, discord=True), 2),
}


def _bases(objective_name, dims, rng, count=None):
    """Random bases for the objective's measured sites, one stack per site."""
    sites = _OBJECTIVES[objective_name][1]
    return [
        np.stack([random_unitary(dims[s], rng) for _ in range(count or 1)])
        for s in range(sites)
    ]


def _skew(d, rng):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return x - x.conj().T


def _turned(u, omega, angle):
    """u exp(angle * omega) for skew-Hermitian omega."""
    w, v = np.linalg.eigh(1j * omega)
    return u @ (v * np.exp(-1j * angle * w)) @ v.conj().T


@PROPERTY
@given(
    dims=DIMS,
    rank=st.integers(1, 9),
    name=st.sampled_from(sorted(_OBJECTIVES)),
    seed=SEEDS,
)
def test_gradient_matches_finite_differences(dims, rank, name, seed):
    # df along U -> U exp(t Omega) is -Re tr(G Omega), for every site at once
    rho = random_bipartite(seed, *dims, rank=min(rank, dims[0] * dims[1]))
    rng = np.random.default_rng(seed + 1)
    objective = _OBJECTIVES[name][0](rho)
    bases = _bases(name, dims, rng)
    omegas = [_skew(u.shape[1], rng) for u in bases]
    _, grads = objective(*bases, gradient=True)
    slope = -sum(np.trace(g[0] @ om).real for g, om in zip(grads, omegas))
    h = 1e-5

    def at(t):
        return objective(*(_turned(u[0], om, t)[None] for u, om in zip(bases, omegas)))[0]

    central = (at(h) - at(-h)) / (2 * h)
    assert abs(central - slope) <= 1e-6 * max(1.0, abs(slope))
    for g in grads:
        assert np.array_equal(g, -g.conj().swapaxes(1, 2))


@pytest.mark.parametrize("name", sorted(_OBJECTIVES))
@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4)])
def test_rows_do_not_depend_on_their_batch(name, dims):
    # a start evaluated, or run through the whole descent, alone gives the
    # same bits as its row in a batch of 32
    rho = random_bipartite(3, *dims)
    objective = _OBJECTIVES[name][0](rho)
    bases = _bases(name, dims, np.random.default_rng(1), count=32)
    values, grads = objective(*bases, gradient=True)
    batch = minimize(objective, bases, 500, 1e-6)
    for r in (0, 13, 31):
        alone = [u[r : r + 1] for u in bases]
        value, grad = objective(*alone, gradient=True)
        assert value[0].tobytes() == values[r].tobytes()
        assert all(a[0].tobytes() == b[r].tobytes() for a, b in zip(grad, grads))
        run = minimize(objective, alone, 500, 1e-6)
        assert run.fun[0].tobytes() == batch.fun[r].tobytes()
        assert all(a[0].tobytes() == b[r].tobytes() for a, b in zip(run.bases, batch.bases))


@pytest.mark.parametrize("name", sorted(_OBJECTIVES))
@pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
def test_descent_returns_each_starts_lowest_value(name, dims):
    # the nonmonotone test may accept a rise, so each start keeps its lowest
    # point: the value returned is the objective there, bit for bit, and no
    # start ends above where it began
    rho = random_bipartite(4, *dims)
    objective, sites = _OBJECTIVES[name]
    cfg = rf.OptimizerConfig(restarts=6, grid_points=5)
    starts = [site[::7][:24] for site in quantumness._lattice(dims[:sites], cfg)]
    run = minimize(objective(rho), starts, 400, 1e-6)
    assert run.fun.tobytes() == objective(rho)(*run.bases).tobytes()
    assert np.all(run.fun <= objective(rho)(*starts))
    assert isinstance(run.nit, int) and isinstance(run.nfev, int)


class TestLattice:
    def test_equal_keys_share_read_only_arrays(self):
        first = quantumness._lattice((2, 2), rf.OptimizerConfig(restarts=6, grid_points=5))
        again = quantumness._lattice([2, 2], rf.OptimizerConfig(restarts=6, grid_points=5))
        assert again is first
        for stack in first:
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 0

    def test_seed_and_grid_points_change_it(self):
        # a 3-level side has 6 angles: 12^6 points is past the full-grid
        # cap, so the lattice is drawn from the seed
        base = quantumness._lattice([3], rf.OptimizerConfig(seed=0))[0]
        reseeded = quantumness._lattice([3], rf.OptimizerConfig(seed=1))[0]
        assert base.shape == reseeded.shape and not np.array_equal(base, reseeded)
        coarse = quantumness._lattice([2], rf.OptimizerConfig(grid_points=5))[0]
        fine = quantumness._lattice([2], rf.OptimizerConfig(grid_points=6))[0]
        assert (len(coarse), len(fine)) == (25, 36)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_distance_is_the_projector_overlap(self, d):
        rng = np.random.default_rng(d)
        u = random_unitary(d, rng)
        stack = np.stack([random_unitary(d, rng) for _ in range(5)] + [u[:, ::-1]])
        explicit = [
            1 - sum(
                abs(np.vdot(u[:, i], v[:, j])) ** 4 for i in range(d) for j in range(d)
            ) / d
            for v in stack
        ]
        np.testing.assert_allclose(
            quantumness._distance(u, stack), explicit, rtol=0, atol=1e-14
        )
        assert abs(quantumness._distance(u, stack)[-1]) <= 1e-14


def _discord_at(rho, columns):
    """Mutual-information loss for A measured with the columns, in plain numpy."""
    d_a, d_b = rho.dims
    t = rho.matrix.reshape(d_a, d_b, d_a, d_b)
    blocks = np.einsum("ai,ajbk,bi->ijk", columns.conj(), t, columns)
    p = np.einsum("ijj->i", blocks).real
    rho_a = np.einsum("ajbj->ab", t)
    return (
        _deficit_at(rho, columns)
        - _bits(p)
        + _bits(np.linalg.eigvalsh(rho_a))
    )


@PROPERTY
@given(dims=DIMS, seed=SEEDS)
def test_fixed_forms_match_plain_numpy(dims, seed):
    # the fixed forms are the batched objectives at R = 1
    rho, rng = _state_and_rng(dims, seed)
    u = random_unitary(dims[0], rng)
    m = rf.ProjectiveMeasurement(dims[0], u)
    assert abs(rf.deficit_one_way_fixed(rho, m) - _deficit_at(rho, u)) <= 1e-12
    assert abs(rf.discord_fixed(rho, m) - _discord_at(rho, u)) <= 1e-12
