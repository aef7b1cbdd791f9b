"""Site-local contractions and the relative-entropy certifiers, checked
against Kronecker-built references and closed forms over random states,
and the two gauge identities the measurement search relies on."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import resourceforge as rf
from resourceforge.oracles import relent_to_dephased, relent_to_doubly_dephased
from resourceforge.quantumness import (
    _deficit_objective,
    _discord_objective,
    _zero_way_deficit_objective,
    _zero_way_discord_objective,
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
    for one_sided in (_deficit_objective, _discord_objective):
        objective = one_sided(rho)
        assert abs(objective(v_a) - objective(u_a)) <= 1e-12
    for two_sided in (_zero_way_deficit_objective, _zero_way_discord_objective):
        objective = two_sided(rho)
        assert abs(objective(v_a, v_b) - objective(u_a, u_b)) <= 1e-12


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
