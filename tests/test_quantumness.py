import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resourceforge as rf
from resourceforge import quantumness
from helpers import (
    TWO_COPY_PAIR,
    ZERO_WAY_PAIR,
    apply_local,
    bell,
    cc_state,
    cq_state,
    maximally_correlated,
    random_bipartite,
    random_measurement,
    random_unitary,
    schmidt_state,
    werner,
)

# small but reliable search budget for unit tests; acceptance runs defaults
FAST = rf.OptimizerConfig(restarts=6, grid_points=5, max_iterations=400, seed=11)

H_QUARTER = 0.8112781244591328


class TestFixedMeasurementQuantities:
    def test_bell_computational_deficit(self):
        m = rf.measurement_from_params(np.zeros(2), 2)
        assert rf.deficit_one_way_fixed(bell(), m) == pytest.approx(1.0, abs=1e-12)

    def test_bell_computational_discord(self):
        m = rf.measurement_from_params(np.zeros(2), 2)
        assert rf.discord_fixed(bell(), m) == pytest.approx(1.0, abs=1e-12)

    def test_cq_state_in_classical_basis(self):
        rng = np.random.default_rng(3)
        rho = cq_state(rng)
        _, vecs = np.linalg.eigh(rf.partial_trace(rho, [0]).matrix)
        m = rf.ProjectiveMeasurement(2, vecs)
        assert abs(rf.deficit_one_way_fixed(rho, m)) <= 1e-9
        assert abs(rf.discord_fixed(rho, m)) <= 1e-9

    def test_non_finite_basis_rejected(self):
        # [[nan, 0], [0, 1]] once passed the orthonormality test and gave a
        # deficit of one half for a Bell state
        basis = np.array([[np.nan, 0], [0, 1]])
        with pytest.raises(ValueError):
            rf.deficit_one_way_fixed(bell(), rf.ProjectiveMeasurement(2, basis))

    def test_maximally_mixed_any_basis(self):
        rng = np.random.default_rng(4)
        rho = rf.maximally_mixed((2, 2))
        m = random_measurement(2, rng)
        assert abs(rf.deficit_one_way_fixed(rho, m)) <= 1e-12

    def test_matches_state_level_composition(self):
        # the fast spectral route must equal measure_local plus vn_entropy
        rng = np.random.default_rng(5)
        for seed in range(20):
            rho = random_bipartite(seed)
            m = random_measurement(2, rng)
            direct = rf.vn_entropy(rf.measure_local(rho, m, 0)) - rf.vn_entropy(rho)
            assert rf.deficit_one_way_fixed(rho, m) == pytest.approx(
                direct, abs=1e-12
            )

    def test_decomposition_identity(self):
        rng = np.random.default_rng(6)
        for seed in range(50):
            rho = random_bipartite(seed)
            m = random_measurement(2, rng)
            measured = rf.measure_local(rho, m, 0)
            production = rf.vn_entropy(
                rf.partial_trace(measured, [0])
            ) - rf.vn_entropy(rf.partial_trace(rho, [0]))
            identity = (
                rf.discord_fixed(rho, m)
                - rf.deficit_one_way_fixed(rho, m)
                + production
            )
            assert abs(identity) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(rf.DimensionMismatch):
            rf.deficit_one_way_fixed(bell(), rf.measurement_from_params(np.zeros(6), 3))

    def test_requires_bipartite(self):
        m = rf.measurement_from_params(np.zeros(2), 2)
        with pytest.raises(rf.NotBipartite):
            rf.discord_fixed(rf.maximally_mixed((2, 2, 2)), m)


class TestOneWayOptimized:
    def test_bell_deficit(self):
        res = rf.deficit_one_way(bell(), FAST)
        assert res.value == pytest.approx(1.0, abs=1e-3)
        assert res.value == min(v for _, v in res.trace)

    def test_cq_state_vanishes(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            assert rf.deficit_one_way(cq_state(rng), FAST).value <= 1e-6

    def test_schmidt_state(self):
        res = rf.deficit_one_way(schmidt_state(0.75, 0.25), FAST)
        assert res.value == pytest.approx(H_QUARTER, abs=1e-3)
        oracle = rf.grid_min_deficit(schmidt_state(0.75, 0.25), rf.GridSpec(80, 80))
        assert res.value <= oracle + 1e-6

    def test_bell_discord(self):
        assert rf.discord(bell(), FAST).value == pytest.approx(1.0, abs=1e-3)

    def test_cc_state_discord_vanishes(self):
        rng = np.random.default_rng(8)
        assert rf.discord(cc_state(rng), FAST).value <= 1e-6

    def test_werner_matches_grid_oracle(self):
        rho = werner(0.5)
        res = rf.discord(rho, FAST)
        oracle = rf.grid_min_discord(rho, rf.GridSpec(100, 100))
        assert res.value == pytest.approx(oracle, abs=1e-3)

    def test_local_unitary_covariance(self):
        rng = np.random.default_rng(9)
        cfg = rf.OptimizerConfig(restarts=12, grid_points=8, seed=13)
        for seed in (0, 1):
            rho = random_bipartite(seed)
            base = rf.deficit_one_way(rho, cfg).value
            rotated = apply_local(
                rho, random_unitary(2, rng), random_unitary(2, rng)
            )
            assert rf.deficit_one_way(rotated, cfg).value == pytest.approx(
                base, abs=2e-3
            )


class TestZeroWayOptimized:
    def test_bell(self):
        assert rf.deficit_zero_way(bell(), FAST).value == pytest.approx(1.0, abs=1e-3)
        assert rf.discord_zero_way(bell(), FAST).value == pytest.approx(1.0, abs=1e-3)

    def test_cc_state_vanishes(self):
        rng = np.random.default_rng(10)
        rho = cc_state(rng)
        assert rf.deficit_zero_way(rho, FAST).value <= 1e-6
        assert rf.discord_zero_way(rho, FAST).value <= 1e-6

    def test_product_state(self):
        rho = rf.tensor(rf.random_density(2, 2, 1), rf.random_density(2, 2, 2))
        assert rf.deficit_zero_way(rho, FAST).value <= 1e-6

    def test_maximally_mixed_discord(self):
        assert rf.discord_zero_way(rf.maximally_mixed((2, 2)), FAST).value <= 1e-6

    def test_result_carries_measurement_pair(self):
        res = rf.deficit_zero_way(bell(), FAST)
        m_a, m_b = res.argmin_measurement
        assert m_a.dimension == 2 and m_b.dimension == 2

    def test_ordering_chain(self):
        for seed in range(5):
            rho = random_bipartite(seed + 20)
            d = rf.discord(rho, FAST).value
            one = rf.deficit_one_way(rho, FAST).value
            zero = rf.deficit_zero_way(rho, FAST).value
            assert d <= one + 1e-3
            assert one <= zero + 1e-3


_SEARCHES = ("discord", "deficit_one_way", "deficit_zero_way", "discord_zero_way")
_STATES = dict(
    d_a=st.sampled_from([2, 3]),
    rank=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)


class TestSearchProperties:
    """Invariants of the searched quantities on random (2, 2), (3, 2) and
    (2, 3) states of any rank."""

    @settings(max_examples=10, deadline=None)
    @given(**_STATES)
    def test_ordering(self, d_a, rank, seed):
        # each inequality holds pointwise in the bases: dropping S(rho'_A) -
        # S(rho_A) >= 0 from a deficit gives discord, and measuring B as well
        # only adds entropy
        rho = random_bipartite(seed, d_a, 2, min(rank, 2 * d_a))
        v = {name: getattr(rf, name)(rho, FAST).value for name in _SEARCHES}
        assert v["discord"] <= v["deficit_one_way"] + 1e-9
        assert v["deficit_one_way"] <= v["deficit_zero_way"] + 1e-9
        assert v["discord_zero_way"] <= v["deficit_zero_way"] + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(
        dims=st.sampled_from([(2, 2), (3, 2), (2, 3)]),
        rank=st.integers(1, 6),
        dephased=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_non_negative(self, dims, rank, dephased, seed):
        # every optimised quantity, on random states and on states dephased
        # on A, where the minimum is 0; FAST suffices, as a search that
        # misses the global minimum only reads higher.  A value may fall
        # below 0 by rounding alone.
        rho = random_bipartite(seed, *dims, rank=min(rank, dims[0] * dims[1]))
        if dephased:
            z_basis = rf.ProjectiveMeasurement(dims[0], np.eye(dims[0]))
            rho = rf.measure_local(rho, z_basis, 0)
        for name, search in _OPTIMISED.items():
            result = search(rho, FAST)
            assert getattr(result, "value", result) >= -1e-12, name

    @settings(max_examples=10, deadline=None)
    @given(**_STATES)
    def test_local_unitary_invariance(self, d_a, rank, seed):
        # at the default config: FAST's 6 starts can all miss the global
        # basin of a 3-level side, and then the two frames disagree by 1e-3
        cfg = rf.OptimizerConfig()
        rho = random_bipartite(seed, d_a, 2, min(rank, 2 * d_a))
        rng = np.random.default_rng(seed)
        rotated = apply_local(rho, random_unitary(d_a, rng), random_unitary(2, rng))
        for name in _SEARCHES:
            search = getattr(rf, name)
            assert search(rotated, cfg).value == pytest.approx(
                search(rho, cfg).value, abs=1e-8
            ), name


class TestRelativeEntropyRoutes:
    def test_bell(self):
        assert rf.relent_to_cq(bell(), FAST).value == pytest.approx(1.0, abs=1e-3)
        assert rf.relent_to_cc(bell(), FAST).value == pytest.approx(1.0, abs=1e-3)

    def test_cq_state_distance_vanishes(self):
        rng = np.random.default_rng(12)
        assert rf.relent_to_cq(cq_state(rng), FAST).value <= 1e-6

    def test_mixed_state_distance_vanishes(self):
        assert rf.relent_to_cq(rf.maximally_mixed((2, 2)), FAST).value <= 1e-6

    def test_product_pure_is_cc(self):
        rho = rf.tensor(rf.pure_state([1, 1], (2,)), rf.pure_state([1, 0], (2,)))
        assert rf.relent_to_cc(rho, FAST).value <= 1e-6

    def test_cross_path_agreement(self):
        for seed in range(5):
            rho = random_bipartite(seed + 40)
            a = rf.deficit_one_way(rho, FAST).value
            b = rf.relent_to_cq(rho, FAST).value
            assert abs(a - b) <= 1e-6

    def test_cc_route_agrees_with_zero_way(self):
        for seed in range(3):
            rho = random_bipartite(seed + 60)
            a = rf.deficit_zero_way(rho, FAST).value
            b = rf.relent_to_cc(rho, FAST).value
            assert abs(a - b) <= 1e-6


_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_BELL_BASIS = np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]
) / np.sqrt(2)


def _xlog2x(x):
    return x * np.log2(x) if x > 0 else 0.0


def _bell_diagonal_case(seed):
    """Bell-diagonal state in a random local frame, and its correlations c_i."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(4))
    m = sum(w * np.outer(v, v) for w, v in zip(weights, _BELL_BASIS))
    c = [np.trace(m @ np.kron(s, s)).real for s in _PAULIS]
    rho = apply_local(
        rf.DensityMatrix(m, (2, 2)), random_unitary(2, rng), random_unitary(2, rng)
    )
    return rho, c


def _luo_discord(c):
    # Luo, PRA 77, 042303 (2008): I - C with C from the largest |c_i|
    c1, c2, c3 = c
    mutual = sum(
        _xlog2x(x) for x in (
            1 - c1 - c2 - c3, 1 - c1 + c2 + c3, 1 + c1 - c2 + c3, 1 + c1 + c2 - c3
        )
    ) / 4
    cmax = max(abs(x) for x in c)
    classical = (_xlog2x(1 - cmax) + _xlog2x(1 + cmax)) / 2
    return mutual - classical


def _bell_diagonal_deficit(rho, c):
    # 1 + h((1 + c) / 2) - S(rho), c = max |c_i|
    p = (1 + max(abs(x) for x in c)) / 2
    return 1 - _xlog2x(p) - _xlog2x(1 - p) - rf.vn_entropy(rho)


class TestBellDiagonalClosedForms:
    @pytest.mark.parametrize("seed", range(3))
    def test_discord_matches_luo(self, seed):
        rho, c = _bell_diagonal_case(seed)
        assert rf.discord(rho, FAST).value == pytest.approx(_luo_discord(c), abs=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_deficit_and_relent_match_closed_form(self, seed):
        rho, c = _bell_diagonal_case(seed)
        expected = _bell_diagonal_deficit(rho, c)
        assert rf.deficit_one_way(rho, FAST).value == pytest.approx(expected, abs=1e-6)
        assert rf.relent_to_cq(rho, FAST).value == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_way_forms_match_closed_forms(self, seed):
        # measuring B as well costs nothing more: the optimal A basis leaves
        # B's conditional states diagonal in one common basis
        rho, c = _bell_diagonal_case(seed)
        expected = _bell_diagonal_deficit(rho, c)
        assert rf.deficit_zero_way(rho, FAST).value == pytest.approx(expected, abs=1e-6)
        assert rf.relent_to_cc(rho, FAST).value == pytest.approx(expected, abs=1e-6)
        assert rf.discord_zero_way(rho, FAST).value == pytest.approx(
            _luo_discord(c), abs=1e-6
        )


def _maximally_correlated_case(d, seed, uniform=False):
    """sum_ij a_ij |ii><jj| in a random local frame, and H(diag a) - S(rho).

    Measuring both sides in the frame's basis leaves diag a, which meets the
    entropic bound S(A) - S(AB) = H(diag a) - S(rho): so this is the value
    of the one-way and zero-way deficits and of both relative entropies.
    With ``uniform`` the diagonal of a is flat, the marginals are maximally
    mixed, and their eigenbases say nothing: only the search finds the basis.
    """
    rng = np.random.default_rng(seed)
    if uniform:
        phi = np.exp(2j * np.pi * rng.random(d)) / np.sqrt(d)
        p = rng.uniform(0.3, 0.9)
        a = (1 - p) * np.eye(d) / d + p * np.outer(phi, phi.conj())
    else:
        a = rf.random_density(d, d, seed).matrix
    rho = apply_local(
        maximally_correlated(a), random_unitary(d, rng), random_unitary(d, rng)
    )
    return rho, -sum(_xlog2x(x) for x in np.diag(a).real) - rf.vn_entropy(rho)


_DEFICIT_FORMS = ("deficit_one_way", "deficit_zero_way", "relent_to_cq", "relent_to_cc")


class TestMaximallyCorrelatedClosedForms:
    @pytest.mark.parametrize("d, seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
    def test_deficit_forms(self, d, seed):
        rho, expected = _maximally_correlated_case(d, seed)
        for name in _DEFICIT_FORMS:
            value = getattr(rf, name)(rho, FAST).value
            assert value == pytest.approx(expected, abs=1e-6), name

    @pytest.mark.parametrize("seed", [4, 5])
    def test_uniform_diagonal(self, seed):
        rho, expected = _maximally_correlated_case(3, seed, uniform=True)
        for cfg in (FAST, rf.OptimizerConfig(seed=seed)):
            for name in _DEFICIT_FORMS:
                value = getattr(rf, name)(rho, cfg).value
                assert value == pytest.approx(expected, abs=1e-6), name
            # the one-way search met the bound after the descent, with no
            # final entry
            assert len(rf.deficit_one_way(rho, cfg).trace) <= cfg.restarts


class TestBasinDiverseStarts:
    """Lattice starts spread over the basins: on these states the lowest
    lattice points all lie in one basin that is not the global one."""

    def test_one_way_finds_the_lower_basin(self):
        rho = rf.DensityMatrix(TWO_COPY_PAIR, (2, 2))
        res = rf.deficit_one_way(rho, rf.OptimizerConfig(restarts=8))
        assert res.value <= 0.28581377 + 1e-6

    def test_zero_way_finds_the_lower_basin(self):
        rho = rf.DensityMatrix(ZERO_WAY_PAIR, (2, 2))
        res = rf.deficit_zero_way(rho, rf.OptimizerConfig(restarts=8))
        assert res.value <= 0.21122430 + 1e-6

    def test_starts_keep_their_distance(self):
        # no two lattice starts measure nearly the same projectors
        rho = random_bipartite(2)
        objective = quantumness._one_way_objective(rho, discord=False)
        cfg = rf.OptimizerConfig(restarts=8)
        lattice = quantumness._lattice([2], cfg)
        order = np.argsort(objective(*lattice), kind="stable")
        picks = quantumness._diverse_picks(lattice, order, [], 8)
        chosen = lattice[0][picks]
        for k, u in enumerate(chosen):
            others = np.delete(chosen, k, axis=0)
            assert quantumness._distance(u, others).min() >= quantumness._START_DISTANCE
        assert picks[0] == order[0]


class TestGeneralizedDeficit:
    def test_extra_dim_zero_matches_one_way(self):
        for seed in range(3):
            rho = random_bipartite(seed + 80)
            base = rf.deficit_one_way(rho, FAST).value
            gen = rf.generalized_deficit(rho, 0, FAST).value
            assert abs(gen - base) <= 1e-6

    def test_cq_state_vanishes(self):
        rng = np.random.default_rng(14)
        rho = cq_state(rng)
        for extra in (0, 1):
            assert rf.generalized_deficit(rho, extra, FAST).value <= 1e-6

    def test_bell_extra_dim_one(self):
        res = rf.generalized_deficit(bell(), 1, FAST)
        assert res.value == pytest.approx(1.0, abs=1e-2)
        assert res.argmin_isometry.shape == (3, 2)

    def test_never_exceeds_one_way(self):
        for seed in range(3):
            rho = random_bipartite(seed + 100)
            base = rf.deficit_one_way(rho, FAST).value
            assert rf.generalized_deficit(rho, 1, FAST).value <= base + 1e-6

    def test_value_is_the_deficit_at_its_argmin(self):
        # the optimum puts ~1e-12 of weight on the padded level; an entropy
        # that dropped such weight would read 5.1e-11 below this deficit
        rho = rf.DensityMatrix(rf.random_density(4, 4, 101).matrix, (2, 2))
        res = rf.generalized_deficit(rho, 1, rf.OptimizerConfig())
        padded = rf.embed(rho, res.argmin_isometry, 0)
        measured = rf.measure_local(padded, res.argmin_measurement, 0)
        w = np.linalg.eigvalsh(measured.matrix)
        w = w[w > 0]
        recomputed = float(-(w * np.log2(w)).sum()) - rf.vn_entropy(rho)
        assert res.value == pytest.approx(recomputed, abs=1e-14)

    def test_padded_dimension_over_cap_raises(self):
        with pytest.raises(rf.DimensionTooLarge, match="embedded dimension 404"):
            rf.generalized_deficit(rf.maximally_mixed((2, 2)), 200, rf.OptimizerConfig())


class TestMulticopy:
    def test_single_copy_matches(self):
        rho = random_bipartite(7)
        assert rf.multicopy_deficit(rho, 1, FAST) == pytest.approx(
            rf.deficit_one_way(rho, FAST).value, abs=1e-12
        )

    def test_cq_state_two_copies(self):
        rng = np.random.default_rng(15)
        assert rf.multicopy_deficit(cq_state(rng), 2, FAST) <= 1e-6

    def test_bell_two_copies(self):
        assert rf.multicopy_deficit(bell(), 2, FAST) <= 1.0 + 1e-3

    def test_subadditive_per_copy(self):
        for seed in range(3):
            rho = random_bipartite(seed + 120)
            single = rf.deficit_one_way(rho, FAST).value
            assert rf.multicopy_deficit(rho, 2, FAST) <= single + 1e-3

    def test_copy_count_validation(self):
        with pytest.raises(ValueError):
            rf.multicopy_deficit(bell(), 3, FAST)

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setenv(rf.MAX_DIM_ENV_VAR, "8")
        with pytest.raises(rf.DimensionTooLarge):
            rf.multicopy_deficit(bell(), 2, FAST)


class TestSearchAngleBound:
    @pytest.mark.parametrize(
        "search, dims",
        [(rf.deficit_one_way, (17, 2)), (rf.deficit_zero_way, (2, 17))],
    )
    def test_measured_side_over_cap_raises(self, search, dims):
        # 17 levels have 17 * 16 = 272 chart angles, over the cap of 256
        with pytest.raises(rf.DimensionTooLarge, match="search angles 272"):
            search(rf.maximally_mixed(dims), FAST)

    def test_generalized_deficit_padding(self):
        with pytest.raises(rf.DimensionTooLarge, match="search angles 272"):
            rf.generalized_deficit(rf.maximally_mixed((2, 2)), 15, FAST)

    def test_multicopy_joined_side(self):
        with pytest.raises(rf.DimensionTooLarge, match="search angles 600"):
            rf.multicopy_deficit(rf.maximally_mixed((5, 2)), 2, FAST)

    def test_env_var_raises_the_bound(self, monkeypatch):
        monkeypatch.setenv(rf.MAX_DIM_ENV_VAR, "272")
        cfg = rf.OptimizerConfig(restarts=1, grid_points=1, max_iterations=1)
        assert rf.deficit_one_way(rf.maximally_mixed((17, 1)), cfg).value >= 0


class TestOneLevelSide:
    """A one-level side has no chart angles: its only basis is the identity."""

    @pytest.mark.parametrize(
        "search", [rf.deficit_one_way, rf.discord, rf.relent_to_cq]
    )
    def test_one_way_forms_vanish_at_the_identity(self, search):
        res = search(rf.maximally_mixed((1, 2)), FAST)
        assert res.value == 0.0
        assert res.trace == [(0, 0.0)]
        assert np.array_equal(res.argmin_measurement.basis, np.eye(1))

    @pytest.mark.parametrize(
        "search", [rf.deficit_zero_way, rf.discord_zero_way, rf.relent_to_cc]
    )
    def test_zero_way_forms_search_b_alone(self, search):
        # classical in B's eigenbasis, which the search finds from its seeds
        rho = rf.DensityMatrix(rf.random_density(2, 2, 3).matrix, (1, 2))
        res = search(rho, FAST)
        assert abs(res.value) <= 1e-12
        m_a, m_b = res.argmin_measurement
        assert np.array_equal(m_a.basis, np.eye(1)) and m_b.dimension == 2

    @pytest.mark.parametrize("name", _SEARCHES)
    def test_both_sides_one_level(self, name):
        res = getattr(rf, name)(rf.maximally_mixed((1, 1)), FAST)
        assert res.value == 0.0
        assert res.trace == [(0, 0.0)]

    def test_lifted_forms(self):
        rho = rf.maximally_mixed((1, 2))
        assert abs(rf.generalized_deficit(rho, 1, FAST).value) <= 1e-12
        assert rf.multicopy_deficit(rho, 2, FAST) == 0.0


class TestOptimizerConfig:
    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            rf.OptimizerConfig(restarts=0)
        with pytest.raises(ValueError):
            rf.OptimizerConfig(tolerance=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("seed", -1), ("tolerance", float("inf")), ("tolerance", float("nan"))],
    )
    def test_refused_with_the_field_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            rf.OptimizerConfig(**{field: value})

    def test_determinism(self):
        rho = random_bipartite(33)
        a = rf.deficit_one_way(rho, FAST)
        b = rf.deficit_one_way(rho, FAST)
        assert a.value == b.value
        assert a.trace == b.trace
        assert np.array_equal(
            a.argmin_measurement.basis, b.argmin_measurement.basis
        )

    def test_nonnegative_values(self):
        for seed in range(5):
            rho = random_bipartite(seed + 140)
            assert rf.deficit_one_way(rho, FAST).value >= -1e-9
            assert rf.discord(rho, FAST).value >= -1e-9


def _entropies(rho):
    return tuple(
        rf.vn_entropy(x)
        for x in (rho, rf.partial_trace(rho, [0]), rf.partial_trace(rho, [1]))
    )


def _bound(rho, name):
    """The entropic lower bound of each optimised quantity, per copy."""
    s_ab, s_a, s_b = _entropies(rho)
    if name == "discord":
        return max(0.0, s_a - s_ab)
    return max(0.0, s_a - s_ab, s_b - s_ab)


_OPTIMISED = {
    "deficit_one_way": rf.deficit_one_way,
    "discord": rf.discord,
    "deficit_zero_way": rf.deficit_zero_way,
    "discord_zero_way": rf.discord_zero_way,
    "relent_to_cq": rf.relent_to_cq,
    "relent_to_cc": rf.relent_to_cc,
    "generalized_deficit": lambda rho, cfg: rf.generalized_deficit(rho, 1, cfg),
    "multicopy_deficit": lambda rho, cfg: rf.multicopy_deficit(rho, 2, cfg),
}

_OBJECTIVES = {
    "deficit_one_way": lambda rho: quantumness._one_way_objective(rho, discord=False),
    "discord": lambda rho: quantumness._one_way_objective(rho, discord=True),
    "deficit_zero_way": lambda rho: quantumness._two_way_objective(rho, discord=False),
    "discord_zero_way": lambda rho: quantumness._two_way_objective(rho, discord=True),
}


class TestEntropicStop:
    """A search stops once it is within 1e-12 bits of its entropic bound."""

    @pytest.mark.parametrize("name", _OPTIMISED)
    @settings(max_examples=3, deadline=None)
    @given(
        d_a=st.sampled_from([2, 3]),
        rank=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_never_below_the_bound(self, name, d_a, rank, seed):
        rho = random_bipartite(seed, d_a, 2, min(rank, 2 * d_a))
        result = _OPTIMISED[name](rho, FAST)
        value = getattr(result, "value", result)
        assert value >= _bound(rho, name) - 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_multistart_alone_reaches_free_states(self, seed):
        # the structured starts already meet the bound on free states, so
        # check the lattice and the descent without them
        rng = np.random.default_rng(seed)
        cfg = rf.OptimizerConfig(seed=seed)
        for rho, name in ((cq_state(rng), "deficit_one_way"), (cc_state(rng), "deficit_zero_way")):
            objective = _OBJECTIVES[name](rho)
            dims = [2] * (1 if name == "deficit_one_way" else 2)
            bound = quantumness._entropic_bound(rho)
            res = quantumness._multistart(objective, dims, cfg, (), bound)
            assert res.value <= 1e-6
            assert res.value == min(v for _, v in res.trace)

    def test_pure_state_stops_at_its_first_seed(self):
        rho = random_bipartite(5, 3, 3, rank=1)
        res = rf.deficit_one_way(rho, FAST)
        assert res.value == pytest.approx(_entropies(rho)[1], abs=1e-12)
        assert res.trace == [(0, res.value)]

    @pytest.mark.parametrize(
        "kind, names",
        [
            ("cq", ("deficit_one_way", "discord")),
            ("cc", tuple(_OBJECTIVES)),
            ("pure", tuple(_OBJECTIVES)),
            ("bell", tuple(_OBJECTIVES)),
        ],
    )
    def test_stopped_search(self, kind, names):
        rng = np.random.default_rng(3)
        rho = {
            "cq": lambda: cq_state(rng, 3, 2),
            "cc": lambda: cc_state(rng),
            "pure": lambda: random_bipartite(6, 2, 3, rank=1),
            "bell": lambda: apply_local(
                bell(), random_unitary(2, rng), random_unitary(2, rng)
            ),
        }[kind]()
        for name in names:
            res = _OPTIMISED[name](rho, FAST)
            assert len(res.trace) <= FAST.restarts, name    # no polish entry
            assert res.value <= _bound(rho, name) + 1e-12, name
            assert res.value == min(v for _, v in res.trace), name
            measured = res.argmin_measurement
            if not isinstance(measured, tuple):
                measured = (measured,)
            at_argmin = _OBJECTIVES[name](rho)(*(m.basis[None] for m in measured))
            assert at_argmin[0] == res.value, name

    def test_unreached_bound_changes_nothing(self):
        rho = random_bipartite(3)
        objective = quantumness._one_way_objective(rho, discord=False)
        args = (objective, [2], FAST, [(np.eye(2),)])
        plain = quantumness._multistart(*args)
        bound = quantumness._entropic_bound(rho)
        bounded = quantumness._multistart(*args, bound)
        assert bounded.value > bound + 1e-12
        assert plain.value == bounded.value and plain.trace == bounded.trace
        assert (
            plain.argmin_measurement.basis.tobytes()
            == bounded.argmin_measurement.basis.tobytes()
        )
