import numpy as np
import pytest

import resourceforge as rf
from helpers import (
    apply_local,
    bell,
    cc_state,
    cq_state,
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
        m = rf.measurement_from_params(np.zeros(3), 2)
        assert rf.deficit_one_way_fixed(bell(), m) == pytest.approx(1.0, abs=1e-12)

    def test_bell_computational_discord(self):
        m = rf.measurement_from_params(np.zeros(3), 2)
        assert rf.discord_fixed(bell(), m) == pytest.approx(1.0, abs=1e-12)

    def test_cq_state_in_classical_basis(self):
        rng = np.random.default_rng(3)
        rho = cq_state(rng)
        _, vecs = np.linalg.eigh(rf.partial_trace(rho, [0]).matrix)
        m = rf.ProjectiveMeasurement(2, vecs)
        assert abs(rf.deficit_one_way_fixed(rho, m)) <= 1e-9
        assert abs(rf.discord_fixed(rho, m)) <= 1e-9

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
            rf.deficit_one_way_fixed(bell(), rf.measurement_from_params(np.zeros(8), 3))

    def test_requires_bipartite(self):
        m = rf.measurement_from_params(np.zeros(3), 2)
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


class TestOptimizerConfig:
    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            rf.OptimizerConfig(restarts=0)
        with pytest.raises(ValueError):
            rf.OptimizerConfig(tolerance=0.0)

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
