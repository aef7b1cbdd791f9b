import numpy as np
import pytest

import resourceforge as rf
from helpers import bell, cq_state, random_measurement, random_unitary


class TestChart:
    def test_zero_params_is_computational_basis(self):
        m = rf.measurement_from_params(np.zeros(2), 2)
        np.testing.assert_allclose(m.basis, np.eye(2), atol=1e-14)

    def test_quarter_rotation_gives_plus_minus(self):
        m = rf.measurement_from_params([np.pi / 4, 0.0], 2)
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        projs = m.projectors()
        np.testing.assert_allclose(projs[0], np.outer(plus, plus), atol=1e-12)
        np.testing.assert_allclose(projs[1], np.outer(minus, minus), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_params_give_unitary_basis(self, d):
        rng = np.random.default_rng(d)
        for _ in range(100):
            p = rng.uniform(0, 2 * np.pi, rf.param_count(d))
            u = rf.unitary_from_params(p, d)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_param_ranges_shape(self, d):
        assert rf.param_ranges(d).shape == (rf.param_count(d), 2)

    def test_param_count_mismatch(self):
        with pytest.raises(rf.ParamCountMismatch):
            rf.measurement_from_params(np.zeros(4), 2)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_roundtrip_covers_measurements(self, d):
        # the chart has no column phases: each rebuilt column matches u's
        # up to its own phase, so both bases give the same projectors
        rng = np.random.default_rng(17 + d)
        for _ in range(30):
            u = random_unitary(d, rng)
            rebuilt = rf.unitary_from_params(rf.params_from_unitary(u), d)
            overlaps = np.einsum("ai,ai->i", rebuilt.conj(), u)
            phases = overlaps / np.abs(overlaps)
            assert np.max(np.abs(rebuilt * phases - u)) < 1e-9

    def test_measurement_requires_orthonormal_columns(self):
        with pytest.raises(rf.NotUnitary):
            rf.ProjectiveMeasurement(2, np.ones((2, 2)))


class TestMeasureLocal:
    def test_maximally_mixed_fixed_point(self):
        rng = np.random.default_rng(0)
        rho = rf.maximally_mixed((2, 2))
        out = rf.measure_local(rho, random_measurement(2, rng), 0)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_bell_computational(self):
        out = rf.measure_local(bell(), rf.measurement_from_params(np.zeros(2), 2), 0)
        np.testing.assert_allclose(
            out.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12
        )

    def test_cq_state_unchanged_in_classical_basis(self):
        rng = np.random.default_rng(5)
        rho = cq_state(rng)
        marginal = rf.partial_trace(rho, [0]).matrix
        _, vecs = np.linalg.eigh(marginal)
        m = rf.ProjectiveMeasurement(2, vecs)
        out = rf.measure_local(rho, m, 0)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-10)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            rho = rf.DensityMatrix(rf.random_density(4, 4, seed).matrix, (2, 2))
            m = random_measurement(2, rng)
            once = rf.measure_local(rho, m, 0)
            twice = rf.measure_local(once, m, 0)
            np.testing.assert_allclose(twice.matrix, once.matrix, atol=1e-12)

    def test_entropy_never_decreases(self):
        rng = np.random.default_rng(2)
        for seed in range(20):
            rho = rf.DensityMatrix(rf.random_density(4, 4, seed).matrix, (2, 2))
            m = random_measurement(2, rng)
            out = rf.measure_local(rho, m, 0)
            assert rf.vn_entropy(out) >= rf.vn_entropy(rho) - 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(rf.DimensionMismatch):
            rf.measure_local(bell(), rf.measurement_from_params(np.zeros(6), 3), 0)

    def test_measure_on_b_side(self):
        out = rf.measure_local(bell(), rf.measurement_from_params(np.zeros(2), 2), 1)
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)


class TestMeasureBoth:
    def test_product_of_measured_basis_states_unchanged(self):
        rho = rf.tensor(rf.pure_state([1, 0], (2,)), rf.pure_state([0, 1], (2,)))
        m = rf.measurement_from_params(np.zeros(2), 2)
        out = rf.measure_both(rho, m, m)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_bell_computational(self):
        m = rf.measurement_from_params(np.zeros(2), 2)
        out = rf.measure_both(bell(), m, m)
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)

    def test_order_independence(self):
        rng = np.random.default_rng(6)
        for seed in range(20):
            rho = rf.DensityMatrix(rf.random_density(4, 4, seed).matrix, (2, 2))
            ma, mb = random_measurement(2, rng), random_measurement(2, rng)
            ab = rf.measure_local(rf.measure_local(rho, ma, 0), mb, 1)
            ba = rf.measure_local(rf.measure_local(rho, mb, 1), ma, 0)
            np.testing.assert_allclose(ab.matrix, ba.matrix, atol=1e-12)

    def test_not_bipartite(self):
        m = rf.measurement_from_params(np.zeros(2), 2)
        with pytest.raises(rf.NotBipartite):
            rf.measure_both(rf.maximally_mixed((2, 2, 2)), m, m)


class TestDephasingChannel:
    def test_plus_state_decoheres(self):
        out = rf.dephasing_channel(rf.pure_state([1, 1], (2,)), 0)
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_diagonal_state_unchanged(self):
        rho = rf.validate(np.diag([0.3, 0.7]).astype(complex), [2])
        out = rf.dephasing_channel(rho, 0)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_bell_either_qubit(self):
        expected = np.diag([0.5, 0, 0, 0.5])
        for q in (0, 1):
            out = rf.dephasing_channel(bell(), q)
            np.testing.assert_allclose(out.matrix, expected, atol=1e-12)

    def test_matches_computational_measurement(self):
        m = rf.measurement_from_params(np.zeros(2), 2)
        for seed in range(20):
            rho = rf.DensityMatrix(rf.random_density(4, 4, seed).matrix, (2, 2))
            np.testing.assert_allclose(
                rf.dephasing_channel(rho, 0).matrix,
                rf.measure_local(rho, m, 0).matrix,
                atol=1e-12,
            )

    def test_not_a_qubit(self):
        with pytest.raises(rf.NotAQubit):
            rf.dephasing_channel(rf.maximally_mixed((3,)), 0)
