import math

import numpy as np
import pytest

import resourceforge as rf
from helpers import apply_local, bell, random_bipartite, random_unitary

# binary entropy H(1/4), frozen from -(3/4 log2 3/4 + 1/4 log2 1/4)
H_QUARTER = 0.8112781244591328


def diag_state(*probs):
    return rf.validate(np.diag(probs).astype(complex), [len(probs)])


class TestShannonBits:
    def test_tiny_outcome_counts(self):
        # -p log2 p of the 1e-13 outcome is 4.3e-12 bits, 30x the other term
        p = 1e-13
        expected = -(1 - p) * math.log2(1 - p) - p * math.log2(p)
        assert rf.shannon_bits([1 - p, p]) == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(4.4628e-12, rel=1e-4)

    def test_non_positive_entries_dropped(self):
        assert rf.shannon_bits([0.5, 0.5, 0.0, -1e-17]) == 1.0


class TestVnEntropy:
    def test_pure_state(self):
        assert rf.vn_entropy(rf.pure_state([1, 1], (2,))) <= 1e-12

    def test_maximally_mixed(self):
        assert rf.vn_entropy(rf.maximally_mixed((2,))) == pytest.approx(1.0, abs=1e-12)

    def test_binary_mixture(self):
        assert rf.vn_entropy(diag_state(0.75, 0.25)) == pytest.approx(
            H_QUARTER, abs=1e-12
        )

    def test_additivity(self):
        for seed in range(10):
            a = rf.random_density(3, 3, seed)
            b = rf.random_density(2, 2, seed + 30)
            assert rf.vn_entropy(rf.tensor(a, b)) == pytest.approx(
                rf.vn_entropy(a) + rf.vn_entropy(b), abs=1e-9
            )


class TestRelativeEntropy:
    def test_self_distance_zero(self):
        for seed in range(10):
            rho = rf.random_density(4, 4, seed)
            assert rf.relative_entropy(rho, rho) <= 1e-10

    def test_pure_vs_mixed(self):
        value = rf.relative_entropy(
            rf.pure_state([1, 0], (2,)), rf.maximally_mixed((2,))
        )
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_support(self):
        zero = rf.pure_state([1, 0], (2,))
        one = rf.pure_state([0, 1], (2,))
        assert rf.relative_entropy(zero, one) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(rf.DimensionMismatch):
            rf.relative_entropy(rf.maximally_mixed((2,)), rf.maximally_mixed((3,)))

    def test_nonnegative_and_faithful(self):
        for seed in range(20):
            rho = rf.random_density(3, 3, seed)
            sigma = rf.random_density(3, 3, seed + 1000)
            value = rf.relative_entropy(rho, sigma)
            assert value >= 0
            if np.max(np.abs(rho.matrix - sigma.matrix)) > 1e-6:
                assert value > 1e-9


class TestMutualInformation:
    def test_product_state(self):
        joint = rf.tensor(rf.random_density(2, 2, 1), rf.random_density(2, 2, 2))
        assert rf.mutual_information(joint) <= 1e-9

    def test_bell(self):
        assert rf.mutual_information(bell()) == pytest.approx(2.0, abs=1e-9)

    def test_classically_correlated(self):
        rho = rf.validate(np.diag([0.5, 0, 0, 0.5]).astype(complex), [2, 2])
        assert rf.mutual_information(rho) == pytest.approx(1.0, abs=1e-12)

    def test_bound_and_local_unitary_invariance(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            rho = random_bipartite(seed)
            mi = rf.mutual_information(rho)
            assert 0 <= mi <= 2.0 + 1e-9
            rotated = apply_local(rho, random_unitary(2, rng), random_unitary(2, rng))
            assert rf.mutual_information(rotated) == pytest.approx(mi, abs=1e-9)

    def test_not_bipartite(self):
        with pytest.raises(rf.NotBipartite):
            rf.mutual_information(rf.maximally_mixed((2, 2, 2)))


class TestNegentropy:
    def test_maximally_mixed(self):
        assert rf.negentropy(rf.maximally_mixed((4,))) <= 1e-12

    def test_pure_qudit(self):
        psi = rf.pure_state(np.ones(8), (8,))
        assert rf.negentropy(psi) == pytest.approx(3.0, abs=1e-9)

    def test_binary_mixture(self):
        assert rf.negentropy(diag_state(0.75, 0.25)) == pytest.approx(
            1 - H_QUARTER, abs=1e-12
        )

    def test_matches_relative_entropy_to_mixed(self):
        for d in (2, 3, 4, 8):
            for seed in range(25):
                rho = rf.random_density(d, d, seed)
                assert rf.negentropy(rho) == pytest.approx(
                    rf.relative_entropy(rho, rf.maximally_mixed((d,))), abs=1e-9
                )


class TestGibbs:
    def test_beta_zero(self):
        h = rf.Hamiltonian(np.diag([0.0, 1.0, 2.0]), 0.0)
        np.testing.assert_allclose(rf.gibbs_state(h).matrix, np.eye(3) / 3, atol=1e-12)

    def test_zero_hamiltonian(self):
        h = rf.Hamiltonian(np.zeros((4, 4)), 2.5)
        np.testing.assert_allclose(rf.gibbs_state(h).matrix, np.eye(4) / 4, atol=1e-12)

    def test_qubit_ln2(self):
        h = rf.Hamiltonian(np.diag([0.0, 1.0]), math.log(2))
        np.testing.assert_allclose(
            rf.gibbs_state(h).matrix, np.diag([2 / 3, 1 / 3]), atol=1e-12
        )

    def test_commutes_with_hamiltonian(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = rf.Hamiltonian((m + m.conj().T) / 2, 0.7)
        g = rf.gibbs_state(h)
        comm = g.matrix @ h.matrix - h.matrix @ g.matrix
        assert np.max(np.abs(comm)) < 1e-9

    def test_invalid_hamiltonian(self):
        with pytest.raises(rf.NotHermitian):
            rf.Hamiltonian(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)
        with pytest.raises(ValueError):
            rf.Hamiltonian(np.eye(2), -1.0)


class TestFreeEnergyGap:
    def test_gibbs_has_zero_gap(self):
        h = rf.Hamiltonian(np.diag([0.0, 0.3, 1.1]), 1.2)
        assert rf.free_energy_gap(rf.gibbs_state(h), h) <= 1e-10

    def test_zero_hamiltonian_reduces_to_negentropy(self):
        h = rf.Hamiltonian(np.zeros((4, 4)), 1.0)
        for seed in range(10):
            rho = rf.random_density(4, 4, seed)
            assert rf.free_energy_gap(rho, h) == pytest.approx(
                rf.negentropy(rho), abs=1e-9
            )

    def test_worked_qubit_example(self):
        # S(diag(1,0) || diag(2/3,1/3)) = log2(3/2)
        h = rf.Hamiltonian(np.diag([0.0, 1.0]), math.log(2))
        rho = rf.validate(np.diag([1.0, 0.0]).astype(complex), [2])
        assert rf.free_energy_gap(rho, h) == pytest.approx(
            math.log2(1.5), abs=1e-12
        )

    def test_dimension_mismatch(self):
        h = rf.Hamiltonian(np.diag([0.0, 1.0]), 1.0)
        with pytest.raises(rf.DimensionMismatch):
            rf.free_energy_gap(rf.maximally_mixed((3,)), h)
