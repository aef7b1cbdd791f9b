import numpy as np
import pytest

import resourceforge as rf
from helpers import bell, random_unitary


Z_BASIS = rf.ProjectiveMeasurement(2, np.eye(2))


@pytest.mark.parametrize(
    "call",
    [
        rf.mutual_information,
        lambda rho: rf.measure_both(rho, Z_BASIS, Z_BASIS),
        lambda rho: rf.discord(rho, rf.OptimizerConfig()),
        lambda rho: rf.grid_min_deficit(rho, rf.GridSpec()),
        rf.bipartite_register,
    ],
)
def test_bipartite_check_is_shared(call):
    message = r"^expected two subsystems, got dims \(2, 2, 2\)$"
    with pytest.raises(rf.NotBipartite, match=message):
        call(rf.maximally_mixed((2, 2, 2)))


def _with(bad, shape=(2, 2)):
    """An identity-like matrix of ``shape`` with one non-finite entry."""
    m = np.eye(*shape, dtype=complex)
    m[0, 0] = bad
    return m


# every constructor that checks a matrix, each through the checks in states
_MATRIX_CHECKS = {
    "ProjectiveMeasurement": lambda bad: rf.ProjectiveMeasurement(2, _with(bad)),
    "LocalUnitary": lambda bad: rf.LocalUnitary("A", _with(bad)),
    "validate_isometry": lambda bad: rf.validate_isometry(_with(bad, (3, 2))),
    "embed": lambda bad: rf.embed(rf.maximally_mixed((2,)), _with(bad, (3, 2)), 0),
    "params_from_unitary": lambda bad: rf.params_from_unitary(_with(bad)),
    "Hamiltonian": lambda bad: rf.Hamiltonian(_with(bad), 1.0),
    "validate": lambda bad: rf.validate(_with(bad), [2]),
    "eig_hermitian": lambda bad: rf.eig_hermitian(_with(bad)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan), -np.inf])
@pytest.mark.parametrize("name", sorted(_MATRIX_CHECKS))
def test_non_finite_matrix_rejected(name, bad):
    # a NaN makes every comparison false, so a tolerance test alone would
    # pass it: each constructor rejects it before testing the matrix
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        _MATRIX_CHECKS[name](bad)


_FAST = rf.OptimizerConfig(restarts=2, grid_points=2, max_iterations=5)

# every library entry point of the integer and finite-number rules, each
# given a value that the rules refuse: a bool or a float where an integer
# is wanted, an integer beyond the float range, NaN or an infinity
_INPUT_RULES = {
    "Hamiltonian.beta": lambda v: rf.Hamiltonian(np.eye(2), v),
    "validate.dims": lambda v: rf.validate(np.eye(4) / 4, [v, 2]),
    "maximally_mixed.dims": lambda v: rf.maximally_mixed((v, 2)),
    "pure_state.dims": lambda v: rf.pure_state([1, 0, 0, 0], (v, 2)),
    "partial_trace.keep": lambda v: rf.partial_trace(rf.maximally_mixed((2, 2)), [v]),
    "permute_subsystems.perm": lambda v: rf.permute_subsystems(rf.maximally_mixed((2, 3)), [v, 0]),
    "ProjectiveMeasurement.dimension": lambda v: rf.ProjectiveMeasurement(v, np.eye(2)),
    "generalized_deficit.extra_dim": lambda v: rf.generalized_deficit(bell(), v, _FAST),
    "multicopy_deficit.n": lambda v: rf.multicopy_deficit(bell(), v, _FAST),
    "GridSpec.theta_points": lambda v: rf.GridSpec(v, 100),
    "GridSpec.phi_points": lambda v: rf.GridSpec(100, v),
    "majorizes.x": lambda v: rf.majorizes([v, 1.0], [0.5, 0.5]),
    "majorizes.both": lambda v: rf.majorizes([v], [v]),
    "conversion_rate.source": lambda v: rf.conversion_rate(v, 1.0),
    "conversion_rate.target": lambda v: rf.conversion_rate(1.0, v),
}


@pytest.mark.parametrize(
    "name, value, error",
    [
        ("Hamiltonian.beta", True, TypeError),
        ("Hamiltonian.beta", 10**400, ValueError),
        ("validate.dims", 2.9, TypeError),
        ("validate.dims", True, TypeError),
        ("maximally_mixed.dims", 2.9, TypeError),
        ("pure_state.dims", 2.0, TypeError),
        ("partial_trace.keep", 0.7, TypeError),
        ("partial_trace.keep", True, TypeError),
        ("permute_subsystems.perm", 1.2, TypeError),
        ("ProjectiveMeasurement.dimension", 2.0, TypeError),
        ("generalized_deficit.extra_dim", True, TypeError),
        ("multicopy_deficit.n", True, TypeError),
        ("multicopy_deficit.n", 2.0, TypeError),
        ("GridSpec.theta_points", 2.5, TypeError),
        ("GridSpec.phi_points", True, TypeError),
        ("majorizes.x", np.nan, ValueError),
        # inf - inf in the sums check warns, as it always has
        pytest.param("majorizes.both", np.inf, ValueError,
                     marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
        ("conversion_rate.source", np.nan, ValueError),
        ("conversion_rate.target", np.nan, ValueError),
    ],
    ids=lambda v: "10**400" if v == 10**400 else None,
)
def test_input_rules_refuse(name, value, error):
    with pytest.raises(error):
        _INPUT_RULES[name](value)


def test_input_rules_accept():
    # numpy scalars are numbers, a real parameter is kept as a float, and a
    # relative entropy may be infinite
    assert rf.Hamiltonian(np.eye(2), np.float64(0.5)).beta == 0.5
    assert type(rf.OptimizerConfig(tolerance=1).tolerance) is float
    assert rf.validate(np.eye(4) / 4, [np.int64(2), 2]).dims == (2, 2)
    assert rf.ProjectiveMeasurement(np.int64(2), np.eye(2)).dimension == 2
    assert rf.conversion_rate(np.inf, 1.0).rate == np.inf


class TestValidate:
    def test_maximally_mixed_qubit(self):
        rho = rf.validate(np.eye(2) / 2, [2])
        assert rho.dims == (2,)
        assert rho.dim == 2

    def test_trace_violation(self):
        with pytest.raises(rf.NotUnitTrace):
            rf.validate(np.diag([0.6, 0.5]), [2])

    def test_psd_violation(self):
        with pytest.raises(rf.NotPSD):
            rf.validate(np.diag([1.2, -0.2]), [2])

    def test_hermiticity_violation(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(rf.NotHermitian):
            rf.validate(m, [2])

    def test_dims_product_mismatch(self):
        with pytest.raises(rf.DimensionMismatch):
            rf.validate(np.eye(4) / 4, [2, 3])

    def test_non_square(self):
        with pytest.raises(rf.DimensionMismatch):
            rf.validate(np.ones((2, 3)) / 6, [2])

    def test_dimension_cap_checked_before_the_matrix(self):
        # not Hermitian either: the cap is the first error raised
        m = np.triu(np.ones((512, 512))) / 512
        with pytest.raises(rf.DimensionTooLarge):
            rf.validate(m, (2, 256))

    def test_non_finite_rejected(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            rf.validate(m, [2])


class TestTensor:
    def test_mixed_times_mixed(self):
        out = rf.tensor(rf.maximally_mixed((2,)), rf.maximally_mixed((2,)))
        assert out.dims == (2, 2)
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4)

    def test_pure_product(self):
        zero = rf.pure_state([1, 0], (2,))
        one = rf.pure_state([0, 1], (2,))
        out = rf.tensor(zero, one)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1
        np.testing.assert_allclose(out.matrix, expected, atol=1e-15)

    def test_spectrum_is_products(self):
        # eigenvalues of a tensor product are all pairwise products
        for seed in range(5):
            a = rf.random_density(3, 3, seed)
            b = rf.random_density(2, 2, seed + 100)
            got = rf.spectrum(rf.tensor(a, b))
            expected = np.sort(np.outer(rf.spectrum(a), rf.spectrum(b)).ravel())[::-1]
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_dimension_cap(self):
        big = rf.maximally_mixed((16,))
        with pytest.raises(rf.DimensionTooLarge):
            rf.tensor(rf.tensor(big, big), rf.maximally_mixed((2,)))


class TestPartialTrace:
    def test_product_state_recovery(self):
        a = rf.random_density(2, 2, 1)
        b = rf.random_density(3, 3, 2)
        joint = rf.tensor(a, b)
        np.testing.assert_allclose(
            rf.partial_trace(joint, [0]).matrix, a.matrix, atol=1e-9
        )
        np.testing.assert_allclose(
            rf.partial_trace(joint, [1]).matrix, b.matrix, atol=1e-9
        )

    def test_bell_reduction(self):
        np.testing.assert_allclose(
            rf.partial_trace(bell(), [0]).matrix, np.eye(2) / 2, atol=1e-12
        )

    def test_trace_preserved(self):
        for seed in range(100):
            rho = rf.random_density(4, 4, seed)
            two = rf.DensityMatrix(rho.matrix, (2, 2))
            reduced = rf.partial_trace(two, [0])
            assert abs(np.trace(reduced.matrix) - 1) < 1e-12

    def test_empty_keep(self):
        with pytest.raises(rf.EmptyKeepSet):
            rf.partial_trace(bell(), [])

    def test_index_out_of_range(self):
        with pytest.raises(rf.IndexOutOfRange):
            rf.partial_trace(bell(), [2])


class TestEigHermitian:
    def test_diagonal(self):
        w, v = rf.eig_hermitian(np.diag([0.25, 0.75]))
        np.testing.assert_allclose(w, [0.75, 0.25])

    def test_plus_projector(self):
        # (X + I)/2 projects onto |+>; spectrum (1, 0)
        m = (np.array([[0, 1], [1, 0]]) + np.eye(2)) / 2
        w, v = rf.eig_hermitian(m)
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-12)

    def test_maximally_mixed(self):
        w, _ = rf.eig_hermitian(np.eye(5) / 5)
        np.testing.assert_allclose(w, np.full(5, 0.2))

    def test_reconstruction_and_orthonormality(self):
        for seed in range(20):
            rho = rf.random_density(6, 6, seed)
            w, v = rf.eig_hermitian(rho.matrix)
            assert np.all(np.diff(w) <= 1e-12)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-9)
            np.testing.assert_allclose((v * w) @ v.conj().T, rho.matrix, atol=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(rf.NotHermitian):
            rf.eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


class TestEmbed:
    def test_identity_isometry(self):
        rho = rf.random_density(2, 2, 0)
        out = rf.embed(rho, np.eye(2), 0)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_qubit_into_qutrit_spectrum(self):
        rho = rf.random_density(2, 2, 3)
        v = np.zeros((3, 2))
        v[0, 0] = v[1, 1] = 1
        out = rf.embed(rho, v, 0)
        assert out.dims == (3,)
        np.testing.assert_allclose(
            rf.spectrum(out)[:2], rf.spectrum(rho), atol=1e-9
        )
        assert abs(rf.spectrum(out)[2]) < 1e-12

    def test_basis_relabeling(self):
        zero = rf.pure_state([1, 0], (2,))
        v = np.zeros((3, 2))
        v[2, 0] = 1  # maps |0> to |2>
        v[0, 1] = 1
        out = rf.embed(zero, v, 0)
        expected = np.zeros((3, 3))
        expected[2, 2] = 1
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)

    def test_wrong_domain(self):
        with pytest.raises(rf.DimensionMismatch):
            rf.embed(rf.random_density(3, 3, 0), np.eye(4)[:, :2], 0)

    def test_not_isometry(self):
        with pytest.raises(rf.NotIsometry):
            rf.embed(rf.random_density(2, 2, 0), np.ones((3, 2)), 0)


class TestRandomDensity:
    def test_rank_one_is_pure(self):
        for seed in range(10):
            rho = rf.random_density(4, 1, seed)
            assert rf.vn_entropy(rho) <= 1e-9

    def test_deterministic(self):
        a = rf.random_density(3, 2, 42)
        b = rf.random_density(3, 2, 42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_rank_out_of_range(self):
        with pytest.raises(rf.RankOutOfRange):
            rf.random_density(2, 3, 0)
        with pytest.raises(rf.RankOutOfRange):
            rf.random_density(2, 0, 0)

    def test_induced_measure_mean_spectrum(self):
        # Monte-Carlo oracle: the mean sorted spectrum of the trace-induced
        # measure at dim 2, rank 2 is (7/8, 1/8); the quadrature of the
        # eigenvalue density 3 (2 l - 1)^2 gives E[l_max] = 7/8 exactly.
        total = np.zeros(2)
        n = 10_000
        for seed in range(n):
            total += rf.spectrum(rf.random_density(2, 2, seed))
        np.testing.assert_allclose(total / n, [0.875, 0.125], atol=0.02)


class TestStructuralInvariants:
    def test_tensor_then_trace_roundtrip(self):
        for seed in range(20):
            a = rf.random_density(3, 3, seed)
            b = rf.random_density(2, 2, seed + 50)
            back = rf.partial_trace(rf.tensor(a, b), [0])
            np.testing.assert_allclose(back.matrix, a.matrix, atol=1e-9)

    def test_outputs_pass_validation(self):
        rng = np.random.default_rng(0)
        a = rf.random_density(2, 2, 7)
        b = rf.random_density(3, 2, 8)
        outputs = [
            rf.tensor(a, b),
            rf.partial_trace(rf.tensor(a, b), [1]),
            rf.embed(a, np.eye(3)[:, :2], 0),
            rf.random_density(5, 3, 9),
        ]
        for rho in outputs:
            rf.validate(rho.matrix, rho.dims)

    def test_permute_subsystems_roundtrip(self):
        rho = rf.DensityMatrix(rf.random_density(8, 8, 5).matrix, (2, 2, 2))
        perm = (2, 0, 1)
        moved = rf.permute_subsystems(rho, perm)
        inverse = (1, 2, 0)
        back = rf.permute_subsystems(moved, inverse)
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-14)

    def test_permute_matches_tensor_swap(self):
        a = rf.random_density(2, 2, 1)
        b = rf.random_density(3, 3, 2)
        ab = rf.tensor(a, b)
        ba = rf.permute_subsystems(ab, (1, 0))
        np.testing.assert_allclose(ba.matrix, rf.tensor(b, a).matrix, atol=1e-14)
