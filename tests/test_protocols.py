import numpy as np
import pytest

import resourceforge as rf
from helpers import bell, random_unitary

# CNOT with subsystem 1 as control, subsystem 0 as target
CNOT_T0_C1 = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ],
    dtype=complex,
)


def bell_extraction_script():
    return rf.ProtocolScript(
        "CLOCC",
        (
            rf.SendQubit("A", 0),
            rf.LocalUnitary("B", CNOT_T0_C1),
            rf.LocalPartialTrace("B", 1),
        ),
    )


class TestStepConstruction:
    def test_non_unitary_rejected(self):
        with pytest.raises(rf.NotUnitary):
            rf.LocalUnitary("A", np.ones((2, 2)))

    def test_bad_side(self):
        with pytest.raises(ValueError):
            rf.SendQubit("C", 0)
        with pytest.raises(ValueError):
            rf.LocalPartialTrace("C", 0)
        with pytest.raises(ValueError):
            rf.AddMaxMixedAncilla("C", 2)

    @pytest.mark.parametrize("value", [2.9, 2.0, True, "2", None])
    @pytest.mark.parametrize(
        "make", [rf.LocalPartialTrace, rf.AddMaxMixedAncilla, rf.SendQubit]
    )
    def test_integer_fields_must_be_integers(self, make, value):
        with pytest.raises(TypeError, match="must be an integer"):
            make("A", value)
        make("A", np.int64(2))              # numpy integers are integers

    def test_small_ancilla_rejected(self):
        with pytest.raises(ValueError):
            rf.AddMaxMixedAncilla("A", 1)

    def test_clocc_script_rejects_ancilla(self):
        with pytest.raises(rf.IllegalStepForMode):
            rf.ProtocolScript("CLOCC", (rf.AddMaxMixedAncilla("A", 2),))

    def test_ownership_length_checked(self):
        with pytest.raises(rf.DimensionMismatch):
            rf.Register(bell(), ("A",))


class TestApplyStep:
    def test_identity_unitary(self):
        reg = rf.bipartite_register(bell())
        out = rf.apply_step(reg, rf.LocalUnitary("A", np.eye(2)))
        np.testing.assert_allclose(out.state.matrix, bell().matrix, atol=1e-14)
        assert out.ownership == ("A", "B")

    def test_add_ancilla_prepends_nothing_appends_mixed(self):
        reg = rf.bipartite_register(bell())
        out = rf.apply_step(reg, rf.AddMaxMixedAncilla("A", 2))
        assert out.state.dims == (2, 2, 2)
        assert out.ownership == ("A", "B", "A")
        np.testing.assert_allclose(
            out.state.matrix, np.kron(bell().matrix, np.eye(2) / 2), atol=1e-14
        )

    def test_ancilla_illegal_in_clocc(self):
        reg = rf.bipartite_register(bell())
        with pytest.raises(rf.IllegalStepForMode):
            rf.apply_step(reg, rf.AddMaxMixedAncilla("A", 2), mode="CLOCC")

    def test_send_qubit_dephases_and_reassigns(self):
        reg = rf.bipartite_register(bell())
        out = rf.apply_step(reg, rf.SendQubit("A", 0))
        np.testing.assert_allclose(
            out.state.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12
        )
        assert out.ownership == ("B", "B")

    def test_send_requires_ownership(self):
        reg = rf.bipartite_register(bell())
        with pytest.raises(rf.IndexOutOfRange):
            rf.apply_step(reg, rf.SendQubit("B", 0))

    def test_send_requires_qubit(self):
        rho = rf.maximally_mixed((3, 2))
        reg = rf.Register(rho, ("A", "B"))
        with pytest.raises(rf.NotAQubit):
            rf.apply_step(reg, rf.SendQubit("A", 0))

    def test_partial_trace_ownership_enforced(self):
        reg = rf.bipartite_register(bell())
        with pytest.raises(rf.IndexOutOfRange):
            rf.apply_step(reg, rf.LocalPartialTrace("A", 1))

    def test_unitary_on_interleaved_ownership(self):
        # ownership (A, B, A): a unitary on side A acts on factors 0 and 2
        rho = rf.tensor(
            rf.tensor(rf.pure_state([1, 0], (2,)), rf.maximally_mixed((2,))),
            rf.pure_state([1, 0], (2,)),
        )
        reg = rf.Register(rho, ("A", "B", "A"))
        swap = np.eye(4)[[0, 2, 1, 3]]  # swaps A's two qubits
        flip = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))  # X on A's first
        out = rf.apply_step(reg, rf.LocalUnitary("A", flip @ swap))
        reduced = rf.partial_trace(out.state, [0]).matrix
        np.testing.assert_allclose(reduced, np.diag([0, 1]), atol=1e-12)

    def test_wrong_unitary_dimension(self):
        reg = rf.bipartite_register(bell())
        with pytest.raises(rf.DimensionMismatch):
            rf.apply_step(reg, rf.LocalUnitary("A", np.eye(4)))


class TestRunProtocol:
    def test_empty_script(self):
        reg = rf.bipartite_register(bell())
        out = rf.run_protocol(reg, rf.ProtocolScript("CLOCC", ()))
        assert np.array_equal(out.state.matrix, reg.state.matrix)

    def test_inverse_pair(self):
        rng = np.random.default_rng(3)
        u = random_unitary(2, rng)
        reg = rf.bipartite_register(bell())
        script = rf.ProtocolScript(
            "CLOCC",
            (rf.LocalUnitary("A", u), rf.LocalUnitary("A", u.conj().T)),
        )
        out = rf.run_protocol(reg, script)
        np.testing.assert_allclose(out.state.matrix, bell().matrix, atol=1e-12)

    def test_bell_send_then_rotate(self):
        out = rf.run_protocol(rf.bipartite_register(bell()), bell_extraction_script())
        assert out.ownership == ("B",)
        np.testing.assert_allclose(out.state.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_failing_step_reports_index(self):
        script = rf.ProtocolScript("CLOCC", (rf.LocalPartialTrace("A", 5),))
        with pytest.raises(rf.IndexOutOfRange, match="step 0"):
            rf.run_protocol(rf.bipartite_register(bell()), script)

    def test_failing_step_keeps_an_exception_with_two_arguments(self, monkeypatch):
        class TwoArgs(Exception):
            def __init__(self, what, where):
                super().__init__(what, where)

        def fail(reg, step, mode):
            raise TwoArgs("bad", "here")

        monkeypatch.setattr(rf.protocols, "apply_step", fail)
        script = rf.ProtocolScript("CLOCC", (rf.LocalPartialTrace("A", 0),))
        with pytest.raises(TwoArgs, match=r"^step 0: \('bad', 'here'\)$"):
            rf.run_protocol(rf.bipartite_register(bell()), script)

    def test_determinism(self):
        reg = rf.bipartite_register(bell())
        a = rf.run_protocol(reg, bell_extraction_script())
        b = rf.run_protocol(reg, bell_extraction_script())
        assert np.array_equal(a.state.matrix, b.state.matrix)
        assert a.ownership == b.ownership


class TestUnitality:
    def test_no_step_creates_purity_from_mixed(self):
        rng = np.random.default_rng(4)
        mixed = rf.Register(rf.maximally_mixed((2, 2)), ("A", "B"))
        steps = [
            rf.LocalUnitary("A", random_unitary(2, rng)),
            rf.LocalUnitary("B", random_unitary(2, rng)),
            rf.AddMaxMixedAncilla("B", 3),
            rf.SendQubit("A", 0),
        ]
        for step in steps:
            out = rf.apply_step(mixed, step)
            d = out.state.dim
            np.testing.assert_allclose(
                out.state.matrix, np.eye(d) / d, atol=1e-12
            )


class TestExtractedLocalPurity:
    def test_one_pure_one_mixed(self):
        rho = rf.tensor(rf.pure_state([1, 0], (2,)), rf.maximally_mixed((2,)))
        reg = rf.Register(rho, ("A", "B"))
        assert rf.extracted_local_purity(reg, 0.01) == 1

    def test_maximally_mixed(self):
        reg = rf.Register(rf.maximally_mixed((2, 2)), ("A", "B"))
        assert rf.extracted_local_purity(reg, 0.01) == 0

    def test_two_pure_qubits(self):
        reg = rf.bipartite_register(rf.pure_state([1, 0, 0, 0], (2, 2)))
        assert rf.extracted_local_purity(reg, 0.01) == 2

    def test_bell_qubits_not_locally_pure(self):
        reg = rf.bipartite_register(bell())
        assert rf.extracted_local_purity(reg, 0.01) == 0

    def test_exact_subset_search_matches_greedy_here(self):
        rho = rf.tensor(rf.pure_state([1, 0], (2,)), rf.maximally_mixed((2,)))
        reg = rf.Register(rho, ("A", "B"))
        assert rf.extracted_local_purity(reg, 0.01, exact=True) == 1

    def test_epsilon_validated(self):
        reg = rf.bipartite_register(bell())
        with pytest.raises(ValueError):
            rf.extracted_local_purity(reg, 0.0)

    def test_non_qubit_subsystems_ignored(self):
        rho = rf.tensor(rf.pure_state([1, 0, 0], (3,)), rf.pure_state([1, 0], (2,)))
        reg = rf.Register(rho, ("A", "B"))
        assert rf.extracted_local_purity(reg, 0.01) == 1


class TestDeficitBound:
    def test_two_pure_qubits_empty_script(self):
        rho = rf.pure_state([1, 0, 0, 0], (2, 2))
        assert rf.deficit_bound(rho, rf.ProtocolScript("CLOCC", ()), 0.01) == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_maximally_mixed_empty_script(self):
        rho = rf.maximally_mixed((2, 2))
        assert rf.deficit_bound(rho, rf.ProtocolScript("CLOCC", ()), 0.01) == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_bell_extraction_script(self):
        bound = rf.deficit_bound(bell(), bell_extraction_script(), 0.01)
        assert bound == pytest.approx(1.0, abs=1e-12)

    def test_nlocc_script_rejected(self):
        script = rf.ProtocolScript("NLOCC", ())
        with pytest.raises(rf.IllegalStepForMode):
            rf.deficit_bound(bell(), script, 0.01)

    def test_purity_count_monotone_under_appended_steps(self):
        # appending a CLOCC step never raises the count beyond moved qubits
        rng = np.random.default_rng(6)
        for seed in range(10):
            rho = rf.DensityMatrix(rf.random_density(4, 4, seed).matrix, (2, 2))
            reg = rf.bipartite_register(rho)
            before = rf.extracted_local_purity(reg, 0.01)
            step = rf.LocalUnitary("A", random_unitary(2, rng))
            after = rf.extracted_local_purity(rf.apply_step(reg, step), 0.01)
            assert after <= before + 0  # no qubits moved by a local unitary
            sent = rf.apply_step(reg, rf.SendQubit("A", 0))
            assert rf.extracted_local_purity(sent, 0.01) <= before + 1
