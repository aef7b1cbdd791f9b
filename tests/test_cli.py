import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import resourceforge as rf
import resourceforge.io as rfio
from resourceforge.cli import main
from helpers import bell, random_bipartite

SRC = str(Path(__file__).resolve().parent.parent / "src")


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def state_file(tmp_path, rho, name="state.json"):
    return write_json(tmp_path / name, rfio.state_to_json(rho))


@pytest.fixture
def bell_file(tmp_path):
    return state_file(tmp_path, bell(), "bell.json")


@pytest.fixture
def mixed_file(tmp_path):
    return state_file(tmp_path, rf.maximally_mixed((2, 2)), "mixed.json")


@pytest.fixture
def cnot_script(tmp_path):
    """CLOCC script extracting one pure qubit from a Bell pair."""
    cnot = [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]
    return write_json(
        tmp_path / "script.json",
        {
            "mode": "CLOCC",
            "steps": [
                {"op": "SendQubit", "from": "A", "qubit": 0},
                {
                    "op": "LocalUnitary",
                    "side": "B",
                    "matrix": [[[v, 0] for v in row] for row in cnot],
                },
                {"op": "LocalPartialTrace", "side": "B", "subsystem": 1},
            ],
        },
    )


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFileFormats:
    def test_state_roundtrip(self, tmp_path):
        rho = rf.random_density(3, 2, 5)
        path = state_file(tmp_path, rho)
        loaded = rfio.load_state(path)
        assert loaded.dims == rho.dims
        np.testing.assert_allclose(loaded.matrix, rho.matrix, atol=1e-11)

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2], "matrix": [[[Infinity, 0], [0, 0]], [[0, 0], [0, 0]]]}')
        with pytest.raises(rfio.FileFormatError):
            rfio.load_state(str(path))

    def test_missing_keys(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {"matrix": []})
        with pytest.raises(rfio.FileFormatError):
            rfio.load_state(path)

    def test_measurement_roundtrip(self, tmp_path):
        m = rf.measurement_from_params([0.3, 1.1], 2)
        path = write_json(tmp_path / "m.json", rfio.measurement_to_json(m))
        loaded = rfio.load_measurement(path)
        np.testing.assert_allclose(loaded.basis, m.basis, atol=1e-11)

    def test_hamiltonian_file(self, tmp_path):
        path = write_json(
            tmp_path / "h.json",
            {"beta": 0.5, "matrix": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]},
        )
        h = rfio.load_hamiltonian(path)
        assert h.beta == 0.5

    def test_optimizer_config_file(self, tmp_path):
        path = write_json(tmp_path / "cfg.json", {"restarts": 4, "seed": 9})
        cfg = rfio.load_optimizer_config(path)
        assert cfg.restarts == 4 and cfg.seed == 9
        full = {"restarts": 4, "grid_points": 3, "max_iterations": 50,
                "tolerance": 1e-5, "seed": 9}
        assert rfio.load_optimizer_config(
            write_json(tmp_path / "full.json", full)
        ) == rf.OptimizerConfig(**full)
        assert rfio.load_optimizer_config(
            write_json(tmp_path / "int_tol.json", {"tolerance": 1})
        ).tolerance == 1.0
        for bad in (
            [4],                        # not an object
            {"restars": 4},             # unknown key
            {"restarts": 4.0},          # integer field given a float
            {"seed": True},             # booleans are not integers
            {"tolerance": "1e-6"},      # float field given a string
            {"restarts": 0},            # rejected by OptimizerConfig
        ):
            path = write_json(tmp_path / "bad.json", bad)
            with pytest.raises(rfio.FileFormatError):
                rfio.load_optimizer_config(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (5, "M: expected a non-empty list of rows"),
            ([], "M: expected a non-empty list of rows"),
            ([[[1, 0]], []], "M: row 1 is not a non-empty list"),
            ([[[1, 0]], 7], "M: row 1 is not a non-empty list"),
            ([[[1, 0], [0, 0]], [[0, 0]]], "M: row 1 has ragged length"),
            ([[[1, 0], [0]]], "M: entry (0,1) must be a [re, im] pair"),
            ([[[1, 0], [0, 0, 0]]], "M: entry (0,1) must be a [re, im] pair"),
            ([[[1, 0], "ab"]], "M: entry (0,1) must be a [re, im] pair"),
            ([[[0.5, 0], [True, 0]]], "M (0,1) re: expected a number, got True"),
            ([[[1, 0], [0, False]]], "M (0,1) im: expected a number, got False"),
            ([[[True, False]]], "M (0,0) re: expected a number, got True"),
            ([[[1, 0], ["1", 0]]], "M (0,1) re: expected a number, got '1'"),
            ([[[1, 0], [None, 0]]], "M (0,1) re: expected a number, got None"),
            ([[[1, 0], [[1], 0]]], "M (0,1) re: expected a number, got [1]"),
            ([[[1, 0], [1e400, 0]]], "M (0,1) re: non-finite number"),
            ([[[1, 0], [0, -1e400]]], "M (0,1) im: non-finite number"),
            ([[[1, 0], [10**400, 0]]], "M (0,1) re: non-finite number"),
        ],
    )
    def test_matrix_rejections_name_the_first_bad_entry(self, rows, message):
        with pytest.raises(rfio.FileFormatError) as info:
            rfio.matrix_from_json(rows, "M")
        assert str(info.value) == message

    def test_matrix_parse_is_exact(self):
        # integers, signed zeros and the largest integer a double holds
        rows = [[[1, 0], [-0.0, 2.5]], [[2**53, -0.0], [0.1, -1e-300]]]
        m = rfio.matrix_from_json(json.loads(json.dumps(rows)))
        expected = np.array(
            [[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128
        )
        assert m.dtype == np.complex128
        assert m.tobytes() == expected.tobytes()

    def test_script_file(self, tmp_path):
        path = write_json(
            tmp_path / "script.json",
            {
                "mode": "CLOCC",
                "steps": [
                    {"op": "SendQubit", "from": "A", "qubit": 0},
                    {"op": "LocalPartialTrace", "side": "B", "subsystem": 1},
                ],
            },
        )
        script = rfio.load_script(path)
        assert script.mode == "CLOCC"
        assert len(script.steps) == 2

    def test_infinity_serialized_as_string(self):
        assert rfio.format_float(math.inf) == "inf"
        assert rfio.format_float(0.5849625007211562) == 0.584962500721


class TestCliBasics:
    def test_entropy(self, capsys, mixed_file):
        code, out, err = run(capsys, ["entropy", "--state", mixed_file])
        assert code == 0
        assert json.loads(out)["bits"] == 2.0

    def test_validate_bad_trace(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "bad_trace.json",
            {"dims": [2], "matrix": [[[0.6, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
        )
        code, out, err = run(capsys, ["validate", "--state", path])
        assert code == 1
        assert "NotUnitTrace" in err

    def test_validate_over_dimension_cap(self, capsys, tmp_path):
        path = state_file(tmp_path, rf.maximally_mixed((2, 256)), "wide.json")
        code, out, err = run(capsys, ["validate", "--state", path])
        assert code == 1
        assert out == ""
        assert "DimensionTooLarge" in err

    def test_validate_at_dimension_cap(self, capsys, tmp_path):
        path = state_file(tmp_path, rf.maximally_mixed((16, 16)), "cap.json")
        code, out, err = run(capsys, ["validate", "--state", path])
        assert code == 0
        assert json.loads(out) == {"valid": True, "dims": [16, 16], "dimension": 256}

    @pytest.mark.parametrize(
        "command, flag, payload",
        [
            ("validate", "--state",
             {"dims": [2], "matrix": [[[10**400, 0], [0, 0]], [[0, 0], [0, 0]]]}),
            ("gibbs", "--ham",
             {"beta": 10**400, "matrix": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}),
        ],
    )
    def test_integer_beyond_float_range_exit_2(self, capsys, tmp_path, command, flag, payload):
        # a JSON integer too large for a float is a bad file, not a crash
        path = write_json(tmp_path / "huge.json", payload)
        code, out, err = run(capsys, [command, flag, path])
        assert code == 2
        assert out == ""
        assert err.startswith("FileFormatError: ") and "non-finite number" in err

    def test_missing_file_exit_2(self, capsys):
        code, out, err = run(capsys, ["entropy", "--state", "/nonexistent.json"])
        assert code == 2

    def test_majorize_inline(self, capsys):
        code, out, err = run(capsys, ["majorize", "--x", "1,0", "--y", "0.5,0.5"])
        assert code == 0
        assert json.loads(out) == {"majorizes": True}

    def test_relent_infinite(self, capsys, tmp_path):
        zero = state_file(tmp_path, rf.pure_state([1, 0], (2,)), "zero.json")
        one = state_file(tmp_path, rf.pure_state([0, 1], (2,)), "one.json")
        code, out, err = run(
            capsys, ["relent", "--state", zero, "--state2", one]
        )
        assert code == 0
        assert json.loads(out)["bits"] == "inf"

    def test_rate(self, capsys):
        code, out, err = run(capsys, ["rate", "--x", "0.1887", "--y", "1"])
        assert code == 0
        assert json.loads(out)["rate"] == pytest.approx(0.1887)

    def test_rate_both_zero_domain_error(self, capsys):
        code, out, err = run(capsys, ["rate", "--x", "0", "--y", "0"])
        assert code == 1
        assert "BothZero" in err

    def test_gibbs_output_is_a_loadable_state(self, capsys, tmp_path):
        ham = write_json(
            tmp_path / "h.json",
            {"beta": math.log(2), "matrix": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]},
        )
        code, out, err = run(capsys, ["gibbs", "--ham", ham])
        assert code == 0
        reparsed = json.loads(out)
        state_path = write_json(tmp_path / "gibbs.json", reparsed)
        loaded = rfio.load_state(state_path)
        np.testing.assert_allclose(loaded.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-9)

    def test_fgap(self, capsys, tmp_path):
        ham = write_json(
            tmp_path / "h.json",
            {"beta": math.log(2), "matrix": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]},
        )
        ground = state_file(tmp_path, rf.validate(np.diag([1.0, 0.0]), [2]), "g.json")
        code, out, err = run(capsys, ["fgap", "--state", ground, "--ham", ham])
        assert code == 0
        assert json.loads(out)["bits"] == pytest.approx(math.log2(1.5), abs=1e-9)

    def test_mutinfo_and_negentropy(self, capsys, bell_file):
        code, out, _ = run(capsys, ["mutinfo", "--state", bell_file])
        assert code == 0 and json.loads(out)["bits"] == pytest.approx(2.0)
        code, out, _ = run(capsys, ["negentropy", "--state", bell_file])
        assert code == 0 and json.loads(out)["bits"] == pytest.approx(2.0)

    def test_transition(self, capsys, tmp_path, mixed_file):
        pure = state_file(tmp_path, rf.pure_state([1, 0, 0, 0], (2, 2)), "p.json")
        code, out, _ = run(capsys, ["transition", "--state", pure, "--state2", mixed_file])
        assert code == 0 and json.loads(out)["possible"] is True
        code, out, _ = run(capsys, ["transition", "--state", mixed_file, "--state2", pure])
        assert code == 0 and json.loads(out)["possible"] is False

    def test_thermorate(self, capsys, tmp_path):
        ham = write_json(
            tmp_path / "h.json",
            {"beta": math.log(2), "matrix": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]},
        )
        ground = state_file(tmp_path, rf.validate(np.diag([1.0, 0.0]), [2]), "g.json")
        excited = state_file(tmp_path, rf.validate(np.diag([0.0, 1.0]), [2]), "e.json")
        code, out, err = run(
            capsys,
            ["thermorate", "--state", ground, "--state2", excited, "--ham", ham],
        )
        assert code == 0
        assert json.loads(out)["rate"] == pytest.approx(0.369070246429, abs=1e-9)


class TestCliOptimizers:
    def test_deficit_on_bell(self, capsys, bell_file):
        code, out, err = run(
            capsys,
            ["deficit", "--state", bell_file, "--restarts", "4", "--grid", "4",
             "--seed", "7"],
        )
        assert code == 0
        result = json.loads(out)
        assert result["value_bits"] == pytest.approx(1.0, abs=1e-3)
        assert "basis" in result["measurement"]
        # the eigenbasis seed, the first evaluated, meets the bound S(A) - S(AB)
        assert result["trace"] == [[0, result["value_bits"]]]

    def test_deficit_trace_on_a_random_state(self, capsys, tmp_path):
        state = state_file(tmp_path, random_bipartite(4))
        code, out, _ = run(
            capsys,
            ["deficit", "--state", state, "--restarts", "4", "--grid", "4",
             "--seed", "7"],
        )
        assert code == 0
        assert len(json.loads(out)["trace"]) == 5  # restarts plus the polish entry

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "seed must be >= 0, got -1"),
            ("--tol", "inf", "tolerance must be positive and finite, got inf"),
            ("--tol", "nan", "tolerance must be positive and finite, got nan"),
        ],
    )
    def test_bad_optimizer_flag_exit_2(self, capsys, bell_file, flag, value, message):
        code, out, err = run(capsys, ["deficit", "--state", bell_file, flag, value])
        assert code == 2
        assert out == ""
        assert err == f"ValueError: {message}\n"

    @pytest.mark.parametrize(
        "command", ["discord", "deficit0", "discord0", "relent-cq", "relent-cc"]
    )
    def test_quantumness_commands_smoke(self, capsys, bell_file, command):
        code, out, err = run(
            capsys,
            [command, "--state", bell_file, "--restarts", "3", "--grid", "3",
             "--seed", "1"],
        )
        assert code == 0
        assert json.loads(out)["value_bits"] == pytest.approx(1.0, abs=5e-3)

    def test_gendeficit_and_multicopy(self, capsys, bell_file):
        code, out, _ = run(
            capsys,
            ["gendeficit", "--state", bell_file, "--extra-dim", "1",
             "--restarts", "3", "--grid", "3", "--seed", "2"],
        )
        assert code == 0
        assert "isometry" in json.loads(out)
        code, out, _ = run(
            capsys,
            ["multicopy", "--state", bell_file, "--copies", "2",
             "--restarts", "3", "--grid", "3", "--seed", "2"],
        )
        assert code == 0
        assert json.loads(out)["value_bits_per_copy"] <= 1.0 + 1e-3

    def test_gendeficit_over_dimension_cap(self, capsys, mixed_file):
        code, out, err = run(
            capsys, ["gendeficit", "--state", mixed_file, "--extra-dim", "200"]
        )
        assert code == 1
        assert out == ""
        assert "DimensionTooLarge" in err

    def test_deficit_over_search_angle_bound(self, capsys, tmp_path):
        wide = state_file(tmp_path, rf.maximally_mixed((17, 2)), "wide.json")
        code, out, err = run(capsys, ["deficit", "--state", wide])
        assert code == 1
        assert out == ""
        assert "DimensionTooLarge" in err

    def test_deficit_on_one_level_side(self, capsys, tmp_path):
        state = state_file(tmp_path, rf.maximally_mixed((1, 2)))
        code, out, err = run(capsys, ["deficit", "--state", state, "--restarts", "2"])
        assert code == 0, err
        assert json.loads(out)["value_bits"] == 0.0

    def test_deterministic_output(self, capsys, bell_file):
        argv = ["deficit", "--state", bell_file, "--restarts", "3", "--grid", "3",
                "--seed", "5"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestCliProtocol:
    def test_protocol_reports_bound(self, capsys, bell_file, cnot_script):
        code, out, err = run(
            capsys, ["protocol", "--state", bell_file, "--script", cnot_script]
        )
        assert code == 0
        result = json.loads(out)
        assert result["ownership"] == ["B"]
        assert result["extracted_purity"] == 1
        assert result["deficit_bound"] == pytest.approx(1.0, abs=1e-9)

    def test_illegal_step_domain_error(self, capsys, tmp_path, bell_file):
        script = write_json(
            tmp_path / "script.json",
            {"mode": "CLOCC", "steps": [{"op": "AddMaxMixedAncilla", "side": "A", "dim": 2}]},
        )
        code, out, err = run(
            capsys, ["protocol", "--state", bell_file, "--script", script]
        )
        assert code == 1
        assert "IllegalStepForMode" in err

    @pytest.mark.parametrize(
        "step",
        [
            {"op": "LocalPartialTrace", "side": "C", "subsystem": 1},
            {"op": "AddMaxMixedAncilla", "side": "A", "dim": 2.9},
            {"op": "SendQubit", "from": "A", "qubit": True},
            {"op": "LocalPartialTrace", "side": "B", "subsystem": "0"},
        ],
    )
    def test_bad_step_field_exit_2(self, capsys, tmp_path, bell_file, step):
        # every field is checked as read: no side outside A and B, and no
        # integer field that is a float, a boolean or a string
        script = write_json(tmp_path / "script.json", {"mode": "NLOCC", "steps": [step]})
        code, out, err = run(
            capsys, ["protocol", "--state", bell_file, "--script", script]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("FileFormatError: ")

    def test_wrong_size_unitary_names_its_step(self, capsys, tmp_path, bell_file):
        script = write_json(
            tmp_path / "script.json",
            {"mode": "CLOCC", "steps": [
                {"op": "SendQubit", "from": "A", "qubit": 0},
                {"op": "LocalUnitary", "side": "B",
                 "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
            ]},
        )
        code, out, err = run(
            capsys, ["protocol", "--state", bell_file, "--script", script]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("DimensionMismatch: step 1: ")


class TestOutputFormats:
    def test_tsv(self, capsys, mixed_file):
        code, out, err = run(capsys, ["--out", "tsv", "entropy", "--state", mixed_file])
        assert code == 0
        assert out.strip() == "bits\t2.0"

    def test_env_var_cap(self, capsys, tmp_path, monkeypatch):
        big = state_file(tmp_path, rf.maximally_mixed((4, 4)), "big.json")
        monkeypatch.setenv(rf.MAX_DIM_ENV_VAR, "32")
        code, out, err = run(
            capsys,
            ["multicopy", "--state", big, "--copies", "2", "--restarts", "1",
             "--grid", "2", "--seed", "0"],
        )
        assert code == 1
        assert "DimensionTooLarge" in err


class TestBlasThreadCount:
    def test_output_bytes_do_not_depend_on_thread_count(
        self, tmp_path, bell_file, cnot_script
    ):
        rho = rf.random_density(4, 4, 3)
        state = state_file(tmp_path, rf.DensityMatrix(rho.matrix, (2, 2)))
        qutrits = state_file(tmp_path, random_bipartite(7, 3, 3), "qutrits.json")
        search = ["--restarts", "4", "--grid", "4"]
        # the searches' objectives contract rho with BLAS gemm calls
        commands = [
            ["relent-cq", "--state", state, *search],
            ["deficit0", "--state", state, *search],
            ["deficit", "--state", qutrits, *search],
            ["protocol", "--state", bell_file, "--script", cnot_script],
        ]
        outputs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS=threads)
            # library-specific settings would override OMP_NUM_THREADS
            for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                env.pop(var, None)
            outputs[threads] = [
                subprocess.run(
                    [sys.executable, "-m", "resourceforge.cli", *argv],
                    env=env, capture_output=True, check=True, timeout=120,
                ).stdout
                for argv in commands
            ]
        assert all(outputs["1"])
        assert outputs["1"] == outputs["2"]


def test_import_loads_no_scipy():
    code = (
        "import sys, resourceforge, resourceforge.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout
    assert out.strip() == "[]"
