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
from helpers import bell

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
        m = rf.measurement_from_params([0.3, 1.1, 2.0], 2)
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
        bad = write_json(tmp_path / "bad.json", {"restars": 4})
        with pytest.raises(rfio.FileFormatError):
            rfio.load_optimizer_config(bad)

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
        assert len(result["trace"]) == 5  # restarts plus the polish entry

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
        commands = [
            ["relent-cq", "--state", state, "--restarts", "4", "--grid", "4"],
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
