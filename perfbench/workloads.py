"""Inputs, rounds and checks of the four workloads.

A workload is a list of rounds; a round is a list of tasks; a task is one
input together with the operations run on it and the check of their
outputs.  Round r of a run is made from ``numpy.random.default_rng([seed,
r])``, so the same seed gives the same inputs.  ``ROUNDS`` rounds are
built during set-up and a run that needs more cycles through them; the
outputs of a repeated round must then repeat bit for bit.
"""

from __future__ import annotations

import io as _io
import json
import math
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks

ROUNDS = 64

# The one-sided qubit search runs at the library default.  The zero-way and
# wide-A searches run 8 restarts instead of 32, so that one round stays near
# ten seconds and a run holds several rounds; the seeding lattice, the
# simplex and the polish are the same as at the default.
WIDE_RESTARTS = 8
ZERO_WAY_RESTARTS = 8

CLI_TIMEOUT_S = 120


class OperationFailed(Exception):
    """An operation raised or a CLI process exited with an error."""


@dataclass
class Case:
    """One input state: the benchmark's own matrix and the program's object."""

    kind: str
    dims: tuple
    matrix: np.ndarray
    seed: int
    closed: dict = field(default_factory=dict)
    rho: Any = None


@dataclass
class Task:
    """Operations on one input; ``check`` receives their outputs by label."""

    ops: list[tuple[str, Callable[[], Any]]]
    check: Callable[[dict], None]


# --- state construction (benchmark's own numpy) -----------------------------

def _hermitian_unit_trace(m: np.ndarray) -> np.ndarray:
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def random_full_rank(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return _hermitian_unit_trace(g @ g.conj().T)


def in_local_frame(m: np.ndarray, dims, rng: np.random.Generator) -> np.ndarray:
    u = np.kron(checks.haar_unitary(dims[0], rng), checks.haar_unitary(dims[1], rng))
    return _hermitian_unit_trace(u @ m @ u.conj().T)


_BELL_VECTORS = np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=np.complex128
) / math.sqrt(2)


def bell_diagonal(rng: np.random.Generator) -> tuple[np.ndarray, dict]:
    """Full-rank Bell-diagonal state and its closed-form parameters."""
    lam = rng.dirichlet(np.ones(4))
    m = sum(p * np.outer(v, v.conj()) for p, v in zip(lam, _BELL_VECTORS))
    return m, {"eigs": lam, "c": checks.bell_diagonal_correlations(m)}


def classical_on_a(rng: np.random.Generator, dims) -> np.ndarray:
    """sum_i p_i |a_i><a_i| x rho_i in a random basis of A."""
    d_a, d_b = dims
    basis = checks.haar_unitary(d_a, rng)
    probs = rng.dirichlet(np.ones(d_a))
    m = sum(
        p * np.kron(np.outer(basis[:, i], basis[:, i].conj()), random_full_rank(rng, d_b))
        for i, p in enumerate(probs)
    )
    return _hermitian_unit_trace(m)


def classical_classical(rng: np.random.Generator, dims) -> np.ndarray:
    d_a, d_b = dims
    ua, ub = checks.haar_unitary(d_a, rng), checks.haar_unitary(d_b, rng)
    probs = rng.dirichlet(np.ones(d_a * d_b)).reshape(d_a, d_b)
    m = sum(
        probs[i, j] * np.kron(np.outer(ua[:, i], ua[:, i].conj()),
                              np.outer(ub[:, j], ub[:, j].conj()))
        for i in range(d_a)
        for j in range(d_b)
    )
    return _hermitian_unit_trace(m)


def rotated_bell(rng: np.random.Generator) -> np.ndarray:
    v = np.kron(checks.haar_unitary(2, rng), checks.haar_unitary(2, rng)) @ _BELL_VECTORS[0]
    return _hermitian_unit_trace(np.outer(v, v.conj()))


def _case(rf, rng, kind, dims, matrix, closed=None) -> Case:
    return Case(
        kind=kind,
        dims=tuple(dims),
        matrix=matrix,
        seed=int(rng.integers(2**31)),
        closed=closed or {},
        rho=rf.validate(matrix, dims),
    )


# --- search workloads -------------------------------------------------------

_ONE_WAY_KEYS = {"deficit_one_way": "deficit", "discord": "discord", "relent_to_cq": "relent"}
_ZERO_WAY_KEYS = {"deficit_zero_way": "deficit", "discord_zero_way": "discord",
                  "relent_to_cc": "relent"}


def _call(qmod, name: str, *args):
    # looked up at call time, so tracing wrappers on the module apply
    return lambda: getattr(qmod, name)(*args)


def _search_task(qmod, case: Case, cfg, keys: dict, checker) -> Task:
    ops = [(name, _call(qmod, name, case.rho, cfg)) for name in keys]

    def check(out: dict) -> None:
        values = {keys[n]: out[n].value for n in keys}
        if checker is checks.check_one_way:
            bases = {keys[n]: out[n].argmin_measurement.basis for n in keys}
        else:
            bases = {keys[n]: tuple(m.basis for m in out[n].argmin_measurement) for n in keys}
        checker(case, values, bases)

    return Task(ops, check)


def one_way_qubits(rf, seed: int) -> list[list[Task]]:
    cfg = rf.OptimizerConfig()
    qmod = sys.modules["resourceforge.quantumness"]
    rounds = []
    for r in range(ROUNDS):
        rng = np.random.default_rng([seed, r])
        bd, closed = bell_diagonal(rng)
        cases = [
            _case(rf, rng, "random", (2, 2), random_full_rank(rng, 4)),
            _case(rf, rng, "bell-diagonal", (2, 2), in_local_frame(bd, (2, 2), rng), closed),
            _case(rf, rng, "classical", (2, 2), classical_on_a(rng, (2, 2))),
        ]
        rounds.append([_search_task(qmod, c, cfg, _ONE_WAY_KEYS, checks.check_one_way)
                       for c in cases])
    return rounds


def zero_way_qubits(rf, seed: int) -> list[list[Task]]:
    cfg = rf.OptimizerConfig(restarts=ZERO_WAY_RESTARTS)
    qmod = sys.modules["resourceforge.quantumness"]
    rounds = []
    for r in range(ROUNDS):
        rng = np.random.default_rng([seed, r])
        cases = [
            _case(rf, rng, "random", (2, 2), random_full_rank(rng, 4)),
            _case(rf, rng, "classical", (2, 2), classical_classical(rng, (2, 2))),
            _case(rf, rng, "bell", (2, 2), rotated_bell(rng)),
        ]
        rounds.append([_search_task(qmod, c, cfg, _ZERO_WAY_KEYS, checks.check_zero_way)
                       for c in cases])
    return rounds


def _two_copy_task(qmod, case: Case, cfg) -> Task:
    ops = [
        ("deficit_one_way", _call(qmod, "deficit_one_way", case.rho, cfg)),
        ("multicopy_deficit", _call(qmod, "multicopy_deficit", case.rho, 2, cfg)),
        ("generalized_deficit", _call(qmod, "generalized_deficit", case.rho, 1, cfg)),
    ]

    def check(out: dict) -> None:
        base = out["deficit_one_way"]
        checks.check_one_way(case, {"deficit": base.value},
                             {"deficit": base.argmin_measurement.basis})
        checks.check_multicopy(out["multicopy_deficit"], base.value)
        gen = out["generalized_deficit"]
        checks.check_generalized(case, gen.value, gen.argmin_isometry,
                                 gen.argmin_measurement.basis, base.value)

    return Task(ops, check)


def wide_a(rf, seed: int) -> list[list[Task]]:
    cfg = rf.OptimizerConfig(restarts=WIDE_RESTARTS)
    qmod = sys.modules["resourceforge.quantumness"]
    keys = {"deficit_one_way": "deficit", "discord": "discord"}
    rounds = []
    for r in range(ROUNDS):
        rng = np.random.default_rng([seed, r])
        cases = [
            _case(rf, rng, "random", (3, 2), random_full_rank(rng, 6)),
            _case(rf, rng, "random", (3, 3), random_full_rank(rng, 9)),
            _case(rf, rng, "classical", (3, 2), classical_on_a(rng, (3, 2))),
        ]
        tasks = [_search_task(qmod, c, cfg, keys, checks.check_one_way) for c in cases]
        pair = _case(rf, rng, "random", (2, 2), random_full_rank(rng, 4))
        tasks.append(_two_copy_task(qmod, pair, cfg))
        rounds.append(tasks)
    return rounds


# --- CLI workload -------------------------------------------------------------

def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _state_file(workdir: Path, name: str, m: np.ndarray, dims) -> str:
    return _write(workdir / name, {"dims": list(dims), "matrix": _matrix_json(m)})


def _cli_op(argv: list[str], env: dict, cli_module) -> Callable[[], dict]:
    """Run one CLI command: a fresh process, or ``main`` in-process when
    ``cli_module`` is given (the traced run)."""
    if cli_module is not None:
        def run_in_process() -> dict:
            buf = _io.StringIO()
            with redirect_stdout(buf):
                code = cli_module.main(argv)
            if code != 0:
                raise OperationFailed(f"cli {argv[0]} exited {code}")
            return json.loads(buf.getvalue())
        return run_in_process

    def run_process() -> dict:
        proc = subprocess.run(
            [sys.executable, "-m", "resourceforge.cli", *argv],
            env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise OperationFailed(
                f"cli {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}"
            )
        return json.loads(proc.stdout)
    return run_process


def _expect_bits(expected: float, tol: float = 1e-9):
    def check(out: dict) -> None:
        checks.expect_close(float(out["bits"]), expected, tol, "bits")
    return check


def cli_files(rf, seed: int, workdir: Path, env: dict,
              in_process: bool = False) -> list[list[Task]]:
    """Thirteen CLI commands on files written here; every round repeats them."""
    cli_module = sys.modules["resourceforge.cli"] if in_process else None
    rng = np.random.default_rng([seed, 0])
    workdir.mkdir(parents=True, exist_ok=True)

    bell = rotated_bell(rng)
    bell_path = _state_file(workdir, "bell.json", bell, (2, 2))
    rho, sigma = random_full_rank(rng, 4), random_full_rank(rng, 4)
    rho_path = _state_file(workdir, "rho.json", rho, (2, 2))
    sigma_path = _state_file(workdir, "sigma.json", sigma, (2, 2))

    # H = U diag(0, E) U^dag at beta = ln 2 / E: Gibbs state U diag(2/3, 1/3) U^dag
    u = checks.haar_unitary(2, rng)
    energy = float(rng.uniform(0.5, 2.0))
    ham = u @ np.diag([0.0, energy]) @ u.conj().T
    ham = (ham + ham.conj().T) / 2
    ham_path = _write(workdir / "ham.json",
                      {"beta": math.log(2) / energy, "matrix": _matrix_json(ham)})
    ground = np.outer(u[:, 0], u[:, 0].conj())
    excited = np.outer(u[:, 1], u[:, 1].conj())
    ground_path = _state_file(workdir, "ground.json", (ground + ground.conj().T) / 2, (2,))
    excited_path = _state_file(workdir, "excited.json", (excited + excited.conj().T) / 2, (2,))
    gibbs_ref = u @ np.diag([2 / 3, 1 / 3]) @ u.conj().T

    x = rng.dirichlet(np.ones(5))
    weights = rng.dirichlet(np.ones(3))
    y = sum(w * x[rng.permutation(5)] for w in weights)
    source_bits, target_bits = (float(v) for v in rng.uniform(0.1, 3.0, size=2))

    pure = np.zeros((4, 4), dtype=np.complex128)
    pure[0, 0] = 1.0
    pure = in_local_frame(pure, (2, 2), rng)
    pure_path = _state_file(workdir, "pure.json", pure, (2, 2))

    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    k = int(rng.integers(4))
    pair = np.zeros(4, dtype=np.complex128)
    pair[[0, 3] if k < 2 else [1, 2]] = [1.0, phase * (-1) ** k]
    pair /= math.sqrt(2)
    protocol_state = _state_file(workdir, "protocol_state.json",
                                 np.outer(pair, pair.conj()), (2, 2))
    cnot = np.eye(4)[[0, 1, 3, 2]]
    script_path = _write(workdir / "script.json", {"mode": "CLOCC", "steps": [
        {"op": "SendQubit", "from": "A", "qubit": 0},
        {"op": "LocalUnitary", "side": "B", "matrix": _matrix_json(cnot)},
    ]})

    validate_dims = [(2, 3), (3, 2), (2, 2, 2)][int(rng.integers(3))]
    validate_path = _state_file(workdir, "validate.json",
                                random_full_rank(rng, int(np.prod(validate_dims))),
                                validate_dims)
    big = random_full_rank(rng, 256)
    big_path = _state_file(workdir, "big.json", big, (16, 16))
    search = random_full_rank(rng, 4)
    search_path = _state_file(workdir, "search.json", search, (2, 2))

    def check_gibbs(out):
        checks.expect(out["dims"] == [2], "gibbs dims")
        got = np.array([[complex(*z) for z in row] for row in out["matrix"]])
        checks.expect(float(np.max(np.abs(got - gibbs_ref))) <= 1e-9,
                      "gibbs state differs from U diag(2/3, 1/3) U^dag")

    def check_majorize(out):
        prefix = np.cumsum(np.sort(x)[::-1]) >= np.cumsum(np.sort(y)[::-1]) - 1e-9
        checks.expect(out["majorizes"] is True and bool(prefix.all()),
                      "y = D x for bistochastic D, so x must majorize y")

    def check_rate(out):
        checks.expect_close(float(out["rate"]), source_bits / target_bits,
                            1e-10 * source_bits / target_bits, "conversion rate")

    def check_thermorate(out):
        checks.expect_close(float(out["rate"]), math.log2(1.5) / math.log2(3), 1e-9,
                            "thermodynamic rate")

    def check_protocol(out):
        checks.expect(out["ownership"] == ["B", "B"], "ownership after SendQubit")
        checks.expect(out["extracted_purity"] == 1, "one pure qubit after CNOT")
        checks.expect_close(float(out["deficit_bound"]), 1.0, 1e-9, "protocol bound")

    def check_validate(out):
        checks.expect(out == {"valid": True, "dims": list(validate_dims),
                              "dimension": int(np.prod(validate_dims))},
                      f"validate output {out}")

    def check_search(out):
        basis = np.array([[complex(*z) for z in row] for row in out["measurement"]["basis"]])
        value = float(out["value_bits"])
        at = checks.one_way_at(search, (2, 2), basis)
        checks.expect_close(value, at["deficit"], 1e-8, "CLI deficit at its argmin")
        checks.expect_close(at["relent"], at["deficit"], 1e-8, "pinching identity")
        # 4 restarts on a 4-point grid need not reach the global minimum, so
        # the Bloch-grid bound is not applied here

    commands = [
        (["entropy", "--state", bell_path], _expect_bits(0.0)),
        (["mutinfo", "--state", bell_path], _expect_bits(2.0)),
        (["relent", "--state", rho_path, "--state2", sigma_path],
         _expect_bits(checks.relative_entropy(rho, sigma))),
        (["gibbs", "--ham", ham_path], check_gibbs),
        (["fgap", "--state", ground_path, "--ham", ham_path], _expect_bits(math.log2(1.5))),
        (["majorize", "--x", ",".join(repr(float(v)) for v in x),
          "--y", ",".join(repr(float(v)) for v in y)], check_majorize),
        (["transition", "--state", pure_path, "--state2", sigma_path],
         lambda out: checks.expect(out["possible"] is True, "pure -> mixed transition")),
        (["rate", "--x", repr(source_bits), "--y", repr(target_bits)], check_rate),
        (["thermorate", "--state", ground_path, "--state2", excited_path,
          "--ham", ham_path], check_thermorate),
        (["protocol", "--state", protocol_state, "--script", script_path], check_protocol),
        (["validate", "--state", validate_path], check_validate),
        (["mutinfo", "--state", big_path],
         _expect_bits(checks.mutual_information(big, (16, 16)))),
        (["deficit", "--state", search_path, "--restarts", "4", "--grid", "4"], check_search),
    ]
    tasks = []
    for argv, check in commands:
        label = "mutinfo-256" if big_path in argv else argv[0]
        tasks.append(Task([(label, _cli_op(argv, env, cli_module))],
                          lambda out, check=check, label=label: check(out[label])))
    return [tasks]


def searches(rf, seed: int) -> list[list[Task]]:
    """Round r of each search workload, run one after another as one round."""
    families = (one_way_qubits(rf, seed), zero_way_qubits(rf, seed), wide_a(rf, seed))
    return [[task for rounds in parts for task in rounds] for parts in zip(*families)]


SEARCH_WORKLOADS = {
    "searches": searches,
    "one-way-qubits": one_way_qubits,
    "zero-way-qubits": zero_way_qubits,
    "wide-a": wide_a,
}
