"""Self-tests of the benchmark's checks: each accepts a correct output and
rejects a perturbed one.

    python3 -m pytest -q perfbench/selftest_checks.py

The file name keeps it out of the repository's default test collection.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
import resourceforge as rf  # noqa: E402
import resourceforge.cli  # noqa: E402,F401
from checks import CheckFailed  # noqa: E402

FAST = rf.OptimizerConfig(restarts=4)


def _case(kind, m, dims=(2, 2), closed=None):
    return workloads.Case(kind, dims, m, seed=7, closed=closed or {}, rho=rf.validate(m, dims))


@pytest.fixture(scope="module")
def random_case():
    return _case("random", workloads.random_full_rank(np.random.default_rng(1), 4))


@pytest.fixture(scope="module")
def one_way(random_case):
    rho = random_case.rho
    out = {"deficit": rf.deficit_one_way(rho, FAST), "discord": rf.discord(rho, FAST),
           "relent": rf.relent_to_cq(rho, FAST)}
    return ({q: r.value for q, r in out.items()},
            {q: r.argmin_measurement.basis for q, r in out.items()})


@pytest.fixture(scope="module")
def zero_way(random_case):
    rho = random_case.rho
    out = {"deficit": rf.deficit_zero_way(rho, FAST), "discord": rf.discord_zero_way(rho, FAST),
           "relent": rf.relent_to_cc(rho, FAST)}
    return ({q: r.value for q, r in out.items()},
            {q: tuple(m.basis for m in r.argmin_measurement) for q, r in out.items()})


def test_one_way_accepts_program_output(random_case, one_way):
    checks.check_one_way(random_case, *one_way)


@pytest.mark.parametrize("q", ["deficit", "discord", "relent"])
def test_argmin_rejects_shifted_value(random_case, one_way, q):
    values, bases = one_way
    with pytest.raises(CheckFailed, match="re-evaluated"):
        checks.check_argmin_one_way(random_case, q, values[q] + 1e-6, bases[q])


@pytest.mark.parametrize("q", ["deficit", "discord", "relent"])
def test_argmin_rejects_other_basis(random_case, one_way, q):
    values, _ = one_way
    other = checks.haar_unitary(2, np.random.default_rng(3))
    with pytest.raises(CheckFailed, match="re-evaluated"):
        checks.check_argmin_one_way(random_case, q, values[q], other)


def test_pinching_identity_rejects_a_non_projective_family(random_case, one_way):
    values, bases = one_way
    # columns that are not orthonormal make a map that is not a pinching
    skewed = bases["deficit"] @ np.array([[1.0, 0.05], [0.0, 1.0]])
    with pytest.raises(CheckFailed):
        checks.check_argmin_one_way(random_case, "deficit", values["deficit"], skewed)


def test_bloch_grid_rejects_a_non_minimal_measurement(random_case):
    basis = checks.haar_unitary(2, np.random.default_rng(5))
    at = checks.one_way_at(random_case.matrix, random_case.dims, basis)
    values = {q: at[q] for q in ("deficit", "discord", "relent")}
    checks.check_argmin_one_way(random_case, "deficit", values["deficit"], basis)
    with pytest.raises(CheckFailed, match="Bloch-sphere grid"):
        checks.check_upper_bounds(
            values, checks.qubit_grid_one_way(random_case.matrix, (2, 2)),
            "Bloch-sphere grid")


def test_sampled_bound_rejects_a_non_minimal_measurement():
    case = _case("random", workloads.random_full_rank(np.random.default_rng(2), 6), (3, 2))
    result = rf.deficit_one_way(case.rho, FAST)
    bound = checks.sampled_one_way(case.matrix, case.dims, np.random.default_rng(0))
    checks.check_upper_bounds({"deficit": result.value}, bound, "sampled bases")
    worst = bound["deficit"] + 0.05
    with pytest.raises(CheckFailed, match="sampled bases"):
        checks.check_upper_bounds({"deficit": worst}, bound, "sampled bases")


def test_orderings_reject_swapped_values(one_way):
    values, _ = one_way
    checks.check_orderings(values)
    with pytest.raises(CheckFailed, match="discord <= deficit"):
        checks.check_orderings({"discord": values["deficit"] + 1e-5,
                                "deficit": values["deficit"]})
    with pytest.raises(CheckFailed, match="relative-entropy minimum"):
        checks.check_orderings({"relent": values["deficit"] + 1e-5,
                                "deficit": values["deficit"]})


def test_vanishing_rejects_a_positive_value():
    case = _case("classical", workloads.classical_on_a(np.random.default_rng(4), (2, 2)))
    values = {"deficit": rf.deficit_one_way(case.rho, FAST).value}
    checks.check_vanishing(values, "CQ")
    with pytest.raises(CheckFailed, match="CQ"):
        checks.check_vanishing({"deficit": 2e-6}, "CQ")


def test_bell_diagonal_closed_forms_match_the_grid_and_reject_a_shift():
    rng = np.random.default_rng(6)
    m, closed = workloads.bell_diagonal(rng)
    case = _case("bell-diagonal", workloads.in_local_frame(m, (2, 2), rng), closed=closed)
    grid = checks.qubit_grid_one_way(case.matrix, (2, 2), 200, 400)
    exact = {"deficit": checks.bell_diagonal_deficit(closed["eigs"], closed["c"]),
             "discord": checks.luo_discord(closed["eigs"], closed["c"])}
    # the closed forms are minima: at or below the fine grid, and close to it
    for q in exact:
        assert exact[q] <= grid[q] + 1e-9 and grid[q] - exact[q] < 1e-3
    checks.check_bell_diagonal(case, exact)
    for q in exact:
        with pytest.raises(CheckFailed, match="closed form"):
            checks.check_bell_diagonal(case, {q: exact[q] + 2e-6})


def test_zero_way_accepts_program_output_and_rejects_perturbations(random_case, zero_way):
    values, bases = zero_way
    checks.check_zero_way(random_case, values, bases)
    for q in values:
        with pytest.raises(CheckFailed, match="re-evaluated"):
            checks.check_argmin_zero_way(random_case, q, values[q] - 1e-6, bases[q])
    other = checks.haar_unitary(2, np.random.default_rng(8))
    at = checks.zero_way_at(random_case.matrix, (2, 2), other, other)
    with pytest.raises(CheckFailed, match="two-sided Bloch grid"):
        checks.check_upper_bounds({"deficit": at["deficit"]},
                                  checks.qubit_grid_zero_way(random_case.matrix),
                                  "two-sided Bloch grid")


def test_zero_way_bell_values():
    case = _case("bell", workloads.rotated_bell(np.random.default_rng(9)))
    result = rf.deficit_zero_way(case.rho, FAST)
    bases = {"deficit": tuple(m.basis for m in result.argmin_measurement)}
    checks.check_zero_way(case, {"deficit": result.value}, bases)
    with pytest.raises(CheckFailed, match="Bell state"):
        checks.check_bell({"deficit": 1.0 + 2e-6})


def test_generalized_and_multicopy_checks(random_case, one_way):
    values, bases = one_way
    base = values["deficit"]
    identity = np.vstack([np.eye(2), np.zeros((1, 2))])
    extended = np.eye(3, dtype=np.complex128)
    extended[:2, :2] = bases["deficit"]
    checks.check_generalized(random_case, base, identity, extended, base)
    with pytest.raises(CheckFailed, match="isometry"):
        checks.check_generalized(random_case, base, 1.001 * identity, extended, base)
    with pytest.raises(CheckFailed, match="at its argmin"):
        checks.check_generalized(random_case, base - 1e-4, identity, extended, base)
    with pytest.raises(CheckFailed, match="<= deficit_one_way"):
        checks.check_generalized(random_case, base, identity, extended, base - 1e-4)
    checks.check_multicopy(base - 0.01, base)
    with pytest.raises(CheckFailed, match="per copy"):
        checks.check_multicopy(base + 2e-3, base)
    with pytest.raises(CheckFailed, match="negative"):
        checks.check_multicopy(-1e-3, base)


def _perturb(label, out):
    out = dict(out)
    if "bits" in out:
        out["bits"] = float(out["bits"]) + 1e-6
    elif label == "gibbs":
        out["matrix"] = [[[re + 1e-6, im] for re, im in row] for row in out["matrix"]]
    elif label == "majorize":
        out["majorizes"] = not out["majorizes"]
    elif label == "transition":
        out["possible"] = not out["possible"]
    elif "rate" in out:
        out["rate"] = float(out["rate"]) * (1 + 1e-6)
    elif label == "protocol":
        out["deficit_bound"] = float(out["deficit_bound"]) + 1e-6
    elif label == "validate":
        out["dimension"] += 1
    elif label == "deficit":
        out["value_bits"] = float(out["value_bits"]) + 1e-6
    else:
        raise AssertionError(f"no perturbation for {label}")
    return out


def test_cli_checks_accept_outputs_and_reject_perturbed_ones(tmp_path):
    (tasks,) = workloads.cli_files(rf, 3, tmp_path, env={}, in_process=True)
    assert len(tasks) == 13
    for task in tasks:
        (label, op), = task.ops
        out = op()
        task.check({label: out})
        with pytest.raises(CheckFailed):
            task.check({label: _perturb(label, out)})


def test_closed_form_constants():
    assert math.isclose(checks.luo_discord([1.0, 0, 0, 0], np.array([1.0, -1.0, 1.0])), 1.0)
    assert math.isclose(checks.bell_diagonal_deficit([0.25] * 4, np.zeros(3)), 0.0,
                        abs_tol=1e-12)
