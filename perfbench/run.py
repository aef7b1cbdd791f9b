"""Run one benchmark workload and print its metrics as JSON on the last line.

    python3 perfbench/run.py --workload searches --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run repeats whole tasks, in round
order, until ``--seconds`` have passed and one round is complete, and
reports the end-to-end metrics.  With ``--trace 1`` it runs round 0 once
untraced and once with per-layer wrappers installed, and reports the
per-layer metrics.  Outputs are checked after timing; ``correct`` is
false if any check fails.
"""

import os

# BLAS reads these when numpy loads: pin before anything imports it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

_FALLBACK_START = time.perf_counter()

import checks  # noqa: E402  (imports numpy, after the pinning above)
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# BENCHMARK.json runs ``searches`` and ``cli-files``; the three single-search
# workloads that ``searches`` joins stay runnable for a closer look at one.
WORKLOAD_NAMES = ("searches", "cli-files", "one-way-qubits", "zero-way-qubits", "wide-a")


def _seconds_since_process_start() -> float:
    """Wall time since this process started (10 ms resolution on Linux)."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _FALLBACK_START


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _fingerprint(output) -> str:
    """Bit-exact summary of an output, for comparing repeated runs."""
    if hasattr(output, "value"):
        parts = [repr(float(output.value))]
        measured = output.argmin_measurement
        for m in measured if isinstance(measured, tuple) else (measured,):
            parts.append(m.basis.tobytes().hex())
        return "|".join(parts)
    if isinstance(output, float):
        return repr(output)
    return json.dumps(output, sort_keys=True)


class Runner:
    """Executes rounds, times every operation and keeps outputs for checks."""

    def __init__(self, rounds):
        self.rounds = rounds
        # (task index within its round, label) -> wall times of successful calls
        self.slot_durations: dict[tuple[int, str], list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        # (round index, task index) -> outputs by label
        self.outputs: dict[tuple[int, int], dict] = {}
        self.mismatches: list[str] = []

    def run_round(self, r: int) -> None:
        for t in range(len(self.rounds[r])):
            self.run_task(r, t)

    def run_task(self, r: int, t: int) -> None:
        task = self.rounds[r][t]
        outs = {}
        for label, op in task.ops:
            self.attempted += 1
            start = time.perf_counter()
            try:
                outs[label] = op()
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += 1
                print(f"operation {label} failed: {exc!r}", file=sys.stderr)
                continue
            self.slot_durations[(t, label)].append(time.perf_counter() - start)
        self._keep((r, t), outs)

    def _keep(self, key, outs: dict) -> None:
        previous = self.outputs.get(key)
        if previous is None:
            self.outputs[key] = outs
            return
        for label, out in outs.items():
            if label in previous and _fingerprint(previous[label]) != _fingerprint(out):
                self.mismatches.append(f"round {key[0]} {label}: output changed on repeat")

    def check(self) -> bool:
        ok = not self.mismatches
        for msg in self.mismatches:
            print(f"check failed: {msg}", file=sys.stderr)
        for (r, t), outs in sorted(self.outputs.items()):
            task = self.rounds[r][t]
            if len(outs) != len(task.ops):
                continue  # a failed operation is already counted in ``failed``
            try:
                task.check(outs)
            except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
                ok = False
                print(f"check failed in round {r} task {t}: {exc}", file=sys.stderr)
        return ok


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _import_seconds(env: dict) -> float:
    """Median of three fresh ``import resourceforge.cli`` in new interpreters."""
    code = ("import time; t = time.perf_counter(); import resourceforge.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip()))
    return statistics.median(samples)


def _harrell_davis_median(values) -> float:
    """Harrell-Davis estimate of the median: a mean of the order statistics
    weighted by a Beta((n+1)/2, (n+1)/2) distribution.  A round's call times
    form clusters (0.2-0.7 s, 0.8-1.5 s and 2-4 s on ``searches``), and the
    plain median of a few dozen of them jumps between clusters when one
    call moves."""
    from scipy.special import betainc

    xs = sorted(values)
    a = (len(xs) + 1) / 2
    edges = betainc(a, a, [i / len(xs) for i in range(len(xs) + 1)])
    return float(sum(x * (hi - lo) for x, lo, hi in zip(xs, edges, edges[1:])))


def _timed_run(runner: Runner, seconds: float, workload_name: str, setup_s: float) -> dict:
    """Repeat tasks in round order until ``seconds`` have passed.

    The run steps task by task, so it overshoots ``seconds`` by at most one
    task, and it ends no earlier than the end of its first round.  Rounds
    mix cheap and expensive operations, so where a run stops would sway a
    plain count over wall time.  Both speed metrics are therefore taken per
    slot, an operation at its place in the round (``deficit_zero_way`` on
    the second state, say), from the wall times of all its calls:
    ``quantities_per_s`` is the operations in one round over the sum of
    the slots' mean times, and ``call_p50_s`` the Harrell-Davis median of
    the slots' median times.
    """
    order = [(r, t) for r, tasks in enumerate(runner.rounds) for t in range(len(tasks))]
    round_size = len(runner.rounds[0])
    start = time.perf_counter()
    k = 0
    while k < round_size or time.perf_counter() - start < seconds:
        runner.run_task(*order[k % len(order)])
        k += 1
    wall = time.perf_counter() - start
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-files" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    slots = list(runner.slot_durations.values())
    print(f"{workload_name}: {k} tasks, {runner.attempted} operations in {wall:.3f} s",
          file=sys.stderr)
    return {
        "setup_s": _metric(setup_s, "s"),
        "quantities_per_s": _metric(len(slots) / sum(map(statistics.fmean, slots)), "1/s"),
        "call_p50_s": _metric(_harrell_davis_median([statistics.median(d) for d in slots]), "s"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
    }


def _traced_run(plain: Runner, traced: Runner, workload_name: str, env: dict,
                seed: int) -> dict:
    start = time.perf_counter()
    plain.run_round(0)
    untraced_s = time.perf_counter() - start
    with Tracer() as tracer:
        start = time.perf_counter()
        traced.run_round(0)
        traced_s = time.perf_counter() - start
    for key, outs in traced.outputs.items():
        for label, out in outs.items():
            if _fingerprint(out) != _fingerprint(plain.outputs.get(key, {}).get(label)):
                plain.mismatches.append(f"{label}: traced output differs from untraced")
    values = tracer.metrics()
    values["cli.import_s"] = _import_seconds(env) if workload_name == "cli-files" else 0.0
    values["trace.wall_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{workload_name}-seed{seed}.json").write_text(
        json.dumps({"metrics": values, "spans": tracer.spans})
    )
    units = _per_layer_units()
    return {name: _metric(values.get(name, 0), unit) for name, unit in units.items()}


def _per_layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "resourceforge" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'resourceforge'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import resourceforge as rf
    import resourceforge.cli  # noqa: F401  (the CLI workload runs main in-process)
    if not Path(rf.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"resourceforge imported from {rf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    env = _child_env()
    try:
        if args.workload == "cli-files":
            rounds = workloads.cli_files(rf, args.seed, workdir, env, in_process=args.trace)
        else:
            rounds = workloads.SEARCH_WORKLOADS[args.workload](rf, args.seed)
        setup_s = _seconds_since_process_start()
        if args.trace:
            runners = [Runner(rounds), Runner(rounds)]
            metrics = _traced_run(*runners, args.workload, env, args.seed)
        else:
            runners = [Runner(rounds)]
            metrics = _timed_run(runners[0], args.seconds, args.workload, setup_s)
        correct = all([r.check() for r in runners])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in runners),
        "failed": sum(r.failed for r in runners),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
