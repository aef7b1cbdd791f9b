"""Reference figures: one call of each optimised quantity on a random 2x2 state.

    python3 perfbench/baseline.py

Each quantity runs once untraced (the time) and once traced (the counts),
at the default ``OptimizerConfig`` with BLAS pinned to one thread.  Prints
a Markdown table for the README; these figures are for reference only and
are not part of the benchmark's metrics.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
import time
import timeit
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402

import resourceforge as rf  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import random_full_rank  # noqa: E402

CALLS = [
    ("deficit_one_way", lambda rho, cfg: rf.deficit_one_way(rho, cfg)),
    ("discord", lambda rho, cfg: rf.discord(rho, cfg)),
    ("deficit_zero_way", lambda rho, cfg: rf.deficit_zero_way(rho, cfg)),
    ("discord_zero_way", lambda rho, cfg: rf.discord_zero_way(rho, cfg)),
    ("relent_to_cq", lambda rho, cfg: rf.relent_to_cq(rho, cfg)),
    ("relent_to_cc", lambda rho, cfg: rf.relent_to_cc(rho, cfg)),
    ("generalized_deficit(+1)", lambda rho, cfg: rf.generalized_deficit(rho, 1, cfg)),
    ("multicopy_deficit(n=2)", lambda rho, cfg: rf.multicopy_deficit(rho, 2, cfg)),
]


def main() -> None:
    rho = rf.validate(random_full_rank(np.random.default_rng(0), 4), (2, 2))
    cfg = rf.OptimizerConfig()
    print("| quantity | time (s) | chart builds outside `minimize` "
          "| objective evaluations in `minimize` | `minimize` calls |")
    print("|---|---|---|---|---|")
    for name, call in CALLS:
        start = time.perf_counter()
        call(rho, cfg)
        elapsed = time.perf_counter() - start
        with Tracer() as tracer:
            call(rho, cfg)
        m = tracer.metrics()
        print(f"| `{name}` | {elapsed:.2f} | {m['quantumness.seed_evals']} "
              f"| {m['quantumness.search_evals']} | {m['quantumness.restarts']} |")
    for d in (2, 16):
        params = np.linspace(0.1, 1.0, rf.param_count(d))
        n = 2000 if d == 2 else 50
        per_call = timeit.timeit(lambda: rf.unitary_from_params(params, d), number=n) / n
        print(f"\n`unitary_from_params` at d={d}: {per_call * 1e6:.1f} us per call")


if __name__ == "__main__":
    main()
