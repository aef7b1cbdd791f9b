"""Per-layer counters and spans, collected by wrapping functions from outside.

Each target is named by the module the program imports it from.  While a
:class:`Tracer` is installed, every module of ``resourceforge`` that holds
the target object under any name, and the target's own module, see a
wrapper instead.  A target that no longer exists is skipped, so its
counters read 0.  Nothing inside the program is edited.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

_clock = time.perf_counter

# (module, attribute, metric prefix)
TIMED = [
    ("resourceforge.measurements", "unitary_from_params", "measurements.unitary_from_params"),
    ("resourceforge.measurements", "measure_local", "measurements.measure_local"),
    ("resourceforge.measurements", "measure_both", "measurements.measure_both"),
    ("resourceforge.entropy", "relative_entropy", "entropy.relative_entropy"),
    ("resourceforge.entropy", "shannon_bits", "entropy.shannon_bits"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
    ("resourceforge.states", "partial_trace", "states.partial_trace"),
    ("resourceforge.states", "tensor", "states.tensor"),
    ("resourceforge.states", "permute_subsystems", "states.permute_subsystems"),
    ("resourceforge.states", "validate", "states.validate"),
    ("resourceforge.io", "load_state", "io.load_state"),
    ("resourceforge.cli", "render", "cli.render"),
]
MINIMIZE = ("resourceforge.quantumness", "minimize")
PUBLIC = [
    ("resourceforge.quantumness", name)
    for name in (
        "deficit_one_way", "discord", "deficit_zero_way", "discord_zero_way",
        "relent_to_cq", "relent_to_cc", "generalized_deficit", "multicopy_deficit",
    )
]


def _resolve(module_name: str, attr: str):
    try:
        module = sys.modules.get(module_name) or importlib.import_module(module_name)
    except ImportError:
        return None, None
    return module, getattr(module, attr, None)


class Tracer:
    """Install with ``with Tracer() as tracer:``; read :meth:`metrics` after."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.time_s = defaultdict(float)
        self.matrices = 0
        self.seed_charts = 0
        self.search_evals = 0
        self.restarts = 0
        self.converged = 0
        self.nit = 0
        self.minimize_s = 0.0
        self.seed_s = 0.0
        self.spans: list[dict] = []
        self._in_minimize = 0
        self._public_depth = 0
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def _patch(self, home, original, wrapper) -> None:
        holders = [home] + [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "resourceforge" or name.startswith("resourceforge."))
        ]
        seen = set()
        for module in holders:
            if id(module) in seen:
                continue
            seen.add(id(module))
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def __enter__(self) -> "Tracer":
        for module_name, attr, key in TIMED:
            home, original = _resolve(module_name, attr)
            if original is not None:
                self._patch(home, original, self._timed(original, key))
        home, original = _resolve(*MINIMIZE)
        if original is not None:
            self._patch(home, original, self._minimize(original))
        for module_name, attr in PUBLIC:
            home, original = _resolve(module_name, attr)
            if original is not None:
                self._patch(home, original, self._public(original, attr))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- wrappers ------------------------------------------------------------

    def _timed(self, fn, key):
        calls, times = self.calls, self.time_s
        is_chart = key == "measurements.unitary_from_params"
        is_eig = key == "linalg.eigvalsh"

        def wrapper(*args, **kwargs):
            if is_chart and not self._in_minimize:
                self.seed_charts += 1
            if is_eig:
                shape = getattr(args[0], "shape", None)
                batch = 1
                if shape is not None:
                    for n in shape[:-2]:
                        batch *= n
                self.matrices += batch
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                times[key] += _clock() - start
                calls[key] += 1

        return wrapper

    def _span(self, name: str, start: float, end: float, parent) -> None:
        self.spans.append({"name": name, "start": start, "end": end, "parent": parent})

    def _minimize(self, fn):
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            self._in_minimize += 1
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                self._in_minimize -= 1
            self.minimize_s += end - start
            self.restarts += 1
            self.converged += bool(getattr(result, "success", False))
            self.nit += int(getattr(result, "nit", 0))
            self.search_evals += int(getattr(result, "nfev", 0))
            self._span("minimize", start, end, parent)
            return result

        return wrapper

    def _public(self, fn, name):
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            outer = self._public_depth == 0
            self._public_depth += 1
            self._open.append(len(self.spans))
            self._span(name, 0.0, 0.0, parent)
            minimize_before = self.minimize_s
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                self._public_depth -= 1
                span = self.spans[self._open.pop()]
                span["start"], span["end"] = start, end
                if outer:
                    self.seed_s += (end - start) - (self.minimize_s - minimize_before)

        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric values, keyed by BENCHMARK.json name."""
        out = {
            "quantumness.seed_evals": self.seed_charts,
            "quantumness.search_evals": self.search_evals,
            "quantumness.restarts": self.restarts,
            "quantumness.restarts_converged_ratio":
                self.converged / self.restarts if self.restarts else 0.0,
            "quantumness.nit": self.nit,
            "quantumness.minimize_s": self.minimize_s,
            "quantumness.seed_s": self.seed_s,
            "linalg.eigvalsh.matrices": self.matrices,
        }
        for _module, _attr, key in TIMED:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.time_s"] = self.time_s[key]
        chart = "measurements.unitary_from_params"
        out[f"{chart}.mean_us"] = (
            1e6 * self.time_s[chart] / self.calls[chart] if self.calls[chart] else 0.0
        )
        return out
