"""Command-line front end.

Every quantity is a subcommand operating on JSON files; output goes to
stdout as JSON (default) or TSV.  Exit codes: 0 success, 1 domain error
(error name on stderr), 2 parse or I/O error.  The same command line with
the same seed produces byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import io as rfio
from . import quantumness
from .entropy import (
    free_energy_gap,
    gibbs_state,
    mutual_information,
    negentropy,
    relative_entropy,
    vn_entropy,
)
from .errors import DomainError
from .monotones import (
    conversion_rate,
    majorizes,
    single_shot_noisy_transition,
    thermo_rate,
)
from .protocols import (
    bipartite_register,
    deficit_bound,
    extracted_local_purity,
    run_protocol,
)
from .quantumness import OptimizerConfig, QuantumnessResult


# file flag -> (help, loader in resourceforge.io), read in the order a
# command lists them
_FILES = {
    "state": ("path to a state JSON file", "load_state"),
    "state2": ("path to a second state", "load_state"),
    "ham": ("path to a Hamiltonian JSON file", "load_hamiltonian"),
    "script": ("path to a script JSON file", "load_script"),
}

# each flag's dest is the OptimizerConfig field it sets
_OPTIMIZER = (
    ("--restarts", {"type": int, "default": None}),
    ("--grid", {"type": int, "default": None, "dest": "grid_points",
                "help": "grid points per angle"}),
    ("--tol", {"type": float, "default": None, "dest": "tolerance"}),
    ("--seed", {"type": int, "default": None}),
)


class _Command(NamedTuple):
    """One subcommand: a handler called with the parsed arguments and the
    loaded files, the file flags it reads (in order) and its other flags."""

    help: str
    run: Callable[..., dict]
    files: tuple[str, ...] = ("state",)
    flags: tuple[tuple[str, dict], ...] = ()


def _optimizer_config(args) -> OptimizerConfig:
    """The config of the optimizer flags given; the others keep their defaults."""
    fields = (f.name for f in dataclasses.fields(OptimizerConfig))
    given = {name: getattr(args, name, None) for name in fields}
    return OptimizerConfig(**{k: v for k, v in given.items() if v is not None})


def _parse_spectrum(text: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise rfio.FileFormatError(f"bad spectrum {text!r}: {exc}") from exc
    if not values:
        raise rfio.FileFormatError(f"bad spectrum {text!r}: empty")
    return np.asarray(values)


def _parse_scalar(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise rfio.FileFormatError(f"bad number {text!r}") from exc


def _quantumness_json(result: QuantumnessResult) -> dict:
    if isinstance(result.argmin_measurement, tuple):
        measurement = {
            "A": rfio.measurement_to_json(result.argmin_measurement[0]),
            "B": rfio.measurement_to_json(result.argmin_measurement[1]),
        }
    else:
        measurement = rfio.measurement_to_json(result.argmin_measurement)
    out = {
        "value_bits": rfio.format_float(result.value),
        "measurement": measurement,
        "trace": [[i, rfio.format_float(v)] for i, v in result.trace],
    }
    if result.argmin_isometry is not None:
        out["isometry"] = rfio.matrix_to_json(result.argmin_isometry)
    return out


def _rate_json(result) -> dict:
    return {
        "rate": rfio.format_float(result.rate),
        "numerator_bits": rfio.format_float(result.numerator_bits),
        "denominator_bits": rfio.format_float(result.denominator_bits),
    }


def _bits(value: float) -> dict:
    return {"bits": rfio.format_float(value)}


def _protocol(args, rho, script) -> dict:
    final = run_protocol(bipartite_register(rho), script)
    out = rfio.state_to_json(final.state)
    out["ownership"] = list(final.ownership)
    out["extracted_purity"] = extracted_local_purity(final, args.epsilon)
    if script.mode == "CLOCC":
        out["deficit_bound"] = rfio.format_float(
            deficit_bound(rho, script, args.epsilon)
        )
    return out


def _xy_flags(help_x: str, help_y: str) -> tuple[tuple[str, dict], ...]:
    return (
        ("--x", {"required": True, "help": help_x}),
        ("--y", {"required": True, "help": help_y}),
    )


def _search_command(help_text: str, quantity: str) -> _Command:
    """A measurement search ``quantumness.<quantity>(rho, cfg)``, printed
    with its argmin and trace."""

    def run(args, rho) -> dict:
        op = getattr(quantumness, quantity)
        return _quantumness_json(op(rho, _optimizer_config(args)))

    return _Command(help_text, run, flags=_OPTIMIZER)


# Handlers reach library functions through module globals (and loaders and
# searches through their modules) when a command runs, not through
# references taken at import, so a function replaced on its module is the
# one called.
_COMMANDS = {
    "entropy": _Command(
        "von Neumann entropy in bits", lambda a, rho: _bits(vn_entropy(rho))),
    "relent": _Command(
        "relative entropy S(state || state2)",
        lambda a, rho, sigma: _bits(relative_entropy(rho, sigma)), ("state", "state2")),
    "mutinfo": _Command(
        "mutual information of a bipartite state",
        lambda a, rho: _bits(mutual_information(rho))),
    "negentropy": _Command("log2 d - S", lambda a, rho: _bits(negentropy(rho))),
    "gibbs": _Command(
        "Gibbs state of a Hamiltonian",
        lambda a, h: rfio.state_to_json(gibbs_state(h)), ("ham",)),
    "fgap": _Command(
        "free-energy gap to the Gibbs state, in bits",
        lambda a, rho, h: _bits(free_energy_gap(rho, h)), ("state", "ham")),
    "discord": _search_command("discord via measurement optimization", "discord"),
    "deficit": _search_command(
        "one-way deficit via measurement optimization", "deficit_one_way"),
    "deficit0": _search_command(
        "zero-way deficit (both sides measured)", "deficit_zero_way"),
    "discord0": _search_command(
        "zero-way discord (both sides measured)", "discord_zero_way"),
    "relent-cq": _search_command(
        "relative-entropy distance to classical-on-A states", "relent_to_cq"),
    "relent-cc": _search_command(
        "relative-entropy distance to classical-on-both states", "relent_to_cc"),
    "gendeficit": _Command(
        "deficit minimised over local embeddings",
        lambda a, rho: _quantumness_json(quantumness.generalized_deficit(
            rho, a.extra_dim, _optimizer_config(a))),
        flags=_OPTIMIZER + (("--extra-dim", {"type": int, "default": 0}),)),
    "multicopy": _Command(
        "per-copy deficit of grouped copies",
        lambda a, rho: {"value_bits_per_copy": rfio.format_float(
            quantumness.multicopy_deficit(rho, a.copies, _optimizer_config(a)))},
        flags=_OPTIMIZER + (("--copies", {"type": int, "default": 2}),)),
    "majorize": _Command(
        "majorization test on two spectra",
        lambda a: {"majorizes": majorizes(_parse_spectrum(a.x), _parse_spectrum(a.y))},
        (), _xy_flags("comma-separated spectrum", "comma-separated spectrum")),
    "transition": _Command(
        "single-shot noisy-operation transition",
        lambda a, rho, sigma: {"possible": single_shot_noisy_transition(rho, sigma)},
        ("state", "state2")),
    "rate": _Command(
        "conversion rate from two resource contents",
        lambda a: _rate_json(conversion_rate(_parse_scalar(a.x), _parse_scalar(a.y))),
        (), _xy_flags("source content in bits", "target content in bits")),
    "thermorate": _Command(
        "thermodynamic conversion rate",
        lambda a, rho, sigma, h: _rate_json(thermo_rate(rho, sigma, h)),
        ("state", "state2", "ham")),
    "protocol": _Command(
        "run a protocol script on a bipartite state", _protocol,
        ("state", "script"), (("--epsilon", {"type": float, "default": 0.01}),)),
    "validate": _Command(
        "check a state file",
        lambda a, rho: {"valid": True, "dims": list(rho.dims), "dimension": rho.dim}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resourceforge",
        description="Resource-theory quantities for small quantum states.",
    )
    parser.add_argument(
        "--out", choices=("json", "tsv"), default="json", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for f in command.files:
            p.add_argument(f"--{f}", required=True, help=_FILES[f][0])
        for flag, kwargs in command.flags:
            p.add_argument(flag, **kwargs)
    return parser


def _dispatch(args) -> dict:
    command = _COMMANDS[args.command]
    files = [getattr(rfio, _FILES[f][1])(getattr(args, f)) for f in command.files]
    return command.run(args, *files)


def _flatten(prefix: str, value, rows: list[tuple[str, str]]):
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), item, rows)
    elif isinstance(value, (list, tuple)):
        rows.append((prefix, json.dumps(value, separators=(",", ":"))))
    elif isinstance(value, bool):
        rows.append((prefix, "true" if value else "false"))
    else:
        rows.append((prefix, str(value)))


def render(result: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(result, separators=(", ", ": "))
    rows: list[tuple[str, str]] = []
    _flatten("", result, rows)
    return "\n".join(f"{key}\t{value}" for key, value in rows)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = _dispatch(args)
    except DomainError as exc:
        message = str(exc)
        name = type(exc).__name__
        print(f"{name}: {message}" if message else name, file=sys.stderr)
        return 1
    except (rfio.FileFormatError, OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(render(result, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
