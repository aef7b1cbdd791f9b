"""State machine for closed and noisy LOCC protocols on bipartite registers.

A register is a state plus a per-subsystem ownership label (A or B).
Steps never create purity: every primitive is unital or a partial trace.
Classical communication is one fixed primitive, sending a single qubit
through a computational-basis dephasing channel; other dephasing bases are
reached by conjugating with local unitaries, which is equivalent in
expressive power for scripts.

Pure-qubit counting is a single-shot proxy: the asymptotic localisable
rate is not computed here.  ``extracted_local_purity`` counts qubits whose
joint state has fidelity at least 1 - epsilon with a product of their top
eigenvectors, which lower-bounds what an exact accounting would give.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyKeepSet,
    IllegalStepForMode,
    IndexOutOfRange,
    NotUnitary,
)
from .entropy import vn_entropy
from .measurements import dephasing_channel
from .states import (
    DensityMatrix,
    _check_orthonormal,
    _check_subsystem,
    _conjugate_site,
    _finite_matrix,
    _integer,
    check_dimension_cap,
    maximally_mixed,
    partial_trace,
    permute_subsystems,
    require_bipartite,
    tensor,
)

SIDES = ("A", "B")
MODES = ("CLOCC", "NLOCC")


def _check_side(side: str) -> str:
    if side not in SIDES:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return side


@dataclass(frozen=True)
class LocalUnitary:
    """Unitary acting jointly on all subsystems owned by one side."""

    side: str
    matrix: np.ndarray

    def __post_init__(self):
        _check_side(self.side)
        m = _finite_matrix(self.matrix)
        _check_orthonormal(m, NotUnitary)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class AddMaxMixedAncilla:
    """Append a maximally mixed ancilla owned by one side (noisy mode only)."""

    side: str
    dim: int

    def __post_init__(self):
        _check_side(self.side)
        _integer(self.dim, "ancilla dimension", 2)


@dataclass(frozen=True)
class LocalPartialTrace:
    """Discard one subsystem owned by one side."""

    side: str
    subsystem: int

    def __post_init__(self):
        _check_side(self.side)
        _integer(self.subsystem, "subsystem")


@dataclass(frozen=True)
class SendQubit:
    """Send one qubit through the dephasing channel; ownership flips."""

    from_side: str
    qubit: int

    def __post_init__(self):
        _check_side(self.from_side)
        _integer(self.qubit, "qubit")


ProtocolStep = Union[LocalUnitary, AddMaxMixedAncilla, LocalPartialTrace, SendQubit]


@dataclass(frozen=True)
class ProtocolScript:
    mode: str
    steps: tuple[ProtocolStep, ...]

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.mode == "CLOCC":
            for k, step in enumerate(self.steps):
                if isinstance(step, AddMaxMixedAncilla):
                    raise IllegalStepForMode(
                        f"step {k}: ancillas are not available in CLOCC"
                    )


@dataclass(frozen=True)
class Register:
    """A state together with the owner of each subsystem."""

    state: DensityMatrix
    ownership: tuple[str, ...]

    def __post_init__(self):
        owners = tuple(self.ownership)
        if len(owners) != len(self.state.dims):
            raise DimensionMismatch(
                f"{len(owners)} ownership labels for {len(self.state.dims)} subsystems"
            )
        for o in owners:
            _check_side(o)
        object.__setattr__(self, "ownership", owners)


def bipartite_register(rho: DensityMatrix) -> Register:
    """Register for a two-subsystem state with the first factor owned by A."""
    require_bipartite(rho)
    return Register(rho, ("A", "B"))


def _owned_indices(reg: Register, side: str) -> list[int]:
    return [k for k, o in enumerate(reg.ownership) if o == side]


def _check_owner(reg: Register, idx: int, side: str) -> None:
    """Raise IndexOutOfRange unless subsystem ``idx`` exists and ``side`` owns it."""
    _check_subsystem(reg.state.dims, idx, IndexOutOfRange)
    if reg.ownership[idx] != side:
        raise IndexOutOfRange(
            f"subsystem {idx} is owned by {reg.ownership[idx]}, not {side}"
        )


def _apply_local_unitary(reg: Register, step: LocalUnitary) -> Register:
    owned = _owned_indices(reg, step.side)
    d_side = math.prod(reg.state.dims[k] for k in owned)
    if step.matrix.shape[0] != d_side:
        raise DimensionMismatch(
            f"unitary dimension {step.matrix.shape[0]} != joint dimension "
            f"{d_side} of side {step.side}"
        )
    rest = [k for k in range(len(reg.state.dims)) if k not in owned]
    perm = owned + rest
    grouped = permute_subsystems(reg.state, perm)
    d_rest = grouped.dim // d_side
    moved = _conjugate_site(grouped.matrix, (d_side, d_rest), 0, step.matrix)
    inverse = [perm.index(k) for k in range(len(perm))]
    return Register(
        permute_subsystems(DensityMatrix(moved, grouped.dims), inverse),
        reg.ownership,
    )


def _apply_add_ancilla(reg: Register, step: AddMaxMixedAncilla) -> Register:
    check_dimension_cap((reg.state.dim, step.dim), "register dimension")
    new_state = tensor(reg.state, maximally_mixed((step.dim,)))
    return Register(new_state, reg.ownership + (step.side,))


def _apply_partial_trace(reg: Register, step: LocalPartialTrace) -> Register:
    _check_owner(reg, step.subsystem, step.side)
    keep = [k for k in range(len(reg.state.dims)) if k != step.subsystem]
    if not keep:
        raise EmptyKeepSet("cannot trace away the last subsystem")
    new_state = partial_trace(reg.state, keep)
    owners = tuple(o for k, o in enumerate(reg.ownership) if k != step.subsystem)
    return Register(new_state, owners)


def _apply_send_qubit(reg: Register, step: SendQubit) -> Register:
    _check_owner(reg, step.qubit, step.from_side)
    new_state = dephasing_channel(reg.state, step.qubit)
    to_side = "B" if step.from_side == "A" else "A"
    owners = list(reg.ownership)
    owners[step.qubit] = to_side
    return Register(new_state, tuple(owners))


def apply_step(reg: Register, step: ProtocolStep, mode: str = "NLOCC") -> Register:
    """Apply one protocol step; ``mode`` gates the ancilla primitive."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if isinstance(step, AddMaxMixedAncilla):
        if mode == "CLOCC":
            raise IllegalStepForMode("ancillas are not available in CLOCC")
        return _apply_add_ancilla(reg, step)
    if isinstance(step, LocalUnitary):
        return _apply_local_unitary(reg, step)
    if isinstance(step, LocalPartialTrace):
        return _apply_partial_trace(reg, step)
    if isinstance(step, SendQubit):
        return _apply_send_qubit(reg, step)
    raise TypeError(f"unknown protocol step {step!r}")


def run_protocol(reg: Register, script: ProtocolScript) -> Register:
    """Left-to-right fold of the script's steps; deterministic."""
    current = reg
    for k, step in enumerate(script.steps):
        try:
            current = apply_step(current, step, script.mode)
        except Exception as exc:
            # prefix the message in place: rebuilding the exception would
            # call a constructor whose signature is not known here
            exc.args = (f"step {k}: {exc}",)
            raise
    return current


def _qubit_candidates(reg: Register) -> list[tuple[int, float, np.ndarray]]:
    out = []
    for k, d in enumerate(reg.state.dims):
        if d != 2:
            continue
        reduced = partial_trace(reg.state, [k]).matrix
        w, v = np.linalg.eigh(reduced)
        out.append((k, float(w[-1]), v[:, -1].copy()))
    return out


def _product_fidelity(
    reg: Register, chosen: list[tuple[int, float, np.ndarray]]
) -> float:
    indices = sorted(c[0] for c in chosen)
    vec_by_index = {c[0]: c[2] for c in chosen}
    joint = partial_trace(reg.state, indices).matrix
    psi = np.array([1.0], dtype=np.complex128)
    for idx in indices:
        psi = np.kron(psi, vec_by_index[idx])
    return float(np.real(psi.conj() @ joint @ psi))


def extracted_local_purity(
    reg: Register, epsilon: float, exact: bool = False
) -> int:
    """Number of qubit subsystems jointly within epsilon of a pure product.

    Candidates are ranked greedily by top eigenvalue of their reduced
    state; the count is the largest prefix whose joint fidelity with the
    product of top eigenvectors reaches 1 - epsilon.  With ``exact`` every
    subset is tried instead (exponential; intended for <= 4 qubits).
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    candidates = _qubit_candidates(reg)
    candidates.sort(key=lambda c: (-c[1], c[0]))
    for size in range(len(candidates), 0, -1):
        if exact:
            subsets = itertools.combinations(candidates, size)
        else:
            subsets = [candidates[:size]]
        if any(_product_fidelity(reg, list(s)) >= 1 - epsilon for s in subsets):
            return size
    return 0


def deficit_bound(
    rho: DensityMatrix, script: ProtocolScript, epsilon: float
) -> float:
    """Upper bound on the deficit reached by one closed-LOCC script:
    total qubits minus global entropy minus the pure qubits the script
    leaves behind (single-shot counting at threshold epsilon)."""
    if script.mode != "CLOCC":
        raise IllegalStepForMode("deficit bounds are defined for CLOCC scripts")
    reg = bipartite_register(rho)
    final = run_protocol(reg, script)
    n_qubits = math.log2(rho.dim)
    return n_qubits - vn_entropy(rho) - extracted_local_purity(final, epsilon)
