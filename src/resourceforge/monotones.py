"""Majorization, single-shot transitions under noisy operations, and
asymptotic conversion rates.

Cross-dimension single-shot comparisons use a padding rule that is a
modeling choice of this toolkit: since noisy operations may add maximally
mixed ancillas for free, a state on dimension p is compared against a
state on dimension q after tensoring each with a maximally mixed ancilla
so both live on dimension p*q.  Each spectrum gets every eigenvalue
repeated and scaled by the ancilla dimension before the majorization test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import Hamiltonian, free_energy_gap, negentropy
from .errors import (
    BothZero,
    DimensionMismatch,
    NonCommuting,
    UnequalSums,
)
from .states import DERIVED_TOL, DensityMatrix, _finite, check_dimension_cap, spectrum

_ZERO_FLOOR = 1e-12


@dataclass(frozen=True)
class RateResult:
    """Conversion rate as a ratio of resource contents in bits."""

    rate: float
    numerator_bits: float
    denominator_bits: float


def majorizes(x, y) -> bool:
    """True when every descending prefix sum of x dominates that of y.

    The shorter spectrum is padded with zeros; the sums must agree to 1e-9,
    and every entry must be finite (else ValueError).
    """
    x = np.sort(np.asarray(x, dtype=float).ravel())[::-1]
    y = np.sort(np.asarray(y, dtype=float).ravel())[::-1]
    n = max(x.size, y.size)
    x = np.pad(x, (0, n - x.size))
    y = np.pad(y, (0, n - y.size))
    if abs(x.sum() - y.sum()) > DERIVED_TOL:
        raise UnequalSums(f"sums differ: {x.sum():.12g} vs {y.sum():.12g}")
    # after the sums: unequal sums with an infinite entry stay UnequalSums
    _finite(np.concatenate([x, y]), "spectrum")
    return bool(np.all(np.cumsum(x) >= np.cumsum(y) - DERIVED_TOL))


def padded_spectra(
    rho: DensityMatrix, sigma: DensityMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of rho and sigma after mixed-ancilla padding to a common
    dimension dim(rho) * dim(sigma)."""
    d_r, d_s = rho.dim, sigma.dim
    check_dimension_cap((d_r, d_s), "common dimension")
    x = np.repeat(spectrum(rho), d_s) / d_s
    y = np.repeat(spectrum(sigma), d_r) / d_r
    return x, y


def single_shot_noisy_transition(rho: DensityMatrix, sigma: DensityMatrix) -> bool:
    """Whether one copy of rho can become sigma under noisy operations,
    decided by majorization of the padded spectra."""
    x, y = padded_spectra(rho, sigma)
    return majorizes(x, y)


def purity_rate(rho: DensityMatrix) -> RateResult:
    """Rate of pure-qubit extraction: the negentropy, against a one-bit
    reference."""
    value = negentropy(rho)
    return RateResult(rate=value, numerator_bits=value, denominator_bits=1.0)


def conversion_rate(er_source: float, er_target: float) -> RateResult:
    """Ratio of resource contents; obeys forward * reverse = 1 when both
    are positive.  Either content may be infinite, neither may be NaN."""
    if math.isnan(er_source) or math.isnan(er_target):
        raise ValueError("resource contents must not be NaN")
    if er_source < 0 or er_target < 0:
        raise ValueError("resource contents must be non-negative")
    if er_source <= _ZERO_FLOOR and er_target <= _ZERO_FLOOR:
        raise BothZero("both resource contents vanish; the rate is undefined")
    if er_target <= _ZERO_FLOOR:
        return RateResult(math.inf, er_source, er_target)
    if math.isinf(er_source) and math.isinf(er_target):
        raise ValueError("both resource contents are infinite")
    return RateResult(er_source / er_target, er_source, er_target)


def thermo_rate(
    rho: DensityMatrix, target: DensityMatrix, h: Hamiltonian
) -> RateResult:
    """Conversion rate between states commuting with a Hamiltonian, as the
    ratio of their free-energy gaps in bits."""
    if rho.dim != h.dim or target.dim != h.dim:
        raise DimensionMismatch(
            f"state dimensions {rho.dim}, {target.dim} vs Hamiltonian {h.dim}"
        )
    for name, state in (("source", rho), ("target", target)):
        comm = state.matrix @ h.matrix - h.matrix @ state.matrix
        if np.max(np.abs(comm)) > DERIVED_TOL:
            raise NonCommuting(
                f"{name} state does not commute with the Hamiltonian "
                f"(max |[rho, H]| = {np.max(np.abs(comm)):.3e})"
            )
    return conversion_rate(free_energy_gap(rho, h), free_energy_gap(target, h))
