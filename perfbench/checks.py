"""Reference computations and correctness checks of the benchmark.

Everything here is plain numpy written for the benchmark: it calls nothing
in ``resourceforge``.  The references are

* closed forms: Luo, PRA 77, 042303 (2008) for the discord of Bell-diagonal
  states, and 1 + h((1 + c)/2) - S(rho) for their one-way deficit;
* the pinching identity S(rho || Pi(rho)) = S(Pi(rho)) - S(rho) of Modi et
  al., PRL 104, 080501 (2010), re-evaluated at the returned argmin with
  dephased states built here as sums of projected copies of rho;
* upper bounds from a Bloch-sphere grid (qubit side) or from sampled bases
  (larger side), both formulated here independently of ``oracles``.

Every check raises :class:`CheckFailed` with a message naming what broke.
"""

from __future__ import annotations

import math

import numpy as np

# Captured at import, before any tracing wrapper is installed, so the
# benchmark's own linear algebra never counts as the program's.
_eigvalsh = np.linalg.eigvalsh
_eigh = np.linalg.eigh

EIG_FLOOR = 1e-12
TOL_VALUE = 1e-6       # optimiser tolerance: closed forms, bounds, orderings
TOL_RECOMPUTE = 1e-8   # same measurement, two evaluations
TOL_ISOMETRY = 1e-9
TOL_MULTICOPY = 1e-3

SIGMA = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=np.complex128,
)


class CheckFailed(Exception):
    """An output of the program disagrees with a reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def expect_close(value: float, reference: float, tol: float, what: str) -> None:
    expect(
        math.isfinite(value) and abs(value - reference) <= tol,
        f"{what}: {value!r} differs from {reference!r} by more than {tol:g}",
    )


def expect_at_most(value: float, bound: float, tol: float, what: str) -> None:
    expect(
        math.isfinite(value) and value <= bound + tol,
        f"{what}: {value!r} exceeds {bound!r} by more than {tol:g}",
    )


# --- entropies -------------------------------------------------------------

def shannon(p) -> float:
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > EIG_FLOOR]
    return float(-(p * np.log2(p)).sum())


def binary_entropy(x: float) -> float:
    return shannon([x, 1.0 - x])


def entropy(m: np.ndarray) -> float:
    return shannon(_eigvalsh(m))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(rho || sigma) in bits; inf when rho leaves sigma's support."""
    w, v = _eigh(sigma)
    weights = np.real(np.einsum("ji,jk,ki->i", v.conj(), rho, v))
    support = w > EIG_FLOOR
    if np.any(weights[~support] > EIG_FLOOR):
        return math.inf
    return -entropy(rho) - float((weights[support] * np.log2(w[support])).sum())


def reduced(m: np.ndarray, dims, keep: int) -> np.ndarray:
    d_a, d_b = dims
    t = m.reshape(d_a, d_b, d_a, d_b)
    return np.einsum("ajbj->ab", t) if keep == 0 else np.einsum("iaib->ab", t)


def mutual_information(m: np.ndarray, dims) -> float:
    return entropy(reduced(m, dims, 0)) + entropy(reduced(m, dims, 1)) - entropy(m)


# --- dephasing (pinching) maps ---------------------------------------------

def _projectors(basis: np.ndarray) -> list[np.ndarray]:
    return [np.outer(basis[:, i], basis[:, i].conj()) for i in range(basis.shape[1])]


def pinch_a(m: np.ndarray, dims, basis: np.ndarray) -> np.ndarray:
    """sum_i (P_i x I) rho (P_i x I) for the columns of ``basis``."""
    eye_b = np.eye(dims[1])
    out = np.zeros_like(m)
    for p in _projectors(basis):
        k = np.kron(p, eye_b)
        out += k @ m @ k
    return out


def pinch_ab(m: np.ndarray, dims, basis_a: np.ndarray, basis_b: np.ndarray) -> np.ndarray:
    out = np.zeros_like(m)
    for p in _projectors(basis_a):
        for q in _projectors(basis_b):
            k = np.kron(p, q)
            out += k @ m @ k
    return out


def outcome_probs(m: np.ndarray, dims, basis_a: np.ndarray, basis_b: np.ndarray) -> np.ndarray:
    """q_ij = <a_i b_j| rho |a_i b_j>."""
    vecs = np.einsum("ai,bj->ijab", basis_a, basis_b).reshape(
        basis_a.shape[1], basis_b.shape[1], -1
    )
    return np.real(np.einsum("ijx,xy,ijy->ij", vecs.conj(), m, vecs))


def one_way_at(m: np.ndarray, dims, basis: np.ndarray) -> dict:
    """Deficit, relative entropy and discord of one fixed measurement on A."""
    pinched = pinch_a(m, dims, basis)
    s = entropy(m)
    deficit = entropy(pinched) - s
    rho_a = reduced(m, dims, 0)
    probs = np.real(np.einsum("ai,ab,bi->i", basis.conj(), rho_a, basis))
    return {
        "deficit": deficit,
        "relent": relative_entropy(m, pinched),
        "discord": deficit - (shannon(probs) - entropy(rho_a)),
    }


def zero_way_at(m: np.ndarray, dims, basis_a: np.ndarray, basis_b: np.ndarray) -> dict:
    """Zero-way deficit, relative entropy and discord of one measurement pair."""
    q = outcome_probs(m, dims, basis_a, basis_b)
    h_q = shannon(q)
    return {
        "deficit": h_q - entropy(m),
        "relent": relative_entropy(m, pinch_ab(m, dims, basis_a, basis_b)),
        "discord": mutual_information(m, dims)
        - (shannon(q.sum(axis=1)) + shannon(q.sum(axis=0)) - h_q),
    }


# --- closed forms ----------------------------------------------------------

def bell_diagonal_correlations(m: np.ndarray) -> np.ndarray:
    """c_k = Tr rho (sigma_k x sigma_k) of a two-qubit state."""
    return np.array([np.real(np.trace(m @ np.kron(s, s))) for s in SIGMA])


def luo_discord(eigs, c: np.ndarray) -> float:
    """Luo (2008): I(rho) - C(rho) for rho = (I + sum c_k s_k x s_k) / 4."""
    lam = np.asarray(eigs, dtype=float)
    mutual = 2.0 + float(sum(x * math.log2(x) for x in lam if x > EIG_FLOOR))
    cmax = float(np.max(np.abs(c)))
    classical = sum(
        0.5 * f * math.log2(f) for f in (1.0 - cmax, 1.0 + cmax) if f > EIG_FLOOR
    )
    return mutual - classical


def bell_diagonal_deficit(eigs, c: np.ndarray) -> float:
    """1 + h((1 + c)/2) - S(rho) with c = max |c_k|."""
    cmax = float(np.max(np.abs(c)))
    return 1.0 + binary_entropy((1.0 + cmax) / 2.0) - shannon(eigs)


# --- independent upper bounds ----------------------------------------------

def _hemisphere(n_theta: int, n_phi: int) -> np.ndarray:
    theta = np.linspace(0.0, np.pi / 2, n_theta)
    phi = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    return np.stack(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1
    ).reshape(-1, 3)


def qubit_grid_one_way(m: np.ndarray, dims, n_theta: int = 60, n_phi: int = 120) -> dict:
    """Minima of the fixed deficit and discord over a Bloch-sphere grid.

    The measurement along Bloch direction n leaves the blocks
    (rho_B +- sum_k n_k X_k) / 2 with X_k = Tr_A[(sigma_k x I) rho].
    Every grid point is a measurement, so each minimum bounds the true
    minimum from above.
    """
    d_a, d_b = dims
    if d_a != 2:
        raise ValueError("the Bloch grid needs a qubit on A")
    t = m.reshape(2, d_b, 2, d_b)
    x = np.einsum("kab,biaj->kij", SIGMA, t)
    rho_b = reduced(m, dims, 1)
    y = np.einsum("nk,kij->nij", _hemisphere(n_theta, n_phi), x)
    blocks = np.stack([(rho_b + y) / 2, (rho_b - y) / 2], axis=1)
    w = _eigvalsh(blocks).reshape(len(y), -1)
    safe = np.where(w > EIG_FLOOR, w, 1.0)
    h_joint = -(w * np.log2(safe)).sum(axis=1)
    p = np.real(np.einsum("nsii->ns", blocks))
    safe_p = np.where(p > EIG_FLOOR, p, 1.0)
    h_a = -(p * np.log2(safe_p)).sum(axis=1)
    deficit = h_joint - entropy(m)
    discord = deficit - (h_a - entropy(reduced(m, dims, 0)))
    return {"deficit": float(deficit.min()), "discord": float(discord.min())}


def qubit_grid_zero_way(m: np.ndarray, n_theta: int = 24, n_phi: int = 48) -> dict:
    """Minima of the fixed zero-way deficit and discord over pairs of Bloch
    directions: q_st = (1 + s n.a + t m.b + s t n.T.m) / 4."""
    a = np.array([np.real(np.trace(m @ np.kron(s, np.eye(2)))) for s in SIGMA])
    b = np.array([np.real(np.trace(m @ np.kron(np.eye(2), s))) for s in SIGMA])
    corr = np.array(
        [[np.real(np.trace(m @ np.kron(s, r))) for r in SIGMA] for s in SIGMA]
    )
    dirs = _hemisphere(n_theta, n_phi)
    nb = dirs @ b
    s_rho = entropy(m)
    mutual = mutual_information(m, (2, 2))

    def h(p):
        return -p * np.log2(np.where(p > EIG_FLOOR, p, 1.0))

    h_b = h((1 + nb) / 2) + h((1 - nb) / 2)
    best_deficit, best_discord = math.inf, math.inf
    for start in range(0, len(dirs), 128):
        na = dirs[start:start + 128] @ a
        cross = dirs[start:start + 128] @ corr @ dirs.T
        h_joint = sum(
            h((1 + s * na[:, None] + t * nb[None, :] + s * t * cross) / 4)
            for s in (1, -1)
            for t in (1, -1)
        )
        h_a = h((1 + na) / 2) + h((1 - na) / 2)
        deficit = h_joint - s_rho
        discord = mutual - (h_a[:, None] + h_b[None, :] - h_joint)
        best_deficit = min(best_deficit, float(deficit.min()))
        best_discord = min(best_discord, float(discord.min()))
    return {"deficit": best_deficit, "discord": best_discord}


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def sampled_one_way(m: np.ndarray, dims, rng: np.random.Generator, count: int = 128) -> dict:
    """Minima of the fixed deficit and discord over the marginal's eigenbasis,
    the computational basis and ``count`` Haar-random bases of A."""
    d_a, d_b = dims
    bases = [_eigh(reduced(m, dims, 0))[1], np.eye(d_a, dtype=np.complex128)]
    bases += [haar_unitary(d_a, rng) for _ in range(count)]
    u = np.stack(bases)
    t = m.reshape(d_a, d_b, d_a, d_b)
    blocks = np.einsum("nai,ajbk,nbi->nijk", u.conj(), t, u)
    w = _eigvalsh(blocks).reshape(len(u), -1)
    safe = np.where(w > EIG_FLOOR, w, 1.0)
    deficit = -(w * np.log2(safe)).sum(axis=1) - entropy(m)
    p = np.real(np.einsum("nijj->ni", blocks))
    safe_p = np.where(p > EIG_FLOOR, p, 1.0)
    h_a = -(p * np.log2(safe_p)).sum(axis=1)
    discord = deficit - (h_a - entropy(reduced(m, dims, 0)))
    return {"deficit": float(deficit.min()), "discord": float(discord.min())}


# --- checks on one state ----------------------------------------------------
#
# ``values`` maps "deficit", "discord" and "relent" to returned minima;
# ``bases`` maps them to the returned argmin: a basis of A (one-way) or a
# pair of bases (zero-way).

def check_argmin_one_way(case, q: str, value: float, basis: np.ndarray) -> None:
    """The returned value is the quantity of the returned measurement, and the
    pinching identity holds there."""
    at = one_way_at(case.matrix, case.dims, basis)
    expect_close(value, at[q], TOL_RECOMPUTE, f"{q} re-evaluated at its argmin")
    expect_close(at["relent"], at["deficit"], TOL_RECOMPUTE,
                 f"S(rho||Pi rho) = S(Pi rho) - S(rho) at the {q} argmin")


def check_argmin_zero_way(case, q: str, value: float, bases) -> None:
    at = zero_way_at(case.matrix, case.dims, *bases)
    expect_close(value, at[q], TOL_RECOMPUTE, f"zero-way {q} re-evaluated at its argmin")
    expect_close(at["relent"], at["deficit"], TOL_RECOMPUTE,
                 f"S(rho||Pi rho) = S(Pi rho) - S(rho) at the zero-way {q} argmin")


def check_upper_bounds(values: dict, bound: dict, what: str) -> None:
    """Each minimum is at most the scan's minimum of the same quantity."""
    for q, value in values.items():
        expect_at_most(value, bound["discord" if q == "discord" else "deficit"],
                       TOL_VALUE, f"{q} against the {what}")


def check_orderings(values: dict) -> None:
    """discord <= deficit, and relent = deficit (same minimum, by pinching)."""
    if "discord" in values and "deficit" in values:
        expect_at_most(values["discord"], values["deficit"], TOL_VALUE,
                       "discord <= deficit")
    if "relent" in values and "deficit" in values:
        expect_close(values["relent"], values["deficit"], TOL_VALUE,
                     "relative-entropy minimum against the deficit minimum")


def check_vanishing(values: dict, what: str) -> None:
    for q, value in values.items():
        expect_close(value, 0.0, TOL_VALUE, f"{q} on a {what} state")


def check_bell_diagonal(case, values: dict) -> None:
    eigs, c = case.closed["eigs"], case.closed["c"]
    for q, value in values.items():
        ref = luo_discord(eigs, c) if q == "discord" else bell_diagonal_deficit(eigs, c)
        expect_close(value, ref, TOL_VALUE, f"{q} against the closed form")


def check_bell(values: dict) -> None:
    """A maximally entangled pure state: every zero-way quantity is 1 bit."""
    for q, value in values.items():
        expect_close(value, 1.0, TOL_VALUE, f"zero-way {q} on a Bell state")


def check_one_way(case, values: dict, bases: dict) -> None:
    for q, value in values.items():
        check_argmin_one_way(case, q, value, bases[q])
    if case.dims[0] == 2:
        check_upper_bounds(values, qubit_grid_one_way(case.matrix, case.dims),
                           "Bloch-sphere grid")
    else:
        check_upper_bounds(
            values,
            sampled_one_way(case.matrix, case.dims, np.random.default_rng(case.seed)),
            "sampled bases",
        )
    check_orderings(values)
    if case.kind == "classical":
        check_vanishing(values, "CQ")
    if case.kind == "bell-diagonal":
        check_bell_diagonal(case, values)


def check_zero_way(case, values: dict, bases: dict) -> None:
    for q, value in values.items():
        check_argmin_zero_way(case, q, value, bases[q])
    check_upper_bounds(values, qubit_grid_zero_way(case.matrix), "two-sided Bloch grid")
    check_orderings(values)
    if case.kind == "classical":
        check_vanishing(values, "CC")
    if case.kind == "bell":
        check_bell(values)


def check_generalized(case, value: float, isometry: np.ndarray, basis: np.ndarray,
                      one_way: float) -> None:
    """generalized_deficit: V^dag V = I, the value re-evaluated at (V, U), and
    value <= the plain one-way deficit."""
    v = np.asarray(isometry)
    gram = v.conj().T @ v
    expect(
        float(np.max(np.abs(gram - np.eye(v.shape[1])))) <= TOL_ISOMETRY,
        "returned isometry is not an isometry",
    )
    m, dims = case.matrix, case.dims
    # measuring V rho V^dag in basis U measures rho with the columns of V^dag U
    columns = v.conj().T @ basis
    d_a, d_b = dims
    t = m.reshape(d_a, d_b, d_a, d_b)
    blocks = np.einsum("ai,ajbk,bi->ijk", columns.conj(), t, columns)
    at = shannon(_eigvalsh(blocks)) - entropy(m)
    expect_close(value, at, TOL_RECOMPUTE, "generalized deficit at its argmin")
    expect_at_most(value, one_way, TOL_VALUE, "generalized_deficit <= deficit_one_way")


def check_multicopy(per_copy: float, one_way: float) -> None:
    expect(math.isfinite(per_copy) and per_copy >= -TOL_VALUE,
           f"multicopy per-copy value {per_copy!r} is negative")
    expect_at_most(per_copy, one_way, TOL_MULTICOPY,
                   "two-copy deficit per copy <= single-copy deficit")
