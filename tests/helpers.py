"""Shared state constructors for the test suite."""

import numpy as np

import resourceforge as rf


def random_unitary(d, rng):
    """Haar-random unitary via QR with phase fixing."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases.conj()


def bell():
    return rf.pure_state([1, 0, 0, 1], (2, 2))


def schmidt_state(p0, p1):
    """Pure bipartite state with Schmidt coefficients sqrt(p0), sqrt(p1)."""
    v = np.zeros(4)
    v[0] = np.sqrt(p0)
    v[3] = np.sqrt(p1)
    return rf.pure_state(v, (2, 2))


def werner(p, seed_phase=None):
    """p * singlet + (1 - p) * I/4."""
    singlet = rf.pure_state([0, 1, -1, 0], (2, 2))
    m = p * singlet.matrix + (1 - p) * np.eye(4) / 4
    return rf.DensityMatrix(m, (2, 2))


def random_bipartite(seed, d_a=2, d_b=2, rank=None):
    """Random state on d_a x d_b with full rank by default."""
    d = d_a * d_b
    rho = rf.random_density(d, rank or d, seed)
    return rf.DensityMatrix(rho.matrix, (d_a, d_b))


def cq_state(rng, d_a=2, d_b=2):
    """sum_i p_i |psi_i><psi_i| (x) rho_i with orthonormal psi_i."""
    basis = random_unitary(d_a, rng)
    probs = rng.dirichlet(np.ones(d_a))
    m = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for i in range(d_a):
        proj = np.outer(basis[:, i], basis[:, i].conj())
        cond = rf.random_density(d_b, d_b, int(rng.integers(0, 2**31))).matrix
        m += probs[i] * np.kron(proj, cond)
    m = (m + m.conj().T) / 2
    return rf.DensityMatrix(m, (d_a, d_b))


def cc_state(rng, d_a=2, d_b=2):
    """sum_ij p_ij |psi_i><psi_i| (x) |phi_j><phi_j|."""
    basis_a = random_unitary(d_a, rng)
    basis_b = random_unitary(d_b, rng)
    probs = rng.dirichlet(np.ones(d_a * d_b)).reshape(d_a, d_b)
    m = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for i in range(d_a):
        proj_a = np.outer(basis_a[:, i], basis_a[:, i].conj())
        for j in range(d_b):
            proj_b = np.outer(basis_b[:, j], basis_b[:, j].conj())
            m += probs[i, j] * np.kron(proj_a, proj_b)
    m = (m + m.conj().T) / 2
    return rf.DensityMatrix(m, (d_a, d_b))


def maximally_correlated(a):
    """sum_ij a_ij |ii><jj| for a d x d density matrix a, on d x d."""
    d = len(a)
    m = np.zeros((d * d, d * d), dtype=complex)
    diagonal = np.arange(d) * (d + 1)       # the index of |ii>
    m[np.ix_(diagonal, diagonal)] = a
    return rf.DensityMatrix(m, (d, d))


def apply_local(rho, u_a, u_b):
    """Conjugate a bipartite state by a product unitary."""
    w = np.kron(u_a, u_b)
    return rf.DensityMatrix(w @ rho.matrix @ w.conj().T, rho.dims)


def random_measurement(d, rng):
    return rf.ProjectiveMeasurement(d, random_unitary(d, rng))


def random_isometry(rows, cols, rng):
    """First ``cols`` columns of a Haar-random rows x rows unitary."""
    return random_unitary(rows, rng)[:, :cols]


# Two random 2x2 states from the benchmark's generator, pasted exactly.  On
# each, the searches' lowest lattice points all lie in one basin, so a search
# started from those points alone misses the global minimum.
# perfbench seed 12, round 7, task 9: one-way deficit 0.2857406 (the
# benchmark's Bloch-grid bound is 0.28581377).
TWO_COPY_PAIR = np.array([
    [0.3864736622654553 + 0.0j, -0.23904611319838712 + 0.021529776260401867j,
     0.05846454790174811 - 0.17174167904436421j, -0.002783180637127356 - 0.049852424849892406j],
    [-0.23904611319838712 - 0.021529776260401867j, 0.3197217381218313 + 0.0j,
     -0.03531778012951973 - 0.003452258386222047j, -0.03526350930160067 - 0.015050630294804839j],
    [0.05846454790174811 + 0.17174167904436421j, -0.03531778012951973 + 0.003452258386222047j,
     0.20846495231748752 + 0.0j, 0.014606797020240344 - 0.01474827137094374j],
    [-0.002783180637127356 + 0.049852424849892406j, -0.03526350930160067 + 0.015050630294804839j,
     0.014606797020240344 + 0.01474827137094374j, 0.08533964729522579 + 0.0j],
])
# perfbench seed 7, round 58, task 3: zero-way deficit 0.2108076 (the
# two-sided grid bound is 0.21122430).
ZERO_WAY_PAIR = np.array([
    [0.19047051598058198 + 0.0j, -0.04837239964846404 + 0.045925049815884945j,
     -0.03900559585873827 - 0.14564358210818454j, 0.01525887966198389 - 0.05051539994175177j],
    [-0.04837239964846404 - 0.045925049815884945j, 0.20876599240958707 + 0.0j,
     0.0037983876399775626 + 0.08921837292089707j, -0.03530429013263945 - 0.08757867464100541j],
    [-0.03900559585873827 + 0.14564358210818454j, 0.0037983876399775626 - 0.08921837292089707j,
     0.3402523628260898 + 0.0j, 0.1321422077620148 - 0.04578959322370094j],
    [0.01525887966198389 + 0.05051539994175177j, -0.03530429013263945 + 0.08757867464100541j,
     0.1321422077620148 + 0.04578959322370094j, 0.2605111287837412 + 0.0j],
])


# Kronecker-built references for the site-local contractions: each builds
# the full-size operator I (x) op (x) I and conjugates the whole matrix.

def _site_operator(dims, site, op):
    left = int(np.prod(dims[:site]))
    right = int(np.prod(dims[site + 1:]))
    return np.kron(np.eye(left), np.kron(op, np.eye(right)))


def kron_measure_local(rho, m, side):
    """sum_i P_i rho P_i by rotating, dephasing and rotating back."""
    w = _site_operator(rho.dims, side, m.basis.conj().T)
    rotated = w @ rho.matrix @ w.conj().T
    left = int(np.prod(rho.dims[:side]))
    ds = rho.dims[side]
    right = int(np.prod(rho.dims[side + 1:]))
    t = rotated.reshape(left, ds, right, left, ds, right)
    dephased = np.zeros_like(t)
    for s in range(ds):
        dephased[:, s, :, :, s, :] = t[:, s, :, :, s, :]
    dephased = dephased.reshape(rho.dim, rho.dim)
    out = w.conj().T @ dephased @ w
    return rf.DensityMatrix((out + out.conj().T) / 2, rho.dims)


def kron_embed(rho, v, subsystem):
    """(I (x) V (x) I) rho (I (x) V (x) I)^dag."""
    full = _site_operator(rho.dims, subsystem, v)
    new_dims = rho.dims[:subsystem] + (v.shape[0],) + rho.dims[subsystem + 1:]
    return rf.DensityMatrix(full @ rho.matrix @ full.conj().T, new_dims)


def kron_local_unitary(reg, step):
    """LocalUnitary step: group the side's subsystems first, apply U (x) I."""
    owned = [k for k, o in enumerate(reg.ownership) if o == step.side]
    rest = [k for k in range(len(reg.state.dims)) if k not in owned]
    perm = owned + rest
    grouped = rf.permute_subsystems(reg.state, perm)
    d_rest = grouped.dim // step.matrix.shape[0]
    w = np.kron(step.matrix, np.eye(d_rest))
    moved = rf.DensityMatrix(w @ grouped.matrix @ w.conj().T, grouped.dims)
    inverse = [perm.index(k) for k in range(len(perm))]
    return rf.Register(rf.permute_subsystems(moved, inverse), reg.ownership)
