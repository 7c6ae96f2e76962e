"""Output checks for the benchmark, computed without the library under test.

Every reference here is rebuilt from first principles with numpy alone:
Pauli matrices from Kronecker products, Clifford unitaries from their
generator images, the Clifford group by closure of its generators, and the
frame-potential values from the literature.  A check returns a string that
says what is wrong, or None when the output is right.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SINGLE = {(0, 0): _I2, (1, 0): _X, (0, 1): _Z, (1, 1): _Y}

# Clifford frame potentials F^(k) = E|tr(U^dag V)|^(2k) on two qubits.  The
# Clifford group is a 3-design, so it matches Haar up to k = 3; at k = 4 it
# equals the number of independent Gross-Nezami-Walter monomials, 30 in
# general and 29 at n = 2, where one of them is dependent.
CLIFFORD_FRAME_POTENTIAL_N2 = {2: 2.0, 3: 6.0, 4: 29.0}
FP_Z = 5.0


def pauli_dense(n: int, x: int, z: int, phase: int = 0) -> np.ndarray:
    """i^phase times the Hermitian Pauli with X-bits x and Z-bits z.

    Bit j of x and z acts on qubit j, and qubit j is bit j of the basis
    index, so qubit 0 is the last Kronecker factor.
    """
    factors = [_SINGLE[((x >> j) & 1, (z >> j) & 1)] for j in reversed(range(n))]
    return (1j**phase) * reduce(np.kron, factors)


def clifford_unitary(op) -> np.ndarray:
    """Dense unitary, up to a global phase, of a Clifford given by the images
    of X_j and Z_j under conjugation (objects with n, x, z and phase)."""
    n = len(op.z_images)
    d = 1 << n
    proj = np.eye(d, dtype=complex)
    for p in op.z_images:
        proj = proj @ (np.eye(d) + pauli_dense(n, p.x, p.z, p.phase)) / 2
    col = proj[:, int(np.argmax(np.linalg.norm(proj, axis=0)))]
    xs = [pauli_dense(n, p.x, p.z, p.phase) for p in op.x_images]
    u = np.empty((d, d), dtype=complex)
    u[:, 0] = col / np.linalg.norm(col)
    for b in range(1, d):
        low = (b & -b).bit_length() - 1
        u[:, b] = xs[low] @ u[:, b & (b - 1)]
    return u


def _gf2_rank(rows: list[int]) -> int:
    basis: list[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
    return len(basis)


# ---------------------------------------------------------------------------
# attack-n6


def check_stabilizer_group(group, amps: np.ndarray, n: int, t: int) -> str | None:
    """n - t independent Paulis, each stabilizing amps with eigenvalue +1.

    Paulis that share a +1 eigenvector commute, so they generate an abelian
    group of order 2^(n-t)."""
    gens = list(group.generators)
    if len(gens) != n - t:
        return f"{len(gens)} generators, want {n - t}"
    if _gf2_rank([g.x | (g.z << n) for g in gens]) != n - t:
        return "generators are dependent, so the group order is not 2^(n-t)"
    for g in gens:
        if np.linalg.norm(pauli_dense(n, g.x, g.z, g.phase) @ amps - amps) > 1e-8:
            return f"generator x={g.x} z={g.z} phase={g.phase} does not stabilize the state"
    return None


def check_compression(op, amps: np.ndarray, t: int) -> str | None:
    """The compressing Clifford leaves qubits t..n-1 in |0> w.p. >= 1 - 1e-9."""
    out = clifford_unitary(op) @ amps
    p_zero = float(np.sum(np.abs(out[: 1 << t]) ** 2))
    if p_zero < 1 - 1e-9:
        return f"P(trailing qubits in |0>) = {p_zero:.3e}"
    return None


def check_attack_statistic(stat: float, t: int) -> str | None:
    """A tr^2 lies in [0, 1]; on a stabilizer state (t = 0) it is 0 or 1."""
    if not 0.0 <= stat <= 1.0:
        return f"statistic {stat} outside [0, 1]"
    if t == 0 and min(abs(stat), abs(stat - 1.0)) > 1e-9:
        return f"t=0 statistic {stat} is neither 0 nor 1"
    return None


# ---------------------------------------------------------------------------
# clifford-fp-n2


def _partitions(m: int, largest: int | None = None):
    largest = m if largest is None else largest
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def _standard_tableaux(shape: tuple[int, ...]) -> int:
    """f^shape by the hook length formula."""
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])] if shape else []
    hooks = math.prod(
        (shape[i] - j) + (cols[j] - i) - 1 for i in range(len(shape)) for j in range(shape[i])
    )
    return math.factorial(sum(shape)) // hooks


def haar_trace_moment(m: int, d: int) -> float:
    """E|tr U|^(2m) over Haar U(d): permutations of m with no increasing
    subsequence longer than d (Rains), counted through RSK as sum (f^lambda)^2."""
    return float(sum(_standard_tableaux(lam) ** 2 for lam in _partitions(m) if len(lam) <= d))


def group_trace_moments(group: np.ndarray, top: int) -> dict[int, float]:
    """E|tr U|^(2m) over a finite group, for m = 1..top."""
    x = np.abs(np.einsum("gii->g", group)) ** 2
    return {m: float(np.mean(x**m)) for m in range(1, top + 1)}


def check_frame_potential(
    est: float, err: float, exact: float, second: float, samples: int, z: float = FP_Z
) -> str | None:
    """|estimate - F| <= z * se, where se is the larger of the reported
    standard error and sqrt((E x^2 - F^2) / samples) from the exact second
    moment E x^2 = F^(2k).  |tr|^(2k) is heavy-tailed at d = 4: a sample that
    misses the rare large values reports a small error around a low mean, so
    the reported error alone fails a correct estimator at a few percent."""
    se = max(err, math.sqrt(max(second - exact * exact, 0.0) / samples))
    if not abs(est - exact) <= z * se:
        return f"F = {est:.4f} +- {err:.4f} (se used {se:.4f}), exact {exact}"
    return None


# ---------------------------------------------------------------------------
# decay-n5


def check_decay_row(row) -> str | None:
    """At k = 1 every sandwich is an exact design: no row above its floor."""
    if row.distance > row.floor + 3 * row.stderr:
        return (
            f"t={row.t}: distance {row.distance:.4f} above floor "
            f"{row.floor:.4f} + 3 x {row.stderr:.4f}"
        )
    return None


def check_maximally_mixed(choi: np.ndarray) -> str | None:
    """The Haar k = 1 Choi state is I / dim."""
    dim = choi.shape[0]
    gap = float(np.max(np.abs(choi - np.eye(dim) / dim)))
    if gap > 1e-12:
        return f"Haar Choi state differs from I/{dim} by {gap:.3e}"
    return None


# ---------------------------------------------------------------------------
# commutant-k5


def monomial_count(k: int) -> int:
    """prod_{i=0}^{k-2} (2^i + 1), the size of the GNW monomial basis."""
    return math.prod((1 << i) + 1 for i in range(k - 1))


def permutation_gram_rank(k: int, d: int) -> int:
    """Rank of [d^cycles(p^-1 q)] over S_k, i.e. of span{T_p} on (C^d)^k."""
    perms = list(itertools.permutations(range(k)))

    def cycles(p):
        seen, c = set(), 0
        for s in range(k):
            if s not in seen:
                c += 1
                while s not in seen:
                    seen.add(s)
                    s = p[s]
        return c

    inv = [tuple(sorted(range(k), key=p.__getitem__)) for p in perms]
    lam = np.array(
        [[float(d) ** cycles(tuple(q[pi[s]] for s in range(k))) for q in perms] for pi in inv]
    )
    return int(np.linalg.matrix_rank(lam))


# Ranks of the Clifford Gram matrix beyond the 3-design range (GNW): at k = 4
# the 30 monomials are independent once n >= 3 and have one relation at n = 2.
CLIFFORD_GRAM_RANK = {(4, 2): 29, (4, 3): 30}


def check_weingarten_table(table, k: int, n: int) -> str | None:
    g, w = np.asarray(table.gram), np.asarray(table.weingarten)
    if len(table.monomials) != monomial_count(k) or g.shape != (monomial_count(k),) * 2:
        return f"{len(table.monomials)} monomials at k={k}, want {monomial_count(k)}"
    if not np.array_equal(g, g.T):
        return "Gram matrix is not symmetric"
    if not np.allclose(np.diag(g), 1.0, rtol=0, atol=1e-12):
        return "Gram matrix diagonal is not 1"
    gap = float(np.max(np.abs(g @ w @ g - g)))
    if gap > 1e-8:
        return f"G W G differs from G by {gap:.3e}"
    rank = int(np.linalg.matrix_rank(g))
    want = permutation_gram_rank(k, 1 << n) if k <= 3 else CLIFFORD_GRAM_RANK.get((k, n))
    if want is not None and rank != want:
        return f"rank G({k},{n}) = {rank}, want {want}"
    return None


def check_twirls(clifford: np.ndarray, haar: np.ndarray, k: int) -> str | None:
    """Clifford and Haar twirls agree for k <= 3 and differ at k = 4."""
    gap = float(np.max(np.abs(clifford - haar)))
    scale = float(np.max(np.abs(haar)))
    if k <= 3 and gap > 1e-9 * scale:
        return f"k={k}: Clifford and Haar twirls differ by {gap:.3e}"
    if k >= 4 and gap < 1e-6 * scale:
        return f"k={k}: Clifford and Haar twirls agree to {gap:.3e}"
    return None


def clifford_group(n: int) -> np.ndarray:
    """Every n-qubit Clifford unitary modulo phase, by closure of H, S, CNOT."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    s = np.diag([1, 1j])

    def on(q, g):
        return reduce(np.kron, [g if j == q else _I2 for j in reversed(range(n))])

    gens = [on(q, h) for q in range(n)] + [on(q, s) for q in range(n)]
    d = 1 << n
    for a, b in itertools.permutations(range(n), 2):
        cx = np.zeros((d, d), dtype=complex)
        for i in range(d):
            cx[i ^ (((i >> a) & 1) << b), i] = 1
        gens.append(cx)

    def key(u):
        flat = u.reshape(-1)
        lead = flat[int(np.argmax(np.abs(flat) > 1e-9))]
        return (np.round(u * (abs(lead) / lead), 6) + 0.0).tobytes()

    one = np.eye(d, dtype=complex)
    seen = {key(one): one}
    frontier = list(seen.values())
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                v = g @ u
                kv = key(v)
                if kv not in seen:
                    seen[kv] = v
                    nxt.append(v)
        frontier = nxt
    return np.array(list(seen.values()))


def group_average_choi(group: np.ndarray, k: int) -> np.ndarray:
    """E_U vec(U^(x)k) vec(U^(x)k)^dag / d^k over a finite group, row-major vec."""
    big = group.shape[1] ** k
    acc = np.zeros((big * big, big * big), dtype=complex)
    for start in range(0, len(group), 512):
        vs = np.stack([reduce(np.kron, [u] * k).reshape(-1) for u in group[start : start + 512]])
        acc += vs.T @ vs.conj()
    return acc / (len(group) * big)


def check_moment_choi(choi: np.ndarray, reference: np.ndarray) -> str | None:
    gap = float(np.max(np.abs(choi - reference)))
    if gap > 1e-10:
        return f"Weingarten Choi state differs from the group average by {gap:.3e}"
    return None
