"""Commutant algebra of tensor-power Clifford actions.

The k-copy commutant is spanned by monomial operators that factorize over
qubit sites: each monomial is determined by an m-dimensional subspace of the
even-weight subspace of F_2^k together with a symmetric zero-diagonal phase
matrix M, and its full-register form is the n-fold tensor power of a single
2^k x 2^k site operator.  This module enumerates canonical monomials, builds
their matrices, computes the integer alpha-distance and the Gram/Weingarten
tables, and applies Clifford and Haar twirls.

Copy layout: copy c of qubit q sits at bit position c*n + q, i.e. base-d
digit c of an index is the computational index of copy c.  Permutation
operators use the same digit convention.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .dense import DenseOperator
from .errors import InternalConsistencyError, ValidationError
from .f2 import rank
from .pauli import _pauli_action

MAX_MONOMIAL_COPIES = 6
MAX_TABLE_COPIES = 5  # Gram/Weingarten dense inversion
MAX_COPY_OPERATOR_DIM = 1 << 8


def monomial_count(k: int) -> int:
    """prod_{i=0}^{k-2} (2^i + 1); the number of commutant basis elements."""
    out = 1
    for i in range(k - 1):
        out *= (1 << i) + 1
    return out


@dataclass(frozen=True)
class PauliMonomial:
    """Canonical commutant basis element on k copies.

    v_cols are m column masks (k bits each, even weight, jointly rank m);
    m_upper[i] holds the strict-upper-triangle bits M_{ij} for j > i.
    """

    k: int
    m: int
    v_cols: tuple[int, ...]
    m_upper: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.k <= MAX_MONOMIAL_COPIES:
            raise ValidationError(f"need 1 <= k <= {MAX_MONOMIAL_COPIES}, got k={self.k}")
        if not 0 <= self.m <= self.k - 1:
            raise ValidationError(f"need 0 <= m <= k-1, got m={self.m}")
        if len(self.v_cols) != self.m or len(self.m_upper) != self.m:
            raise ValidationError("field lengths must equal m")
        mask = (1 << self.k) - 1
        for col in self.v_cols:
            if col & ~mask or col.bit_count() % 2:
                raise ValidationError("columns must be k-bit masks of even weight")
        if rank(list(self.v_cols), self.k) != self.m:
            raise ValidationError("columns must be linearly independent")
        for i, row in enumerate(self.m_upper):
            if row & ((1 << (i + 1)) - 1) or row >> self.m:
                raise ValidationError("phase rows may only use strict upper positions")

    def phase_bit(self, i: int, j: int) -> int:
        """M_{ij} for i < j."""
        return (self.m_upper[i] >> j) & 1


def _rref_row_matrices(ncoords: int, m: int) -> list[tuple[int, ...]]:
    """All rank-m RREF matrices over F_2 with ncoords columns, rows as bitmasks."""
    if m == 0:
        return [()]
    out = []
    for pivots in itertools.combinations(range(ncoords), m):
        free = [
            (r, c)
            for r, p in enumerate(pivots)
            for c in range(p + 1, ncoords)
            if c not in pivots
        ]
        for bits in range(1 << len(free)):
            rows = [1 << p for p in pivots]
            for idx, (r, c) in enumerate(free):
                if (bits >> idx) & 1:
                    rows[r] |= 1 << c
            out.append(tuple(rows))
    return out


def _coords_to_even_column(coords: int) -> int:
    """Map even-subspace coordinates to a k-bit even-weight vector.

    Coordinate i corresponds to the basis vector e_0 + e_{i+1}, so the image
    is the coordinate mask shifted up with a parity bit at position 0.
    """
    return (coords << 1) | (coords.bit_count() & 1)


def enumerate_monomials(k: int) -> list[PauliMonomial]:
    """Canonical monomials for k copies; validated against the count formula."""
    if not 1 <= k <= MAX_MONOMIAL_COPIES:
        raise ValidationError(f"enumeration supports 1 <= k <= {MAX_MONOMIAL_COPIES}")
    out = []
    for m in range(k):
        for rows in _rref_row_matrices(k - 1, m):
            cols = tuple(_coords_to_even_column(r) for r in rows)
            pair_positions = [(i, j) for i in range(m) for j in range(i + 1, m)]
            for phase_bits in range(1 << len(pair_positions)):
                upper = [0] * m
                for idx, (i, j) in enumerate(pair_positions):
                    if (phase_bits >> idx) & 1:
                        upper[i] |= 1 << j
                out.append(PauliMonomial(k, m, cols, tuple(upper)))
    if len(out) != monomial_count(k):
        raise InternalConsistencyError(
            f"enumerated {len(out)} monomials at k={k}, expected {monomial_count(k)}"
        )
    return out


# Label tuples times matrix rows per pass of _site_matrices, which bounds
# its transient arrays to a few MB.  Passes of 2^14..2^16 entries built the
# k = 5 stack fastest; 2^20 took a third longer.
_SITE_PASS_ENTRIES = 1 << 15


def _site_matrices(monos) -> np.ndarray:
    """Single-site factors of monomials sharing one k, as (len(monos), 2^k, 2^k).

    The factor of a monomial with columns v_1..v_m and phase matrix M is
    2^-m sum_l sign_M(l) P_{l_1}(v_1) ... P_{l_m}(v_m) over label tuples l in
    {I, X, Z, Y}^m (bit 0 = X part, bit 1 = Z part), where P_l(v) has x = v
    for an X part and z = v for a Z part, products follow pauli_mul's phase
    rule, and sign_M(l) is the product of the commutation signs chi(l_i, l_j)
    over the pairs i < j with M_ij = 1.  Monomials of equal m are done
    together, label tuples in itertools.product order, and every Pauli's
    entries are scattered into the matrices with np.bincount.
    """
    d = 1 << monos[0].k
    rows = np.arange(d)
    cnt = np.bitwise_count
    out = np.empty((len(monos), d, d), dtype=complex)
    by_m: dict[int, list[int]] = {}
    for i, mono in enumerate(monos):
        by_m.setdefault(mono.m, []).append(i)
    for m, idx in by_m.items():
        ntup = 4**m
        labels = (np.arange(ntup)[:, None] >> (2 * np.arange(m - 1, -1, -1))) & 3
        lx, lz = labels & 1, labels >> 1
        # chi(l_i, l_j) = -1 iff (x_i & z_j) ^ (z_i & x_j)
        anti = (lx[:, :, None] & lz[:, None, :]) ^ (lz[:, :, None] & lx[:, None, :])
        per = max(1, _SITE_PASS_ENTRIES // (ntup * d))
        for lo in range(0, len(idx), per):
            block = idx[lo : lo + per]
            g = len(block)
            cols = np.array([monos[i].v_cols for i in block], dtype=np.int64).reshape(g, m)
            upper = np.array([monos[i].m_upper for i in block], dtype=np.int64).reshape(g, m)
            phase_bits = (upper[:, :, None] >> np.arange(m)) & 1
            sign = (phase_bits.reshape(g, m * m) @ anti.reshape(ntup, m * m).T) & 1
            x = np.zeros((g, ntup), dtype=np.int64)
            z = np.zeros_like(x)
            ph = np.zeros_like(x)
            for j in range(m):
                fx = lx[:, j] * cols[:, j, None]
                fz = lz[:, j] * cols[:, j, None]
                nx, nz = x ^ fx, z ^ fz
                ph = (ph + cnt(x & z) + cnt(fx & fz) + 2 * cnt(z & fx) - cnt(nx & nz)) % 4
                x, z = nx, nz
            src, fac = _pauli_action(x[..., None], z[..., None], (ph + 2 * sign)[..., None], rows)
            flat = ((np.arange(g)[:, None, None] * d + rows) * d + src).ravel()
            for part, vals in ((out.real, fac.real), (out.imag, fac.imag)):
                summed = np.bincount(flat, vals.ravel(), minlength=g * d * d)
                part[block] = summed.reshape(g, d, d) / (1 << m)
    return out


def monomial_site_matrix(mono: PauliMonomial) -> DenseOperator:
    """The single-site 2^k x 2^k factor; the full operator is its n-th power."""
    return DenseOperator(1 << mono.k, _site_matrices([mono])[0])


@lru_cache(maxsize=None)
def _site_stack(k: int) -> tuple[tuple[PauliMonomial, ...], np.ndarray]:
    monos = tuple(enumerate_monomials(k))
    mats = _site_matrices(monos)
    mats.flags.writeable = False
    return monos, mats


def _integer_exponent(values, k: int, what: str) -> np.ndarray:
    """k - log2(values) elementwise, demanded to be integers within 1e-6."""
    values = np.asarray(values, dtype=float)
    positive = values > 0
    if not positive.all():
        bad = values[~positive].flat[0]
        raise InternalConsistencyError(f"{what}: expected a positive power of two, got {bad}")
    a = k - np.log2(values)
    r = np.rint(a)
    off = np.abs(a - r) > 1e-6
    if off.any():
        raise InternalConsistencyError(f"{what}: exponent {a[off].flat[0]} is not an integer")
    return r.astype(np.int64)


def _alpha_from_sites(site_a: np.ndarray, site_b: np.ndarray, k: int) -> int:
    tr = np.vdot(site_a, site_b)  # trace of a^dagger b
    if abs(tr.imag) > 1e-9:
        raise InternalConsistencyError("site overlap came out complex")
    return int(_integer_exponent(tr.real, k, "alpha"))


def alpha(a: PauliMonomial, b: PauliMonomial) -> int:
    """Integer exponent with tr(A^dagger B) = d^(k - alpha) for every n."""
    if a.k != b.k:
        raise ValidationError("monomials must share the copy count")
    return _alpha_from_sites(
        monomial_site_matrix(a).matrix, monomial_site_matrix(b).matrix, a.k
    )


def trace_norm_exponent(mono: PauliMonomial) -> int:
    """m_p with trace norm d^(k - m_p), from single-site singular values."""
    if mono.k > MAX_TABLE_COPIES:
        raise ValidationError(f"trace-norm exponent supports k <= {MAX_TABLE_COPIES}")
    s = float(np.linalg.svd(monomial_site_matrix(mono).matrix, compute_uv=False).sum())
    return int(_integer_exponent(s, mono.k, "trace-norm exponent"))


# ---------------------------------------------------------------------------
# Gram and Weingarten tables


@dataclass(frozen=True, eq=False)
class WeingartenTable:
    """Gram matrix G and (pseudo)inverse W over the canonical monomial basis."""

    k: int
    n: int
    monomials: tuple[PauliMonomial, ...]
    gram: np.ndarray
    weingarten: np.ndarray | None
    pseudo: bool
    gram_min_singular: float


@lru_cache(maxsize=None)
def _alpha_table(k: int) -> np.ndarray:
    _, mats = _site_stack(k)
    flat = mats.reshape(len(mats), -1)
    overlaps = flat.conj() @ flat.T
    if np.max(np.abs(overlaps.imag)) > 1e-9:
        raise InternalConsistencyError("monomial overlaps came out complex")
    out = _integer_exponent(overlaps.real, k, "alpha")
    out.flags.writeable = False
    return out


def check_table_args(k: int, n: int) -> None:
    """ValidationError unless gram_matrix and weingarten_table accept (k, n)."""
    if not 1 <= k <= MAX_TABLE_COPIES:
        raise ValidationError(f"tables support 1 <= k <= {MAX_TABLE_COPIES}")
    if n < 1:
        raise ValidationError("need n >= 1")


def gram_matrix(k: int, n: int) -> WeingartenTable:
    """G[i,j] = d^(-alpha_ij) with d = 2^n; W left unset."""
    check_table_args(k, n)
    monos, _ = _site_stack(k)
    g = np.power(2.0, -float(n) * _alpha_table(k))
    smin = float(np.linalg.svd(g, compute_uv=False).min())
    g.flags.writeable = False
    return WeingartenTable(k, n, monos, g, None, False, smin)


def _stable_inverse(mat: np.ndarray, rcond: float) -> tuple[np.ndarray, bool]:
    """(inverse, False), or (pseudoinverse at rcond, True) when the ratio of
    the extreme singular values falls below rcond."""
    s = np.linalg.svd(mat, compute_uv=False)
    if s.min() / s.max() < rcond:
        return np.linalg.pinv(mat, rcond=rcond), True
    return np.linalg.inv(mat), False


@lru_cache(maxsize=None)
def weingarten_table(k: int, n: int) -> WeingartenTable:
    """Gram matrix plus its inverse (pseudoinverse with flag when singular)."""
    base = gram_matrix(k, n)
    w, pseudo = _stable_inverse(base.gram, 1e-10)
    w = 0.5 * (w + w.T)  # G is symmetric; keep its inverse exactly so
    w.flags.writeable = False
    return replace(base, weingarten=w, pseudo=pseudo)


# ---------------------------------------------------------------------------
# full-register monomial matrices and the Clifford twirl


def _interleave_index_map(k: int, n: int) -> np.ndarray:
    """Basis map from qubit-major bits (q*k + c) to copy-major bits (c*n + q)."""
    m = n * k
    out = np.zeros(1 << m, dtype=np.int64)
    for src in range(1 << m):
        j = 0
        for q in range(n):
            for c in range(k):
                if (src >> (q * k + c)) & 1:
                    j |= 1 << (c * n + q)
        out[src] = j
    return out


@lru_cache(maxsize=None)
def _full_stack(k: int, n: int) -> np.ndarray:
    """All monomial matrices on the full (2^n)^k register, copy-major layout."""
    dim = 1 << (n * k)
    if dim > MAX_COPY_OPERATOR_DIM:
        raise ValidationError(
            f"k-copy operators limited to dimension {MAX_COPY_OPERATOR_DIM}, need {dim}"
        )
    _, sites = _site_stack(k)
    idx = _interleave_index_map(k, n)
    out = np.empty((len(sites), dim, dim), dtype=complex)
    for i, site in enumerate(sites):
        full = reduce(np.kron, [site] * n)
        out[i][np.ix_(idx, idx)] = full
    out.flags.writeable = False
    return out


def _operand(o) -> np.ndarray:
    return np.asarray(getattr(o, "matrix", o), dtype=complex)


def clifford_twirl(o, k: int, n: int) -> DenseOperator:
    """Average of C^(x)k O C^(x)k-dagger over the uniform Clifford group.

    Evaluated in closed form through the Weingarten table:
    (1/d^k) sum_{A,B} W[A,B] B tr(A^dagger O).
    """
    table = weingarten_table(k, n)
    mats = _full_stack(k, n)
    dim = mats.shape[1]
    om = _operand(o)
    if om.shape != (dim, dim):
        raise ValidationError(f"operand must be {dim}x{dim} for k={k}, n={n}")
    traces = mats.reshape(len(mats), -1).conj() @ om.reshape(-1)
    coeffs = table.weingarten @ traces
    res = np.tensordot(coeffs, mats, axes=1) / float(2 ** (n * k))
    return DenseOperator(dim, res)


# ---------------------------------------------------------------------------
# permutation operators and Haar twirls

MAX_HAAR_COPIES = 4


@dataclass(frozen=True)
class PermutationOp:
    """T_pi on k copies of a d-dimensional system: digit c -> digit pi(c)."""

    perm: tuple[int, ...]
    d: int

    def __post_init__(self) -> None:
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValidationError(f"not a permutation: {self.perm}")
        if self.d < 1:
            raise ValidationError("need d >= 1")

    @property
    def matrix(self) -> np.ndarray:
        return _permutation_matrix(self.perm, self.d)


def _permutation_matrix(perm: tuple[int, ...], d: int) -> np.ndarray:
    k = len(perm)
    dim = d**k
    if dim > MAX_COPY_OPERATOR_DIM:
        raise ValidationError("permutation operator exceeds the k-copy dimension limit")
    inv = [0] * k
    for c, p in enumerate(perm):
        inv[p] = c
    src = np.zeros(dim, dtype=np.int64)
    for i in range(dim):
        digits = [(i // d**c) % d for c in range(k)]
        j = sum(digits[inv[c]] * d**c for c in range(k))
        src[j] = i
    t = np.zeros((dim, dim))
    t[np.arange(dim), src] = 1.0
    return t


def _cycle_count(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            c = start
            while not seen[c]:
                seen[c] = True
                c = perm[c]
    return cycles


def _compose_perm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a after b): c -> a[b[c]]."""
    return tuple(a[b[c]] for c in range(len(a)))


def _invert_perm(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for c, p in enumerate(a):
        inv[p] = c
    return tuple(inv)


def permutation_gram(k: int, d: int) -> np.ndarray:
    """Lambda[pi, sigma] = tr(T_pi^dagger T_sigma) = d^cycles(pi^-1 sigma)."""
    perms = list(itertools.permutations(range(k)))
    lam = np.empty((len(perms), len(perms)))
    for i, p in enumerate(perms):
        pi = _invert_perm(p)
        for j, q in enumerate(perms):
            lam[i, j] = float(d) ** _cycle_count(_compose_perm(pi, q))
    return lam


def haar_twirl(o, k: int, d: int) -> DenseOperator:
    """Exact Haar k-fold twirl: orthogonal projection onto span{T_pi}."""
    if not 1 <= k <= MAX_HAAR_COPIES:
        raise ValidationError(f"Haar twirls support 1 <= k <= {MAX_HAAR_COPIES}")
    if d**k > MAX_COPY_OPERATOR_DIM:
        raise ValidationError("k-copy dimension over limit")
    tmats = np.stack([_permutation_matrix(p, d) for p in itertools.permutations(range(k))])
    om = _operand(o)
    dim = d**k
    if om.shape != (dim, dim):
        raise ValidationError(f"operand must be {dim}x{dim}")
    winv, _ = _stable_inverse(permutation_gram(k, d), 1e-12)
    traces = tmats.reshape(len(tmats), -1) @ om.reshape(-1)  # T real
    coeffs = winv @ traces
    return DenseOperator(dim, np.tensordot(coeffs, tmats, axes=1))


# ---------------------------------------------------------------------------
# Vandermonde conditioning check


@dataclass(frozen=True)
class VandermondeReport:
    k: int
    row_sums: tuple[float, ...]
    bounds: tuple[float, ...]
    ratios: tuple[float, ...]
    max_ratio: float
    all_ok: bool


def _fraction_inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    k = len(m)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(m)]
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if piv is None:
            raise InternalConsistencyError("matrix is singular over the rationals")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def vandermonde_bound_check(k: int) -> VandermondeReport:
    """Exact-rational check that rows of the inverse of M_ij = 2^(-ij) obey
    sum_j |inv_ij| <= 30 * 2^(k i - i(i-1)/2); i, j run over 1..k."""
    if not 1 <= k <= 16:
        raise ValidationError("need 1 <= k <= 16")
    m = [[Fraction(1, 1 << (i * j)) for j in range(1, k + 1)] for i in range(1, k + 1)]
    inv = _fraction_inverse(m)
    sums, bounds, ratios = [], [], []
    ok = True
    for i in range(1, k + 1):
        s = sum(abs(v) for v in inv[i - 1])
        bound = Fraction(30 * (1 << (k * i - i * (i - 1) // 2)))
        ok = ok and s <= bound
        sums.append(float(s))
        bounds.append(float(bound))
        ratios.append(float(s / bound))
    return VandermondeReport(k, tuple(sums), tuple(bounds), tuple(ratios), max(ratios), ok)


# ---------------------------------------------------------------------------
# table archive


ARCHIVE_SCHEMA_VERSION = 1


def export_weingarten_table(table: WeingartenTable, path: str) -> None:
    """Write a diff-friendly JSON archive with exact (hex) float serialization."""
    if table.weingarten is None:
        raise ValidationError("table has no Weingarten part; build it with weingarten_table")
    doc = {
        "schema_version": ARCHIVE_SCHEMA_VERSION,
        "kind": "weingarten_table",
        "k": table.k,
        "n": table.n,
        "normalization": "gram[a,b] = tr(conj_transpose(A) B) / d^k",
        "pseudo": table.pseudo,
        "gram_min_singular": table.gram_min_singular.hex(),
        "monomials": [
            {"m": mn.m, "v_cols": list(mn.v_cols), "m_upper": list(mn.m_upper)}
            for mn in table.monomials
        ],
        "gram": [[v.hex() for v in row] for row in table.gram.tolist()],
        "weingarten": [[v.hex() for v in row] for row in table.weingarten.tolist()],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_weingarten_table(path: str) -> WeingartenTable:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != ARCHIVE_SCHEMA_VERSION:
        raise ValidationError(f"unsupported archive version {doc.get('schema_version')}")
    if doc.get("kind") != "weingarten_table":
        raise ValidationError("not a weingarten_table archive")
    k = doc["k"]
    monos = tuple(
        PauliMonomial(k, entry["m"], tuple(entry["v_cols"]), tuple(entry["m_upper"]))
        for entry in doc["monomials"]
    )
    g = np.array([[float.fromhex(v) for v in row] for row in doc["gram"]])
    w = np.array([[float.fromhex(v) for v in row] for row in doc["weingarten"]])
    return WeingartenTable(
        k, doc["n"], monos, g, w, doc["pseudo"], float.fromhex(doc["gram_min_singular"])
    )
