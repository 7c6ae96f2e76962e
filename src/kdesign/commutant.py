"""Commutant algebra of tensor-power Clifford actions.

The k-copy commutant is spanned by monomial operators that factorize over
qubit sites: each monomial is determined by an m-dimensional subspace of the
even-weight subspace of F_2^k together with a symmetric zero-diagonal phase
matrix M, and its full-register form is the n-fold tensor power of a single
2^k x 2^k site operator.  This module enumerates canonical monomials and
reads every commutant integer off their site supports T (below): alpha by
one kernel, _alpha, and the trace-norm exponent without an SVD.  gram_matrix
is the read-only G = 2^(-n alpha); weingarten_table, the one WeingartenTable
builder, inverts it.  Each basis has one cached read-only (inverse Gram,
index set) pair, _clifford_basis or _haar_basis, inverted by _stable_inverse
under one cutoff; both twirls are the one projection _commutant_project.

Index sets: the ones of a site matrix are a k-dimensional subspace T of
F_2^k x F_2^k, and _site_supports builds their 2^k positions from T in
closed form, from the monomial's columns and phase bits, without forming
the matrix.  So every full-register monomial and every permutation
operator T_pi is a 0/1 matrix with exactly D ones on its D x D register.
A basis is held as the (s, D) integer array of the flat positions
row * D + col of those ones, never as dense D x D matrices: traces against
an operand are gathers, sums of basis operators are scatter-adds, and the
overlaps and Choi states are real 0/1 GEMMs (_incidence).

Copy layout: copy c of qubit q sits at bit position c*n + q, i.e. base-d
digit c of an index is the computational index of copy c.  Permutation
operators use the same digit convention.  One index kernel,
_digit_permutation, reorders digits for both bases: it places the ones of
each permutation operator, and it spreads the row and column bits of each
site matrix's ones into the copy layout.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .dense import DenseOperator
from .errors import InternalConsistencyError, ValidationError
from .f2 import rank

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


def _site_supports(monos) -> np.ndarray:
    """Flat positions row * 2^k + col of the ones of the single-site factors
    of monomials sharing one k, as (len(monos), 2^k), each row ascending.

    Those ones are the k-dimensional subspace (Gross, Nezami and Walter,
    arXiv:1712.08628)
        T = {(y + sum_i u_i v_i, y) : v_j . y = sum_i u_i c_ij for every j}
    of F_2^k x F_2^k, where v_1..v_m are the monomial's columns,
    c_ii = |v_i|/2 mod 2, and c_ij = M_ij + [j < i] v_i . v_j for i != j with
    M the symmetric phase matrix.  Monomials of equal m are done together,
    every (u, y) in F_2^m x F_2^k tested at once.
    """
    k = monos[0].k
    y = np.arange(1 << k)
    out = np.empty((len(monos), 1 << k), dtype=np.int64)
    by_m: dict[int, list[int]] = {}
    for i, mono in enumerate(monos):
        by_m.setdefault(mono.m, []).append(i)
    for m, idx in by_m.items():
        g, bit = len(idx), np.arange(m)
        v = np.array([monos[i].v_cols for i in idx], dtype=np.int64).reshape(g, m)
        upper = np.array([monos[i].m_upper for i in idx], dtype=np.int64).reshape(g, m)
        phase = (upper[:, :, None] >> bit) & 1
        dots = np.bitwise_count(v[:, :, None] & v[:, None, :]) & 1
        c = (phase | phase.transpose(0, 2, 1)) ^ np.tril(dots, -1)
        c[:, bit, bit] = (np.bitwise_count(v) >> 1) & 1
        u = (np.arange(1 << m)[:, None] >> bit) & 1
        # bit j of lhs[., y] is v_j . y, of rhs[., u] sum_i u_i c_ij
        lhs = ((np.bitwise_count(v[:, :, None] & y) & 1) << bit[:, None]).sum(axis=1)
        rhs = (((u @ c) & 1) << bit).sum(axis=2)
        shift = np.bitwise_xor.reduce(u * v[:, None, :], axis=2)
        a, uu, yy = np.nonzero(rhs[:, :, None] == lhs[:, None, :])
        out[idx] = np.sort((((shift[a, uu] ^ yy) << k) | yy).reshape(g, 1 << k), axis=1)
    return out


def monomial_site_matrix(mono: PauliMonomial) -> DenseOperator:
    """The single-site 2^k x 2^k factor; the full operator is its n-th power."""
    d = 1 << mono.k
    mat = np.zeros(d * d, dtype=complex)
    mat[_site_supports([mono])[0]] = 1
    return DenseOperator(d, mat.reshape(d, d))


@lru_cache(maxsize=None)
def _site_stack(k: int) -> tuple[tuple[PauliMonomial, ...], np.ndarray]:
    """The canonical monomials and the _site_supports positions of their site
    matrices; InternalConsistencyError unless every row holds 2^k strictly
    increasing positions below 4^k, the form every index set rests on."""
    monos = tuple(enumerate_monomials(k))
    ones = _site_supports(monos)
    if (
        ones.shape != (len(monos), 1 << k)
        or (np.diff(ones, axis=1) <= 0).any()
        or not 0 <= ones.min() <= ones.max() < 1 << (2 * k)
    ):
        raise InternalConsistencyError("a site matrix is not 0/1 with 2^k ones")
    ones.flags.writeable = False
    return monos, ones


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


def _incidence(ones: np.ndarray, size: int) -> np.ndarray:
    """The real 0/1 (s, size) matrix with row a set to 1 at ones[a]."""
    x = np.zeros((len(ones), size))
    np.put_along_axis(x, ones, 1.0, axis=1)
    return x


def _alpha(ones: np.ndarray, k: int) -> np.ndarray:
    """alpha between every two rows of _site_supports: tr(A^dagger B) =
    |T_a & T_b|, the ones they share, counted by one real 0/1 GEMM."""
    x = _incidence(ones, 1 << (2 * k))
    return _integer_exponent(x @ x.T, k, "alpha")


def alpha(a: PauliMonomial, b: PauliMonomial) -> int:
    """Integer exponent with tr(A^dagger B) = d^(k - alpha) for every n."""
    if a.k != b.k:
        raise ValidationError("monomials must share the copy count")
    return int(_alpha(_site_supports([a, b]), a.k)[0, 1])


def trace_norm_exponent(mono: PauliMonomial) -> int:
    """m_p with trace norm d^(k - m_p), m_p = log2 |N| for N = {x : (x, 0) in
    T}: a site matrix has 2^k / |N|^2 nonzero singular values, all |N|."""
    defect = np.count_nonzero((_site_supports([mono])[0] & ((1 << mono.k) - 1)) == 0)
    return int(defect).bit_length() - 1


# ---------------------------------------------------------------------------
# Gram and Weingarten tables


@dataclass(frozen=True, eq=False)
class WeingartenTable:
    """Gram matrix G and (pseudo)inverse W over the canonical monomial basis."""

    k: int
    n: int
    monomials: tuple[PauliMonomial, ...]
    gram: np.ndarray
    weingarten: np.ndarray
    pseudo: bool
    gram_min_singular: float


@lru_cache(maxsize=None)
def _alpha_table(k: int) -> np.ndarray:
    _, ones = _site_stack(k)
    out = _alpha(ones, k)
    out.flags.writeable = False
    return out


def check_table_args(k: int, n: int) -> None:
    """ValidationError unless gram_matrix and weingarten_table accept (k, n)."""
    if not 1 <= k <= MAX_TABLE_COPIES:
        raise ValidationError(f"tables support 1 <= k <= {MAX_TABLE_COPIES}")
    if n < 1:
        raise ValidationError("need n >= 1")


def gram_matrix(k: int, n: int) -> np.ndarray:
    """G[a, b] = tr(A^dagger B) / d^k = d^(-alpha_ab) with d = 2^n, read-only."""
    check_table_args(k, n)
    g = np.power(2.0, -float(n) * _alpha_table(k))
    g.flags.writeable = False
    return g


# Every singular value of every reachable Gram matrix (monomials k <= 5,
# n <= 6; permutations k <= 6, d <= 16) is below 1e-13 or above 2e-3 times
# the largest, so any cutoff between those picks the same branch and keeps
# the same values.
_RCOND = 1e-10


def _stable_inverse(mat: np.ndarray) -> tuple[np.ndarray, bool, float]:
    """(inverse, False, smallest singular value s_min of mat), or the
    pseudoinverse at _RCOND and True when s_min / s_max falls below _RCOND."""
    s = np.linalg.svd(mat, compute_uv=False)
    pseudo = bool(s.min() / s.max() < _RCOND)
    w = np.linalg.pinv(mat, rcond=_RCOND) if pseudo else np.linalg.inv(mat)
    return w, pseudo, float(s.min())


@lru_cache(maxsize=None)
def weingarten_table(k: int, n: int) -> WeingartenTable:
    """Gram matrix plus its inverse (pseudoinverse with flag when singular)."""
    g = gram_matrix(k, n)
    w, pseudo, s_min = _stable_inverse(g)
    w = 0.5 * (w + w.T)  # G is symmetric; keep its inverse exactly so
    w.flags.writeable = False
    return WeingartenTable(k, n, _site_stack(k)[0], g, w, pseudo, s_min)


# ---------------------------------------------------------------------------
# commutant bases as index sets, and the twirls


def _digit_permutation(perm: tuple[int, ...], d: int) -> np.ndarray:
    """Index map of "digit c goes to digit perm[c]" on k base-d digits:
    entry i is the index whose digit perm[c] is digit c of i."""
    digits = np.arange(d ** len(perm))[:, None] // d ** np.arange(len(perm)) % d
    return digits @ d ** np.array(perm, dtype=np.int64)


def _check_copy_dim(d: int, k: int) -> None:
    """ValidationError unless d^k <= MAX_COPY_OPERATOR_DIM, checked first on
    the exponent k b <= log2 d^k, so a huge d or k builds no huge int."""
    b = d.bit_length() - 1
    if k * b >= MAX_COPY_OPERATOR_DIM.bit_length() or d**k > MAX_COPY_OPERATOR_DIM:
        raise ValidationError(
            f"k-copy operators limited to dimension {MAX_COPY_OPERATOR_DIM}, need {d}^{k}"
        )


@lru_cache(maxsize=None)
def _clifford_ones(k: int, n: int) -> np.ndarray:
    """Flat positions row * D + col of the ones of every monomial on the full
    D = 2^(nk) register, as (monomials, D), in the copy layout: the n-th
    tensor power of a site matrix has a one at each n-tuple of its ones, and
    copy bit c of qubit q goes to bit c*n + q."""
    _check_copy_dim(2, n * k)
    dim = 1 << (n * k)
    _, ones = _site_stack(k)
    spread = _digit_permutation(tuple(c * n for c in range(k)), 2)  # bit c -> bit c*n
    rows, cols = spread[ones >> k], spread[ones & ((1 << k) - 1)]
    r = c = np.zeros((len(ones), 1), dtype=np.int64)
    for q in range(n):
        r = (r[:, :, None] | rows[:, None, :] << q).reshape(len(ones), -1)
        c = (c[:, :, None] | cols[:, None, :] << q).reshape(len(ones), -1)
    out = r * dim + c
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _clifford_basis(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(inverse of tr(A^dagger B), ones of each A) over the monomials: the
    table's Gram matrix is tr(A^dagger B) / d^k, so the inverse is W / d^k."""
    _check_copy_dim(2, n * k)
    w = weingarten_table(k, n).weingarten / float(2 ** (n * k))
    w.flags.writeable = False
    return w, _clifford_ones(k, n)


def _commutant_project(w: np.ndarray, ones: np.ndarray, o) -> DenseOperator:
    """sum_{A,B} w[A,B] A tr(B^dagger O) over 0/1 operators A given by the
    flat positions of their ones, (s, D); the orthogonal projection onto
    their span when w inverts their Gram matrix.  Each tr(B^dagger O) is a
    sum of gathered entries of O, and the sum over A a scatter-add."""
    dim = ones.shape[1]
    om = np.asarray(getattr(o, "matrix", o), dtype=complex)
    if om.shape != (dim, dim):
        raise ValidationError(f"operand must be {dim}x{dim}")
    coeffs = np.repeat(w @ om.ravel()[ones].sum(axis=1), dim)
    out = np.empty(dim * dim, dtype=complex)
    out.real = np.bincount(ones.ravel(), coeffs.real, minlength=dim * dim)
    out.imag = np.bincount(ones.ravel(), coeffs.imag, minlength=dim * dim)
    return DenseOperator(dim, out.reshape(dim, dim))


def clifford_twirl(o, k: int, n: int) -> DenseOperator:
    """Average of C^(x)k O C^(x)k-dagger over the uniform Clifford group,
    in closed form as the projection onto the monomial span."""
    return _commutant_project(*_clifford_basis(k, n), o)


# ---------------------------------------------------------------------------
# permutation operators and Haar twirls

MAX_HAAR_COPIES = 4


def _permutation_ones(perm: tuple[int, ...], d: int) -> np.ndarray:
    """Flat positions row * D + col of the ones of T_pi, D = d^k."""
    k = len(perm)
    if sorted(perm) != list(range(k)):
        raise ValidationError(f"not a permutation: {perm}")
    if d < 1:
        raise ValidationError("need d >= 1")
    _check_copy_dim(d, k)
    dim = d**k
    return _digit_permutation(perm, d) * dim + np.arange(dim)


def permutation_matrix(perm: tuple[int, ...], d: int) -> np.ndarray:
    """T_pi on k copies of a d-dimensional system: digit c -> digit pi(c)."""
    ones = _permutation_ones(perm, d)
    t = np.zeros(len(ones) ** 2)
    t[ones] = 1.0
    return t.reshape(len(ones), len(ones))


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


def permutation_gram(k: int, d: int) -> np.ndarray:
    """Lambda[pi, sigma] = tr(T_pi^dagger T_sigma) = d^cycles(pi^-1 sigma).

    One cycle count per element of S_k, looked up for every product
    pi^-1 sigma through a table from its base-k digits to its index."""
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    inverses = np.argsort(perms, axis=1)
    digits = np.zeros((len(perms), len(perms)), dtype=np.intp)
    for c in range(k):
        digits *= k
        digits += inverses[:, perms[:, c]]
    rank = np.zeros(k**k, dtype=np.intp)
    rank[perms @ k ** np.arange(k - 1, -1, -1)] = np.arange(len(perms))
    power = np.array([float(d) ** _cycle_count(p) for p in perms.tolist()])
    return power[rank[digits]]


@lru_cache(maxsize=None)
def _haar_basis(k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(inverse of tr(T_pi^dagger T_sigma), ones of each T_pi) over S_k; a
    pseudoinverse where d < k makes the T_pi dependent."""
    ones = np.stack([_permutation_ones(p, d) for p in itertools.permutations(range(k))])
    w, *_ = _stable_inverse(permutation_gram(k, d))
    w.flags.writeable = ones.flags.writeable = False
    return w, ones


def _haar_twirl_basis(k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    if not 1 <= k <= MAX_HAAR_COPIES:
        raise ValidationError(f"Haar twirls support 1 <= k <= {MAX_HAAR_COPIES}")
    return _haar_basis(k, d)


def haar_twirl(o, k: int, d: int) -> DenseOperator:
    """Exact Haar k-fold twirl: orthogonal projection onto span{T_pi}."""
    return _commutant_project(*_haar_twirl_basis(k, d), o)


def check_twirl_args(k: int, n: int) -> None:
    """ValidationError unless clifford_twirl(., k, n) and haar_twirl(., k, 2^n)
    accept (k, n), checked before an operand exists; the Clifford check
    bounds nk first, so 2^n is small when it is built."""
    _clifford_basis(k, n)
    _haar_twirl_basis(k, 1 << n)


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


def export_weingarten_table(table: WeingartenTable) -> str:
    """Diff-friendly JSON archive text with exact (hex) float serialization."""
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
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def load_weingarten_table(path: str) -> WeingartenTable:
    """The table of an export_weingarten_table archive.  ValidationError for
    a missing key, a ragged matrix, a bad hex string, or a monomial count
    other than monomial_count(k) and the matrices' shape."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != ARCHIVE_SCHEMA_VERSION:
        raise ValidationError(f"unsupported archive version {doc.get('schema_version')}")
    if doc.get("kind") != "weingarten_table":
        raise ValidationError("not a weingarten_table archive")
    try:
        k, n = doc["k"], doc["n"]
        check_table_args(k, n)
        monos = tuple(
            PauliMonomial(k, entry["m"], tuple(entry["v_cols"]), tuple(entry["m_upper"]))
            for entry in doc["monomials"]
        )
        g, w = (
            np.array([[float.fromhex(v) for v in row] for row in doc[key]])
            for key in ("gram", "weingarten")
        )
        table = WeingartenTable(
            k, n, monos, g, w, doc["pseudo"], float.fromhex(doc["gram_min_singular"])
        )
    except KeyError as e:
        raise ValidationError(f"table archive has no key {e}") from None
    except ValidationError:
        raise
    except (TypeError, ValueError) as e:  # ragged rows, bad hex strings
        raise ValidationError(f"malformed table archive: {e}") from None
    count = monomial_count(k)
    if not (len(monos) == count and g.shape == w.shape == (count, count)):
        raise ValidationError(
            f"a k={k} table has {count} monomials, the archive {len(monos)} "
            f"and {g.shape} and {w.shape} matrices"
        )
    return table
