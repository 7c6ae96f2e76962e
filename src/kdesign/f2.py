"""Linear algebra over F_2 with int-bitset rows.

Vectors are little-endian bitsets: coordinate j lives at bit j of a Python int.
Symplectic vectors of length 2n use the x-block-then-z-block layout: bits
0..n-1 hold the x part, bits n..2n-1 the z part, and the form is
<u,v> = u_x.v_z + u_z.v_x (mod 2).

Every subspace-returning operation emits the reduced-row-echelon basis of its
result, so two equal spans always compare equal as data.  A zero-dimensional
result is the empty list.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class BinVec:
    """Length-tagged bit vector over F_2."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValidationError(f"BinVec length must be nonnegative, got {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ValidationError(f"bits 0x{self.bits:x} do not fit in {self.n} positions")

    def __xor__(self, other: "BinVec") -> "BinVec":
        if self.n != other.n:
            raise ValidationError(f"length mismatch: {self.n} vs {other.n}")
        return BinVec(self.n, self.bits ^ other.bits)

    def bit(self, j: int) -> int:
        return (self.bits >> j) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    @classmethod
    def zero(cls, n: int) -> "BinVec":
        return cls(n, 0)


@dataclass(frozen=True)
class BinMat:
    """Row-major binary matrix; rows are int bitsets of width ncols."""

    ncols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        for r in self.rows:
            if r < 0 or r >> self.ncols:
                raise ValidationError(f"row 0x{r:x} does not fit in {self.ncols} columns")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row_vecs(self) -> list[BinVec]:
        return [BinVec(self.ncols, r) for r in self.rows]

    @classmethod
    def from_vecs(cls, vecs: list[BinVec]) -> "BinMat":
        if not vecs:
            raise ValidationError("cannot infer width from an empty vector list; use BinMat(n, ())")
        n = vecs[0].n
        for v in vecs:
            if v.n != n:
                raise ValidationError("mixed vector lengths in matrix")
        return cls(n, tuple(v.bits for v in vecs))

    def transpose(self) -> "BinMat":
        cols = []
        for j in range(self.ncols):
            c = 0
            for i, r in enumerate(self.rows):
                c |= ((r >> j) & 1) << i
            cols.append(c)
        return BinMat(self.nrows, tuple(cols))


def _rref(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form. Returns (nonzero rows, pivot columns).

    Pivoting picks the first row with a nonzero entry in the scanned column;
    columns are scanned left to right (bit 0 upward).
    """
    work = [r for r in rows]
    pivots: list[int] = []
    head = 0
    for col in range(ncols):
        sel = None
        for i in range(head, len(work)):
            if (work[i] >> col) & 1:
                sel = i
                break
        if sel is None:
            continue
        work[head], work[sel] = work[sel], work[head]
        for i in range(len(work)):
            if i != head and ((work[i] >> col) & 1):
                work[i] ^= work[head]
        pivots.append(col)
        head += 1
        if head == len(work):
            break
    return work[:head], pivots


def rref_basis(vecs: list[BinVec], n: int | None = None) -> list[BinVec]:
    """Canonical (RREF) basis of the span of vecs."""
    if not vecs:
        return []
    width = n if n is not None else vecs[0].n
    rows, _ = _rref([v.bits for v in vecs], width)
    return [BinVec(width, r) for r in rows]


def rank(a: BinMat) -> int:
    rows, _ = _rref(list(a.rows), a.ncols)
    return len(rows)


def nullspace(a: BinMat) -> list[BinVec]:
    """Canonical basis of {v : A v = 0}."""
    rows, pivots = _rref(list(a.rows), a.ncols)
    pivot_set = set(pivots)
    free_cols = [j for j in range(a.ncols) if j not in pivot_set]
    basis = []
    for f in free_cols:
        v = 1 << f
        for i, p in enumerate(pivots):
            if (rows[i] >> f) & 1:
                v |= 1 << p
        basis.append(v)
    out, _ = _rref(basis, a.ncols)
    return [BinVec(a.ncols, r) for r in out]


def in_span(v: BinVec, basis: list[BinVec]) -> bool:
    rows, pivots = _rref([b.bits for b in basis], v.n)
    r = v.bits
    for row, p in zip(rows, pivots):
        if (r >> p) & 1:
            r ^= row
    return r == 0


def span_intersect(a: list[BinVec], b: list[BinVec]) -> list[BinVec]:
    """Canonical basis of span(a) & span(b), by the Zassenhaus block trick."""
    if not a or not b:
        return []
    n = a[0].n
    for v in a + b:
        if v.n != n:
            raise ValidationError("mixed vector lengths")
    # Rows [u | u] for u in a, [w | 0] for w in b; eliminate on the left block
    # (low bits), rows whose left block died span the intersection on the right.
    work = [u.bits | (u.bits << n) for u in a] + [w.bits for w in b]
    head = 0
    for col in range(n):
        sel = None
        for i in range(head, len(work)):
            if (work[i] >> col) & 1:
                sel = i
                break
        if sel is None:
            continue
        work[head], work[sel] = work[sel], work[head]
        for i in range(len(work)):
            if i != head and ((work[i] >> col) & 1):
                work[i] ^= work[head]
        head += 1
    mask = (1 << n) - 1
    tail = [r >> n for r in work[head:] if r >> n]
    out, _ = _rref(tail, n)
    return [BinVec(n, r) for r in out]


def symplectic_product(u: BinVec, v: BinVec) -> int:
    if u.n != v.n:
        raise ValidationError(f"length mismatch: {u.n} vs {v.n}")
    if u.n % 2:
        raise ValidationError(f"symplectic vectors need even length, got {u.n}")
    n = u.n // 2
    mask = (1 << n) - 1
    ux, uz = u.bits & mask, u.bits >> n
    vx, vz = v.bits & mask, v.bits >> n
    return ((ux & vz).bit_count() + (uz & vx).bit_count()) & 1


def swap_halves(v: BinVec) -> BinVec:
    """Apply the symplectic form matrix J: (x|z) -> (z|x)."""
    if v.n % 2:
        raise ValidationError(f"symplectic vectors need even length, got {v.n}")
    n = v.n // 2
    mask = (1 << n) - 1
    return BinVec(v.n, (v.bits >> n) | ((v.bits & mask) << n))


def symplectic_complement(x: list[BinVec]) -> list[BinVec]:
    """Canonical basis of {v : <v, u> = 0 for all u in span(x)}.

    For empty x the complement is all of F_2^(2n), which has no defined width
    here, so empty input is rejected.
    """
    if not x:
        raise ValidationError("symplectic_complement needs at least one vector to fix the width")
    mat = BinMat.from_vecs([swap_halves(u) for u in x])
    return nullspace(mat)
