"""Linear algebra over F_2 on plain int bitsets.

A vector is a Python int, little-endian: coordinate j lives at bit j.  Every
function takes the width explicitly, as ncols or, for symplectic vectors of
length 2n, as n.  Symplectic vectors use the x-block-then-z-block layout:
bits 0..n-1 hold the x part, bits n..2n-1 the z part, and the form is
<u,v> = u_x.v_z + u_z.v_x (mod 2).

Every subspace-returning operation emits the reduced-row-echelon basis of its
result, so two equal spans always compare equal as data.  A zero-dimensional
result is the empty list.
"""

from __future__ import annotations

from .errors import InternalConsistencyError


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


def rref_basis(rows: list[int], ncols: int) -> list[int]:
    """Canonical (RREF) basis of the span of rows."""
    return _rref(rows, ncols)[0]


def rank(rows: list[int], ncols: int) -> int:
    return len(_rref(rows, ncols)[0])


def nullspace(rows: list[int], ncols: int) -> list[int]:
    """Canonical basis of {v : popcount(row & v) even for every row}."""
    rows, pivots = _rref(rows, ncols)
    pivot_set = set(pivots)
    free_cols = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free_cols:
        v = 1 << f
        for i, p in enumerate(pivots):
            if (rows[i] >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return rref_basis(basis, ncols)


def in_span(v: int, basis: list[int], ncols: int) -> bool:
    rows, pivots = _rref(basis, ncols)
    for row, p in zip(rows, pivots):
        if (v >> p) & 1:
            v ^= row
    return v == 0


def span_intersect(a: list[int], b: list[int], ncols: int) -> list[int]:
    """Canonical basis of span(a) & span(b), by the Zassenhaus block trick."""
    if not a or not b:
        return []
    # Rows [u | u] for u in a, [w | 0] for w in b, in RREF over both blocks:
    # the rows that pivot in the right block (high bits) span the intersection
    # there, already in RREF.
    rows, pivots = _rref([u | (u << ncols) for u in a] + b, 2 * ncols)
    return [r >> ncols for r, p in zip(rows, pivots) if p >= ncols]


def solve(rows: list[int], rhs: list[int], ncols: int) -> int:
    """One x with popcount(row & x) = rhs bit (mod 2) for every row; free
    variables are zero.  Raises on an inconsistent system."""
    aug, pivots = _rref([r | ((b & 1) << ncols) for r, b in zip(rows, rhs)], ncols + 1)
    if pivots and pivots[-1] == ncols:
        raise InternalConsistencyError("inconsistent linear system")
    x = 0
    for r, p in zip(aug, pivots):
        x |= ((r >> ncols) & 1) << p
    return x


def swap_halves(v: int, n: int) -> int:
    """Apply the symplectic form matrix J: (x|z) -> (z|x)."""
    return (v >> n) | ((v & ((1 << n) - 1)) << n)


def symplectic_product(u: int, v: int, n: int) -> int:
    return (u & swap_halves(v, n)).bit_count() & 1


def symplectic_complement(x: list[int], n: int) -> list[int]:
    """Canonical basis of {v : <v, u> = 0 for all u in span(x)}."""
    return nullspace([swap_halves(u, n) for u in x], 2 * n)
