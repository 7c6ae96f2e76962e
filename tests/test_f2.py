"""F_2 linear algebra against brute-force oracles.

The oracles enumerate all 2^n vectors, so they are exact for small widths;
widths up to 10 are covered exhaustively via randomized matrices.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from kdesign.errors import InternalConsistencyError
from kdesign.f2 import (
    nullspace,
    rank,
    rref_basis,
    solve,
    span_intersect,
    swap_halves,
    symplectic_complement,
    symplectic_product,
)


# ---------------------------------------------------------------- oracles


def naive_span(vecs: list[int]) -> set[int]:
    """All 2^dim elements of the span, by closing under XOR."""
    out = {0}
    for v in vecs:
        out |= {w ^ v for w in out}
    return out


def naive_rank(rows: list[int]) -> int:
    return len(naive_span(rows)).bit_length() - 1


def transpose(rows: list[int], ncols: int) -> list[int]:
    return [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(ncols)]


def naive_nullspace(rows: list[int], n: int) -> set[int]:
    out = set()
    for v in range(1 << n):
        if all((r & v).bit_count() % 2 == 0 for r in rows):
            out.add(v)
    return out


def naive_symplectic_product(u: int, v: int, half: int) -> int:
    mask = (1 << half) - 1
    ux, uz = u & mask, u >> half
    vx, vz = v & mask, v >> half
    return ((ux & vz).bit_count() + (uz & vx).bit_count()) % 2


# ---------------------------------------------------------------- strategies

widths = st.integers(min_value=1, max_value=10)


@st.composite
def random_matrix(draw):
    n = draw(widths)
    nrows = draw(st.integers(min_value=0, max_value=n + 2))
    rows = [draw(st.integers(min_value=0, max_value=(1 << n) - 1)) for _ in range(nrows)]
    return rows, n


# ---------------------------------------------------------------- rank / rref


@settings(max_examples=200, deadline=None)
@given(random_matrix())
def test_rank_matches_span_size(a):
    assert rank(*a) == naive_rank(a[0])


@settings(max_examples=200, deadline=None)
@given(random_matrix())
def test_rank_equals_transpose_rank(a):
    rows, ncols = a
    assert rank(rows, ncols) == rank(transpose(rows, ncols), len(rows))


@settings(max_examples=200, deadline=None)
@given(random_matrix())
def test_rref_basis_is_canonical(a):
    vecs, ncols = a
    basis = rref_basis(vecs, ncols)
    # same span
    assert naive_span(basis) == naive_span(vecs)
    # canonical: re-running on a shuffled spanning set gives identical data
    again = rref_basis(list(reversed(vecs)) + basis, ncols)
    assert again == basis
    # echelon with unit pivot columns
    seen_pivots = []
    for i, v in enumerate(basis):
        p = (v & -v).bit_length() - 1
        assert all(p > q for q in seen_pivots) or not seen_pivots or p > max(seen_pivots)
        seen_pivots.append(p)
        for j, w in enumerate(basis):
            if j != i:
                assert (w >> p) & 1 == 0


@settings(max_examples=200, deadline=None)
@given(random_matrix())
def test_rank_nullity(a):
    rows, ncols = a
    ns = nullspace(rows, ncols)
    assert rank(rows, ncols) + len(ns) == ncols
    for v in ns:
        assert all((r & v).bit_count() % 2 == 0 for r in rows)


@settings(max_examples=200, deadline=None)
@given(random_matrix())
def test_nullspace_matches_enumeration(a):
    rows, ncols = a
    assert naive_span(nullspace(rows, ncols)) == naive_nullspace(rows, ncols)


def test_nullspace_zero_dimensional_is_empty():
    assert nullspace([0b01, 0b10], 2) == []


# ---------------------------------------------------------------- span intersection


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_span_intersect_matches_enumeration(data):
    n = data.draw(widths)
    va = [data.draw(st.integers(0, (1 << n) - 1)) for _ in range(data.draw(st.integers(1, 4)))]
    vb = [data.draw(st.integers(0, (1 << n) - 1)) for _ in range(data.draw(st.integers(1, 4)))]
    got = span_intersect(va, vb, n)
    expect = naive_span(va) & naive_span(vb)
    assert naive_span(got) == expect
    # symmetric and canonical
    assert span_intersect(vb, va, n) == got


def test_span_intersect_empty_inputs():
    assert span_intersect([], [5], 3) == []


# ---------------------------------------------------------------- symplectic structure


def test_solve_against_brute_force():
    rng = random.Random(111)
    width = 6
    outcomes = set()
    for _ in range(200):
        rows = [rng.randrange(1, 1 << width) for _ in range(rng.randrange(1, 9))]
        rhs = [rng.randrange(2) for _ in rows]

        def solves(x):
            return all((r & x).bit_count() % 2 == b for r, b in zip(rows, rhs))

        consistent = any(solves(x) for x in range(1 << width))
        outcomes.add(consistent)
        if consistent:
            assert solves(solve(rows, rhs, width))
        else:
            with pytest.raises(InternalConsistencyError):
                solve(rows, rhs, width)
    assert outcomes == {True, False}
    # the three rows sum to zero, the right-hand sides to one
    with pytest.raises(InternalConsistencyError):
        solve([0b011, 0b101, 0b110], [1, 0, 0], 3)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_symplectic_product_properties(data):
    half = data.draw(st.integers(1, 5))
    n = 2 * half
    u, v, w = (data.draw(st.integers(0, (1 << n) - 1)) for _ in range(3))
    assert symplectic_product(u, v, half) == naive_symplectic_product(u, v, half)
    # alternating and symmetric over F_2
    assert symplectic_product(u, u, half) == 0
    assert symplectic_product(u, v, half) == symplectic_product(v, u, half)
    # bilinear
    assert symplectic_product(u ^ v, w, half) == (
        symplectic_product(u, w, half) ^ symplectic_product(v, w, half)
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_symplectic_complement_matches_enumeration(data):
    half = data.draw(st.integers(1, 5))
    n = 2 * half
    x = [data.draw(st.integers(0, (1 << n) - 1)) for _ in range(data.draw(st.integers(1, 4)))]
    got = symplectic_complement(x, half)
    expect = {
        v
        for v in range(1 << n)
        if all(naive_symplectic_product(v, u, half) == 0 for u in x)
    }
    assert naive_span(got) == expect
    # dimension law: dim X^perp = 2n - rank(X)
    assert len(got) == n - rank(x, n)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_symplectic_double_complement_is_span(data):
    half = data.draw(st.integers(1, 4))
    n = 2 * half
    x = [data.draw(st.integers(1, (1 << n) - 1)) for _ in range(data.draw(st.integers(1, 3)))]
    comp = symplectic_complement(x, half)
    if comp:
        assert symplectic_complement(comp, half) == rref_basis(x, n)


def test_swap_halves():
    # x = 10, z = 01
    assert swap_halves(0b0110, 2) == 0b1001


# ---------------------------------------------------------------- exhaustive tiny cases


def test_exhaustive_width_two():
    # every matrix with up to 3 rows over F_2^2
    for nrows in range(4):
        for rows in itertools.product(range(4), repeat=nrows):
            assert rank(list(rows), 2) == naive_rank(list(rows))
            assert naive_span(nullspace(list(rows), 2)) == naive_nullspace(list(rows), 2)
