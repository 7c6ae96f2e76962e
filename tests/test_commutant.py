"""Commutant tables and twirls against enumeration and Monte Carlo oracles."""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from kdesign import commutant
from kdesign.commutant import (
    PauliMonomial,
    _alpha_table,
    _clifford_basis,
    _clifford_ones,
    _digit_permutation,
    _fraction_inverse,
    _RCOND,
    _haar_basis,
    _integer_exponent,
    _site_stack,
    _site_supports,
    alpha,
    check_twirl_args,
    clifford_twirl,
    enumerate_monomials,
    export_weingarten_table,
    gram_matrix,
    haar_twirl,
    monomial_count,
    monomial_site_matrix,
    permutation_gram,
    permutation_matrix,
    trace_norm_exponent,
    vandermonde_bound_check,
    weingarten_table,
)
from kdesign.dense import haar_state, haar_unitary
from kdesign.errors import InternalConsistencyError, ValidationError
from kdesign.pauli import (
    PauliString,
    _pauli_action,
    _pauli_product,
    clifford_to_matrix,
    enumerate_cliffords,
    pauli_matrix,
    pauli_mul,
    random_clifford,
)


def test_monomial_counts():
    assert [monomial_count(k) for k in range(1, 7)] == [1, 2, 6, 30, 270, 4590]
    for k in range(1, 7):
        assert len(enumerate_monomials(k)) == monomial_count(k)
    with pytest.raises(ValidationError):
        enumerate_monomials(7)


def test_monomial_validation():
    with pytest.raises(ValidationError):
        PauliMonomial(2, 1, (0b01,), (0,))  # odd-weight column
    with pytest.raises(ValidationError):
        PauliMonomial(3, 2, (0b011, 0b011), (0, 0))  # dependent columns
    with pytest.raises(ValidationError):
        PauliMonomial(3, 1, (0b011,), (1,))  # phase bit on the diagonal
    with pytest.raises(ValidationError):
        PauliMonomial(3, 3, (0b011, 0b101, 0b110), (0, 0, 0))  # m > k-1


def swap_monomial() -> PauliMonomial:
    return PauliMonomial(2, 1, (0b11,), (0,))


def test_site_matrix_identity_and_swap():
    ident = enumerate_monomials(1)[0]
    np.testing.assert_allclose(monomial_site_matrix(ident).matrix, np.eye(2), atol=1e-14)

    sw = monomial_site_matrix(swap_monomial()).matrix
    want = np.zeros((4, 4))
    for i, j in itertools.product(range(2), repeat=2):
        want[j * 2 + i, i * 2 + j] = 1.0
    np.testing.assert_allclose(sw, want, atol=1e-12)
    np.testing.assert_allclose(sw @ sw, np.eye(4), atol=1e-12)
    assert np.trace(sw) == pytest.approx(2.0)


def reference_site_matrix(mono: PauliMonomial) -> np.ndarray:
    """Per-monomial construction: PauliString products over label tuples."""
    k, m = mono.k, mono.m
    coeffs: dict[tuple[int, int], complex] = {}
    for labels in itertools.product(range(4), repeat=m):
        sign = 1
        for i in range(m):
            for j in range(i + 1, m):
                a, b = labels[i], labels[j]
                if mono.phase_bit(i, j) and ((a & (b >> 1)) ^ ((a >> 1) & b)) & 1:
                    sign = -sign
        term = PauliString.identity(k)
        for j in range(m):
            lx, lz = labels[j] & 1, (labels[j] >> 1) & 1
            factor = PauliString(k, mono.v_cols[j] if lx else 0, mono.v_cols[j] if lz else 0)
            term = pauli_mul(term, factor)
        key = (term.x, term.z)
        coeffs[key] = coeffs.get(key, 0.0) + sign * (1j**term.phase)
    mat = np.zeros((1 << k, 1 << k), dtype=complex)
    for (x, z), c in coeffs.items():
        if abs(c) > 1e-14:
            mat += c * pauli_matrix(PauliString(k, x, z))
    return mat / (1 << m)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # signed zeros included


def densify(ones: np.ndarray) -> np.ndarray:
    """The (s, D, D) complex 0/1 operators with their ones at the flat
    positions row * D + col of each row of `ones`, (s, D)."""
    s, dim = ones.shape
    out = np.zeros((s, dim * dim), dtype=complex)
    np.put_along_axis(out, ones, 1.0, axis=1)
    return out.reshape(s, dim, dim)


# Label tuples times matrix rows per pass of label_tuple_site_matrices,
# which bounds its transient arrays to a few MB.
LABEL_PASS_ENTRIES = 1 << 15


def label_tuple_site_matrices(monos) -> np.ndarray:
    """Single-site factors of monomials sharing one k, as (len(monos), 2^k,
    2^k), summed from their Pauli expansion rather than read off T.

    The factor of a monomial with columns v_1..v_m and phase matrix M is
    2^-m sum_l sign_M(l) P_{l_1}(v_1) ... P_{l_m}(v_m) over label tuples l in
    {I, X, Z, Y}^m (bit 0 = X part, bit 1 = Z part), where P_l(v) has x = v
    for an X part and z = v for a Z part, products follow pauli_mul's phase
    rule, and sign_M(l) is the product of the commutation signs chi(l_i, l_j)
    over the pairs i < j with M_ij = 1.  Monomials of equal m are done
    together, and every Pauli's entries are scattered with np.bincount.
    """
    d = 1 << monos[0].k
    rows = np.arange(d)
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
        per = max(1, LABEL_PASS_ENTRIES // (ntup * d))
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
                x, z, ph = _pauli_product(x, z, ph, fx, fz, 0)
            src, fac = _pauli_action(x[..., None], z[..., None], (ph + 2 * sign)[..., None], rows)
            flat = ((np.arange(g)[:, None, None] * d + rows) * d + src).ravel()
            for part, vals in ((out.real, fac.real), (out.imag, fac.imag)):
                summed = np.bincount(flat, vals.ravel(), minlength=g * d * d)
                part[block] = summed.reshape(g, d, d) / (1 << m)
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_site_stack_matches_reference_construction(k):
    monos, ones = _site_stack(k)
    want = np.stack([reference_site_matrix(mn) for mn in monos])
    assert_same_bits(label_tuple_site_matrices(monos), want)
    assert_same_bits(densify(ones), want)
    for mono, row in zip(monos, want):
        assert_same_bits(monomial_site_matrix(mono).matrix, row)


# monomials per label_tuple_site_matrices call below: 16 MB stacks at k = 6
SITE_CHUNK = 256


@pytest.mark.parametrize("k", range(1, 7))
def test_every_site_matrix_is_zero_one_with_2_to_the_k_ones(k):
    monos, ones = _site_stack(k)
    assert ones.shape == (len(monos), 1 << k) and ones.dtype == np.int64
    for lo in range(0, len(monos), SITE_CHUNK):
        mats = label_tuple_site_matrices(monos[lo : lo + SITE_CHUNK])
        flat = mats.reshape(len(mats), -1)
        assert np.isin(flat, (0.0, 1.0)).all()
        assert ((flat == 1).sum(axis=1) == 1 << k).all()
        assert_same_bits(densify(ones[lo : lo + SITE_CHUNK]), mats)


@pytest.mark.parametrize("k", range(1, 7))
def test_site_supports_are_k_dimensional_subspaces(k):
    monos, ones = _site_stack(k)
    mask = (1 << k) - 1
    for mono, row in zip(monos, ones.tolist()):
        support = set(row)
        assert len(support) == 1 << k and 0 in support  # (0, 0)
        assert all(a ^ b in support for a in row for b in row)  # XOR-closed
        # the diagonal is {(y, y) : y orthogonal to every column}
        diag = {p & mask for p in row if p >> k == p & mask}
        want = {y for y in range(1 << k) if all((y & v).bit_count() % 2 == 0 for v in mono.v_cols)}
        assert diag == want


def repeated(ones):  # row 1 holds its first position twice, one fewer one
    ones[1, 1] = ones[1, 0]
    return ones


def missing(ones):  # every row is one position short
    return ones[:, 1:]


def outside(ones):  # row 1 ends past the 2^k x 2^k site
    ones[1, -1] = 1 << 6
    return ones


@pytest.mark.parametrize("corrupt", [repeated, missing, outside], ids=lambda f: f.__name__)
def test_site_stack_rejects_a_site_that_is_not_zero_one(monkeypatch, corrupt):
    ones = corrupt(_site_supports(enumerate_monomials(3)))
    monkeypatch.setattr(commutant, "_site_supports", lambda monos: ones)
    with pytest.raises(InternalConsistencyError):
        _site_stack.__wrapped__(3)


def test_site_matrices_match_reference_on_k6_sample():
    monos = enumerate_monomials(6)
    sample = []
    for m in range(6):
        idx = [i for i, mn in enumerate(monos) if mn.m == m]
        sample += [monos[i] for i in sorted({idx[0], idx[len(idx) // 2], idx[-1]})]
    assert {mn.m for mn in sample} == set(range(6))
    want = np.stack([reference_site_matrix(mn) for mn in sample])
    assert_same_bits(label_tuple_site_matrices(sample), want)
    for mono, row in zip(sample, want):
        assert_same_bits(monomial_site_matrix(mono).matrix, row)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_site_matrices_real_and_transpose_symmetric(k):
    for mono in enumerate_monomials(k):
        w = monomial_site_matrix(mono).matrix
        assert np.max(np.abs(w.imag)) < 1e-12
        np.testing.assert_allclose(w.conj().T, w.T, atol=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_site_matrices_commute_with_clifford_powers(k):
    # the defining property: invariance under single-qubit Clifford conjugation
    rng = np.random.default_rng(31)
    cs = [clifford_to_matrix(random_clifford(1, rng)) for _ in range(4)]
    for mono in enumerate_monomials(k):
        w = monomial_site_matrix(mono).matrix
        for c in cs:
            ck = reduce(np.kron, [c] * k)
            np.testing.assert_allclose(w @ ck, ck @ w, atol=1e-10)


def test_k3_monomials_are_the_six_permutations():
    sites = [monomial_site_matrix(m).matrix for m in enumerate_monomials(3)]
    perms = [permutation_matrix(p, 2) for p in itertools.permutations(range(3))]
    matched = set()
    for s in sites:
        hits = [i for i, t in enumerate(perms) if np.max(np.abs(s - t)) < 1e-10]
        assert len(hits) == 1
        matched.add(hits[0])
    assert matched == set(range(6))


def test_monomial_state_boundedness():
    rng = np.random.default_rng(37)
    for k in (2, 3, 4):
        monos = enumerate_monomials(k)
        states = [haar_state(1, rng).amplitudes for _ in range(100)]
        for mono in monos:
            w = monomial_site_matrix(mono).matrix
            for psi in states:
                big = reduce(np.kron, [psi] * k)
                val = np.vdot(big, w @ big).real
                assert val <= 1 + 1e-9


# ---------------------------------------------------------------------------
# alpha distance


def test_alpha_basics():
    monos = enumerate_monomials(2)
    ident = next(m for m in monos if m.m == 0)
    sw = next(m for m in monos if m.m == 1)
    assert alpha(ident, ident) == 0
    assert alpha(ident, sw) == 1
    with pytest.raises(ValidationError):
        alpha(ident, enumerate_monomials(3)[0])


def dense_alpha(sites_a: np.ndarray, sites_b: np.ndarray, k: int) -> np.ndarray:
    """alpha from the dense overlaps tr(A^dagger B) = 2^(k - alpha) of two
    stacks of site matrices."""
    tr = np.einsum("aij,bij->ab", sites_a.conj(), sites_b)
    assert np.abs(tr.imag).max() < 1e-9
    return _integer_exponent(tr.real, k, "alpha")


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_alpha_table_matches_pairwise_alpha(k):
    monos = enumerate_monomials(k)
    sites = np.stack([reference_site_matrix(m) for m in monos])
    want = dense_alpha(sites, sites, k)
    table = _alpha_table(k)
    assert table.dtype == np.int64
    assert np.array_equal(table, want)
    assert np.array_equal([[alpha(a, b) for b in monos] for a in monos], want)


def test_integer_exponent_rejects_bad_overlaps():
    assert int(_integer_exponent(0.25, 3, "x")) == 5
    got = _integer_exponent(np.array([[8.0, 1.0], [0.5, 2.0]]), 3, "x")
    assert np.array_equal(got, [[0, 3], [4, 2]])
    for bad in (0.0, -2.0, 3.0):
        with pytest.raises(InternalConsistencyError):
            _integer_exponent(bad, 3, "x")
        with pytest.raises(InternalConsistencyError):
            _integer_exponent(np.array([1.0, bad, 4.0]), 3, "x")


@pytest.mark.parametrize("k", [2, 3, 4])
def test_alpha_property_suite(k):
    monos = enumerate_monomials(k)
    sites = np.stack([reference_site_matrix(m) for m in monos])
    mps = [trace_norm_exponent(m) for m in monos]
    nmon = len(monos)
    a = dense_alpha(sites, sites, k)
    assert np.array_equal(a, a.T)
    for i in range(nmon):
        for j in range(nmon):
            assert (a[i, j] == 0) == (i == j)
            assert a[i, j] <= k - 1
            assert a[i, j] >= abs(monos[i].m - monos[j].m)
            assert a[i, j] >= abs(mps[i] - mps[j])
    # triangle inequality against every permutation operator
    perm_sites = np.stack([permutation_matrix(p, 2) for p in itertools.permutations(range(k))])
    for ap in dense_alpha(perm_sites, sites, k):
        for i in range(nmon):
            for j in range(nmon):
                assert a[i, j] <= ap[i] + ap[j]


def test_trace_norm_exponent_examples():
    ident = enumerate_monomials(1)[0]
    assert trace_norm_exponent(ident) == 0
    assert trace_norm_exponent(swap_monomial()) == 0  # unitary site
    ks = {trace_norm_exponent(m) for m in enumerate_monomials(4)}
    assert min(ks) == 0 and max(ks) >= 1


@pytest.mark.parametrize("k", range(1, 7))
def test_trace_norm_exponent_matches_dense_singular_values(k):
    monos = enumerate_monomials(k)[::96]  # every monomial to k = 5, 48 at k = 6
    s = np.linalg.svd(label_tuple_site_matrices(monos), compute_uv=False)
    want = _integer_exponent(s.sum(axis=1), k, "trace norm")
    assert [trace_norm_exponent(m) for m in monos] == want.tolist()


# ---------------------------------------------------------------------------
# Gram / Weingarten tables


def test_gram_k2_n1_exact():
    g = gram_matrix(2, 1)
    np.testing.assert_allclose(g, [[1, 0.5], [0.5, 1]], atol=1e-15)
    assert np.linalg.svd(g, compute_uv=False).min() == pytest.approx(0.5)


def test_gram_diagonal_and_nonsingular():
    for k, n in ((2, 1), (3, 2), (4, 3), (5, 4)):
        g = gram_matrix(k, n)
        np.testing.assert_allclose(np.diag(g), 1.0, atol=1e-15)
        np.testing.assert_allclose(g, g.T, atol=1e-15)
        assert np.linalg.svd(g, compute_uv=False).min() > 0


@pytest.mark.parametrize("k,n", [(2, 1), (3, 1), (4, 2), (5, 3)])
def test_weingarten_table_holds_the_read_only_gram_matrix(k, n):
    g, t = gram_matrix(k, n), weingarten_table(k, n)
    assert not g.flags.writeable and not t.gram.flags.writeable
    assert_same_bits(t.gram, g)
    assert t.gram_min_singular == np.linalg.svd(g, compute_uv=False).min()


def test_weingarten_k2_n1_exact():
    t = weingarten_table(2, 1)
    want = (4.0 / 3.0) * np.array([[1, -0.5], [-0.5, 1]])
    np.testing.assert_allclose(t.weingarten, want, atol=1e-12)
    assert not t.pseudo


def test_weingarten_inverse_property():
    for k, n in ((2, 1), (2, 2), (3, 2), (3, 3), (4, 3)):
        t = weingarten_table(k, n)
        nmon = len(t.monomials)
        np.testing.assert_allclose(t.weingarten @ t.gram, np.eye(nmon), atol=1e-9)
        assert not t.pseudo


# (sha256 prefix of gram, of weingarten, pseudo, gram_min_singular.hex()) of
# weingarten_table(k, n).  The Gram entries are powers of two of the integer
# alpha table, so their bits depend only on the site supports.  Weingarten
# and singular-value bits come from LAPACK: they are pinned at k <= 4, where
# they were the same with 1 and 2 OpenBLAS threads (OpenBLAS 0.3.31, x86-64);
# at k = 5 they moved with the thread count, so only Gram and pseudo are.
TABLE_BITS = {
    (1, 1): ("6c3c396ed6b5c36d", "6c3c396ed6b5c36d", False, "0x1.0000000000000p+0"),
    (1, 2): ("6c3c396ed6b5c36d", "6c3c396ed6b5c36d", False, "0x1.0000000000000p+0"),
    (1, 3): ("6c3c396ed6b5c36d", "6c3c396ed6b5c36d", False, "0x1.0000000000000p+0"),
    (2, 1): ("e858e8486c9b7e99", "d2539dcb3feb027c", False, "0x1.0000000000001p-1"),
    (2, 2): ("a326be17bcdc42d4", "0a3d342203056d1e", False, "0x1.8000000000000p-1"),
    (2, 3): ("f523a293509cb10a", "6a26fb2405790161", False, "0x1.c000000000000p-1"),
    (3, 1): ("cd80b9d9898eaf87", "03a79a279135bee1", True, "0x1.d970fd51ef3fcp-55"),
    (3, 2): ("20023cfa348bd301", "bd258bedad1fa489", False, "0x1.7ffffffffffffp-2"),
    (3, 3): ("612ca0f65e412c82", "094ba313feb9375f", False, "0x1.5000000000001p-1"),
    (4, 1): ("df98fd1eb08e0069", "48767639849f937a", True, "0x1.586754c8d3705p-57"),
    (4, 2): ("10585de647ef3881", "bb2feca6757da6f6", True, "0x1.3c3b246886809p-55"),
    (4, 3): ("b824467ba5c64db9", "1e9b60f97b4f8e88", False, "0x1.4ffffffffffffp-2"),
    (5, 1): ("92925cce3faf06fe", None, True, None),
    (5, 2): ("bd100f1c1e8b1776", None, True, None),
    (5, 3): ("489b1cd98b8175fe", None, True, None),
}


@pytest.mark.parametrize("k,n", sorted(TABLE_BITS))
def test_table_bits_are_pinned(k, n):
    t = weingarten_table(k, n)
    gram, weingarten, pseudo, min_singular = TABLE_BITS[k, n]
    assert t.gram.dtype == t.weingarten.dtype == np.float64
    assert hashlib.sha256(t.gram.tobytes()).hexdigest()[:16] == gram
    assert t.pseudo is pseudo
    if weingarten is not None:
        assert hashlib.sha256(t.weingarten.tobytes()).hexdigest()[:16] == weingarten
        assert t.gram_min_singular.hex() == min_singular


def test_weingarten_pseudo_below_critical_n():
    t = weingarten_table(3, 1)
    assert t.pseudo
    # W G is still the projector onto the Gram row space
    p = t.weingarten @ t.gram
    np.testing.assert_allclose(p @ p, p, atol=1e-9)


def test_rcond_falls_in_the_spectral_gap_of_every_reachable_gram_matrix():
    # the claim of the comment at _RCOND: no singular value ratio s / s.max()
    # lies between 1e-13 and 2e-3, so no cutoff there changes a branch or a value
    grams = [gram_matrix(k, n) for k in range(1, 6) for n in range(1, 7)]
    grams += [permutation_gram(k, d) for k in range(1, 7) for d in (2, 4, 8, 16)]
    ratios = []
    for g in grams:
        s = np.linalg.svd(g, compute_uv=False)
        ratios.extend(s / s.max())
    ratios = np.array(ratios)
    assert 1e-13 < _RCOND < 2e-3
    assert ratios[ratios < _RCOND].max() < 1e-13
    assert ratios[ratios >= _RCOND].min() > 2e-3


def test_weingarten_fraction_oracle():
    # exact rational inversion of the k=3, n=2 Gram matrix
    t = weingarten_table(3, 2)
    a = np.rint(np.log2(1.0 / t.gram) / 2).astype(int)  # alpha values
    g = [[Fraction(1, 4**int(v)) for v in row] for row in a]
    inv = _fraction_inverse(g)
    want = np.array([[float(v) for v in row] for row in inv])
    np.testing.assert_allclose(t.weingarten, want, atol=1e-12)


# ---------------------------------------------------------------------------
# twirls


def brute_force_twirl(mats, o):
    acc = np.zeros_like(o)
    for u in mats:
        acc += u @ o @ u.conj().T
    return acc / len(mats)


def random_operand(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g / np.linalg.norm(g, 2)


def test_clifford_twirl_fixes_monomials():
    for k, n in ((2, 1), (2, 2), (3, 2)):
        for full in densify(_clifford_ones(k, n)):
            out = clifford_twirl(full, k, n).matrix
            np.testing.assert_allclose(out, full, atol=1e-9)


def test_clifford_twirl_k1_kills_traceless():
    p = pauli_matrix(PauliString.from_label("XZ"))
    out = clifford_twirl(p, 1, 2).matrix
    np.testing.assert_allclose(out, 0, atol=1e-12)


def test_clifford_twirl_idempotent():
    rng = np.random.default_rng(41)
    o = random_operand(16, rng)
    once = clifford_twirl(o, 2, 2).matrix
    twice = clifford_twirl(once, 2, 2).matrix
    np.testing.assert_allclose(twice, once, atol=1e-10)


def test_clifford_twirl_matches_group_average_n1_k2():
    group = [clifford_to_matrix(c) for c in enumerate_cliffords(1)]
    kpow = [np.kron(u, u) for u in group]
    rng = np.random.default_rng(43)
    for _ in range(20):
        o = random_operand(4, rng)
        want = brute_force_twirl(kpow, o)
        got = clifford_twirl(o, 2, 1).matrix
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_permutation_ops():
    t12 = permutation_matrix((1, 0), 3)
    assert np.trace(t12) == pytest.approx(3.0)  # one cycle, d=3
    # homomorphism on S_3 with d=2
    perms = list(itertools.permutations(range(3)))
    for a in perms:
        for b in perms:
            ab = tuple(a[b[c]] for c in range(3))
            np.testing.assert_allclose(
                permutation_matrix(a, 2) @ permutation_matrix(b, 2),
                permutation_matrix(ab, 2),
                atol=1e-14,
            )
    for perm, d in (((0, 0), 2), ((1, 0), 0), (tuple(range(5)), 4)):  # dim 1024 > 256
        with pytest.raises(ValidationError):
            permutation_matrix(perm, d)


def looped_permutation_matrix(p: tuple[int, ...], d: int) -> np.ndarray:
    """T_pi one basis vector at a time: digit c of the input is digit p[c]
    of the output."""
    k = len(p)
    want = np.zeros((d**k, d**k))
    for digits in itertools.product(range(d), repeat=k):
        i = sum(v * d**c for c, v in enumerate(digits))
        j = sum(v * d ** p[c] for c, v in enumerate(digits))
        want[j, i] = 1.0
    return want


def test_permutation_matrix_moves_digit_c_to_digit_pi_c():
    d = 3
    for p in itertools.permutations(range(3)):
        assert np.array_equal(permutation_matrix(p, d), looped_permutation_matrix(p, d))


# both builders at D = 256: (k, d) = (4, 4) and (k, n) = (4, 2)
@pytest.mark.parametrize(
    "basis, args", [(_haar_basis, (4, 4)), (_clifford_basis, (4, 2))], ids=["haar", "clifford"]
)
def test_basis_is_cached_and_read_only(basis, args):
    w, ones = basis(*args)
    again = basis(*args)
    assert again[0] is w and again[1] is ones
    assert not w.flags.writeable and not ones.flags.writeable


# every (k, d) with d^k <= MAX_COPY_OPERATOR_DIM among these d
HAAR_GRID = [(k, d) for k in range(1, 7) for d in (1, 2, 3, 4, 16) if d**k <= 256]


@pytest.mark.parametrize("k,d", HAAR_GRID)
def test_haar_index_forms_densify_to_the_permutation_matrices(k, d):
    _, ones = _haar_basis(k, d)
    perms = list(itertools.permutations(range(k)))
    want = np.stack([permutation_matrix(p, d) for p in perms]).astype(complex)
    assert_same_bits(densify(ones), want)
    looped = np.stack([looped_permutation_matrix(p, d) for p in perms]).astype(complex)
    assert_same_bits(want, looped)


@pytest.mark.parametrize("k,n", [(5, 1), (4, 3), (2, 0), (5, 20)])
def test_check_twirl_args_rejects_what_a_twirl_rejects(k, n):
    with pytest.raises(ValidationError):
        check_twirl_args(k, n)


def test_check_twirl_args_accepts_what_both_twirls_accept():
    for k, n in ((1, 1), (4, 1), (4, 2), (2, 4)):
        check_twirl_args(k, n)
        o = np.eye(1 << (n * k))
        np.testing.assert_allclose(clifford_twirl(o, k, n).matrix, o, atol=1e-9)
        np.testing.assert_allclose(haar_twirl(o, k, 1 << n).matrix, o, atol=1e-9)


def test_permutation_gram_example():
    np.testing.assert_allclose(permutation_gram(2, 4), [[16, 4], [4, 16]], atol=1e-12)


def looped_cycle_counts(k):
    """cycles(pi^-1 sigma) over all pairs of S_k, one pair at a time."""
    perms = list(itertools.permutations(range(k)))
    counts = []
    for p in perms:
        inv = [0] * k
        for c, q in enumerate(p):
            inv[q] = c
        row = []
        for q in perms:
            composed, cycles, seen = [inv[q[c]] for c in range(k)], 0, set()
            for start in range(k):
                if start not in seen:
                    cycles += 1
                    c = start
                    while c not in seen:
                        seen.add(c)
                        c = composed[c]
            row.append(cycles)
        counts.append(row)
    return counts


@pytest.mark.parametrize("k", range(7))
def test_permutation_gram_table_matches_the_pair_loop_bitwise(k):
    counts = looped_cycle_counts(k)
    for d in (1, 2, 4):
        looped = np.array([[float(d) ** c for c in row] for row in counts])
        assert permutation_gram(k, d).tobytes() == looped.tobytes(), (k, d)


def test_haar_twirl_k1():
    rng = np.random.default_rng(47)
    o = random_operand(8, rng)
    out = haar_twirl(o, 1, 8).matrix
    np.testing.assert_allclose(out, np.trace(o) * np.eye(8) / 8, atol=1e-12)


def test_haar_twirl_fixes_permutations():
    for k, d in ((2, 4), (3, 2), (3, 4)):
        for p in itertools.permutations(range(k)):
            t = permutation_matrix(p, d)
            np.testing.assert_allclose(haar_twirl(t, k, d).matrix, t, atol=1e-9)


def test_haar_twirl_monte_carlo():
    # O = |00><00| twirled at k=2, d=4, against 10^5 Haar samples
    rng = np.random.default_rng(53)
    d, k, total, batches = 4, 2, 100_000, 20
    per = total // batches
    batch_means = np.empty((batches, d**k, d**k), dtype=complex)
    for bi in range(batches):
        vs = np.empty((per, d**k), dtype=complex)
        for s in range(per):
            u0 = haar_unitary(d, rng)[:, 0]
            vs[s] = np.kron(u0, u0)
        batch_means[bi] = vs.T @ vs.conj() / per
    mean = batch_means.mean(axis=0)
    se = batch_means.std(axis=0, ddof=1) / np.sqrt(batches)
    o = np.zeros((16, 16))
    o[0, 0] = 1.0
    exact = haar_twirl(o, k, d).matrix
    assert np.all(np.abs(mean - exact) <= 4 * np.abs(se) + 1e-4)


def test_haar_twirl_pseudo_when_d_lt_k():
    # d=2 < k=3: T_pi are linearly dependent; the projection must still fix them
    t = permutation_matrix((1, 2, 0), 2)
    np.testing.assert_allclose(haar_twirl(t, 3, 2).matrix, t, atol=1e-9)


def test_three_design_agreement_and_k4_gap():
    rng = np.random.default_rng(67)
    n, d = 2, 4
    for k in (1, 2, 3):
        o = random_operand(d**k, rng)
        cl = clifford_twirl(o, k, n).matrix
        ha = haar_twirl(o, k, d).matrix
        assert np.max(np.abs(cl - ha)) < 1e-8
    o = random_operand(d**4, rng)
    gap = np.max(np.abs(clifford_twirl(o, 4, n).matrix - haar_twirl(o, 4, d).matrix))
    assert gap > 1e-7


def test_cross_layout_swap_consistency():
    # the two-copy SWAP monomial on n=2 must equal T_(01) with d=4
    full = densify(_clifford_ones(2, 2))[enumerate_monomials(2).index(swap_monomial())]
    np.testing.assert_allclose(full, permutation_matrix((1, 0), 4), atol=1e-12)
    # and every T_pi with d = 2^n is exactly one monomial of the copy-major stack
    for k, n in ((3, 2), (4, 2), (5, 1)):
        stack = densify(_clifford_ones(k, n))
        for p in itertools.permutations(range(k)):
            t = permutation_matrix(p, 1 << n)
            assert sum(np.array_equal(t, row) for row in stack) == 1, (k, n, p)


def kronecker_loop_stack(sites: np.ndarray, k: int, n: int) -> np.ndarray:
    """The dense full-register monomials as built before the index form: the
    n-th Kronecker power of each site matrix, its qubit-major bit q*k + c
    moved to bit c*n + q of the copy layout."""
    dim = 1 << (n * k)
    idx = _digit_permutation(tuple(c * n + q for q in range(n) for c in range(k)), 2)
    out = np.empty((len(sites), dim, dim), dtype=complex)
    for i, site in enumerate(sites):
        out[i][np.ix_(idx, idx)] = reduce(np.kron, [site] * n)
    return out


# every (k, n) with a full register of at most MAX_COPY_OPERATOR_DIM = 2^8
COPY_GRID = [(k, n) for k in range(1, 7) for n in range(1, 9) if n * k <= 8]


@pytest.mark.parametrize("k,n", COPY_GRID)
def test_clifford_index_forms_densify_to_the_kronecker_loop_bitwise(k, n):
    monos, _ = _site_stack(k)
    ones = _clifford_ones(k, n)
    assert ones.shape == (len(monos), 1 << (n * k)) and not ones.flags.writeable
    sites = _site_stack(k)[1]
    for lo in range(0, len(monos), SITE_CHUNK):
        want = kronecker_loop_stack(densify(sites[lo : lo + SITE_CHUNK]), k, n)
        assert_same_bits(densify(ones[lo : lo + SITE_CHUNK]), want)


@pytest.mark.parametrize("k,n", [(1, 9), (3, 3), (5, 2), (6, 2)])
def test_clifford_index_forms_stop_at_the_copy_dimension_limit(k, n):
    with pytest.raises(ValidationError):
        _clifford_ones(k, n)


# ---------------------------------------------------------------------------
# Vandermonde and archive


def test_vandermonde_k1():
    rep = vandermonde_bound_check(1)
    assert rep.row_sums == (2.0,)
    assert rep.bounds == (60.0,)
    assert rep.all_ok


def test_vandermonde_inverse_is_exact():
    k = 5
    m = [[Fraction(1, 1 << (i * j)) for j in range(1, k + 1)] for i in range(1, k + 1)]
    inv = _fraction_inverse(m)
    for i in range(k):
        for j in range(k):
            s = sum(m[i][l] * inv[l][j] for l in range(k))
            assert s == (1 if i == j else 0)


def test_vandermonde_all_k():
    for k in range(1, 17):
        rep = vandermonde_bound_check(k)
        assert rep.all_ok, f"k={k}"
        assert rep.max_ratio <= 1.0
    with pytest.raises(ValidationError):
        vandermonde_bound_check(17)


def test_archive_round_trip():
    # the archive text holds the table: hex-exact matrices, its monomials and
    # its smallest Gram singular value
    t = weingarten_table(3, 2)
    text = export_weingarten_table(t)
    doc = json.loads(text)
    assert (doc["k"], doc["n"], doc["pseudo"]) == (t.k, t.n, t.pseudo)
    for key in ("gram", "weingarten"):
        assert doc[key] == [[v.hex() for v in row] for row in getattr(t, key).tolist()]
    monomials = [
        PauliMonomial(t.k, m["m"], tuple(m["v_cols"]), tuple(m["m_upper"]))
        for m in doc["monomials"]
    ]
    assert tuple(monomials) == t.monomials
    assert doc["gram_min_singular"] == t.gram_min_singular.hex()
    # exporting twice is byte-identical
    assert export_weingarten_table(t) == text
