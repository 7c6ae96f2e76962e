"""Pauli/Clifford layer against dense linear-algebra oracles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from kdesign.attack import make_compressible
from kdesign.errors import ValidationError
from kdesign.f2 import rref_basis, symplectic_product
from kdesign.pauli import (
    CliffordOp,
    PauliString,
    StabilizerGroup,
    _find_transvections,
    _fwht,
    _sp_ds,
    apply_pauli,
    chi,
    clifford_compose,
    clifford_conjugate,
    clifford_inverse,
    clifford_to_matrix,
    cliffords_to_matrices,
    enumerate_cliffords,
    enumerate_symplectics,
    pauli_expectations_all,
    pauli_matrix,
    pauli_mul,
    random_clifford,
    random_tableau,
    stabilizer_group_of,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)
H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
S = np.diag([1.0, 1j])
SINGLE = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_oracle(p: PauliString) -> np.ndarray:
    """Independent dense build: tensor the single-qubit factors, low qubit last."""
    m = np.array([[1.0 + 0j]])
    for ch in p.label():
        m = np.kron(SINGLE[ch], m)
    return (1j**p.phase) * m


def paulis(n: int) -> st.SearchStrategy[PauliString]:
    d = 1 << n
    return st.builds(
        PauliString,
        st.just(n),
        st.integers(0, d - 1),
        st.integers(0, d - 1),
        st.integers(0, 3),
    )


@given(st.integers(1, 4).flatmap(paulis))
def test_matrix_matches_kron(p: PauliString):
    np.testing.assert_allclose(pauli_matrix(p), kron_oracle(p), atol=1e-12)


@given(st.integers(1, 3).flatmap(paulis))
def test_apply_matches_matrix(p: PauliString):
    rng = np.random.default_rng(7)
    v = rng.normal(size=1 << p.n) + 1j * rng.normal(size=1 << p.n)
    np.testing.assert_allclose(apply_pauli(p, v), pauli_matrix(p) @ v, atol=1e-12)


def test_mul_exhaustive_one_qubit():
    all_p = [PauliString(1, x, z, ph) for x in (0, 1) for z in (0, 1) for ph in range(4)]
    for p, q in itertools.product(all_p, all_p):
        np.testing.assert_allclose(
            pauli_matrix(pauli_mul(p, q)),
            pauli_matrix(p) @ pauli_matrix(q),
            atol=1e-12,
        )


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(paulis(n), paulis(n))))
def test_mul_matches_dense(pq):
    p, q = pq
    np.testing.assert_allclose(
        pauli_matrix(pauli_mul(p, q)), pauli_matrix(p) @ pauli_matrix(q), atol=1e-12
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(paulis(n), paulis(n))))
def test_chi_matches_dense(pq):
    p, q = pq
    a, b = pauli_matrix(p), pauli_matrix(q)
    if chi(p, q) == 1:
        np.testing.assert_allclose(a @ b, b @ a, atol=1e-12)
    else:
        np.testing.assert_allclose(a @ b, -b @ a, atol=1e-12)


def test_label_round_trip():
    p = PauliString.from_label("XIZY", sign=-1)
    assert p.label() == "XIZY"
    assert p.sign() == -1
    assert p.weight() == 3


def test_validation():
    with pytest.raises(ValidationError):
        PauliString(1, 2, 0)
    with pytest.raises(ValidationError):
        PauliString(2, 0, 1, 4)
    with pytest.raises(ValidationError):
        PauliString(0, 0, 0)
    with pytest.raises(ValidationError):
        PauliString.from_symplectic_vec(1 << 6, 3)
    with pytest.raises(ValidationError):
        PauliString(1, 0, 0, 1).sign()


# ---------------------------------------------------------------------------
# hand-built Cliffords as the independent route


def hadamard_op() -> CliffordOp:
    return CliffordOp(
        1, (PauliString(1, 0, 1),), (PauliString(1, 1, 0),)
    )  # X -> Z, Z -> X


def phase_op() -> CliffordOp:
    return CliffordOp(
        1, (PauliString(1, 1, 1),), (PauliString(1, 0, 1),)
    )  # X -> Y, Z -> Z


def cnot_op() -> CliffordOp:
    # control qubit 0, target qubit 1
    return CliffordOp(
        2,
        (PauliString(2, 0b11, 0), PauliString(2, 0b10, 0)),
        (PauliString(2, 0, 0b01), PauliString(2, 0, 0b11)),
    )


def cnot_matrix() -> np.ndarray:
    u = np.zeros((4, 4), dtype=complex)
    for x0 in (0, 1):
        for x1 in (0, 1):
            u[(x1 ^ x0) * 2 + x0, x1 * 2 + x0] = 1.0
    return u


def embed(m: np.ndarray, qubit: int, n: int) -> np.ndarray:
    full = np.array([[1.0 + 0j]])
    for j in range(n):
        full = np.kron(m if j == qubit else I2, full)
    return full


def assert_equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol=1e-9):
    d = a.shape[0]
    ip = np.trace(a.conj().T @ b)
    assert abs(abs(ip) - d) < atol * d


def test_to_matrix_known_gates():
    assert_equal_up_to_phase(clifford_to_matrix(hadamard_op()), H)
    assert_equal_up_to_phase(clifford_to_matrix(phase_op()), S)
    assert_equal_up_to_phase(clifford_to_matrix(cnot_op()), cnot_matrix())


def test_to_matrix_unitary_and_action():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for _ in range(5):
            c = random_clifford(n, rng)
            u = clifford_to_matrix(c)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(1 << n), atol=1e-9)
            for j in range(n):
                gx = PauliString(n, 1 << j, 0)
                gz = PauliString(n, 0, 1 << j)
                np.testing.assert_allclose(
                    u @ pauli_matrix(gx) @ u.conj().T,
                    pauli_matrix(clifford_conjugate(c, gx)),
                    atol=1e-9,
                )
                np.testing.assert_allclose(
                    u @ pauli_matrix(gz) @ u.conj().T,
                    pauli_matrix(clifford_conjugate(c, gz)),
                    atol=1e-9,
                )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(paulis), st.integers(0, 2**32 - 1))
def test_conjugate_matches_dense(p, seed):
    rng = np.random.default_rng(seed)
    c = random_clifford(p.n, rng)
    u = clifford_to_matrix(c)
    np.testing.assert_allclose(
        u @ pauli_matrix(p) @ u.conj().T,
        pauli_matrix(clifford_conjugate(c, p)),
        atol=1e-9,
    )


def test_compose_matches_dense_products():
    # random words in {H, S, CNOT} on 2 qubits, checked against plain matmul
    rng = np.random.default_rng(3)
    gates = [
        (embed_op(hadamard_op(), 0), embed(H, 0, 2)),
        (embed_op(hadamard_op(), 1), embed(H, 1, 2)),
        (embed_op(phase_op(), 0), embed(S, 0, 2)),
        (embed_op(phase_op(), 1), embed(S, 1, 2)),
        (cnot_op(), cnot_matrix()),
    ]
    for _ in range(10):
        word = rng.integers(0, len(gates), size=8)
        c = CliffordOp.identity(2)
        u = np.eye(4, dtype=complex)
        for g in word:
            c = clifford_compose(gates[g][0], c)
            u = gates[g][1] @ u
        assert_equal_up_to_phase(clifford_to_matrix(c), u)


def embed_op(c1: CliffordOp, qubit: int) -> CliffordOp:
    """Single-qubit Clifford acting on one wire of a 2-qubit register."""
    n = 2

    def lift(p: PauliString) -> PauliString:
        return PauliString(n, p.x << qubit, p.z << qubit, p.phase)

    xs, zs = [], []
    for j in range(n):
        if j == qubit:
            xs.append(lift(c1.x_images[0]))
            zs.append(lift(c1.z_images[0]))
        else:
            xs.append(PauliString(n, 1 << j, 0))
            zs.append(PauliString(n, 0, 1 << j))
    return CliffordOp(n, tuple(xs), tuple(zs))


def assert_inverts(c: CliffordOp) -> None:
    cinv = clifford_inverse(c)
    identity = CliffordOp.identity(c.n)
    assert clifford_compose(c, cinv) == clifford_compose(cinv, c) == identity


def test_inverse():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            assert_inverts(random_clifford(n, rng))
    for c in enumerate_cliffords(1):
        assert_inverts(c)


def test_bad_tableau_rejected():
    # X -> X, Z -> X cannot be symplectic
    with pytest.raises(ValidationError):
        CliffordOp(1, (PauliString(1, 1, 0),), (PauliString(1, 1, 0),))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_flipped_image_bit_is_rejected_unless_still_symplectic(n):
    """Every single-bit flip of an image: CliffordOp accepts exactly the
    tableaus whose images pass the pairwise f2 symplectic check."""
    rng = np.random.default_rng(40 + n)
    nn = 2 * n
    rejected = 0
    for _ in range(3):
        tab = random_tableau(n, rng)
        for j in range(nn):
            for i in range(nn):
                bad = list(tab)
                bad[j] ^= 1 << i
                symplectic = all(
                    symplectic_product(bad[a], bad[b], n) == (b == a + n)
                    for a in range(nn)
                    for b in range(a + 1, nn)
                )
                if symplectic:
                    CliffordOp.from_tableau(n, bad)
                else:
                    rejected += 1
                    with pytest.raises(ValidationError):
                        CliffordOp.from_tableau(n, bad)
    # a flip keeps the form only when it adds the partner image itself
    assert rejected >= 3 * nn * (nn - 1)


# ---------------------------------------------------------------------------
# sampler internals and uniformity


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.data())
def test_transvections_map_x_to_y(n, data):
    nn = 2 * n
    x = data.draw(st.integers(1, (1 << nn) - 1))
    y = data.draw(st.integers(1, (1 << nn) - 1))
    h0, h1 = _find_transvections(x, y, nn)

    def tv(h, v):
        return v ^ h if h and _sp_ds(v, h, nn) else v

    assert tv(h1, tv(h0, x)) == y


def test_random_clifford_uniform_n1():
    rng = np.random.default_rng(17)
    counts: dict[CliffordOp, int] = {}
    for _ in range(100_000):
        c = random_clifford(1, rng)
        counts[c] = counts.get(c, 0) + 1
    assert len(counts) == 24
    res = stats.chisquare(list(counts.values()))
    assert res.pvalue > 1e-3


def test_random_clifford_image_marginal_n2():
    # the image of X_1 must be uniform over the 30 signed nonidentity Paulis
    rng = np.random.default_rng(23)
    counts: dict[tuple, int] = {}
    for _ in range(30_000):
        g = random_clifford(2, rng).x_images[0]
        k = (g.x, g.z, g.phase)
        counts[k] = counts.get(k, 0) + 1
    assert len(counts) == 30
    assert stats.chisquare(list(counts.values())).pvalue > 1e-3


# Two seed-0 draws per n as (images, signs), and the stream's next
# integers(2**30) draw, recorded from the one-object-per-draw sampler.  Every
# seeded experiment depends on the sampler consuming the stream this way.
SEED0_TABLEAUS = {
    1: ([((3, 1), 2), ((1, 2), 0)], 80788487),
    2: ([((13, 5, 2, 3), 1), ((9, 6, 4, 14), 9)], 1042327185),
    3: ([((30, 15, 21, 61, 34, 33), 32), ((25, 7, 42, 49, 10, 55), 54)], 595191111),
    4: (
        [((89, 84, 37, 227, 70, 71, 10, 235), 71), ((249, 200, 3, 181, 112, 70, 94, 139), 7)],
        5747354,
    ),
}


@pytest.mark.parametrize("n", sorted(SEED0_TABLEAUS))
def test_seed0_tableaus_are_pinned(n):
    draws, following = SEED0_TABLEAUS[n]
    rng = np.random.default_rng(0)
    for images, signs in draws:
        c = random_clifford(n, rng)
        assert c.tableau == (*images, signs)
        gens = c.x_images + c.z_images
        assert tuple(g.x | (g.z << n) for g in gens) == images
        assert sum((g.phase // 2) << j for j, g in enumerate(gens)) == signs
    assert int(rng.integers(2**30)) == following
    rng = np.random.default_rng(0)
    assert [random_tableau(n, rng) for _ in draws] == [(*i, s) for i, s in draws]


# clifford_inverse(...).tableau of each SEED0_TABLEAUS draw, recorded from
# the symplectic-matrix implementation it replaces.
SEED0_INVERSES = {
    1: [(2, 3, 3), (1, 2, 0)],
    2: [(12, 4, 14, 3, 8), (11, 6, 4, 10, 1)],
    3: [(25, 41, 7, 53, 26, 57, 5), (42, 13, 37, 29, 54, 20, 23)],
    4: [
        (48, 200, 187, 136, 218, 143, 99, 28, 38),
        (149, 145, 55, 184, 216, 78, 134, 60, 161),
    ],
}


@pytest.mark.parametrize("n", sorted(SEED0_INVERSES))
def test_seed0_inverses_are_pinned(n):
    draws, _ = SEED0_TABLEAUS[n]
    got = [clifford_inverse(CliffordOp.from_tableau(n, (*i, s))).tableau for i, s in draws]
    assert got == SEED0_INVERSES[n]


def test_tableau_round_trip():
    rng = np.random.default_rng(71)
    for n in (1, 2, 3, 5):
        t = random_tableau(n, rng)
        assert CliffordOp.from_tableau(n, t).tableau == t
    with pytest.raises(ValidationError):
        CliffordOp.from_tableau(2, (1, 2, 4))
    for c in enumerate_cliffords(1):
        assert CliffordOp.from_tableau(1, c.tableau) == c


def loop_clifford_to_matrix(c: CliffordOp) -> np.ndarray:
    """Reference conversion, one basis state and one column at a time."""
    d = 1 << c.n
    for start in range(d):
        cand = np.zeros(d, dtype=complex)
        cand[start] = 1.0
        for q in c.z_images:
            cand = 0.5 * (cand + apply_pauli(q, cand))
        nrm = np.linalg.norm(cand)
        if nrm > 1e-9:
            psi = cand / nrm
            break
    k = int(np.argmax(np.abs(psi)))
    psi = psi * (abs(psi[k]) / psi[k])
    u = np.zeros((d, d), dtype=complex)
    u[:, 0] = psi
    for x in range(1, d):
        p = PauliString.identity(c.n)
        for j in range(c.n):
            if (x >> j) & 1:
                p = pauli_mul(p, c.x_images[j])
        u[:, x] = apply_pauli(p, psi)
    return u


def test_conversion_matches_the_loop_reference_bit_for_bit():
    rng = np.random.default_rng(79)
    for n in (1, 2, 3, 4, 5):
        cs = [random_clifford(n, rng) for _ in range(30)]
        batch = cliffords_to_matrices(n, [c.tableau for c in cs])
        for c, u in zip(cs, batch):
            assert u.tobytes() == loop_clifford_to_matrix(c).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_conversion_is_bit_identical_per_element(n):
    rng = np.random.default_rng(73 + n)
    tabs = [random_tableau(n, rng) for _ in range(40)]
    batch = cliffords_to_matrices(n, tabs)
    assert batch.shape == (40, 1 << n, 1 << n)
    for t, u in zip(tabs, batch):
        assert u.tobytes() == clifford_to_matrix(CliffordOp.from_tableau(n, t)).tobytes()
        assert cliffords_to_matrices(n, np.array([t]))[0].tobytes() == u.tobytes()
        # global phase: the largest amplitude of column 0 is real positive
        top = u[np.argmax(np.abs(u[:, 0])), 0]
        assert top.imag == 0 and top.real > 0


def test_enumerate_small_groups():
    assert len(enumerate_symplectics(1)) == 6
    cs = enumerate_cliffords(1)
    assert len(cs) == 24
    assert len(set(cs)) == 24


@pytest.mark.slow
def test_enumerate_n2():
    assert len(enumerate_symplectics(2)) == 720
    cs = enumerate_cliffords(2)
    assert len(set(cs)) == 11520
    for c in cs:
        assert_inverts(c)


# ---------------------------------------------------------------------------
# expectation scans and stabilizer groups


def test_fwht_oracle():
    rng = np.random.default_rng(2)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    f = _fwht(v)
    for b in range(8):
        want = sum(v[x] * (-1) ** ((b & x).bit_count() % 2) for x in range(8))
        assert abs(f[b] - want) < 1e-10


def test_pauli_expectations_all_oracle():
    rng = np.random.default_rng(4)
    n = 3
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    table = pauli_expectations_all(v, n)
    for a in (0, 1, 5, 7):
        for b in (0, 2, 3, 6):
            want = np.vdot(v, pauli_matrix(PauliString(n, a, b)) @ v).real
            assert abs(table[a, b] - want) < 1e-10


def loop_fwht(v: np.ndarray) -> np.ndarray:
    """Reference: the in-place butterfly on one 1-D vector."""
    v = v.copy()
    h = 1
    while h < len(v):
        v = v.reshape(-1, 2, h)
        a = v[:, 0, :].copy()
        v[:, 0, :] = a + v[:, 1, :]
        v[:, 1, :] = a - v[:, 1, :]
        v = v.reshape(-1)
        h *= 2
    return v


def loop_pauli_expectations(amps: np.ndarray, n: int) -> np.ndarray:
    """Reference: one transform per row a, i-power from a Python popcount list."""
    d = 1 << n
    out = np.empty((d, d), dtype=float)
    idx = np.arange(d)
    popcount = np.array([v.bit_count() for v in range(d)])
    for a in range(d):
        vals = (1j ** (popcount[a & idx] % 4)) * loop_fwht(np.conj(amps[idx ^ a]) * amps)
        assert np.max(np.abs(vals.imag)) <= 1e-7
        out[a, :] = vals.real
    return out


def loop_stabilizer_generators(amps: np.ndarray, n: int) -> list[tuple[int, int, int]]:
    """Reference: row-major double-loop scan, then the RREF basis, signed."""
    exps = loop_pauli_expectations(amps, n)
    vecs = set()
    for a in range(1 << n):
        for b in range(1 << n):
            if abs(abs(exps[a, b]) - 1.0) <= 1e-9:
                vecs.add(a | (b << n))
    gens = []
    for v in rref_basis([v for v in sorted(vecs) if v], 2 * n):
        x, z = v & ((1 << n) - 1), v >> n
        gens.append((x, z, 0 if exps[x, z] > 0 else 2))
    return gens


def test_fwht_transforms_the_last_axis_row_by_row():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 5, 16)) + 1j * rng.normal(size=(3, 5, 16))
    f = _fwht(m)
    for i, j in itertools.product(range(3), range(5)):
        assert f[i, j].tobytes() == loop_fwht(m[i, j]).tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_pauli_expectations_all_equals_the_row_loop_bit_for_bit(n):
    rng = np.random.default_rng(60 + n)
    d = 1 << n
    haar = rng.normal(size=d) + 1j * rng.normal(size=d)
    states = [haar / np.linalg.norm(haar), clifford_to_matrix(random_clifford(n, rng))[:, 0]]
    for v in states:
        assert pauli_expectations_all(v, n).tobytes() == loop_pauli_expectations(v, n).tobytes()


@pytest.mark.parametrize("n", range(1, 7))
def test_stabilizer_group_of_matches_the_double_loop_scan(n):
    rng = np.random.default_rng(70 + n)
    for t in range(n + 1):
        amps = make_compressible(n, t, rng).amplitudes
        got = [(p.x, p.z, p.phase) for p in stabilizer_group_of(amps, t).generators]
        assert got == loop_stabilizer_generators(amps, n)


def test_stabilizer_scan_tolerance_is_1e_minus_9():
    # <Z> = cos(2 eps) = 1 - 2e-8: outside 1e-9 of +1, so only I stabilizes
    eps = 1e-4
    psi = np.array([np.cos(eps), np.sin(eps)], dtype=complex)
    assert stabilizer_group_of(psi, 1).order == 1
    with pytest.raises(ValidationError, match="found 1 stabilizing"):
        stabilizer_group_of(psi, 0)


@pytest.mark.parametrize("length", [0, 3, 6])
def test_stabilizer_group_of_rejects_bad_lengths(length):
    with pytest.raises(ValidationError, match="not a power of two"):
        stabilizer_group_of(np.ones(length, dtype=complex), 0)


def test_stabilizer_group_of_zero_state():
    n = 3
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1.0
    g = stabilizer_group_of(psi, 0)
    assert g.order == 8
    labs = sorted(p.label() for p in g.generators)
    assert labs == ["IIZ", "IZI", "ZII"]
    assert all(p.sign() == 1 for p in g.generators)


def test_stabilizer_group_of_one_state():
    psi = np.zeros(4, dtype=complex)
    psi[3] = 1.0  # |11>
    g = stabilizer_group_of(psi, 0)
    got = {(p.x, p.z, p.phase) for p in g.generators}
    assert got == {(0, 1, 2), (0, 2, 2)}  # -Z on each qubit


def test_stabilizer_group_of_clifford_orbit():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4):
        c = random_clifford(n, rng)
        u = clifford_to_matrix(c)
        psi = u[:, 0]
        g = stabilizer_group_of(psi, 0)
        assert g.order == 1 << n
        # every element fixes the state
        for p in g.elements():
            np.testing.assert_allclose(apply_pauli(p, psi), psi, atol=1e-9)


def test_stabilizer_group_of_haar_state_is_trivial():
    rng = np.random.default_rng(13)
    n = 3
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    g = stabilizer_group_of(v, n)
    assert g.order == 1
    with pytest.raises(ValidationError):
        stabilizer_group_of(v, 0)


def test_stabilizer_group_bad_t():
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    with pytest.raises(ValidationError):
        stabilizer_group_of(psi, 2)  # the real group is bigger than 2^0


def test_stabilizer_group_rejects_anticommuting_generators():
    with pytest.raises(ValidationError):
        StabilizerGroup(2, 0, (PauliString(2, 1, 0), PauliString(2, 0, 1)))
    with pytest.raises(ValidationError):
        StabilizerGroup(2, 1, (PauliString(2, 1, 0), PauliString(2, 2, 0)))
