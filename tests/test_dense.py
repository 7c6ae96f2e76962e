"""Dense layer: Haar moments, Pauli/Bell tables, and query circuits."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from kdesign.dense import (
    DenseOperator,
    StateVector,
    bell_difference_sample,
    bell_difference_table,
    bell_table,
    draw_from_table,
    expectation,
    flat_index_to_pauli,
    haar_state,
    haar_unitary,
    pauli_distribution,
    query_output_state,
    xor_convolve,
)
from kdesign.errors import ValidationError
from kdesign.pauli import (
    PauliString,
    _fwht,
    chi,
    clifford_to_matrix,
    pauli_matrix,
    random_clifford,
)


def test_state_vector_validation():
    with pytest.raises(ValidationError):
        StateVector(2, np.ones(4))  # norm 2
    with pytest.raises(ValidationError):
        StateVector(2, np.zeros(3))
    s = StateVector.basis(3, index=5)
    assert s.amplitudes[5] == 1.0


def test_dense_operator_flags():
    assert DenseOperator(2, np.eye(2)).is_unitary()
    assert DenseOperator(2, np.array([[0, 1j], [-1j, 0]])).is_hermitian()
    assert not DenseOperator(2, np.array([[1, 1], [0, 1]])).is_unitary()
    with pytest.raises(ValidationError):
        DenseOperator(2, np.array([[np.inf, 0], [0, 1]]))


def test_haar_state_first_moment():
    # E tr^2(P psi) = 1/(d+1) for nonidentity P
    rng = np.random.default_rng(101)
    n, m = 3, 10_000
    p = PauliString.from_label("XZY")
    vals = np.empty(m)
    for i in range(m):
        vals[i] = expectation(haar_state(n, rng), p) ** 2
    want = 1.0 / (2**n + 1)
    se = vals.std(ddof=1) / np.sqrt(m)
    assert abs(vals.mean() - want) < 3 * se


def test_haar_unitary_is_unitary_and_trace_moment():
    rng = np.random.default_rng(103)
    u = haar_unitary(7, rng)
    assert u.is_unitary(1e-12)
    m = 10_000
    traces = np.empty(m)
    for i in range(m):
        traces[i] = abs(np.trace(haar_unitary(4, rng).matrix)) ** 2
    se = traces.std(ddof=1) / np.sqrt(m)
    assert abs(traces.mean() - 1.0) < 3 * se


def test_expectation_examples():
    z0 = StateVector.basis(1, 0)
    assert expectation(z0, PauliString.from_label("Z")) == pytest.approx(1.0)
    assert expectation(z0, PauliString.from_label("X")) == pytest.approx(0.0)
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    assert expectation(plus, PauliString.from_label("X")) == pytest.approx(1.0)
    amps = np.kron([1.0, 0.0], np.array([1, 1]) / np.sqrt(2))  # |+> on qubit 0, |0> on qubit 1
    both = StateVector(2, amps)
    assert expectation(both, PauliString.from_label("XI")) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        expectation(z0, PauliString(1, 1, 0, 1))


def test_pauli_distribution_zero_state():
    t = pauli_distribution(StateVector.basis(1, 0))
    want = np.array([[0.5, 0.5], [0.0, 0.0]])  # rows x-part: I and Z live at a=0
    np.testing.assert_allclose(t, want, atol=1e-12)


def test_pauli_distribution_stabilizer_state_uniform():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        c = random_clifford(n, rng)
        psi = clifford_to_matrix(c)[:, 0]
        t = pauli_distribution(psi)
        nz = t[t > 1e-12]
        assert len(nz) == 1 << n
        np.testing.assert_allclose(nz, 1.0 / (1 << n), atol=1e-10)


def bell_table_oracle(amps: np.ndarray, n: int) -> np.ndarray:
    """|<Phi_ab | psi x psi>|^2 via explicit Bell vectors."""
    d = 1 << n
    phi = np.zeros(d * d, dtype=complex)
    for x in range(d):
        phi[x * d + x] = 1.0 / np.sqrt(d)
    two = np.kron(amps, amps)
    out = np.empty((d, d))
    for a in range(d):
        for b in range(d):
            bell = np.kron(np.eye(d), pauli_matrix(PauliString(n, a, b))) @ phi
            out[a, b] = abs(np.vdot(bell, two)) ** 2
    return out


def test_bell_table_matches_explicit_bell_basis():
    rng = np.random.default_rng(7)
    for n in (1, 2):
        amps = haar_state(n, rng).amplitudes
        np.testing.assert_allclose(
            bell_table(amps), bell_table_oracle(amps, n), atol=1e-12
        )


def loop_bell_table(amps: np.ndarray, n: int) -> np.ndarray:
    """Reference: one 1-D transform per row a, i-power from a Python
    popcount list."""
    d = 1 << n
    idx = np.arange(d)
    popcount = np.array([v.bit_count() for v in range(d)])
    out = np.empty((d, d), dtype=float)
    for a in range(d):
        f = _fwht(amps[idx ^ a] * amps)
        out[a, :] = np.abs((1j ** (popcount[a & idx] % 4)) * f) ** 2 / d
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_bell_table_equals_the_row_loop_bit_for_bit(n):
    rng = np.random.default_rng(80 + n)
    states = [haar_state(n, rng).amplitudes, clifford_to_matrix(random_clifford(n, rng))[:, 0]]
    for amps in states:
        assert bell_table(amps).tobytes() == loop_bell_table(amps, n).tobytes()


@pytest.mark.parametrize("table", [pauli_distribution, bell_table, bell_difference_table])
@pytest.mark.parametrize("length", [0, 3])
def test_tables_reject_lengths_that_are_not_powers_of_two(table, length):
    with pytest.raises(ValidationError, match="not a power of two"):
        table(np.ones(length, dtype=complex))


def test_xor_convolve_oracle():
    rng = np.random.default_rng(9)
    p = rng.random(8)
    q = rng.random(8)
    got = xor_convolve(p, q)
    for c in range(8):
        want = sum(p[u] * q[u ^ c] for u in range(8))
        assert abs(got[c] - want) < 1e-12


def test_bell_difference_equals_char_convolution():
    # the q*q and p*p self-convolutions coincide exactly
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        amps = haar_state(n, rng).amplitudes
        q = bell_table(amps)
        p = pauli_distribution(amps)
        np.testing.assert_allclose(
            xor_convolve(q, q), xor_convolve(p, p), atol=1e-10
        )
        np.testing.assert_allclose(
            bell_difference_table(amps), xor_convolve(q, q), atol=1e-10
        )


def test_bell_difference_paths_agree():
    # both sampling paths reproduce the exact difference distribution
    rng = np.random.default_rng(13)
    n, m = 3, 10_000
    psi = haar_state(n, rng)
    qt = bell_table(psi)
    dt = bell_difference_table(psi)
    exact = dt.reshape(-1)
    for path, table in (("measure", qt), ("table", dt)):
        counts = np.zeros(4**n)
        for _ in range(m):
            p = bell_difference_sample(psi, rng, path=path, table=table)
            counts[(p.x << n) | p.z] += 1
        tv = 0.5 * np.abs(counts / m - exact).sum()
        assert tv <= 0.05, path
    with pytest.raises(ValidationError):
        bell_difference_sample(psi, rng, path="nope")


def test_bell_difference_zero_state_gives_z_strings():
    rng = np.random.default_rng(15)
    psi = StateVector.basis(3, 0)
    for _ in range(200):
        p = bell_difference_sample(psi, rng, path="measure")
        assert p.x == 0


def test_bell_difference_product_state_marginal():
    # psi = phi x |00>: the difference samples restricted to the zero block
    # are uniform over its four Z-strings
    rng = np.random.default_rng(17)
    phi = haar_state(1, rng).amplitudes
    amps = np.zeros(8, dtype=complex)
    amps[:2] = phi  # qubit 0 carries phi, qubits 1,2 are |0>
    psi = StateVector(3, amps)
    dt = bell_difference_table(psi)
    counts = np.zeros(4)
    m = 4000
    for _ in range(m):
        p = bell_difference_sample(psi, rng, path="table", table=dt)
        assert p.x & 0b110 == 0
        counts[(p.z >> 1) & 0b11] += 1
    assert stats.chisquare(counts).pvalue > 1e-3


def test_flat_index_round_trip():
    n = 3
    p = PauliString(n, 0b101, 0b011)
    f = (p.x << n) | p.z
    q = flat_index_to_pauli(f, n)
    assert (q.x, q.z, q.phase) == (p.x, p.z, 0)


def test_commutation_frequency_identity():
    # empirical commuting fraction against a fixed P:
    # (1 + tr^2)/2 for p-samples, (1 + tr^4)/2 for difference samples
    rng = np.random.default_rng(19)
    n, m = 3, 10_000
    psi = haar_state(n, rng)
    p_fixed = PauliString.from_label("ZXI")
    e = expectation(psi, p_fixed)
    pt = pauli_distribution(psi)
    dt = bell_difference_table(psi)
    for table, want in ((pt, (1 + e**2) / 2), (dt, (1 + e**4) / 2)):
        idx = draw_from_table(table, rng, m)
        hits = 0
        for f in idx:
            q = flat_index_to_pauli(int(f), n)
            hits += chi(p_fixed, q) == 1
        freq = hits / m
        se = np.sqrt(want * (1 - want) / m)
        assert abs(freq - want) <= 3 * se + 1e-12


def test_query_output_state_single_unitary():
    rng = np.random.default_rng(21)
    u = haar_unitary(4, rng).matrix  # 2-qubit main wire
    v1 = haar_unitary(16, rng).matrix  # plus one ancilla qubit... full register dim 16
    v2 = haar_unitary(16, rng).matrix
    st = query_output_state(u, [v1, v2])
    big_u = np.kron(np.eye(4), u)
    e0 = np.zeros(16, dtype=complex)
    e0[0] = 1.0
    want = big_u @ v2 @ big_u @ v1 @ e0
    np.testing.assert_allclose(st, want, atol=1e-12)


def test_query_output_state_identity_queries():
    rng = np.random.default_rng(23)
    u = haar_unitary(8, rng).matrix
    st = query_output_state(u, [np.eye(8)])
    np.testing.assert_allclose(st, u[:, 0], atol=1e-12)
    with pytest.raises(ValidationError):
        query_output_state(u, [])
    with pytest.raises(ValidationError):
        query_output_state(u, [np.eye(4)])
