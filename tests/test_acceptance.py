"""Acceptance gate: one test per headline guarantee, re-derived from scratch.

Each test owns its tolerance and its frozen seed; `pytest -v` gives one
pass/fail line per guarantee. The three entries marked `slow` are the
moment-decay experiment (~2 min), the k=4 frame-potential separation and
the enumerated group average (~1 min each); `pytest -m "not slow"` skips
them.
"""

from __future__ import annotations

import itertools
from math import factorial

import numpy as np
import pytest

from kdesign.attack import advantage_curve, compress, make_compressible
from kdesign.commutant import (
    PermutationOp,
    alpha,
    clifford_twirl,
    enumerate_monomials,
    haar_twirl,
    monomial_count,
    monomial_site_matrix,
    trace_norm_exponent,
    vandermonde_bound_check,
)
from kdesign.dense import (
    bell_difference_sample,
    bell_table,
    draw_from_table,
    expectation,
    flat_index_to_pauli,
    haar_state,
    pauli_distribution,
    xor_convolve,
)
from kdesign.ensembles import (
    CliffordEnumerated,
    CliffordUniform,
    Haar,
    enumerate_unitaries,
    frame_potential,
)
from kdesign.f2 import symplectic_product
from kdesign.moments import (
    decay_experiment,
    envelope_satisfied,
    fitted_log2_slope,
    monotone_above_floor,
)
from kdesign.pauli import clifford_to_matrix, stabilizer_group_of


def _random_operand(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return raw / np.linalg.norm(raw, 2)


def _group_average(o, k, us, chunk=1440):
    """Plain average of U^(x)k O U^(x)k-dagger over an explicit matrix list."""
    d = us.shape[1]
    dim = d**k
    acc = np.zeros((dim, dim), dtype=complex)
    for lo in range(0, len(us), chunk):
        b = us[lo : lo + chunk]
        a = b
        for _ in range(k - 1):
            m = a.shape[1]
            a = np.einsum("cij,ckl->cikjl", a, b).reshape(len(b), m * d, m * d)
        t1 = (a.reshape(-1, dim) @ o).reshape(len(b), dim, dim)
        x = t1.transpose(1, 0, 2).reshape(dim, -1)
        y = a.conj().transpose(1, 0, 2).reshape(dim, -1)
        acc += x @ y.T
    return acc / len(us)


def test_01_commutant_basis_count():
    sizes = [len(enumerate_monomials(k)) for k in range(2, 7)]
    assert sizes == [2, 6, 30, 270, 4590]
    for k in range(2, 7):
        product = 1
        for i in range(k - 1):
            product *= 2**i + 1
        assert monomial_count(k) == product


@pytest.mark.slow
def test_02_twirl_matches_enumerated_group_average():
    rng = np.random.default_rng(42)
    groups = {}
    for n, expected in ((1, 24), (2, 11520)):
        mats = enumerate_unitaries(CliffordEnumerated(n))
        assert len(mats) == expected
        groups[n] = np.stack([m.matrix for m in mats])
    for n, k in ((1, 2), (2, 2), (2, 3)):
        dim = (2**n) ** k
        worst = 0.0
        for _ in range(20):
            o = _random_operand(rng, dim)
            table_result = clifford_twirl(o, k, n).matrix
            brute = _group_average(o, k, groups[n])
            worst = max(worst, float(np.max(np.abs(table_result - brute))))
        assert worst <= 1e-8, f"(n={n}, k={k}) max entrywise error {worst:.3e}"


def test_03_clifford_is_exactly_a_3_design_and_not_a_4_design():
    rng = np.random.default_rng(4242)
    for k in (1, 2, 3):
        for _ in range(5):
            o = _random_operand(rng, 4**k)
            gap = float(
                np.max(np.abs(clifford_twirl(o, k, 2).matrix - haar_twirl(o, k, 4).matrix))
            )
            assert gap <= 1e-8, f"k={k} twirls differ by {gap:.3e}"
    o = _random_operand(rng, 256)
    gap4 = float(np.max(np.abs(clifford_twirl(o, 4, 2).matrix - haar_twirl(o, 4, 4).matrix)))
    assert gap4 > 10 * 1e-8, f"k=4 twirls coincide to {gap4:.3e}"


@pytest.mark.slow
def test_04_moment_distance_decay_stays_under_envelope():
    rng = np.random.default_rng(20260501)
    report = decay_experiment(5, 1, [1, 2, 3, 4, 5], 20000, rng)
    assert monotone_above_floor(report), [
        (r.t, r.distance, r.floor) for r in report.rows
    ]
    assert envelope_satisfied(report), [
        (r.t, r.distance, 47.0 * 2.0 ** (2 - r.t)) for r in report.rows
    ]
    slope = fitted_log2_slope(report)
    # at k=1 the sandwiched ensemble is an exact design for every t, so all
    # rows sit at the statistical floor and no pre-floor range exists
    assert slope is None or slope <= -0.8, f"fitted slope {slope}"


def test_05_distinguisher_advantage_and_haar_null():
    rng = np.random.default_rng(20260607)
    rows = advantage_curve([0, 6], 6, 200, rng)
    t0, tn = rows
    assert t0.l == 2 and t0.copies == 10
    assert t0.source_mean >= 0.45, f"stabilizer-source mean {t0.source_mean:.4f}"
    assert t0.haar_mean <= 0.05, f"scrambled-source mean {t0.haar_mean:.4f}"
    assert t0.advantage >= 1 / 8, f"advantage {t0.advantage:.4f}"
    assert abs(tn.advantage) <= 3 * tn.stderr + 1e-12, (
        f"t=n advantage {tn.advantage:.5f} exceeds 3 x {tn.stderr:.5f}"
    )


def test_06_bell_difference_sampling_matches_the_convolution_table():
    rng = np.random.default_rng(20260817)
    for _ in range(20):
        psi = haar_state(3, rng)
        p = pauli_distribution(psi)
        pp = xor_convolve(p, p)
        q = bell_table(psi)
        exact_gap = float(np.max(np.abs(xor_convolve(q, q) - pp)))
        assert exact_gap <= 1e-10, f"convolution identity off by {exact_gap:.3e}"
        counts = np.zeros(64)
        for _ in range(10000):
            s = bell_difference_sample(psi, rng, path="measure", table=q)
            counts[(s.x << 3) | s.z] += 1
        tv = 0.5 * float(np.abs(counts / 10000 - pp.reshape(-1)).sum())
        assert tv <= 0.05, f"TV distance {tv:.4f}"


def test_07_commutation_frequency_identities():
    rng = np.random.default_rng(777)
    psi = haar_state(3, rng)
    p = pauli_distribution(psi)
    pp = xor_convolve(p, p)
    fixed = None
    while fixed is None:
        f = int(draw_from_table(p, rng, 1)[0])
        if f:
            fixed = flat_index_to_pauli(f, 3)
    e = expectation(psi, fixed)
    for table, predicted in ((p, (1 + e**2) / 2), (pp, (1 + e**4) / 2)):
        idx = draw_from_table(table, rng, 10000)
        commuting = sum(
            symplectic_product(
                flat_index_to_pauli(int(f), 3).symplectic_vec, fixed.symplectic_vec, 3
            )
            == 0
            for f in idx
        )
        frac = commuting / 10000
        sigma = np.sqrt(predicted * (1 - predicted) / 10000)
        assert abs(frac - predicted) <= 3 * sigma, (
            f"fraction {frac:.4f} vs {predicted:.4f} (3 sigma = {3 * sigma:.4f})"
        )


def test_08_overlap_exponent_property_suite():
    for k in (2, 3, 4):
        monos = enumerate_monomials(k)
        mps = [trace_norm_exponent(m) for m in monos]
        nmon = len(monos)
        a = np.zeros((nmon, nmon), dtype=int)
        for i in range(nmon):
            for j in range(nmon):
                a[i, j] = alpha(monos[i], monos[j])
        assert np.array_equal(a, a.T)
        for i in range(nmon):
            for j in range(nmon):
                assert (a[i, j] == 0) == (i == j)
                assert 0 <= a[i, j] <= k - 1
                assert a[i, j] >= abs(monos[i].m - monos[j].m)
                assert a[i, j] >= abs(mps[i] - mps[j])
        # every permutation operator occurs as a monomial; triangle through each
        sites = [monomial_site_matrix(m).matrix for m in monos]
        perm_idx = []
        for perm in itertools.permutations(range(k)):
            t = PermutationOp(perm, 2).matrix
            matches = [i for i, s in enumerate(sites) if np.array_equal(s, t)]
            assert len(matches) == 1
            perm_idx.append(matches[0])
        assert len(perm_idx) == factorial(k)
        for pi in perm_idx:
            for i in range(nmon):
                for j in range(nmon):
                    assert a[i, j] <= a[i, pi] + a[pi, j]


def test_09_inverse_row_sum_bounds_hold_through_k_16():
    for k in range(1, 17):
        report = vandermonde_bound_check(k)
        assert report.all_ok, f"k={k} violates the row-sum bound"
        assert report.max_ratio <= 1.0
    assert vandermonde_bound_check(16).max_ratio > 0.5  # bound is not vacuous


def test_10_compression_pins_the_trailing_qubits():
    rng = np.random.default_rng(20260303)
    for trial in range(100):
        n = int(rng.integers(1, 7))
        t = int(rng.integers(0, min(2, n) + 1))
        psi = make_compressible(n, t, rng)
        group = stabilizer_group_of(psi, t)
        c = compress(psi, group)
        out = clifford_to_matrix(c) @ psi.amplitudes
        p_zero = float(np.sum(np.abs(out[: 1 << t]) ** 2))
        assert p_zero >= 1 - 1e-9, f"trial {trial} (n={n}, t={t}): P(0...0) = {p_zero}"


@pytest.mark.slow
def test_11_frame_potentials_split_at_k_4():
    rng = np.random.default_rng(424242)
    for spec in (Haar(2), CliffordUniform(2)):
        est, err = frame_potential(spec, 2, 30000, rng)
        assert abs(est - 2.0) <= 3 * err, f"{spec}: k=2 value {est:.4f} +- {err:.4f}"
    haar4, haar_err = frame_potential(Haar(2), 4, 300000, rng)
    cliff4, cliff_err = frame_potential(CliffordUniform(2), 4, 300000, rng)
    gap = cliff4 - haar4
    sigma = float(np.hypot(haar_err, cliff_err))
    assert gap > 3 * sigma, f"k=4 gap {gap:.3f} vs 3 sigma = {3 * sigma:.3f}"
