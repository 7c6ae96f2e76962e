"""Compressible states, compression, and the Bell-difference distinguisher."""

from __future__ import annotations

import json

import numpy as np
import pytest
from scipy import stats as scistats

from kdesign import cli
from kdesign.attack import (
    AdvantageRow,
    AttackReport,
    CompressibleSource,
    _nontrivial_subspace,
    check_distinguish_args,
    compress,
    distinguish,
    distinguish_vs_haar,
    make_compressible,
    sample_attack_statistic,
)
from kdesign.dense import (
    StateVector,
    bell_difference_table,
    draw_from_table,
    expectation,
    flat_index_to_pauli,
    haar_state,
)
from kdesign.errors import ValidationError
from kdesign.f2 import rank
from kdesign.pauli import clifford_to_matrix, stabilizer_group_of


def test_make_compressible_validation():
    rng = np.random.default_rng(113)
    with pytest.raises(ValidationError):
        make_compressible(9, 0, rng)
    with pytest.raises(ValidationError):
        make_compressible(4, 5, rng)


def test_make_compressible_t0_is_stabilizer():
    rng = np.random.default_rng(127)
    psi = make_compressible(3, 0, rng)
    group = stabilizer_group_of(psi, 0)
    assert group.order == 8


def test_make_compressible_t1_n4_group_size():
    rng = np.random.default_rng(131)
    psi = make_compressible(4, 1, rng)
    group = stabilizer_group_of(psi, 1)
    assert group.order == 8
    for g in group.generators:
        assert expectation(psi, g) == pytest.approx(1.0, abs=1e-9)


def test_compress_full_stabilizer_gives_zero_state():
    rng = np.random.default_rng(137)
    psi = make_compressible(4, 0, rng)
    group = stabilizer_group_of(psi, 0)
    c = compress(psi, group)
    out = clifford_to_matrix(c) @ psi.amplitudes
    assert abs(out[0]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n,t", [(3, 1), (4, 1), (4, 2), (5, 2)])
def test_compress_pins_trailing_qubits(n, t):
    rng = np.random.default_rng(139 + n * 10 + t)
    psi = make_compressible(n, t, rng)
    group = stabilizer_group_of(psi, t)
    c = compress(psi, group)
    out = clifford_to_matrix(c) @ psi.amplitudes
    low = 1 << t
    p_zero = float(np.sum(np.abs(out[:low]) ** 2))
    assert p_zero >= 1 - 1e-9
    # the compressed state is stabilized by +Z on every trailing wire
    exps_ok = []
    for q in range(t, n):
        z = np.array([1.0 if not (i >> q) & 1 else -1.0 for i in range(1 << n)])
        exps_ok.append(np.vdot(out, z * out).real)
    np.testing.assert_allclose(exps_ok, 1.0, atol=1e-9)


# compress(...).tableau of make_compressible(6, t, default_rng(60 + t)),
# recorded from the symplectic-matrix implementation it replaces.
COMPRESSIONS_N6 = {
    0: (32, 6, 39, 21, 60, 13, 2497, 1730, 1604, 904, 1925, 1424, 192),
    1: (50, 38, 16, 44, 22, 70, 962, 2500, 3337, 528, 2721, 83, 448),
    2: (1, 32, 4, 60, 20, 148, 64, 2564, 1416, 516, 1538, 146, 1664),
}


@pytest.mark.parametrize("t", sorted(COMPRESSIONS_N6))
def test_compressions_are_pinned(t):
    psi = make_compressible(6, t, np.random.default_rng(60 + t))
    assert compress(psi, stabilizer_group_of(psi, t)).tableau == COMPRESSIONS_N6[t]


def test_compress_trivial_group_is_identity():
    rng = np.random.default_rng(149)
    psi = make_compressible(3, 3, rng)
    group = stabilizer_group_of(psi, 3)
    c = compress(psi, group)
    out = clifford_to_matrix(c) @ psi.amplitudes
    np.testing.assert_allclose(out, psi.amplitudes, atol=1e-12)


def test_compress_rejects_non_stabilizing_generators():
    rng = np.random.default_rng(151)
    psi = make_compressible(3, 0, rng)
    other = make_compressible(3, 0, rng)
    group = stabilizer_group_of(other, 0)
    with pytest.raises(ValidationError):
        compress(psi, group)


# ---------------------------------------------------------------------------
# distinguisher


def test_source_validation():
    with pytest.raises(ValidationError):
        CompressibleSource(9, 0)
    with pytest.raises(ValidationError):
        CompressibleSource(2, 3)
    with pytest.raises(ValidationError) as source_error:
        CompressibleSource(0, 0)
    with pytest.raises(ValidationError) as draw_error:
        make_compressible(0, 0, np.random.default_rng(0))
    # one range rule: the drawing function raises the source's own message
    assert str(draw_error.value) == str(source_error.value) == (
        "need 0 <= t <= n and 1 <= n <= 8, got n=0, t=0"
    )
    # the distinguisher's 4^n table bound is the dense tables' own
    with pytest.raises(ValidationError) as table_error:
        check_distinguish_args(7, 1)
    with pytest.raises(ValidationError) as dense_error:
        bell_difference_table(StateVector.basis(7))
    assert str(table_error.value) == str(dense_error.value) == (
        "4^n tables limited to n <= 6, got n=7"
    )


def test_samples_lie_in_stabilizer_support():
    rng = np.random.default_rng(163)
    psi = make_compressible(4, 0, rng)
    group = stabilizer_group_of(psi, 0)
    basis = [g.symplectic_vec for g in group.generators]
    table = bell_difference_table(psi)
    for f in draw_from_table(table, rng, 50):
        v = flat_index_to_pauli(int(f), 4).symplectic_vec
        assert rank(basis + [v], 8) == len(basis)


def test_product_state_factors_independent():
    # phi on qubit 0, |00> on qubits 1..2: sampled low letter and high Z-mask
    # are independent, and the high mask is uniform over the four Z-strings
    rng = np.random.default_rng(167)
    phi = haar_state(1, rng).amplitudes
    amps = np.zeros(8, dtype=complex)
    amps[:2] = phi
    psi = StateVector(3, amps)
    table = bell_difference_table(psi)
    draws = draw_from_table(table, rng, 4000)
    counts = np.zeros((4, 4), dtype=float)
    for f in draws:
        p = flat_index_to_pauli(int(f), 3)
        low = ((p.x >> 0) & 1) + 2 * ((p.z >> 0) & 1)
        high = ((p.z >> 1) & 1) + 2 * ((p.z >> 2) & 1)
        assert (p.x >> 1) == 0  # no X action outside the factor
        counts[low, high] += 1
    # uniform high marginal
    high_marg = counts.sum(axis=0)
    chi2_u = float(((high_marg - 1000.0) ** 2 / 1000.0).sum())
    assert scistats.chi2.sf(chi2_u, df=3) > 1e-3
    # independence of the two factors
    _, pvalue, _, _ = scistats.chi2_contingency(counts + 1e-9)
    assert pvalue > 1e-3


def test_stabilizer_source_statistic_is_binary_and_high():
    rng = np.random.default_rng(173)
    rep = distinguish(CompressibleSource(4, 0), 2, 0.5, 100, rng)
    assert rep.copies == 10
    for s in rep.statistics:
        assert s <= 1e-9 or abs(s - 1.0) <= 1e-9
    assert rep.mean >= 0.9


def test_haar_source_statistic_small():
    rng = np.random.default_rng(179)
    rep = distinguish(CompressibleSource(4, 4), 2, 0.5, 100, rng)
    assert rep.mean <= 0.12


def test_haar_s_trivial_at_large_l():
    # l well above 2n: the sampled vectors span the full symplectic space
    # with overwhelming probability, so the radical S is almost always {0}.
    # At l = 2n exactly a random span misses full rank ~70% of the time and
    # any odd-dimensional span forces a nontrivial radical, so that regime
    # is deliberately not asserted here.
    rng = np.random.default_rng(181)
    trivial = 0
    for _ in range(50):
        psi = haar_state(3, rng)
        table = bell_difference_table(psi)
        vecs = [
            flat_index_to_pauli(int(f), 3).symplectic_vec
            for f in draw_from_table(table, rng, 20)
        ]
        if not _nontrivial_subspace(vecs, 3):
            trivial += 1
    assert trivial >= 47


def test_nontriviality_rate_bound():
    # S nontrivial with probability >= 1 - 2^-(n-t) - 4^t (5/8)^l
    rng = np.random.default_rng(191)
    n, t, l, trials = 4, 1, 5, 120
    bound = 1 - 2.0 ** -(n - t) - 4**t * (5 / 8) ** l
    hits = 0
    for _ in range(trials):
        psi = make_compressible(n, t, rng)
        table = bell_difference_table(psi)
        vecs = [
            flat_index_to_pauli(int(f), n).symplectic_vec
            for f in draw_from_table(table, rng, l)
        ]
        if _nontrivial_subspace(vecs, n):
            hits += 1
    rate = hits / trials
    sigma = np.sqrt(max(rate * (1 - rate), 0.25 / trials) / trials)
    assert rate >= bound - 3 * sigma


def test_thresholded_statistics_are_binary():
    rng = np.random.default_rng(193)
    rep = distinguish(CompressibleSource(3, 3), 2, 0.5, 50, rng, thresholded=True)
    assert set(rep.statistics) <= {0.0, 1.0}


def test_distinguish_validation():
    rng = np.random.default_rng(197)
    with pytest.raises(ValidationError):
        distinguish(CompressibleSource(3, 0), 0, 0.5, 10, rng)
    with pytest.raises(ValidationError):
        distinguish(CompressibleSource(3, 0), 2, 0.5, 0, rng)
    for eps in (0.0, -0.5, 2.0, float("nan")):
        with pytest.raises(ValidationError):
            distinguish(CompressibleSource(3, 0), 2, eps, 10, rng, thresholded=True)


def test_advantage_curve_rows():
    rng = np.random.default_rng(211)
    rows = [
        AdvantageRow.from_reports(
            *distinguish_vs_haar(CompressibleSource(4, t), 3 * t + 2, 0.5, 60, rng)
        )
        for t in (0, 4)
    ]
    assert [r.t for r in rows] == [0, 4]
    t0 = rows[0]
    assert t0.l == 2 and t0.copies == 10
    assert t0.advantage >= 0.5
    tn = rows[1]
    assert tn.l == 14 and tn.copies == 58
    assert abs(tn.advantage) <= 3 * tn.stderr + 1e-9
    with pytest.raises(ValidationError):
        CompressibleSource(4, 5)


def test_distinguish_vs_haar_runs_the_source_arm_then_the_haar_arm():
    src, haar = distinguish_vs_haar(CompressibleSource(3, 1), 5, 0.5, 8, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    assert src == distinguish(CompressibleSource(3, 1), 5, 0.5, 8, rng)
    assert haar == distinguish(CompressibleSource(3, 3), 5, 0.5, 8, rng)
    assert (src.t, haar.t) == (1, 3)


def test_report_serialization(tmp_path):
    # the CLI writes the trials CSV and the summary JSON; the source arm
    # draws first from the --seed stream
    argv = ["distinguish", "--n", "3", "--t", "0", "--trials", "20", "--seed", "223"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    rep = distinguish(CompressibleSource(3, 0), 2, 0.5, 20, np.random.default_rng(223))
    lines = (tmp_path / "distinguish_n3_t0_seed223_source.csv").read_text().strip().split("\n")
    assert lines[0] == "trial,statistic"
    assert len(lines) == 21
    assert [float(line.split(",")[1]) for line in lines[1:]] == list(rep.statistics)

    doc = json.loads((tmp_path / "distinguish_n3_t0_seed223.json").read_text())
    assert doc["schema_version"] == 1
    assert (doc["n"], doc["trials"], doc["seed"], doc["epsilon_t"]) == (3, 20, 223, 0.5)
    [row] = doc["rows"]
    assert (row["l"], row["copies"]) == (2, 10)
    assert row["source_mean"] == rep.mean
    assert row["advantage"] == row["source_mean"] - row["haar_mean"]
