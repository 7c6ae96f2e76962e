"""Choi-distance estimation, floors, and the decay experiment."""

from __future__ import annotations

import numpy as np
import pytest

from kdesign import cli, moments
from kdesign.dense import DenseOperator, haar_unitary
from kdesign.ensembles import (
    CliffordEnumerated,
    CliffordUniform,
    FixedList,
    Haar,
    Homeopathy,
    exact_moment_choi,
    moment_choi,
)
from kdesign.errors import InternalConsistencyError, ValidationError
from kdesign.moments import (
    DecayReport,
    DecayRow,
    adaptive_distance,
    choi_trace_distance,
    decay_experiment,
    envelope_satisfied,
    fitted_log2_slope,
    monotone_above_floor,
    trace_distance,
)
from kdesign.moments import _batched_gram, _distance_from_gram, _gram_trace_norm


def test_trace_distance_basics():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(a, a) == 0.0
    assert trace_distance(a, b) == pytest.approx(1.0)


def test_identical_specs_sit_at_floor():
    rng = np.random.default_rng(71)
    est = choi_trace_distance(Haar(1), Haar(1), 2, 2000, rng)
    assert est.samples == 2000
    assert est.floor > 0
    assert not est.above_floor


def test_clifford_haar_k4_gap_detected():
    exact = trace_distance(
        exact_moment_choi(CliffordEnumerated(1), 4), exact_moment_choi(Haar(1), 4)
    )
    assert exact > 0.01
    for seed in (73, 79):
        rng = np.random.default_rng(seed)
        est = choi_trace_distance(Haar(1), CliffordEnumerated(1), 4, 4000, rng)
        assert est.above_floor
        assert est.value > exact / 2


def test_homeopathy_full_t_choi_matches_haar():
    rng = np.random.default_rng(83)
    est = choi_trace_distance(Homeopathy(2, 2, Haar(2)), Haar(2), 2, 2000, rng)
    assert not est.above_floor


def test_decay_experiment_null_case():
    # k=1: the Clifford sandwich is already an exact 1-design at every t,
    # so every row sits at the statistical floor
    rng = np.random.default_rng(89)
    report = decay_experiment(2, 1, [1, 2], 500, rng)
    assert [r.t for r in report.rows] == [1, 2]
    for r in report.rows:
        assert not r.above_floor
        assert r.floor > 0
    assert monotone_above_floor(report)
    assert envelope_satisfied(report)
    assert fitted_log2_slope(report) is None


def test_decay_experiment_validation():
    rng = np.random.default_rng(97)
    with pytest.raises(ValidationError):
        decay_experiment(2, 1, [], 500, rng)
    with pytest.raises(ValidationError):
        decay_experiment(2, 1, [0, 1], 500, rng)
    with pytest.raises(ValidationError):
        decay_experiment(2, 1, [3], 500, rng)
    with pytest.raises(ValidationError):
        decay_experiment(2, 1, [1], 5, rng)


BATCH_SPLIT_CALLS = {
    "choi_trace_distance": lambda rng: choi_trace_distance(Haar(1), Haar(1), 1, 9, rng),
    "adaptive_distance": lambda rng: adaptive_distance(
        Haar(1), Haar(1), [np.eye(2, dtype=complex)], 9, rng
    ),
    "decay_experiment": lambda rng: decay_experiment(2, 1, [1], 9, rng),
}


@pytest.mark.parametrize("name", sorted(BATCH_SPLIT_CALLS))
def test_every_estimate_splits_its_samples_by_one_rule(name):
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError, match=f"need at least {moments.NUM_BATCHES} samples"):
        BATCH_SPLIT_CALLS[name](rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state  # no draw


TWO_SIDED_CALLS = {
    "choi_trace_distance": lambda rng: choi_trace_distance(Haar(1), Haar(2), 1, 20, rng),
    "adaptive_distance": lambda rng: adaptive_distance(Haar(1), Haar(2), [np.eye(4)], 20, rng),
}


@pytest.mark.parametrize("name", sorted(TWO_SIDED_CALLS))
def test_two_sided_estimates_need_one_register(name):
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError, match="specs act on 1 and 2 qubits"):
        TWO_SIDED_CALLS[name](rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state  # no draw


def synthetic_report(distances, floors, errs):
    rows = tuple(
        DecayRow(t + 1, d, e, f, 1000)
        for t, (d, f, e) in enumerate(zip(distances, floors, errs))
    )
    return DecayReport(5, 1, rows)


def test_decay_analysis_helpers():
    # clean exponential decay: slope -1, monotone, inside the envelope
    rep = synthetic_report(
        [0.8, 0.4, 0.2, 0.1], [0.01] * 4, [0.001] * 4
    )
    assert monotone_above_floor(rep)
    assert envelope_satisfied(rep)
    assert fitted_log2_slope(rep) == pytest.approx(-1.0)

    # a genuine rise above noise breaks monotonicity
    bad = synthetic_report([0.2, 0.8], [0.01] * 2, [0.001] * 2)
    assert not monotone_above_floor(bad)

    # rows at the floor are exempt from the monotonicity claim
    noisy = synthetic_report([0.02, 0.03], [0.05] * 2, [0.01] * 2)
    assert monotone_above_floor(noisy)
    assert fitted_log2_slope(noisy) is None

    # envelope violation at t=1, k=1 needs distance above 47*2^(2-1)
    huge = synthetic_report([95.0], [0.01], [0.001])
    assert not envelope_satisfied(huge)


def test_decay_csv_round_trip_and_determinism(tmp_path):
    # the CLI writes the decay CSV from decay_experiment at the --seed stream
    argv = ["decay", "--n", "2", "--k", "1", "--t", "1..2", "--samples", "300", "--seed", "101"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    p1, p2 = a / "decay_n2_k1_seed101.csv", b / "decay_n2_k1_seed101.csv"
    assert p1.read_bytes() == p2.read_bytes()
    rep = decay_experiment(2, 1, [1, 2], 300, np.random.default_rng(101))
    lines = p1.read_text().strip().split("\n")
    assert lines[0] == "t,distance,stderr,floor,samples,seed"
    assert len(lines) == 1 + len(rep.rows) == 3
    for line, row in zip(lines[1:], rep.rows):
        t, distance, stderr, floor, samples, seed = line.split(",")
        assert (int(t), int(samples), seed) == (row.t, row.samples, "101")
        assert float(distance) == row.distance
        assert (float(stderr), float(floor)) == (row.stderr, row.floor)


def test_adaptive_distance_identity_query_null():
    # single identity query: first moments of any two 1-designs coincide
    rng = np.random.default_rng(103)
    est = adaptive_distance(
        CliffordUniform(1), Haar(1), [np.eye(2, dtype=complex)], 2000, rng
    )
    assert not est.above_floor


def test_adaptive_distance_deterministic_gap():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    spec_a = FixedList((DenseOperator(2, np.eye(2, dtype=complex)),))
    spec_b = FixedList((DenseOperator(2, x),))
    rng = np.random.default_rng(107)
    est = adaptive_distance(spec_a, spec_b, [np.eye(2, dtype=complex)], 100, rng)
    assert est.value == pytest.approx(1.0)
    assert est.floor == pytest.approx(0.0)
    assert est.above_floor


def test_adaptive_distance_homeopathy_identity():
    rng = np.random.default_rng(109)
    qs = [haar_unitary(8, rng) for _ in range(2)]  # one ancilla qubit
    est = adaptive_distance(Homeopathy(2, 2, Haar(2)), Haar(2), qs, 1500, rng)
    assert not est.above_floor


# ---------------------------------------------------------------------------
# the r x r Gram route against dense eigenvalues


def weighted_vectors(nonzero, zeros, dim, seed):
    """Random complex vectors with weights >= 0, `zeros` of them 0."""
    rng = np.random.default_rng(seed)
    r = nonzero + zeros
    vs = rng.normal(size=(r, dim)) + 1j * rng.normal(size=(r, dim))
    w = rng.random(r) + 0.1
    w[rng.permutation(r)[:zeros]] = 0.0
    return vs, w


@pytest.mark.parametrize("c", [0.0, 1 / 12, 2.5])
@pytest.mark.parametrize(
    "nonzero, zeros", [(5, 0), (12, 0), (20, 0), (5, 3), (12, 4), (20, 4)]
)
def test_gram_trace_norm_matches_dense_eigvalsh(nonzero, zeros, c):
    # r < D, r = D and r > D for D = 12, with and without zero weights
    dim = 12
    vs, w = weighted_vectors(nonzero, zeros, dim, 1000 + 7 * nonzero + zeros)
    dense = (vs.T * w) @ vs.conj() - c * np.eye(dim)
    expected = float(np.abs(np.linalg.eigvalsh(dense)).sum())
    got = _gram_trace_norm(vs.conj() @ vs.T, w, c, dim)
    assert got == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_haar_choi_at_k1_is_exactly_identity_over_d(n):
    # the closed form the r x r route uses, against the commutant path
    got = exact_moment_choi(Haar(n), 1)
    assert got.tobytes() == (np.eye(4**n, dtype=complex) / 4**n).tobytes()


def test_decay_builds_the_dense_reference_only_for_dense_rows(monkeypatch):
    def never(spec, k):
        raise AssertionError("a Gram-route row built the dense Haar reference")

    monkeypatch.setattr(moments, "exact_moment_choi", never)
    decay_experiment(2, 1, [1, 2], 10, np.random.default_rng(5))  # S = 10 < D = 16
    calls = []

    def counted(spec, k):
        calls.append((spec, k))
        return exact_moment_choi(spec, k)

    monkeypatch.setattr(moments, "exact_moment_choi", counted)
    decay_experiment(2, 1, [1, 2], 20, np.random.default_rng(5))  # S = 20 >= D = 16
    decay_experiment(1, 2, [1], 10, np.random.default_rng(5))  # k = 2: every row is D x D
    assert calls == [(Haar(2), 1), (Haar(1), 2)]


def dense_decay_reference(n, k, t_list, samples, rng):
    """decay_experiment rows, every distance an eigvalsh of a D x D mean."""
    ref = exact_moment_choi(Haar(n), k)
    per = samples // 10

    def mean(mats):
        return sum(mats) / len(mats)

    rows = []
    for t in t_list:
        batches = [moment_choi(Homeopathy(n, t, Haar(t)), k, per, rng) for _ in range(10)]
        value = trace_distance(mean(batches), ref)
        boots = [
            trace_distance(mean([batches[x] for x in rng.integers(10, size=10)]), ref)
            for _ in range(20)
        ]
        floor = trace_distance(mean(batches[:5]), mean(batches[5:])) / 2
        rows.append((t, value, float(np.std(boots, ddof=1)), floor, per * 10))
    return rows


@pytest.mark.parametrize(
    "n, k, samples",
    [
        (2, 1, 10),  # S = 10 < D = 16, one sample per batch: r x r route
        (3, 1, 50),  # S < D = 64: r x r route
        (3, 1, 200),  # per = 20 < D <= S: dense batches
        (3, 1, 700),  # per = 70 >= D: dense batches
        (1, 2, 10),  # non-scalar Haar reference at k = 2, D = 16
        (2, 2, 100),  # non-scalar reference, S < D = 256
    ],
)
def test_decay_rows_match_the_dense_evaluation(monkeypatch, n, k, samples):
    ts = list(range(1, n + 1))
    ref_rng, rng = np.random.default_rng(113), np.random.default_rng(113)
    expected = dense_decay_reference(n, k, ts, samples, ref_rng)
    calls = []
    dense_distance = moments.trace_distance
    monkeypatch.setattr(
        moments, "trace_distance", lambda *a: calls.append(a) or dense_distance(*a)
    )
    report = decay_experiment(n, k, ts, samples, rng)
    got = [(r.t, r.distance, r.stderr, r.floor, r.samples) for r in report.rows]
    gram_route = k == 1 and samples < 4**n
    # a Gram-route row takes no D x D trace norm, the floor included
    assert len(calls) == len(ts) * (0 if gram_route else 22)
    if gram_route:
        for g, e in zip(got, expected):
            assert (g[0], g[4]) == (e[0], e[4])
            np.testing.assert_allclose(g[1:4], e[1:4], rtol=1e-12, atol=0)
    else:
        assert got == expected
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def dense_split_half_floor(vs, per):
    """The split-half floor as one D x D eigvalsh of the signed sum of the
    rows' outer products: the first five batches weigh +1/5, the last -1/5."""
    w = np.repeat(np.r_[np.full(5, 1 / 5), np.full(5, -1 / 5)] / per, per)
    return trace_distance((vs.T * w) @ vs.conj()) / 2


@pytest.mark.parametrize(
    "per, dim",
    [
        (1, 256),  # one sample per batch, S = 10 << D
        (3, 256),  # S = 30 << D
        (6, 64),  # S = 60, just below D
        (25, 256),  # S = 250, just below D
    ],
)
def test_gram_floor_matches_the_dense_split_half(per, dim):
    rng = np.random.default_rng(1100 + per + dim)
    vs = rng.normal(size=(10 * per, dim)) + 1j * rng.normal(size=(10 * per, dim))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    expected = dense_split_half_floor(vs, per)
    _, _, floor = _distance_from_gram(vs.conj() @ vs.T, 1 / dim, dim, rng)
    assert floor == pytest.approx(expected, rel=1e-12, abs=0)


def test_a_gram_matrix_of_repeated_vectors_raises():
    # every draw is the identity, so all ten Choi vectors are one vector
    # with entries 0 and 1/2, and their Gram matrix is exactly all ones
    spec = FixedList((DenseOperator(4, np.eye(4, dtype=complex)),))
    rng = np.random.default_rng(127)
    gram = _batched_gram(spec, 1, 10, rng)
    assert np.array_equal(gram, np.ones((10, 10)))
    with pytest.raises(InternalConsistencyError, match="not positive definite"):
        _distance_from_gram(gram, 1 / 16, 16, rng)


@pytest.mark.parametrize("n, samples", [(3, 50), (4, 200)])
def test_gram_route_rows_take_no_eigvalsh_larger_than_s(monkeypatch, n, samples):
    sizes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(a.shape) or eigvalsh(a))
    decay_experiment(n, 1, list(range(1, n + 1)), samples, np.random.default_rng(131))
    assert len(sizes) == n * 22
    assert max(max(shape) for shape in sizes) == samples
