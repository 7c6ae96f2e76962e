"""Choi-distance estimation, floors, and the decay experiment."""

from __future__ import annotations

import numpy as np
import pytest

from kdesign import cli
from kdesign.dense import DenseOperator, haar_unitary
from kdesign.ensembles import (
    CliffordEnumerated,
    CliffordUniform,
    FixedList,
    Haar,
    Homeopathy,
    exact_moment_choi,
)
from kdesign.errors import ValidationError
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
