"""Ensemble samplers, configs, and moment estimators."""

from __future__ import annotations

import hashlib
import itertools
import warnings
from functools import reduce

import numpy as np
import pytest
from test_commutant import densify

from kdesign.commutant import (
    _clifford_ones,
    permutation_gram,
    permutation_matrix,
    weingarten_table,
)
from kdesign.dense import DenseOperator, haar_unitary, query_output_state
from kdesign.ensembles import (
    CliffordEnumerated,
    CliffordUniform,
    FixedList,
    Haar,
    Homeopathy,
    adaptive_output_state,
    enumerate_unitaries,
    exact_moment_choi,
    frame_potential,
    moment_choi,
    sample,
    to_config,
)
from kdesign import ensembles
from kdesign.ensembles import _checked_choi, _samples
from kdesign.errors import ValidationError


def identity_list(n: int) -> FixedList:
    d = 1 << n
    return FixedList((DenseOperator(d, np.eye(d, dtype=complex)),))


def test_spec_validation():
    with pytest.raises(ValidationError):
        Haar(0)
    with pytest.raises(ValidationError):
        CliffordEnumerated(3)
    with pytest.raises(ValidationError):
        Homeopathy(3, 0, Haar(1))
    with pytest.raises(ValidationError):
        Homeopathy(3, 2, Haar(1))  # inner acts on t qubits
    with pytest.raises(ValidationError):
        FixedList(())
    with pytest.raises(ValidationError):
        FixedList((DenseOperator(2, np.ones((2, 2), dtype=complex)),))


@pytest.mark.parametrize(
    "spec",
    [
        Haar(2),
        CliffordUniform(2),
        CliffordEnumerated(1),
        Homeopathy(3, 1, Haar(1)),
        Homeopathy(2, 2, CliffordUniform(2)),
    ],
)
def test_samples_are_unitary(spec):
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = sample(spec, rng)
        assert DenseOperator(1 << spec.n_qubits, u).is_unitary(1e-12)


def test_enumerate_unitaries():
    group = enumerate_unitaries(CliffordEnumerated(1))
    assert len(group) == 24
    with pytest.raises(ValidationError):
        enumerate_unitaries(Haar(1))


def test_config_round_trip():
    spec = Homeopathy(4, 2, Homeopathy(2, 1, CliffordEnumerated(1)))
    assert to_config(spec) == {
        "variant": "homeopathy",
        "n": 4,
        "t": 2,
        "inner": {
            "variant": "homeopathy",
            "n": 2,
            "t": 1,
            "inner": {"variant": "clifford_enumerated", "n": 1},
        },
    }

    rng = np.random.default_rng(13)
    fixed = FixedList(tuple(DenseOperator(4, haar_unitary(4, rng)) for _ in range(2)))
    # each entry as its [real, imag] pair
    pairs = np.stack([u.matrix for u in fixed.unitaries]).view(float).reshape(2, 4, 4, 2)
    assert to_config(fixed) == {"variant": "fixed_list", "unitaries": pairs.tolist()}


# ---------------------------------------------------------------------------
# batching keeps the per-sample stream


BATCH_CASES = [
    (CliffordUniform(1), 20),
    (CliffordUniform(3), 20),
    (Haar(2), 20),
    (Homeopathy(3, 1, Haar(1)), 20),
    (Homeopathy(2, 2, CliffordUniform(2)), 20),
    (Homeopathy(3, 2, Homeopathy(2, 1, CliffordEnumerated(1))), 20),
    (Homeopathy(5, 1, Haar(1)), 20),  # 20 samples span two conversion passes
    (CliffordUniform(2), 1030),  # two passes of 1024
    (CliffordUniform(7), 3),  # one sample per pass
]


@pytest.mark.parametrize(
    "spec, size", BATCH_CASES, ids=[f"spec{i}" for i in range(len(BATCH_CASES))]
)
def test_batch_is_bit_identical_to_sequential_samples(spec, size):
    batched, sequential = np.random.default_rng(61), np.random.default_rng(61)
    us = np.stack(list(_samples(spec, size, batched)))
    one_by_one = np.stack([sample(spec, sequential) for _ in range(size)])
    assert us.tobytes() == one_by_one.tobytes()
    assert batched.bit_generator.state == sequential.bit_generator.state


def test_frame_potential_passes_keep_the_stream():
    # 1200 draws at d = 32 span 75 conversion passes of 16
    spec = CliffordUniform(5)
    rng = np.random.default_rng(67)
    est, err = frame_potential(spec, 1, 600, rng)
    ref = np.random.default_rng(67)
    vals = []
    for _ in range(600):
        u = sample(spec, ref)
        v = sample(spec, ref)
        vals.append(abs(np.vdot(u, v)) ** 2)
    assert est == np.mean(vals)
    assert err == np.std(vals, ddof=1) / np.sqrt(600)
    assert rng.bit_generator.state == ref.bit_generator.state


PINNED_CLIFFORD_FP, PINNED_CLIFFORD_FP_ERR = 1.515, 0.19178839627235944
PINNED_HOMEOPATHY_FP = 1.5645183908406606


def test_seeded_frame_potential_is_pinned():
    # recorded from the one-object-per-sample sampler; any change in how
    # sampling consumes the stream moves these values
    est, err = frame_potential(CliffordUniform(2), 2, 200, np.random.default_rng(0))
    assert est == pytest.approx(PINNED_CLIFFORD_FP, rel=1e-12)
    assert err == pytest.approx(PINNED_CLIFFORD_FP_ERR, rel=1e-12)
    est, _ = frame_potential(Homeopathy(3, 1, Haar(1)), 2, 50, np.random.default_rng(0))
    assert est == pytest.approx(PINNED_HOMEOPATHY_FP, rel=1e-12)


def test_frame_potential_haar_k2():
    rng = np.random.default_rng(17)
    est, err = frame_potential(Haar(2), 2, 4000, rng)
    assert abs(est - 2.0) <= 4 * err


def test_frame_potential_clifford_k2():
    rng = np.random.default_rng(19)
    est, err = frame_potential(CliffordUniform(2), 2, 4000, rng)
    assert abs(est - 2.0) <= 4 * err


def test_frame_potential_haar_is_minimal():
    rng = np.random.default_rng(23)
    ch, ce = frame_potential(CliffordUniform(1), 4, 3000, rng)
    hh, he = frame_potential(Haar(1), 4, 3000, rng)
    assert ch - hh >= -4 * np.hypot(ce, he)


def test_homeopathy_full_t_matches_haar():
    rng = np.random.default_rng(29)
    spec = Homeopathy(2, 2, Haar(2))
    est, err = frame_potential(spec, 2, 4000, rng)
    assert abs(est - 2.0) <= 4 * err


def test_homeopathy_identity_inner_is_clifford():
    rng = np.random.default_rng(31)
    spec = Homeopathy(2, 1, identity_list(1))
    est, err = frame_potential(spec, 2, 4000, rng)
    assert abs(est - 2.0) <= 4 * err


def test_left_invariance_of_frame_potential():
    # pre-multiplying by a fixed Clifford leaves the estimate unchanged
    rng = np.random.default_rng(37)
    base = Homeopathy(2, 1, Haar(1))
    fixed = sample(CliffordUniform(2), rng)

    def shifted_potential(nsamp):
        vals = np.empty(nsamp)
        for i in range(nsamp):
            u = fixed @ sample(base, rng)
            v = fixed @ sample(base, rng)
            vals[i] = abs(np.vdot(u, v)) ** 4
        return vals.mean(), vals.std(ddof=1) / np.sqrt(nsamp)

    est, err = frame_potential(base, 2, 3000, rng)
    sest, serr = shifted_potential(3000)
    assert abs(est - sest) <= 4 * np.hypot(err, serr)


def test_moment_choi_fixed_single_unitary_is_pure():
    rng = np.random.default_rng(41)
    u = haar_unitary(4, rng)
    j = moment_choi(FixedList((DenseOperator(4, u),)), 1, 3, rng)
    v = u.reshape(-1) / 2.0
    np.testing.assert_allclose(j, np.outer(v, v.conj()), atol=1e-12)
    assert np.trace(j).real == pytest.approx(1.0, abs=1e-12)


def test_exact_choi_clifford_enumerated_matches_haar_k_le_3():
    for k in (1, 2, 3):
        jc = exact_moment_choi(CliffordEnumerated(1), k)
        jh = exact_moment_choi(Haar(1), k)
        assert np.max(np.abs(jc - jh)) < 1e-8
    jc4 = exact_moment_choi(CliffordEnumerated(1), 4)
    jh4 = exact_moment_choi(Haar(1), 4)
    assert np.max(np.abs(jc4 - jh4)) > 1e-4


def test_exact_choi_weingarten_matches_enumeration():
    # monomial expansion against the brute-force group average
    for k in (2, 3):
        ja = exact_moment_choi(CliffordUniform(1), k)
        jb = exact_moment_choi(CliffordEnumerated(1), k)
        np.testing.assert_allclose(ja, jb, atol=1e-10)


def reference_exact_choi(spec, k: int) -> np.ndarray:
    """Haar/uniform-Clifford Choi state as the |basis|^2 Kronecker sum."""
    if isinstance(spec, Haar):
        d = 1 << spec.n
        mats = [permutation_matrix(p, d) for p in itertools.permutations(range(k))]
        lam = permutation_gram(k, d)
        sv = np.linalg.svd(lam, compute_uv=False)
        if sv[-1] / sv[0] < 1e-12:
            w = np.linalg.pinv(lam, rcond=1e-12)
        else:
            w = np.linalg.inv(lam)
        norm = d**k
    else:
        mats = densify(_clifford_ones(k, spec.n))
        w = weingarten_table(k, spec.n).weingarten
        norm = (1 << spec.n) ** (2 * k)
    dim = mats[0].shape[0] ** 2
    j = np.zeros((dim, dim), dtype=complex)
    for a, ma in enumerate(mats):
        for b, mb in enumerate(mats):
            if w[a, b] != 0.0:
                j += w[a, b] * np.kron(ma, mb.conj())
    j = j / norm
    return 0.5 * (j + j.conj().T)


def test_checked_choi_symmetrizes_in_place_like_the_two_copy_formula():
    rng = np.random.default_rng(12)
    j = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    j[np.diag_indices(16)] = 1 / 16 + 1j * rng.normal(size=16)
    want = 0.5 * (j + j.conj().T)
    work = j.copy()
    got = _checked_choi(work)
    assert got is work
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (1, 2), (2, 2)])
def test_exact_choi_haar_bit_identical_to_kron_sum(n, k):
    got = exact_moment_choi(Haar(n), k)
    want = reference_exact_choi(Haar(n), k)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# sha256 prefixes of exact_moment_choi(Haar(n), k).tobytes().  With k <= 2
# there are at most two permutations, so every entry comes from sums of at
# most two terms, each a product with a 0/1 factor: no summation order or
# BLAS build can change these bits.
HAAR_CHOI_SHA256 = {
    (1, 1): "56af5da881578377",
    (2, 1): "1bee8bceb7cfb591",
    (3, 1): "8dce55d976c70938",
    (4, 1): "0e8b83de6a49a88e",
    (5, 1): "c86720f1a4b4aa4e",
    (1, 2): "1e496455916aaa62",
    (2, 2): "83eb2674fabb1025",
}


@pytest.mark.parametrize("n,k", sorted(HAAR_CHOI_SHA256))
def test_exact_choi_haar_bits_are_pinned(n, k):
    got = exact_moment_choi(Haar(n), k)
    assert got.dtype == np.complex128
    assert hashlib.sha256(got.tobytes()).hexdigest()[:16] == HAAR_CHOI_SHA256[n, k]


@pytest.mark.parametrize(
    "spec,k",
    [(CliffordUniform(1), k) for k in (1, 2, 3, 4)]
    + [(CliffordUniform(2), 1), (CliffordUniform(2), 2), (Haar(1), 3), (Haar(1), 4)],
)
def test_exact_choi_matches_kron_sum(spec, k):
    got = exact_moment_choi(spec, k)
    np.testing.assert_allclose(got, reference_exact_choi(spec, k), rtol=0, atol=1e-15)


def test_moment_choi_haar_matches_exact():
    rng = np.random.default_rng(43)
    k, n = 2, 1
    j = moment_choi(Haar(n), k, 4000, rng)
    exact = exact_moment_choi(Haar(n), k)
    dist = 0.5 * np.abs(np.linalg.eigvalsh(j - exact)).sum()
    assert dist < 0.1


def test_moment_choi_dimension_guard():
    rng = np.random.default_rng(47)
    with pytest.raises(ValidationError):
        moment_choi(Haar(4), 2, 10, rng)
    with pytest.raises(ValidationError):
        exact_moment_choi(Homeopathy(2, 1, Haar(1)), 2)


@pytest.mark.parametrize("batch", [1, 2, 3])
def test_outer_average_is_the_same_across_chunks(monkeypatch, batch):
    # 7 samples in chunks of `batch` vectors against the default single chunk
    spec = Homeopathy(2, 1, Haar(1))
    rng = np.random.default_rng(71)
    queries = [haar_unitary(8, rng) for _ in range(2)]  # one ancilla qubit

    def both():
        return (
            moment_choi(spec, 1, 7, np.random.default_rng(5)),
            adaptive_output_state(spec, queries, 7, np.random.default_rng(6)),
        )

    whole = both()
    monkeypatch.setattr(ensembles, "CHUNK_ENTRIES", batch * 16)
    choi = moment_choi(spec, 1, 7, np.random.default_rng(5))
    monkeypatch.setattr(ensembles, "CHUNK_ENTRIES", batch * 8)
    out = adaptive_output_state(spec, queries, 7, np.random.default_rng(6))
    np.testing.assert_allclose(choi, whole[0], rtol=0, atol=1e-14)
    np.testing.assert_allclose(out, whole[1], rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "spec",
    [CliffordUniform(40), Homeopathy(40, 2, Haar(2)), CliffordUniform(13), Haar(20000)],
    ids=str,
)
def test_too_wide_spec_is_rejected_before_any_draw(spec):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValidationError, match="dense limit"):
        frame_potential(spec, 2, 10, rng)
    with pytest.raises(ValidationError, match="dense limit"):
        sample(spec, rng)
    assert rng.bit_generator.state == state


def test_frame_potential_rejects_a_k_that_overflows_float64():
    # the standard error squares values up to d^2k: d^4k must stay below 2^1024
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    for spec, k in ((Haar(1), 256), (CliffordUniform(2), 128), (Haar(1), 1000)):
        with pytest.raises(ValidationError, match="overflows float64"):
            frame_potential(spec, k, 2, rng)
    assert rng.bit_generator.state == state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, err = frame_potential(Haar(1), 255, 2, rng)
    assert np.isfinite(est) and np.isfinite(err)


def test_exact_haar_choi_past_the_haar_twirl_cap():
    # k = 5 > MAX_HAAR_COPIES: the cap is haar_twirl's, the Haar basis has none
    j = exact_moment_choi(Haar(1), 5)
    u = haar_unitary(2, np.random.default_rng(73))
    v = np.kron(reduce(np.kron, [u] * 5), reduce(np.kron, [u.conj()] * 5))
    np.testing.assert_allclose(v @ j @ v.conj().T, j, atol=1e-12)


def test_adaptive_output_fixed_unitary_is_pure():
    rng = np.random.default_rng(53)
    u = haar_unitary(4, rng)
    vs = [haar_unitary(8, rng) for _ in range(2)]  # one ancilla qubit
    rho = adaptive_output_state(FixedList((DenseOperator(4, u),)), vs)
    psi = query_output_state(u, vs)
    np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)


def test_adaptive_output_first_moment_exact():
    # single query, identity V: E C|0><0|C^dag = I/2 for the Clifford group
    rho = adaptive_output_state(CliffordEnumerated(1), [np.eye(2, dtype=complex)])
    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_adaptive_output_monte_carlo_close_to_enumerated():
    rng = np.random.default_rng(59)
    vs = [haar_unitary(4, rng) for _ in range(2)]
    exact = adaptive_output_state(CliffordEnumerated(1), vs)
    est = adaptive_output_state(CliffordEnumerated(1), vs, samples=4000, rng=rng)
    assert 0.5 * np.abs(np.linalg.eigvalsh(est - exact)).sum() < 0.08


def test_adaptive_output_argument_errors():
    with pytest.raises(ValidationError):
        adaptive_output_state(Haar(1), [np.eye(2)], samples=10)  # rng missing
    with pytest.raises(ValidationError):
        adaptive_output_state(CliffordEnumerated(1), [])
