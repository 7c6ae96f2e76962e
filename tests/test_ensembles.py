"""Ensemble samplers, config round trips, and moment estimators."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from kdesign.commutant import (
    PermutationOp,
    enumerate_monomials,
    monomial_full_matrix,
    permutation_gram,
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
    from_config,
    moment_choi,
    sample,
    to_config,
)
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
        assert u.dim == 1 << spec.n_qubits
        assert u.is_unitary(1e-12)


def test_enumerate_unitaries():
    group = enumerate_unitaries(CliffordEnumerated(1))
    assert len(group) == 24
    with pytest.raises(ValidationError):
        enumerate_unitaries(Haar(1))


def test_config_round_trip():
    spec = Homeopathy(4, 2, Homeopathy(2, 1, CliffordEnumerated(1)))
    assert from_config(to_config(spec)) == spec

    rng = np.random.default_rng(13)
    fixed = FixedList((haar_unitary(4, rng), haar_unitary(4, rng)))
    back = from_config(to_config(fixed))
    assert isinstance(back, FixedList)
    for a, b in zip(fixed.unitaries, back.unitaries):
        assert np.array_equal(a.matrix, b.matrix)

    with pytest.raises(ValidationError):
        from_config({"variant": "nope"})
    with pytest.raises(ValidationError):
        from_config({})


@pytest.mark.parametrize(
    "cfg",
    [
        {"variant": "haar"},
        {"variant": "haar", "n": "x"},
        {"variant": "clifford_uniform", "n": None},
        {"variant": "homeopathy", "n": 2, "t": "one", "inner": {"variant": "haar", "n": 1}},
        {"variant": "homeopathy", "n": 2, "t": 1},
        {"variant": "homeopathy", "n": 2, "t": 1, "inner": {"variant": "haar"}},
        {"variant": "fixed_list"},
        {"variant": "fixed_list", "unitaries": [[[1.0]]]},
    ],
)
def test_malformed_config_is_validation_error(cfg):
    with pytest.raises(ValidationError):
        from_config(cfg)


# ---------------------------------------------------------------------------
# batching keeps the per-sample stream


@pytest.mark.parametrize(
    "spec",
    [
        CliffordUniform(1),
        CliffordUniform(3),
        Haar(2),
        Homeopathy(3, 1, Haar(1)),
        Homeopathy(2, 2, CliffordUniform(2)),
        Homeopathy(3, 2, Homeopathy(2, 1, CliffordEnumerated(1))),
        Homeopathy(5, 1, Haar(1)),  # 20 samples span two conversion passes
    ],
)
def test_batch_is_bit_identical_to_sequential_samples(spec):
    batched, sequential = np.random.default_rng(61), np.random.default_rng(61)
    us = np.stack(list(_samples(spec, 20, batched)))
    one_by_one = np.stack([sample(spec, sequential).matrix for _ in range(20)])
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
        u = sample(spec, ref).matrix
        v = sample(spec, ref).matrix
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
    fixed = sample(CliffordUniform(2), rng).matrix

    def shifted_potential(nsamp):
        vals = np.empty(nsamp)
        for i in range(nsamp):
            u = fixed @ sample(base, rng).matrix
            v = fixed @ sample(base, rng).matrix
            vals[i] = abs(np.vdot(u, v)) ** 4
        return vals.mean(), vals.std(ddof=1) / np.sqrt(nsamp)

    est, err = frame_potential(base, 2, 3000, rng)
    sest, serr = shifted_potential(3000)
    assert abs(est - sest) <= 4 * np.hypot(err, serr)


def test_moment_choi_fixed_single_unitary_is_pure():
    rng = np.random.default_rng(41)
    u = haar_unitary(4, rng)
    j = moment_choi(FixedList((u,)), 1, 3, rng)
    v = u.matrix.reshape(-1) / 2.0
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
        mats = [PermutationOp(p, d).matrix for p in itertools.permutations(range(k))]
        lam = permutation_gram(k, d)
        sv = np.linalg.svd(lam, compute_uv=False)
        if sv[-1] / sv[0] < 1e-12:
            w = np.linalg.pinv(lam, rcond=1e-12)
        else:
            w = np.linalg.inv(lam)
        norm = d**k
    else:
        mats = [monomial_full_matrix(m, spec.n).matrix for m in enumerate_monomials(k)]
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


def test_adaptive_output_fixed_unitary_is_pure():
    rng = np.random.default_rng(53)
    u = haar_unitary(4, rng)
    vs = [haar_unitary(8, rng).matrix for _ in range(2)]  # one ancilla qubit
    rho = adaptive_output_state(FixedList((u,)), vs)
    psi = query_output_state(u.matrix, vs)
    np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)


def test_adaptive_output_first_moment_exact():
    # single query, identity V: E C|0><0|C^dag = I/2 for the Clifford group
    rho = adaptive_output_state(CliffordEnumerated(1), [np.eye(2, dtype=complex)])
    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_adaptive_output_monte_carlo_close_to_enumerated():
    rng = np.random.default_rng(59)
    vs = [haar_unitary(4, rng).matrix for _ in range(2)]
    exact = adaptive_output_state(CliffordEnumerated(1), vs)
    est = adaptive_output_state(CliffordEnumerated(1), vs, samples=4000, rng=rng)
    assert 0.5 * np.abs(np.linalg.eigvalsh(est - exact)).sum() < 0.08


def test_adaptive_output_argument_errors():
    with pytest.raises(ValidationError):
        adaptive_output_state(Haar(1), [np.eye(2)], samples=10)  # rng missing
    with pytest.raises(ValidationError):
        adaptive_output_state(CliffordEnumerated(1), [])
