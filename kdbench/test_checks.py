"""Each output check accepts the library's right answer and rejects a wrong one,
and the tracer attributes nested calls to the right functions.

    python3 -m pytest kdbench/test_checks.py
"""

import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
from kdesign import attack, commutant, ensembles, pauli  # noqa: E402
from kdesign.moments import DecayRow  # noqa: E402


@pytest.fixture(scope="module")
def group2():
    return checks.clifford_group(2)


def test_pauli_convention_matches_the_library():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, z, ph = (int(v) for v in rng.integers(0, 8, size=3))
        p = pauli.PauliString(3, x, z, ph % 4)
        assert np.array_equal(checks.pauli_dense(3, x, z, ph % 4), pauli.pauli_matrix(p))


def test_clifford_group_orders_and_frame_potentials(group2):
    assert len(checks.clifford_group(1)) == 24
    assert len(group2) == 11520
    moments = checks.group_trace_moments(group2, 4)
    for k, want in checks.CLIFFORD_FRAME_POTENTIAL_N2.items():
        assert moments[k] == pytest.approx(want, abs=1e-9)
    assert [checks.haar_trace_moment(k, 4) for k in (2, 3, 4)] == [2.0, 6.0, 24.0]


def test_frame_potential_check_rejects_a_pauli_one_design():
    rng = np.random.default_rng(1)
    paulis = ensembles.FixedList(
        tuple(ensembles.DenseOperator(2, pauli.pauli_matrix(pauli.PauliString.from_label(c)))
              for c in "IXYZ")
    )
    exact, second = checks.haar_trace_moment(2, 2), checks.haar_trace_moment(4, 2)
    good = ensembles.frame_potential(ensembles.Haar(1), 2, 1000, rng)
    bad = ensembles.frame_potential(paulis, 2, 1000, rng)  # F^(2) = 4, not 2
    assert checks.check_frame_potential(*good, exact, second, 1000) is None
    assert checks.check_frame_potential(*bad, exact, second, 1000) is not None


def test_decay_row_check_rejects_a_row_above_its_floor():
    assert checks.check_decay_row(DecayRow(1, 0.42, 0.04, 0.38, 1000)) is None
    assert checks.check_decay_row(DecayRow(1, 0.90, 0.01, 0.38, 1000)) is not None
    assert checks.check_maximally_mixed(ensembles.exact_moment_choi(ensembles.Haar(2), 1)) is None
    assert checks.check_maximally_mixed(
        ensembles.exact_moment_choi(ensembles.Haar(1), 2)
    ) is not None


def _compressed(n, t, seed):
    rng = np.random.default_rng(seed)
    psi = attack.make_compressible(n, t, rng)
    group = pauli.stabilizer_group_of(psi, t)
    return psi.amplitudes, group, attack.compress(psi, group)


def _images(c, fn):
    return SimpleNamespace(
        x_images=tuple(fn(p) for p in c.x_images), z_images=tuple(fn(p) for p in c.z_images)
    )


def test_compression_check_rejects_flipped_sign_or_qubits():
    n, t = 4, 1
    amps, group, c = _compressed(n, t, 7)
    assert checks.check_compression(c, amps, t) is None
    # X on the last qubit after C: images with Z or Y there change sign
    flip = _images(c, lambda p: SimpleNamespace(
        x=p.x, z=p.z, phase=(p.phase + 2 * ((p.z >> (n - 1)) & 1)) % 4))
    assert checks.check_compression(flip, amps, t) is not None

    # SWAP of the first and last qubit after C
    def swap(bits):
        lo, hi = bits & 1, (bits >> (n - 1)) & 1
        return bits & ~(1 | (1 << (n - 1))) | (lo << (n - 1)) | hi
    swapped = _images(c, lambda p: SimpleNamespace(x=swap(p.x), z=swap(p.z), phase=p.phase))
    assert checks.check_compression(swapped, amps, t) is not None


def test_stabilizer_and_statistic_checks_reject_wrong_outputs():
    n, t = 4, 1
    amps, group, _ = _compressed(n, t, 8)
    assert checks.check_stabilizer_group(group, amps, n, t) is None
    short = SimpleNamespace(generators=group.generators[:-1])
    assert checks.check_stabilizer_group(short, amps, n, t) is not None
    negated = SimpleNamespace(generators=(group.generators[0].negate(),) + group.generators[1:])
    assert checks.check_stabilizer_group(negated, amps, n, t) is not None
    assert checks.check_attack_statistic(1.0, 0) is None
    assert checks.check_attack_statistic(0.5, 0) is not None
    assert checks.check_attack_statistic(0.5, 2) is None
    assert checks.check_attack_statistic(1.5, 2) is not None


def test_table_checks_reject_a_wrong_gram_or_rank():
    commutant.weingarten_table.cache_clear()
    t22 = commutant.weingarten_table(2, 2)
    t42 = commutant.weingarten_table(4, 2)
    assert checks.check_weingarten_table(t22, 2, 2) is None
    assert checks.check_weingarten_table(t42, 4, 2) is None
    assert checks.check_weingarten_table(t42, 4, 3) is not None  # rank 29, want 30
    g = np.array(t22.gram)
    g[0, 1] = g[1, 0] = g[0, 1] * 1.01
    bad = SimpleNamespace(monomials=t22.monomials, gram=g, weingarten=t22.weingarten)
    assert checks.check_weingarten_table(bad, 2, 2) is not None
    assert checks.monomial_count(5) == 270
    assert checks.check_weingarten_table(t22, 3, 2) is not None


def test_twirl_check_needs_agreement_up_to_k_3_only():
    rng = np.random.default_rng(3)
    o = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    cliff = commutant.clifford_twirl(o, 4, 2).matrix
    haar = commutant.haar_twirl(o, 4, 4).matrix
    assert checks.check_twirls(cliff, haar, 4) is None
    assert checks.check_twirls(cliff, haar, 3) is not None
    assert checks.check_twirls(haar, haar, 4) is not None


def test_moment_choi_check_rejects_the_haar_state_at_k_4():
    group1 = checks.clifford_group(1)
    ref = checks.group_average_choi(group1, 4)
    clifford = ensembles.exact_moment_choi(ensembles.CliffordUniform(1), 4)
    haar = ensembles.exact_moment_choi(ensembles.Haar(1), 4)
    assert checks.check_moment_choi(clifford, ref) is None
    assert checks.check_moment_choi(haar, ref) is not None


def test_tracer_counts_nested_calls_and_restores_the_library():
    from run import load_library
    from spans import Tracer

    mods = load_library()
    before = ensembles.haar_unitary
    tracer = Tracer(mods)
    tracer.install()
    try:
        ensembles.frame_potential(ensembles.Haar(1), 2, 10, np.random.default_rng(0))
    finally:
        tracer.uninstall()
    assert ensembles.haar_unitary is before
    m = tracer.layer_metrics()
    assert m["ensembles.frame_potential.calls"][0] == 1
    assert m["ensembles.sample.calls"][0] == 20
    # haar_unitary is reached through the name ensembles imported from dense
    assert m["dense.haar_unitary.calls"][0] == 20
    self_total = sum(v for k, (v, _) in m.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(tracer.covered_s(), rel=1e-9)
    assert 0 < m["ensembles.sample.self_s"][0] < tracer.covered_s()
