"""Compressible-state tooling and the Bell-difference distinguisher.

A t-compressible state is a random Clifford applied to (t-qubit Haar factor)
x |0...0>; its stabilizer group has size >= 2^(n-t).  compress() rebuilds a
Clifford that maps such a state back to product form, pinning the last n-t
wires to |0>.  distinguish() runs the Bell-difference attack: l phaseless
Pauli samples, S = span(X) with its symplectic self-orthogonal part, then
the squared expectation of a uniformly random nontrivial element of S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense import (
    StateVector,
    _check_table_size,
    bell_difference_table,
    draw_from_table,
    expectation,
    flat_index_to_pauli,
    haar_state,
)
from .errors import InternalConsistencyError, ValidationError
from .f2 import (
    rref_basis,
    solve,
    span_intersect,
    swap_halves,
    symplectic_complement,
    symplectic_product,
)
from .pauli import (
    MAX_SCAN_QUBITS,
    CliffordOp,
    PauliString,
    StabilizerGroup,
    clifford_conjugate,
    clifford_inverse,
    clifford_to_matrix,
    random_clifford,
)


def make_compressible(n: int, t: int, rng: np.random.Generator) -> StateVector:
    """Random Clifford applied to (Haar factor on the first t qubits) x |0>."""
    CompressibleSource(n, t)  # raises outside the one source range
    if t == 0:
        low = np.array([1.0 + 0.0j])
    else:
        low = haar_state(t, rng).amplitudes
    full = np.zeros(1 << n, dtype=complex)
    full[: 1 << t] = low
    c = clifford_to_matrix(random_clifford(n, rng))
    return StateVector(n, c @ full)


def _conjugate_partners(gens: list[int], n: int) -> list[int]:
    """h_i with <g_j, h_i> = delta_ij and <h_j, h_i> = 0 for j < i."""
    partners: list[int] = []
    for i in range(len(gens)):
        rows = [swap_halves(g, n) for g in gens + partners]
        rhs = [1 if j == i else 0 for j in range(len(gens))] + [0] * len(partners)
        partners.append(solve(rows, rhs, 2 * n))
    return partners


def _sweep(v: int, a: int, b: int, n: int) -> int:
    """Remove the (a, b) hyperbolic component: <a,b> = 1 assumed."""
    if symplectic_product(b, v, n):
        v ^= a
    if symplectic_product(a, v, n):
        v ^= b
    return v


def _complete_symplectic_pairs(taken: list[tuple[int, int]], n: int) -> list[tuple[int, int]]:
    """Hyperbolic pairs spanning the symplectic complement of the taken pairs."""
    pool = [1 << j for j in range(2 * n)]
    for a, b in taken:
        pool = [_sweep(v, a, b, n) for v in pool]
    pairs = []
    while True:
        basis = rref_basis([v for v in pool if v], 2 * n)
        if not basis:
            break
        a = basis[0]
        b = next((v for v in basis[1:] if symplectic_product(a, v, n)), None)
        if b is None:
            raise InternalConsistencyError("degenerate leftover symplectic form")
        pool = [_sweep(v, a, b, n) for v in basis if v != a and v != b]
        pairs.append((a, b))
    return pairs


def compress(psi: StateVector, group: StabilizerGroup) -> CliffordOp:
    """Clifford sending psi to (state on first t qubits) x |0>^(n-t).

    The group's signed generators become +Z on the last n-t wires.
    """
    n = psi.n
    gens = list(group.generators)
    if group.n != n:
        raise ValidationError("group register size must match the state")
    for g in gens:
        if abs(expectation(psi, g) - 1.0) > 1e-8:
            raise ValidationError("generators must stabilize psi with +1 eigenvalue")
    m = len(gens)
    if m == 0:
        return CliffordOp.identity(n)
    gvecs = [g.symplectic_vec for g in gens]
    partners = _conjugate_partners(gvecs, n)
    free_pairs = _complete_symplectic_pairs(list(zip(gvecs, partners)), n)
    if len(free_pairs) != n - m:
        raise InternalConsistencyError("symplectic completion has wrong rank")

    # D maps X_q, Z_q to the free pairs for q < n - m and to (partner_i, g_i)
    # on wire q = n - m + i; the compression is its inverse.
    xs = [a for a, _ in free_pairs] + partners
    zs = [b for _, b in free_pairs] + gvecs
    signs = sum((g.phase >> 1) << (2 * n - m + i) for i, g in enumerate(gens))
    c = clifford_inverse(CliffordOp.from_tableau(n, (*xs, *zs, signs)))
    for i, g in enumerate(gens):
        if clifford_conjugate(c, g) != PauliString(n, 0, 1 << (n - m + i)):
            raise InternalConsistencyError("compression does not map generators to +Z")
    return c


# ---------------------------------------------------------------------------
# the distinguisher


@dataclass(frozen=True)
class CompressibleSource:
    """Emits fresh t-compressible n-qubit states; t = n gives Haar states."""

    n: int
    t: int

    def __post_init__(self) -> None:
        if not (0 <= self.t <= self.n <= MAX_SCAN_QUBITS and self.n >= 1):
            raise ValidationError(
                f"need 0 <= t <= n and 1 <= n <= {MAX_SCAN_QUBITS}, got n={self.n}, t={self.t}"
            )

    def draw(self, rng: np.random.Generator) -> StateVector:
        return make_compressible(self.n, self.t, rng)


@dataclass(frozen=True)
class AttackReport:
    n: int
    t: int
    l: int
    epsilon_t: float
    thresholded: bool
    statistics: tuple[float, ...]

    def __post_init__(self) -> None:
        for s in self.statistics:
            if not 0.0 <= s <= 1.0 + 1e-12:
                raise InternalConsistencyError(f"statistic {s} outside [0, 1]")

    @property
    def copies(self) -> int:
        return 4 * self.l + 2

    @property
    def mean(self) -> float:
        return float(np.mean(self.statistics))

    @property
    def stderr(self) -> float:
        if len(self.statistics) < 2:
            return 0.0
        return float(np.std(self.statistics, ddof=1) / math.sqrt(len(self.statistics)))


def _nontrivial_subspace(vecs: list[int], n: int) -> list[int]:
    """Basis of S = span(X) with its symplectically self-orthogonal part."""
    basis = rref_basis([v for v in vecs if v], 2 * n)
    if not basis:
        return []
    return span_intersect(basis, symplectic_complement(basis, n), 2 * n)


def sample_attack_statistic(
    psi: StateVector,
    l: int,
    epsilon_t: float,
    rng: np.random.Generator,
    thresholded: bool = False,
) -> float:
    """One trial: l Bell-difference samples, then tr^2 of a random S element."""
    table = bell_difference_table(psi)
    flats = draw_from_table(table, rng, l)
    vecs = [flat_index_to_pauli(int(f), psi.n).symplectic_vec for f in flats]
    s_basis = _nontrivial_subspace(vecs, psi.n)
    if not s_basis:
        return 0.0
    pick = int(rng.integers(1, 1 << len(s_basis)))
    acc = 0
    for j, b in enumerate(s_basis):
        if (pick >> j) & 1:
            acc ^= b
    p = PauliString.from_symplectic_vec(acc, psi.n)
    stat = expectation(psi, p) ** 2
    if thresholded:
        return 1.0 if stat >= epsilon_t else 0.0
    return min(stat, 1.0)


def check_distinguish_args(n: int, t: int) -> None:
    """ValidationError unless distinguish accepts a t-compressible n-qubit
    source: its Bell-difference tables hold 4^n entries."""
    _check_table_size(n)
    CompressibleSource(n, t)


def distinguish(
    source: CompressibleSource,
    l: int,
    epsilon_t: float,
    trials: int,
    rng: np.random.Generator,
    thresholded: bool = False,
) -> AttackReport:
    """Run the Bell-difference attack for `trials` fresh states."""
    _check_table_size(source.n)
    if l < 1:
        raise ValidationError("need l >= 1 samples per trial")
    if not 0.0 < epsilon_t <= 1.0:
        raise ValidationError(f"need 0 < epsilon_t <= 1, got {epsilon_t}")
    if trials < 1:
        raise ValidationError("need trials >= 1")
    stats = tuple(
        sample_attack_statistic(source.draw(rng), l, epsilon_t, rng, thresholded)
        for _ in range(trials)
    )
    return AttackReport(source.n, source.t, l, epsilon_t, thresholded, stats)


@dataclass(frozen=True)
class AdvantageRow:
    t: int
    l: int
    copies: int
    source_mean: float
    haar_mean: float
    advantage: float
    stderr: float

    @classmethod
    def from_reports(cls, src: AttackReport, ref: AttackReport) -> "AdvantageRow":
        """Source minus reference mean, with the two stderrs in quadrature."""
        return cls(
            src.t,
            src.l,
            src.copies,
            src.mean,
            ref.mean,
            src.mean - ref.mean,
            float(np.hypot(src.stderr, ref.stderr)),
        )


def distinguish_vs_haar(source: CompressibleSource, *args, **kwargs) -> tuple[AttackReport, ...]:
    """distinguish(source, ...), then distinguish of Haar states (the t = n
    source) with the same arguments: both arms from one rng, in that order."""
    haar = CompressibleSource(source.n, source.n)
    return distinguish(source, *args, **kwargs), distinguish(haar, *args, **kwargs)

