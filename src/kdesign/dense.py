"""Dense statevector simulation for small registers.

This is the numeric oracle layer: exact Haar sampling, Pauli expectation
tables, Bell-basis measurement distributions, and the query-circuit evolution
used by the adaptive experiments.  Everything is little-endian: qubit j is
bit j of a basis index, and "the first m qubits" are the low m bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, ValidationError
from .pauli import (
    PauliString,
    _fwht,
    _pauli_table,
    _qubit_count,
    apply_pauli,
    pauli_expectations_all,
)

MAX_STATE_QUBITS = 12
MAX_DENSE_DIM = 1 << MAX_STATE_QUBITS
MAX_TABLE_QUBITS = 6  # 4^n Pauli tables


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state on n qubits."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        d = 1 << self.n
        if d > MAX_DENSE_DIM:
            raise ValidationError(f"n={self.n} exceeds the dense limit of {MAX_STATE_QUBITS} qubits")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (d,):
            raise ValidationError(f"expected {d} amplitudes, got shape {amps.shape}")
        if abs(np.linalg.norm(amps) - 1.0) > 1e-10:
            raise ValidationError("state is not normalized")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, n: int, index: int = 0) -> "StateVector":
        amps = np.zeros(1 << n, dtype=complex)
        amps[index] = 1.0
        return cls(n, amps)


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Explicit complex matrix with validated-on-demand structure flags."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.dim > MAX_DENSE_DIM:
            raise ValidationError(f"dimension {self.dim} exceeds the dense limit {MAX_DENSE_DIM}")
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValidationError(f"expected a {self.dim}x{self.dim} matrix, got {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValidationError("matrix has non-finite entries")
        object.__setattr__(self, "matrix", m)

    def is_unitary(self, tol: float = 1e-12) -> bool:
        g = self.matrix.conj().T @ self.matrix
        return bool(np.max(np.abs(g - np.eye(self.dim))) <= tol)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol)


def _amps(psi) -> np.ndarray:
    return np.asarray(getattr(psi, "amplitudes", psi), dtype=complex)


def haar_state(n: int, rng: np.random.Generator) -> StateVector:
    """Exactly Haar-distributed pure state (normalized complex Gaussian)."""
    if n < 1 or (1 << n) > MAX_DENSE_DIM:
        raise ValidationError(f"need 1 <= n <= {MAX_STATE_QUBITS}, got {n}")
    d = 1 << n
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return StateVector(n, v / np.linalg.norm(v))


def haar_unitary(d: int, rng: np.random.Generator) -> DenseOperator:
    """Exactly Haar-distributed unitary: QR of a Ginibre matrix, phases fixed.

    The diagonal of R is rotated onto the positive axis, which removes the
    QR gauge freedom and makes the distribution exactly invariant.
    """
    if d < 1 or d > MAX_DENSE_DIM:
        raise ValidationError(f"need 1 <= d <= {MAX_DENSE_DIM}, got {d}")
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return DenseOperator(d, q * ph)


def expectation(psi, p: PauliString) -> float:
    """<psi|P|psi> for a Hermitian (sign +/-1) Pauli."""
    amps = _amps(psi)
    if not p.is_hermitian():
        raise ValidationError("expectation is defined here for Hermitian Paulis only")
    val = np.vdot(amps, apply_pauli(p, amps))
    if abs(val.imag) > 1e-9:
        raise InternalConsistencyError("Hermitian expectation came out complex")
    return float(val.real)


# ---------------------------------------------------------------------------
# Pauli-basis distributions over 4^n strings
#
# Tables are (2^n, 2^n) real arrays indexed [a, b] for the Pauli sigma(a, b);
# the flat C-order index is a * 2^n + b, and XOR acts componentwise on it.


def _check_table_size(n: int) -> None:
    if n > MAX_TABLE_QUBITS:
        raise ValidationError(f"4^n tables limited to n <= {MAX_TABLE_QUBITS}, got n={n}")


def pauli_distribution(psi) -> np.ndarray:
    """Characteristic distribution: table of tr^2(P psi)/d over all P."""
    amps = _amps(psi)
    n = _qubit_count(amps)
    _check_table_size(n)
    exps = pauli_expectations_all(amps, n)
    table = exps**2 / (1 << n)
    total = float(table.sum())
    if abs(total - 1.0) > 1e-9:
        raise InternalConsistencyError(f"pure-state Pauli distribution sums to {total}")
    return table


def bell_table(psi) -> np.ndarray:
    """Bell-measurement outcome distribution on two copies.

    Entry [a, b] is |psi^T sigma(a,b) psi|^2 / d, the probability of Bell
    outcome (a, b) when psi x psi is measured pairwise in the Bell basis.
    """
    amps = _amps(psi)
    n = _qubit_count(amps)
    _check_table_size(n)
    # no conjugate: transpose inner product
    out = np.abs(_pauli_table(amps, amps)) ** 2 / (1 << n)
    total = float(out.sum())
    if abs(total - 1.0) > 1e-9:
        raise InternalConsistencyError(f"Bell table sums to {total}")
    return out


def xor_convolve(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(p * q)[c] = sum_u p[u] q[u ^ c] over the flat bit labels."""
    if p.shape != q.shape:
        raise ValidationError("tables must have identical shapes")
    flat_p = p.reshape(-1)
    flat_q = q.reshape(-1)
    m = len(flat_p)
    if m & (m - 1):
        raise ValidationError("table size must be a power of two")
    conv = _fwht(_fwht(flat_p) * _fwht(flat_q)) / m
    return conv.reshape(p.shape)


def bell_difference_table(psi) -> np.ndarray:
    """Distribution of the product of two independent Bell outcomes.

    Computed as the XOR self-convolution of the characteristic distribution,
    which equals the self-convolution of the Bell table.
    """
    p = pauli_distribution(psi)
    return np.clip(xor_convolve(p, p), 0.0, None)


def draw_from_table(table: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """Flat indices sampled from a probability table (any power-of-two size)."""
    flat = np.clip(table.reshape(-1).astype(float), 0.0, None)
    flat /= flat.sum()
    return rng.choice(len(flat), size=size, p=flat)


def flat_index_to_pauli(f: int, n: int) -> PauliString:
    """Decode a flat table index a * 2^n + b into the phaseless Pauli sigma(a,b)."""
    return PauliString(n, (f >> n) & ((1 << n) - 1), f & ((1 << n) - 1), 0)


def bell_difference_sample(
    psi,
    rng: np.random.Generator,
    path: str = "table",
    table: np.ndarray | None = None,
) -> PauliString:
    """One phaseless Pauli distributed as the Bell difference distribution.

    path "measure" simulates the operational procedure: two independent
    Bell-basis measurements on psi x psi, outcomes multiplied.  path "table"
    draws directly from the XOR self-convolution of the characteristic
    distribution; the two agree in distribution.  A precomputed table (the
    Bell table for "measure", the difference table for "table") skips the
    per-call transform.
    """
    amps = _amps(psi)
    n = _qubit_count(amps)
    _check_table_size(n)
    if path == "table":
        t = bell_difference_table(amps) if table is None else table
        f = int(draw_from_table(t, rng, 1)[0])
        return flat_index_to_pauli(f, n)
    if path == "measure":
        t = bell_table(amps) if table is None else table
        f1, f2 = (int(v) for v in draw_from_table(t, rng, 2))
        return flat_index_to_pauli(f1 ^ f2, n)
    raise ValidationError(f"unknown sampling path {path!r}")


# ---------------------------------------------------------------------------
# query circuits


def apply_on_low_qubits(u: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Apply a d_u-dimensional unitary to the low log2(d_u) qubits of a state."""
    d_u = u.shape[0]
    d = len(state)
    if d % d_u:
        raise ValidationError("operator dimension does not divide the state dimension")
    return (state.reshape(d // d_u, d_u) @ u.T).reshape(-1)


def query_output_state(u: np.ndarray, vs: list[np.ndarray]) -> np.ndarray:
    """U V_k ... U V_1 |0...0>, with U on the low qubits of the full register.

    vs acts on the full register (main wire plus ancilla); u on the main
    wire alone.  Returns the final dense state vector.
    """
    if not vs:
        raise ValidationError("need at least one query operator")
    d = vs[0].shape[0]
    if d > MAX_DENSE_DIM:
        raise ValidationError("register exceeds the dense limit")
    for v in vs:
        if v.shape != (d, d):
            raise ValidationError("query operators must all act on the full register")
    st = np.zeros(d, dtype=complex)
    st[0] = 1.0
    for v in vs:
        st = v @ st
        st = apply_on_low_qubits(u, st)
    nrm = np.linalg.norm(st)
    if abs(nrm - 1.0) > 1e-9:
        raise InternalConsistencyError("query circuit broke normalization")
    return st
