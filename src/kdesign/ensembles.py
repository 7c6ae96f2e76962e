"""Declarative unitary ensembles and their moment estimators.

An ensemble is a small immutable spec tree: Haar on n qubits, uniform or
enumerated Clifford groups, a fixed list of unitaries, or the sandwich
construction C1 (U_t x I) C2 with an inner ensemble on the first t qubits.
Samplers produce dense unitaries, which frame_potential pairs.  Every moment
operator comes from one of two kernels: _outer_average, E|v><v| over draws
or over the elements of a finite spec (moment_choi, adaptive_output_state,
finite exact_moment_choi), and _commutant_choi over the index set of a
commutant basis (Haar and uniform Clifford exact_moment_choi).
_outer_average sums the stacks of one vector kernel, _vector_chunks, which
also hands the sampled Choi vectors themselves to the moments module
(_choi_vectors).
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Union

import numpy as np

from .commutant import _clifford_basis, _haar_basis, _incidence
from .dense import MAX_DENSE_DIM, MAX_DENSE_QUBITS, DenseOperator, haar_unitary, query_output_state
from .errors import InternalConsistencyError, ValidationError
from .pauli import MAX_ENUMERATED_QUBITS, cliffords_to_matrices, enumerate_cliffords, random_tableau

# complex entries per batch of Choi vectors
CHUNK_ENTRIES = 1 << 20
# Unitary entries sampled and made dense per pass of _samples.  With
# 2^20-entry passes the short-lived Clifford arrays split the free heap
# between the 16 MB Choi arrays, and decay runs at n = 5 peaked 16-32 MB
# higher.
_PASS_ENTRIES = 1 << 14


@dataclass(frozen=True)
class _Register:
    """A spec whose first field, n, is its register size in qubits."""

    n: int

    @property
    def n_qubits(self) -> int:
        return self.n


@dataclass(frozen=True)
class Haar(_Register):
    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError("Haar ensemble needs n >= 1")


@dataclass(frozen=True)
class CliffordUniform(_Register):
    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError("Clifford ensemble needs n >= 1")


@dataclass(frozen=True)
class CliffordEnumerated(_Register):
    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_ENUMERATED_QUBITS:
            raise ValidationError(
                f"enumerated Clifford group supports 1 <= n <= {MAX_ENUMERATED_QUBITS}"
            )


@dataclass(frozen=True)
class FixedList:
    unitaries: tuple[DenseOperator, ...]

    def __post_init__(self) -> None:
        if not self.unitaries:
            raise ValidationError("FixedList needs at least one unitary")
        d = self.unitaries[0].dim
        if d & (d - 1):
            raise ValidationError("FixedList dimension must be a power of two")
        for u in self.unitaries:
            if u.dim != d:
                raise ValidationError("FixedList unitaries must share one dimension")
            if not u.is_unitary(1e-12):
                raise ValidationError("FixedList entries must be unitary to 1e-12")

    @property
    def n_qubits(self) -> int:
        return self.unitaries[0].dim.bit_length() - 1


@dataclass(frozen=True)
class Homeopathy(_Register):
    """C1 (U_t x I) C2 with C1, C2 uniform Clifford and U_t from `inner`."""

    t: int
    inner: "EnsembleSpec"

    def __post_init__(self) -> None:
        if not 1 <= self.t <= self.n:
            raise ValidationError("need 1 <= t <= n")
        if self.inner.n_qubits != self.t:
            raise ValidationError("inner ensemble must act on exactly t qubits")


EnsembleSpec = Union[Haar, CliffordUniform, CliffordEnumerated, FixedList, Homeopathy]


@lru_cache(maxsize=4)
def _dense_clifford_group(n: int) -> tuple[DenseOperator, ...]:
    mats = cliffords_to_matrices(n, [c.tableau for c in enumerate_cliffords(n)])
    return tuple(DenseOperator(1 << n, u) for u in mats)


def sample(spec: EnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """One unitary drawn from the spec's distribution, as a (d, d) array."""
    if isinstance(spec, Haar):
        return haar_unitary(1 << spec.n, rng)
    if isinstance(spec, (CliffordEnumerated, FixedList)):
        els = enumerate_unitaries(spec)
        return els[int(rng.integers(len(els)))].matrix
    return next(_samples(spec, 1, rng))


def _samples(spec: EnsembleSpec, size: int, rng: np.random.Generator):
    """Yield `size` unitaries from the spec, as (d, d) arrays.

    Samples are drawn one after another, each consuming the stream exactly
    as one call of `sample` does (for Homeopathy: the inner unitary, then
    C2, then C1), so a seeded stream gives the same unitaries batched or
    not.  The Clifford tableaus of each pass of samples are made dense in
    one call per register size.
    """
    if not isinstance(spec, EnsembleSpec):
        raise ValidationError(f"unknown ensemble spec {spec!r}")
    d = 1 << spec.n_qubits
    if d > MAX_DENSE_DIM:
        raise ValidationError(f"{spec.n_qubits} qubits exceed the dense limit {MAX_DENSE_DIM}")
    per = max(1, _PASS_ENTRIES // (d * d))
    for lo in range(0, size, per):
        tableaus: dict[int, list] = {}
        draws = [_draw(spec, rng, tableaus) for _ in range(min(per, size - lo))]
        dense = {n: cliffords_to_matrices(n, tabs) for n, tabs in tableaus.items()}
        for realize in draws:
            yield realize(dense)


def _draw(spec: EnsembleSpec, rng: np.random.Generator, tableaus: dict[int, list]):
    """Consume one sample's randomness; return a function of the dense
    Clifford batches that builds it.  Tableaus queue per register size."""
    if isinstance(spec, CliffordUniform):
        queue = tableaus.setdefault(spec.n, [])
        queue.append(random_tableau(spec.n, rng))
        i = len(queue) - 1
        return lambda dense: dense[spec.n][i]
    if isinstance(spec, Homeopathy):
        inner = _draw(spec.inner, rng, tableaus)
        c2 = _draw(CliffordUniform(spec.n), rng, tableaus)
        c1 = _draw(CliffordUniform(spec.n), rng, tableaus)
        eye = np.eye(1 << (spec.n - spec.t))
        return lambda dense: c1(dense) @ np.kron(eye, inner(dense)) @ c2(dense)
    u = sample(spec, rng)
    return lambda dense: u


def enumerate_unitaries(spec: EnsembleSpec) -> tuple[DenseOperator, ...]:
    """All elements of a finite, uniformly weighted spec."""
    if isinstance(spec, FixedList):
        return spec.unitaries
    if isinstance(spec, CliffordEnumerated):
        return _dense_clifford_group(spec.n)
    raise ValidationError(f"{type(spec).__name__} cannot be enumerated")


# ---------------------------------------------------------------------------
# config serialization


# The config of a spec is {"variant": its name here} plus one key per
# dataclass field, in field order.
_VARIANTS = {
    "haar": Haar,
    "clifford_uniform": CliffordUniform,
    "clifford_enumerated": CliffordEnumerated,
    "homeopathy": Homeopathy,
    "fixed_list": FixedList,
}


def to_config(spec: EnsembleSpec) -> dict:
    names = [name for name, cls in _VARIANTS.items() if type(spec) is cls]
    if not names:
        raise ValidationError(f"unknown ensemble spec {spec!r}")
    cfg = {"variant": names[0]}
    for f in dataclasses.fields(spec):
        cfg[f.name] = _FIELD_CODECS.get(f.name, _INT_CODEC)[0](getattr(spec, f.name))
    return cfg


def from_config(cfg: dict) -> EnsembleSpec:
    """The spec to_config wrote cfg for; ValidationError for a missing, bad
    or unknown key at any nesting level."""
    try:
        variant = cfg["variant"]
    except (TypeError, KeyError):
        raise ValidationError("ensemble config needs a 'variant' key") from None
    if not isinstance(variant, str) or variant not in _VARIANTS:
        raise ValidationError(f"unknown ensemble variant {variant!r}")
    keys = [f.name for f in dataclasses.fields(_VARIANTS[variant])]
    for key in cfg:
        if key != "variant" and key not in keys:
            raise ValidationError(f"{variant!r} ensemble config has an unknown key {key!r}")

    def field(key: str):
        try:
            return _FIELD_CODECS.get(key, _INT_CODEC)[1](cfg[key])
        except KeyError:
            raise ValidationError(f"{variant!r} ensemble config is missing key {key!r}") from None
        except ValidationError:
            raise
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"{variant!r} ensemble config has a bad {key!r}: {cfg[key]!r}"
            ) from None

    return _VARIANTS[variant](*[field(key) for key in keys])


def _exact_int(value) -> int:
    """value itself if it is an int, else TypeError: no float, bool or string
    is read as a qubit count."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"not an int: {value!r}")
    return value


def _unitaries_to_config(us: tuple[DenseOperator, ...]) -> list:
    return [[[[float(z.real), float(z.imag)] for z in row] for row in u.matrix] for u in us]


def _unitaries_from_config(mats) -> tuple[DenseOperator, ...]:
    arrays = (np.array([[complex(re, im) for re, im in row] for row in rows]) for rows in mats)
    return tuple(DenseOperator(len(m), m) for m in arrays)


# (writer, checked reader) of each config field; every other field is an int
_INT_CODEC = (lambda value: value, _exact_int)
_FIELD_CODECS = {
    "inner": (to_config, from_config),
    "unitaries": (_unitaries_to_config, _unitaries_from_config),
}


# ---------------------------------------------------------------------------
# moment estimators


def frame_potential(
    spec: EnsembleSpec, k: int, samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo E|tr(U^dag V)|^{2k} over two independent streams.

    Returns (estimate, standard error).
    """
    if k < 1:
        raise ValidationError("need k >= 1")
    if samples < 2:
        raise ValidationError("need at least two samples for a standard error")
    # |tr(U^dag V)|^2k <= d^2k, and the standard error squares it
    if isinstance(spec, EnsembleSpec) and 4 * k * spec.n_qubits >= sys.float_info.max_exp:
        raise ValidationError(
            f"k = {k} on {spec.n_qubits} qubits overflows float64: d^(4k) >= 2^1024"
        )
    us = _samples(spec, 2 * samples, rng)
    vals = np.array([abs(np.vdot(u, v)) ** (2 * k) for u, v in zip(us, us)])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


def _choi_dims(spec: EnsembleSpec, k: int) -> tuple[int, int]:
    if k < 1:
        raise ValidationError("need k >= 1")
    if 2 * k * spec.n_qubits > MAX_DENSE_QUBITS:  # exponents, so a huge k builds no huge int
        raise ValidationError(
            f"Choi dimension 2^{2 * k * spec.n_qubits} exceeds the dense limit {MAX_DENSE_DIM}"
        )
    d = 1 << spec.n_qubits
    return d, d**k


def moment_choi(
    spec: EnsembleSpec, k: int, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Sampled Choi state of the k-fold channel, J = E (U^k x I)|Phi+><Phi+|(..)^dag."""
    _, big = _choi_dims(spec, k)
    if samples is None:
        raise ValidationError("moment_choi needs samples >= 1; exact_moment_choi averages exactly")
    return _outer_average(spec, samples, rng, big * big, _choi_vector(k, big))


def _choi_vector(k: int, big: int):
    """U -> (U^k x I)|Phi+>, as a flat vector of length big^2."""
    scale = 1.0 / math.sqrt(big)
    return lambda u: reduce(np.kron, [u] * k).reshape(-1) * scale


def _unitaries(spec: EnsembleSpec, samples: int | None, rng: np.random.Generator | None):
    """(count, iterator of (d, d) arrays): every element of a finite spec when
    samples is None, else `samples` draws through _samples."""
    if samples is None:
        els = enumerate_unitaries(spec)
        return len(els), (u.matrix for u in els)
    if samples < 1:
        raise ValidationError("need samples >= 1")
    if rng is None:
        raise ValidationError("Monte Carlo averaging needs an rng")
    return samples, _samples(spec, samples, rng)


def _vector_chunks(spec, samples, rng, dim: int, vector, rows: int):
    """The vectors v(U) over the unitaries of _unitaries, in draw order,
    stacked into (m, dim) arrays of at most `rows` rows."""
    count, us = _unitaries(spec, samples, rng)
    for done in range(0, count, rows):
        vs = np.empty((min(rows, count - done), dim), dtype=complex)
        for s in range(len(vs)):
            vs[s] = vector(next(us))
        yield vs


def _outer_average(spec, samples, rng, dim: int, vector) -> np.ndarray:
    """E |v(U)><v(U)| over the unitaries of _unitaries, as a checked state;
    one GEMM per stack of vectors with at most CHUNK_ENTRIES entries."""
    acc = np.zeros((dim, dim), dtype=complex)
    count = 0
    for vs in _vector_chunks(spec, samples, rng, dim, vector, max(1, CHUNK_ENTRIES // dim)):
        acc += vs.T @ vs.conj()
        count += len(vs)
    acc /= count
    return _checked_choi(acc)


def _choi_vectors(spec: EnsembleSpec, k: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """The (samples, d^2k) stack of Choi vectors whose outer products
    moment_choi averages, drawn from the stream as moment_choi draws them."""
    _, big = _choi_dims(spec, k)
    (vs,) = _vector_chunks(spec, samples, rng, big * big, _choi_vector(k, big), samples)
    return vs


def _checked_choi(j: np.ndarray) -> np.ndarray:
    """Symmetrize j in place (conj() of a complex array is a copy, so the
    transpose does not alias j) and check its trace."""
    j += j.conj().T
    j *= 0.5
    _check_trace(np.trace(j).real)
    return j


def _check_trace(tr: float) -> None:
    if abs(tr - 1.0) > 1e-9:
        raise InternalConsistencyError(f"trace {tr} drifted from 1")


def exact_moment_choi(spec: EnsembleSpec, k: int) -> np.ndarray:
    """Closed-form Choi state where the ensemble admits one.

    Finite specs average exactly over their elements.  Haar and uniform
    Clifford sum over a commutant basis (permutations, monomials):
    J = (1/d^k) sum_{A,B} W[A,B] A x conj(B), W the inverse of tr(A^dagger B).
    """
    d, big = _choi_dims(spec, k)
    if isinstance(spec, (FixedList, CliffordEnumerated)):
        return _outer_average(spec, None, None, big * big, _choi_vector(k, big))
    if isinstance(spec, Haar):
        basis = _haar_basis(k, d)
    elif isinstance(spec, CliffordUniform):
        basis = _clifford_basis(k, spec.n)
    else:
        raise ValidationError(f"no exact Choi path for {type(spec).__name__}")
    j = _commutant_choi(*basis)
    j /= big
    return _checked_choi(j)


def _commutant_choi(w: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """sum_{a,b} w[a,b] A_a x conj(A_b) over 0/1 operators given by the
    (s, D) flat positions of their ones.

    One GEMM, X^T (w X) with the real 0/1 operators as rows of X, gives the
    sum indexed [(i,k), (j,l)]; a transpose puts it in Kronecker order
    [(i,j), (k,l)].
    """
    dim = ones.shape[1]
    x = _incidence(ones, dim * dim)
    y = x.T @ (w @ x)
    y = y.reshape(dim, dim, dim, dim).transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
    return y.astype(complex, copy=False)


def adaptive_output_state(
    spec: EnsembleSpec,
    queries: list[np.ndarray],
    samples: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Average adaptive output E_U |psi_U><psi_U|, psi_U = U V_k ... U V_1 |0>.

    The queries act on the full register (sample wires low, ancilla high).
    samples=None averages exactly over an enumerable spec.
    """
    if not queries:
        raise ValidationError("need at least one query operator")
    mats = [q.matrix if isinstance(q, DenseOperator) else np.asarray(q) for q in queries]
    return _outer_average(
        spec, samples, rng, len(mats[0]), lambda u: query_output_state(u, mats)
    )
