"""Declarative unitary ensembles and their moment estimators.

An ensemble is a small immutable spec tree: Haar on n qubits, uniform or
enumerated Clifford groups, a fixed list of unitaries, or the sandwich
construction C1 (U_t x I) C2 with an inner ensemble on the first t qubits.
Samplers produce dense unitaries; moment_choi and frame_potential estimate
k-th moment fingerprints, with exact closed forms where a group can be
enumerated or a Weingarten table applies.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Union

import numpy as np

from .commutant import (
    PermutationOp,
    _full_stack,
    _stable_inverse,
    permutation_gram,
    weingarten_table,
)
from .dense import MAX_DENSE_DIM, DenseOperator, haar_unitary, query_output_state
from .errors import InternalConsistencyError, ValidationError
from .pauli import cliffords_to_matrices, enumerate_cliffords, random_tableau

MAX_ENUMERATED_QUBITS = 2
# complex entries per batch of Choi vectors
CHUNK_ENTRIES = 1 << 20
# Unitary entries sampled and made dense per pass of _samples.  With
# 2^20-entry passes the short-lived Clifford arrays split the free heap
# between the 16 MB Choi arrays, and decay runs at n = 5 peaked 16-32 MB
# higher.
_PASS_ENTRIES = 1 << 14


@dataclass(frozen=True)
class Haar:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError("Haar ensemble needs n >= 1")

    @property
    def n_qubits(self) -> int:
        return self.n


@dataclass(frozen=True)
class CliffordUniform:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError("Clifford ensemble needs n >= 1")

    @property
    def n_qubits(self) -> int:
        return self.n


@dataclass(frozen=True)
class CliffordEnumerated:
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_ENUMERATED_QUBITS:
            raise ValidationError(
                f"enumerated Clifford group supports 1 <= n <= {MAX_ENUMERATED_QUBITS}"
            )

    @property
    def n_qubits(self) -> int:
        return self.n


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
class Homeopathy:
    """C1 (U_t x I) C2 with C1, C2 uniform Clifford and U_t from `inner`."""

    n: int
    t: int
    inner: "EnsembleSpec"

    def __post_init__(self) -> None:
        if not 1 <= self.t <= self.n:
            raise ValidationError("need 1 <= t <= n")
        if self.inner.n_qubits != self.t:
            raise ValidationError("inner ensemble must act on exactly t qubits")

    @property
    def n_qubits(self) -> int:
        return self.n


EnsembleSpec = Union[Haar, CliffordUniform, CliffordEnumerated, FixedList, Homeopathy]


@lru_cache(maxsize=4)
def _dense_clifford_group(n: int) -> tuple[DenseOperator, ...]:
    mats = cliffords_to_matrices(n, [c.tableau for c in enumerate_cliffords(n)])
    return tuple(DenseOperator(1 << n, u) for u in mats)


def sample(spec: EnsembleSpec, rng: np.random.Generator) -> DenseOperator:
    """One unitary drawn from the spec's distribution, as a dense operator."""
    if isinstance(spec, Haar):
        return haar_unitary(1 << spec.n, rng)
    if isinstance(spec, (CliffordEnumerated, FixedList)):
        els = enumerate_unitaries(spec)
        return els[int(rng.integers(len(els)))]
    u = next(_samples(spec, 1, rng))
    return DenseOperator(len(u), u)


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
    u = sample(spec, rng).matrix
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


def to_config(spec: EnsembleSpec) -> dict:
    if isinstance(spec, Haar):
        return {"variant": "haar", "n": spec.n}
    if isinstance(spec, CliffordUniform):
        return {"variant": "clifford_uniform", "n": spec.n}
    if isinstance(spec, CliffordEnumerated):
        return {"variant": "clifford_enumerated", "n": spec.n}
    if isinstance(spec, Homeopathy):
        return {
            "variant": "homeopathy",
            "n": spec.n,
            "t": spec.t,
            "inner": to_config(spec.inner),
        }
    if isinstance(spec, FixedList):
        mats = [
            [[[float(z.real), float(z.imag)] for z in row] for row in u.matrix]
            for u in spec.unitaries
        ]
        return {"variant": "fixed_list", "unitaries": mats}
    raise ValidationError(f"unknown ensemble spec {spec!r}")


def from_config(cfg: dict) -> EnsembleSpec:
    try:
        variant = cfg["variant"]
    except (TypeError, KeyError):
        raise ValidationError("ensemble config needs a 'variant' key") from None

    def field(key: str, convert=int):
        try:
            return convert(cfg[key])
        except KeyError:
            raise ValidationError(f"{variant!r} ensemble config is missing key {key!r}") from None
        except ValidationError:
            raise
        except (TypeError, ValueError):
            raise ValidationError(
                f"{variant!r} ensemble config has a bad {key!r}: {cfg[key]!r}"
            ) from None

    if variant == "haar":
        return Haar(field("n"))
    if variant == "clifford_uniform":
        return CliffordUniform(field("n"))
    if variant == "clifford_enumerated":
        return CliffordEnumerated(field("n"))
    if variant == "homeopathy":
        return Homeopathy(field("n"), field("t"), field("inner", from_config))
    if variant == "fixed_list":
        return FixedList(field("unitaries", _unitaries_from_config))
    raise ValidationError(f"unknown ensemble variant {variant!r}")


def _unitaries_from_config(mats) -> tuple[DenseOperator, ...]:
    us = []
    for rows in mats:
        m = np.array([[complex(re, im) for re, im in row] for row in rows])
        us.append(DenseOperator(m.shape[0], m))
    return tuple(us)


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
    us = _samples(spec, 2 * samples, rng)
    vals = np.array([abs(np.vdot(u, v)) ** (2 * k) for u, v in zip(us, us)])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


def _choi_dims(spec: EnsembleSpec, k: int) -> tuple[int, int]:
    if k < 1:
        raise ValidationError("need k >= 1")
    d = 1 << spec.n_qubits
    big = d**k
    if big * big > MAX_DENSE_DIM:
        raise ValidationError(
            f"Choi dimension {big}^2 exceeds the dense limit {MAX_DENSE_DIM}"
        )
    return d, big


def _kth_power(m: np.ndarray, k: int) -> np.ndarray:
    return reduce(np.kron, [m] * k)


def moment_choi(
    spec: EnsembleSpec, k: int, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Sampled Choi state of the k-fold channel, J = E (U^k x I)|Phi+><Phi+|(..)^dag."""
    _, big = _choi_dims(spec, k)
    if samples < 1:
        raise ValidationError("need samples >= 1")
    scale = 1.0 / math.sqrt(big)
    acc = np.zeros((big * big, big * big), dtype=complex)
    us = _samples(spec, samples, rng)
    batch = max(1, CHUNK_ENTRIES // (big * big))
    for done in range(0, samples, batch):
        vs = np.empty((min(batch, samples - done), big * big), dtype=complex)
        for s in range(len(vs)):
            vs[s] = _kth_power(next(us), k).reshape(-1) * scale
        acc += vs.T @ vs.conj()
    acc /= samples
    return _checked_choi(acc)


def _checked_choi(j: np.ndarray) -> np.ndarray:
    """Symmetrize j in place (conj() of a complex array is a copy, so the
    transpose does not alias j) and check its trace."""
    j += j.conj().T
    j *= 0.5
    tr = np.trace(j).real
    if abs(tr - 1.0) > 1e-9:
        raise InternalConsistencyError(f"Choi trace {tr} drifted from 1")
    return j


def exact_moment_choi(spec: EnsembleSpec, k: int) -> np.ndarray:
    """Closed-form Choi state where the ensemble admits one.

    Finite specs average exactly; Haar uses the permutation Weingarten
    expansion and uniform Clifford the monomial one:
    J = (1/D^2) sum_{A,B} W[A,B] A x conj(B) over the commutant basis.
    """
    d, big = _choi_dims(spec, k)
    if isinstance(spec, (FixedList, CliffordEnumerated)):
        els = enumerate_unitaries(spec)
        scale = 1.0 / math.sqrt(big)
        acc = np.zeros((big * big, big * big), dtype=complex)
        chunk = max(1, CHUNK_ENTRIES // (big * big))
        for start in range(0, len(els), chunk):
            part = els[start : start + chunk]
            vs = np.empty((len(part), big * big), dtype=complex)
            for i, u in enumerate(part):
                vs[i] = _kth_power(u.matrix, k).reshape(-1) * scale
            acc += vs.T @ vs.conj()
        acc /= len(els)
        return _checked_choi(acc)
    if isinstance(spec, Haar):
        tmats = np.stack([PermutationOp(p, d).matrix for p in itertools.permutations(range(k))])
        winv, _ = _stable_inverse(permutation_gram(k, d), 1e-12)
        j = _commutant_choi(winv, tmats)
        j /= big
        return _checked_choi(j)
    if isinstance(spec, CliffordUniform):
        table = weingarten_table(k, spec.n)
        mats = _full_stack(k, spec.n)
        j = _commutant_choi(table.weingarten, mats)
        j /= big * big
        return _checked_choi(j)
    raise ValidationError(f"no exact Choi path for {type(spec).__name__}")


def _commutant_choi(w: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_{a,b} w[a,b] A_a x conj(A_b) over stacked (s, D, D) operators.

    One GEMM, X^T (w conj(X)) with the operators as rows of X, gives the sum
    indexed [(i,k), (j,l)]; a transpose puts it in Kronecker order
    [(i,j), (k,l)].
    """
    s, dim = mats.shape[:2]
    flat = mats.reshape(s, dim * dim)
    y = flat.T @ (w @ flat.conj())
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
    if samples is None:
        us = [u.matrix for u in enumerate_unitaries(spec)]
    else:
        if samples < 1:
            raise ValidationError("need samples >= 1")
        if rng is None:
            raise ValidationError("Monte Carlo averaging needs an rng")
        us = _samples(spec, samples, rng)
    states = np.array([query_output_state(u, mats) for u in us])
    rho = states.T @ states.conj() / states.shape[0]
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-9:
        raise InternalConsistencyError(f"output state trace {tr} drifted from 1")
    return rho
