"""Distances between moment channels and the decay-in-t experiment.

Channel distances are measured on Choi states: the plug-in statistic
||J_A - J_B||_1 / 2 lower-bounds the diamond distance of the k-fold
channels.  Plug-in trace norms of noisy estimates are biased upward, so
every estimate carries an empirical null floor calibrated by a split-half
comparison at matched sample size; claims are made only above the floor.
Standard errors come from a batch-means bootstrap.

Every estimate is a weighted sum of outer products: a batch's Choi state
averages |v><v| over its `per` Choi vectors, a bootstrap resample weighs
each batch by how often it was drawn, and the split-half floor weighs one
half of the batches +1 and the other -1.  With G[i, j] = <v_i|v_j> the
r x r Gram matrix of the vectors of nonzero weight and W = diag(w), the
sum shares its nonzero spectrum with W G.  For weights w >= 0 and a
reference c I in dimension D = d^2k,

    || sum_i w_i |v_i><v_i| - c I ||_1 = sum_j |mu_j - c| + (D - r) |c|,

with mu the eigenvalues of K = diag(sqrt w) G diag(sqrt w).  For weights
of either sign and no reference, factor G = L L^dag (G is positive
definite when the r vectors are linearly independent, as r < D vectors
drawn from a Haar seed are with probability 1): the trace norm is the sum
of |eigenvalues| of the Hermitian L^dag W L.  So a trace norm takes one of
two routes:

- r x r, the Gram route: a one-sided row at k = 1, where the Haar
  reference is exactly I / D, so c = 1 / D, and whose S samples number
  fewer than D.  The step that draws its Choi vectors checks each batch's
  trace and keeps only their S x S Gram matrix, and no dense reference is
  built.  Its value and bootstrap draws take eigenvalues of K on r x r
  blocks, r <= S < D, and its split-half floor those of L^dag W L.  No
  D x D array outlives the draw.
- D x D, through trace_distance: rows with S >= D, references other than
  c I (k >= 2), and the two-sided estimates.  They keep dense batch Choi
  states, whose means and differences are formed in two reused buffers,
  in the order sum() adds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import (
    EnsembleSpec,
    Haar,
    Homeopathy,
    _check_trace,
    _choi_dims,
    _choi_vectors,
    adaptive_output_state,
    exact_moment_choi,
    moment_choi,
)
from .errors import InternalConsistencyError, ValidationError

NUM_BATCHES = 10
BOOTSTRAP_DRAWS = 20
ENVELOPE_CONSTANT = 47.0


def _above_floor(value: float, stderr: float, floor: float) -> bool:
    """A distance is claimed only when it clears its null floor by 3 sigma."""
    return value > floor + 3 * stderr


@dataclass(frozen=True)
class DistanceEstimate:
    value: float
    stderr: float
    floor: float
    samples: int

    @property
    def above_floor(self) -> bool:
        return _above_floor(self.value, self.stderr, self.floor)


@dataclass(frozen=True)
class DecayRow:
    t: int
    distance: float
    stderr: float
    floor: float
    samples: int

    @property
    def above_floor(self) -> bool:
        return _above_floor(self.distance, self.stderr, self.floor)


@dataclass(frozen=True)
class DecayReport:
    n: int
    k: int
    rows: tuple[DecayRow, ...]


def trace_distance(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """(1/2)||a - b||_1 for Hermitian a, b; (1/2)||a||_1 without b."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a if b is None else a - b)).sum())


def _gram_trace_norm(gram: np.ndarray, w: np.ndarray, c: float, dim: int) -> float:
    """||sum_i w_i |v_i><v_i| - c I||_1 in dimension dim, for weights w >= 0,
    from gram[i, j] = <v_i|v_j> (see the module docstring).  Vectors of
    weight 0 drop out.  With r > dim, K has r - dim more zero eigenvalues,
    whose |0 - c| terms the negative (dim - r)|c| takes back."""
    keep = np.flatnonzero(w)
    s = np.sqrt(w[keep])
    k = gram[np.ix_(keep, keep)]
    k *= s[:, None]
    k *= s
    return float(np.abs(np.linalg.eigvalsh(k) - c).sum()) + (dim - len(keep)) * abs(c)


def _batch_split(samples: int) -> tuple[int, int]:
    """(per, used): NUM_BATCHES batches of per samples; the rest go unused."""
    per = samples // NUM_BATCHES
    if per < 1:
        raise ValidationError(f"need at least {NUM_BATCHES} samples")
    return per, per * NUM_BATCHES


def _batched_choi(
    spec: EnsembleSpec, k: int, samples: int, rng: np.random.Generator
) -> tuple[list[np.ndarray], int]:
    """NUM_BATCHES dense Monte Carlo Choi estimates and the samples they use."""
    per, used = _batch_split(samples)
    return [moment_choi(spec, k, per, rng) for _ in range(NUM_BATCHES)], used


def _batched_gram(spec: EnsembleSpec, k: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """The S x S Gram matrix <v_i|v_j> of the Choi vectors whose outer
    products the batches of _batched_choi average, drawn from the same
    stream, each batch's trace checked on its |v|^2.  The vectors die here."""
    per, used = _batch_split(samples)
    vs = _choi_vectors(spec, k, used, rng)
    for batch in vs.reshape(NUM_BATCHES, per, -1):
        _check_trace(np.vdot(batch, batch).real / per)
    return vs.conj() @ vs.T


def _mean_into(out: np.ndarray, batches: list[np.ndarray], idx) -> np.ndarray:
    """sum(batches[x] for x in idx) / len(idx), added in that order into out."""
    out[...] = 0
    for x in idx:
        out += batches[x]
    out /= len(idx)
    return out


def _bootstrap(distance, two_sided: bool, rng: np.random.Generator) -> tuple[float, float]:
    """(value, stderr): distance(ia, ib) over every batch, and the standard
    deviation of BOOTSTRAP_DRAWS batch-means resamples of it; ia and ib index
    the batches of each side, ib None for a one-sided estimate."""
    nb = NUM_BATCHES
    value = distance(range(nb), range(nb))
    boots = np.empty(BOOTSTRAP_DRAWS)
    for i in range(BOOTSTRAP_DRAWS):
        ia = rng.integers(nb, size=nb)
        ib = rng.integers(nb, size=nb) if two_sided else None
        boots[i] = distance(ia, ib)
    return value, float(boots.std(ddof=1))


def _signed_gram_trace_norm(gram: np.ndarray, w: np.ndarray) -> float:
    """||sum_i w_i |v_i><v_i|||_1 for weights w of either sign, from the
    positive definite gram[i, j] = <v_i|v_j> = (L L^dag)[i, j]: the sum
    shares its nonzero spectrum with L^dag W L, and so with its conjugate
    L^T W conj(L), built here in gram's memory.  Overwrites gram: at most
    three S x S arrays are live, and eigvalsh's copy fits where L and the
    matmul's buffer were."""
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise InternalConsistencyError("the Gram matrix is not positive definite") from None
    m = np.conjugate(low, out=gram)
    m *= w[:, None]
    np.matmul(low.T, m, out=m)  # numpy buffers the overlapping operand
    del low
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


def _distance_from_gram(
    gram: np.ndarray, c: float, dim: int, rng: np.random.Generator
) -> tuple[float, float, float]:
    """(value, bootstrap stderr, split-half null floor) of a one-sided row
    against c I in dimension dim, from the S x S Gram matrix of its
    NUM_BATCHES equal batches of Choi vectors (the r x r route).  The floor
    comes last, as it overwrites gram."""
    nb, h = NUM_BATCHES, NUM_BATCHES // 2
    per = len(gram) // nb

    def distance(ia, _ib) -> float:
        w = np.repeat(np.bincount(ia, minlength=nb) / (nb * per), per)
        return 0.5 * _gram_trace_norm(gram, w, c, dim)

    value, stderr = _bootstrap(distance, False, rng)
    halves = np.repeat(np.r_[np.full(h, 1 / h), np.full(nb - h, -1 / (nb - h))] / per, per)
    return value, stderr, 0.5 * _signed_gram_trace_norm(gram, halves) / 2.0


def _distance_from_batches(
    batches_a: list[np.ndarray],
    batches_b: list[np.ndarray] | None,
    exact_ref: np.ndarray | None,
    rng: np.random.Generator,
) -> tuple[float, float, float]:
    """(value, bootstrap stderr, split-half null floor) on the D x D route.

    The half-vs-half distance runs at twice the variance of the full mean,
    so the one-sided noise level is half of it; two noisy sides combine in
    quadrature.
    """
    nb = len(batches_a)
    h = nb // 2
    buf, other = np.empty_like(batches_a[0]), np.empty_like(batches_a[0])

    def distance(ia, ib) -> float:
        diff = _mean_into(buf, batches_a, ia)
        diff -= exact_ref if batches_b is None else _mean_into(other, batches_b, ib)
        return trace_distance(diff)

    def split_half(batches) -> float:
        diff = _mean_into(buf, batches, range(h))
        diff -= _mean_into(other, batches, range(h, nb))
        return trace_distance(diff)

    value, stderr = _bootstrap(distance, batches_b is not None, rng)
    fa = split_half(batches_a)
    if batches_b is None:
        floor = fa / 2.0
    else:
        floor = math.hypot(fa, split_half(batches_b)) / 2.0
    return value, stderr, floor


def _check_same_register(spec_a: EnsembleSpec, spec_b: EnsembleSpec) -> None:
    """A two-sided estimate compares two ensembles on one register."""
    if spec_a.n_qubits != spec_b.n_qubits:
        raise ValidationError(f"specs act on {spec_a.n_qubits} and {spec_b.n_qubits} qubits")


def choi_trace_distance(
    spec_a: EnsembleSpec,
    spec_b: EnsembleSpec,
    k: int,
    samples: int,
    rng: np.random.Generator,
) -> DistanceEstimate:
    """Plug-in ||J_A - J_B||_1 / 2 from two Monte Carlo Choi estimates."""
    _check_same_register(spec_a, spec_b)
    batches_a, used = _batched_choi(spec_a, k, samples, rng)
    batches_b, _ = _batched_choi(spec_b, k, samples, rng)
    value, stderr, floor = _distance_from_batches(batches_a, batches_b, None, rng)
    return DistanceEstimate(value, stderr, floor, used)


def adaptive_distance(
    spec_a: EnsembleSpec,
    spec_b: EnsembleSpec,
    queries: list[np.ndarray],
    samples: int,
    rng: np.random.Generator,
) -> DistanceEstimate:
    """Trace distance of averaged adaptive outputs for a fixed query list."""
    _check_same_register(spec_a, spec_b)
    per, used = _batch_split(samples)

    def batches(spec):
        return [adaptive_output_state(spec, queries, per, rng) for _ in range(NUM_BATCHES)]

    value, stderr, floor = _distance_from_batches(batches(spec_a), batches(spec_b), None, rng)
    return DistanceEstimate(value, stderr, floor, used)


def check_decay_args(n: int, k: int, t_list) -> None:
    """ValidationError unless decay_experiment accepts (n, k, t_list); a
    range past n fails at its ends, before any of its values is listed."""
    if not t_list:
        raise ValidationError("need at least one t")
    if not all(1 <= t <= n for ts in ((*t_list[:1], *t_list[-1:]), t_list) for t in ts):
        raise ValidationError("every t must satisfy 1 <= t <= n")
    _choi_dims(Haar(n), k)


def decay_experiment(
    n: int,
    k: int,
    t_list: list[int],
    samples: int,
    rng: np.random.Generator,
) -> DecayReport:
    """Distance of E_t = {C1 (U_t x I) C2} from Haar, for each t.

    The Haar reference is the closed-form Choi state; choi_trace_distance
    is the two-sided Monte Carlo path.
    """
    check_decay_args(n, k, t_list)
    ts = sorted(set(t_list))
    dim = 4 ** (n * k)  # the Choi dimension d^2k
    _, used = _batch_split(samples)
    # at k = 1 the reference is exactly I / dim: a Gram-route row needs only 1 / dim
    ref = None if k == 1 and used < dim else exact_moment_choi(Haar(n), k)
    rows = []
    for t in ts:
        spec = Homeopathy(n, t, Haar(t))
        if ref is None:
            est = _distance_from_gram(_batched_gram(spec, k, samples, rng), 1 / dim, dim, rng)
        else:
            est = _distance_from_batches(_batched_choi(spec, k, samples, rng)[0], None, ref, rng)
        rows.append(DecayRow(t, *est, used))
    return DecayReport(n, k, tuple(rows))


# ---------------------------------------------------------------------------
# decay analysis


def above_floor_rows(report: DecayReport) -> list[DecayRow]:
    return [r for r in report.rows if r.above_floor]


def monotone_above_floor(report: DecayReport) -> bool:
    """Distances non-increasing in t, within 3 sigma, over above-floor rows."""
    rows = above_floor_rows(report)
    for a, b in zip(rows, rows[1:]):
        if b.distance > a.distance + 3 * math.hypot(a.stderr, b.stderr):
            return False
    return True


def envelope_satisfied(report: DecayReport) -> bool:
    """Every distance within the exponential bound C * 2^(2k - t) + 3 sigma."""
    return all(
        r.distance <= ENVELOPE_CONSTANT * 2.0 ** (2 * report.k - r.t) + 3 * r.stderr
        for r in report.rows
    )


def fitted_log2_slope(report: DecayReport) -> float | None:
    """Least-squares slope of log2(distance) vs t over above-floor rows.

    None when fewer than two rows rise above the floor (degenerate designs:
    an ensemble already exact at this k leaves nothing to fit).
    """
    rows = above_floor_rows(report)
    if len(rows) < 2:
        return None
    ts = np.array([r.t for r in rows], dtype=float)
    logs = np.log2([r.distance for r in rows])
    return float(np.polyfit(ts, logs, 1)[0])
