"""Distances between moment channels and the decay-in-t experiment.

Channel distances are measured on Choi states: the plug-in statistic
||J_A - J_B||_1 / 2 lower-bounds the diamond distance of the k-fold
channels.  Plug-in trace norms of noisy estimates are biased upward, so
every estimate carries an empirical null floor calibrated by a split-half
comparison at matched sample size; claims are made only above the floor.
Standard errors come from a batch-means bootstrap.

Every estimate is a weighted sum of outer products: a batch's Choi state
averages |v><v| over its `per` Choi vectors, and a bootstrap resample
weighs each batch by how often it was drawn.  For weights w >= 0 on r
vectors and a reference c I in dimension D = d^2k,

    || sum_i w_i |v_i><v_i| - c I ||_1 = sum_j |mu_j - c| + (D - r) |c|,

with mu the eigenvalues of the r x r Gram matrix
K = diag(sqrt w) [<v_i|v_j>] diag(sqrt w), which shares the nonzero
spectrum of the sum.  So a trace norm takes one of two routes:

- r x r: a one-sided row whose reference is exactly c I (the Haar
  reference at k = 1, found by an exact array test) and whose S samples
  number fewer than D keeps its Choi vectors and their S x S Gram matrix.
  Its value and bootstrap draws then take eigenvalues of r x r blocks,
  r <= S < D.
- D x D, through trace_distance: everything else.  That is the
  split-half floor (its weights have both signs), two-sided estimates,
  other references and rows with S >= D, which keep dense batch Choi
  states.  Their means and differences are formed in two reused buffers,
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
    _choi_vectors,
    adaptive_output_state,
    exact_moment_choi,
    moment_choi,
)
from .errors import ValidationError

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


def _scalar(ref: np.ndarray) -> float | None:
    """c when ref is exactly c I, else None; no tolerance."""
    diag = np.diagonal(ref)
    c = diag[0]
    exact = c.imag == 0 and np.all(diag == c) and np.count_nonzero(ref) == np.count_nonzero(diag)
    return float(c.real) if exact else None


def _batched_choi(
    spec: EnsembleSpec, k: int, samples: int, rng: np.random.Generator, vectors: bool = False
) -> tuple[list[np.ndarray] | np.ndarray, int]:
    """NUM_BATCHES Monte Carlo Choi estimates and the samples they use.

    With `vectors` and fewer samples than the Choi dimension, they come as
    one (NUM_BATCHES, per, D) stack of Choi vectors, each batch's trace
    checked on its |v|^2; else as dense moment_choi states.  Both draw the
    same stream.
    """
    per = samples // NUM_BATCHES
    if per < 1:
        raise ValidationError(f"need at least {NUM_BATCHES} samples")
    used = per * NUM_BATCHES
    if vectors and used < 1 << (2 * k * spec.n_qubits):
        vs = _choi_vectors(spec, k, used, rng).reshape(NUM_BATCHES, per, -1)
        for batch in vs:
            _check_trace(np.vdot(batch, batch).real / per)
        return vs, used
    return [moment_choi(spec, k, per, rng) for _ in range(NUM_BATCHES)], used


def _mean_into(out: np.ndarray, batches: list[np.ndarray], idx) -> np.ndarray:
    """sum(batches[x] for x in idx) / len(idx), added in that order into out."""
    out[...] = 0
    for x in idx:
        out += batches[x]
    out /= len(idx)
    return out


def _distance_from_batches(
    batches_a: list[np.ndarray] | np.ndarray,
    batches_b: list[np.ndarray] | None,
    exact_ref: np.ndarray | None,
    rng: np.random.Generator,
) -> tuple[float, float, float]:
    """(value, bootstrap stderr, split-half null floor).

    Batches given as a stack of Choi vectors are one-sided against an
    exact_ref of the form c I, and take the r x r route (module docstring).
    The half-vs-half distance runs at twice the variance of the full mean,
    so the one-sided noise level is half of it; two noisy sides combine in
    quadrature.
    """
    nb = len(batches_a)
    h = nb // 2
    if isinstance(batches_a, np.ndarray):
        per, dim = batches_a.shape[1:]
        flat = batches_a.reshape(nb * per, dim)
        gram = flat.conj() @ flat.T
        c = _scalar(exact_ref)

        def distance(ia, _ib) -> float:
            w = np.repeat(np.bincount(ia, minlength=nb) / (nb * per), per)
            return 0.5 * _gram_trace_norm(gram, w, c, dim)

        def split_half(_batches) -> float:
            w = np.repeat(np.r_[np.full(h, 1 / h), np.full(nb - h, -1 / (nb - h))] / per, per)
            return trace_distance((flat.T * w) @ flat.conj())

    else:
        buf, other = np.empty_like(batches_a[0]), np.empty_like(batches_a[0])

        def distance(ia, ib) -> float:
            diff = _mean_into(buf, batches_a, ia)
            diff -= exact_ref if batches_b is None else _mean_into(other, batches_b, ib)
            return trace_distance(diff)

        def split_half(batches) -> float:
            diff = _mean_into(buf, batches, range(h))
            diff -= _mean_into(other, batches, range(h, nb))
            return trace_distance(diff)

    value = distance(range(nb), range(nb))
    boots = np.empty(BOOTSTRAP_DRAWS)
    for i in range(BOOTSTRAP_DRAWS):
        ia = rng.integers(nb, size=nb)
        ib = None if batches_b is None else rng.integers(nb, size=nb)
        boots[i] = distance(ia, ib)
    stderr = float(boots.std(ddof=1))
    fa = split_half(batches_a)
    if batches_b is None:
        floor = fa / 2.0
    else:
        floor = math.hypot(fa, split_half(batches_b)) / 2.0
    return value, stderr, floor


def choi_trace_distance(
    spec_a: EnsembleSpec,
    spec_b: EnsembleSpec,
    k: int,
    samples: int,
    rng: np.random.Generator,
) -> DistanceEstimate:
    """Plug-in ||J_A - J_B||_1 / 2 from two Monte Carlo Choi estimates."""
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
    per = samples // NUM_BATCHES
    if per < 1:
        raise ValidationError(f"need at least {NUM_BATCHES} samples")

    def batches(spec):
        return [adaptive_output_state(spec, queries, per, rng) for _ in range(NUM_BATCHES)]

    value, stderr, floor = _distance_from_batches(batches(spec_a), batches(spec_b), None, rng)
    return DistanceEstimate(value, stderr, floor, per * NUM_BATCHES)


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
    ts = sorted(set(t_list))
    if not ts:
        raise ValidationError("need at least one t")
    if ts[0] < 1 or ts[-1] > n:
        raise ValidationError("every t must satisfy 1 <= t <= n")
    ref = exact_moment_choi(Haar(n), k)
    scalar = _scalar(ref) is not None
    rows = []
    for t in ts:
        spec = Homeopathy(n, t, Haar(t))
        batches, used = _batched_choi(spec, k, samples, rng, vectors=scalar)
        value, stderr, floor = _distance_from_batches(batches, None, ref, rng)
        rows.append(DecayRow(t, value, stderr, floor, used))
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
