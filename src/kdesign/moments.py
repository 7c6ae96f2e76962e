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
- D x D, through trace_distance: k = 1 rows with S >= D, whose reference
  1 / D is subtracted on the diagonal, and the two-sided estimates.  They
  keep dense batch Choi states, whose means and differences are formed in
  two reused buffers, in the order sum() adds them.

A decay row at k >= 2 is exact and draws nothing.  Over the monomials,
with G_m = gram_matrix(k, m) (all ones at m = 0), W = G_n^+ and P the
monomials that are permutations, a Haar seed on t qubits has the block
S_t[A, B] = E tr(A_t^dag U^(x)k B_t U^dag(x)k) / 2^(tk) = G_t[:, P]
Lambda_t^+ G_t[P, :] with Lambda_t = G_t[P, P]; the sandwich has
R_t = S_t o G_(n-t) (entrywise) and Haar R_H = S_n.  With Delta = R_t - R_H
a row holds tr(W R_t W R_t), the Frobenius gap tr((W Delta)^2), the
spectral gap max |eig(W Delta)|, the 2 -> 2 norm of the difference of the
moment operators, the Choi bound sqrt(Frobenius gap) / 2 on the Choi
trace distance ||J_E - J_H||_1 / 2 at the same k, and the n -> infinity
limits of both gaps, sum w^2 and max |w| over w = diag S_t outside P.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .commutant import _permutation_ones, _site_stack, _stable_inverse, check_table_args
from .commutant import gram_matrix, weingarten_table
from .ensembles import (
    EnsembleSpec,
    Haar,
    Homeopathy,
    _check_trace,
    _choi_dims,
    _choi_vectors,
    adaptive_output_state,
    moment_choi,
)
from .errors import InternalConsistencyError, ValidationError

NUM_BATCHES = 10
BOOTSTRAP_DRAWS = 20


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
class ExactDecayRow:
    t: int
    frame_potential: float
    frobenius_gap: float
    spectral_gap: float
    choi_bound: float
    limit_frobenius_gap: float
    limit_spectral_gap: float


@dataclass(frozen=True)
class DecayReport:
    """route: "gram" or "dense" for the Monte Carlo rows of k = 1 (the trace
    norm's r x r or D x D route), "exact" for the ExactDecayRows of k >= 2."""

    n: int
    k: int
    route: str
    rows: tuple[DecayRow, ...] | tuple[ExactDecayRow, ...]


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
    c: float | None,
    rng: np.random.Generator,
) -> tuple[float, float, float]:
    """(value, bootstrap stderr, split-half null floor) on the D x D route,
    against the mean of batches_b, or against c I when batches_b is None.

    The half-vs-half distance runs at twice the variance of the full mean,
    so the one-sided noise level is half of it; two noisy sides combine in
    quadrature.
    """
    nb = len(batches_a)
    h = nb // 2
    buf, other = np.empty_like(batches_a[0]), np.empty_like(batches_a[0])

    def distance(ia, ib) -> float:
        diff = _mean_into(buf, batches_a, ia)
        if batches_b is None:
            diff.flat[:: len(diff) + 1] -= c
        else:
            diff -= _mean_into(other, batches_b, ib)
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


def check_decay_args(n: int, k: int, t_list, samples: int | None) -> None:
    """ValidationError unless decay_experiment accepts (n, k, t_list,
    samples); a range past n fails at its ends, before any of its values is
    listed.  A k = 1 row needs its dense Choi register and NUM_BATCHES
    samples, a k >= 2 row the k-copy tables and no samples."""
    if not t_list:
        raise ValidationError("need at least one t")
    if not all(1 <= t <= n for ts in ((*t_list[:1], *t_list[-1:]), t_list) for t in ts):
        raise ValidationError("every t must satisfy 1 <= t <= n")
    if k == 1:
        _choi_dims(Haar(n), k)
        _batch_split(samples)
    else:
        check_table_args(k, n)


def _permutation_rows(k: int) -> list[int]:
    """The monomials that are permutation operators T_pi, one per pi in S_k."""
    row = {tuple(ones.tolist()): i for i, ones in enumerate(_site_stack(k)[1])}
    perms = itertools.permutations(range(k))
    return [row[tuple(np.sort(_permutation_ones(pi, 2)).tolist())] for pi in perms]


def _haar_seed(k: int, t: int) -> np.ndarray:
    """S_t = G_t[:, P] Lambda_t^+ G_t[P, :], the block of a Haar seed on t
    qubits (module docstring); Lambda_t is singular where 2^t < k."""
    g, p = gram_matrix(k, t), _permutation_rows(k)
    inverse, *_ = _stable_inverse(g[np.ix_(p, p)])
    return g[:, p] @ inverse @ g[p, :]


def _sandwich_row(n: int, k: int, t: int, seed: np.ndarray) -> ExactDecayRow:
    """The exact row of C1 (U_t x I) C2 against Haar on n qubits, for a seed
    on t qubits whose block is `seed` (_haar_seed for a Haar seed)."""
    w = weingarten_table(k, n).weingarten
    r = seed * (gram_matrix(k, n - t) if n > t else 1.0)  # G_0 is all ones
    wr = w @ r
    ev = np.abs(np.linalg.eigvals(w @ (r - _haar_seed(k, n))))
    frobenius = float(np.sum(ev**2))  # tr((W Delta)^2): the eigenvalues are real
    off = np.delete(np.diag(seed), _permutation_rows(k))
    return ExactDecayRow(
        t,
        float(np.sum(wr * wr.T)),
        frobenius,
        float(ev.max()),
        0.5 * math.sqrt(frobenius),
        float(np.sum(off**2)),
        float(np.abs(off).max(initial=0.0)),  # no monomial outside P at k <= 3
    )


def decay_experiment(
    n: int,
    k: int,
    t_list: list[int],
    samples: int,
    rng: np.random.Generator,
) -> DecayReport:
    """Distance of E_t = {C1 (U_t x I) C2} from Haar, for each t.

    At k >= 2 every row is exact and draws nothing.  At k = 1 the Haar
    reference is exactly I / D, and each row is a Monte Carlo estimate of
    S samples on the r x r route when S < D, else on the D x D route;
    choi_trace_distance is the two-sided Monte Carlo path.
    """
    check_decay_args(n, k, t_list, samples)
    ts = sorted(set(t_list))
    if k > 1:
        rows = tuple(_sandwich_row(n, k, t, _haar_seed(k, t)) for t in ts)
        return DecayReport(n, k, "exact", rows)
    dim = 4**n  # the Choi dimension d^2k
    _, used = _batch_split(samples)
    route = "gram" if used < dim else "dense"
    rows = []
    for t in ts:
        spec = Homeopathy(n, t, Haar(t))
        if route == "gram":
            est = _distance_from_gram(_batched_gram(spec, k, samples, rng), 1 / dim, dim, rng)
        else:
            batches = _batched_choi(spec, k, samples, rng)[0]
            est = _distance_from_batches(batches, None, 1 / dim, rng)
        rows.append(DecayRow(t, *est, used))
    return DecayReport(n, k, route, tuple(rows))

