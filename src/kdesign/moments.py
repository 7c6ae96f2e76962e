"""Distances between moment channels and the decay-in-t experiment.

Channel distances are measured on Choi states: the plug-in statistic
||J_A - J_B||_1 / 2 lower-bounds the diamond distance of the k-fold
channels.  Plug-in trace norms of noisy estimates are biased upward, so
every estimate carries an empirical null floor calibrated by a split-half
comparison at matched sample size; claims are made only above the floor.
Standard errors come from a batch-means bootstrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import (
    EnsembleSpec,
    Haar,
    Homeopathy,
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
    exact_reference: bool


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2)||a - b||_1 for Hermitian a, b."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def _mean(mats: list[np.ndarray]) -> np.ndarray:
    return sum(mats) / len(mats)


def _batched_choi(
    spec: EnsembleSpec, k: int, samples: int, rng: np.random.Generator
) -> tuple[list[np.ndarray], int]:
    per = samples // NUM_BATCHES
    if per < 1:
        raise ValidationError(f"need at least {NUM_BATCHES} samples")
    return [moment_choi(spec, k, per, rng) for _ in range(NUM_BATCHES)], per * NUM_BATCHES


def _split_half_distance(batches: list[np.ndarray]) -> float:
    h = len(batches) // 2
    return trace_distance(_mean(batches[:h]), _mean(batches[h:]))


def _distance_from_batches(
    batches_a: list[np.ndarray],
    batches_b: list[np.ndarray] | None,
    exact_ref: np.ndarray | None,
    rng: np.random.Generator,
) -> tuple[float, float, float]:
    """(value, bootstrap stderr, split-half null floor).

    The half-vs-half distance runs at twice the variance of the full mean,
    so the one-sided noise level is half of it; two noisy sides combine in
    quadrature.
    """
    ref = exact_ref if batches_b is None else _mean(batches_b)
    value = trace_distance(_mean(batches_a), ref)
    nb = len(batches_a)
    boots = np.empty(BOOTSTRAP_DRAWS)
    for i in range(BOOTSTRAP_DRAWS):
        ia = rng.integers(nb, size=nb)
        ra = _mean([batches_a[x] for x in ia])
        if batches_b is None:
            rb = exact_ref
        else:
            ib = rng.integers(nb, size=nb)
            rb = _mean([batches_b[x] for x in ib])
        boots[i] = trace_distance(ra, rb)
    stderr = float(boots.std(ddof=1))
    fa = _split_half_distance(batches_a)
    if batches_b is None:
        floor = fa / 2.0
    else:
        floor = math.hypot(fa, _split_half_distance(batches_b)) / 2.0
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
    exact_reference: bool = True,
) -> DecayReport:
    """Distance of E_t = {C1 (U_t x I) C2} from Haar, for each t.

    The Haar reference is the closed-form Choi state when available
    (exact_reference), else a shared Monte Carlo estimate at matched size.
    """
    ts = sorted(set(t_list))
    if not ts:
        raise ValidationError("need at least one t")
    if ts[0] < 1 or ts[-1] > n:
        raise ValidationError("every t must satisfy 1 <= t <= n")
    ref = exact_moment_choi(Haar(n), k) if exact_reference else None
    ref_batches = None
    if ref is None:
        ref_batches, _ = _batched_choi(Haar(n), k, samples, rng)
    rows = []
    for t in ts:
        spec = Homeopathy(n, t, Haar(t))
        batches, used = _batched_choi(spec, k, samples, rng)
        value, stderr, floor = _distance_from_batches(batches, ref_batches, ref, rng)
        rows.append(DecayRow(t, value, stderr, floor, used))
    return DecayReport(n, k, tuple(rows), ref is not None)


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


def write_decay_csv(report: DecayReport, path: str, seed: int) -> None:
    lines = ["t,distance,stderr,floor,samples,seed"]
    for r in report.rows:
        lines.append(f"{r.t},{r.distance!r},{r.stderr!r},{r.floor!r},{r.samples},{seed}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
