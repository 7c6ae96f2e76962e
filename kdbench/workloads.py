"""The four benchmark workloads.

A workload turns its seed into inputs (`__init__`), warms up the code paths
it will time (`warm_up`), and then hands out rounds of operations.  Every
round is the same fixed list of operations, so a run that completes r
rounds attempts r times as many.  Each operation calls the library through
module attributes, which is where the tracer hooks in, and is checked
against values computed without the library (see checks.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    # clear every library cache first, as a fresh `kdesign` process starts
    cold: bool = False


class Workload:
    # the largest dense matrix the workload's BLAS calls see
    WARM_UP_DIM = 64

    def __init__(self, lib, seed: int) -> None:
        self.lib = lib
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def warm_up(self) -> None:
        rng = np.random.default_rng(self.seed)
        dim = self.WARM_UP_DIM
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        np.linalg.eigvalsh(a + a.conj().T)
        a @ a

    def round(self, i: int) -> list[Op]:
        raise NotImplementedError

    def final_check(self) -> str | None:
        """A check on the run as a whole, made after the rounds."""
        return None


class DecayN5(Workload):
    """Rows of decay_experiment(n=5, k=1, [t], S) against the exact Haar Choi
    state, as `kdesign decay --n 5 --k 1` and test_04 run them."""

    N, K, SAMPLES = 5, 1, 1000
    # the Choi states are 1024 x 1024, and the first eigvalsh of that size is slow
    WARM_UP_DIM = 1 << (2 * N * K)

    def round(self, i: int) -> list[Op]:
        t = 1 + (self.seed + i) % self.N
        return [
            Op(
                f"decay t={t}",
                lambda: self.lib.moments.decay_experiment(
                    self.N, self.K, [t], self.SAMPLES, self.rng
                ).rows[0],
                checks.check_decay_row,
            )
        ]

    def final_check(self) -> str | None:
        return checks.check_maximally_mixed(
            self.lib.ensembles.exact_moment_choi(self.lib.ensembles.Haar(self.N), self.K)
        )


class CliffordFpN2(Workload):
    """frame_potential on CliffordUniform(2) and Haar(2) at k = 2, 3, 4, as
    `kdesign frame-potential` and test_11 run them."""

    SAMPLES = 1000
    KS = (2, 3, 4)

    def __init__(self, lib, seed: int) -> None:
        super().__init__(lib, seed)
        self._clifford_moments: dict[int, float] | None = None

    def _clifford_second_moment(self, k: int) -> float:
        if self._clifford_moments is None:
            self._clifford_moments = checks.group_trace_moments(checks.clifford_group(2), 8)
        return self._clifford_moments[2 * k]

    def round(self, i: int) -> list[Op]:
        ens = self.lib.ensembles
        ops = []
        for k in self.KS:
            ops.append(
                Op(
                    f"fp clifford k={k}",
                    lambda k=k: ens.frame_potential(ens.CliffordUniform(2), k, self.SAMPLES, self.rng),
                    lambda r, k=k: checks.check_frame_potential(
                        *r,
                        checks.CLIFFORD_FRAME_POTENTIAL_N2[k],
                        self._clifford_second_moment(k),
                        self.SAMPLES,
                    ),
                )
            )
            ops.append(
                Op(
                    f"fp haar k={k}",
                    lambda k=k: ens.frame_potential(ens.Haar(2), k, self.SAMPLES, self.rng),
                    lambda r, k=k: checks.check_frame_potential(
                        *r,
                        checks.haar_trace_moment(k, 4),
                        checks.haar_trace_moment(2 * k, 4),
                        self.SAMPLES,
                    ),
                )
            )
        return ops


class AttackN6(Workload):
    """Bell-difference attack trials at n = 6 on t-compressible states, as
    `kdesign distinguish --n 6`, test_05 and test_10 run them."""

    N = 6
    TS = (0, 1, 2, 6)
    TRIALS_PER_T = 3

    def _trial(self, t: int):
        at, pa = self.lib.attack, self.lib.pauli
        psi = at.make_compressible(self.N, t, self.rng)
        group = pa.stabilizer_group_of(psi, t)
        c = at.compress(psi, group)
        stat = at.sample_attack_statistic(psi, 3 * t + 2, 0.5, self.rng)
        return t, psi.amplitudes, group, c, stat

    def round(self, i: int) -> list[Op]:
        return [
            Op(f"attack t={t}", lambda t=t: self._trial(t), self._check)
            for t in self.TS
            for _ in range(self.TRIALS_PER_T)
        ]

    def _check(self, r) -> str | None:
        t, amps, group, c, stat = r
        return (
            checks.check_stabilizer_group(group, amps, self.N, t)
            or checks.check_compression(c, amps, t)
            or checks.check_attack_statistic(stat, t)
        )


class CommutantK5(Workload):
    """Cold builds of the Clifford-commutant tables for k = 2..5, n = 1..3,
    and their use in twirls and exact Choi states, as `kdesign commutant`
    and tests 02, 03 and 08 run them."""

    BUILDS = [(k, n) for k in (2, 3, 4, 5) for n in (1, 2, 3)]
    TWIRLS = [(3, 2), (4, 2)]
    CHOIS = [(1, 4), (2, 2)]  # (n, k)

    def __init__(self, lib, seed: int) -> None:
        super().__init__(lib, seed)
        self.operands = {}
        for k, n in self.TWIRLS:
            dim = 1 << (n * k)
            raw = self.rng.normal(size=(dim, dim)) + 1j * self.rng.normal(size=(dim, dim))
            self.operands[k, n] = raw / np.linalg.norm(raw, 2)
        self._groups: dict[int, np.ndarray] = {}

    def _twirls(self, k: int, n: int):
        cm = self.lib.commutant
        o = self.operands[k, n]
        return cm.clifford_twirl(o, k, n).matrix, cm.haar_twirl(o, k, 1 << n).matrix

    def _choi_check(self, n: int, k: int):
        def check(choi):
            if n not in self._groups:
                self._groups[n] = checks.clifford_group(n)
            return checks.check_moment_choi(choi, checks.group_average_choi(self._groups[n], k))

        return check

    def round(self, i: int) -> list[Op]:
        cm, ens = self.lib.commutant, self.lib.ensembles
        ops = [
            Op(
                f"tables k={k} n={n}",
                lambda k=k, n=n: cm.weingarten_table(k, n),
                lambda table, k=k, n=n: checks.check_weingarten_table(table, k, n),
                cold=True,
            )
            for k, n in self.BUILDS
        ]
        ops += [
            Op(
                f"twirls k={k} n={n}",
                lambda k=k, n=n: self._twirls(k, n),
                lambda r, k=k: checks.check_twirls(*r, k),
                cold=True,
            )
            for k, n in self.TWIRLS
        ]
        ops += [
            Op(
                f"exact choi n={n} k={k}",
                lambda n=n, k=k: ens.exact_moment_choi(ens.CliffordUniform(n), k),
                self._choi_check(n, k),
                cold=True,
            )
            for n, k in self.CHOIS
        ]
        return ops


WORKLOADS = {
    "decay-n5": DecayN5,
    "clifford-fp-n2": CliffordFpN2,
    "attack-n6": AttackN6,
    "commutant-k5": CommutantK5,
}
