"""Spans around the library's public functions, recorded from outside.

`Tracer.install` replaces each listed function in its defining module and
in every module that imported it by name, so calls from the benchmark and
calls between library modules both pass through the wrapper.  Spans are
kept in memory as (name, start, end, parent) and written out at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# The public functions timed per layer, by defining module.
LAYER_FUNCTIONS = {
    "f2": ["rref_basis", "span_intersect", "symplectic_complement"],
    "pauli": [
        "random_clifford",
        "clifford_to_matrix",
        "pauli_expectations_all",
        "stabilizer_group_of",
        "clifford_inverse",
    ],
    "dense": [
        "haar_unitary",
        "haar_state",
        "pauli_distribution",
        "xor_convolve",
        "bell_difference_table",
        "draw_from_table",
    ],
    "commutant": [
        "enumerate_monomials",
        "monomial_site_matrix",
        "gram_matrix",
        "weingarten_table",
        "permutation_gram",
        "clifford_twirl",
        "haar_twirl",
    ],
    "ensembles": ["sample", "frame_potential", "moment_choi", "exact_moment_choi"],
    "moments": ["trace_distance", "decay_experiment"],
    "attack": ["make_compressible", "compress", "sample_attack_statistic"],
}

QUALNAMES = [f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS.items() for fn in fns]


class Tracer:
    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.moment_choi_flops = 0.0
        self.attack_nonempty = 0

    def install(self) -> None:
        modules = list(self.modules.values())
        for mod_name, fns in LAYER_FUNCTIONS.items():
            home = self.modules[mod_name]
            for fn in fns:
                orig = getattr(home, fn)
                wrapper = self._span(f"{mod_name}.{fn}", orig)
                for m in modules:
                    if getattr(m, fn, None) is orig:
                        self._patch(m, fn, wrapper)
        # S is non-trivial when the attack's subspace helper returns a basis.
        attack = self.modules["attack"]
        self._patch(attack, "_nontrivial_subspace", self._observe_subspace(attack._nontrivial_subspace))

    def uninstall(self) -> None:
        for m, name, orig in reversed(self._patches):
            setattr(m, name, orig)
        self._patches.clear()

    def _patch(self, module, name, new) -> None:
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, new)

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        on_call = self._count_choi_flops if name == "ensembles.moment_choi" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                if on_call is not None:
                    on_call(*args, **kwargs)

        return wrapper

    def _count_choi_flops(self, spec, k, samples, *_args, **_kw) -> None:
        # one rank-1 update of a (d^2k x d^2k) complex matrix per sample, 8 flops per entry
        self.moment_choi_flops += samples * float(1 << (2 * k * spec.n_qubits)) ** 2 * 8

    def _observe_subspace(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.attack_nonempty += bool(out)
            return out

        return wrapper

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """<module>.<fn>.calls and .self_s for every wrapped function."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        out: dict[str, tuple[float, str]] = {}
        for q in QUALNAMES:
            out[f"{q}.calls"] = (calls[q], "count")
            out[f"{q}.self_s"] = (self_s[q], "s")
        out["ensembles.moment_choi.gflop"] = (self.moment_choi_flops / 1e9, "GFLOP")
        trials = calls["attack.sample_attack_statistic"]
        ratio = self.attack_nonempty / trials if trials else 0.0
        out["attack.sample_attack_statistic.nonempty_ratio"] = (ratio, "ratio")
        return out

    def covered_s(self) -> float:
        """Time inside top-level spans, the part of a run the layers explain."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
