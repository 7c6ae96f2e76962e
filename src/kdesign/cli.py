"""Command-line experiment drivers.

Each subcommand is one body, `_<name>(args) -> (stem, spec, artifacts,
summary)`, declared in `build_parser` with the flags that repeat it, the
flag one run sweeps and its pre-run check.  `_for_each` is the one run
path: it checks every run, then times each body, has `_record` write the
artifacts and a `.manifest.json` sibling (version, seed, parameter tree,
wall time), and prints `<subcommand>: <summary> -> <last artifact>`.  CSV
artifacts are byte-stable for a fixed (subcommand, flags, seed); the
manifest is not.  The library returns results; only `_record` writes.

List-valued flags (`commutant --k/--n`, `decay --k`, `distinguish --t`) run
the body once per value, each run writing what it writes alone.  Every
value is checked before the first run, so a bad value writes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .attack import AdvantageRow, CompressibleSource, check_distinguish_args, distinguish_vs_haar
from .commutant import (
    check_table_args,
    check_twirl_args,
    clifford_twirl,
    export_weingarten_table,
    haar_twirl,
    vandermonde_bound_check,
    weingarten_table,
)
from .ensembles import CliffordUniform, Haar, Homeopathy, frame_potential, to_config
from .errors import InternalConsistencyError, ValidationError
from .moments import check_decay_args, decay_experiment

OUTPUT_DIR_ENV = "KDESIGN_OUTPUT_DIR"
MANIFEST_SCHEMA_VERSION = 1
ATTACK_SCHEMA_VERSION = 1
LIST_HELP = "a value, a range '1..5' or a list '1,3,5'; one run per value"
MAX_LIST_RUNS = 1000  # runs one command may start over its list-valued flags, times swept values
EPSILON_T = 0.5  # distinguish's threshold, recorded by every run, thresholded or not

# CSV headers, each written once: the artifacts and the --help epilogs use them
FRAME_POTENTIAL_COLUMNS = "ensemble,n,k,samples,estimate,stderr,seed"
DECAY_COLUMNS = "t,distance,stderr,floor,samples,seed"
EXACT_DECAY_COLUMNS = (
    "t,frame_potential,frobenius_gap,spectral_gap,choi_bound,limit_frobenius_gap,limit_spectral_gap"
)
TRIAL_COLUMNS = "trial,statistic"
TWIRL_COLUMNS = "input,clifford_vs_haar,idempotence_error"
VANDERMONDE_COLUMNS = "i,row_sum,bound,ratio"

# recorded in every manifest: LAPACK bits, and so k = 5 table archives, move with them
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _csv(header: str, rows) -> str:
    """CSV text; str() of a Python float is its shortest round-trip repr."""
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _record(
    args: argparse.Namespace,
    stem: str,
    spec: dict,
    artifacts: dict[str, str],
    wall: float,
) -> str:
    """Write each `{suffix: text}` artifact as `<stem><suffix>`, then the
    manifest, into --out, else $KDESIGN_OUTPUT_DIR, else the working
    directory.  Returns the last artifact's path."""
    out = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)

    def write(name: str, text: str) -> str:
        path = os.path.join(out, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    paths = [write(stem + suffix, text) for suffix, text in artifacts.items()]
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "tool_version": __version__,
        "subcommand": args.subcommand,
        "seed": getattr(args, "seed", None),
        "spec": spec,
        "artifacts": [os.path.basename(p) for p in paths],
        "wall_time_seconds": wall,
        "numerics": {
            "numpy": np.__version__,
            "blas": _blas(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        }
        | {var: os.environ.get(var) for var in THREAD_ENV_VARS},
    }
    write(f"{stem}.manifest.json", _json(manifest))
    return paths[-1]


def _blas() -> dict | None:
    """Name and version of the BLAS numpy was built with, as numpy reports
    them; None when it reports no BLAS."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if "name" not in blas or "version" not in blas:
        return None
    return {"name": blas["name"], "version": blas["version"]}


def _parse_list(flag: str, text: str) -> range | list[int]:
    """'1..5' -> range(1, 6), never listed here; '1,3,5' -> [1,3,5]; '3' -> [3]."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = range(int(lo), int(hi) + 1)
        else:
            values = [int(part) for part in text.split(",")]
    except ValueError:
        values = []
    if not values:
        raise ValidationError(
            f"{flag} takes a range like 1..5 or a list like 1,3,5, got {text!r}"
        )
    return values


def _for_each(args: argparse.Namespace) -> int:
    """The one run path.  Run the body once per combination of the listed
    values, in order, once their count times the count of swept values (a
    range's read from its ends, so nothing is listed) is at most
    MAX_LIST_RUNS and every run has passed the checks; time, record and
    announce each run.  Each run re-seeds from --seed, so it writes the bytes
    of its value alone."""
    values = {flag: _parse_list(f"--{flag}", getattr(args, flag)) for flag in args.lists}
    if args.sweep:  # one sweep over its values per run
        setattr(args, args.sweep, _parse_list(f"--{args.sweep}", getattr(args, args.sweep)))
    sizes = [*values.values(), *([getattr(args, args.sweep)] if args.sweep else [])]
    count = math.prod(v.stop - v.start if isinstance(v, range) else len(v) for v in sizes)
    if count > MAX_LIST_RUNS:
        raise ValidationError(f"the lists and sweep make {count} runs, more than {MAX_LIST_RUNS}")
    runs = [
        argparse.Namespace(**{**vars(args), **dict(zip(values, combo))})
        for combo in itertools.product(*values.values())
    ]
    for run in runs:
        if run.check:
            run.check(run)
    seed = getattr(args, "seed", None)  # None without the flag, or an exact decay without it
    if seed is not None and seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {seed}")
    for run in runs:
        started = time.monotonic()
        stem, spec, artifacts, summary = run.body(run)
        path = _record(run, stem, spec, artifacts, time.monotonic() - started)
        print(f"{run.subcommand}: {summary} -> {path}")
    return 0


def _ensemble_from_args(args: argparse.Namespace):
    if args.ensemble != "homeopathy":
        if args.t is not None:
            raise ValidationError(f"--t is for the homeopathy ensemble, not {args.ensemble}")
        return Haar(args.n) if args.ensemble == "haar" else CliffordUniform(args.n)
    if args.t is None:
        raise ValidationError("homeopathy ensemble needs --t")
    return Homeopathy(args.n, args.t, Haar(args.t))


def _commutant(args: argparse.Namespace):
    table = weingarten_table(args.k, args.n)
    return (
        f"commutant_k{args.k}_n{args.n}",
        {"k": args.k, "n": args.n},
        {".json": export_weingarten_table(table)},
        f"k={args.k} n={args.n}, {len(table.monomials)} monomials, "
        f"pseudo_inverse={table.pseudo}",
    )


def _frame_potential(args: argparse.Namespace):
    rng = np.random.default_rng(args.seed)
    spec = _ensemble_from_args(args)
    estimate, stderr = frame_potential(spec, args.k, args.samples, rng)
    row = (args.ensemble, args.n, args.k, args.samples, estimate, stderr, args.seed)
    return (
        f"frame_potential_{args.ensemble}_n{args.n}_k{args.k}_seed{args.seed}",
        {"ensemble": to_config(spec), "k": args.k, "samples": args.samples},
        {".csv": _csv(FRAME_POTENTIAL_COLUMNS, [row])},
        f"{args.ensemble} n={args.n} k={args.k} "
        f"-> {estimate:.6f} +- {stderr:.6f} ({args.samples} samples)",
    )


def _decay(args: argparse.Namespace):
    rng = np.random.default_rng(args.seed)
    report = decay_experiment(args.n, args.k, args.t, args.samples, rng)
    ts, rows = [r.t for r in report.rows], [dataclasses.astuple(r) for r in report.rows]
    if report.route == "exact":
        columns, drawn = EXACT_DECAY_COLUMNS, 0
        ratios = [
            (b.spectral_gap / a.spectral_gap) ** (1 / (b.t - a.t))
            for a, b in zip(report.rows, report.rows[1:])
            if a.spectral_gap
        ]
        worst = max(ratios, default=math.nan)
        verdict = f"exact, max spectral gap ratio per seed qubit {worst:.3f}"
    else:
        columns, drawn = DECAY_COLUMNS, sum(r.samples for r in report.rows)
        rows = [(*row, args.seed) for row in rows]
        # an exact 1-design puts every row at its floor
        above = sum(r.above_floor for r in report.rows)
        verdict = f"{above} of {len(rows)} rows above floor"
    spec = {"n": args.n, "k": args.k, "t": ts, "samples": args.samples}
    seed = "" if args.seed is None else f"_seed{args.seed}"
    return (
        f"decay_n{args.n}_k{args.k}{seed}",
        spec | {"route": report.route, "samples_drawn": drawn},
        {".csv": _csv(columns, rows)},
        f"n={args.n} k={args.k} t={ts[0]}..{ts[-1]}, {verdict}",
    )


def _check_decay(args: argparse.Namespace) -> None:
    """The Monte Carlo rows of k = 1 draw samples; the exact rows of k >= 2 read
    neither --samples nor --seed."""
    if args.k == 1 and (args.samples is None or args.seed is None):
        raise ValidationError("decay at k = 1 draws samples: it needs --samples and --seed")
    check_decay_args(args.n, args.k, args.t, args.samples)


def _check_distinguish(args: argparse.Namespace) -> None:
    check_distinguish_args(args.n, args.t, args.l)
    if args.epsilon_t is not None and not args.thresholded:
        raise ValidationError("--epsilon-t sets the threshold of --thresholded runs only")


def _distinguish(args: argparse.Namespace):
    rng = np.random.default_rng(args.seed)
    l = args.l if args.l is not None else 3 * args.t + 2
    eps = EPSILON_T if args.epsilon_t is None else args.epsilon_t
    source_report, haar_report = distinguish_vs_haar(
        CompressibleSource(args.n, args.t), l, eps, args.trials, rng, args.thresholded
    )
    row = AdvantageRow.from_reports(source_report, haar_report)
    summary = {
        "schema_version": ATTACK_SCHEMA_VERSION,
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "epsilon_t": eps,
        "rows": [dataclasses.asdict(row)],
    }
    return (
        f"distinguish_n{args.n}_t{args.t}_seed{args.seed}",
        {
            "n": args.n,
            "t": args.t,
            "l": l,
            "trials": args.trials,
            "epsilon_t": eps,
            "thresholded": args.thresholded,
        },
        {
            "_source.csv": _csv(TRIAL_COLUMNS, enumerate(source_report.statistics)),
            "_haar.csv": _csv(TRIAL_COLUMNS, enumerate(haar_report.statistics)),
            ".json": _json(summary),
        },
        f"n={args.n} t={args.t} l={l} copies={row.copies}, "
        f"source={row.source_mean:.4f} haar={row.haar_mean:.4f} "
        f"advantage={row.advantage:.4f} +- {row.stderr:.4f}",
    )


def _twirl_check(args: argparse.Namespace):
    if args.inputs < 1:
        raise ValidationError(f"--inputs must be at least 1, got {args.inputs}")
    rng = np.random.default_rng(args.seed)
    check_twirl_args(args.k, args.n)
    d = 2**args.n
    dim = d**args.k
    rows = []
    for i in range(args.inputs):
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        o = raw / np.linalg.norm(raw, 2)
        cliff = clifford_twirl(o, args.k, args.n).matrix
        haar = haar_twirl(o, args.k, d).matrix
        twice = clifford_twirl(cliff, args.k, args.n).matrix
        rows.append(
            (
                i,
                float(np.max(np.abs(cliff - haar))),
                float(np.max(np.abs(twice - cliff))),
            )
        )
    max_gap = max(r[1] for r in rows)
    max_idem = max(r[2] for r in rows)
    return (
        f"twirl_check_n{args.n}_k{args.k}_seed{args.seed}",
        {"n": args.n, "k": args.k, "inputs": args.inputs},
        {".csv": _csv(TWIRL_COLUMNS, rows)},
        f"n={args.n} k={args.k}, max clifford-vs-haar gap "
        f"{max_gap:.3e}, max idempotence error {max_idem:.3e}",
    )


def _vandermonde(args: argparse.Namespace):
    report = vandermonde_bound_check(args.k)
    rows = zip(itertools.count(1), report.row_sums, report.bounds, report.ratios)
    verdict = "all bounds satisfied" if report.all_ok else "BOUND VIOLATED"
    return (
        f"vandermonde_k{args.k}",
        {"k": args.k},
        {".csv": _csv(VANDERMONDE_COLUMNS, rows)},
        f"k={args.k}, {verdict} (max row-sum/bound ratio {report.max_ratio:.3e})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdesign",
        description="Seeded experiment drivers; artifacts land in --out "
        f"(or ${OUTPUT_DIR_ENV}, default cwd).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, body, help, epilog, lists=(), sweep=None, check=None):
        """`body` runs once per value of each flag in `lists`, sweeps all of
        `sweep`'s values, and starts once `check` has accepted every run."""
        p = sub.add_parser(name, help=help, epilog=epilog)
        p.add_argument("--out", help="output directory (overrides the environment)")
        p.set_defaults(body=body, lists=lists, sweep=sweep, check=check)
        return p

    p = add(
        "commutant",
        _commutant,
        "export the Gram/Weingarten table for (k, n)",
        "Artifact: JSON archive with hex-exact gram/weingarten matrices "
        "and the monomial list.",
        lists=("k", "n"),
        check=lambda a: check_table_args(a.k, a.n),
    )
    p.add_argument("--k", required=True, help=LIST_HELP)
    p.add_argument("--n", required=True, help=LIST_HELP)

    p = add(
        "frame-potential",
        _frame_potential,
        "Monte Carlo frame potential of an ensemble",
        f"CSV columns: {FRAME_POTENTIAL_COLUMNS}.",
    )
    p.add_argument("--ensemble", choices=["haar", "clifford", "homeopathy"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, help="inner register size (homeopathy only)")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add(
        "decay",
        _decay,
        "Choi-distance decay of the sandwiched ensemble versus t",
        "--samples and --seed: k = 1 only.\n"
        "CSV columns at k = 1, Monte Carlo rows:\n"
        f"  {DECAY_COLUMNS}.\n"
        "At k >= 2, exact rows that draw no samples:\n"
        f"  {EXACT_DECAY_COLUMNS}.",
        lists=("k",),
        sweep="t",
        check=_check_decay,
    )
    p.formatter_class = argparse.RawDescriptionHelpFormatter  # keeps each header on one line
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", required=True, help=LIST_HELP)
    p.add_argument("--t", required=True, help="range '1..5' or list '1,3,5'")
    p.add_argument("--samples", type=int, help="k = 1 only")
    p.add_argument("--seed", type=int, help="k = 1 only")

    p = add(
        "distinguish",
        _distinguish,
        "Bell-difference distinguisher advantage per t",
        f"CSV columns (per arm): {TRIAL_COLUMNS}. JSON: advantage row with "
        "means, stderr, l, copies.",
        lists=("t",),
        check=_check_distinguish,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", required=True, help=LIST_HELP)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--l", type=int, help="measurement rounds (default 3t+2)")
    p.add_argument("--epsilon-t", type=float, help=f"--thresholded only (default {EPSILON_T})")
    p.add_argument(
        "--thresholded",
        action="store_true",
        help="record 0/1 threshold outcomes instead of raw squared expectations",
    )

    p = add(
        "twirl-check",
        _twirl_check,
        "compare Clifford and Haar twirls on random inputs",
        f"CSV columns: {TWIRL_COLUMNS}.",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--inputs", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)

    p = add(
        "vandermonde",
        _vandermonde,
        "exact-rational inverse row-sum bounds",
        f"CSV columns: {VANDERMONDE_COLUMNS}.",
    )
    p.add_argument("--k", type=int, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _for_each(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
