"""Command-line experiment drivers.

Every subcommand writes its artifacts into an output directory plus a
`.manifest.json` sibling recording version, seed, parameter tree, and wall
time.  CSV artifacts are byte-stable for a fixed (subcommand, flags, seed);
the manifest is not, because it records wall time.  The drivers are the only
writers of files: the library returns results, and `_record` writes them.

List-valued flags (`commutant --k/--n`, `decay --k`, `distinguish --t`) run
the subcommand once per value, each run writing what it writes alone.  Every
value is checked before the first run, so a bad value writes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
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
from .moments import check_decay_args, decay_experiment, envelope_satisfied, fitted_log2_slope
from .moments import monotone_above_floor

OUTPUT_DIR_ENV = "KDESIGN_OUTPUT_DIR"
MANIFEST_SCHEMA_VERSION = 1
ATTACK_SCHEMA_VERSION = 1
LIST_HELP = "a value, a range '1..5' or a list '1,3,5'; one run per value"
MAX_LIST_RUNS = 1000  # runs one command may start over its list-valued flags

# CSV headers, each written once: the artifacts and the --help epilogs use them
FRAME_POTENTIAL_COLUMNS = "ensemble,n,k,samples,estimate,stderr,seed"
DECAY_COLUMNS = "t,distance,stderr,floor,samples,seed"
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
    subcommand: str,
    stem: str,
    spec: dict,
    artifacts: dict[str, str],
    started: float,
) -> list[str]:
    """Write each `{suffix: text}` artifact as `<stem><suffix>`, then the
    manifest, into --out, else $KDESIGN_OUTPUT_DIR, else the working
    directory.  Returns the artifact paths."""
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
        "subcommand": subcommand,
        "seed": getattr(args, "seed", None),
        "spec": spec,
        "artifacts": [os.path.basename(p) for p in paths],
        "wall_time_seconds": time.monotonic() - started,
        "numerics": {"numpy": np.__version__, "cpu_count": os.cpu_count()}
        | {var: os.environ.get(var) for var in THREAD_ENV_VARS},
    }
    write(f"{stem}.manifest.json", _json(manifest))
    return paths


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


def _for_each(body, check, args: argparse.Namespace, **values) -> int:
    """Run a single-value body once per combination of the listed values, in
    order, once their count (a range's read from its ends, so nothing is
    listed) is at most MAX_LIST_RUNS and `check` has accepted every one.
    Each run re-seeds from --seed, so it writes the bytes of its value alone."""
    count = math.prod(v.stop - v.start if isinstance(v, range) else len(v) for v in values.values())
    if count > MAX_LIST_RUNS:
        raise ValidationError(f"the lists make {count} runs, more than {MAX_LIST_RUNS}")
    runs = [
        argparse.Namespace(**{**vars(args), **dict(zip(values, combo))})
        for combo in itertools.product(*values.values())
    ]
    for run in runs:
        check(run)
    for run in runs:
        body(run)
    return 0


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def _ensemble_from_args(args: argparse.Namespace):
    if args.ensemble == "haar":
        return Haar(args.n)
    if args.ensemble == "clifford":
        return CliffordUniform(args.n)
    if args.t is None:
        raise ValidationError("homeopathy ensemble needs --t")
    return Homeopathy(args.n, args.t, Haar(args.t))


def cmd_commutant(args: argparse.Namespace) -> int:
    ks, ns = _parse_list("--k", args.k), _parse_list("--n", args.n)
    return _for_each(_commutant, lambda a: check_table_args(a.k, a.n), args, k=ks, n=ns)


def _commutant(args: argparse.Namespace) -> None:
    started = time.monotonic()
    table = weingarten_table(args.k, args.n)
    [path] = _record(
        args,
        "commutant",
        f"commutant_k{args.k}_n{args.n}",
        {"k": args.k, "n": args.n},
        {".json": export_weingarten_table(table)},
        started,
    )
    print(
        f"commutant: k={args.k} n={args.n}, {len(table.monomials)} monomials, "
        f"pseudo_inverse={table.pseudo} -> {path}"
    )


def cmd_frame_potential(args: argparse.Namespace) -> int:
    started = time.monotonic()
    rng = _rng(args.seed)
    spec = _ensemble_from_args(args)
    estimate, stderr = frame_potential(spec, args.k, args.samples, rng)
    row = (args.ensemble, args.n, args.k, args.samples, estimate, stderr, args.seed)
    [path] = _record(
        args,
        "frame-potential",
        f"frame_potential_{args.ensemble}_n{args.n}_k{args.k}_seed{args.seed}",
        {"ensemble": to_config(spec), "k": args.k, "samples": args.samples},
        {".csv": _csv(FRAME_POTENTIAL_COLUMNS, [row])},
        started,
    )
    print(
        f"frame-potential: {args.ensemble} n={args.n} k={args.k} "
        f"-> {estimate:.6f} +- {stderr:.6f} ({args.samples} samples) -> {path}"
    )
    return 0


def cmd_decay(args: argparse.Namespace) -> int:
    ks = _parse_list("--k", args.k)
    args.t = _parse_list("--t", args.t)  # one sweep over t per run
    return _for_each(_decay, lambda a: check_decay_args(a.n, a.k, a.t), args, k=ks)


def _decay(args: argparse.Namespace) -> None:
    started = time.monotonic()
    ts = list(args.t)
    report = decay_experiment(args.n, args.k, ts, args.samples, _rng(args.seed))
    rows = [(r.t, r.distance, r.stderr, r.floor, r.samples, args.seed) for r in report.rows]
    [path] = _record(
        args,
        "decay",
        f"decay_n{args.n}_k{args.k}_seed{args.seed}",
        {"n": args.n, "k": args.k, "t": ts, "samples": args.samples},
        {".csv": _csv(DECAY_COLUMNS, rows)},
        started,
    )
    slope = fitted_log2_slope(report)
    slope_text = "n/a" if slope is None else f"{slope:.3f}"
    print(
        f"decay: n={args.n} k={args.k} t={ts[0]}..{ts[-1]}, "
        f"monotone={monotone_above_floor(report)} "
        f"envelope={envelope_satisfied(report)} log2_slope={slope_text} -> {path}"
    )


def cmd_distinguish(args: argparse.Namespace) -> int:
    ts = _parse_list("--t", args.t)
    return _for_each(_distinguish, lambda a: check_distinguish_args(a.n, a.t), args, t=ts)


def _distinguish(args: argparse.Namespace) -> None:
    started = time.monotonic()
    rng = _rng(args.seed)
    l = args.l if args.l is not None else 3 * args.t + 2
    source_report, haar_report = distinguish_vs_haar(
        CompressibleSource(args.n, args.t), l, args.epsilon_t, args.trials, rng, args.thresholded
    )
    row = AdvantageRow.from_reports(source_report, haar_report)
    summary = {
        "schema_version": ATTACK_SCHEMA_VERSION,
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "epsilon_t": args.epsilon_t,
        "rows": [dataclasses.asdict(row)],
    }
    *_, summary_json = _record(
        args,
        "distinguish",
        f"distinguish_n{args.n}_t{args.t}_seed{args.seed}",
        {
            "n": args.n,
            "t": args.t,
            "l": l,
            "trials": args.trials,
            "epsilon_t": args.epsilon_t,
            "thresholded": args.thresholded,
        },
        {
            "_source.csv": _csv(TRIAL_COLUMNS, enumerate(source_report.statistics)),
            "_haar.csv": _csv(TRIAL_COLUMNS, enumerate(haar_report.statistics)),
            ".json": _json(summary),
        },
        started,
    )
    print(
        f"distinguish: n={args.n} t={args.t} l={l} copies={row.copies}, "
        f"source={row.source_mean:.4f} haar={row.haar_mean:.4f} "
        f"advantage={row.advantage:.4f} +- {row.stderr:.4f} -> {summary_json}"
    )


def cmd_twirl_check(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if args.inputs < 1:
        raise ValidationError(f"--inputs must be at least 1, got {args.inputs}")
    rng = _rng(args.seed)
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
    [path] = _record(
        args,
        "twirl-check",
        f"twirl_check_n{args.n}_k{args.k}_seed{args.seed}",
        {"n": args.n, "k": args.k, "inputs": args.inputs},
        {".csv": _csv(TWIRL_COLUMNS, rows)},
        started,
    )
    max_gap = max(r[1] for r in rows)
    max_idem = max(r[2] for r in rows)
    print(
        f"twirl-check: n={args.n} k={args.k}, max clifford-vs-haar gap "
        f"{max_gap:.3e}, max idempotence error {max_idem:.3e} -> {path}"
    )
    return 0


def cmd_vandermonde(args: argparse.Namespace) -> int:
    started = time.monotonic()
    report = vandermonde_bound_check(args.k)
    rows = zip(itertools.count(1), report.row_sums, report.bounds, report.ratios)
    [path] = _record(
        args,
        "vandermonde",
        f"vandermonde_k{args.k}",
        {"k": args.k},
        {".csv": _csv(VANDERMONDE_COLUMNS, rows)},
        started,
    )
    verdict = "all bounds satisfied" if report.all_ok else "BOUND VIOLATED"
    print(
        f"vandermonde: k={args.k}, {verdict} "
        f"(max row-sum/bound ratio {report.max_ratio:.3e}) -> {path}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdesign",
        description="Seeded experiment drivers; artifacts land in --out "
        f"(or ${OUTPUT_DIR_ENV}, default cwd).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_out(p):
        p.add_argument("--out", help="output directory (overrides the environment)")

    p = sub.add_parser(
        "commutant",
        help="export the Gram/Weingarten table for (k, n)",
        epilog="Artifact: JSON archive with hex-exact gram/weingarten matrices "
        "and the monomial list.",
    )
    p.add_argument("--k", required=True, help=LIST_HELP)
    p.add_argument("--n", required=True, help=LIST_HELP)
    add_out(p)
    p.set_defaults(func=cmd_commutant)

    p = sub.add_parser(
        "frame-potential",
        help="Monte Carlo frame potential of an ensemble",
        epilog=f"CSV columns: {FRAME_POTENTIAL_COLUMNS}.",
    )
    p.add_argument("--ensemble", choices=["haar", "clifford", "homeopathy"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, help="inner register size (homeopathy only)")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    add_out(p)
    p.set_defaults(func=cmd_frame_potential)

    p = sub.add_parser(
        "decay",
        help="Choi-distance decay of the sandwiched ensemble versus t",
        epilog=f"CSV columns: {DECAY_COLUMNS}.",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", required=True, help=LIST_HELP)
    p.add_argument("--t", required=True, help="range '1..5' or list '1,3,5'")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    add_out(p)
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser(
        "distinguish",
        help="Bell-difference distinguisher advantage per t",
        epilog=f"CSV columns (per arm): {TRIAL_COLUMNS}. JSON: advantage row with "
        "means, stderr, l, copies.",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", required=True, help=LIST_HELP)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--l", type=int, help="measurement rounds (default 3t+2)")
    p.add_argument("--epsilon-t", type=float, default=0.5)
    p.add_argument(
        "--thresholded",
        action="store_true",
        help="record 0/1 threshold outcomes instead of raw squared expectations",
    )
    add_out(p)
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser(
        "twirl-check",
        help="compare Clifford and Haar twirls on random inputs",
        epilog=f"CSV columns: {TWIRL_COLUMNS}.",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--inputs", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)
    add_out(p)
    p.set_defaults(func=cmd_twirl_check)

    p = sub.add_parser(
        "vandermonde",
        help="exact-rational inverse row-sum bounds",
        epilog=f"CSV columns: {VANDERMONDE_COLUMNS}.",
    )
    p.add_argument("--k", type=int, required=True)
    add_out(p)
    p.set_defaults(func=cmd_vandermonde)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
