"""Command-line experiment drivers.

Every subcommand writes its artifacts into an output directory plus a
`.manifest.json` sibling recording version, seed, parameter tree, and wall
time.  CSV artifacts are byte-stable for a fixed (subcommand, flags, seed);
the manifest is not, because it records wall time.

List-valued flags (`commutant --k/--n`, `decay --k`, `distinguish --t`) run
the subcommand once per value, each run writing what it writes alone.  Every
value is checked before the first run, so a bad value writes nothing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .attack import (
    AdvantageRow,
    CompressibleSource,
    distinguish,
    write_advantage_json,
    write_trials_csv,
)
from .commutant import (
    check_table_args,
    clifford_twirl,
    export_weingarten_table,
    haar_twirl,
    vandermonde_bound_check,
    weingarten_table,
)
from .ensembles import CliffordUniform, Haar, Homeopathy, _choi_dims, frame_potential, to_config
from .errors import InternalConsistencyError, ValidationError
from .moments import (
    decay_experiment,
    envelope_satisfied,
    fitted_log2_slope,
    monotone_above_floor,
    write_decay_csv,
)

OUTPUT_DIR_ENV = "KDESIGN_OUTPUT_DIR"
MANIFEST_SCHEMA_VERSION = 1
LIST_HELP = "a value, a range '1..5' or a list '1,3,5'; one run per value"


def _resolve_out(explicit: str | None) -> str:
    out = explicit or os.environ.get(OUTPUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_manifest(
    out: str,
    stem: str,
    subcommand: str,
    seed: int | None,
    spec_tree: dict,
    artifacts: list[str],
    started: float,
) -> str:
    doc = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "tool_version": __version__,
        "subcommand": subcommand,
        "seed": seed,
        "spec": spec_tree,
        "artifacts": artifacts,
        "wall_time_seconds": time.monotonic() - started,
    }
    path = os.path.join(out, f"{stem}.manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _parse_list(flag: str, text: str) -> list[int]:
    """'1..5' -> [1,2,3,4,5]; '1,3,5' -> [1,3,5]; '3' -> [3]."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(part) for part in text.split(",")]
    except ValueError:
        values = []
    if not values:
        raise ValidationError(
            f"{flag} takes a range like 1..5 or a list like 1,3,5, got {text!r}"
        )
    return values


def _for_each(body, check, args: argparse.Namespace, **values: list[int]) -> int:
    """Run a single-value body once per combination of the listed values, in
    order, after `check` has accepted every combination.  Each run re-seeds
    from --seed, so it writes the same bytes as the run with that value
    alone."""
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
    out = _resolve_out(args.out)
    stem = f"commutant_k{args.k}_n{args.n}"
    path = os.path.join(out, f"{stem}.json")
    export_weingarten_table(table, path)
    _write_manifest(
        out,
        stem,
        "commutant",
        None,
        {"k": args.k, "n": args.n},
        [os.path.basename(path)],
        started,
    )
    print(
        f"commutant: k={args.k} n={args.n}, {len(table.monomials)} monomials, "
        f"pseudo_inverse={table.pseudo} -> {path}"
    )


def cmd_frame_potential(args: argparse.Namespace) -> int:
    started = time.monotonic()
    rng = _rng(args.seed)
    out = _resolve_out(args.out)
    spec = _ensemble_from_args(args)
    estimate, stderr = frame_potential(spec, args.k, args.samples, rng)
    stem = f"frame_potential_{args.ensemble}_n{args.n}_k{args.k}_seed{args.seed}"
    path = os.path.join(out, f"{stem}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ensemble,n,k,samples,estimate,stderr,seed\n")
        fh.write(
            f"{args.ensemble},{args.n},{args.k},{args.samples},"
            f"{estimate!r},{stderr!r},{args.seed}\n"
        )
    _write_manifest(
        out,
        stem,
        "frame-potential",
        args.seed,
        {"ensemble": to_config(spec), "k": args.k, "samples": args.samples},
        [os.path.basename(path)],
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
    return _for_each(_decay, lambda a: _choi_dims(Haar(a.n), a.k), args, k=ks)


def _decay(args: argparse.Namespace) -> None:
    started = time.monotonic()
    ts = args.t
    report = decay_experiment(
        args.n,
        args.k,
        ts,
        args.samples,
        _rng(args.seed),
        exact_reference=not args.mc_reference,
    )
    out = _resolve_out(args.out)
    stem = f"decay_n{args.n}_k{args.k}_seed{args.seed}"
    path = os.path.join(out, f"{stem}.csv")
    write_decay_csv(report, path, args.seed)
    _write_manifest(
        out,
        stem,
        "decay",
        args.seed,
        {
            "n": args.n,
            "k": args.k,
            "t": ts,
            "samples": args.samples,
            "exact_reference": report.exact_reference,
        },
        [os.path.basename(path)],
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
    return _for_each(_distinguish, lambda a: CompressibleSource(a.n, a.t), args, t=ts)


def _distinguish(args: argparse.Namespace) -> None:
    started = time.monotonic()
    rng = _rng(args.seed)
    l = args.l if args.l is not None else 3 * args.t + 2
    source_report = distinguish(
        CompressibleSource(args.n, args.t),
        l,
        args.epsilon_t,
        args.trials,
        rng,
        thresholded=args.thresholded,
    )
    haar_report = distinguish(
        CompressibleSource(args.n, args.n),
        l,
        args.epsilon_t,
        args.trials,
        rng,
        thresholded=args.thresholded,
    )
    row = AdvantageRow.from_reports(source_report, haar_report)
    out = _resolve_out(args.out)
    stem = f"distinguish_n{args.n}_t{args.t}_seed{args.seed}"
    source_csv = os.path.join(out, f"{stem}_source.csv")
    haar_csv = os.path.join(out, f"{stem}_haar.csv")
    summary_json = os.path.join(out, f"{stem}.json")
    write_trials_csv(source_report, source_csv)
    write_trials_csv(haar_report, haar_csv)
    write_advantage_json(
        [row],
        summary_json,
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        epsilon_t=args.epsilon_t,
    )
    _write_manifest(
        out,
        stem,
        "distinguish",
        args.seed,
        {
            "n": args.n,
            "t": args.t,
            "l": l,
            "trials": args.trials,
            "epsilon_t": args.epsilon_t,
            "thresholded": args.thresholded,
        },
        [os.path.basename(p) for p in (source_csv, haar_csv, summary_json)],
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
    out = _resolve_out(args.out)
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
    stem = f"twirl_check_n{args.n}_k{args.k}_seed{args.seed}"
    path = os.path.join(out, f"{stem}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("input,clifford_vs_haar,idempotence_error\n")
        for i, gap, idem in rows:
            fh.write(f"{i},{gap!r},{idem!r}\n")
    _write_manifest(
        out,
        stem,
        "twirl-check",
        args.seed,
        {"n": args.n, "k": args.k, "inputs": args.inputs},
        [os.path.basename(path)],
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
    out = _resolve_out(args.out)
    report = vandermonde_bound_check(args.k)
    stem = f"vandermonde_k{args.k}"
    path = os.path.join(out, f"{stem}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,row_sum,bound,ratio\n")
        for i, (s, b, r) in enumerate(
            zip(report.row_sums, report.bounds, report.ratios), start=1
        ):
            fh.write(f"{i},{s!r},{b!r},{r!r}\n")
    _write_manifest(
        out, stem, "vandermonde", None, {"k": args.k}, [os.path.basename(path)], started
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
        epilog="CSV columns: ensemble,n,k,samples,estimate,stderr,seed.",
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
        epilog="CSV columns: t,distance,stderr,floor,samples,seed.",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", required=True, help=LIST_HELP)
    p.add_argument("--t", required=True, help="range '1..5' or list '1,3,5'")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--mc-reference",
        action="store_true",
        help="estimate the reference moment by sampling instead of the exact form",
    )
    add_out(p)
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser(
        "distinguish",
        help="Bell-difference distinguisher advantage per t",
        epilog="CSV columns (per arm): trial,statistic. JSON: advantage row with "
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
        epilog="CSV columns: input,clifford_vs_haar,idempotence_error.",
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
        epilog="CSV columns: i,row_sum,bound,ratio.",
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
