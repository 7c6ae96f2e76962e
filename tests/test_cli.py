"""End-to-end checks of the experiment drivers."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import io
import itertools
import json
import pkgutil
import platform
import re
import shlex
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kdesign
from kdesign import cli
from kdesign.commutant import PauliMonomial, export_weingarten_table, weingarten_table
from kdesign.errors import InternalConsistencyError


def run(argv):
    return cli.main(argv)


def test_vandermonde_artifacts(tmp_path, capsys):
    assert run(["vandermonde", "--k", "6", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "all bounds satisfied" in out
    lines = (tmp_path / "vandermonde_k6.csv").read_text().strip().split("\n")
    assert lines[0] == "i,row_sum,bound,ratio"
    assert len(lines) == 7
    for line in lines[1:]:
        ratio = float(line.split(",")[3])
        assert 0 < ratio <= 1


def test_commutant_archive_round_trip(tmp_path, capsys):
    assert run(["commutant", "--k", "2", "--n", "1", "--out", str(tmp_path)]) == 0
    assert "2 monomials" in capsys.readouterr().out
    text = (tmp_path / "commutant_k2_n1.json").read_text()
    table = weingarten_table(2, 1)
    assert text == export_weingarten_table(table)  # exporting twice is byte-identical
    doc = json.loads(text)
    assert (doc["k"], doc["n"]) == (2, 1)
    for key in ("gram", "weingarten"):
        assert doc[key] == [[v.hex() for v in row] for row in getattr(table, key).tolist()]
    monomials = [
        PauliMonomial(2, m["m"], tuple(m["v_cols"]), tuple(m["m_upper"])) for m in doc["monomials"]
    ]
    assert tuple(monomials) == table.monomials
    assert doc["gram_min_singular"] == table.gram_min_singular.hex()


@pytest.mark.parametrize(
    "ensemble,n,extra,config",
    [
        ("haar", 2, [], {"variant": "haar", "n": 2}),
        ("clifford", 2, [], {"variant": "clifford_uniform", "n": 2}),
        (
            "homeopathy",
            3,
            ["--t", "2"],
            {"variant": "homeopathy", "n": 3, "t": 2, "inner": {"variant": "haar", "n": 2}},
        ),
    ],
    ids=["haar", "clifford", "homeopathy"],
)
def test_frame_potential_csv(tmp_path, capsys, ensemble, n, extra, config):
    rc = run(
        ["frame-potential", "--ensemble", ensemble, "--n", str(n), *extra]
        + ["--k", "1", "--samples", "500", "--seed", "3", "--out", str(tmp_path)]
    )
    assert rc == 0
    stem = f"frame_potential_{ensemble}_n{n}_k1_seed3"
    lines = (tmp_path / f"{stem}.csv").read_text().strip().split("\n")
    assert lines[0] == "ensemble,n,k,samples,estimate,stderr,seed"
    fields = lines[1].split(",")
    assert fields[0] == ensemble
    # every ensemble here is a 1-design: E|tr(U^dag V)|^2 = 1
    assert float(fields[4]) == pytest.approx(1.0, abs=0.2)
    # the manifest records the spec through to_config, its one program caller
    manifest = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
    assert manifest["spec"]["ensemble"] == config


def test_decay_csv_byte_identical_across_runs(tmp_path):
    argv = ["decay", "--n", "2", "--k", "1", "--t", "1..2", "--samples", "2000", "--seed", "7"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    csv_a = (a / "decay_n2_k1_seed7.csv").read_bytes()
    csv_b = (b / "decay_n2_k1_seed7.csv").read_bytes()
    assert csv_a == csv_b
    header = csv_a.decode().split("\n")[0]
    assert header == "t,distance,stderr,floor,samples,seed"


def test_decay_records_the_t_values_of_its_rows(tmp_path, capsys):
    argv = ["decay", "--n", "2", "--k", "1", "--t", "2,1,2", "--samples", "10", "--seed", "1"]
    assert run(argv + ["--out", str(tmp_path)]) == 0
    assert "t=1..2," in capsys.readouterr().out
    rows = (tmp_path / "decay_n2_k1_seed1.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2"]
    doc = json.loads((tmp_path / "decay_n2_k1_seed1.manifest.json").read_text())
    assert doc["spec"]["t"] == [1, 2]
    # S = 10 < D = 16 samples per row: the r x r route, 10 draws for each of two rows
    assert (doc["spec"]["route"], doc["spec"]["samples_drawn"]) == ("gram", 20)


def test_decay_at_k2_is_exact_and_quick(tmp_path, capsys):
    # the Clifford group is a 3-design, so every k = 2 sandwich is exactly Haar
    argv = ["decay", "--n", "3", "--k", "2", "--t", "1..3", "--samples", "200", "--seed", "7"]
    assert run(argv + ["--out", str(tmp_path)]) == 0
    assert ", exact," in capsys.readouterr().out
    header, *rows = (tmp_path / "decay_n3_k2_seed7.csv").read_text().splitlines()
    assert header == cli.EXACT_DECAY_COLUMNS
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3"]
    for row in rows:
        _, _, frobenius, spectral, bound, *limits = map(float, row.split(","))
        assert frobenius < 1e-25 and spectral < 1e-12 and bound < 1e-12
        assert limits == [0.0, 0.0]  # every k = 2 monomial is a permutation


def test_exact_decay_needs_neither_samples_nor_seed(tmp_path, capsys):
    exact = ["decay", "--n", "20", "--k", "4", "--t", "1..6"]
    assert run(exact + ["--out", str(tmp_path)]) == 0
    assert run(exact + ["--samples", "10", "--seed", "1", "--out", str(tmp_path)]) == 0
    csv = (tmp_path / "decay_n20_k4.csv").read_bytes()
    assert csv == (tmp_path / "decay_n20_k4_seed1.csv").read_bytes()
    assert json.loads((tmp_path / "decay_n20_k4.manifest.json").read_text())["seed"] is None


def test_decay_at_k1_counts_rows_above_floor(tmp_path, capsys):
    # an exact 1-design at S = 200 >= D = 16: every row at its floor
    argv = ["decay", "--n", "2", "--k", "1", "--t", "1..2", "--samples", "200", "--seed", "7"]
    assert run(argv + ["--out", str(tmp_path)]) == 0
    assert ", 0 of 2 rows above floor ->" in capsys.readouterr().out


def test_distinguish_outputs_and_determinism(tmp_path, capsys):
    argv = ["distinguish", "--n", "3", "--t", "0", "--trials", "25", "--seed", "5"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(argv + ["--out", str(a)]) == 0
    assert "advantage=" in capsys.readouterr().out
    assert run(argv + ["--out", str(b)]) == 0
    for name in (
        "distinguish_n3_t0_seed5_source.csv",
        "distinguish_n3_t0_seed5_haar.csv",
        "distinguish_n3_t0_seed5.json",
    ):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    doc = json.loads((a / "distinguish_n3_t0_seed5.json").read_text())
    assert doc["rows"][0]["l"] == 2
    assert doc["rows"][0]["copies"] == 10
    assert doc["rows"][0]["advantage"] > 0.5


def test_distinguish_runs_at_the_pauli_table_bound(tmp_path, capsys):
    argv = ["distinguish", "--n", "8", "--t", "0,8", "--trials", "3", "--seed", "1"]
    assert run(argv + ["--out", str(tmp_path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_twirl_check_flags_three_design(tmp_path, capsys):
    rc = run(
        ["twirl-check", "--n", "1", "--k", "2", "--inputs", "2", "--seed", "1", "--out", str(tmp_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "max clifford-vs-haar gap" in out
    lines = (tmp_path / "twirl_check_n1_k2_seed1.csv").read_text().strip().split("\n")
    assert lines[0] == "input,clifford_vs_haar,idempotence_error"
    for line in lines[1:]:
        assert float(line.split(",")[1]) < 1e-10


def test_manifest_contents(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert run(["vandermonde", "--k", "3", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "vandermonde_k3.manifest.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["subcommand"] == "vandermonde"
    assert doc["seed"] is None
    assert doc["spec"] == {"k": 3}
    assert doc["artifacts"] == ["vandermonde_k3.csv"]
    assert doc["wall_time_seconds"] >= 0
    assert isinstance(doc["tool_version"], str)
    numerics = doc["numerics"]
    assert set(numerics) == {"numpy", "blas", "machine", "cpu_count", *cli.THREAD_ENV_VARS}
    assert numerics["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert numerics["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert numerics["machine"] == platform.machine()
    assert numerics["OMP_NUM_THREADS"] == "3" and numerics["MKL_NUM_THREADS"] is None
    # a numpy that reports no BLAS records null
    monkeypatch.setattr(np, "show_config", lambda mode: {})
    assert run(["vandermonde", "--k", "3", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "vandermonde_k3.manifest.json").read_text())
    assert doc["numerics"]["blas"] is None


def test_output_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    assert run(["vandermonde", "--k", "2"]) == 0
    assert (tmp_path / "vandermonde_k2.csv").exists()


def test_validation_failure_exits_2(tmp_path, capsys):
    rc = run(["commutant", "--k", "9", "--n", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    def boom(k):
        raise InternalConsistencyError("synthetic")

    monkeypatch.setattr(cli, "vandermonde_bound_check", boom)
    rc = run(["vandermonde", "--k", "2", "--out", str(tmp_path)])
    assert rc == 3
    assert "internal consistency" in capsys.readouterr().err


def test_missing_seed_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["frame-potential", "--ensemble", "haar", "--n", "1", "--k", "1", "--samples", "10"])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["vandermonde", "--k", "2", "--frobnicate"])
    assert exc.value.code == 2


def test_t_range_parsing():
    assert cli._parse_list("--t", "1..4") == range(1, 5)
    assert cli._parse_list("--t", "2,5,3") == [2, 5, 3]
    assert cli._parse_list("--t", "3") == [3]


DECAY = ["decay", "--n", "2", "--samples", "20", "--seed", "1"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(DECAY + ["--k", "1", "--t", "1.."], "--t", id="1.."),
        pytest.param(DECAY + ["--k", "1", "--t", "abc"], "--t", id="abc"),
        pytest.param(DECAY + ["--k", "1", "--t", "1,x"], "--t", id="1,x"),
        pytest.param(DECAY + ["--k", "1..", "--t", "1"], "--k", id="decay-k-1.."),
        pytest.param(
            ["distinguish", "--n", "3", "--t", "5..1", "--trials", "2", "--seed", "1"],
            "--t",
            id="distinguish-t-5..1",
        ),
        pytest.param(["commutant", "--k", "2", "--n", "x"], "--n", id="commutant-n-x"),
    ],
)
def test_bad_t_range_exits_2(tmp_path, capsys, argv, flag):
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert f"{flag} takes a range" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# 10^11 values: listing them would take 800 GB; 10^30 has no len().  The
# last two argvs hold only valid values, but more runs than MAX_LIST_RUNS.
HUGE, HUGER = str(10**11), str(10**30)


@pytest.mark.parametrize(
    "argv",
    [
        ["distinguish", "--n", "6", "--t", f"0..{HUGE}", "--trials", "1", "--seed", "1"],
        ["distinguish", "--n", "6", "--t", f"0..{HUGER}", "--trials", "1", "--seed", "1"],
        ["distinguish", "--n", "6", "--t", f"{HUGE}..{HUGER}", "--trials", "1", "--seed", "1"],
        DECAY + ["--k", "1", "--t", f"1..{HUGE}"],
        DECAY + ["--k", "1", "--t", f"1..{HUGER}"],
        DECAY + ["--k", f"1..{HUGE}", "--t", "1"],
        # every value valid for the exact k = 4 rows, but 10^11 rows in one sweep
        pytest.param(
            ["decay", "--n", HUGE, "--k", "4", "--t", f"1..{HUGE}"] + DECAY[3:],
            id="decay-n1e11-k4",
        ),
        ["commutant", "--k", f"2..{HUGE}", "--n", "1"],
        ["commutant", "--k", "2", f"--n=-{HUGE}..2"],
        ["commutant", "--k", "2", "--n", f"1..{HUGE}"],
        ["commutant", "--k", "2", "--n", f"1..{HUGER}"],
        # copy registers of 2^(nk) dimensions, turned away on the exponent nk
        pytest.param(["twirl-check", "--n", "1100", "--k", "1", "--seed", "1"], id="twirl-n1100"),
        pytest.param(["twirl-check", "--n", "300", "--k", "4", "--seed", "1"], id="twirl-n300-k4"),
        pytest.param(["twirl-check", "--n", HUGE, "--k", "1", "--seed", "1"], id="twirl-n1e11"),
    ],
    ids=lambda argv: f"{argv[0]}-{'-'.join(a for a in argv if '..' in a)}",
)
def test_huge_range_with_a_bad_value_exits_2_without_listing_it(tmp_path, capsys, argv):
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = run(argv + ["--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert peak < 1 << 20  # nothing per value
    assert not out.exists()


# one list run against the single-value runs it stands for
LIST_RUNS = {
    "decay": (
        ["decay", "--n", "2", "--t", "1..2", "--samples", "200", "--seed", "7"],
        {"--k": ["1", "2"]},
    ),
    "distinguish": (
        ["distinguish", "--n", "3", "--trials", "10", "--seed", "5"],
        {"--t": ["0", "1", "3"]},
    ),
    "commutant": (["commutant"], {"--k": ["2", "3"], "--n": ["1", "2"]}),
}


def _outputs(out: Path) -> dict[str, object]:
    """Artifact bytes, and manifests without their wall time."""
    found = {}
    for p in out.iterdir():
        if p.name.endswith(".manifest.json"):
            doc = json.loads(p.read_text())
            doc.pop("wall_time_seconds")
            found[p.name] = doc
        else:
            found[p.name] = p.read_bytes()
    return found


@pytest.mark.parametrize("name", sorted(LIST_RUNS))
def test_list_run_matches_single_value_runs(tmp_path, name):
    base, lists = LIST_RUNS[name]
    joined = [x for flag, values in lists.items() for x in (flag, ",".join(values))]
    assert run(base + joined + ["--out", str(tmp_path / "list")]) == 0
    combos = list(itertools.product(*lists.values()))
    for combo in combos:
        single = [x for flag, value in zip(lists, combo) for x in (flag, value)]
        assert run(base + single + ["--out", str(tmp_path / "single")]) == 0
    listed = _outputs(tmp_path / "list")
    assert len(listed) >= 2 * len(combos)
    assert listed == _outputs(tmp_path / "single")


@pytest.mark.parametrize("eps", ["nan", "2", "0"])
def test_distinguish_epsilon_out_of_range_exits_2(tmp_path, capsys, eps):
    out = tmp_path / "out"
    argv = ["distinguish", "--n", "3", "--t", "0", "--trials", "2", "--seed", "1"]
    assert run(argv + ["--thresholded", "--epsilon-t", eps, "--out", str(out)]) == 2
    assert "epsilon_t" in capsys.readouterr().err
    assert not out.exists()


def test_distinguish_epsilon_without_thresholded_exits_2(tmp_path, capsys):
    # raw tr^2 runs read no threshold, so a threshold given to one is an error
    out = tmp_path / "out"
    argv = ["distinguish", "--n", "3", "--t", "1", "--trials", "5", "--seed", "1"]
    assert run(argv + ["--epsilon-t", "0.3", "--out", str(out)]) == 2
    assert "--thresholded" in capsys.readouterr().err
    assert not out.exists()
    assert run(argv + ["--out", str(out)]) == 0
    doc = json.loads((out / "distinguish_n3_t1_seed1.json").read_text())
    assert doc["epsilon_t"] == 0.5


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    lines = [
        line for block in blocks for line in block.splitlines() if line.startswith("kdesign ")
    ]
    assert len(lines) >= 6
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_readme_identifiers_resolve(pytestconfig):
    """Every backticked identifier in README names a kdesign module or an
    attribute path from one (or from a name a module imports, such as np), a
    dataclass field, a subcommand, a registered mark, a test-name prefix, a
    benchmark workload or a file of the repository."""
    root = Path(__file__).resolve().parents[1]
    prose = re.sub(r"^```.*?^```", "", (root / "README.md").read_text(), flags=re.M | re.S)
    spans = set(re.findall(r"`([A-Za-z_][\w.-]*)`", prose))
    modules = {"kdesign": kdesign} | {
        m.name: importlib.import_module(f"kdesign.{m.name}")
        for m in pkgutil.iter_modules(kdesign.__path__)
        if m.name != "__main__"  # importing it runs the command line
    }
    scopes = [modules, *(vars(m) for m in modules.values())]
    fields = {
        f.name
        for scope in scopes[1:]
        for obj in scope.values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        for f in dataclasses.fields(obj)
    }
    [subcommands] = [
        a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    marks = {line.split(":")[0] for line in pytestconfig.getini("markers")}
    tests = {
        name
        for path in [*root.glob("tests/test_*.py"), root / "kdbench" / "test_checks.py"]
        for name in re.findall(r"^def (test_\w+)", path.read_text(), re.M)
    }
    workloads = {w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]}

    def attribute_path(span: str) -> bool:
        head, *rest = span.split(".")
        for obj in (scope[head] for scope in scopes if head in scope):
            for part in rest:
                obj = getattr(obj, part, None)
            if obj is not None:
                return True
        return False

    unresolved = sorted(
        span
        for span in spans
        if not (
            attribute_path(span)
            or span in fields | set(subcommands) | marks | workloads
            or any(name == span or name.startswith(span + "_") for name in tests)
            or (root / span).is_file()
        )
    )
    assert unresolved == []


@pytest.mark.parametrize("inputs", ["0", "-3"])
def test_twirl_check_needs_an_input(tmp_path, capsys, inputs):
    out = tmp_path / "out"
    argv = ["twirl-check", "--n", "1", "--k", "2", "--inputs", inputs, "--seed", "1"]
    assert run(argv + ["--out", str(out)]) == 2
    assert "--inputs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_homeopathy_frame_potential_needs_t(tmp_path, capsys):
    rc = run(
        [
            "frame-potential",
            "--ensemble",
            "homeopathy",
            "--n",
            "2",
            "--k",
            "1",
            "--samples",
            "100",
            "--seed",
            "2",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 2
    assert "needs --t" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["frame-potential", "--ensemble", "haar", "--n", "1", "--k", "1", "--samples", "10"],
        ["decay", "--n", "2", "--k", "1", "--t", "1", "--samples", "20"],
        ["distinguish", "--n", "2", "--t", "0", "--trials", "2"],
        ["twirl-check", "--n", "1", "--k", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_exits_2_before_writing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(argv + ["--seed", "-1", "--out", str(out)]) == 2
    assert "--seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


# list runs whose bad value comes after a good one, including a bad (k, n) pair
BAD_LATER_VALUE = {
    "commutant-k": ["commutant", "--k", "2,9", "--n", "1"],
    "commutant-n": ["commutant", "--k", "2,3", "--n", "1,0"],
    "decay-k": ["decay", "--n", "5", "--k", "1,6", "--t", "1", "--samples", "20", "--seed", "1"],
    # the exact k = 2 rows read no samples; the k = 1 rows need ten
    "decay-samples": ["decay", "--n", "2", "--k", "2,1", "--t", "1", "--samples", "9", "--seed", "1"],
    # the k = 1 run needs --samples and --seed, the exact k = 4 run neither
    "decay-flags": ["decay", "--n", "2", "--k", "4,1", "--t", "1"],
    "distinguish-t": ["distinguish", "--n", "3", "--t", "0,4", "--trials", "2", "--seed", "1"],
    # past the one 4^n Pauli-table bound
    "distinguish-n9": ["distinguish", "--n", "9", "--t", "0,1", "--trials", "2", "--seed", "1"],
    # the source range needs a qubit
    "distinguish-n0": ["distinguish", "--n", "0", "--t", "0", "--trials", "2", "--seed", "1"],
    # past the cap of 4^8 samples per trial
    "distinguish-l": [
        "distinguish", "--n", "2", "--t", "0,1", "--trials", "1", "--seed", "1", "--l", "65537",
    ],
}


@pytest.mark.parametrize("name", sorted(BAD_LATER_VALUE))
def test_bad_later_value_exits_2_before_any_run(tmp_path, monkeypatch, capsys, name):
    argv = BAD_LATER_VALUE[name]

    def never(args):
        raise AssertionError("a run started before every listed value was checked")

    monkeypatch.setattr(cli, f"_{argv[0]}", never)
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if name.startswith("distinguish-n"):
        assert f"n={argv[2]}" in err
    assert not out.exists()


# inputs rejected by the library before anything is drawn or written
FP = ["frame-potential", "--k", "2", "--samples", "10", "--seed", "1", "--ensemble"]
BAD_BEFORE_DRAW = {
    "clifford-n40": FP + ["clifford", "--n", "40"],
    "homeopathy-n40": FP + ["homeopathy", "--n", "40", "--t", "2"],
    "homeopathy-t-over-n": FP + ["homeopathy", "--n", "2", "--t", "3"],
    # --t sizes a homeopathy seed; other ensembles have none to size
    "haar-t": FP + ["haar", "--n", "1", "--t", "5"],
    "clifford-t": FP + ["clifford", "--n", "1", "--t", "5"],
    # d^(4k) = 2^4000 overflows float64
    "frame-potential-k1000": [
        "frame-potential", "--ensemble", "haar", "--n", "1", "--k", "1000",
        "--samples", "2", "--seed", "1",
    ],
    "twirl-n20-k5": ["twirl-check", "--n", "20", "--k", "5", "--seed", "1"],
    "twirl-k5": ["twirl-check", "--n", "1", "--k", "5", "--inputs", "1", "--seed", "1"],
    # the Monte Carlo rows of k = 1 need --samples and --seed
    "decay-k1-no-samples": ["decay", "--n", "2", "--k", "1", "--t", "1", "--seed", "1"],
    "decay-k1-no-seed": ["decay", "--n", "2", "--k", "1", "--t", "1", "--samples", "20"],
    "vandermonde-k0": ["vandermonde", "--k", "0"],
    "vandermonde-k17": ["vandermonde", "--k", "17"],
    # l samples per trial past the cap; numpy used to fail to allocate them
    "distinguish-l1e12": [
        "distinguish", "--n", "2", "--t", "1", "--trials", "1", "--seed", "1",
        "--l", "1000000000000",
    ],
}


@pytest.mark.parametrize("name", sorted(BAD_BEFORE_DRAW))
def test_bad_input_exits_2_and_writes_nothing(tmp_path, capsys, name):
    argv = BAD_BEFORE_DRAW[name] + ["--out", str(tmp_path / "D")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "D").exists()


# one small run of every subcommand; those not in ONE_RUN run two list values
EVERY_SUBCOMMAND = {
    "commutant": ["commutant", "--k", "2", "--n", "1,2"],
    "frame-potential": FP + ["haar", "--n", "1"],
    "decay": DECAY + ["--k", "1,4", "--t", "1..2"],
    "distinguish": ["distinguish", "--n", "2", "--t", "0,1", "--trials", "3", "--seed", "1"],
    "twirl-check": ["twirl-check", "--n", "1", "--k", "2", "--inputs", "2", "--seed", "1"],
    "vandermonde": ["vandermonde", "--k", "3"],
}


ONE_RUN = ("frame-potential", "twirl-check", "vandermonde")


@pytest.mark.parametrize("name", sorted(EVERY_SUBCOMMAND))
def test_manifests_list_exactly_the_files_written(tmp_path, capsys, name):
    """The run contract: each run writes its artifacts and a manifest naming
    exactly the other files of its stem, and prints one line
    `<subcommand>: ... -> <its last artifact>`."""
    assert run(EVERY_SUBCOMMAND[name] + ["--out", str(tmp_path)]) == 0
    written = {p.name for p in tmp_path.iterdir()}
    manifests = {n for n in written if n.endswith(".manifest.json")}
    listed, last = set(), set()
    for m in manifests:
        doc = json.loads((tmp_path / m).read_text())
        assert doc["subcommand"] == name
        stem = m.removesuffix(".manifest.json")
        assert sorted(doc["artifacts"]) == sorted(n for n in written - {m} if n.startswith(stem))
        listed.update(doc["artifacts"])
        last.add(str(tmp_path / doc["artifacts"][-1]))
    assert listed == written - manifests
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(manifests) >= (1 if name in ONE_RUN else 2)
    assert all(re.fullmatch(rf"{name}: .+ -> .+", line) for line in lines)
    assert {line.rsplit(" -> ", 1)[1] for line in lines} == last
    if name == "decay":  # S = 20 >= D = 16 at k = 1: the D x D route, 20 draws per row
        specs = [json.loads((tmp_path / m).read_text())["spec"] for m in manifests]
        routes = {spec["k"]: (spec["route"], spec["samples_drawn"]) for spec in specs}
        assert routes == {1: ("dense", 40), 4: ("exact", 0)}


@pytest.mark.parametrize("name", sorted(set(EVERY_SUBCOMMAND) - {"commutant"}))
def test_csv_headers_match_help_epilog(tmp_path, capsys, name):
    assert run(EVERY_SUBCOMMAND[name] + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        run([name, "--help"])
    help_words = capsys.readouterr().out.split()
    headers = {p.read_text().split("\n")[0] for p in tmp_path.glob("*.csv")}
    assert headers
    for header in headers:
        assert header + "." in help_words


# argv fuzzing: small accepted values, values just past each limit, and
# malformed lists; accepted sizes stay small enough to run each example fast
MALFORMED_LISTS = ["", "x", "1..", "..2", "3..1", "1,,2", "1.5"]


def _mostly(good, bad):
    """`good` three times in four, so most examples carry at most one bad value."""
    return st.integers(0, 3).flatmap(lambda i: bad if i == 0 else good)


def _ints(valid, bad=(0, -1)):
    return _mostly(st.sampled_from(valid), st.sampled_from([*bad, "x"])).map(str)


def _lists(valid, bad=(0, -1)):
    values = st.lists(_ints(valid, bad), min_size=1, max_size=3).map(",".join)
    return _mostly(values, st.sampled_from(MALFORMED_LISTS))


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def _argv(draw):
    name = draw(st.sampled_from(sorted(EVERY_SUBCOMMAND)))
    seed = ["--seed", draw(_ints([0, 7], (-1,)))]
    if name == "commutant":
        return [name, "--k", draw(_lists([1, 2, 3], (0, -1, 6))), "--n", draw(_lists([1, 2, 40]))]
    if name == "vandermonde":
        return [name, "--k", draw(_ints([1, 9, 16], (0, -1, 17)))]
    if name == "frame-potential":
        ensemble = _mostly(st.sampled_from(["haar", "clifford", "homeopathy"]), st.just("x"))
        argv = [name, "--ensemble", draw(ensemble)]
        argv += ["--n", draw(_ints([1, 2, 3], (0, -1, 13))), "--k", draw(_ints([1, 2, 3]))]
        argv += draw(_optional("--t", _ints([1, 2], (0, -1, 4))))
        return argv + ["--samples", draw(_ints([2, 40], (1, 0, -1)))] + seed
    if name == "decay":
        # k = 1 rows are Monte Carlo on a dense Choi register of 4^n, which
        # rejects n = 13; k >= 2 rows are exact at any n
        n = draw(_mostly(st.sampled_from([1, 2, 3, 50]), st.sampled_from([0, -1, 13])))
        argv = [name, "--n", str(n), "--k", draw(_lists([1, 2, 3, 4, 5], (0, -1, 6)))]
        argv += ["--t", draw(_lists([1, 2, 3], (0, -1, 4)))]
        # k = 1 needs --samples and --seed; the exact rows of k >= 2 read neither
        argv += draw(_optional("--samples", _ints([10, 40], (9, 0, -1))))
        return argv + draw(_mostly(st.just(seed), st.just([])))
    if name == "distinguish":
        argv = [name, "--n", draw(_ints([1, 2, 4], (0, -1, 7, 9)))]
        argv += ["--t", draw(_lists([0, 1, 4], (-1, 5))), "--trials", draw(_ints([1, 3]))]
        argv += draw(_optional("--l", _ints([1, 14])))
        eps = _mostly(st.sampled_from(["0.5", "1"]), st.sampled_from(["0", "-1", "2", "nan", "inf"]))
        argv += draw(_optional("--epsilon-t", eps))
        return argv + draw(st.sampled_from([[], ["--thresholded"]])) + seed
    argv = [name, "--n", draw(_ints([1, 2], (0, -1, 13)))]
    argv += ["--k", draw(_ints([1, 2, 3], (0, -1, 6)))]
    return argv + draw(_optional("--inputs", _ints([1, 2]))) + seed


@settings(max_examples=500, deadline=None)
@given(_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = run(argv + ["--out", str(out)])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert not out.exists()
