import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import consensuslab
from consensuslab import cli, coalescing, harness
from consensuslab.cli import (
    BROKEN_PIPE,
    USAGE_ERROR,
    VALIDATION_FAILURE,
    main,
)
from consensuslab.core import StopCondition
from consensuslab.harness import ExperimentSpec, initial_counts
from consensuslab.rules import voter_rule


# the child interpreter imports the same package as the tests do
CLI_ENV = {**os.environ, "PYTHONPATH": str(Path(consensuslab.__file__).resolve().parents[1])}


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "consensuslab.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=CLI_ENV,
    )
    return proc


def test_parse_initial():
    # --init passes its spelling through to the spec, which builds the start
    for text, n, counts in [
        ("ncolor", 4, [1, 1, 1, 1]),
        ("balanced:4", 8, [2, 2, 2, 2]),
        ("explicit:4,3,1", 8, [4, 3, 1]),
    ]:
        args = cli.build_parser().parse_args(["simulate", "--init", text, "--n", str(n)])
        spec = cli._spec_from_args(args)
        assert spec.initial == text
        assert initial_counts(spec.initial, spec.n).tolist() == counts
    b = initial_counts("biased:3:2", 9)
    assert b.sum() == 9 and b[0] - b[-1] >= 2
    with pytest.raises(ValueError, match="init: cannot parse 'weird'"):
        cli._spec_from_args(cli.build_parser().parse_args(["simulate", "--init", "weird"]))


def test_simulate_emits_one_json_line_per_trial():
    proc = run_cli(
        "simulate", "--rule", "voter", "--n", "32", "--trials", "3", "--seed", "1",
        "--max-rounds", "300",
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert rec["rule"] == "voter"
    assert rec["n"] == 32
    assert rec["stop_time"] >= 1
    # the CLI, not the harness, stamps every record
    for line in lines:
        rec = json.loads(line)
        assert rec["subcommand"] == "simulate"
        assert rec["metadata"] == {"log_base": "e", "version": consensuslab.__version__}


def test_simulate_deterministic_across_worker_counts():
    args = ["simulate", "--rule", "voter", "--n", "32", "--trials", "8", "--seed", "3",
            "--max-rounds", "190"]
    out1 = run_cli(*args, "--workers", "1").stdout
    out4 = run_cli(*args, "--workers", "4").stdout
    assert out1 == out4
    # all-censored runs would be equal too: every trial must have stopped
    records = [json.loads(ln) for ln in out1.splitlines()]
    assert len(records) == 8
    assert all(r["stop_time"] is not None for r in records)


def test_simulate_blocks_deterministic_across_worker_counts():
    # 130 trials of 32 nodes run as blocks of 64, 64 and 2 trials: three jobs
    args = ["simulate", "--rule", "voter", "--n", "32", "--trials", "130", "--seed", "3",
            "--max-rounds", "1000"]
    out1 = run_cli(*args, "--workers", "1").stdout
    assert run_cli(*args, "--workers", "2").stdout == out1
    assert run_cli(*args, "--workers", "4").stdout == out1
    records = [json.loads(ln) for ln in out1.splitlines()]
    assert [r["trial"] for r in records] == list(range(130))
    assert all(r["stop_time"] is not None for r in records)


def test_two_choices_simulate_deterministic_across_worker_counts():
    # from n colours 2-Choices runs its mover-priced rounds, which must
    # depend on the (seed, trial) stream alone
    args = ["simulate", "--rule", "2choices", "--init", "ncolor", "--n", "200", "--trials", "6",
            "--seed", "4", "--max-rounds", "2000"]
    out1 = run_cli(*args, "--workers", "1").stdout
    out2 = run_cli(*args, "--workers", "2").stdout
    assert out1 == out2
    records = [json.loads(ln) for ln in out1.splitlines()]
    assert len(records) == 6
    assert all(r["stop_time"] is not None for r in records)


def test_simulate_spec_file(tmp_path):
    spec = {
        "rules": ["voter", "hmaj:3"],
        "n": 32,
        "initial": "ncolor",
        "kappa": 1,
        "max_rounds": 130,
        "trials": 2,
        "seed": 9,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = run_cli("simulate", "--spec", str(path))
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 4
    rules = {json.loads(ln)["rule"] for ln in lines}
    assert rules == {"voter", "hmaj:3"}


SPEC = {"rules": ["voter"], "n": 32, "initial": "ncolor", "trials": 1, "seed": 0}


@pytest.mark.parametrize(
    "raw, message",
    [
        # typos would otherwise run silently to the default kappa
        ({**SPEC, "kapa": 64, "max_round": 3}, "unknown field 'kapa'"),
        ({**SPEC, "record_every": 1}, "unknown field 'record_every'"),
        ([SPEC], "want a JSON object"),
        # the same range check as --workers, not a silent serial run
        ({**SPEC, "workers": -2}, "workers"),
        ({k: v for k, v in SPEC.items() if k != "n"}, "spec: missing field 'n'"),
    ],
)
def test_simulate_spec_file_rejects_malformed_specs(tmp_path, capsys, raw, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    assert main(["simulate", "--spec", str(path)]) == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "field, value",
    [
        ("initial", 5),
        ("rules", 5),
        ("rules", "voter"),  # a string, not a list of one
        ("rules", []),
        ("rules", ["voter", 3]),
        ("n", None),
        ("n", 8.7),  # not rounded down to 8
        ("trials", True),  # a bool is not an integer
        ("seed", 1.0),
        ("kappa", "2"),
        ("max_rounds", 1e3),
        ("workers", False),
    ],
)
def test_simulate_spec_file_rejects_mistyped_values(tmp_path, capsys, monkeypatch, field, value):
    monkeypatch.setattr(harness, "run_experiment", lambda *a, **k: pytest.fail("a run started"))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**SPEC, field: value}))
    assert main(["simulate", "--spec", str(path)]) == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: spec: {field} "), captured.err


@pytest.mark.parametrize(
    "flag, value",
    [("--rule", "2choices"), ("--n", "999"), ("--init", "balanced:2"), ("--kappa", "2"),
     ("--max-rounds", "5"), ("--trials", "5"), ("--seed", "3"), ("--n", "1024")],
)
def test_simulate_spec_file_rejects_run_flags(tmp_path, capsys, flag, value):
    # the file is the whole spec: a run flag next to it would be parsed and
    # then ignored, even one equal to its default
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    assert main(["simulate", "--spec", str(path), flag, value]) == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert flag in captured.err


def test_simulate_spec_file_combines_with_output_flags(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**SPEC, "max_rounds": 200}))
    out, summary = tmp_path / "runs.jsonl", tmp_path / "summary.csv"
    argv = ["simulate", "--spec", str(path), "--workers", "1", "--out", str(out),
            "--summary", str(summary)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    (rec,) = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert (rec["rule"], rec["n"], rec["seed"]) == ("voter", 32, 0)
    assert summary.read_text().startswith("rule,")


@pytest.mark.parametrize(
    "rule, init, n", [("hmaj:4", "ncolor", "256"), ("hmaj:5", "balanced:40", "400")]
)
def test_simulate_h_majority_from_many_colors(capsys, rule, init, n):
    # C(259, 4) ~ 1.8e8 sample multisets at the start: the plurality DP
    # walks the 256 colors, with no limit on k^h
    code = main(["simulate", "--rule", rule, "--init", init, "--n", n, "--trials", "4", "--seed", "0"])
    assert code == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["trial"] for r in records] == [0, 1, 2, 3]
    assert all(r["stop_time"] >= 1 for r in records)


def test_simulate_flag_defaults():
    args = cli.build_parser().parse_args(["simulate"])
    assert cli._spec_from_args(args) == ExperimentSpec(
        rules=(voter_rule(),),
        n=1024,
        initial="ncolor",
        stop=StopCondition(kappa=1, max_rounds=10**6),
        trials=100,
        seed=0,
    )


def test_simulate_writes_files(tmp_path):
    out = tmp_path / "runs.jsonl"
    summary = tmp_path / "summary.csv"
    proc = run_cli(
        "simulate", "--rule", "voter", "--n", "32", "--trials", "2", "--seed", "1",
        "--max-rounds", "180", "--out", str(out), "--summary", str(summary),
    )
    assert proc.returncode == 0
    assert len(out.read_text().strip().splitlines()) == 2
    assert summary.read_text().startswith("rule,")


def test_simulate_summary_without_out(tmp_path, capsys):
    summary = tmp_path / "summary.csv"
    code = main(["simulate", "--rule", "voter", "--n", "32", "--trials", "2", "--seed", "1",
                 "--max-rounds", "180", "--summary", str(summary)])
    assert code == 0
    # the records still go to stdout, and the summary is written as well
    assert len(capsys.readouterr().out.strip().splitlines()) == 2
    with open(summary) as fh:
        (row,) = csv.DictReader(fh)
    assert (row["rule"], row["trials"], row["censored"]) == ("voter", "2", "0")


def test_compare_subcommand():
    proc = run_cli(
        "compare", "--fast", "3maj", "--slow", "voter", "--n", "128",
        "--trials", "100", "--seed", "2", "--epsilon", "0.2", "--expect-pass",
        "--max-rounds", "1900",
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rec["passed"] is True
    assert set(rec) == {
        "rule_fast", "rule_slow", "n", "kappa", "seed", "trials", "max_cdf_deficit", "epsilon",
        "delta", "passed", "censored_fast", "censored_slow", "metadata", "subcommand",
    }
    # 2-Choices on either side runs through the same block driver
    for fast, slow, n, init in (("hmaj:3", "2choices", "512", "ncolor"),
                                ("2choices", "voter", "64", "balanced:3")):
        proc = run_cli("compare", "--fast", fast, "--slow", slow, "--n", n, "--init", init,
                       "--trials", "100", "--expect-pass")
        assert proc.returncode == 0, proc.stderr
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        assert (rec["rule_fast"], rec["rule_slow"]) == (fast, slow)
        assert rec["censored_fast"] == rec["censored_slow"] == 0


def test_dominance_check_exit_codes():
    ok = run_cli(
        "dominance-check", "--p", "3maj", "--q", "voter", "--n", "6", "--expect-zero"
    )
    assert ok.returncode == 0
    bad = run_cli(
        "dominance-check", "--p", "hmaj:4", "--q", "3maj", "--n", "12", "--expect-zero"
    )
    assert bad.returncode == VALIDATION_FAILURE
    # without --expect-zero, reporting violations is not a failure
    tolerated = run_cli("dominance-check", "--p", "hmaj:4", "--q", "3maj", "--n", "12")
    assert tolerated.returncode == 0
    rec = json.loads(tolerated.stdout.strip().splitlines()[-1])
    assert set(rec) == {
        "n", "rule_p", "rule_q", "pairs_checked", "violations", "metadata", "subcommand",
    }
    assert rec["violations"] and all(
        set(v) == {"c", "c_tilde", "prefix", "margin"} for v in rec["violations"]
    )


def test_duality_subcommand():
    proc = run_cli(
        "duality", "--graph", "complete:16", "--t-max", "50", "--runs", "5", "--seed", "1"
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rec["violations"] == 0
    assert rec["subcommand"] == "duality"
    assert rec["metadata"]["version"] == consensuslab.__version__


def test_duality_cycle_and_file_graphs(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    for graph in ("cycle:8", f"file:{path}"):
        proc = run_cli(
            "duality", "--graph", graph, "--t-max", "40", "--runs", "3", "--seed", "2"
        )
        assert proc.returncode == 0


def test_drift_bound_subcommand():
    proc = run_cli(
        "drift-bound", "--form", "lw14", "--a", "0.0001", "--b", "2",
        "--x-min", "10", "--x-max", "1000", "--x0", "1000",
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    assert abs(rec["bound"] - 1990.0) < 1e-9
    assert set(rec) == {"form", "bound", "metadata", "subcommand"}
    proc = run_cli("drift-bound", "--form", "additive", "--m", "100", "--k-prime", "0", "--c", "2")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rec["bound"] == 50.0


@pytest.mark.parametrize(
    "flags",
    [
        # k' = 0 reads h(1), outside [10, 1000]; reading h(10) would give
        # 91.0 for a chain whose mean hitting time is 100
        ["--a", "1", "--b", "0", "--x-min", "10", "--x-max", "1000", "--m", "100",
         "--k-prime", "0"],
        # 1/h over [5, 1000] on a domain of [10, 20]
        ["--a", "1", "--b", "2", "--x-min", "10", "--x-max", "20", "--m", "1000",
         "--k-prime", "5"],
        # k' = -1 < x_min, where the closed form would take the complex (-1)**0.5
        ["--a", "1", "--b", "0.5", "--x-min", "1", "--x-max", "20", "--m", "5",
         "--k-prime", "-1"],
    ],
    ids=["head-below-domain", "integral-beyond-domain", "negative-floor"],
)
def test_drift_bound_generalized_stays_inside_the_domain(flags):
    proc = run_cli("drift-bound", "--form", "generalized", *flags)
    assert proc.returncode == USAGE_ERROR
    assert proc.stdout == "" and proc.stderr.startswith("error: ")
    assert "domain" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


@pytest.mark.parametrize(
    "flags, named",
    [
        # an infinite input, named by its flag
        (["--form", "additive", "--m", "inf"], "--m must be finite, got inf"),
        (["--form", "additive", "--m=-inf"], "--m must be finite, got -inf"),
        (["--form", "generalized", "--m", "inf", "--x-max", "inf"], "--x-max must be finite"),
        (["--form", "lw14", "--x-max", "inf", "--x0", "inf"], "--x-max must be finite"),
        # finite inputs whose bound is not: (m - k')/c, x_min/h(x_min), x**b and 1/h(x)
        (["--form", "additive", "--c", "1e-320", "--m", "1e10"], "the bound overflows"),
        (["--form", "lw14", "--a", "1e-320"], "the bound overflows"),
        (["--form", "lw14", "--x-min", "1e200", "--x-max", "1e201", "--x0", "1e200", "--b", "2"],
         "the bound overflows"),
        (["--form", "lw14", "--x-min", "1e-300", "--x-max", "2e-300", "--x0", "2e-300", "--b", "3"],
         "the bound overflows"),
    ],
)
def test_drift_bound_rejects_infinite_inputs_and_bounds(capsys, flags, named):
    assert main(["drift-bound", *flags]) == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert named in captured.err, captured.err


def test_reports_print_no_non_json_token(monkeypatch, capsys, tmp_path):
    # JSON has no NaN or Infinity: such a report is an error, neither printed nor written
    monkeypatch.setattr(harness, "run_two_phase_check", lambda *a, **k: {"x": float("nan")})
    out = tmp_path / "out.jsonl"
    assert main(["two-phase", "--out", str(out)]) == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "JSON" in captured.err
    assert not out.exists()


def _after_cli_import(openblas_threads):
    """(Threads:, OPENBLAS_NUM_THREADS) of a fresh interpreter that has
    imported consensuslab.cli and run a small dominance-check through
    cli.main, which loads numpy, with the variable unset or given its value."""
    env = {k: v for k, v in CLI_ENV.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    code = (
        "import contextlib, io, os\n"
        "from consensuslab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['dominance-check', '--p', '3maj', '--q', 'voter', '--n', '4']) == 0\n"
        "status = dict(line.split(':', 1) for line in open('/proc/self/status'))\n"
        "print(status['Threads'].strip(), os.environ['OPENBLAS_NUM_THREADS'])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(proc.stdout.split())


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_cli_runs_blas_on_one_thread():
    # numpy's OpenBLAS starts a worker per extra core unless told otherwise
    # (on one core it starts none, and this test cannot tell)
    assert _after_cli_import(None) == ("1", "1")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_cli_keeps_a_given_blas_thread_count():
    assert _after_cli_import("2")[1] == "2"


# numpy and every package module but cli: what --help and a usage error leave unloaded
_ALL = {"numpy", "core", "sampler", "rules", "dominance", "coalescing", "drift", "harness"}
# what the exact subcommands, which build no random generator, leave unloaded
_OPENSSL = {"hashlib", "_hashlib"}


@pytest.mark.parametrize(
    "argv, code, loads, skips",
    [
        (["--help"], 0, set(), _ALL),
        (["simulate", "--trials", "0"], USAGE_ERROR, set(), _ALL),
        (["duality", "--graph", "cycle:8", "--t-max", "10", "--runs", "1"], 0,
         {"coalescing", "sampler"}, {"rules", "harness", "dominance", "drift", "_hashlib"}),
        (["dominance-check", "--p", "3maj", "--q", "voter", "--n", "4"], 0,
         {"dominance", "rules"}, {"coalescing", "harness", "drift", *_OPENSSL}),
        (["drift-bound", "--form", "additive", "--m", "10", "--c", "2"], 0,
         {"drift"}, {"harness", "rules", "coalescing", "dominance", *_OPENSSL}),
    ],
    ids=["help", "usage-error", "duality", "dominance-check", "drift-bound"],
)
def test_cli_loads_only_what_its_subcommand_runs(argv, code, loads, skips):
    # a fresh interpreter: this one has imported every module already
    child = (
        "import contextlib, io, json, sys\n"
        "from consensuslab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        "        code = cli.main(sys.argv[1:])\n"
        "    except SystemExit as exc:  # --help\n"
        "        code = exc.code\n"
        # a None entry is a blocked import, not a loaded module
        "names = [m.removeprefix('consensuslab.') for m, mod in sys.modules.items()\n"
        "         if mod is not None and (m in ('numpy', 'hashlib', '_hashlib')\n"
        "                                 or m.startswith('consensuslab.'))]\n"
        "print(json.dumps([code, names]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv], capture_output=True, text=True, timeout=60, env=CLI_ENV
    )
    assert proc.returncode == 0, proc.stderr
    got_code, names = json.loads(proc.stdout)
    assert got_code == code
    assert "cli" in names and loads <= set(names), names
    assert not skips & set(names), names


# _id_to_int of every string stream id the package uses, from OpenSSL's
# SHA-256: the builtin one the CLI falls back to must give the same words
STREAM_ID_WORDS = {
    "sim": 0xA845D1E38B9A7A50,
    "compare": 0x2954CAB86E624112,
    "fast": 0x9186BF6F60C35D11,
    "slow": 0x3138FA1DBDF70C5E,
    "block": 0x9FF2D8E480CA6A49,
    "duality": 0xD32493098B9F41C5,
    "lower-bound": 0x976A839696F979A6,
    "two-phase": 0x69544E1432CE4CDA,
    "drift": 0xE568BBEF1F467A0B,
    "time": 0x9853C85F80746033,
    "low": 0xC43DA7B39DF01F6C,
    "high": 0x90D6CD5EB1C9F76E,
    "voter": 0x787C0F0B033A6E56,
    "2choices": 0x4487D10E668E21FD,
    "hmaj:3": 0x9B600E9FE01D52B9,
    "hmaj:4": 0x0D7ADE3AB6633E35,
    "hmaj:5": 0x0D28FB9775D0B67E,
}


@pytest.mark.parametrize(
    "argv",
    [
        ["duality", "--graph", "cycle:8", "--t-max", "10", "--runs", "1"],
        ["simulate", "--rule", "voter", "--n", "16", "--trials", "2", "--workers", "2"],
    ],
    ids=["duality", "simulate"],
)
def test_cli_draws_without_openssl(argv):
    # a fresh interpreter: this one has loaded OpenSSL already
    child = (
        "import contextlib, io, json, os, sys\n"
        "from consensuslab import cli\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "from consensuslab.sampler import _id_to_int\n"
        "maps = open('/proc/self/maps').read() if os.path.exists('/proc/self/maps') else ''\n"
        "print(json.dumps([code, err.getvalue(), sys.modules.get('_hashlib', 0) is None,\n"
        "                  'libcrypto' in maps, {i: _id_to_int(i) for i in %r}]))\n"
    ) % list(STREAM_ID_WORDS)
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv], capture_output=True, text=True, timeout=60, env=CLI_ENV
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    code, err, blocked, libcrypto, words = json.loads(proc.stdout)
    assert (code, err) == (0, "")
    assert blocked and not libcrypto  # no maps where /proc is absent: only the entry is checked
    assert words == STREAM_ID_WORDS


def test_cli_keeps_openssl_where_a_builtin_hash_is_missing():
    # a build without _sha3: hashlib must keep OpenSSL, or it logs that
    # sha3_* were not found and serves no SHA-3
    child = (
        "import sys\n"
        "sys.modules['_sha3'] = None\n"
        "from consensuslab import cli\n"
        "import hashlib\n"
        "print('_hashlib' in sys.modules and sys.modules['_hashlib'] is not None)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=60, env=CLI_ENV
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout.split() == ["True"]


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run_cli("simulate", "--rule", "nope").returncode == USAGE_ERROR
    assert run_cli("simulate", "--rule", "voter", "--n", "0").returncode == USAGE_ERROR
    assert run_cli("duality", "--graph", "torus:9").returncode == USAGE_ERROR
    # argparse's own errors are usage errors too, not VALIDATION_FAILURE
    assert run_cli("simulate", "--bogus").returncode == USAGE_ERROR
    assert run_cli("compare", "--slow", "voter").returncode == USAGE_ERROR  # no --fast
    # lower-bound and two-phase take no stop condition
    assert run_cli("lower-bound", "--kappa", "2").returncode == USAGE_ERROR
    assert run_cli("two-phase", "--max-rounds", "9").returncode == USAGE_ERROR
    assert run_cli("--help").returncode == 0
    # counts that would do no work, or a run from an empty configuration
    for argv in (
        ["duality", "--runs", "-3"],
        ["duality", "--runs", "0"],
        ["lower-bound", "--trials", "-2"],
        ["two-phase", "--trials", "-1"],
        ["simulate", "--trials", "0"],
        ["compare", "--fast", "3maj", "--slow", "voter", "--n", "0"],
        ["lower-bound", "--n", "0"],
    ):
        assert main(argv) == USAGE_ERROR, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv
    bad_graph = tmp_path / "wrapped.txt"
    bad_graph.write_text("3 2\n0 1\n1 -1\n")
    looped_graph = tmp_path / "looped.txt"
    looped_graph.write_text("3 3\n0 0\n0 1\n1 2\n")
    seed_spec = tmp_path / "seed.json"
    seed_spec.write_text(json.dumps({**SPEC, "seed": -1}))
    big_seed_spec = tmp_path / "big_seed.json"
    big_seed_spec.write_text(json.dumps({**SPEC, "seed": 2**64}))
    # out-of-range numbers and malformed inputs: each error names its flag, parameter or line
    for argv, name in (
        (["lower-bound", "--gamma", "0"], "gamma"),
        (["lower-bound", "--gamma", "-1"], "gamma"),
        (["duality", "--t-max", "-3"], "--t-max"),
        (["simulate", "--workers", "-2"], "--workers"),
        (["drift-bound", "--form", "lw14", "--x-min", "0"], "x_min"),
        (["compare", "--fast", "3maj", "--slow", "voter", "--epsilon", "-1", "--expect-pass"],
         "epsilon"),
        (["compare", "--fast", "3maj", "--slow", "voter", "--epsilon", "inf"], "epsilon"),
        (["lower-bound", "--gamma", "inf"], "gamma"),
        # finite, but gamma ln n or n / (gamma ell') overflows a float
        (["lower-bound", "--gamma", "1e308"], "gamma"),
        (["lower-bound", "--gamma", "1e-310", "--n", "64"], "gamma"),
        # an init spelling with an extra, empty or non-integer field
        (["simulate", "--init", "ncolor:7", "--n", "8"], "init: cannot parse 'ncolor:7'"),
        (["simulate", "--init", "balanced:x"], "init: cannot parse 'balanced:x'"),
        (["simulate", "--init", "explicit:"], "init: cannot parse 'explicit:'"),
        (["simulate", "--init", "explicit:3,,1", "--n", "4"], "init: cannot parse 'explicit:3,,1'"),
        (["compare", "--fast", "3maj", "--slow", "voter", "--init", "ncolor:7"], "init"),
        (["lower-bound", "--init", "balanced:x"], "init"),
        (["simulate", "--init", "weird"], "init: cannot parse 'weird'"),
        (["simulate", "--init", "biased:3"], "init: cannot parse 'biased:3'"),
        (["simulate", "--init", "balanced:20", "--n", "10"], "balanced: need 1 <= k <= n"),
        # a graph file with an endpoint outside 0..n-1
        (["duality", "--graph", f"file:{bad_graph}"], "edge list line 3"),
        # a graph file with a self-loop
        (["duality", "--graph", f"file:{looped_graph}"], "edge list line 2: self-loop"),
        # a drift-bound flag its --form does not read
        (["drift-bound", "--form", "additive", "--x0", "77"], "--x0"),
        (["drift-bound", "--form", "lw14", "--k-prime", "2"], "--k-prime"),
        (["drift-bound", "--form", "generalized", "--c", "2"], "--c"),
        # a NaN drift-bound number fails its range check and is named
        (["drift-bound", "--form", "additive", "--c", "nan"], "c = nan"),
        (["drift-bound", "--form", "additive", "--m", "nan"], "m = nan"),
        (["drift-bound", "--form", "additive", "--k-prime", "nan"], "k' = nan"),
        (["drift-bound", "--form", "generalized", "--m", "nan"], "m = nan"),
        (["drift-bound", "--form", "generalized", "--a", "nan"], "a = nan"),
        (["drift-bound", "--form", "lw14", "--b", "nan"], "b = nan"),
        # 2-Choices has no process function to check dominance with
        (["dominance-check", "--p", "2choices", "--q", "voter", "--n", "5"], "not an AC process"),
        # a graph size that is not an integer
        (["duality", "--graph", "complete:abc"], "graph: cannot parse 'complete:abc'"),
        (["duality", "--graph", "cycle:x"], "graph: cannot parse 'cycle:x'"),
        # two-phase has no --kappa: its split's error names --k-split
        (["two-phase", "--k-split", "0"], "--k-split"),
        (["two-phase", "--k-split", "-3"], "--k-split"),
        # an ncolor start at n = 256 already has at most 300 colors: no phase 1
        (["two-phase", "--n", "256", "--trials", "1", "--k-split", "300"], "k_split"),
        # a seed outside [0, 2**64) is not wrapped onto one inside it
        (["simulate", "--seed", "-1"], "seed -1"),
        (["simulate", "--seed", str(2**64)], f"seed {2**64}"),
        (["compare", "--fast", "3maj", "--slow", "voter", "--seed", "-1"], "seed -1"),
        (["compare", "--fast", "3maj", "--slow", "voter", "--seed", str(2**64)], f"seed {2**64}"),
        (["duality", "--seed", "-1"], "seed -1"),
        (["duality", "--seed", str(2**64)], f"seed {2**64}"),
        (["simulate", "--spec", str(seed_spec)], "spec: seed -1"),
        (["simulate", "--spec", str(big_seed_spec)], f"spec: seed {2**64}"),
    ):
        assert main(argv) == USAGE_ERROR, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv
        assert name in captured.err, (argv, captured.err)


@pytest.mark.parametrize(
    "flags, named", [(["--trials", "50"], "got 50"), (["--epsilon", "-1"], "epsilon must be > 0")]
)
def test_compare_checks_its_inputs_before_any_trial(monkeypatch, capsys, flags, named):
    monkeypatch.setattr(harness, "run_trials", lambda *a, **k: pytest.fail("a trial ran"))
    assert main(["compare", "--fast", "3maj", "--slow", "voter", *flags]) == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert named in captured.err, captured.err


def test_main_callable_in_process(capsys):
    code = main(["simulate", "--rule", "voter", "--n", "16", "--trials", "1", "--seed", "0",
                 "--max-rounds", "50"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out.strip())["rule"] == "voter"


def test_duality_reports_coupling_violation_with_exit_two(monkeypatch, capsys):
    from consensuslab.coalescing import CouplingViolation

    calls = []

    def flaky_check(g, t_max, rng):
        calls.append(rng)
        if len(calls) == 2:
            raise CouplingViolation("tau=1: planted")

    monkeypatch.setattr(coalescing, "duality_check", flaky_check)
    code = main(["duality", "--graph", "cycle:8", "--t-max", "10", "--runs", "3"])
    captured = capsys.readouterr()
    assert code == VALIDATION_FAILURE
    assert len(calls) == 3  # the runs after the violation still ran
    assert json.loads(captured.out.strip())["violations"] == 1
    assert "run 1: tau=1: planted" in captured.err


@pytest.mark.parametrize(
    "argv, read",
    [
        # about 400 kB of records, far more than a pipe holds: the reader
        # closes after 10 bytes, and a later print meets the closed pipe
        (["simulate", "--rule", "voter", "--n", "64", "--trials", "2000", "--max-rounds", "1"], 10),
        # one short report, still buffered when main returns: its flush meets
        # a pipe whose reader closed before the run began
        (["dominance-check", "--p", "3maj", "--q", "voter", "--n", "4"], 0),
    ],
    ids=["reader-closes-early", "reader-closed-before-start"],
)
def test_closed_stdout_pipe_exits_141_without_a_message(argv, read):
    reader, writer = os.pipe()
    if not read:
        os.close(reader)
    # stdout block-buffered, as a shell pipe leaves it
    env = {k: v for k, v in CLI_ENV.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "consensuslab.cli", *argv],
        stdout=writer, stderr=subprocess.PIPE, env=env,
    )
    os.close(writer)
    if read:
        assert len(os.read(reader, read)) > 0
        os.close(reader)
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == BROKEN_PIPE == 141
    assert err == b""
