"""Workloads of the consensuslab benchmark and the checks on their output.

A workload is a fixed list of CLI invocations. Its inputs come from an
input variant, which the benchmark derives from its seed. Each invocation
must exit with 0; it names the files it writes and a check that parses its
JSON output. A check returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

# Number of input variants. The workload seed picks one of them, so every
# run's output can be compared with a digest recorded for that variant.
VARIANTS = 16

# Sizes keep each invocation near 1-3 s, so that a run holds many
# repetitions to take the median of.

# twochoices-ncolor: every trial is censored at the round cap, so the work
# is trials x rounds 2-Choices rounds whatever the seed.
TC_N = 10_000
TC_TRIALS = 4
TC_ROUNDS = 150
TC_WORKERS = 2

# compare-3maj-voter: stopping at kappa = 4 drops the last Voter
# coalescences, long single waits that make the work vary with the seed.
CMP_N = 512
CMP_KAPPA = 4
CMP_TRIALS = 100  # the CLI's minimum

DOM_ZERO_N = 16
DOM_VIOLATION_N = 14

DUALITY = (("cycle:32", 500, 15), ("complete:64", 200, 40))


@dataclass
class Output:
    """What one invocation left behind: exit code, stdout and written files."""

    rc: int
    stdout: bytes
    files: dict[str, bytes] = field(default_factory=dict)


@dataclass(frozen=True)
class Invocation:
    """One CLI invocation: arguments after `python -m consensuslab.cli`."""

    argv: tuple[str, ...]
    check: Callable[[Output], list[str]]
    out_files: tuple[str, ...] = ()

    def verify(self, out: Output) -> list[str]:
        """Problems with `out`; malformed output is a problem, not a crash."""
        problems = []
        if out.rc != 0:
            problems.append(f"exit code {out.rc}, expected 0")
        try:
            problems.extend(self.check(out))
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        return problems


@dataclass(frozen=True)
class Workload:
    """A named list of invocations built from an input variant and a work dir.

    `trace_build`, when set, gives the invocations the traced run records
    spans from; `pool_workers` is the --workers of the untraced invocations.
    """

    name: str
    build: Callable[[int, str], list[Invocation]]
    trace_build: Callable[[int, str], list[Invocation]] | None = None
    pool_workers: int = 0


def json_line(stdout: bytes) -> dict:
    """The last JSON object printed; human-readable lines are skipped."""
    for line in reversed(stdout.decode().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON line on stdout")


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what} = {got!r}, expected {want!r}")


def _check_simulate(variant: int, jsonl: str, summary: str) -> Callable[[Output], list[str]]:
    def check(out: Output) -> list[str]:
        problems: list[str] = []
        records = [json.loads(line) for line in out.files[jsonl].decode().splitlines()]
        _expect(problems, "records", len(records), TC_TRIALS)
        _expect(problems, "trials", sorted(r["trial"] for r in records), list(range(TC_TRIALS)))
        for r in records:
            tag = f"trial {r['trial']}"
            _expect(problems, f"{tag} rule", r["rule"], "2choices")
            _expect(problems, f"{tag} n", r["n"], TC_N)
            _expect(problems, f"{tag} kappa", r["kappa"], 1)
            _expect(problems, f"{tag} seed", r["seed"], variant)
            # the round cap must censor every trial, or the work is not fixed
            _expect(problems, f"{tag} censored", r["censored"], True)
            _expect(problems, f"{tag} stop_time", r["stop_time"], None)
        rows = list(csv.DictReader(io.StringIO(out.files[summary].decode())))
        _expect(problems, "summary rows", [(r["rule"], r["trials"], r["censored"]) for r in rows],
                [("2choices", str(TC_TRIALS), str(TC_TRIALS))])
        return problems

    return check


def twochoices_ncolor(variant: int, work_dir: str, workers: int = TC_WORKERS) -> list[Invocation]:
    jsonl = os.path.join(work_dir, "twochoices.jsonl")
    summary = os.path.join(work_dir, "twochoices.csv")
    argv = (
        "simulate", "--rule", "2choices", "--n", str(TC_N), "--init", "ncolor",
        "--trials", str(TC_TRIALS), "--max-rounds", str(TC_ROUNDS), "--seed", str(variant),
        "--workers", str(workers), "--out", jsonl, "--summary", summary,
    )
    return [Invocation(argv, _check_simulate(variant, jsonl, summary), out_files=(jsonl, summary))]


def compare_3maj_voter(variant: int, work_dir: str) -> list[Invocation]:
    def check(out: Output) -> list[str]:
        problems: list[str] = []
        rec = json_line(out.stdout)
        _expect(problems, "passed", rec["passed"], True)
        _expect(problems, "censored_fast", rec["censored_fast"], 0)
        _expect(problems, "censored_slow", rec["censored_slow"], 0)
        _expect(problems, "rules", (rec["rule_fast"], rec["rule_slow"]), ("hmaj:3", "voter"))
        _expect(problems, "n", rec["n"], CMP_N)
        _expect(problems, "kappa", rec["kappa"], CMP_KAPPA)
        _expect(problems, "trials", rec["trials"], CMP_TRIALS)
        _expect(problems, "seed", rec["seed"], variant)
        return problems

    argv = (
        "compare", "--fast", "3maj", "--slow", "voter", "--n", str(CMP_N), "--init", "ncolor",
        "--kappa", str(CMP_KAPPA), "--trials", str(CMP_TRIALS), "--seed", str(variant),
        "--expect-pass",
    )
    return [Invocation(argv, check)]


def _check_dominance(n: int, p: str, q: str, want_violations: bool) -> Callable[[Output], list[str]]:
    def check(out: Output) -> list[str]:
        problems: list[str] = []
        rec = json_line(out.stdout)
        _expect(problems, "n", rec["n"], n)
        _expect(problems, "rules", (rec["rule_p"], rec["rule_q"]), (p, q))
        if rec["pairs_checked"] < 1:
            problems.append("no pairs checked")
        pairs = {(tuple(v["c"]), tuple(v["c_tilde"])) for v in rec["violations"]}
        if not want_violations:
            _expect(problems, "violations", len(pairs), 0)
        elif ((n - 2, 2), (n - 2, 1, 1)) not in pairs:
            problems.append(f"missing violation [{n - 2},2] vs [{n - 2},1,1]")
        return problems

    return check


def dominance_exhaustive(variant: int, work_dir: str) -> list[Invocation]:
    zero = ("dominance-check", "--p", "3maj", "--q", "voter", "--n", str(DOM_ZERO_N), "--expect-zero")
    some = ("dominance-check", "--p", "hmaj:4", "--q", "3maj", "--n", str(DOM_VIOLATION_N))
    return [
        Invocation(zero, _check_dominance(DOM_ZERO_N, "hmaj:3", "voter", want_violations=False)),
        Invocation(some, _check_dominance(DOM_VIOLATION_N, "hmaj:4", "hmaj:3", want_violations=True)),
    ]


def duality(variant: int, work_dir: str) -> list[Invocation]:
    out = []
    for graph, t_max, runs in DUALITY:
        def check(o: Output, graph=graph, t_max=t_max, runs=runs) -> list[str]:
            problems: list[str] = []
            rec = json_line(o.stdout)
            _expect(problems, "violations", rec["violations"], 0)
            _expect(problems, "spec", (rec["graph"], rec["t_max"], rec["runs"], rec["seed"]),
                    (graph, t_max, runs, variant))
            return problems

        argv = ("duality", "--graph", graph, "--t-max", str(t_max), "--runs", str(runs),
                "--seed", str(variant))
        out.append(Invocation(argv, check))
    return out


def dominance_duality(variant: int, work_dir: str) -> list[Invocation]:
    """The exact checks: dominance needs no RNG, duality replays drawn maps."""
    return dominance_exhaustive(variant, work_dir) + duality(variant, work_dir)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "twochoices-ncolor",
            twochoices_ncolor,
            trace_build=functools.partial(twochoices_ncolor, workers=1),
            pool_workers=TC_WORKERS,
        ),
        Workload("compare-3maj-voter", compare_3maj_voter),
        Workload("dominance-duality", dominance_duality),
    )
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def digest(outputs: list[Output]) -> str:
    """SHA-256 over every invocation's stdout and written files, in order."""
    h = hashlib.sha256()
    for out in outputs:
        for blob in (out.stdout, *out.files.values()):
            h.update(len(blob).to_bytes(8, "little"))
            h.update(blob)
    return h.hexdigest()


HASHES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hashes.json")


def reference_digest(workload: Workload, variant: int) -> str | None:
    """Digest recorded at the seed commit for this input, if any."""
    try:
        with open(HASHES_PATH) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(workload.name, {}).get(str(variant))
