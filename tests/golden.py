"""Fixed-seed CLI outputs, pinned by digest in tests/golden.json.

Each entry is one `consensuslab` invocation, run in process through
`cli.main`. The manifest records its argv, exit code, the SHA-256 of its
stdout, of its stderr and of each file it writes, and numpy's version
(numpy does not promise the same draws across versions). `{dir}` in an
argv names a fresh directory for the files the invocation writes.

Run from the repository root:

    python tests/golden.py           # list the entries whose output moved
    python tests/golden.py --record  # re-derive tests/golden.json

A change that alters draws re-records the manifest and says which entries
moved and why; a change that claims byte-identical output moves none.
tests/test_golden.py runs the same comparison in Tier-1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tests", "golden.json")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from consensuslab import cli  # noqa: E402

TC = ("simulate", "--rule", "2choices", "--init", "ncolor")  # 2-Choices from n colours
DRIFT = ("drift-bound", "--form")

# (name, argv): every subcommand, on inputs that take well under a second
ENTRIES = (
    # the twochoices-ncolor benchmark workload's invocation, variant 3
    ("simulate-2choices-ncolor-workload", (*TC, "--n", "10000", "--trials", "4",
     "--max-rounds", "150", "--seed", "3", "--workers", "2",
     "--out", "{dir}/twochoices.jsonl", "--summary", "{dir}/twochoices.csv")),
    ("simulate-2choices-ncolor-to-consensus", (*TC, "--n", "2000", "--trials", "3", "--seed", "3")),
    ("simulate-2choices-ncolor-censored", (*TC, "--n", "256", "--trials", "5",
     "--max-rounds", "20", "--seed", "1")),
    ("simulate-2choices-balanced4", ("simulate", "--rule", "2choices", "--n", "1000",
     "--init", "balanced:4", "--trials", "5", "--seed", "2")),
    ("simulate-voter-ncolor", ("simulate", "--rule", "voter", "--n", "256", "--init", "ncolor",
     "--trials", "10", "--seed", "4")),
    ("simulate-voter-blocks-summary", ("simulate", "--rule", "voter", "--n", "64",
     "--init", "balanced:2", "--trials", "200", "--seed", "7", "--summary", "{dir}/voter.csv")),
    ("simulate-hmaj3-ncolor-kappa2", ("simulate", "--rule", "hmaj:3", "--n", "512",
     "--init", "ncolor", "--kappa", "2", "--trials", "10", "--seed", "5")),
    ("simulate-hmaj4-ncolor", ("simulate", "--rule", "hmaj:4", "--n", "256", "--init", "ncolor",
     "--trials", "5", "--seed", "6")),
    ("compare-3maj-voter-workload", ("compare", "--fast", "3maj", "--slow", "voter",
     "--n", "512", "--init", "ncolor", "--kappa", "4", "--trials", "100", "--seed", "0",
     "--expect-pass")),
    ("compare-censored", ("compare", "--fast", "hmaj:4", "--slow", "3maj", "--n", "128",
     "--init", "ncolor", "--max-rounds", "5", "--trials", "100", "--seed", "1")),
    ("compare-expect-pass-fails", ("compare", "--fast", "voter", "--slow", "3maj",
     "--n", "64", "--init", "ncolor", "--trials", "100", "--seed", "2", "--expect-pass")),
    ("compare-2choices-balanced4", ("compare", "--fast", "2choices", "--slow", "voter",
     "--n", "200", "--init", "balanced:4", "--trials", "100", "--seed", "3")),
    ("lower-bound-gamma1", ("lower-bound", "--n", "1000", "--gamma", "1", "--trials", "5",
     "--seed", "0")),
    ("lower-bound-gamma4", ("lower-bound", "--n", "1000", "--gamma", "4", "--trials", "5",
     "--seed", "0")),
    ("two-phase", ("two-phase", "--n", "256", "--trials", "3", "--seed", "0",
     "--out", "{dir}/two-phase.jsonl")),
    ("dominance-check-zero", ("dominance-check", "--p", "3maj", "--q", "voter", "--n", "10",
     "--expect-zero")),
    ("dominance-check-violations", ("dominance-check", "--p", "hmaj:4", "--q", "3maj",
     "--n", "12")),
    ("duality-cycle", ("duality", "--graph", "cycle:32", "--t-max", "100", "--runs", "3",
     "--seed", "0")),
    ("duality-complete-out", ("duality", "--graph", "complete:64", "--t-max", "100",
     "--runs", "3", "--seed", "1", "--out", "{dir}/duality.jsonl")),
    ("drift-bound-additive", (*DRIFT, "additive", "--m", "100", "--k-prime", "1", "--c", "0.5")),
    ("drift-bound-lw14", (*DRIFT, "lw14", "--a", "1", "--b", "1", "--x-min", "1",
     "--x-max", "1000", "--x0", "500")),
    ("drift-bound-generalized", (*DRIFT, "generalized", "--a", "1", "--b", "2",
     "--x-min", "1", "--x-max", "1000", "--m", "500", "--k-prime", "1")),
    ("usage-error-unknown-rule", ("simulate", "--rule", "quorum", "--n", "8", "--trials", "1")),
    ("usage-error-gamma-zero", ("lower-bound", "--n", "100", "--trials", "2", "--gamma", "0")),
)


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def run_entry(argv) -> dict:
    """One entry's record: argv, exit code and digests, run through cli.main."""
    with tempfile.TemporaryDirectory(prefix="golden-") as work:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([a.replace("{dir}", work) for a in argv])
        files = {path.name: _sha(path.read_bytes()) for path in sorted(Path(work).iterdir())}
    return {"argv": list(argv), "exit": code, "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue()), "files": files, "numpy": np.__version__}


def load() -> dict:
    with open(MANIFEST) as fh:
        return json.load(fh)


def moved(manifest: dict) -> list[str]:
    """Names of the manifest's entries whose output differs from a run now,
    each with the fields that moved."""
    out = []
    for name, want in manifest.items():
        got = run_entry(want["argv"])
        fields = [key for key in want if got[key] != want[key]]
        if fields:
            out.append(f"{name} ({', '.join(fields)})")
    return out


def record() -> dict:
    return {name: run_entry(argv) for name, argv in ENTRIES}


def main(argv: list[str]) -> int:
    if argv == ["--record"]:
        lines = [f"{json.dumps(name)}: {json.dumps(e)}" for name, e in record().items()]
        with open(MANIFEST, "w") as fh:  # one line per entry: a diff names what moved
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"recorded {len(ENTRIES)} entries in {os.path.relpath(MANIFEST, ROOT)}")
        return 0
    if argv:
        print("usage: python tests/golden.py [--record]", file=sys.stderr)
        return 1
    changed = moved(load())
    print("\n".join(f"moved: {line}" for line in changed) or "every entry matches")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
