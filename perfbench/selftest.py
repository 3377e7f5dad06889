"""Self-test of the benchmark's output checks and of the seeding contract.

Run from the repository root:

    python3 perfbench/selftest.py

1. Runs every workload once at input variant 0; every check must pass.
2. Feeds each check tampered copies of that real output; each must fail.
3. Runs twochoices-ncolor at --workers 1; its output must be byte-identical
   to the --workers 2 output (same spec and seed, any worker count).
4. Prints whether each output matches the digest in hashes.json.

Exits 1 if step 1, 2 or 3 fails.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

from run import WORK_ROOT, Runner, remove_work_dir
from workloads import (
    TC_TRIALS, WORKLOADS, Invocation, Output, digest, reference_digest, twochoices_ncolor,
)


def set_rc(rc):
    return lambda out: dataclasses.replace(out, rc=rc)


def edit_json(fn):
    """Apply fn to the JSON line of stdout."""
    def tamper(out: Output) -> Output:
        lines = out.stdout.decode().splitlines()
        i = max(k for k, line in enumerate(lines) if line.startswith("{"))
        rec = json.loads(lines[i])
        fn(rec)
        lines[i] = json.dumps(rec, sort_keys=True)
        return dataclasses.replace(out, stdout=("\n".join(lines) + "\n").encode())
    return tamper


def drop_json(out: Output) -> Output:
    """Keep only the human-readable lines."""
    kept = [line for line in out.stdout.decode().splitlines() if not line.startswith("{")]
    return dataclasses.replace(out, stdout=("\n".join(kept) + "\n").encode())


def edit_file(index: int, fn):
    """Apply fn to the lines of the index-th written file."""
    def tamper(out: Output) -> Output:
        files = dict(out.files)
        path = list(files)[index]
        files[path] = ("\n".join(fn(files[path].decode().splitlines())) + "\n").encode()
        return dataclasses.replace(out, files=files)
    return tamper


def edit_records(fn):
    def lines(text):
        recs = [json.loads(line) for line in text]
        fn(recs)
        return [json.dumps(r, sort_keys=True) for r in recs]
    return edit_file(0, lines)


def _set(key, value):
    return lambda rec: rec.__setitem__(key, value)


def _bump(key):
    return lambda rec: rec.__setitem__(key, rec[key] + 1)


def _each(fn):
    return lambda recs: [fn(r) for r in recs]


def _drop_pair(rec):
    n = rec["n"]
    rec["violations"] = [v for v in rec["violations"] if (v["c"], v["c_tilde"]) != ([n - 2, 2], [n - 2, 1, 1])]


TAMPERS = {
    "simulate": {
        "exit 1": set_rc(1),
        "rule": edit_records(_each(_set("rule", "voter"))),
        "n": edit_records(_each(_bump("n"))),
        "kappa": edit_records(_each(_bump("kappa"))),
        "seed": edit_records(_each(_bump("seed"))),
        "uncensored": edit_records(lambda recs: recs[0].update(censored=False, stop_time=17)),
        "missing record": edit_records(lambda recs: recs.pop()),
        "duplicate trial": edit_records(lambda recs: recs[1].update(trial=0)),
        "summary": edit_file(1, lambda rows: [rows[0], rows[1].replace(
            f",{TC_TRIALS},{TC_TRIALS},", f",{TC_TRIALS},{TC_TRIALS - 1},")]),
        "empty output": edit_file(0, lambda rows: []),
    },
    "compare": {
        "exit 2": set_rc(2),
        "not passed": edit_json(_set("passed", False)),
        "censored fast": edit_json(_set("censored_fast", 1)),
        "censored slow": edit_json(_set("censored_slow", 3)),
        "seed": edit_json(_bump("seed")),
        "trials": edit_json(_bump("trials")),
        "summary line only": drop_json,
    },
    "dominance-zero": {
        "exit 2": set_rc(2),
        "violation": edit_json(lambda r: r["violations"].append(
            {"c": [r["n"]], "c_tilde": [r["n"] - 1, 1], "prefix": 1, "margin": 0.1})),
        "n": edit_json(_bump("n")),
        "summary line only": drop_json,
    },
    "dominance-violations": {
        "exit 2": set_rc(2),
        "no violations": edit_json(_set("violations", [])),
        "pair missing": edit_json(_drop_pair),
        "rules swapped": edit_json(lambda r: r.update(rule_p=r["rule_q"], rule_q=r["rule_p"])),
        "summary line only": drop_json,
    },
    "duality": {
        "exit 2": set_rc(2),
        "violation": edit_json(_set("violations", 1)),
        "t_max": edit_json(_bump("t_max")),
        "seed": edit_json(_bump("seed")),
        "summary line only": drop_json,
    },
}


def kind(inv: Invocation) -> str:
    sub = inv.argv[0]
    if sub == "dominance-check":
        return "dominance-zero" if "--expect-zero" in inv.argv else "dominance-violations"
    return sub


def main() -> int:
    work_dir = os.path.join(WORK_ROOT, f"selftest-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    runner = Runner(work_dir)
    errors = []
    try:
        for workload in WORKLOADS.values():
            invs = workload.build(0, work_dir)
            outputs = []
            for inv in invs:
                out = runner.cli(inv).output
                outputs.append(out)
                if inv.verify(out):
                    errors.append(f"{workload.name}: real output fails its check")
                    continue
                for label, tamper in TAMPERS[kind(inv)].items():
                    red = bool(inv.verify(tamper(out)))
                    print(f"{'red ' if red else 'MISSED'} {workload.name} {inv.argv[0]}: {label}")
                    if not red:
                        errors.append(f"{workload.name}: tamper '{label}' passed the check")
            ref = reference_digest(workload, 0)
            same = None if ref is None else digest(outputs) == ref
            print(f"{workload.name}: output_identical to the recorded digest: {same}")
            if workload.name == "twochoices-ncolor":
                serial = twochoices_ncolor(0, work_dir, workers=1)
                one = runner.cli(serial[0]).output
                identical = list(one.files.values()) == list(outputs[0].files.values())
                print(f"twochoices-ncolor: --workers 1 output byte-identical to --workers 2: {identical}")
                if not identical:
                    errors.append("twochoices-ncolor output depends on --workers")
    finally:
        remove_work_dir(work_dir)
    for err in errors:
        print("FAIL", err, file=sys.stderr)
    print("self-test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
