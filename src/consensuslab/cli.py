"""Command-line interface.

Subcommands: simulate, compare, dominance-check, duality, drift-bound,
lower-bound, two-phase. Results go to JSON-lines (one record per trial)
plus an optional CSV summary. Exit codes: 0 success, 1 usage error,
2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING

# Set at import, before any subcommand loads numpy: its bundled OpenBLAS
# otherwise starts a worker thread per extra core, which burns CPU though the
# library makes no BLAS call. A value the user sets wins; forked workers
# inherit the setting.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The stdlib and __version__ only: each subcommand imports the modules it
# runs, so --help and usage errors load no numpy.
from . import __version__

if TYPE_CHECKING:
    from .harness import ExperimentSpec

USAGE_ERROR = 1
VALIDATION_FAILURE = 2
METADATA = {"log_base": "e", "version": __version__}


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as a UsageError (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


SPEC_KEYS = ("rules", "n", "initial", "kappa", "max_rounds", "trials", "seed", "workers")
# every run flag's default; simulate applies them in _spec_from_args, so --spec sees a given flag
RUN_DEFAULTS = dict(
    rule="voter", n=1024, init="ncolor", kappa=1, max_rounds=10**6, trials=100, seed=0
)

# every drift-bound number flag's default, and the flags each --form reads
DRIFT_DEFAULTS = dict(m=0.0, k_prime=0.0, c=1.0, a=1.0, b=1.0, x_min=1.0, x_max=1e9, x0=1.0)
DRIFT_FLAGS = {
    "additive": ("m", "k_prime", "c"),
    "lw14": ("a", "b", "x_min", "x_max", "x0"),
    "generalized": ("a", "b", "x_min", "x_max", "m", "k_prime"),
}


def spec_from_json(path: str) -> tuple[ExperimentSpec, int]:
    from .core import StopCondition
    from .harness import ExperimentSpec
    from .rules import parse_rule

    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise UsageError("spec: want a JSON object")
    unknown = sorted(set(raw) - set(SPEC_KEYS))
    if unknown:
        raise UsageError(f"spec: unknown field {unknown[0]!r} (want {', '.join(SPEC_KEYS)})")
    v = {"kappa": RUN_DEFAULTS["kappa"], "max_rounds": RUN_DEFAULTS["max_rounds"], "workers": 1, **raw}
    missing = [key for key in SPEC_KEYS if key not in v]
    if missing:
        raise UsageError(f"spec: missing field {missing[0]!r}")
    rules = v["rules"]
    if not (isinstance(rules, list) and rules and all(isinstance(r, str) for r in rules)):
        raise UsageError(f"spec: rules must be a non-empty list of strings, got {json.dumps(rules)}")
    if not isinstance(v["initial"], str):
        raise UsageError(f"spec: initial must be a string, got {json.dumps(v['initial'])}")
    for key in ("n", "kappa", "max_rounds", "trials", "seed", "workers"):
        if type(v[key]) is not int:  # a JSON integer: not a float, string, null or bool
            raise UsageError(f"spec: {key} must be an integer, got {json.dumps(v[key])}")
    try:
        spec = ExperimentSpec(
            rules=tuple(parse_rule(r) for r in rules),
            n=v["n"],
            initial=v["initial"],
            stop=StopCondition(kappa=v["kappa"], max_rounds=v["max_rounds"]),
            trials=v["trials"],
            seed=v["seed"],
        )
    except ValueError as exc:
        raise UsageError(f"spec: {exc}")
    if v["workers"] < 0:
        raise UsageError(f"spec: workers must be >= 0, got {v['workers']}")
    return spec, v["workers"]


def _spec_from_args(args) -> ExperimentSpec:
    """simulate's spec from its run flags; an absent flag takes its default."""
    from .core import StopCondition
    from .harness import ExperimentSpec
    from .rules import parse_rule

    v = {k: d if getattr(args, k) is None else getattr(args, k) for k, d in RUN_DEFAULTS.items()}
    return ExperimentSpec(
        rules=(parse_rule(v["rule"]),),
        n=v["n"],
        initial=v["init"],
        stop=StopCondition(kappa=v["kappa"], max_rounds=v["max_rounds"]),
        trials=v["trials"],
        seed=v["seed"],
    )


def json_record(rec: dict) -> str:
    """One record as sorted JSON. NaN or an infinity raises ValueError, since
    JSON has no token for them."""
    return json.dumps(rec, sort_keys=True, allow_nan=False)


def write_jsonl(records: list[dict], path: str) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json_record(rec) + "\n")


def _emit(records: list[dict], args) -> None:
    """Stamp each simulate record like _report does, then print or write it."""
    from .harness import write_csv_summary

    for rec in records:
        rec["subcommand"] = args.command
        rec["metadata"] = METADATA
    if args.out:
        write_jsonl(records, args.out)
    else:
        for rec in records:
            print(json_record(rec))
    if args.summary:
        write_csv_summary(records, args.summary)


def _report(out: dict, args) -> None:
    """Stamp the subcommand and metadata, print sorted JSON, write --out."""
    out["subcommand"] = args.command
    out["metadata"] = METADATA
    print(json_record(out))
    if args.out:
        write_jsonl([out], args.out)


def _flag(key: str) -> str:  # the command-line spelling of an argparse dest
    return "--" + key.replace("_", "-")


def cmd_simulate(args) -> int:
    from .harness import run_experiment

    given = [key for key in RUN_DEFAULTS if getattr(args, key) is not None]
    if args.spec and given:
        raise UsageError(f"simulate: {_flag(given[0])} cannot be combined with --spec")
    spec, workers = spec_from_json(args.spec) if args.spec else (_spec_from_args(args), 1)
    _emit(run_experiment(spec, workers=args.workers or workers), args)
    return 0


def cmd_compare(args) -> int:
    from .core import StopCondition
    from .dominance import empirical_time_dominance, time_dominance_epsilon
    from .harness import initial_counts, run_trials
    from .rules import parse_rule
    from .sampler import RngStream

    rule_fast = parse_rule(args.fast)
    rule_slow = parse_rule(args.slow)
    c0 = initial_counts(args.init, args.n)
    stop = StopCondition(kappa=args.kappa, max_rounds=args.max_rounds)
    # checked before any trial runs
    epsilon = time_dominance_epsilon(args.trials, args.epsilon)
    rng = RngStream(args.seed, ("compare",))
    fast = [t for t, _ in run_trials(rule_fast, c0, args.trials, stop, rng.child("fast"))]
    slow = [t for t, _ in run_trials(rule_slow, c0, args.trials, stop, rng.child("slow"))]
    out = {
        "rule_fast": rule_fast.label(),
        "rule_slow": rule_slow.label(),
        "n": args.n,
        "kappa": args.kappa,
        "seed": args.seed,
        "trials": args.trials,
        **empirical_time_dominance(fast, slow, epsilon),
    }
    _report(out, args)
    return 0 if out["passed"] or not args.expect_pass else VALIDATION_FAILURE


def cmd_dominance_check(args) -> int:
    from .dominance import check_dominance
    from .rules import parse_rule

    report = check_dominance(parse_rule(args.p), parse_rule(args.q), args.n)
    print(f"{len(report.violations)} violations over {report.pairs_checked} pairs")
    _report(report.to_dict(), args)
    if args.expect_zero and report.violations:
        return VALIDATION_FAILURE
    return 0


def _int_at_least(lo: int):
    """argparse type for an int >= lo: 1 for counts that must do work, 0 for
    a round budget or a worker count."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return parse


def _parse_graph(text: str):
    from .coalescing import complete_graph, cycle_graph, graph_from_edge_list

    parts = text.strip().split(":")
    if parts[0] == "file" and len(parts) == 2:
        with open(parts[1]) as fh:
            return graph_from_edge_list(fh.read())
    build = {"complete": complete_graph, "cycle": cycle_graph}.get(parts[0])
    if build and len(parts) == 2:
        try:
            n = int(parts[1])
        except ValueError:
            pass
        else:
            return build(n)
    raise UsageError(f"graph: cannot parse {text!r} (want complete:<n>|cycle:<n>|file:<path>)")


def cmd_duality(args) -> int:
    from .coalescing import duality_check
    from .core import CouplingViolation
    from .sampler import RngStream

    g = _parse_graph(args.graph)
    violations = 0
    for run in range(args.runs):
        try:
            duality_check(g, args.t_max, RngStream(args.seed, ("duality", run)))
        except CouplingViolation as exc:
            violations += 1
            print(f"run {run}: {exc}", file=sys.stderr)
    out = {
        "graph": args.graph,
        "t_max": args.t_max,
        "runs": args.runs,
        "seed": args.seed,
        "violations": violations,
    }
    _report(out, args)
    return VALIDATION_FAILURE if violations else 0


def cmd_drift_bound(args) -> int:
    from .drift import (
        DriftFunction,
        additive_drift_bound,
        variable_drift_bound_generalized,
        variable_drift_bound_lw14,
    )

    reads = DRIFT_FLAGS[args.form]
    unread = [key for key in DRIFT_DEFAULTS if key not in reads and getattr(args, key) is not None]
    if unread:
        raise UsageError(f"drift-bound: --form {args.form} does not read {_flag(unread[0])}")
    v = {key: DRIFT_DEFAULTS[key] if getattr(args, key) is None else getattr(args, key) for key in reads}
    infinite = [key for key in reads if math.isinf(v[key])]  # a NaN fails drift's range checks
    if infinite:
        raise UsageError(f"drift-bound: {_flag(infinite[0])} must be finite, got {v[infinite[0]]}")
    if args.form == "additive":
        res = additive_drift_bound(v["m"], v["k_prime"], v["c"])
    else:
        h = DriftFunction(v["a"], v["b"], v["x_min"], v["x_max"])
        if args.form == "lw14":
            res = variable_drift_bound_lw14(h, v["x0"])
        else:
            res = variable_drift_bound_generalized(h, v["m"], v["k_prime"])
    if not math.isfinite(res["bound"]):
        raise UsageError("drift-bound: the bound overflows a float")
    _report(res, args)
    return 0


def cmd_lower_bound(args) -> int:
    from .harness import initial_counts, run_lower_bound_experiment
    from .sampler import RngStream

    c0 = initial_counts(args.init, args.n)
    report = run_lower_bound_experiment(
        c0, args.gamma, args.trials, RngStream(args.seed, ("lower-bound",))
    )
    _report(report, args)
    return 0


def cmd_two_phase(args) -> int:
    from .harness import run_two_phase_check

    report = run_two_phase_check(args.n, args.trials, k_split=args.k_split, seed=args.seed)
    _report(report, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="consensuslab")
    # subparsers default to parser_class=type(parser), so they raise UsageError too
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_init=True, with_stop=True):
        p.add_argument("--n", type=int, default=RUN_DEFAULTS["n"])
        p.add_argument("--trials", type=_int_at_least(1), default=RUN_DEFAULTS["trials"])
        p.add_argument("--seed", type=int, default=RUN_DEFAULTS["seed"])
        if with_stop:
            p.add_argument("--kappa", type=int, default=RUN_DEFAULTS["kappa"])
            p.add_argument("--max-rounds", type=int, default=RUN_DEFAULTS["max_rounds"])
        if with_init:
            p.add_argument("--init", default=RUN_DEFAULTS["init"])
        p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="stopping-time runs for one rule")
    p.add_argument("--rule")
    p.add_argument("--spec", default=None, help="JSON ExperimentSpec file")
    p.add_argument("--workers", type=_int_at_least(0), default=0)
    p.add_argument("--summary", default=None, help="CSV summary path")
    common(p)
    # None marks a run flag not given: --spec rejects it, _spec_from_args defaults it
    p.set_defaults(func=cmd_simulate, **dict.fromkeys(RUN_DEFAULTS))

    p = sub.add_parser("compare", help="stopping-time CDF dominance")
    p.add_argument("--fast", required=True)
    p.add_argument("--slow", required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--expect-pass", action="store_true")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("dominance-check", help="exhaustive one-step dominance check")
    p.add_argument("--p", required=True, help="candidate dominating rule")
    p.add_argument("--q", required=True, help="candidate dominated rule")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--expect-zero", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dominance_check)

    p = sub.add_parser("duality", help="exact voter/coalescence duality check")
    p.add_argument("--graph", default="complete:64")
    p.add_argument("--t-max", type=_int_at_least(0), default=200)
    p.add_argument("--runs", type=_int_at_least(1), default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_duality)

    p = sub.add_parser("drift-bound", help="drift-theorem bound calculators")
    p.add_argument("--form", choices=list(DRIFT_FLAGS), required=True)
    for key in DRIFT_DEFAULTS:  # None marks a flag not given: cmd_drift_bound defaults it
        p.add_argument(_flag(key), type=float)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_drift_bound)

    p = sub.add_parser("lower-bound", help="2-Choices slow-start experiment")
    p.add_argument("--gamma", type=float, default=4.0)
    common(p, with_stop=False)
    p.set_defaults(func=cmd_lower_bound)

    p = sub.add_parser("two-phase", help="phase-split timing for 3-majority")
    p.add_argument("--k-split", type=_int_at_least(1), default=None)
    common(p, with_init=False, with_stop=False)
    p.set_defaults(func=cmd_two_phase)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
