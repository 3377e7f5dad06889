"""Experiment orchestration: stopping-time runs, the 2-Choices lower-bound
experiment with its coupled dominating Binomial process, the two-phase
timing check, and the CSV summary of a simulate run.

The stopping-time runs go through _blocks, which lays the trials of one
rule out in blocks of rules.block_rows(rule, n) (one trial for 2-Choices)
and puts block b on its purpose's stream child ("block", b); so results are
independent of worker count and scheduling. _run runs the blocks, in
forked worker processes when asked; run_trials runs one rule's trials in
this process.
Logs use natural log throughout (the CLI records this in its output
metadata).
"""

from __future__ import annotations

import csv
import math
import os
import pickle
from dataclasses import dataclass
from typing import BinaryIO, NoReturn, Optional

import numpy as np

from .core import CouplingViolation, StopCondition, canonical_counts, canonicalize, check_canonical
from .rules import (
    UpdateRule,
    block_rows,
    h_majority_rule,
    node_round,
    run_block,
    two_choices_rule,
    voter_rule,
)
from .sampler import RngStream


# the number of ':'-separated fields after each init kind
_INIT_FIELDS = {"ncolor": 0, "balanced": 1, "biased": 2, "explicit": 1}


def initial_counts(text: str, n: int) -> np.ndarray:
    """Canonical counts of n nodes from an init spelling: ncolor,
    balanced:<k>, biased:<k>:<bias> or explicit:<c1>,<c2>,... (case and
    surrounding space ignored). The one parser of that spelling.

    biased:<k>:<bias> has k colors with c1 - c2 = bias: c2 = ceil((n - bias)/k),
    c1 = c2 + bias, one more color at c2, and the other k - 2 colors split
    the rest as evenly as balanced:<k - 2> would. It raises ValueError where
    no k-part start of n has that gap."""
    kind, *fields = text.strip().lower().split(":")
    try:
        if len(fields) != _INIT_FIELDS[kind]:
            raise ValueError
        ints = [int(tok) for tok in (fields[0].split(",") if kind == "explicit" else fields)]
    except (KeyError, ValueError):
        raise ValueError(f"init: cannot parse {text!r}") from None
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "ncolor":
        return canonical_counts(np.ones(n, dtype=np.int64))
    if kind == "balanced":
        (k,) = ints
        if not 1 <= k <= n:
            raise ValueError("balanced: need 1 <= k <= n")
        base, rem = divmod(n, k)
        return canonicalize([base + (1 if i < rem else 0) for i in range(k)])
    if kind == "biased":
        k, bias = ints
        if k < 2 or bias < 0:
            raise ValueError(f"biased: need k >= 2 and bias >= 0, got k = {k}, bias = {bias}")
        c2 = -((bias - n) // k)  # ceil((n - bias) / k)
        rest = n - bias - 2 * c2
        if c2 < 1 or rest < k - 2:
            raise ValueError(f"biased: no start of n = {n} has {k} colors and c1 - c2 = {bias}")
        return canonicalize([c2 + bias, c2] + [(rest + i) // (k - 2) for i in range(k - 2)])
    c = canonicalize(ints)
    if c.sum() != n:
        raise ValueError(f"explicit counts sum to {c.sum()}, expected n = {n}")
    return c


@dataclass(frozen=True)
class ExperimentSpec:
    rules: tuple[UpdateRule, ...]
    n: int
    initial: str  # an init spelling, built once per run by initial_counts
    stop: StopCondition
    trials: int
    seed: int

    def __post_init__(self):
        # build the start and the stream once, so a bad spelling, n < 1, an
        # infeasible start or a seed outside 64 bits fails here, not in a trial
        initial_counts(self.initial, self.n)
        RngStream(self.seed)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.rules:
            raise ValueError("rules: need at least one rule")


def _blocks(
    rule: UpdateRule, start: np.ndarray, trials: int, stop: StopCondition, rng: RngStream
) -> list[tuple]:
    """run_block's arguments for `trials` trials of `rule` from canonical
    counts `start`: blocks of block_rows(rule, n) trials, the last one cut
    at `trials`, block b on rng.child("block", b). The one place where
    trials fall into blocks and blocks onto streams."""
    rows = block_rows(rule, int(start.sum()))
    return [
        (rule, [start] * min(rows, trials - first), stop, rng.child("block", b))
        for b, first in enumerate(range(0, trials, rows))
    ]


def _stops(job) -> list[tuple[Optional[int], int]]:
    """(stopping time or None, peak) per trial of one block."""
    return [(t, peak) for t, _, peak in run_block(*job)]


def _run(jobs: list[tuple], workers: int) -> list[tuple[Optional[int], int]]:
    """(stopping time or None, peak) of every trial of `jobs`, in order
    whatever the scheduling; peak is the largest support over every round,
    round 0 included. With W = min(workers, len(jobs)) > 1, W forked
    workers run the jobs, worker w jobs w, w + W, w + 2W, ..., and this
    process runs none; W <= 1 runs every job here."""
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [out for job in jobs for out in _stops(job)]
    chunks: list = [None] * len(jobs)
    live: dict[int, BinaryIO] = {}  # worker pid -> read end of its pipe
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _work(jobs[w::workers], write_fd)
            os.close(write_fd)
            live[pid] = open(read_fd, "rb")
        for w, pid in enumerate(list(live)):
            data = live[pid].read()
            _, status = os.waitpid(pid, 0)
            live.pop(pid).close()
            if status != 0 or not data:
                raise RuntimeError(f"worker {w} ended without a result (wait status {status})")
            kind, value = pickle.loads(data)
            if kind == "err":
                raise value
            chunks[w::workers] = value
    finally:
        if live:
            # an interrupt or a failed worker: stop and reap every worker left.
            # signal is imported here, so a run that never stops one skips its cost
            from signal import SIGKILL

            for pid, reader in live.items():
                reader.close()
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    return [out for chunk in chunks for out in chunk]


def _work(jobs: list[tuple], fd: int) -> NoReturn:
    """A forked worker's life: its jobs through _stops, written to fd as one
    pickle, ("ok", per-job results) or ("err", the exception raised). It
    leaves only through os._exit, so it runs no atexit handler, test
    teardown or stdio flush of the process it was forked from."""
    code = 1
    try:
        try:
            out = ("ok", [_stops(job) for job in jobs])
        except Exception as exc:
            out = ("err", exc)
        with open(fd, "wb") as fh:
            pickle.dump(out, fh)
        code = 0
    finally:
        os._exit(code)


def run_trials(
    rule: UpdateRule, start: np.ndarray, trials: int, stop: StopCondition, rng: RngStream
) -> list[tuple[Optional[int], int]]:
    """(stopping time or None, peak) of `trials` seeded trials of `rule`
    from canonical counts `start`, in this process, block b on
    rng.child("block", b)."""
    return _run(_blocks(rule, start, trials, stop, rng), 1)


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> list[dict]:
    """Run every trial of every rule, one job per block, rule r's blocks on
    ("sim", r). Records come in (rule, trial) order; all rules share up to
    `workers` forked worker processes."""
    start, rng = initial_counts(spec.initial, spec.n), RngStream(spec.seed, ("sim",))
    jobs = [
        job
        for rule in spec.rules
        for job in _blocks(rule, start, spec.trials, spec.stop, rng.child(rule.label()))
    ]
    stops = iter(_run(jobs, workers))
    return [
        {
            "rule": rule.label(),
            "n": spec.n,
            "kappa": spec.stop.kappa,
            "seed": spec.seed,
            "trial": trial,
            "stop_time": stop_time,
            "censored": stop_time is None,
            "max_support_peak": peak,
        }
        for rule in spec.rules
        # range first: zip stops at the rule's last trial without taking the next rule's
        for trial, (stop_time, peak) in zip(range(spec.trials), stops)
    ]


# ---------------------------------------------------------------------------
# 2-Choices slow-start window experiment and its dominating coupling


def slow_start_window(n: int, ell: int, gamma: float) -> tuple[int, int]:
    """(ell_prime, t0) from a start of n nodes whose largest support is ell:
    ell_prime = max(2 ell, ceil(gamma ln n)), t0 = floor(n / (gamma ell_prime))."""
    # t0 divides by gamma; `not >` also rejects NaN
    if not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    # ceil and int need finite floats: a huge gamma overflows gamma ln n,
    # a subnormal one n / (gamma ell_prime)
    scaled_log = gamma * math.log(n)
    if not math.isfinite(scaled_log):
        raise ValueError(f"gamma = {gamma}: gamma ln n is not finite")
    ell_prime = max(2 * ell, math.ceil(scaled_log))
    t0 = n // (gamma * ell_prime)
    if not math.isfinite(t0):
        raise ValueError(f"gamma = {gamma}: t0 = n / (gamma ell_prime) is not finite")
    return ell_prime, int(t0)


def run_lower_bound_experiment(
    initial: np.ndarray, gamma: float, trials: int, rng: RngStream
) -> dict:
    """Run 2-Choices for t0 rounds per trial from canonical counts `initial`,
    whose sum is n and largest support ell; track max-support exceedances.

    Reports the fraction of trials where any color's support ever exceeded
    ell_prime within the window, plus first-exceedance times (None for a
    trial with none; every trial, without a draw, when ell_prime >= n or
    t0 = 0). The trials run through run_trials, trial j on
    rng.child("block", j).
    """
    check_canonical(initial)
    n, ell = int(initial.sum()), int(initial[0])
    lp, t0 = slow_start_window(n, ell, gamma)
    first_exceedance: list[Optional[int]] = [None] * trials
    # no support exceeds n, so with ell_prime >= n no trial can hit, and
    # t0 = 0 leaves no round: either way draw nothing
    if lp < n and t0 >= 1:
        # a trial stops at its first support above ell_prime; consensus
        # (kappa = 1) is such a round, since ell_prime < n
        stop = StopCondition(kappa=1, max_rounds=t0, above=lp)
        first_exceedance = [t for t, _ in run_trials(two_choices_rule(), initial, trials, stop, rng)]
    exceeded = sum(1 for h in first_exceedance if h is not None)
    return {
        "n": n,
        "gamma": gamma,
        "ell": ell,
        "ell_prime": lp,
        "t0": t0,
        "trials": trials,
        "exceedance_fraction": exceeded / trials if trials else 0.0,
        "first_exceedance_times": first_exceedance,
    }


def run_coupled_dominating_process(
    initial: np.ndarray, gamma: float, rounds: int, rng: RngStream
) -> list[tuple[int, int]]:
    """2-Choices and the dominating Binomial process on shared randomness.

    n and ell are the sum and largest support of `initial`; the tracked
    color is the largest one, and P starts at ell. Node j's indicator for
    "both samples show the tracked color" is dominated by Bernoulli(p),
    p = (ell_prime/n)^2: with slots ordered so the tracked color occupies a
    prefix, a sample hits it iff its slot index i < c_0, and
    c_0 <= ell_prime implies i < ell_prime, an event of probability exactly
    ell_prime/n. Asserts c_0(t) <= P(t) for every round before c_0 first
    exceeds ell_prime.
    """
    check_canonical(initial)
    k0 = len(initial)
    lp, _ = slow_start_window(int(initial.sum()), int(initial[0]), gamma)
    gen = rng.gen
    slot_colors = np.repeat(np.arange(k0), initial)

    c_col = p_val = int(initial[0])
    pairs = [(c_col, p_val)]
    exceeded = c_col > lp
    for _ in range(rounds):
        slot_colors, idx = node_round(two_choices_rule(), slot_colors, gen)
        p_val += int(np.count_nonzero((idx < lp).all(axis=0)))
        cnts = np.bincount(slot_colors, minlength=k0)
        c_col = int(cnts[0])
        pairs.append((c_col, p_val))
        if not exceeded:
            if c_col > lp:
                exceeded = True
            elif c_col > p_val:
                raise CouplingViolation(f"c_0 = {c_col} > P = {p_val} before first exceedance")
        # keep the tracked color in the leading slots
        slot_colors = np.repeat(np.arange(k0), cnts)
    return pairs


def run_two_phase_check(
    n: int,
    trials: int,
    k_split: Optional[int] = None,
    seed: int = 0,
) -> dict:
    """Phase-split timing for 3-majority vs Voter from the n-color start.

    Phase 1 ends at <= k_split colors (default ceil(n**0.25)); phase 2 runs
    3-majority on to consensus from phase 1's last counts, on the stream of
    the block that ran phase 1. Both rules' trials are laid out by _blocks,
    on ("two-phase", rule); the two rules draw independently. Each phase is
    capped at the default StopCondition's max_rounds. k_split must be below n.
    """
    if n < 256:
        raise ValueError("two-phase check needs n >= 256")
    k = k_split if k_split is not None else math.ceil(n**0.25)
    if k >= n:  # the n-color start has at most k colors: phase 1 never runs
        raise ValueError(f"two-phase check needs k_split < n, got k_split={k} for n={n}")
    hm3, voter = h_majority_rule(3), voter_rule()
    c0 = initial_counts("ncolor", n)
    split = StopCondition(kappa=k)
    rng = RngStream(seed, ("two-phase",))
    voter_times = run_trials(voter, c0, trials, split, rng.child(voter.label()))
    rows: list[dict] = []
    for _, starts, _, stream in _blocks(hm3, c0, trials, split, rng.child(hm3.label())):
        phase1 = run_block(hm3, starts, split, stream)
        ended = [c for t, c, _ in phase1 if t is not None]
        phase2 = iter(run_block(hm3, ended, StopCondition(kappa=1), stream))
        for t1, _, _ in phase1:
            t2 = None if t1 is None else next(phase2)[0]
            rows.append(
                {
                    "trial": len(rows),
                    "phase1_hmaj:3": t1,
                    "phase2_hmaj:3": t2,
                    "total_hmaj:3": None if t2 is None else t1 + t2,
                    "phase1_voter": voter_times[len(rows)][0],
                }
            )
    paired = [
        r
        for r in rows
        if r["phase1_hmaj:3"] is not None and r["phase1_voter"] is not None
    ]
    wins = sum(1 for r in paired if r["phase1_hmaj:3"] <= r["phase1_voter"])
    voter_means = [r["phase1_voter"] for r in paired]
    return {
        "n": n,
        "k_split": k,
        "trials": trials,
        "rows": rows,
        "hmaj_not_slower_fraction": wins / len(paired) if paired else None,
        "voter_phase1_mean": float(np.mean(voter_means)) if voter_means else None,
        "voter_phase1_budget_20n_over_k": 20.0 * n / k,
    }


# ---------------------------------------------------------------------------
# output


def write_csv_summary(records: list[dict], path: str) -> None:
    """Aggregate stopping times per rule: mean/median/quantiles/censored."""
    by_rule: dict[str, list] = {}
    for rec in records:
        by_rule.setdefault(rec["rule"], []).append(rec)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["rule", "trials", "censored", "mean", "median", "q10", "q90", "max"]
        )
        for rule in sorted(by_rule):
            recs = by_rule[rule]
            times = [r["stop_time"] for r in recs if r["stop_time"] is not None]
            censored = sum(1 for r in recs if r["censored"])
            if times:
                arr = np.array(times, dtype=float)
                writer.writerow(
                    [
                        rule,
                        len(recs),
                        censored,
                        f"{arr.mean():.6g}",
                        f"{np.median(arr):.6g}",
                        f"{np.quantile(arr, 0.1):.6g}",
                        f"{np.quantile(arr, 0.9):.6g}",
                        f"{arr.max():.6g}",
                    ]
                )
            else:
                writer.writerow([rule, len(recs), censored, "", "", "", "", ""])
