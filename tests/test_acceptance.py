"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import consensuslab
from consensuslab.coalescing import (
    coalescence_time_stats,
    complete_graph,
    cycle_graph,
    duality_check,
    walk_count_chain,
)
from consensuslab.core import StopCondition, canonicalize, majorizes, multinomial_pvals
from consensuslab.dominance import (
    check_dominance,
    empirical_stochastic_majorization,
    empirical_time_dominance,
    exact_prefix_expectations,
)
from consensuslab.drift import (
    DriftFunction,
    additive_drift_bound,
    step_moments,
    validate_bound,
    variable_drift_bound_lw14,
)
from consensuslab.harness import (
    run_coupled_dominating_process,
    run_trials,
    slow_start_window,
)
from consensuslab.rules import (
    h_majority_rule,
    process_function,
    process_function_exact,
    run_block,
    two_choices_rule,
    voter_rule,
)
from consensuslab.sampler import RngStream
from scipy import stats

from multinomial_oracle import sample_multinomial_conditional
from step_oracle import step_reference


def _verdict(label: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  {label}{suffix}")
    assert ok, f"{label}{suffix}"


def test_01_three_majority_exact_leading_probability():
    c = canonicalize([6, 2, 2, 2])
    exact = process_function_exact(h_majority_rule(3), c)[0]
    approx = process_function(h_majority_rule(3), c)[0]
    ok = exact == Fraction(7, 12) and abs(approx - 7 / 12) < 1e-12
    _verdict("01 exact leading adoption probability 7/12", ok, f"got {exact}")


def test_02_three_majority_dominates_voter_up_to_n10():
    total_pairs = 0
    total_violations = 0
    for n in range(2, 11):
        report = check_dominance(h_majority_rule(3), voter_rule(), n)
        total_pairs += report.pairs_checked
        total_violations += len(report.violations)
    ok = total_violations == 0
    _verdict(
        "02 one-step dominance of 3-majority over voter, n=2..10",
        ok,
        f"{total_violations} violations over {total_pairs} ordered pairs",
    )


def test_03_four_majority_counterexample_at_n12():
    report = check_dominance(h_majority_rule(4), h_majority_rule(3), 12)
    hit = [
        v
        for v in report.violations
        if v["c"] == [6, 6] and v["c_tilde"] == [6, 2, 2, 2] and v["prefix"] == 1
    ]
    ok = bool(hit) and abs(hit[0]["margin"] - 1 / 12) < 1e-12
    _verdict(
        "03 dominance fails for 4-majority over 3-majority at n=12",
        ok,
        f"{len(report.violations)} violations, (6,6)/(6,2,2,2) margin "
        f"{hit[0]['margin'] if hit else 'missing'}",
    )


def test_04_voter_coalescence_duality_exact():
    violations = 0
    for seed in range(200):
        for g, t_max, tag in (
            (complete_graph(64), 200, "k64"),
            (cycle_graph(32), 500, "cyc32"),
        ):
            try:
                duality_check(g, t_max, RngStream(seed, ("dual", tag)))
            except AssertionError:
                violations += 1
    ok = violations == 0
    _verdict(
        "04 exact voter/coalescence duality, 200 runs on K64 and cycle32",
        ok,
        f"{violations} violations",
    )


def test_05_coalescence_time_and_drift_bounds():
    n = 1000
    g = complete_graph(n)
    details = []
    ok = True
    for k in (5, 20, 100):
        times = coalescence_time_stats(
            g, k=k, trials=200, rng=RngStream(50, ("coal", k))
        )
        budget = 20 * n / k
        mean = np.mean(times) if None not in times else math.inf
        ok = ok and mean <= budget
        details.append(f"k={k}: {mean:.1f}<={budget:.0f}")
    chain = walk_count_chain(n)
    for x in (2, 100, 250, 500, 1000):
        mean, sigma = step_moments(chain, x, 10**4, RngStream(51, ("dr", x)).gen)
        target = x - x * x / (10 * n)
        ok = ok and mean <= target + 3 * sigma
        details.append(f"x={x}: {mean:.2f}<={target:.2f}+3s")
    _verdict("05 coalescence time and one-step drift bounds", ok, "; ".join(details))


def test_06_stopping_time_cdf_dominance():
    c0 = canonicalize([1] * 1024)
    # about 3x the longest of these seeds' runs (6,159 rounds): a stop check
    # that never fires fails here instead of running 10^6 rounds per trial
    stop = StopCondition(kappa=1, max_rounds=20_000)
    rng = RngStream(60, ("cdf",))
    fast = [t for t, _ in run_trials(h_majority_rule(3), c0, 300, stop, rng.child("fast"))]
    slow = [t for t, _ in run_trials(voter_rule(), c0, 300, stop, rng.child("slow"))]
    report = empirical_time_dominance(fast, slow, epsilon=0.08)
    ok = report["passed"] and report["censored_fast"] == 0 and report["censored_slow"] == 0
    _verdict(
        "06 stopping-time CDF dominance, 3-majority vs voter at n=1024",
        ok,
        f"max deficit {report['max_cdf_deficit']:.4f} <= 0.08",
    )


def test_07_two_choices_separation_and_coupling():
    n = 10**4
    rounds = 2000
    wins = 0
    for trial in range(20):
        times = {}
        for rule, tag in ((h_majority_rule(3), "hmaj"), (two_choices_rule(), "2ch")):
            rng = RngStream(70, ("sep", trial, tag))
            stop = StopCondition(kappa=1, max_rounds=rounds)
            times[tag], _, _ = run_block(rule, [canonicalize([1] * n)], stop, rng)[0]
        # 3-Majority must reach consensus within the cap and strictly before
        # 2-Choices, a censored 2-Choices run counting as later. Colour
        # counts at the cap would tie whenever 2-Choices has also finished,
        # which it does by round 2,000 in about one run in eight
        if times["hmaj"] is not None and (times["2ch"] is None or times["hmaj"] < times["2ch"]):
            wins += 1
    initial = canonicalize([2] + [1] * 998)
    _, t0 = slow_start_window(1000, 2, 4.0)
    coupling_ok = True
    for seed in range(100):
        try:
            run_coupled_dominating_process(
                initial, 4.0, rounds=t0, rng=RngStream(seed, ("couple",))
            )
        except AssertionError:
            coupling_ok = False
    ok = wins >= 18 and coupling_ok
    _verdict(
        "07 2-choices vs 3-majority separation and coupled domination",
        ok,
        f"{wins}/20 pairs, coupling {'exact' if coupling_ok else 'violated'} on 100 runs",
    )


def test_08_drift_bound_calculators():
    ok = True
    details = []

    h = DriftFunction(a=1.0 / 10000.0, b=2.0, x_min=10.0, x_max=1000.0)
    lw = variable_drift_bound_lw14(h, 1000.0)["bound"]
    ok = ok and abs(lw - 1990.0) < 1e-9 and lw <= 2000.0
    details.append(f"lw14 {lw:.9f}")

    add = additive_drift_bound(100, 0, 2)["bound"]
    ok = ok and add == 50.0
    details.append(f"additive {add}")

    n = 1000
    report = validate_bound(
        walk_count_chain(n),
        x0=float(n),
        k=10.0,
        h=DriftFunction(a=1.0 / (10 * n), b=2.0, x_min=10.0, x_max=float(n)),
        trials=50,
        rng=RngStream(81),
        drift_samples=2000,
    )
    ok = ok and report["bound_ok"]
    details.append(
        f"chain E[T] {report['empirical_mean_time']:.1f} <= {report['bound']:.0f}"
    )
    _verdict("08 drift-theorem bound calculators", ok, "; ".join(details))


def test_09_stochastic_majorization_random_pairs():
    gen = RngStream(90).gen
    m = 6
    ok = True
    for pair in range(10):
        k = int(gen.integers(2, 5))
        theta1 = np.sort(gen.dirichlet(np.ones(k)))[::-1]
        t = float(gen.uniform(0.05, 0.6))
        theta2 = (1 - t) * theta1 + t * np.eye(k)[0]
        assert majorizes(theta2, theta1)
        e1 = exact_prefix_expectations(theta1, m)
        e2 = exact_prefix_expectations(theta2, m)
        ok = ok and bool(np.all(e1 <= e2 + 1e-12))
        report = empirical_stochastic_majorization(
            theta1, theta2, m, draws=3000, rng=RngStream(91, ("sm", pair))
        )
        ok = ok and report["passed"]
        for j in range(k):
            ok = ok and abs(report["mean_low"][j] - e1[j]) <= 3 * report["sigma"][j] + 1e-9
            ok = ok and abs(report["mean_high"][j] - e2[j]) <= 3 * report["sigma"][j] + 1e-9
    _verdict("09 stochastic majorization on 10 random pairs, m=6", ok)


def test_10_sampler_goodness_of_fit():
    # multinomial law at m=3 over 3 categories, full outcome enumeration
    theta = np.array([0.5, 0.3, 0.2])
    m = 3
    outcomes = [
        (i, j, m - i - j) for i in range(m + 1) for j in range(m + 1 - i)
    ]
    probs = np.array(
        [
            math.factorial(m)
            / (math.factorial(a) * math.factorial(b) * math.factorial(c))
            * theta[0] ** a * theta[1] ** b * theta[2] ** c
            for a, b, c in outcomes
        ]
    )
    draws = 30000
    rng = RngStream(100)
    tally = {o: 0 for o in outcomes}
    for t in range(draws):
        x = tuple(int(v) for v in rng.child("m", t).gen.multinomial(m, multinomial_pvals(theta)))
        tally[x] += 1
    pv_mult = stats.chisquare(
        [tally[o] for o in outcomes], probs * draws
    ).pvalue

    # conditional-binomial stepper vs literal per-node stepper, 3-majority, n=6
    c = canonicalize([3, 2, 1])
    rule = h_majority_rule(3)
    alpha = process_function(rule, c)
    reps = 8000
    fast, ref = {}, {}
    for t in range(reps):
        a = tuple(
            canonicalize(sample_multinomial_conditional(c.sum(), alpha, rng.child("cb", t))).tolist()
        )
        b = tuple(step_reference(rule, c, rng.child("pn", t)).tolist())
        fast[a] = fast.get(a, 0) + 1
        ref[b] = ref.get(b, 0) + 1
    keys = sorted(set(fast) | set(ref))
    table = np.array([[fast.get(k, 0) for k in keys], [ref.get(k, 0) for k in keys]])
    table = table[:, table.sum(axis=0) >= 10]
    pv_step = stats.chi2_contingency(table).pvalue

    ok = pv_mult > 1e-3 and pv_step > 1e-3
    _verdict(
        "10 sampler goodness of fit",
        ok,
        f"multinomial p={pv_mult:.4f}, stepper p={pv_step:.4f}",
    )


def test_11_cli_determinism_across_workers(tmp_path):
    spec = {
        "rules": ["voter", "hmaj:3"],
        "n": 128,
        "initial": "ncolor",
        "kappa": 1,
        "max_rounds": 1_100,  # about 3x the longest run, 367 rounds
        "trials": 10,
        "seed": 7,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    # the child interpreter imports the same package as the tests do
    src_root = str(Path(consensuslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src_root}
    outputs = []
    for workers in ("1", "4", "1"):
        proc = subprocess.run(
            [
                sys.executable, "-m", "consensuslab.cli", "simulate",
                "--spec", str(path), "--workers", workers,
            ],
            capture_output=True,
            timeout=300,
            env=env,
        )
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    ok = outputs[0] == outputs[1] == outputs[2]
    _verdict(
        "11 CLI output byte-identical across worker counts {1,4} and reruns", ok
    )
