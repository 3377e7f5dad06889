import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import consensuslab
from consensuslab.core import (
    PREFIX_SLACK,
    StopCondition,
    canonicalize,
    majorizes,
    multinomial_pvals,
    prefix_sums,
)
from consensuslab.dominance import (
    EnumerationBudgetExceeded,
    NotMajorized,
    check_dominance,
    empirical_stochastic_majorization,
    empirical_time_dominance,
    enumerate_configurations,
    two_sample_critical_value,
    two_sample_tail,
)
from consensuslab.harness import run_trials
from consensuslab.rules import h_majority_rule, process_function, voter_rule
from consensuslab.sampler import RngStream

from multinomial_oracle import exact_prefix_expectations


def test_enumerate_configurations_counts_partitions():
    # partition numbers p(1..10) = 1,2,3,5,7,11,15,22,30,42
    expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, p_n in enumerate(expected, start=1):
        assert len(enumerate_configurations(n)) == p_n


def test_enumerate_configurations_are_sorted_partitions():
    for cfg in enumerate_configurations(6):
        assert cfg.sum() == 6
        assert cfg.tolist() == sorted(cfg.tolist(), reverse=True)


def test_enumeration_budget_guard():
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_configurations(60)


def test_rule_dominates_itself():
    report = check_dominance(voter_rule(), voter_rule(), 8)
    assert report.holds
    assert report.pairs_checked > 0


def test_one_step_dominance_is_not_reflexive():
    # c >= c~ need not give alpha(c) >= alpha(c~) for one rule: 3-Majority
    # and hmaj:4 fail against themselves already at n = 4, at c = (2, 2) and
    # c~ = (2, 1, 1); of the repo's rules only Voter's alpha is monotone
    for rule, margin in ((h_majority_rule(3), 0.0625), (h_majority_rule(4), 0.09375)):
        report = check_dominance(rule, rule, 4)
        assert report.violations == [
            {"c": [2, 2], "c_tilde": [2, 1, 1], "prefix": 1, "margin": margin}
        ]
    report = check_dominance(voter_rule(), voter_rule(), 12)
    assert report.holds and report.pairs_checked == 2618


def test_three_majority_dominates_voter_small_n():
    report = check_dominance(h_majority_rule(3), voter_rule(), 6)
    assert report.holds


def test_violation_records_prefix_and_margin():
    report = check_dominance(h_majority_rule(4), h_majority_rule(3), 12)
    assert not report.holds
    v = next(
        v for v in report.violations if v["c"] == [6, 6] and v["c_tilde"] == [6, 2, 2, 2]
    )
    assert v["prefix"] == 1
    assert v["margin"] > 0
    d = report.to_dict()
    assert d["pairs_checked"] == report.pairs_checked
    assert len(d["violations"]) == len(report.violations)


def _padded_cumsum(p, d):
    cum = np.cumsum(np.sort(p)[::-1])
    return np.concatenate([cum, np.full(d - len(cum), cum[-1])])


def _dominance_oracle(rule_p, rule_q, n):
    """Literal per-pair check: (pairs_checked, [{c, c_tilde, prefix, margin}])."""
    configs = enumerate_configurations(n)
    pairs, violations = 0, []
    for c in configs:
        for ct in configs:
            if not majorizes(c, ct):
                continue
            pairs += 1
            ap, aq = process_function(rule_p, c), process_function(rule_q, ct)
            d = max(len(ap), len(aq))
            deficit = _padded_cumsum(aq, d) - _padded_cumsum(ap, d)
            worst = int(np.argmax(deficit))
            if deficit[worst] > PREFIX_SLACK:
                violations.append({
                    "c": c.tolist(),
                    "c_tilde": ct.tolist(),
                    "prefix": worst + 1,
                    "margin": float(deficit[worst]),
                })
    return pairs, violations


@pytest.mark.parametrize(
    "rule_p, rule_q, digest",
    [
        (
            h_majority_rule(4),
            h_majority_rule(3),
            "259b8cab66dd46650e9cc08adfa8241b8f5712d8fd4eb5e9718ac585ac8a7c29",
        ),
        (
            voter_rule(),
            h_majority_rule(3),
            "343c6dce619e69e6a576c31482cedcc176ccfae3c5d3ace3195f4c8b34ca3bd5",
        ),
    ],
    ids=["hmaj4-hmaj3", "voter-hmaj3"],
)
def test_check_dominance_report_is_bit_stable(rule_p, rule_q, digest):
    # the margins are differences of alpha floats, so this digest pins every
    # alpha value (and its path through the probability-vector check) bit for bit
    report = check_dominance(rule_p, rule_q, 12).to_dict()
    blob = json.dumps(report, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


_REPORT_CODE = """
import json, sys
from consensuslab.dominance import check_dominance
from consensuslab.rules import h_majority_rule
report = check_dominance(h_majority_rule(4), h_majority_rule(3), 12).to_dict()
sys.stdout.write(json.dumps(report, sort_keys=True))
"""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS x86-64 kernels"
)
def test_check_dominance_report_is_the_same_under_every_blas_kernel():
    # numpy's OpenBLAS picks its kernels by CPU; Prescott's, the oldest
    # x86-64 one, must give the report this process gives, byte for byte
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(consensuslab.__file__).resolve().parents[1]),
        "OPENBLAS_CORETYPE": "Prescott",
    }
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_CODE], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    report = check_dominance(h_majority_rule(4), h_majority_rule(3), 12).to_dict()
    assert proc.stdout == json.dumps(report, sort_keys=True)


@pytest.mark.parametrize(
    "rule_p, rule_q",
    [
        (h_majority_rule(3), voter_rule()),
        (h_majority_rule(4), h_majority_rule(3)),
        (voter_rule(), h_majority_rule(3)),
    ],
)
def test_check_dominance_matches_per_pair_oracle(rule_p, rule_q):
    for n in range(2, 10):
        report = check_dominance(rule_p, rule_q, n)
        pairs, violations = _dominance_oracle(rule_p, rule_q, n)
        assert report.pairs_checked == pairs
        assert report.violations == violations


def test_exact_prefix_expectations_simple_case():
    # two symmetric categories, m=2: sorted counts are (2,0) w.p. 1/2, (1,1) w.p. 1/2
    theta = np.array((0.5, 0.5))
    e = exact_prefix_expectations(theta, 2)
    assert np.isclose(e[0], 1.5)
    assert np.isclose(e[1], 2.0)


def test_exact_prefix_expectations_degenerate():
    theta = np.array((1.0, 0.0))
    e = exact_prefix_expectations(theta, 4)
    assert np.allclose(e, [4.0, 4.0])


def test_empirical_stochastic_majorization_agrees_with_exact():
    theta1 = np.array((0.4, 0.35, 0.25))
    theta2 = np.array((0.6, 0.3, 0.1))
    m = 6
    report = empirical_stochastic_majorization(
        theta1, theta2, m, draws=4000, rng=RngStream(13)
    )
    assert report["passed"]
    e1 = exact_prefix_expectations(theta1, m)
    e2 = exact_prefix_expectations(theta2, m)
    assert np.all(e1 <= e2 + 1e-12)
    for j in range(len(report["mean_low"])):
        assert abs(report["mean_low"][j] - e1[j]) <= 4 * report["sigma"][j] + 1e-9
        assert abs(report["mean_high"][j] - e2[j]) <= 4 * report["sigma"][j] + 1e-9


@pytest.mark.parametrize(
    "theta1, theta2",
    [((0.4, 0.35, 0.25), (0.6, 0.3, 0.1)), ((0.4, 0.3, 0.2, 0.1), (0.6, 0.4))],
    ids=["equal-length", "unequal-length"],
)
def test_stochastic_majorization_batched_draw_equals_the_draw_loop(theta1, theta2):
    m, draws, rng = 6, 1000, RngStream(15)
    report = empirical_stochastic_majorization(theta1, theta2, m, draws, rng)
    # the oracle: one multinomial draw at a time from each side's stream
    d = max(len(theta1), len(theta2))
    phi = []
    for theta, side in ((theta1, "low"), (theta2, "high")):
        gen, pvals = rng.child(side).gen, multinomial_pvals(theta)
        phi.append(np.array([prefix_sums(gen.multinomial(m, pvals), d) for _ in range(draws)]))
    mean1, mean2 = phi[0].mean(axis=0), phi[1].mean(axis=0)
    sigma = np.sqrt(phi[0].var(axis=0) / draws + phi[1].var(axis=0) / draws)
    assert report["mean_low"] == mean1.tolist()
    assert report["mean_high"] == mean2.tolist()
    assert report["sigma"] == sigma.tolist()
    assert report["passed"] == bool(np.all(mean1 <= mean2 + 3 * sigma))


def test_empirical_stochastic_majorization_requires_majorization():
    with pytest.raises(NotMajorized):
        empirical_stochastic_majorization(
            np.array((0.6, 0.4)),
            np.array((0.5, 0.5)),
            4,
            draws=1000,
            rng=RngStream(0),
        )
    with pytest.raises(ValueError, match="^need at least 1000 draws$"):
        empirical_stochastic_majorization(
            np.array((0.5, 0.5)),
            np.array((0.6, 0.4)),
            4,
            draws=999,
            rng=RngStream(0),
        )


def test_two_sample_critical_value_matches_the_closed_form():
    # P(D+ >= m/T) = C(2T, T - m) / C(2T, T); the critical value is the
    # least m/T whose tail is at most DELTA = 0.05
    for trials, m in ((100, 18), (300, 30)):
        assert two_sample_critical_value(trials) == m / trials
        assert two_sample_tail(trials, m) == Fraction(math.comb(2 * trials, trials - m),
                                                      math.comb(2 * trials, trials))
        assert two_sample_tail(trials, m) <= 0.05 < two_sample_tail(trials, m - 1)
    assert two_sample_critical_value(100) == 0.18 and two_sample_critical_value(300) == 0.100
    assert two_sample_tail(100, 0) == 1 and two_sample_tail(100, 101) == 0


def _stop_times(rule, c0, trials, stop, rng):
    """The stopping times of run_trials: one sample for the time check."""
    return [t for t, _ in run_trials(rule, c0, trials, stop, rng)]


def test_empirical_time_dominance_fails_equal_laws_at_rate_delta():
    # hmaj:2 has exactly Voter's law, so over independent seeds the check
    # must fail at a rate within a binomial CI of its delta at T = 100:
    # C(200, 82) / C(200, 100) (integer stop times tie, which only lowers
    # the rate). The one-sample radius it replaced fails such pairs about
    # three times as often.
    c0, stop, seeds = canonicalize([1] * 10), StopCondition(kappa=1, max_rounds=10**4), 300
    delta = math.comb(200, 82) / math.comb(200, 100)
    reports = []
    for seed in range(seeds):
        rng = RngStream(seed, ("size",))
        fast = _stop_times(h_majority_rule(2), c0, 100, stop, rng.child("fast"))
        slow = _stop_times(voter_rule(), c0, 100, stop, rng.child("slow"))
        reports.append(empirical_time_dominance(fast, slow))
    failed = sum(1 for report in reports if not report["passed"])
    pv = stats.binomtest(failed, seeds, delta).pvalue
    assert pv > 1e-3, (failed, seeds, delta, pv)
    assert {(report["epsilon"], report["delta"]) for report in reports} == {(0.18, delta)}


def test_empirical_time_dominance_same_rule_passes():
    c0 = canonicalize([1] * 64)
    # the cap is over 3x the longest run this seed gives (307 rounds)
    stop = StopCondition(kappa=1, max_rounds=1_300)
    fast = _stop_times(voter_rule(), c0, 100, stop, RngStream(7).child("fast"))
    slow = _stop_times(voter_rule(), c0, 100, stop, RngStream(7).child("slow"))
    report = empirical_time_dominance(fast, slow)
    assert report["passed"]
    assert report["max_cdf_deficit"] <= report["epsilon"]


def test_empirical_time_dominance_detects_clear_gap():
    # voter from consensus-adjacent start vs voter from the n-color start:
    # the slow side should not appear faster
    c_fast = canonicalize([63, 1])
    c_slow = canonicalize([1] * 64)
    stop = StopCondition(kappa=1, max_rounds=1_400)  # longest run 331 rounds
    fast = _stop_times(voter_rule(), c_fast, 100, stop, RngStream(8).child("fast"))
    slow = _stop_times(voter_rule(), c_slow, 100, stop, RngStream(8).child("slow"))
    report = empirical_time_dominance(fast, slow)
    assert report["passed"]


def test_empirical_time_dominance_deficit_matches_per_t_loop():
    # scripted stopping times (None = censored) in place of real runs; the
    # deficit must equal a literal loop over every observed t, bit for bit
    gen = np.random.default_rng(21)
    stop = StopCondition(kappa=1, max_rounds=40)
    trials = 100
    deficits, censored = [], 0
    for case in range(12):
        shift = 4 * (6 - case)  # slow times from well above to well below the fast ones
        script = {}
        for trial in range(trials):
            for side, offset in (("fast", 0), ("slow", shift)):
                t = int(gen.integers(0, 46)) + offset
                script[trial, side] = None if t > stop.max_rounds else max(t, 0)
        report = empirical_time_dominance(
            [script[i, "fast"] for i in range(trials)],
            [script[i, "slow"] for i in range(trials)],
        )
        # a censored trial, fast or slow, has not stopped by any observed t
        fast, slow = ([math.inf if script[i, side] is None else float(script[i, side])
                       for i in range(trials)] for side in ("fast", "slow"))
        assert report["censored_fast"] == fast.count(math.inf)
        assert report["censored_slow"] == slow.count(math.inf)
        deficit = 0.0
        for t in sorted((set(fast) | set(slow)) - {math.inf}):
            f_fast = sum(1 for x in fast if x <= t) / trials
            f_slow = sum(1 for x in slow if x <= t) / trials
            deficit = max(deficit, f_slow - f_fast)
        assert type(report["max_cdf_deficit"]) is float
        assert report["max_cdf_deficit"].hex() == deficit.hex(), case
        deficits.append(deficit)
        censored += report["censored_fast"] > 0 < report["censored_slow"]
    # the cases span no deficit, a large one, and censored trials on both sides
    assert min(deficits) == 0.0 and max(deficits) > 0.3 and censored > 0


def test_empirical_time_dominance_counts_censored_fast_trials_as_unstopped():
    # half the fast trials censored at a cap of 100: the slow sample, all
    # stopped at 100, leads by half at t = 100, as when those trials stop at
    # 101 under a cap of 200
    runs_slow = [100] * 100
    for runs_fast in ([10] * 50 + [None] * 50, [10] * 50 + [101] * 50):
        report = empirical_time_dominance(runs_fast, runs_slow)
        assert not report["passed"] and report["max_cdf_deficit"] == 0.5, runs_fast[-1]
    # no trial stopped on either side: no time to compare at
    report = empirical_time_dominance([None] * 100, [None] * 100)
    assert report["passed"] and report["max_cdf_deficit"] == 0.0


def test_empirical_time_dominance_checks_its_samples():
    with pytest.raises(ValueError, match="samples differ in size: 100 fast, 99 slow"):
        empirical_time_dominance([1] * 100, [1] * 99)
    with pytest.raises(ValueError, match="need at least 100 trials, got 50"):
        empirical_time_dominance([1] * 50, [1] * 50)
    for epsilon in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon must be > 0 and finite"):
            empirical_time_dominance([1] * 100, [1] * 100, epsilon=epsilon)


def test_empirical_time_dominance_flags_reversed_order():
    # deliberately claim the n-color start is faster than the near-consensus
    # start; the CDF deficit should blow past any reasonable epsilon
    c_fast = canonicalize([1] * 64)
    c_slow = canonicalize([63, 1])
    stop = StopCondition(kappa=1, max_rounds=900)  # longest run 382 rounds
    fast = _stop_times(voter_rule(), c_fast, 100, stop, RngStream(9).child("fast"))
    slow = _stop_times(voter_rule(), c_slow, 100, stop, RngStream(9).child("slow"))
    report = empirical_time_dominance(fast, slow, epsilon=0.2)
    assert not report["passed"]
    assert report["max_cdf_deficit"] > 0.2
