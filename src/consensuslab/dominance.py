"""Verification of the majorization-dominance framework.

Exhaustive small-n checks of the one-step dominance condition between AC
rules, empirical stochastic-majorization tests for multinomial laws, and
empirical stopping-time dominance between independent samples, judged by the
exact two-sample critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import (
    PREFIX_SLACK,
    canonical_counts,
    majorizes,
    multinomial_pvals,
    prefix_sums,
)
from .rules import UpdateRule, process_function
from .sampler import RngStream

MAX_ENUM_N = 40
# the level of the stopping-time check's default epsilon
DELTA = 0.05


class EnumerationBudgetExceeded(ValueError):
    pass


class NotMajorized(ValueError):
    pass


@dataclass
class DominanceReport:
    n: int
    rule_p: UpdateRule
    rule_q: UpdateRule
    pairs_checked: int = 0
    # each {"c", "c_tilde", "prefix", "margin"}, as the record lists it
    violations: list[dict] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "rule_p": self.rule_p.label(),
            "rule_q": self.rule_q.label(),
            "pairs_checked": self.pairs_checked,
            "violations": self.violations,
        }


def enumerate_configurations(n: int) -> list[np.ndarray]:
    """The canonical counts of every configuration of n nodes (integer
    partitions of n)."""
    if n < 1 or n > MAX_ENUM_N:
        raise EnumerationBudgetExceeded(f"n = {n} outside [1, {MAX_ENUM_N}]")
    out: list[np.ndarray] = []

    def rec(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            out.append(canonical_counts(np.array(prefix, dtype=np.int64)))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def check_dominance(rule_p: UpdateRule, rule_q: UpdateRule, n: int) -> DominanceReport:
    """Exhaustively test: c >= c~ implies alpha_p(c) >= alpha_q(c~).

    Runs over all ordered pairs of partitions of n; a violation records the
    worst prefix and its margin (how far the majorized side overshoots).
    Row i of C, Ap and Aq holds the prefix sums of the i-th configuration,
    of alpha_p and of alpha_q, padded to length n; padding repeats the last
    entry, so neither the worst prefix nor its margin depends on it.
    """
    configs = enumerate_configurations(n)
    C = np.array([prefix_sums(c, n) for c in configs])
    Ap = np.array([prefix_sums(process_function(rule_p, c), n) for c in configs])
    Aq = np.array([prefix_sums(process_function(rule_q, c), n) for c in configs])
    report = DominanceReport(n=n, rule_p=rule_p, rule_q=rule_q)
    for i, c in enumerate(configs):
        below = np.flatnonzero(np.all(C[i] >= C, axis=1))
        report.pairs_checked += len(below)
        deficit = Aq[below] - Ap[i]
        worst = deficit.argmax(axis=1)
        margin = deficit.max(axis=1)
        for j in np.flatnonzero(margin > PREFIX_SLACK):
            report.violations.append({"c": c.tolist(), "c_tilde": configs[below[j]].tolist(),
                                      "prefix": int(worst[j]) + 1, "margin": float(margin[j])})
    return report


def empirical_stochastic_majorization(
    theta1,
    theta2,
    m: int,
    draws: int,
    rng: RngStream,
) -> dict:
    """Monte-Carlo check that Mult(m, theta1) <=st Mult(m, theta2).

    Estimates E[phi_j] for every prefix functional phi_j; passes iff the
    theta1 mean is below the theta2 mean plus 3 standard errors for all j.
    Both thetas are probability vectors (array-likes), checked on entry.
    Returns {"mean_low", "mean_high", "sigma", "passed"}, the lists by j.
    """
    p1, p2 = multinomial_pvals(theta1), multinomial_pvals(theta2)
    if not majorizes(theta2, theta1):
        raise NotMajorized("theta2 must majorize theta1")
    if draws < 1000:
        raise ValueError("need at least 1000 draws")
    d = max(len(theta1), len(theta2))
    # one (draws, len(theta)) multinomial call per side: the stream of
    # `draws` single draws, in order
    phi1 = prefix_sums(rng.child("low").gen.multinomial(m, p1, size=draws), d)
    phi2 = prefix_sums(rng.child("high").gen.multinomial(m, p2, size=draws), d)
    mean1 = phi1.mean(axis=0)
    mean2 = phi2.mean(axis=0)
    sigma = np.sqrt(phi1.var(axis=0) / draws + phi2.var(axis=0) / draws)
    return {
        "mean_low": mean1.tolist(),
        "mean_high": mean2.tolist(),
        "sigma": sigma.tolist(),
        "passed": bool(np.all(mean1 <= mean2 + 3 * sigma)),
    }


def two_sample_tail(trials: int, m: int) -> Fraction:
    """P(D+ >= m/T), exactly, for two independent T-samples of one continuous
    law, where D+ is the largest amount by which the second sample's
    empirical CDF exceeds the first's: C(2T, T - m) / C(2T, T)
    (Gnedenko-Korolyuk), as the product of (T - i) / (T + 1 + i), i < m."""
    tail = Fraction(1)
    for i in range(min(m, trials + 1)):
        tail *= Fraction(trials - i, trials + 1 + i)
    return tail


def two_sample_critical_value(trials: int) -> float:
    """The exact one-sided two-sample critical value at level DELTA: the
    least m/T with two_sample_tail(T, m) <= DELTA. Two T-samples of one
    continuous law reach a deficit of it with probability at most DELTA;
    ties, as between integer stopping times, only make that rarer."""
    m, tail = 0, Fraction(1)  # tail = two_sample_tail(trials, m)
    while tail > DELTA:
        tail *= Fraction(trials - m, trials + 1 + m)
        m += 1
    return m / trials


def time_dominance_epsilon(trials: int, epsilon: Optional[float] = None) -> float:
    """The epsilon the stopping-time check applies to two samples of `trials`
    each: `epsilon` if given, else two_sample_critical_value(trials). Raises
    ValueError for fewer than 100 trials or an epsilon that is not a finite
    number > 0, so a caller can check its inputs before it draws a sample."""
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    # `not <` also rejects NaN; an infinite epsilon has no count gap to reach
    if epsilon is not None and not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be > 0 and finite, got {epsilon}")
    return two_sample_critical_value(trials) if epsilon is None else epsilon


def empirical_time_dominance(
    runs_fast: Sequence[Optional[int]],
    runs_slow: Sequence[Optional[int]],
    epsilon: Optional[float] = None,
) -> dict:
    """Empirical CDF comparison of two independent, equal-size samples of
    stopping times (None for a trial censored at the round cap).

    Dominance verdict: the slow sample's empirical CDF must exceed the fast
    one's by less than epsilon at every t; epsilon is
    time_dominance_epsilon's, by default two_sample_critical_value at
    DELTA. The verdict's delta is two_sample_tail at the epsilon used:
    the chance that two samples of one continuous law fail the check.
    A censored trial, on either side, has not stopped within the cap: it
    counts as +inf, below no point of the grid of finite times. Returns
    max_cdf_deficit, epsilon, delta, passed and each side's censored count.
    """
    trials = len(runs_fast)
    if len(runs_slow) != trials:
        raise ValueError(f"samples differ in size: {trials} fast, {len(runs_slow)} slow")
    eps = time_dominance_epsilon(trials, epsilon)
    # the least count gap whose deficit reaches eps; the tolerance keeps a
    # decimal epsilon such as 0.08 at T = 300 on its lattice point
    reach = math.ceil(eps * trials - 1e-9)
    times_fast, times_slow = ([math.inf if t is None else float(t) for t in runs]
                              for runs in (runs_fast, runs_slow))
    fast, slow = np.sort(times_fast), np.sort(times_slow)
    # a repeated or unsorted grid point changes no count and no maximum
    grid = np.array([t for t in times_fast + times_slow if t < math.inf])
    # both samples' counts at or below every grid point
    at_fast = np.searchsorted(fast, grid, side="right")
    at_slow = np.searchsorted(slow, grid, side="right")
    # every trial censored leaves no grid point: neither CDF leaves 0
    deficit = float((at_slow / trials - at_fast / trials).max(initial=0.0))
    return {
        "max_cdf_deficit": deficit,
        "epsilon": eps,
        "delta": float(two_sample_tail(trials, reach)),
        # the verdict compares integer counts, so float rounding of the
        # deficit cannot decide a deficit that lands on epsilon
        "passed": int((at_slow - at_fast).max(initial=0)) < reach,
        "censored_fast": runs_fast.count(None),
        "censored_slow": runs_slow.count(None),
    }
