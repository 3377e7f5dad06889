"""Update rules: process functions for AC dynamics and one-step steppers.

Sampling is with replacement, uniform over all n nodes (self included);
that convention makes the Voter form alpha_i = c_i/n and the 3-majority
closed form exact. Neighbor-only sampling exists only in the coalescing
module, where the duality coupling requires it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal, Optional

import numpy as np

from .core import Configuration, ProbabilityVector, StopCondition, canonical_counts, canonicalize
from .core import multinomial_pvals
from .sampler import RngStream

ENUM_BUDGET = 10**7  # guard on k**h for the exact plurality enumeration


class NotAnACProcess(TypeError):
    """2-Choices has no process function: adoption depends on own color."""


class TooManyColorsForExactH(ValueError):
    pass


class NoClosedForm(ValueError):
    pass


VOTER = "Voter"
TWO_CHOICES = "TwoChoices"
H_MAJORITY = "HMajority"


@dataclass(frozen=True)
class UpdateRule:
    kind: Literal["Voter", "TwoChoices", "HMajority"]
    h: int = 0

    def __post_init__(self):
        if self.kind not in (VOTER, TWO_CHOICES, H_MAJORITY):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind == H_MAJORITY and self.h < 1:
            raise ValueError("HMajority needs h >= 1")

    @property
    def is_ac(self) -> bool:
        return self.kind in (VOTER, H_MAJORITY)

    def label(self) -> str:
        if self.kind == H_MAJORITY:
            return f"hmaj:{self.h}"
        return {VOTER: "voter", TWO_CHOICES: "2choices"}[self.kind]


def voter_rule() -> UpdateRule:
    return UpdateRule(VOTER)


def two_choices_rule() -> UpdateRule:
    return UpdateRule(TWO_CHOICES)


def h_majority_rule(h: int) -> UpdateRule:
    return UpdateRule(H_MAJORITY, h=h)


def _three_majority_alpha(x: np.ndarray) -> np.ndarray:
    # alpha_i = x_i * (1 + x_i - ||x||_2^2)
    sq = float(np.dot(x, x))
    return x * (1.0 + x - sq)


def plurality_enumeration_alpha(x: np.ndarray, h: int) -> np.ndarray:
    """Exact h-sample plurality adoption probabilities by enumeration.

    Iterates over all count vectors of the h samples (multinomial support);
    a color attaining the maximum multiplicity wins, ties split uniformly
    among the tied sampled colors.
    """
    k = len(x)
    if k**h > ENUM_BUDGET:
        raise TooManyColorsForExactH(f"k^h = {k}^{h} exceeds enumeration budget")
    alpha = np.zeros(k)
    for counts in _compositions(h, k):
        p = _multinomial_pmf(counts, x)
        if p == 0.0:
            continue
        mx = max(counts)
        winners = [i for i, c in enumerate(counts) if c == mx]
        share = p / len(winners)
        for i in winners:
            alpha[i] += share
    return alpha


def _compositions(total: int, parts: int):
    """All non-negative integer vectors of given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multinomial_pmf(counts: tuple[int, ...], x: np.ndarray) -> float:
    """P(Mult(sum(counts), x) = counts); 0 as soon as a sampled x_i is 0."""
    p = math.factorial(sum(counts))
    for c, xi in zip(counts, x):
        if c:  # c == 0 contributes factor 1
            if xi == 0.0:
                return 0.0
            p = p * xi**c / math.factorial(c)
    return p


def _alpha(rule: UpdateRule, x: np.ndarray) -> np.ndarray:
    """Unchecked alpha at fractions x; process_function and the AC round share it."""
    if not rule.is_ac:
        raise NotAnACProcess("2-Choices is not an AC process")
    if rule.kind == VOTER or rule.h <= 2:
        # sampling 1 node, or 2 with a uniform tie-break, is plain Voter
        return x
    if rule.h == 3:
        return _three_majority_alpha(x)
    return plurality_enumeration_alpha(x, rule.h)


def process_function(rule: UpdateRule, c: Configuration) -> ProbabilityVector:
    """Adoption-probability vector alpha(c) for an AC rule."""
    return ProbabilityVector(_alpha(rule, c.fractions()))


def process_function_exact(rule: UpdateRule, c: Configuration) -> list[Fraction]:
    """Process function over exact rationals (Voter and HMajority(h<=3))."""
    if not rule.is_ac:
        raise NotAnACProcess("2-Choices is not an AC process")
    x = c.exact_fractions()
    if rule.kind == VOTER or (rule.kind == H_MAJORITY and rule.h <= 2):
        return x
    if rule.kind == H_MAJORITY and rule.h == 3:
        sq = sum(xi * xi for xi in x)
        return [xi * (1 + xi - sq) for xi in x]
    raise NoClosedForm(f"no rational closed form for h = {rule.h}")


def _counts(c: Configuration) -> np.ndarray:
    return np.array(c.counts, dtype=np.int64)


def _configuration(counts: np.ndarray) -> Configuration:
    return Configuration(tuple(counts.tolist()))


def _ac_round(rule: UpdateRule, counts: np.ndarray, n: int, gen: np.random.Generator) -> np.ndarray:
    """One synchronous round of an AC process: Mult(n, alpha(counts / n))."""
    return canonical_counts(gen.multinomial(n, multinomial_pvals(_alpha(rule, counts / n))))


def _two_choices_per_node(counts: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    node_colors = np.repeat(np.arange(len(counts)), counts)
    new_colors, _, _ = two_choices_node_round(node_colors, gen)
    return canonical_counts(np.bincount(new_colors, minlength=len(counts)))


def _two_choices_round(counts: np.ndarray, n: int, gen: np.random.Generator) -> np.ndarray:
    """One 2-Choices round, blockwise, or per node when k^2 > 8n."""
    k = len(counts)
    if k * k > 8 * n:
        return _two_choices_per_node(counts, gen)
    q = (counts / n) ** 2  # prob both samples show color i
    new_counts = np.zeros(k, dtype=np.int64)
    for j in range(k):
        theta = q.copy()
        theta[j] = 0.0  # moving to own color is just keeping it
        stay = 1.0 - theta.sum()
        movers = gen.multinomial(counts[j], np.append(theta, stay))
        new_counts += movers[:k]
        new_counts[j] += movers[k]
    return canonical_counts(new_counts)


def _round(rule: UpdateRule, counts: np.ndarray, n: int, gen: np.random.Generator) -> np.ndarray:
    if rule.kind == TWO_CHOICES:
        return _two_choices_round(counts, n, gen)
    return _ac_round(rule, counts, n, gen)


def step_ac(rule: UpdateRule, c: Configuration, rng: RngStream) -> Configuration:
    """One synchronous round of an AC process: Mult(n, alpha(c))."""
    return _configuration(_ac_round(rule, _counts(c), c.n, rng.gen))


def step_ac_reference(rule: UpdateRule, c: Configuration, rng: RngStream) -> Configuration:
    """Literal per-node stepper: every node samples h nodes and applies the rule.

    Used to cross-validate the multinomial fast path; O(n*h) per round.
    """
    if not rule.is_ac:
        raise NotAnACProcess("2-Choices is not an AC process")
    n = c.n
    h = 1 if rule.kind == VOTER else rule.h
    node_colors = np.repeat(np.arange(len(c.counts)), c.counts)
    gen = rng.gen
    new_colors = np.empty(n, dtype=np.int64)
    for u in range(n):
        samples = node_colors[gen.integers(0, n, size=h)]
        vals, cnts = np.unique(samples, return_counts=True)
        mx = cnts.max()
        winners = vals[cnts == mx]
        new_colors[u] = winners[gen.integers(0, len(winners))]
    return canonicalize(np.bincount(new_colors, minlength=len(c.counts)))


def step_two_choices(c: Configuration, rng: RngStream) -> Configuration:
    """One 2-Choices round: adopt color i iff both samples show i.

    Blockwise path: for each source color j, the movers to the other colors
    follow Mult(c_j, ((c_i/n)^2)_i, stay) via one multinomial draw, which is
    the sequentially conditioned binomial scheme. With many colors
    (k^2 > 8n) the per-node round of step_two_choices_per_node is cheaper.
    Both paths realize the same one-step law.
    """
    return _configuration(_two_choices_round(_counts(c), c.n, rng.gen))


def two_choices_node_round(
    node_colors: np.ndarray, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One 2-Choices round on a node-color array; returns (new, i1, i2).

    Node j samples the nodes i1[j] and i2[j] (uniform, self included) and
    adopts their color iff the two agree.
    """
    n = len(node_colors)
    i1 = gen.integers(0, n, size=n)
    i2 = gen.integers(0, n, size=n)
    s1 = node_colors[i1]
    s2 = node_colors[i2]
    return np.where(s1 == s2, s1, node_colors), i1, i2


def step_two_choices_per_node(c: Configuration, rng: RngStream) -> Configuration:
    """Per-node 2-Choices round, the production path for k^2 > 8n; the
    tests cross-check it in distribution against the blockwise path."""
    return _configuration(_two_choices_per_node(_counts(c), rng.gen))


# the per-node round's former name
step_two_choices_reference = step_two_choices_per_node


def step_rule(rule: UpdateRule, c: Configuration, rng: RngStream) -> Configuration:
    """Dispatch one round for any implemented rule."""
    return _configuration(_round(rule, _counts(c), c.n, rng.gen))


def run_until(
    rule: UpdateRule,
    c: Configuration,
    stop: StopCondition,
    rng: RngStream,
    on_round: Optional[Callable[[int, np.ndarray], None]] = None,
) -> tuple[Optional[int], Configuration]:
    """Step `rule` from c until at most stop.kappa colors remain.

    Returns (t, c_t): t is the first round with at most kappa colors (0 if
    c already has them), or None if max_rounds pass first; c_t is the last
    configuration. on_round(t, counts) is called after every round with the
    round's canonical counts: a read-only int64 array, non-increasing, no
    zeros. The state stays such an array; the draws are step_rule's.
    """
    if c.number_of_colors() <= stop.kappa:
        return 0, c
    counts, n, gen = _counts(c), c.n, rng.gen
    for t in range(1, stop.max_rounds + 1):
        counts = _round(rule, counts, n, gen)
        if on_round is not None:
            on_round(t, counts)
        if len(counts) <= stop.kappa:
            return t, _configuration(counts)
    return None, _configuration(counts)


def expected_fraction_after_step(rule: UpdateRule, c: Configuration) -> ProbabilityVector:
    """Expected color fractions after one round.

    An AC round is Mult(n, alpha(c)), so its expectation is alpha(c).
    2-Choices has the 3-majority alpha as its expectation, the
    identical-expectation fact that makes their runtime gap surprising.
    """
    if rule.kind == TWO_CHOICES:
        return ProbabilityVector(_three_majority_alpha(c.fractions()))
    return process_function(rule, c)
