"""Update rules: process functions for AC dynamics and one-step steppers.

Sampling is with replacement, uniform over all n nodes (self included);
that convention makes the Voter form alpha_i = c_i/n and the 3-majority
closed form exact. Neighbor-only sampling exists only in the coalescing
module, where the duality coupling requires it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional, Sequence

import numpy as np

from .core import StopCondition, canonical_counts, check_canonical, multinomial_pvals
from .sampler import RngStream

# run_block's rows: at most BLOCK_ROWS, and at most BLOCK_CELLS counts once n
# exceeds BLOCK_CELLS / BLOCK_ROWS, so an int64 block stays within 16 MB
BLOCK_ROWS = 64
BLOCK_CELLS = 2**21
DP_NUMBERS = 2**22  # plurality_alpha's working numbers per slice of rows: 32 MB of floats


class NotAnACProcess(ValueError):
    """2-Choices has no process function: adoption depends on own color."""


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


def parse_rule(text: str) -> UpdateRule:
    """The rule a label names (voter | 2choices | hmaj:<h>), or the <h>maj
    alias used in reports; case and surrounding space ignored."""
    text = text.strip().lower()
    if text == "voter":
        return voter_rule()
    if text == "2choices":
        return two_choices_rule()
    if text.startswith("hmaj:"):
        try:
            h = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"rule: bad h in {text!r}") from None
        return h_majority_rule(h)
    if text.endswith("maj") and text[:-3].isdigit():
        return h_majority_rule(int(text[:-3]))
    raise ValueError(f"rule: unknown rule {text!r} (want voter|2choices|hmaj:<h>)")


def _three_majority_alpha(x: np.ndarray) -> np.ndarray:
    # alpha_i = x_i * (1 + x_i - ||x||_2^2) along the last axis, built in one
    # array by those IEEE operations; one einsum for every shape calls no
    # BLAS kernel, and is exact on Fractions
    sq = np.expand_dims(np.einsum("...i,...i->...", x, x), -1)
    alpha = x + 1
    alpha -= sq
    alpha *= x
    return alpha


@functools.cache
def _plurality_layout(h: int, exact: bool) -> tuple[np.ndarray, ...]:
    """plurality_alpha's DP for h samples, as read-only arrays (start, step,
    prefix, suffix, count, weight, factorial).

    State (m, r, t), for each winning count m in 1..h: the colors seen so
    far took r <= h - m samples, none more than m, and t of them exactly m;
    start is 1 at r = 0. Index S, one past the last state, is a zero slot.
    step[c, s] is the state from which a color taking c samples reaches s
    (S if none). Pair p joins prefix state prefix[p] and suffix state
    suffix[p] of equal m = count[p] whose r add up to h - m, with weight
    h! / (t + 1), t the colors of both tied at m. factorial holds c! at
    c = 0..h. Numbers are Python ints and Fractions in object arrays when
    exact, floats otherwise.
    """
    states = [
        (m, r, t) for m in range(1, h + 1) for r in range(h - m + 1) for t in range(r // m + 1)
    ]
    index = {s: i for i, s in enumerate(states)}
    zero = len(states)
    step = np.full((h + 1, zero + 1), zero, dtype=np.intp)
    for i, (m, r, t) in enumerate(states):
        for c in range(min(m, r) + 1):  # no other color takes more than m
            step[c, i] = index.get((m, r - c, t - (c == m)), zero)
    pairs = [
        (index[m, r, t], index[m, h - m - r, u], m, Fraction(math.factorial(h), t + u + 1))
        for m, r, t in states
        for u in range((h - m - r) // m + 1)
    ]
    prefix, suffix, count, weight = (np.array(column) for column in zip(*pairs))
    dtype = object if exact else np.float64
    start = np.array([int(r == 0) for m, r, t in states] + [0], dtype=dtype)
    factorial = np.array([Fraction(math.factorial(c)) for c in range(h + 1)], dtype=dtype)
    layout = (start, step, prefix, suffix, count, weight.astype(dtype), factorial)
    for a in layout:
        a.flags.writeable = False
    return layout


def plurality_alpha(x: np.ndarray, h: int) -> np.ndarray:
    """Exact h-sample plurality adoption probabilities of fractions x, 1-d
    or one configuration per row: the largest of the h samples' counts
    wins, and a tie splits uniformly among the tied colors.

    A DP over the colors: a prefix and a suffix pass carry, per
    _plurality_layout state, the sum of prod x_i^c_i / c_i! over the counts
    c_i of the colors before (after) color j, and color j's share joins the
    two with x_j^m / m!. Computes in x's dtype: Fractions give the exact
    alpha. A zero color leaves every state as it is, so zeros anywhere in a
    row leave the other entries' bits as they are without them.
    """
    start, step, prefix, suffix, count, weight, factorial = _plurality_layout(h, x.dtype == object)
    rows = x.reshape(-1, x.shape[-1])
    k, size = rows.shape[1], len(start)
    alpha = np.empty_like(rows)
    # per entry of x the DP holds two states and a number per pair: the rows
    # go through in slices that keep those within DP_NUMBERS
    per = max(1, DP_NUMBERS // (k * (2 * size + len(prefix))))
    for first in range(0, len(rows), per):
        xt = rows[first : first + per].T
        power = [np.ones_like(xt)]
        for _ in range(h):
            power.append(power[-1] * xt)
        coef = np.stack(power, axis=-1) / factorial  # [j, row, c] = x_j^c / c!
        # run[j] holds, row by row, the prefix state before color j, then
        # the suffix state after color k - 1 - j: one gather per color for both
        nrows = xt.shape[1]
        run = np.empty((k, 2 * nrows, size), dtype=x.dtype)
        run[0] = start
        both = np.concatenate((coef[:-1], coef[:0:-1]), axis=1)[..., None]
        source = step + size * np.arange(2 * nrows)[:, None, None]
        for j in range(1, k):
            moved = run[j - 1].take(source)
            moved *= both[j - 1]
            np.add.reduce(moved, axis=1, out=run[j])
        share = run[:, :nrows, prefix] * run[::-1, nrows:, suffix]
        share *= weight * coef[..., count]
        alpha[first : first + per] = np.add.reduce(share, axis=-1).T
    return alpha.reshape(x.shape)


def _alpha(rule: UpdateRule, x: np.ndarray) -> np.ndarray:
    """Unchecked alpha at fractions x (floats, or Fractions in an object array);
    process_function, process_function_exact and _step share it. A
    2-d x holds one configuration per row, zero-padded, as in run_block."""
    if not rule.is_ac:
        raise NotAnACProcess("2-Choices is not an AC process")
    if rule.kind == VOTER or rule.h <= 2:
        # sampling 1 node, or 2 with a uniform tie-break, is plain Voter
        return x
    if rule.h == 3:
        return _three_majority_alpha(x)
    return plurality_alpha(x, rule.h)


def process_function(rule: UpdateRule, c: np.ndarray) -> np.ndarray:
    """Adoption-probability vector alpha(c) for an AC rule, read-only once
    it passes the probability-vector check."""
    check_canonical(c)
    alpha = _alpha(rule, c / c.sum())
    multinomial_pvals(alpha)  # the check; the pvals are not kept
    alpha.flags.writeable = False
    return alpha


def process_function_exact(rule: UpdateRule, c: np.ndarray) -> list[Fraction]:
    """Process function over exact rationals, for every AC rule."""
    check_canonical(c)
    # Fractions of Python ints: int64 parts would overflow silently in x**h
    counts = c.tolist()
    n = sum(counts)
    return _alpha(rule, np.array([Fraction(ci, n) for ci in counts], dtype=object)).tolist()


def _step(rule: UpdateRule, counts: np.ndarray, n: int, gen: np.random.Generator) -> np.ndarray:
    """One round of `rule` from the counts of n nodes, a 1-d row or each row
    of a 2-d zero-padded block, returned in the same layout, not
    canonicalized: the one round function of every rule.

    An AC round is Mult(n, alpha(counts / n)). A 2-Choices node adopts
    color i iff both its samples show i, with probability q_i = (c_i/n)^2
    whatever its own color. So each node leaves, independently, with
    probability s = sum(q), and a leaver lands on i with probability q_i / s
    whatever color it left (landing on its own keeps it): left_j ~ Bin(c_j, s)
    and the leavers land by Mult(sum(left), q / s), the exact law in two draws.
    """
    if rule.kind == TWO_CHOICES:
        q = (counts / n) ** 2
        s = q.sum(axis=-1, keepdims=True)
        left = gen.binomial(counts, s)
        return counts - left + gen.multinomial(left.sum(axis=-1), q / s)
    return gen.multinomial(n, multinomial_pvals(_alpha(rule, counts / n), rows=counts.ndim == 2))


def node_round(
    rule: UpdateRule, colors: np.ndarray, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One literal round on a node-color array: node j samples the h nodes
    idx[:, j] (uniform, self included; h = 1 for Voter). 2-Choices adopts
    their color iff the two agree; an AC rule adopts a color they show most
    often, the largest of one uniform key per sample breaking ties (uniform
    over tied colors, which show equally many samples). O(n*h^2) numpy, no
    loop over nodes. Returns (new colors, idx)."""
    n = len(colors)
    h = {VOTER: 1, TWO_CHOICES: 2}.get(rule.kind, rule.h)
    idx = gen.integers(0, n, size=(h, n))
    s = colors[idx]
    if rule.kind == TWO_CHOICES:
        return np.where(s[0] == s[1], s[0], colors), idx
    copies = (s[:, None, :] == s[None, :, :]).sum(axis=1)  # [a, j]: samples like s[a, j]
    key = np.where(copies == copies.max(axis=0), gen.random((h, n)), -1.0)
    return s[key.argmax(axis=0), np.arange(n)], idx


def step_rule(rule: UpdateRule, c: np.ndarray, rng: RngStream) -> np.ndarray:
    """_step's round from canonical counts c, returned as canonical counts:
    the one public single-round stepper."""
    check_canonical(c)
    return canonical_counts(_step(rule, c, int(c.sum()), rng.gen))


def block_rows(rule: UpdateRule, n: int) -> int:
    """Rows per block of n-node trials of `rule`: 1 for 2-Choices, whose
    trials do not step in lockstep, else min(64, max(1, 2^21 // n)). A
    function of the rule and n alone, so how trials fall into blocks, and
    with it every draw, does not depend on the worker count."""
    if not rule.is_ac:
        return 1
    return min(BLOCK_ROWS, max(1, BLOCK_CELLS // n))


def run_block(
    rule: UpdateRule, starts: Sequence[np.ndarray], stop: StopCondition, rng: RngStream
) -> list[tuple[Optional[int], np.ndarray, int]]:
    """Step `rule` from each start until at most stop.kappa colors remain or
    a support exceeds stop.above: the one round-and-stop driver, for every
    rule, on rng's one generator. AC trials run together through _rounds.
    2-Choices trials run one after another, each through
    _two_choices_movers' rounds, then _rounds from where those stop.

    Every start must be canonical counts of the same n. Returns, per start
    and in order, (t, c_t, peak): t is the first round with at most kappa
    colors or a support above stop.above (0 if the start already has
    them), or None if max_rounds pass first; c_t is the last round's
    canonical counts; peak is the largest support of any round from 0 to
    the last. No starts give [].
    """
    for c in starts:
        check_canonical(c)
    if not starts:
        return []
    n = int(starts[0].sum())
    if any(int(c.sum()) != n for c in starts):
        raise ValueError("run_block: every start must have the same n")
    # no support exceeds n, so a ceiling of n never stops a trial
    above = n if stop.above is None else stop.above
    if rule.is_ac:
        return _rounds(rule, starts, 0, [int(c[0]) for c in starts], n, stop, above, rng.gen)
    out = []
    for c in starts:
        t, peak = 0, int(c[0])
        if len(c) > stop.kappa:
            t, c, peak = _two_choices_movers(c, n, stop.kappa, stop.max_rounds, rng.gen, above)
        out += _rounds(rule, [c], t, [peak], n, stop, above, rng.gen)
    return out


def _rounds(
    rule: UpdateRule, rows: Sequence[np.ndarray], t: int, peak: list[int], n: int,
    stop: StopCondition, above: int, gen: np.random.Generator,
) -> list[tuple[Optional[int], np.ndarray, int]]:
    """run_block's round-and-stop loop from round t, where rows holds each
    trial's canonical counts and peak its largest support of rounds 0..t.
    Live rows step in lockstep through one _step call on the rows of a
    zero-padded int64 array. A padded zero keeps each row's law, not always
    its bits: alpha's sums run over the padded width, so a padded 3-Majority
    row's alpha may differ in the last place (by 2.2e-16 at c = (8,1,1,1,1)
    padded to 12 columns), and numpy draws nothing for a p = 0 category, so
    a padded column stays 0. A row leaves the array
    at the round it stops. Once the widest live row has shrunk by a
    quarter, the rows are sorted non-increasing and trimmed to its width.
    A lone live row (one start, a block's last, every 2-Choices row) steps
    as its 1-d canonical row instead, so a one-start run is a step_rule
    loop, draw for draw.
    """
    kappa, k = stop.kappa, np.array([len(c) for c in rows])
    least = min(k.tolist())  # the fewest colors of any live row
    counts = rows  # one start is a lone row from round t on
    if len(rows) > 1:
        counts = np.zeros((len(rows), k.max()), dtype=np.int64)
        for row, c in zip(counts, rows):
            row[: len(c)] = c
    peak = np.array(peak)
    trial = np.arange(len(rows))  # the start each live row runs
    out: list = [None] * len(rows)
    while True:
        # on up to 64 rows Python's min and max are faster than numpy's
        if least <= kappa or (above < n and max(peak.tolist()) > above):
            done = (k <= kappa) | (peak > above)  # the rows that stop at round t
            for i in np.flatnonzero(done):
                out[trial[i]] = (t, canonical_counts(counts[i].copy()), int(peak[i]))
            keep = ~done
            if not keep.any():
                return out
            counts, peak, trial, k = counts[keep], peak[keep], trial[keep], k[keep]
        if t == stop.max_rounds:
            break
        t += 1
        if len(trial) == 1:  # step_rule's round; canonical counts from here on
            c = canonical_counts(_step(rule, counts[0], n, gen))
            counts, k[0], least = [c], len(c), len(c)
            if c[0] > peak[0]:
                peak[0] = c[0]
            continue
        width = max(k.tolist())
        if 4 * width <= 3 * counts.shape[1]:
            counts = np.sort(counts, axis=1)[:, : -width - 1 : -1]
        counts = _step(rule, counts, n, gen)
        k = (counts > 0).sum(axis=1)
        least = min(k.tolist())
        np.maximum(peak, counts.max(axis=1), out=peak)
    for i, r in enumerate(trial):  # censored
        out[r] = (None, canonical_counts(counts[i].copy()), int(peak[i]))
    return out


def _two_choices_movers(
    c: np.ndarray, n: int, kappa: int, max_rounds: int, gen: np.random.Generator, above: int
) -> tuple[int, np.ndarray, int]:
    """2-Choices rounds from canonical counts c, each priced by its movers.

    A node changes color only if its two samples agree, which happens with
    probability s = sum(c_i^2) / n^2 whatever its own color, and then takes
    color L with probability c_L^2 / sum(c_i^2). So a round's movers are a
    uniform M-subset of the nodes, M ~ Bin(n, s), each landing
    independently by the pre-round counts: the law of _step's closed form.
    No round is skipped: E[M] = sum(c_i^2)/n >= 1, so a round without a
    mover has probability (1 - s)^n <= 1/e.

    The movers move in a Python loop: from n colors most active rounds
    have at most 4 movers, too few to repay numpy's per-call cost.

    Runs from round 0 until at most kappa colors remain, a support exceeds
    `above`, max_rounds pass, or E[M] = sum(c_i^2)/n exceeds the number of
    colors k; a start already there returns c without a draw. (A single
    closed-form round is cheaper from about E[M] = k/30 on, but a run from
    n colors spends few rounds between k/30 and k.) Returns (t, canonical
    counts at round t, the peak of rounds 0..t).
    """
    k = len(c)
    sumsq = sum(x * x for x in c.tolist())  # a Python int: no overflow
    peak = int(c[0])  # peak >= every count: the landing's ceiling
    if sumsq > k * n:  # hand off before building the node array
        return 0, c, peak
    counts = c.copy()  # label -> count; labels stay put, so unsorted
    labels = np.repeat(np.arange(k), c)  # node -> label
    t = 0
    while t < max_rounds and k > kappa and peak <= above and sumsq <= k * n:
        t += 1
        m = int(gen.binomial(n, sumsq / (n * n)))
        if m == 0:
            continue
        landed = _landings(m, labels, counts, n, peak, sumsq, gen).tolist()
        movers = set()
        while len(movers) < m:  # the distinct values of uniform draws
            movers.update(gen.integers(0, n, size=m - len(movers)).tolist())
        for v, new in zip(movers, landed):
            old = int(labels[v])
            if old != new:
                labels[v] = new
                c_old, c_new = int(counts[old]), int(counts[new])
                counts[old], counts[new] = c_old - 1, c_new + 1
                sumsq += 2 * (c_new - c_old + 1)
                # a label emptied earlier this round and refilled counts back
                k += (c_new == 0) - (c_old == 1)
        # only a label landed on can grow
        peak = max(peak, max(int(counts[label]) for label in landed))
    return t, canonical_counts(counts), peak


def _landings(
    m: int, labels: np.ndarray, counts: np.ndarray, n: int, bound: int, sumsq: int,
    gen: np.random.Generator,
) -> np.ndarray:
    """m independent labels, each L with probability c_L^2 / sumsq, by
    size-biased rejection: a uniform node's label L, accepted with
    probability c_L / bound (bound >= every count). One integer below
    n * bound gives both uniforms; the candidates come in batches sized by
    the acceptance rate sumsq / (n * bound)."""
    landed = np.empty(0, dtype=np.int64)
    while len(landed) < m:
        need = m - len(landed)
        x = gen.integers(0, n * bound, size=need * n * bound // sumsq + need)
        label = labels[x // bound]
        landed = np.concatenate((landed, label[x % bound < counts[label]][:need]))
    return landed


def expected_fraction_after_step(rule: UpdateRule, c: np.ndarray) -> np.ndarray:
    """Expected color fractions after one round.

    An AC round is Mult(n, alpha(c)), so its expectation is alpha(c).
    2-Choices has the 3-majority alpha as its expectation, the
    identical-expectation fact that makes their runtime gap surprising.
    """
    return process_function(h_majority_rule(3) if rule.kind == TWO_CHOICES else rule, c)
