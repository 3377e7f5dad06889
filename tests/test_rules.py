import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from consensuslab import rules
from consensuslab.core import (
    PREFIX_SLACK,
    InvalidConfiguration,
    InvalidProbabilityVector,
    StopCondition,
    canonical_counts,
    canonicalize,
    multinomial_pvals,
)
from consensuslab.dominance import enumerate_configurations
from consensuslab.harness import (
    initial_counts,
    run_coupled_dominating_process,
    run_lower_bound_experiment,
)
from consensuslab.rules import (
    NotAnACProcess,
    UpdateRule,
    expected_fraction_after_step,
    h_majority_rule,
    parse_rule,
    plurality_alpha,
    process_function,
    process_function_exact,
    node_round,
    run_block,
    step_rule,
    two_choices_rule,
    voter_rule,
)
from consensuslab.sampler import RngStream

from block_replay import replay_block
from multinomial_oracle import multinomial_law
from step_oracle import step_reference


def test_rule_labels_and_flags():
    assert voter_rule().label() == "voter"
    assert two_choices_rule().label() == "2choices"
    assert h_majority_rule(3).label() == "hmaj:3"
    assert voter_rule().is_ac
    assert h_majority_rule(5).is_ac
    assert not two_choices_rule().is_ac


def test_parse_rule():
    # parse_rule inverts label, and reads the <h>maj alias
    for rule in (voter_rule(), two_choices_rule(), *(h_majority_rule(h) for h in range(1, 7))):
        assert parse_rule(rule.label()) == rule
    assert parse_rule("3maj") == h_majority_rule(3)
    assert parse_rule(" HMAJ:4 ") == h_majority_rule(4)
    with pytest.raises(ValueError, match="unknown rule 'quorum'"):
        parse_rule("quorum")
    with pytest.raises(ValueError, match="bad h"):
        parse_rule("hmaj:zero")


def test_rule_validation():
    with pytest.raises(ValueError):
        h_majority_rule(0)
    with pytest.raises(ValueError):
        UpdateRule(kind="Nope", h=None)


def test_process_function_returns_a_read_only_float64_array():
    c = canonicalize([5, 3, 2])
    rules_ac = (voter_rule(), h_majority_rule(3), h_majority_rule(4))
    alphas = [process_function(rule, c) for rule in rules_ac]
    alphas.append(expected_fraction_after_step(two_choices_rule(), c))
    for alpha in alphas:
        assert type(alpha) is np.ndarray
        assert alpha.dtype == np.float64
        assert alpha.shape == (3,)
        with pytest.raises(ValueError):
            alpha[0] = 0.5
    # each call returns its own array, not one shared with c or another call
    assert not np.shares_memory(alphas[0], process_function(voter_rule(), c))


def test_voter_alpha_is_identity_on_fractions():
    c = canonicalize([5, 3, 2])
    alpha = process_function(voter_rule(), c)
    assert np.allclose(alpha, c / c.sum())


def test_h1_and_h2_majority_equal_voter_exactly():
    c = canonicalize([7, 4, 2, 1])
    base = process_function(voter_rule(), c)
    for h in (1, 2):
        alpha = process_function(h_majority_rule(h), c)
        assert np.array_equal(alpha, base)
        exact = process_function_exact(h_majority_rule(h), c)
        assert exact == [Fraction(ci, 14) for ci in c.tolist()]


def test_three_majority_closed_form_matches_enumeration():
    for counts in ([5, 3, 2], [6, 2, 2, 2], [1, 1, 1, 1], [9, 1]):
        c = canonicalize(counts)
        x = c / c.sum()
        closed = process_function(h_majority_rule(3), c)
        assert np.allclose(closed, _enumeration_loop(x, 3), atol=1e-12)


def test_three_majority_exact_value():
    c = canonicalize([6, 2, 2, 2])
    exact = process_function_exact(h_majority_rule(3), c)
    assert exact[0] == Fraction(7, 12)
    assert sum(exact) == 1


def test_exact_plurality_alpha_sums_to_one_and_matches_floats():
    for counts in ([5, 3, 2], [6, 2, 2, 2], [4, 4, 3, 1]):
        c = canonicalize(counts)
        for h in (4, 5):
            exact = process_function_exact(h_majority_rule(h), c)
            assert all(isinstance(a, Fraction) for a in exact)
            assert sum(exact) == 1
            approx = process_function(h_majority_rule(h), c)
            assert np.max(np.abs(np.array(exact, dtype=float) - approx)) <= 1e-12


def test_process_function_exact_keeps_python_int_fractions():
    # n^4 > 2^63 here: Fractions with int64 parts would overflow silently in x**4
    c = canonicalize([300001, 200003, 100007])
    exact = process_function_exact(h_majority_rule(4), c)
    for a in exact:
        assert type(a) is Fraction
        assert type(a.numerator) is int and type(a.denominator) is int
    assert sum(exact) == 1


def test_plurality_alpha_is_probability_vector():
    x = np.array([0.4, 0.3, 0.2, 0.1])
    for h in (3, 4, 5):
        alpha = plurality_alpha(x, h)
        assert np.isclose(alpha.sum(), 1.0)
        assert (alpha >= 0).all()
        # heavier colors never end up less likely
        assert np.all(np.diff(alpha) <= 1e-12)


def test_plurality_alpha_from_many_colors():
    # C(105, 6) ~ 1.6e9 sample multisets: the DP walks 100 colors instead
    alpha = plurality_alpha(np.full(100, 0.01), 6)
    assert np.allclose(alpha, 0.01, rtol=1e-13, atol=0)
    assert math.isclose(alpha.sum(), 1.0, rel_tol=1e-13)


def _enumeration_loop(x, h):
    """plurality_alpha as a Python loop over multinomial_law: its oracle,
    exact in Fractions."""
    alpha = np.zeros(len(x), dtype=x.dtype)
    for counts, p in multinomial_law(h, x):
        if p == 0.0:
            continue
        mx = max(counts)
        winners = [i for i, c in enumerate(counts) if c == mx]
        share = p / len(winners)
        for i in winners:
            alpha[i] += share
    return alpha


@pytest.mark.parametrize("h", [4, 5, 6, 7])
def test_plurality_alpha_equals_the_enumeration_loop(h):
    rng = np.random.default_rng(h)
    for k in range(1, 13):
        # counts with ties and zeros: equal to the loop's exact alpha
        c = rng.integers(0, 4, size=k)
        c[rng.integers(0, k)] = 0
        n = max(int(c.sum()), 1)
        x = np.array([Fraction(int(ci), n) for ci in c], dtype=object)
        exact = _enumeration_loop(x, h)
        got = plurality_alpha(x, h)
        assert got.dtype == object and all(type(a) is Fraction for a in got)
        assert (got == exact).all()
        # floats: within 1e-14 of the exact rational
        approx = plurality_alpha(c / n, h)
        assert np.max(np.abs(approx - exact.astype(float))) <= 1e-14


@pytest.mark.parametrize("h", [4, 5, 8])
def test_plurality_alpha_rows_ignore_zeros(h, monkeypatch):
    # a zero color anywhere in a row of a block leaves the other entries'
    # bits as the 1-d call on the row's nonzero entries gives them, whether
    # the block goes through whole or (DP_NUMBERS = 1) one row at a time
    rng = np.random.default_rng(h)
    for k in range(1, 10):
        v = rng.random(k)
        v[rng.integers(0, k, size=k // 2)] = v[0]  # ties
        v /= v.sum()
        block = np.zeros((4, k + 6))
        live = [np.sort(rng.choice(k + 6, size=k, replace=False)) for _ in block]
        live[0] = np.arange(k)
        for row, cols in zip(block, live):
            row[cols] = v
        alpha = plurality_alpha(block, h)
        want = plurality_alpha(v, h)
        for a, cols in zip(alpha, live):
            assert np.array_equal(a[cols], want)
            assert not np.delete(a, cols).any()
        with monkeypatch.context() as patch:
            patch.setattr(rules, "DP_NUMBERS", 1)
            assert np.array_equal(plurality_alpha(block, h), alpha)


def test_three_majority_alpha_of_a_padded_row():
    # a padded zero keeps a row's law, not always its bits: the sum of
    # squares runs over the padded width, so alpha may move in the last
    # place; a padded column's alpha is 0, and so is every draw there
    rule, c, n = h_majority_rule(3), np.array([8, 1, 1, 1, 1]), 12
    block = np.zeros((2, n), dtype=np.int64)
    block[:, : len(c)] = c
    alpha = rules._alpha(rule, block / n)
    for row in alpha:
        np.testing.assert_allclose(row[: len(c)], process_function(rule, c), rtol=1e-15, atol=0)
    assert not alpha[:, len(c) :].any()
    gen = np.random.default_rng(36)
    for _ in range(200):
        out = rules._step(rule, block, n, gen)
        assert (out.sum(axis=1) == n).all() and not out[:, len(c) :].any()


def test_h_majority_alpha_matches_per_node_simulation():
    # empirical adoption frequencies of the literal h-sample plurality rule
    c = canonicalize([3, 2, 1])
    rule = h_majority_rule(4)
    alpha = process_function(rule, c)
    draws = 20000
    rng = RngStream(9)
    tally = np.zeros(len(c) , dtype=float)
    gen = rng.gen
    x = c / c.sum()
    for _ in range(draws):
        samples = gen.choice(len(c), size=4, p=x)
        counts = np.bincount(samples, minlength=len(c))
        best = counts.max()
        tied = np.flatnonzero(counts == best)
        tally[gen.choice(tied)] += 1
    freq = tally / draws
    sigma = np.sqrt(alpha * (1 - alpha) / draws)
    assert np.all(np.abs(freq - alpha) <= 5 * sigma + 1e-9)


def _same_law_pvalue(a, b):
    """Chi-square p-value that two integer samples share one law, over the
    values seen at least 10 times in both together."""
    values, where = np.unique(np.concatenate([a, b]), return_inverse=True)
    table = np.stack([np.bincount(side, minlength=len(values))
                      for side in (where[: len(a)], where[len(a) :])])
    return stats.chi2_contingency(table[:, table.sum(axis=0) >= 10]).pvalue


@pytest.mark.parametrize("init", ["ncolor", "biased:128:20"])
def test_plurality_alpha_matches_the_literal_round_at_many_colors(init):
    # one round of hmaj:5 at n = 256 from 256 or 128 colours: Mult(n, alpha)
    # with the DP's alpha against node_round's literal samples and ties.
    # From ncolor symmetry makes every colour's alpha 1/256; the biased
    # start, largest colour 22, is where the DP's shape shows
    rule, n, draws = h_majority_rule(5), 256, 4_000
    c = initial_counts(init, n)
    rng = RngStream(31, ("literal", init))
    rows = rng.child("dp").gen.multinomial(n, multinomial_pvals(process_function(rule, c)),
                                           size=draws)
    ref = [step_reference(rule, c, rng.child("ref", t)) for t in range(draws)]
    for dp_stat, ref_stat in (
        (rows.max(axis=1), [r[0] for r in ref]),  # the largest support
        ((rows > 0).sum(axis=1), [len(r) for r in ref]),  # the colour count
    ):
        assert _same_law_pvalue(dp_stat, ref_stat) > 1e-3


def test_ac_only_entry_points_reject_two_choices():
    c = canonicalize([3, 3])
    for ac_only in (
        lambda: process_function(two_choices_rule(), c),
        lambda: process_function_exact(two_choices_rule(), c),
    ):
        with pytest.raises(NotAnACProcess):
            ac_only()


def test_step_ac_preserves_population_size():
    """The AC rules' step (through step_rule) keeps n fixed."""
    rng = RngStream(3)
    c = canonicalize([10, 6, 4])
    for rule in (voter_rule(), h_majority_rule(3), h_majority_rule(4)):
        out = step_rule(rule, c, rng.child(rule.label()))
        assert out.sum() == c.sum()


@pytest.mark.parametrize("label", ["voter", "hmaj:3", "hmaj:4"])
def test_step_reference_agrees_in_distribution(label):
    c = canonicalize([3, 2, 1])
    rule = parse_rule(label)
    rng = RngStream(21)
    draws = 6000
    seen_fast = {}
    seen_ref = {}
    for t in range(draws):
        a = tuple(step_rule(rule, c, rng.child("fast", t)).tolist())
        b = tuple(step_reference(rule, c, rng.child("ref", t)).tolist())
        seen_fast[a] = seen_fast.get(a, 0) + 1
        seen_ref[b] = seen_ref.get(b, 0) + 1
    keys = sorted(set(seen_fast) | set(seen_ref))
    table = np.array(
        [[seen_fast.get(k, 0) for k in keys], [seen_ref.get(k, 0) for k in keys]]
    )
    table = table[:, table.sum(axis=0) >= 10]
    pv = stats.chi2_contingency(table).pvalue
    assert pv > 1e-3


def _sorted_law(law):
    """A law over count vectors as the law of their canonical counts; the
    probabilities are Fractions and must add up to 1."""
    exact = {}
    for state, p in law:
        key = tuple(canonicalize(state).tolist())
        exact[key] = exact.get(key, 0) + p
    assert sum(exact.values()) == 1
    return exact


def _two_choices_exact_law(counts):
    """Exact law of the sorted counts after one 2-Choices round.

    Each node independently moves to color i != own with probability
    (c_i/n)^2, else keeps its color: the c_j nodes of color j land by
    Mult(c_j, move_j), and the colors' laws are convolved in Fractions.
    """
    n, k = sum(counts), len(counts)
    q = [Fraction(ci, n) ** 2 for ci in counts]
    law = {(0,) * k: Fraction(1)}
    for own, c_own in enumerate(counts):
        move = [q[i] if i != own else 1 - sum(q) + q[own] for i in range(k)]
        step = {}
        for state, p in law.items():
            for landed, p_landed in multinomial_law(c_own, move):
                nxt = tuple(a + b for a, b in zip(state, landed))
                step[nxt] = step.get(nxt, 0) + p * p_landed
        law = step
    return _sorted_law(law.items())


def _closed_form_round(c, rng):
    return tuple(step_rule(two_choices_rule(), c, rng).tolist())


def _per_node_round(c, rng):
    return tuple(step_reference(two_choices_rule(), c, rng).tolist())


def _ac_exact_law(rule, counts):
    """Exact law of the sorted counts after one round of an AC rule:
    Mult(n, alpha), alpha in Fractions."""
    alpha = process_function_exact(rule, canonicalize(counts))
    return _sorted_law(multinomial_law(sum(counts), alpha))


def _assert_law(round_fn, c, draws, rng, law=_two_choices_exact_law):
    """Chi-square of `draws` rounds round_fn(c, rng) against the exact law."""
    exact = law(c.tolist())
    outcomes = sorted(exact)
    tally = dict.fromkeys(outcomes, 0)
    for _ in range(draws):
        tally[round_fn(c, rng)] += 1  # a KeyError is an impossible outcome
    observed = np.array([tally[o] for o in outcomes], dtype=float)
    expected = np.array([float(exact[o]) for o in outcomes]) * draws
    # pool the outcomes expected fewer than 5 times into one cell
    rare = expected < 5
    if rare.any():
        observed = np.append(observed[~rare], observed[rare].sum())
        expected = np.append(expected[~rare], expected[rare].sum())
    pv = stats.chisquare(observed, expected).pvalue
    assert pv > 1e-3, (c.tolist(), round_fn.__name__, pv)


def test_two_choices_modes_agree_in_distribution():
    # both 2-Choices rounds, the closed-form counts draw of step_rule and
    # the per-node round, against the exact one-step law
    for counts in ([4, 2], [3, 2, 1], [2, 2, 1, 1]):
        c = canonicalize(counts)
        for round_fn in (_closed_form_round, _per_node_round):
            rng = RngStream(31, ("exact-law", round_fn.__name__) + tuple(c.tolist()))
            _assert_law(round_fn, c, 4000, rng)


@pytest.mark.parametrize("label", ["voter", "hmaj:3", "hmaj:4"])
def test_step_reference_matches_exact_ac_law(label):
    # from starts this small one node is a large share of every sample: at
    # [1, 1] a Voter that skipped itself would always swap the two colours
    rule = parse_rule(label)

    def reference_round(c, rng):
        return tuple(step_reference(rule, c, rng).tolist())

    for counts in ([1, 1], [2, 1], [2, 1, 1]):
        c = canonicalize(counts)
        rng = RngStream(34, ("ac-law", label) + tuple(counts))
        _assert_law(reference_round, c, 2000, rng, law=lambda cs: _ac_exact_law(rule, cs))


def _driver_round(c, rng):
    t, out, _ = run_block(two_choices_rule(), [c], StopCondition(max_rounds=1), rng)[0]
    # one round at most: stopped at round 1 at consensus, else censored
    assert t == (1 if len(out) == 1 else None)
    return tuple(out.tolist())


def test_two_choices_driver_one_round_law():
    # sum(c_i^2)/n <= k at these starts, so the round is the mover-priced one
    for counts in ([3, 2, 1], [2, 2, 1, 1], [1, 1, 1, 1]):
        c = canonicalize(counts)
        assert (c * c).sum() <= len(c) * c.sum()
        _assert_law(_driver_round, c, 4000, RngStream(32, ("driver-law",) + tuple(counts)))


def test_two_choices_driver_one_round_law_with_many_movers():
    # E[M] = 830/110, so most rounds move several nodes at once; the exact
    # law is out of reach, so compare sum(c_i^2) after one round against
    # the closed-form round's
    c = canonicalize([20, 10, 10] + [5] * 8 + [1] * 30)
    sumsq = {"driver": [], "closed": []}
    for trial in range(4000):
        out = _driver_round(c, RngStream(33, ("driver", trial)))
        sumsq["driver"].append(sum(x * x for x in out))
        out = _closed_form_round(c, RngStream(33, ("closed", trial)))
        sumsq["closed"].append(sum(x * x for x in out))
    assert stats.ks_2samp(sumsq["driver"], sumsq["closed"]).pvalue > 1e-3


@pytest.mark.parametrize(
    "counts, kappa",
    [([1, 1], 1), ([1, 1, 1], 1), ([1, 1, 1], 2)],
    ids=["k2-kappa1", "k3-kappa1", "k3-kappa2"],
)
def test_two_choices_driver_invariants(monkeypatch, counts, kappa):
    # every state of these runs has sum(c_i^2)/n <= k, so each round is a
    # mover round. A label emptied and refilled in one round must count as a
    # color again; if it does not, the driver sees too few colors, leaves
    # early and the closed-form round runs
    def no_closed_form(*args):
        raise AssertionError("a closed-form round ran")

    monkeypatch.setattr(rules, "_step", no_closed_form)
    c0, stopped = canonicalize(counts), 0
    for seed in range(300):
        t, c, peak = run_block(
            two_choices_rule(), [c0], StopCondition(kappa=kappa, max_rounds=5), RngStream(seed)
        )[0]
        assert (len(c) <= kappa) == (t is not None), (seed, t, c.tolist())
        assert c[0] <= peak <= c0.sum() and c.sum() == c0.sum()
        stopped += t is not None
    assert 0 < stopped < 300


def _first_support_above(above, max_rounds, stream):
    c0, stop = initial_counts(NCOLOR, 200), StopCondition(max_rounds=max_rounds, above=above)
    return run_block(two_choices_rule(), [c0], stop, RngStream(7, stream))[0]


@pytest.mark.parametrize("above", [5, 150], ids=["mover-rounds", "closed-form-rounds"])
def test_run_until_stops_at_the_first_support_above(above):
    # the stop the lower-bound experiment uses. From 200 colours a support
    # first passes 5 in the mover-priced rounds, and 150 after the hand-off
    # to the closed form, which comes with the largest support near 100-140.
    # The run capped one round before the stop makes the same draws up to
    # its cap, so it is censored with no support above
    for seed in range(40):
        stream = ("above", above, seed)
        t, c, peak = _first_support_above(above, 10**5, stream)
        assert t is not None and t >= 1 and c[0] == peak > above, (seed, t, peak)
        t_cap, c_cap, peak_cap = _first_support_above(above, t - 1, stream)
        assert t_cap is None and c_cap[0] <= peak_cap <= above, (seed, t, peak_cap)


def test_first_support_above_matches_per_node_loop_in_law():
    # the lower-bound experiment's first-exceedance time against the literal
    # per-node loop it replaced
    n, above, trials = 200, 5, 300
    times = {"driver": [], "per-node": []}
    for trial in range(trials):
        t, _, _ = _first_support_above(above, 10**5, ("law", trial))
        times["driver"].append(t)
        gen = RngStream(8, ("per-node", trial)).gen
        node_colors = np.arange(n)
        for t in range(1, 10**5):
            node_colors, _ = node_round(two_choices_rule(), node_colors, gen)
            if np.bincount(node_colors).max() > above:
                break
        times["per-node"].append(t)
    assert stats.ks_2samp(times["driver"], times["per-node"]).pvalue > 1e-3


def test_two_choices_expected_fractions_match_three_majority():
    c = canonicalize([5, 3, 2])
    a = expected_fraction_after_step(two_choices_rule(), c)
    b = process_function(h_majority_rule(3), c)
    assert a.tolist() == b.tolist()


def test_ac_expected_fractions_are_the_process_function():
    # E[Mult(n, alpha) / n] = alpha for every AC rule, h = 2 and h = 4 included
    c = canonicalize([5, 3, 2])
    for h in (2, 4):
        rule = h_majority_rule(h)
        mu = expected_fraction_after_step(rule, c)
        assert mu.tolist() == process_function(rule, c).tolist()
    assert expected_fraction_after_step(h_majority_rule(2), c).tolist() == (
        (c / c.sum()).tolist()
    )


def test_two_choices_empirical_mean_matches_formula():
    # start lopsided enough that the heavy color stays on top, so the sorted
    # leading count identifies it and its mean tracks the one-step expectation
    c = canonicalize([9, 1])
    mu = expected_fraction_after_step(two_choices_rule(), c)[0]
    rng = RngStream(17)
    draws = 20000
    vals = np.empty(draws)
    for t in range(draws):
        out = step_rule(two_choices_rule(), c, rng.child(t))
        vals[t] = out[0] / c.sum()
    assert abs(vals.mean() - mu) < 0.005


def test_step_takes_two_choices_rows_of_a_padded_block():
    # _step on a 2-d block steps each row by its own closed form: n stays
    # per row, a padded zero stays zero, and the mean is n times the row's
    # 3-Majority alpha
    rows = [[5, 3, 2, 0], [6, 4, 0, 0]]
    block, gen, draws = np.array(rows), np.random.default_rng(18), 4000
    out = np.array([rules._step(two_choices_rule(), block, 10, gen) for _ in range(draws)])
    assert (out.sum(axis=2) == 10).all() and (out[:, 1, 2:] == 0).all() and (out[:, 0, 3] == 0).all()
    for i, row in enumerate(rows):
        c = canonicalize(row)
        mean = 10 * expected_fraction_after_step(two_choices_rule(), c)
        assert np.abs(out[:, i, : len(c)].mean(axis=0) - mean).max() < 0.15, (row, mean)


def test_step_rule_dispatch():
    rng = RngStream(1)
    for counts in ([4, 4], [10, 6, 4]):
        c = canonicalize(counts)
        for rule in (voter_rule(), two_choices_rule(), h_majority_rule(3), h_majority_rule(4)):
            out = step_rule(rule, c, rng.child(rule.label(), *counts))
            assert out.sum() == c.sum()


def test_absorbing_consensus():
    rng = RngStream(2)
    c = canonicalize([10])
    for rule in (voter_rule(), two_choices_rule(), h_majority_rule(3)):
        out = step_rule(rule, c, rng.child(rule.label()))
        assert out.tolist() == [10]


def _stepper_loop(rule, c, stop, rng):
    """run_block on one start, written as a literal step_rule loop: its
    oracle. Also returns every round's counts, round 0 included."""
    seen = [tuple(c.tolist())]
    if len(c) <= stop.kappa:
        return 0, c, seen
    for t in range(1, stop.max_rounds + 1):
        c = step_rule(rule, c, rng)
        seen.append(tuple(c.tolist()))
        if len(c) <= stop.kappa:
            return t, c, seen
    return None, c, seen


BALANCED6, NCOLOR = "balanced:6", "ncolor"


@pytest.mark.parametrize(
    "rule, init, n, stop",
    [
        # the caps are about 3x the longest run these seeds give, so a stop
        # check that never fires fails fast instead of running 10^6 rounds
        (voter_rule(), BALANCED6, 120, StopCondition(max_rounds=900)),
        (h_majority_rule(2), BALANCED6, 120, StopCondition(max_rounds=500)),
        (h_majority_rule(3), BALANCED6, 120, StopCondition(max_rounds=39)),
        (h_majority_rule(4), BALANCED6, 120, StopCondition(max_rounds=36)),
        # sum(c_i^2)/n = 500 > k = 4: the closed-form round from round 1
        (two_choices_rule(), "balanced:4", 2000, StopCondition(max_rounds=60)),
        (h_majority_rule(3), BALANCED6, 120, StopCondition(max_rounds=3)),
    ],
    ids=["voter", "hmaj2", "hmaj3", "hmaj4", "2choices-blockwise", "censored"],
)
def test_run_until_matches_stepper_loop(rule, init, n, stop):
    c0 = initial_counts(init, n)
    stream = ("oracle", rule.label(), init, n)
    t, c, peak = run_block(rule, [c0], stop, RngStream(5, stream))[0]
    t_ref, c_ref, seen = _stepper_loop(rule, c0, stop, RngStream(5, stream))
    assert t == t_ref
    assert np.array_equal(c, c_ref)
    assert type(peak) is int and peak == max(counts[0] for counts in seen)
    assert (t is None) == (stop.max_rounds == 3)


@pytest.mark.parametrize("kappa", [1, 20])
def test_two_choices_driver_matches_stepper_loop_in_law(kappa):
    # from n colours the driver moves only the movers, so its draws are not
    # step_rule's: compare the laws of the stop time and the peak instead
    n, trials = 200, 400
    c0 = initial_counts(NCOLOR, n)
    stop = StopCondition(kappa=kappa, max_rounds=10**5)
    runs = {"driver": [], "loop": []}
    for trial in range(trials):
        rng = RngStream(6, ("driver", kappa, trial))
        t, c, peak = run_block(two_choices_rule(), [c0], stop, rng)[0]
        assert t is not None and len(c) <= kappa and c[0] <= peak <= n
        runs["driver"].append((t, peak))
        t, _, seen = _stepper_loop(two_choices_rule(), c0, stop, RngStream(6, ("loop", kappa, trial)))
        runs["loop"].append((t, max(counts[0] for counts in seen)))
    driver, loop = np.array(runs["driver"]), np.array(runs["loop"])
    for col, what in ((0, "stop time"), (1, "peak")):
        if kappa == 1 and col == 1:
            assert (driver[:, 1] == n).all() and (loop[:, 1] == n).all()
            continue
        pv = stats.ks_2samp(driver[:, col], loop[:, col]).pvalue
        assert pv > 1e-3, (kappa, what, pv)


# starts of 40 nodes for run_block: from 40 colours down to 1, three of them
# already at kappa = 2 colours
BLOCK_STARTS = ("ncolor", "balanced:20", "balanced:6", "biased:3:10", "explicit:39,1",
                "explicit:40", "balanced:2")


@pytest.mark.parametrize("max_rounds", [10**4, 4], ids=["stops", "censored"])
@pytest.mark.parametrize("label", ["voter", "hmaj:3", "hmaj:4"])
def test_run_block_replays_a_per_row_loop(label, max_rounds):
    rule, n = parse_rule(label), 40
    stop = StopCondition(kappa=2, max_rounds=max_rounds)
    # 21 rows in lockstep, and a block whose last row, from ncolor, runs
    # alone once the other stops
    blocks = {("block", label, max_rounds): [initial_counts(init, n) for init in BLOCK_STARTS] * 3}
    blocks["tail", label, max_rounds] = [initial_counts(i, n) for i in ("explicit:30,5,5", NCOLOR)]
    runs = []
    for stream, starts in blocks.items():
        got = run_block(rule, starts, stop, RngStream(11, stream))
        runs.append([t for t, _, _ in got])
        want = replay_block(rule, starts, stop, RngStream(11, stream))
        assert len(got) == len(starts)
        for (t, c, peak), (t_ref, c_ref, rounds) in zip(got, want):
            _assert_canonical_counts(c, n)
            assert t == t_ref and tuple(c.tolist()) == c_ref, stream
            assert type(peak) is int and peak == max(counts[0] for counts in rounds)
            assert len(rounds) == (max_rounds if t is None else t) + 1
    assert runs[0].count(0) == 9 and (None in runs[0]) == (max_rounds == 4)
    if max_rounds > 4:  # the tail block's last row ran alone for many rounds
        assert runs[-1][1] - runs[-1][0] >= 10, runs[-1]


@pytest.mark.parametrize("label", ["voter", "hmaj:3", "hmaj:4"])
def test_run_block_runs_one_start_as_run_until(label):
    # one start is a lone row from round 0: it takes a step_rule loop's
    # draws, and the replay's sort-every-round loop repeats them
    rule, n = parse_rule(label), 40
    for i, init in enumerate(BLOCK_STARTS[2:]):
        c0 = initial_counts(init, n)
        for stop in (StopCondition(kappa=2), StopCondition(kappa=1, max_rounds=3)):
            stream = ("one", label, i, stop.kappa)
            (t, c, peak), = run_block(rule, [c0], stop, RngStream(13, stream))
            t_ref, c_ref, seen = _stepper_loop(rule, c0, stop, RngStream(13, stream))
            assert (t, c.tolist(), peak) == (t_ref, c_ref.tolist(), max(s[0] for s in seen))
            (t_rep, c_rep, rounds), = replay_block(rule, [c0], stop, RngStream(13, stream))
            assert t_rep == t and c_rep == tuple(c.tolist())
            assert peak == max(counts[0] for counts in rounds)


@pytest.mark.parametrize(
    "label, init, n", [("voter", NCOLOR, 32), ("hmaj:3", NCOLOR, 64), ("hmaj:4", "balanced:5", 60)]
)
def test_run_block_matches_run_until_in_law(label, init, n):
    # a block's draws are not a lone start's: compare the laws of the stop time
    # and the peak, over 300 trials in blocks of 64 rows and a cut last one of 44
    rule, c0, trials = parse_rule(label), initial_counts(init, n), 300
    stop = StopCondition(kappa=2, max_rounds=10**5)
    block = [
        (t, peak)
        for b, size in enumerate([64] * 4 + [44])
        for t, _, peak in run_block(rule, [c0] * size, stop, RngStream(12, ("block", label, b)))
    ]
    loop = []
    for trial in range(trials):
        t, _, peak = run_block(rule, [c0], stop, RngStream(12, ("trial", label, trial)))[0]
        loop.append((t, peak))
    block, loop = np.array(block), np.array(loop)
    for col, what in ((0, "stop time"), (1, "peak")):
        pv = stats.ks_2samp(block[:, col], loop[:, col]).pvalue
        assert pv > 1e-3, (label, what, pv)


def _two_choices_rows(starts, stop, gen):
    """run_block's 2-Choices rows written out: each start in turn on one
    generator takes the mover rounds, then the closed-form round, written
    out here, until it stops."""
    n, out = int(starts[0].sum()), []
    for c in starts:
        t, peak = 0, int(c[0])
        if len(c) > stop.kappa:
            t, c, peak = rules._two_choices_movers(c, n, stop.kappa, stop.max_rounds, gen, n)
        while len(c) > stop.kappa and t < stop.max_rounds:
            q = (c / n) ** 2
            s = q.sum()
            left = gen.binomial(c, s)
            t, c = t + 1, canonical_counts(c - left + gen.multinomial(left.sum(), q / s))
            peak = max(peak, int(c[0]))
        out.append((t if len(c) <= stop.kappa else None, c, peak))
    return out


@pytest.mark.parametrize("max_rounds", [10**4, 3], ids=["stops", "censored"])
def test_run_block_runs_two_choices_rows_one_after_another(max_rounds):
    # 2-Choices rows do not step in lockstep: each runs in turn on the
    # block's generator. From ncolor the first row runs mover-priced rounds,
    # from balanced:4 closed-form ones; the last start is at kappa
    n = 40
    starts = [initial_counts(init, n) for init in ("ncolor", "balanced:4", "explicit:39,1")]
    stop = StopCondition(kappa=1, max_rounds=max_rounds)
    got = run_block(two_choices_rule(), starts, stop, RngStream(14, ("2ch-block", max_rounds)))
    want = _two_choices_rows(starts, stop, RngStream(14, ("2ch-block", max_rounds)).gen)
    assert len(got) == len(starts)
    for (t, c, peak), (t_ref, c_ref, peak_ref) in zip(got, want):
        _assert_canonical_counts(c, n)
        assert (t, c.tolist(), peak) == (t_ref, c_ref.tolist(), peak_ref)
    assert (None in [t for t, _, _ in got]) == (max_rounds == 3)


def test_two_choices_peak_spans_the_mover_rounds():
    # a run censored in its mover rounds reports the largest support of
    # every round, round 0 included: in some runs the colour of 10 nodes
    # shrinks, so the peak lies before the round the run stops at
    c0, stop, earlier = canonicalize([10] + [1] * 190), StopCondition(max_rounds=3), 0
    for seed in range(100):
        stream = ("peak", seed)
        (t, c, peak), = run_block(two_choices_rule(), [c0], stop, RngStream(18, stream))
        ((t_ref, c_ref, peak_ref),) = _two_choices_rows([c0], stop, RngStream(18, stream).gen)
        assert (t, c.tolist(), peak) == (t_ref, c_ref.tolist(), peak_ref), seed
        earlier += peak > c[0]
    assert earlier > 0


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("label", ["voter", "hmaj:3", "2choices"])
def test_run_block_stops_at_the_first_support_above(label, rows):
    # the ceiling on every path: 2-Choices rows, one AC start and AC rows in
    # lockstep. From 200 colours every row stops at its first support above
    # 20, long before consensus; the AC rows repeat the replay's draws
    rule, n = parse_rule(label), 200
    starts, stop = [initial_counts("ncolor", n)] * rows, StopCondition(above=20)
    got = run_block(rule, starts, stop, RngStream(16, ("above", label, rows)))
    for t, c, peak in got:
        _assert_canonical_counts(c, n)
        assert t is not None and len(c) > 1 and c[0] == peak > 20, (t, c.tolist(), peak)
    if rule.is_ac:
        want = replay_block(rule, starts, stop, RngStream(16, ("above", label, rows)))
        assert [(t, tuple(c.tolist())) for t, c, _ in got] == [(t, c) for t, c, _ in want]


def _patch_alpha(monkeypatch, edit):
    real = rules._alpha
    monkeypatch.setattr(rules, "_alpha", lambda rule, x: edit(real(rule, x).copy()))


def _last_entry(value):
    """An alpha edit: the last entry becomes value, the first keeps the mass."""

    def edit(a):
        a[0] += a[-1] - value
        a[-1] = value
        return a

    return edit


BAD_ALPHA = pytest.mark.parametrize(
    "edit",
    [
        lambda a: np.where(np.arange(len(a)) == 1, np.nan, a),
        _last_entry(-2 * PREFIX_SLACK),
        lambda a: 0.9 * a,
    ],
    ids=["nan", "below-slack", "mass-0.9"],
)


@BAD_ALPHA
def test_run_until_rejects_a_bad_alpha(monkeypatch, edit):
    _patch_alpha(monkeypatch, edit)
    c = canonicalize([5, 3, 2])
    with pytest.raises(InvalidProbabilityVector):
        run_block(h_majority_rule(3), [c], StopCondition(), RngStream(0))
    # process_function runs the same check on the alpha it returns
    with pytest.raises(InvalidProbabilityVector):
        process_function(h_majority_rule(3), c)


@BAD_ALPHA
def test_run_block_rejects_a_bad_alpha(monkeypatch, edit):
    # the edit reaches the middle row of three; the block must not draw from it
    real = rules._alpha

    def edited(rule, x):
        a = real(rule, x).copy()
        a[1] = edit(a[1])
        return a

    monkeypatch.setattr(rules, "_alpha", edited)
    starts = [canonicalize([5, 3, 2]), canonicalize([3, 3, 2, 2]), canonicalize([4, 4, 2])]
    with pytest.raises(InvalidProbabilityVector):
        run_block(h_majority_rule(3), starts, StopCondition(), RngStream(0))


def test_run_until_clips_an_entry_just_below_zero(monkeypatch):
    # -1e-13 lies within PREFIX_SLACK: the check accepts it and the clip zeroes it
    _patch_alpha(monkeypatch, _last_entry(-1e-13))
    pvals = []
    real = rules.multinomial_pvals

    def recording(a, rows=False):
        pvals.append(real(a, rows=rows))
        return pvals[-1]

    monkeypatch.setattr(rules, "multinomial_pvals", recording)
    c = canonicalize([5, 3, 2])
    run_block(h_majority_rule(3), [c], StopCondition(max_rounds=1), RngStream(0))
    (p,) = pvals
    assert p.min() == 0.0 and p[-1] == 0.0
    assert abs(p.sum() - 1.0) <= 4 * np.finfo(float).eps


def _assert_canonical_counts(c, n):
    """The one state contract: a read-only 1-d int64 array, non-increasing,
    positive, summing to n."""
    assert type(c) is np.ndarray and c.dtype == np.int64 and c.ndim == 1
    assert not c.flags.writeable
    assert c[-1] > 0 and np.all(c[:-1] >= c[1:]) and c.sum() == n


def test_every_producer_returns_canonical_counts():
    _assert_canonical_counts(canonicalize([0, 2, 5, 1]), 8)
    for init in (NCOLOR, "balanced:5", "biased:3:4", "explicit:1,0,7,4"):
        _assert_canonical_counts(initial_counts(init, 12), 12)
    c = canonicalize([10, 6, 4])
    rng = RngStream(41)
    for rule in (voter_rule(), two_choices_rule(), h_majority_rule(3), h_majority_rule(4)):
        _assert_canonical_counts(step_rule(rule, c, rng.child(rule.label())), 20)
    # from 20 colours the 2-Choices rounds of run_block are the mover-priced ones
    c20 = initial_counts(NCOLOR, 20)
    stop = StopCondition(max_rounds=10**4)
    t, out, _ = run_block(two_choices_rule(), [c20], stop, rng.child("tc"))[0]
    assert t is not None and t >= 1
    _assert_canonical_counts(out, 20)
    stop = StopCondition(max_rounds=1)
    t, out, _ = run_block(two_choices_rule(), [c20], stop, rng.child("tc1"))[0]
    assert t is None
    _assert_canonical_counts(out, 20)
    for rule in (voter_rule(), two_choices_rule(), h_majority_rule(3), h_majority_rule(4)):
        _assert_canonical_counts(step_reference(rule, c, rng.child("ref", rule.label())), 20)
    t, out, _ = run_block(voter_rule(), [c], StopCondition(max_rounds=500), rng.child("steps"))[0]
    assert t is not None and t >= 1
    _assert_canonical_counts(out, 20)
    t, out, _ = run_block(voter_rule(), [c], StopCondition(max_rounds=1), rng.child("censors"))[0]
    assert t is None
    _assert_canonical_counts(out, 20)
    for cfg in enumerate_configurations(7):
        _assert_canonical_counts(cfg, 7)


def test_entry_points_reject_non_canonical_counts():
    # a start already at consensus would run a round and report t = 1; an
    # unsorted one would give alpha in that order
    with pytest.raises(InvalidConfiguration):
        run_block(voter_rule(), [np.array([5, 0])], StopCondition(), RngStream(0))
    with pytest.raises(InvalidConfiguration):
        process_function(h_majority_rule(3), np.array([1, 3]))
    # no starts run nothing; starts of different n are no block
    assert run_block(voter_rule(), [], StopCondition(), RngStream(0)) == []
    with pytest.raises(ValueError, match="^run_block: every start must have the same n$"):
        run_block(voter_rule(), [canonicalize([3, 1]), canonicalize([2, 1])], StopCondition(),
                  RngStream(0))
    entries = (
        lambda c: step_rule(two_choices_rule(), c, RngStream(0)),
        lambda c: run_block(voter_rule(), [c], StopCondition(max_rounds=5), RngStream(0)),
        lambda c: process_function(voter_rule(), c),
        lambda c: process_function_exact(h_majority_rule(3), c),
        lambda c: expected_fraction_after_step(two_choices_rule(), c),
        lambda c: step_reference(voter_rule(), c, RngStream(0)),
        lambda c: run_lower_bound_experiment(c, 4.0, 1, RngStream(0)),
        lambda c: run_coupled_dominating_process(c, 4.0, 1, RngStream(0)),
    )
    bad = (
        np.array([5, 0]),
        np.array([1, 3]),
        np.array([3, -1]),
        np.array([], dtype=np.int64),
        np.array([[3, 1]]),
        np.array([3, 1], dtype=np.int32),
        np.array([3.0, 1.0]),
        [3, 1],
    )
    for entry in entries:
        for c in bad:
            with pytest.raises(InvalidConfiguration):
                entry(c)
        entry(canonicalize([3, 1]))  # the same counts, canonical, pass
