import numpy as np
import pytest
from scipy import stats

from consensuslab.core import InvalidProbabilityVector, multinomial_pvals
from consensuslab.sampler import RngStream

from multinomial_oracle import multinomial_law, sample_multinomial_conditional


def sample_multinomial(m, theta, rng):
    """The package's multinomial draw, as the rules make it."""
    return rng.gen.multinomial(m, multinomial_pvals(theta))


def test_rng_stream_is_deterministic():
    a = RngStream(7, ("x", 1)).gen.random(5)
    b = RngStream(7, ("x", 1)).gen.random(5)
    assert np.array_equal(a, b)


def test_rng_stream_children_differ():
    root = RngStream(7)
    a = root.child("a").gen.random(5)
    b = root.child("b").gen.random(5)
    c = root.child("a", 0).gen.random(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_child_stream_is_stable_across_string_and_int_ids():
    s1 = RngStream(3, ("trial", 5)).gen.random(3)
    s2 = RngStream(3, ("trial", 5)).gen.random(3)
    assert np.array_equal(s1, s2)


def test_rng_stream_rejects_seeds_outside_64_bits():
    # a mask would alias -1 onto 2**64 - 1 and 2**64 onto 0
    for seed in (-1, 2**64, -(2**64)):
        with pytest.raises(ValueError, match=f"^seed {seed} outside"):
            RngStream(seed)
    for seed in (0, 2**64 - 1):
        assert RngStream(seed).child("a").gen.integers(10) >= 0


def test_multinomial_counts_sum_to_m():
    rng = RngStream(0)
    for sampler in (sample_multinomial, sample_multinomial_conditional):
        x = sampler(50, [0.2, 0.3, 0.5], rng.child(sampler.__name__))
        assert x.sum() == 50
        assert (x >= 0).all()


def test_multinomial_rejects_bad_theta():
    rng = RngStream(0)
    with pytest.raises(InvalidProbabilityVector):
        sample_multinomial(10, [0.5, -0.5, 1.0], rng)
    with pytest.raises(InvalidProbabilityVector):
        sample_multinomial_conditional(10, [0.0, 0.0], rng)
    with pytest.raises(InvalidProbabilityVector):
        sample_multinomial(10, [float("nan"), 1.0], rng)


def test_multinomial_degenerate_theta():
    rng = RngStream(1)
    x = sample_multinomial(10, [1.0, 0.0], rng)
    assert tuple(x) == (10, 0)


def _gof_pvalue(counts_by_outcome, probs_by_outcome, total):
    expected = np.asarray(probs_by_outcome) * total
    observed = np.asarray(counts_by_outcome, dtype=float)
    return stats.chisquare(observed, expected).pvalue


@pytest.mark.parametrize(
    "sampler",
    [sample_multinomial, sample_multinomial_conditional],
)
def test_multinomial_matches_enumerated_law(sampler):
    # m=2 over 2 categories: outcomes (0,2),(1,1),(2,0) with probs q^2, 2pq, p^2
    p, q = 0.3, 0.7
    rng = RngStream(11, (sampler.__name__,))
    draws = 20000
    law = dict(multinomial_law(2, [p, q]))
    tallies = dict.fromkeys(law, 0)
    for t in range(draws):
        x = sampler(2, [p, q], rng.child(t))
        tallies[tuple(int(v) for v in x)] += 1
    pv = _gof_pvalue([tallies[o] for o in law], list(law.values()), draws)
    assert pv > 1e-3


def test_conditional_and_default_agree_in_distribution():
    theta = [0.5, 0.3, 0.2]
    rng = RngStream(42)
    draws = 8000
    a = np.array([sample_multinomial(4, theta, rng.child("a", t)) for t in range(draws)])
    b = np.array(
        [sample_multinomial_conditional(4, theta, rng.child("b", t)) for t in range(draws)]
    )
    # compare first-category marginals (Binomial(4, 0.5)) against each other
    ca = np.bincount(a[:, 0], minlength=5)
    cb = np.bincount(b[:, 0], minlength=5)
    table = np.vstack([ca, cb])
    pv = stats.chi2_contingency(table).pvalue
    assert pv > 1e-3

