import json
from math import inf, nan

import numpy as np
import pytest

from consensuslab.core import (
    InvalidConfiguration,
    InvalidProbabilityVector,
    StopCondition,
    canonicalize,
    majorizes,
    multinomial_pvals,
    prefix_sums,
)
from consensuslab.rules import process_function, process_function_exact, voter_rule


def test_canonicalize_sorts_and_drops_zeros():
    c = canonicalize([0, 3, 1, 0, 2])
    assert c.tolist() == [3, 2, 1]
    assert c.sum() == 6
    assert len(c) == 3


def test_canonicalize_rejects_bad_input():
    cases = [
        ([], "empty"),
        ([0, 0], "all counts are zero"),
        ([3, -1], "negative"),
        (np.array([3, -1], dtype=np.int32), "negative"),
        ([1.5, 2], "non-integer"),
        (np.array([2.0, 0.5]), "non-integer"),
        ([float("nan"), 1.0], "non-integer"),
        ([float("inf"), 1.0], "non-integer"),
        ([-float("inf"), 1.0], "non-integer"),
        (["3"], "non-integer"),
        ([[1, 2], [3, 4]], "1-d"),
    ]
    for bad, reason in cases:
        with pytest.raises(InvalidConfiguration, match=reason):
            canonicalize(bad)


def _canonicalize_oracle(raw_counts):
    """The pure-Python canonicalize the numpy one replaced, kept as the reference."""
    if any(c != int(c) for c in raw_counts):
        raise InvalidConfiguration(f"non-integer count in {raw_counts}")
    counts = [int(c) for c in raw_counts]
    if len(counts) == 0:
        raise InvalidConfiguration("empty count vector")
    if any(c < 0 for c in counts):
        raise InvalidConfiguration(f"negative count in {raw_counts}")
    counts = sorted((c for c in counts if c > 0), reverse=True)
    if not counts:
        raise InvalidConfiguration("all counts are zero")
    return tuple(counts)


def test_canonicalize_matches_python_oracle_on_random_inputs():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        k = int(rng.integers(1, 60))
        raw = rng.integers(0, 9, size=k)
        raw[int(rng.integers(0, k))] += 1  # at least one positive count
        variants = [
            raw,
            raw.astype(np.int32),
            raw.astype(np.uint8),
            raw.tolist(),
            tuple(raw.tolist()),
            list(raw),  # numpy scalars
            raw.astype(float).tolist(),  # integral floats
            raw.astype(float),
            (raw > 3).tolist() + [True],  # bools
        ]
        for x in variants:
            c = canonicalize(x)
            assert tuple(c.tolist()) == _canonicalize_oracle(x)
            assert c.dtype == np.int64 and not c.flags.writeable
            assert json.loads(json.dumps(c.tolist())) == c.tolist()


def test_canonicalize_leaves_its_input_unchanged():
    raw = np.array([1, 0, 3, 2])
    assert canonicalize(raw).tolist() == [3, 2, 1]
    assert raw.tolist() == [1, 0, 3, 2]


def test_fractions_sum_to_one():
    # the per-colour fractions c_i / n are the Voter process function
    c = canonicalize([3, 2, 1])
    f = process_function(voter_rule(), c)
    assert np.isclose(f.sum(), 1.0)
    assert f[0] == 0.5
    exact = process_function_exact(voter_rule(), c)
    assert sum(exact) == 1
    assert float(exact[0]) == 0.5


def test_canonicalize_rejects_counts_beyond_int64():
    # a uint64 count >= 2^63 must not wrap to a negative int64 count, and
    # neither may the sum n of counts that each fit; an integral float count
    # beyond int64 (numpy builds [2**63, 1] as float64) names the range too
    for bad in (np.array([2**63, 1], dtype=np.uint64), [2**64 - 1], [2**62, 2**62],
                [2**63, 1], [1e300], [-1e300, 1]):
        with pytest.raises(InvalidConfiguration, match="int64"):
            canonicalize(bad)
    assert canonicalize(np.array([2**63 - 2, 1], dtype=np.uint64)).tolist() == [2**63 - 2, 1]


def test_probability_vector_validation():
    assert multinomial_pvals((0.25, 0.25, 0.5)).tolist() == [0.25, 0.25, 0.5]
    with pytest.raises(InvalidProbabilityVector):
        multinomial_pvals((0.5, 0.6))
    with pytest.raises(InvalidProbabilityVector):
        multinomial_pvals((-0.1, 1.1))
    # NaN fails no comparison and must still be rejected; so must +-inf,
    # a 2-d input, an empty one and a scalar
    for bad in ((nan,), (nan, 1.0), (inf,), (-inf, 1.0), ((0.5, 0.5),), (), 1.0):
        with pytest.raises(InvalidProbabilityVector):
            multinomial_pvals(bad)


def test_multinomial_pvals_match_clip_then_normalize():
    # without a negative entry the clip is the identity, so alpha / mass must
    # equal clip-then-normalize bit for bit
    gen = np.random.default_rng(3)
    for _ in range(2000):
        counts = np.sort(gen.integers(1, 50, size=gen.integers(1, 40)))[::-1]
        x = counts / counts.sum()
        for alpha in (x, x * (1.0 + x - float(np.dot(x, x)))):
            clipped = np.clip(alpha, 0.0, None)
            assert multinomial_pvals(alpha).tolist() == (clipped / clipped.sum()).tolist()


def test_multinomial_pvals_rows_ignore_memory_layout():
    # numpy's row sum rounds by memory layout, so a Fortran-ordered block
    # must give the pvals bits of the same values in C order
    gen = np.random.default_rng(4)
    for k in (3, 8, 20, 100):
        block = gen.random((64, k))
        block /= block.sum(axis=1, keepdims=True)
        c_order = multinomial_pvals(block, rows=True)
        f_order = multinomial_pvals(np.asfortranarray(block), rows=True)
        assert c_order.tobytes() == f_order.tobytes(), k


def test_stop_condition_validation():
    StopCondition(kappa=1, max_rounds=10)
    with pytest.raises(ValueError):
        StopCondition(kappa=0, max_rounds=10)
    with pytest.raises(ValueError):
        StopCondition(kappa=1, max_rounds=0)
    # the support ceiling: None (never) or at least 1
    StopCondition(above=1)
    with pytest.raises(ValueError, match="above"):
        StopCondition(above=0)


def test_majorizes_integer_vectors():
    # classic chain: (4) majorizes (3,1) majorizes (2,2) majorizes (2,1,1)
    assert majorizes([4], [3, 1])
    assert majorizes([3, 1], [2, 2])
    assert majorizes([2, 2], [2, 1, 1])
    assert not majorizes([2, 2], [3, 1])
    # incomparable pair
    assert not majorizes([3, 1, 1, 1], [2, 2, 2])
    assert not majorizes([2, 2, 2], [3, 1, 1, 1])


def test_majorizes_is_reflexive_and_handles_order():
    assert majorizes([1, 3, 2], [2, 2, 2])
    assert majorizes([2, 2, 2], [2, 2, 2])


def test_majorizes_requires_equal_mass():
    from consensuslab.core import MassMismatch

    with pytest.raises(MassMismatch):
        majorizes([3, 1], [2, 1])


def test_majorizes_float_vectors():
    assert majorizes([0.5, 0.5], [1 / 3, 1 / 3, 1 / 3])
    assert not majorizes([1 / 3, 1 / 3, 1 / 3], [0.5, 0.5])


def test_majorizes_float_mass_gap_within_tolerance_does_not_decide():
    # the masses differ by 1e-10 < MASS_TOL; the padded tail compares them
    assert majorizes([1.0], [0.5, 0.5])
    assert majorizes([1.0 - 1e-10], [0.5, 0.5])
    assert not majorizes([0.5, 0.5], [1.0 - 1e-10])


def test_prefix_sums_truncates_and_pads():
    x = [1, 3, 2]
    assert prefix_sums(x, 2).tolist() == [3, 5]
    assert prefix_sums(x, 3).tolist() == [3, 5, 6]
    assert prefix_sums(x, 5).tolist() == [3, 5, 6, 6, 6]
    assert prefix_sums(canonicalize(x), 4).tolist() == [3, 5, 6, 6]


def test_prefix_sums_float_input_pads_with_last_cumulative_sum():
    x = np.array([0.1, 0.7, 0.2])
    cum = np.cumsum([0.7, 0.2, 0.1])
    assert prefix_sums(x, 1).tolist() == [0.7]
    assert prefix_sums(x, 5).tolist() == [cum[0], cum[1], cum[2], cum[2], cum[2]]
    assert prefix_sums((0.1, 0.7, 0.2), 3).tolist() == cum.tolist()


def test_prefix_functional():
    x = [1, 3, 2]
    assert prefix_sums(x, 1)[-1] == 3
    assert prefix_sums(x, 2)[-1] == 5
    assert prefix_sums(x, 3)[-1] == 6
    # j beyond the support saturates at the total
    assert prefix_sums(x, 5)[-1] == 6


def test_prefix_functional_characterizes_majorization():
    a, b = [4, 1, 1], [2, 2, 2]
    assert all(prefix_sums(a, j)[-1] >= prefix_sums(b, j)[-1] for j in range(1, 4))
    assert majorizes(a, b)
