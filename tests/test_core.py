import numpy as np
import pytest

from consensuslab.core import (
    Configuration,
    InvalidConfiguration,
    ProbabilityVector,
    StopCondition,
    canonicalize,
    majorizes,
    prefix_functional,
    prefix_sums,
)


def test_canonicalize_sorts_and_drops_zeros():
    c = canonicalize([0, 3, 1, 0, 2])
    assert c.counts == (3, 2, 1)
    assert c.n == 6
    assert c.number_of_colors() == 3
    assert len(c) == 3


def test_canonicalize_rejects_bad_input():
    with pytest.raises(InvalidConfiguration):
        canonicalize([])
    with pytest.raises(InvalidConfiguration):
        canonicalize([0, 0])
    with pytest.raises(InvalidConfiguration):
        canonicalize([3, -1])
    with pytest.raises(InvalidConfiguration):
        canonicalize([1.5, 2])


def test_fractions_sum_to_one():
    c = canonicalize([3, 2, 1])
    f = c.fractions()
    assert np.isclose(f.sum(), 1.0)
    assert f[0] == 0.5
    exact = c.exact_fractions()
    assert sum(exact) == 1
    assert float(exact[0]) == 0.5


def test_probability_vector_validation():
    ProbabilityVector((0.25, 0.25, 0.5))
    with pytest.raises(ValueError):
        ProbabilityVector((0.5, 0.6))
    with pytest.raises(ValueError):
        ProbabilityVector((-0.1, 1.1))


def test_stop_condition_validation():
    StopCondition(kappa=1, max_rounds=10)
    with pytest.raises(ValueError):
        StopCondition(kappa=0, max_rounds=10)
    with pytest.raises(ValueError):
        StopCondition(kappa=1, max_rounds=0)


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
    assert prefix_sums(ProbabilityVector((0.1, 0.7, 0.2)), 3).tolist() == cum.tolist()


def test_prefix_functional():
    x = [1, 3, 2]
    assert prefix_functional(x, 1) == 3
    assert prefix_functional(x, 2) == 5
    assert prefix_functional(x, 3) == 6
    # j beyond the support saturates at the total
    assert prefix_functional(x, 5) == 6


def test_prefix_functional_characterizes_majorization():
    a, b = [4, 1, 1], [2, 2, 2]
    assert all(prefix_functional(a, j) >= prefix_functional(b, j) for j in range(1, 4))
    assert majorizes(a, b)
