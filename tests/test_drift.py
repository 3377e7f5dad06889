import math

import numpy as np
import pytest

from consensuslab.coalescing import walk_count_chain
from consensuslab.drift import (
    DriftDomainError,
    DriftFunction,
    HypothesisFailed,
    NoDrift,
    additive_drift_bound,
    validate_bound,
    variable_drift_bound_generalized,
    variable_drift_bound_lw14,
)
from consensuslab.sampler import RngStream


def test_additive_bound():
    assert additive_drift_bound(100, 0, 2)["bound"] == 50.0
    assert additive_drift_bound(10, 4, 3)["bound"] == 2.0
    with pytest.raises(NoDrift):
        additive_drift_bound(100, 0, 0)
    with pytest.raises(DriftDomainError):
        additive_drift_bound(3, 5, 1)


def test_lw14_constant_drift_reduces_to_additive_shape():
    # h(x) = c: bound = x_min/c + (x0 - x_min)/c = x0/c
    h = DriftFunction(a=2.0, b=0.0, x_min=1.0, x_max=100.0)
    r = variable_drift_bound_lw14(h, 100.0)
    assert np.isclose(r["bound"], 50.0)


def test_lw14_quadratic_drift_closed_form():
    # h(x) = x^2 / (10 n) with n = 1000, x_min = 10, x0 = 1000:
    # 10/h(10) + 10n (1/10 - 1/1000) = 1000 + 990 = 1990
    h = DriftFunction(a=1.0 / 10000.0, b=2.0, x_min=10.0, x_max=1000.0)
    r = variable_drift_bound_lw14(h, 1000.0)
    assert abs(r["bound"] - 1990.0) < 1e-9


def test_lw14_rejects_x0_outside_domain():
    h = DriftFunction(a=1.0, b=1.0, x_min=1.0, x_max=10.0)
    with pytest.raises(DriftDomainError):
        variable_drift_bound_lw14(h, 20.0)


def test_generalized_bound_with_positive_floor():
    # integral of 1/x from 4 to 16 = ln 4
    h = DriftFunction(a=1.0, b=1.0, x_min=1.0, x_max=100.0)
    r = variable_drift_bound_generalized(h, m=16.0, k_prime=4.0)
    assert np.isclose(r["bound"], np.log(4.0))


def test_generalized_bound_zero_floor_adds_head_term():
    # k' = 0 routes through 1/h(1) + integral_1^m
    h = DriftFunction(a=2.0, b=0.0, x_min=1.0, x_max=100.0)
    r = variable_drift_bound_generalized(h, m=10.0, k_prime=0.0)
    assert np.isclose(r["bound"], 0.5 + 9.0 / 2.0)


@pytest.mark.parametrize(
    "bound",
    [
        # h(x_min) = (1e-300)**3 underflows to 0 under the head's division
        lambda: variable_drift_bound_lw14(DriftFunction(1, 3, 1e-300, 2e-300), 2e-300),
        # x**2 overflows at x = 1e200 and beyond
        lambda: variable_drift_bound_lw14(DriftFunction(1, 2, 1e200, 1e201), 1e201),
        lambda: DriftFunction(1, 2, 1e200, 1e201)(1e201),
        # a * (1 - b) underflows to 0 under the integral's division
        lambda: variable_drift_bound_generalized(DriftFunction(5e-324, 1.5, 1.0, 10.0), 10.0, 2.0),
    ],
    ids=["h-underflows", "bound-overflows", "h-overflows", "integral-divides-by-zero"],
)
def test_bounds_out_of_float_range_raise_drift_domain_error(bound):
    with pytest.raises(DriftDomainError, match="the bound overflows a float"):
        bound()


def test_generalized_zero_floor_reads_h_at_one():
    # h = 1 on {0} union [10, 1000] holds for a chain that steps 100 -> 99 ->
    # ... -> 10 and then jumps from 10 to 0 with probability 1/10 a round:
    # its mean hitting time is 90 + 10 = 100, which LW14 gives exactly. The
    # k' = 0 head term is 1/h(1), and 1 lies outside h's domain, so the
    # generalized form has no bound to give: reading the head at h(x_min)
    # would give 91, below that mean
    def chain(x, gen):
        return x - 1 if x > 10 else (0.0 if gen.random() < 0.1 else x)

    h = DriftFunction(a=1.0, b=0.0, x_min=10.0, x_max=1000.0)
    report = validate_bound(
        chain, x0=100.0, k=0.0, h=h, trials=400, rng=RngStream(126), drift_samples=400,
    )
    assert report["bound"] == variable_drift_bound_lw14(h, 100.0)["bound"] == 100.0
    assert report["bound_ok"] and report["empirical_mean_time"] - 3 * report["mean_time_sigma"] > 91.0
    with pytest.raises(DriftDomainError, match=r"\[1.0, 100.0\].*domain \[10.0, 1000.0\]"):
        variable_drift_bound_generalized(h, m=100.0, k_prime=0.0)


@pytest.mark.parametrize(
    "h, m, k_prime, interval",
    [
        # [5, 1000] reaches past both ends of the domain [10, 20]
        (DriftFunction(a=1.0, b=2.0, x_min=10.0, x_max=20.0), 1000.0, 5.0, "[5.0, 1000.0]"),
        # k' = -1 < x_min, where the closed form would take the complex (-1)**0.5
        (DriftFunction(a=1.0, b=0.5, x_min=1.0, x_max=20.0), 5.0, -1.0, "[-1.0, 5.0]"),
    ],
    ids=["beyond-both-ends", "negative-floor"],
)
def test_generalized_bound_integrates_only_inside_the_domain(h, m, k_prime, interval):
    with pytest.raises(DriftDomainError) as err:
        variable_drift_bound_generalized(h, m=m, k_prime=k_prime)
    assert interval in str(err.value) and f"[{h.x_min}, {h.x_max}]" in str(err.value)


def test_drift_function_domain_is_non_negative():
    for x_min, x_max in ((-1.0, 20.0), (5.0, 5.0), (math.nan, 1.0)):
        with pytest.raises(DriftDomainError, match="need 0 <= x_min < x_max"):
            DriftFunction(a=1.0, b=0.5, x_min=x_min, x_max=x_max)
    h = DriftFunction(a=1.0, b=0.5, x_min=2.0, x_max=10.0)
    for x in (1.0, 10.5):
        with pytest.raises(DriftDomainError, match=rf"^x = {x} outside \[2.0, 10.0\]$"):
            h(x)


def test_validate_bound_on_walk_count_chain():
    n = 200
    chain = walk_count_chain(n)
    h = DriftFunction(a=1.0 / (10 * n), b=2.0, x_min=5.0, x_max=float(n))
    report = validate_bound(
        chain, x0=float(n), k=5.0, h=h, trials=60, rng=RngStream(123),
        drift_samples=800,
    )
    assert report["bound_ok"]
    assert report["empirical_mean_time"] <= report["bound"] + 3 * report["mean_time_sigma"]


def test_validate_bound_rejects_false_hypothesis():
    # claim a drift far larger than the chain actually has
    n = 200
    chain = walk_count_chain(n)
    h = DriftFunction(a=0.9, b=1.0, x_min=5.0, x_max=float(n))
    with pytest.raises(HypothesisFailed):
        validate_bound(
            chain, x0=float(n), k=5.0, h=h, trials=10, rng=RngStream(124),
            drift_samples=400,
        )


def test_validate_bound_fails_a_censored_chain():
    # a drop of 1 per step on the sampled states 10..100, and none below 10:
    # the chain passes the drift check but never reaches k = 0. Each trial
    # is still above k after max_rounds, so E[T] is unknown and the bound
    # cannot be confirmed, although max_rounds = 50 < bound = 100
    def chain(x, gen):
        return x - 1 if x >= 10 else x

    h = DriftFunction(a=1.0, b=0.0, x_min=10.0, x_max=100.0)
    report = validate_bound(
        chain, x0=100.0, k=0.0, h=h, trials=20, rng=RngStream(125),
        drift_samples=10, max_rounds=50,
    )
    assert report["bound"] == 100.0
    assert report["censored"] == 20
    assert report["bound_ok"] is False


def test_validate_bound_samples_integer_states_inside_the_domain():
    # rounding the grid's end x_min = 2.4 would sample h at 2, outside its
    # domain: the states are spread over the integers 3..50 instead
    def chain(x, gen):
        return x - 1

    h = DriftFunction(a=1.0, b=0.0, x_min=2.4, x_max=100.0)
    report = validate_bound(
        chain, x0=50.0, k=0.0, h=h, trials=5, rng=RngStream(127), drift_samples=10,
    )
    assert [x for x, _, _ in report["drift_points"]] == [3.0, 15.0, 26.0, 38.0, 50.0]
    assert report["bound"] == 50.0 and report["bound_ok"]


@pytest.mark.parametrize(
    "h, x0, message",
    [
        # x0 = 20 lies outside [2, 10.6]: the bound names that interval
        (DriftFunction(a=1.0, b=0.0, x_min=2.0, x_max=10.6), 20.0, r"over \[2.0, 20.0\], which"),
        # [2.2, 2.8] holds no integer state to sample the drift at
        (DriftFunction(a=1.0, b=0.0, x_min=2.2, x_max=2.8), 2.8, r"no integer state in \[2.2, 2.8\]"),
        # the LW14 bound is finite (2.0), but no finite state ends the samples
        (DriftFunction(a=1.0, b=2.0, x_min=1.0, x_max=math.inf), math.inf, "x0 = inf, x_max = inf"),
        # 1e300 is finite but beyond 2**53, where floats are no longer exact integers
        (DriftFunction(a=1.0, b=2.0, x_min=1.0, x_max=math.inf), 1e300, "x0 = 1e[+]300, x_max = inf"),
    ],
    ids=["x0-outside-domain", "no-integer-state", "infinite-x0-and-x-max", "x0-beyond-2-53"],
)
def test_validate_bound_checks_the_domain_before_any_draw(h, x0, message):
    def chain(x, gen):
        raise AssertionError(f"chain called at x = {x}")

    with pytest.raises(DriftDomainError, match=message):
        validate_bound(chain, x0=x0, k=0.0, h=h, trials=5, rng=RngStream(128))
