"""Drift-theorem bound calculators, the one-step moment estimator and an
empirical validator.

Three forms: the additive lemma E[T] <= (m - k')/c, the LW14 variable form
x_min/h(x_min) + integral of 1/h, and the generalized variable form
integral from k' to m of 1/h. The drift is a power law h(x) = a * x**b,
whose 1/h integrates in closed form over any interval inside its domain.
Each calculator returns {"form", "bound"}, the record drift-bound prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .sampler import RngStream


class NoDrift(ValueError):
    pass


class DriftDomainError(ValueError):
    pass


class HypothesisFailed(RuntimeError):
    """The supplied chain does not satisfy the drift hypothesis."""


@dataclass(frozen=True)
class DriftFunction:
    """The positive non-decreasing drift h(x) = a * x**b on [x_min, x_max]."""

    a: float
    b: float
    x_min: float
    x_max: float

    def __post_init__(self):
        # every check is a `not (...)` comparison, so a NaN fails it
        if not 0 <= self.x_min < self.x_max:  # x**b of a negative x is no real drift
            raise DriftDomainError(
                f"need 0 <= x_min < x_max, got x_min = {self.x_min}, x_max = {self.x_max}"
            )
        if not self.a > 0:
            raise ValueError(f"power-law coefficient must be positive, got a = {self.a}")
        if not self.b >= 0:
            raise ValueError(
                f"power-law exponent must be non-negative (h non-decreasing), got b = {self.b}"
            )

    def __call__(self, x: float) -> float:
        if not self.x_min <= x <= self.x_max:
            raise DriftDomainError(f"x = {x} outside [{self.x_min}, {self.x_max}]")
        try:
            value = self.a * x**self.b
        except OverflowError:
            value = math.inf
        if not 0 < value < math.inf:  # the bounds divide by h
            raise DriftDomainError(f"the bound overflows a float: h({x}) is out of range")
        return value


def _integral_inverse(h: DriftFunction, lo: float, hi: float) -> float:
    """The integral of 1/h over [lo, hi], which must lie inside h's domain."""
    if not h.x_min <= lo <= hi <= h.x_max:  # a NaN fails it too
        raise DriftDomainError(
            f"1/h is integrated over [{lo}, {hi}], which is not an interval "
            f"inside h's domain [{h.x_min}, {h.x_max}]"
        )
    if hi == lo:
        return 0.0
    a, b = h.a, h.b
    if b == 1.0:
        return math.log(hi / lo) / a
    try:
        return (hi ** (1.0 - b) - lo ** (1.0 - b)) / (a * (1.0 - b))
    except ArithmeticError:  # y**(1 - b) overflows, or a * (1 - b) underflows to 0
        raise DriftDomainError(f"the bound overflows a float: 1/h over [{lo}, {hi}]") from None


def additive_drift_bound(m: float, k_prime: float, c: float) -> dict:
    """E[T] <= (m - k') / c for per-step drift at least c."""
    # `not (...)`, so that a NaN fails the check
    if not c > 0:
        raise NoDrift(f"per-step drift must be positive, got c = {c}")
    if not m >= k_prime >= 0:
        raise DriftDomainError(f"need m >= k' >= 0, got m = {m}, k' = {k_prime}")
    return {"form": "AdditiveLemma", "bound": (m - k_prime) / c}


def variable_drift_bound_lw14(h: DriftFunction, x0: float) -> dict:
    """E[T] <= x_min/h(x_min) + integral_{x_min}^{x0} dy/h(y)."""
    if not h.x_min > 0:
        raise DriftDomainError(f"the LW14 form divides by x_min, got x_min = {h.x_min}")
    head = h.x_min / h(h.x_min)
    integral = _integral_inverse(h, h.x_min, x0)
    return {"form": "VariableLW14", "bound": head + integral}


def variable_drift_bound_generalized(
    h: DriftFunction, m: float, k_prime: float
) -> dict:
    """E[T] <= integral_{k'}^{m} du/h(u); k' = 0 routes through the 1/h(1) offset."""
    if not k_prime <= m:  # a NaN fails it
        raise DriftDomainError(f"need k' <= m, got k' = {k_prime}, m = {m}")
    # k' = 0: the state space is {0} union [1, inf), and g carries a 1/h(1)
    # head term, so h must be defined from 1 on
    lo = 1.0 if k_prime == 0 else k_prime
    integral = _integral_inverse(h, lo, m)
    head = 1.0 / h(lo) if k_prime == 0 else 0.0
    return {"form": "VariableGeneralized", "bound": head + integral}


def step_moments(
    chain: Callable[[float, np.random.Generator], float],
    x: float,
    samples: int,
    gen: np.random.Generator,
) -> tuple[float, float]:
    """(mean, standard error) of the chain's next state from x, over
    `samples` independent steps drawn from gen."""
    nxt = np.array([chain(x, gen) for _ in range(samples)])
    return float(nxt.mean()), float(nxt.std(ddof=1) / math.sqrt(samples))


def validate_bound(
    chain: Callable[[float, np.random.Generator], float],
    x0: float,
    k: float,
    h: DriftFunction,
    trials: int,
    rng: RngStream,
    drift_samples: int = 2000,
    max_rounds: int = 10**6,
) -> dict:
    """Check the drift hypothesis and the concluded bound on a supplied chain.

    chain(x, gen) draws the next state from x. The LW14 bound on h cut to
    [max(k, x_min), x_max] comes first, so an x0 outside h's domain raises
    before any draw, as does x0 = x_max = inf, which leaves no last state to
    sample. (a) estimates E[X_t - X_{t+1} | X_t = x] at up to 5
    integers x in [max(k + 1, x_min), min(x0, x_max)], state i from
    rng.child("drift", i), and raises HypothesisFailed unless it reaches
    h(x) within 3 standard errors at each; (b) runs trial j from
    rng.child("time", j) until X <= k and requires the mean hitting time to
    stay below the bound + 3 sigma. A trial still above k after max_rounds
    steps is censored: its time is unknown, so the bound fails. Returns
    drift_points ((x, empirical drop, h(x)) per state), bound,
    empirical_mean_time (inf once a trial is censored), mean_time_sigma,
    bound_ok and censored, the number of censored trials.
    """
    bound = variable_drift_bound_lw14(replace(h, x_min=max(k, h.x_min)), x0)["bound"]

    # (a) drift hypothesis at sampled states
    lo, hi = max(k + 1, h.x_min), min(x0, h.x_max)
    if hi == math.inf:  # x0 and x_max both infinite: no last state to sample
        raise DriftDomainError(
            f"no finite state to end the drift samples at: x0 = {x0}, x_max = {h.x_max}"
        )
    if math.ceil(lo) > math.floor(hi):
        raise DriftDomainError(f"no integer state in [{lo}, {hi}] to sample the drift at")
    xs = np.unique(np.linspace(math.ceil(lo), math.floor(hi), 5).round())
    drift_points = []
    failed = False
    for i, x in enumerate(xs):
        mean, sigma = step_moments(chain, float(x), drift_samples, rng.child("drift", i).gen)
        mean_drop = float(x) - mean
        required = h(float(x))
        drift_points.append((float(x), mean_drop, required))
        failed = failed or mean_drop < required - 3 * sigma
    if failed:
        raise HypothesisFailed(f"empirical drift below h at {drift_points}")

    # (b) hitting-time bound
    times: list[Optional[int]] = []
    for trial in range(trials):
        gen = rng.child("time", trial).gen
        x = float(x0)
        t = 0
        while x > k and t < max_rounds:
            x = chain(x, gen)
            t += 1
        times.append(t if x <= k else None)
    censored = times.count(None)
    mean_time, sigma_t = math.inf, math.nan
    if not censored:
        mean_time = float(np.mean(times))
        sigma_t = float(np.std(times, ddof=1) / math.sqrt(trials))
    return {
        "drift_points": drift_points,
        "bound": bound,
        "empirical_mean_time": mean_time,
        "mean_time_sigma": sigma_t,
        "bound_ok": not censored and mean_time <= bound + 3 * sigma_t,
        "censored": censored,
    }
