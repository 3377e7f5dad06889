"""The labelled oracles of the package's multinomial law: multinomial_law,
the exact law of Mult(m, theta) by enumeration, which every exact check in
the tests builds on, and sample_multinomial_conditional, the explicit
construction of the draw gen.multinomial(m, multinomial_pvals(theta)) that
the rules and the Monte-Carlo majorization check make directly."""

import itertools
import math

import numpy as np

from consensuslab.core import multinomial_pvals, prefix_sums
from consensuslab.sampler import RngStream


def multinomial_law(m: int, theta) -> list[tuple[tuple[int, ...], object]]:
    """Every composition of m into len(theta) parts, in lexicographic order,
    with its probability under Mult(m, theta): m! prod theta_i^c_i / c_i!,
    computed in theta's number type, so exact on Fractions. A part with
    c_i = 0 is skipped: its factor theta_i^0 / 0! is exactly 1."""
    k = len(theta)
    law = []
    # stars and bars: k - 1 bars among m + k - 1 places cut m into k parts
    for bars in itertools.combinations(range(m + k - 1), k - 1):
        counts = tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, m + k - 1)))
        p = math.factorial(m)
        for c, x in zip(counts, theta):
            if c:
                p = p * x**c / math.factorial(c)
        law.append((counts, p))
    return law


def exact_prefix_expectations(theta, m: int) -> np.ndarray:
    """E[phi_j(Mult(m, theta))] for every prefix functional phi_j, from
    multinomial_law; theta is checked and rescaled by multinomial_pvals, as
    for numpy's draw."""
    arr = multinomial_pvals(theta)
    out = np.zeros(len(arr))
    for counts, p in multinomial_law(m, arr):
        out += p * prefix_sums(counts, len(arr))
    return out


def sample_multinomial_conditional(m: int, theta, rng: RngStream) -> np.ndarray:
    """Explicit conditional-binomial multinomial: category i draws
    Binomial(remaining, theta_i / remaining mass), the construction numpy's
    generator realizes."""
    if m < 0:
        raise ValueError("trial count must be >= 0")
    arr = multinomial_pvals(theta)
    counts = np.zeros(len(arr), dtype=np.int64)
    remaining = m
    mass_left = 1.0
    for i in range(len(arr) - 1):
        if remaining == 0 or mass_left <= 0:
            break
        p = min(1.0, max(0.0, arr[i] / mass_left))
        c = int(rng.gen.binomial(remaining, p))
        counts[i] = c
        remaining -= c
        mass_left -= arr[i]
    counts[len(arr) - 1] += remaining
    return counts
