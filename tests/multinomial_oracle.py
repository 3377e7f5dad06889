"""The labelled oracle of the package's multinomial draw,
gen.multinomial(m, multinomial_pvals(theta)), which the rules and the
Monte-Carlo majorization check make directly."""

import numpy as np

from consensuslab.core import multinomial_pvals
from consensuslab.sampler import RngStream


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
