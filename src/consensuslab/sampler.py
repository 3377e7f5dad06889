"""Deterministic seeded randomness and the multinomial one-step sampler.

Every Monte-Carlo routine in the package draws from an RngStream, a
(seed, stream_id) pair that derives an independent substream per
(experiment, trial, purpose). Identical pairs give identical sequences
regardless of scheduling, which is what makes parallel trials and the CLI
byte-reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

# InvalidProbabilityVector is raised by the probability-vector check and
# stays importable from here, next to the samplers that surface it
from .core import InvalidProbabilityVector, multinomial_pvals


def _id_to_int(part) -> int:
    """Stable 64-bit integer for one stream-id component."""
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class RngStream:
    """Seeded substream: (seed, stream_id) maps injectively to a PCG64 state."""

    seed: int
    stream_id: tuple = ()
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            # the depth word keeps ("a",) and ("a", 0) distinct: SeedSequence
            # treats trailing zero entropy words as absent
            entropy = [int(self.seed) & 0xFFFFFFFFFFFFFFFF, len(self.stream_id)]
            entropy.extend(_id_to_int(p) for p in self.stream_id)
            self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        return self._gen

    def child(self, *ids) -> "RngStream":
        """Fresh independent substream; does not advance this stream."""
        return RngStream(self.seed, self.stream_id + tuple(ids))


def sample_multinomial(m: int, theta, rng: RngStream) -> np.ndarray:
    """Draw counts ~ Mult(m, theta); counts always sum to m.

    numpy's generator realizes exactly the sequential conditional-binomial
    construction (category i ~ Binomial(remaining, theta_i / remaining mass))
    that sample_multinomial_conditional spells out as its oracle. The Monte-
    Carlo majorization check and the rules draw from numpy directly.
    """
    if m < 0:
        raise ValueError("trial count must be >= 0")
    return rng.gen.multinomial(m, multinomial_pvals(theta))


def sample_multinomial_conditional(m: int, theta, rng: RngStream) -> np.ndarray:
    """Explicit conditional-binomial multinomial: the labelled oracle of
    sample_multinomial, kept for cross-validation."""
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
