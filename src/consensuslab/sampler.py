"""Deterministic seeded randomness.

Every Monte-Carlo routine in the package draws from an RngStream, a
(seed, stream_id) pair that derives an independent substream per
(experiment, trial, purpose). Identical pairs give identical sequences
regardless of scheduling, which is what makes parallel trials and the CLI
byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _id_to_int(part) -> int:
    """Stable 64-bit integer for one stream-id component."""
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    # here, not at the top: the exact subcommands, which hash no id, load no
    # hashlib; the CLI keeps OpenSSL out of hashlib (see cli.py)
    import hashlib

    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class RngStream:
    """Seeded substream: (seed, stream_id) maps injectively to a PCG64 state."""

    seed: int
    stream_id: tuple = ()
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        # the seed is one 64-bit entropy word; masking a wider one would
        # alias it to another seed that records tell apart
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed {self.seed} outside [0, 2**64)")

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            # the depth word keeps ("a",) and ("a", 0) distinct: SeedSequence
            # treats trailing zero entropy words as absent
            entropy = [int(self.seed), len(self.stream_id)]
            entropy.extend(_id_to_int(p) for p in self.stream_id)
            self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        return self._gen

    def child(self, *ids) -> "RngStream":
        """Fresh independent substream; does not advance this stream."""
        return RngStream(self.seed, self.stream_id + tuple(ids))
