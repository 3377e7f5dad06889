"""Configurations, the probability-vector check, and majorization utilities.

Shared vocabulary of the whole package: a system state is an integer vector
of per-color supports summing to n, kept in canonical form (sorted
non-increasing, trailing zeros trimmed). All comparisons here are
permutation-invariant, so the canonical form loses nothing. A probability
vector, such as the process function alpha(c), is a plain float64 array
that passes multinomial_pvals' check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

# Mass tolerance for probability vectors and per-prefix slack for
# floating-point majorization checks.
MASS_TOL = 1e-9
PREFIX_SLACK = 1e-12
# Floats below this magnitude convert to int64 exactly.
_INT64_LIMIT = 2.0**63


class InvalidConfiguration(ValueError):
    """Raised for empty/all-zero/negative count inputs."""


class MassMismatch(ValueError):
    """Raised when comparing vectors of unequal total mass."""


class InvalidProbabilityVector(ValueError):
    """Raised for a probability vector that is not 1-d, empty, has an entry
    outside [0, 1] (NaN and +-inf included) or a mass away from 1."""


@dataclass(frozen=True)
class Configuration:
    """Canonical color-support vector: sorted non-increasing, no zeros."""

    counts: tuple[int, ...]

    def __post_init__(self):
        # n is read every round; sum the counts once, outside the fields
        # so that ==, hash and repr still see counts only
        object.__setattr__(self, "_n", sum(self.counts))

    @property
    def n(self) -> int:
        return self._n

    def number_of_colors(self) -> int:
        return len(self.counts)

    def fractions(self) -> np.ndarray:
        """Per-color fractions c_i / n as a float array."""
        n = self.n
        return np.asarray(self.counts, dtype=float) / n

    def exact_fractions(self) -> list[Fraction]:
        n = self.n
        return [Fraction(c, n) for c in self.counts]

    def __len__(self) -> int:
        return len(self.counts)


def multinomial_pvals(probs) -> np.ndarray:
    """The probability-vector check, then probs (any array-like) clipped at 0
    and rescaled to sum 1, for numpy's multinomial."""
    arr = np.asarray(probs, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidProbabilityVector(
            f"probability vector must be non-empty and 1-d, got shape {arr.shape}"
        )
    lo = arr.min()
    # NaN fails both comparisons and +-inf fails one, so this also
    # rejects non-finite entries
    if not (lo >= -PREFIX_SLACK and arr.max() <= 1 + PREFIX_SLACK):
        raise InvalidProbabilityVector("probability entries must lie in [0, 1]")
    mass = arr.sum()
    if abs(mass - 1.0) > MASS_TOL:
        raise InvalidProbabilityVector(f"probabilities sum to {mass}, expected 1")
    if lo >= 0:
        return arr / mass  # the clip is the identity
    arr = np.clip(arr, 0.0, None)
    return arr / arr.sum()


@dataclass(frozen=True)
class StopCondition:
    """Stop once at most `kappa` colors remain, or after `max_rounds`."""

    kappa: int = 1
    max_rounds: int = 1_000_000

    def __post_init__(self):
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


VectorLike = Union[Configuration, Sequence[float], np.ndarray]


def canonicalize(raw_counts: Sequence[int]) -> Configuration:
    """Sort counts non-increasingly, drop zeros, and wrap as Configuration.

    Accepts any 1-d vector of integer, bool or integral float dtype; every
    other input raises InvalidConfiguration. The result holds Python ints.
    """
    arr = np.array(raw_counts)  # a copy: it is sorted in place below
    kind = arr.dtype.kind
    if kind == "b":
        arr = arr.astype(np.int64)
    elif kind == "f":
        # NaN and +-inf fail the range test; the cast below is then exact
        if not ((np.abs(arr) < _INT64_LIMIT) & (arr == np.trunc(arr))).all():
            raise InvalidConfiguration(f"non-integer count in {raw_counts}")
        arr = arr.astype(np.int64)
    elif kind not in "iu":
        raise InvalidConfiguration(f"non-integer count in {raw_counts}")
    if arr.ndim != 1:
        raise InvalidConfiguration(f"count vector must be 1-d, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidConfiguration("empty count vector")
    return Configuration(tuple(canonical_counts(arr).tolist()))


def canonical_counts(arr: np.ndarray) -> np.ndarray:
    """Sort a non-empty 1-d integer array in place and return its positive
    part, non-increasing, as a read-only view: the canonical counts."""
    arr.sort()
    if arr[0] < 0:
        raise InvalidConfiguration(f"negative count {arr[0]}")
    positive = np.count_nonzero(arr)
    if positive == 0:
        raise InvalidConfiguration("all counts are zero")
    out = arr[::-1][:positive]
    out.flags.writeable = False
    return out


def _sorted_values(x: VectorLike) -> np.ndarray:
    if isinstance(x, Configuration):
        return np.asarray(x.counts, dtype=float)  # already sorted
    return np.sort(np.asarray(x, dtype=float))[::-1]


def _is_integral(x: VectorLike) -> bool:
    if isinstance(x, Configuration):
        return True
    arr = np.asarray(x)
    return np.issubdtype(arr.dtype, np.integer)


def prefix_sums(x: VectorLike, d: int) -> np.ndarray:
    """Prefix sums of x sorted non-increasingly, truncated or padded to length d.

    Padding repeats the last cumulative sum, which is the total mass: the
    zero-padded vector has the same prefix sums. Every majorization
    comparison of the package goes through this one format.
    """
    cum = np.cumsum(_sorted_values(x))
    out = np.full(d, cum[-1] if len(cum) else 0.0)
    out[: len(cum)] = cum[:d]
    return out


def majorizes(a: VectorLike, b: VectorLike) -> bool:
    """True iff every prefix sum of sorted(a) covers that of sorted(b).

    Requires equal total mass: exact for integer vectors, within MASS_TOL
    otherwise. Vectors of different lengths are compared as if zero-padded.
    """
    sa, sb = _sorted_values(a), _sorted_values(b)
    exact = _is_integral(a) and _is_integral(b)
    ta, tb = sa.sum(), sb.sum()
    if exact:
        if int(round(ta)) != int(round(tb)):
            raise MassMismatch(f"total mass {ta} != {tb}")
        slack = 0.0
    else:
        if abs(ta - tb) > MASS_TOL:
            raise MassMismatch(f"total mass {ta} != {tb}")
        # the padded tail compares the two totals, which may differ by
        # up to MASS_TOL; that gap must not decide the answer
        slack = PREFIX_SLACK + abs(ta - tb)
    d = max(len(sa), len(sb))
    return bool(np.all(prefix_sums(sa, d) >= prefix_sums(sb, d) - slack))


def prefix_functional(x: VectorLike, j: int) -> float:
    """Sum of the j largest components (a Schur-convex test function)."""
    if j < 1:
        raise ValueError("prefix length must be >= 1")
    return float(prefix_sums(x, j)[-1])
