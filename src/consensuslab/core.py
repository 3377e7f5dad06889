"""Canonical counts, the probability-vector check, and majorization utilities.

Shared vocabulary of the whole package: a system state is the vector of
per-color supports summing to n, kept as canonical counts: a read-only
int64 array, sorted non-increasing, zeros trimmed (canonical_counts makes
it). All comparisons here are permutation-invariant, so the canonical form
loses nothing. A probability
vector, such as the process function alpha(c), is a plain float64 array
that passes multinomial_pvals' check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

# Mass tolerance for probability vectors and per-prefix slack for
# floating-point majorization checks.
MASS_TOL = 1e-9
PREFIX_SLACK = 1e-12
# Floats below this magnitude convert to int64 exactly.
_INT64_LIMIT = 2.0**63


class InvalidConfiguration(ValueError):
    """Raised for counts that are not, or do not make, canonical counts."""


class MassMismatch(ValueError):
    """Raised when comparing vectors of unequal total mass."""


class InvalidProbabilityVector(ValueError):
    """Raised for a probability vector that is not 1-d, empty, has an entry
    outside [0, 1] (NaN and +-inf included) or a mass away from 1."""


class CouplingViolation(AssertionError):
    """An exact coupling failed (the duality identity in coalescing, or the
    dominating Binomial process in harness): an implementation bug."""


def multinomial_pvals(probs, rows: bool = False) -> np.ndarray:
    """The probability-vector check, then probs (any array-like) clipped at 0
    and rescaled to sum 1, for numpy's multinomial. With rows=True probs is
    a 2-d array whose rows are checked and rescaled each as a 1-d vector.
    probs is read in C order: the rounding of a row's sum depends on the
    memory layout, and the pvals must not."""
    arr = np.asarray(probs, dtype=float, order="C")
    if arr.ndim != 1 + rows or arr.size == 0:
        raise InvalidProbabilityVector(
            f"probability {'rows' if rows else 'vector'} must be non-empty and "
            f"{1 + rows}-d, got shape {arr.shape}"
        )
    lo = arr.min()
    # NaN fails both comparisons and +-inf fails one, so this also
    # rejects non-finite entries
    if not (lo >= -PREFIX_SLACK and arr.max() <= 1 + PREFIX_SLACK):
        raise InvalidProbabilityVector("probability entries must lie in [0, 1]")
    mass = arr.sum(axis=-1)
    # a row's mass is checked as a vector's is: the one furthest from 1 decides
    worst = mass[np.abs(mass - 1.0).argmax()] if rows else mass
    if abs(worst - 1.0) > MASS_TOL:
        raise InvalidProbabilityVector(f"probabilities sum to {worst}, expected 1")
    if rows:
        mass = mass[:, None]
    if lo >= 0:
        return arr / mass  # the clip is the identity
    arr = np.clip(arr, 0.0, None)
    return arr / arr.sum(axis=-1, keepdims=rows)


@dataclass(frozen=True)
class StopCondition:
    """Stop once at most `kappa` colors remain, once a support exceeds
    `above` (None: never), or after `max_rounds`."""

    kappa: int = 1
    max_rounds: int = 1_000_000
    above: Optional[int] = None

    def __post_init__(self):
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.above is not None and self.above < 1:
            raise ValueError("above must be >= 1")


VectorLike = Union[Sequence[float], np.ndarray]


def canonicalize(raw_counts: Sequence[int]) -> np.ndarray:
    """The canonical counts of raw_counts: sorted non-increasingly, zeros
    dropped, as a read-only int64 array.

    Accepts any 1-d integer, bool or integral float vector whose values and
    their sum fit int64; other input raises InvalidConfiguration.
    """
    arr = np.array(raw_counts)
    kind = arr.dtype.kind
    if kind == "f":
        # NaN and +-inf are not integers; an integral float below 2^63 casts exactly
        if not (np.isfinite(arr) & (arr == np.trunc(arr))).all():
            raise InvalidConfiguration(f"non-integer count in {raw_counts}")
        if (np.abs(arr) >= _INT64_LIMIT).any():
            raise InvalidConfiguration(f"count outside the int64 range in {raw_counts}")
    elif kind == "u":
        # the cast below would wrap a uint64 count >= 2^63 to a negative one
        if (arr > np.iinfo(np.int64).max).any():
            raise InvalidConfiguration(f"count above the int64 range in {raw_counts}")
    elif kind not in "bi":
        raise InvalidConfiguration(f"non-integer count in {raw_counts}")
    if arr.ndim != 1:
        raise InvalidConfiguration(f"count vector must be 1-d, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidConfiguration("empty count vector")
    # np.array copied the input, so canonical_counts may sort arr in place
    out = canonical_counts(arr.astype(np.int64, copy=False))
    # every count fits int64 now, but their sum n must too
    if sum(out.tolist()) > np.iinfo(np.int64).max:
        raise InvalidConfiguration(f"counts sum above the int64 range in {raw_counts}")
    return out


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


def check_canonical(c: np.ndarray) -> None:
    """Raise InvalidConfiguration unless c is canonical counts: a non-empty
    1-d int64 array, non-increasing, with no zeros. Entry points call it
    once; a round's own output needs no check."""
    if not (isinstance(c, np.ndarray) and c.dtype == np.int64 and c.ndim == 1 and c.size):
        raise InvalidConfiguration("counts must be a non-empty 1-d int64 array")
    if c[-1] <= 0 or (c[:-1] < c[1:]).any():
        raise InvalidConfiguration(f"counts must be non-increasing and positive, got {c}")


def _sorted_values(x: VectorLike) -> np.ndarray:
    return np.sort(np.asarray(x, dtype=float))[..., ::-1]


def prefix_sums(x: VectorLike, d: int) -> np.ndarray:
    """Prefix sums of x sorted non-increasingly, truncated or padded to length d;
    an x of more dimensions gets them along its last axis, row by row.

    Padding repeats the last cumulative sum, which is the total mass: the
    zero-padded vector has the same prefix sums. Every majorization
    comparison of the package goes through this one format.
    """
    cum = np.cumsum(_sorted_values(x), axis=-1)
    out = np.zeros(cum.shape[:-1] + (d,))
    if cum.shape[-1]:
        out[...] = cum[..., -1:]
        out[..., : cum.shape[-1]] = cum[..., :d]
    return out


def majorizes(a: VectorLike, b: VectorLike) -> bool:
    """True iff every prefix sum of sorted(a) covers that of sorted(b).

    Requires equal total mass, within MASS_TOL. Vectors of different lengths
    are compared as if zero-padded. Integer vectors give integral float
    sums, whose order no slack below 1 can change.
    """
    sa, sb = _sorted_values(a), _sorted_values(b)
    ta, tb = sa.sum(), sb.sum()
    if abs(ta - tb) > MASS_TOL:
        raise MassMismatch(f"total mass {ta} != {tb}")
    # the padded tail compares the two totals, which may differ by
    # up to MASS_TOL; that gap must not decide the answer
    slack = PREFIX_SLACK + abs(ta - tb)
    d = max(len(sa), len(sb))
    return bool(np.all(prefix_sums(sa, d) >= prefix_sums(sb, d) - slack))
