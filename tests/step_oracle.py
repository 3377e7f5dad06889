"""The labelled oracle of rules.step_rule for every rule: one literal
per-node round, rules.node_round, on the nodes of the counts."""

import numpy as np

from consensuslab.core import canonical_counts, check_canonical
from consensuslab.rules import UpdateRule, node_round
from consensuslab.sampler import RngStream


def step_reference(rule: UpdateRule, c: np.ndarray, rng: RngStream) -> np.ndarray:
    """One node_round on the nodes of canonical counts c; returns canonical
    counts."""
    check_canonical(c)
    colors, _ = node_round(rule, np.repeat(np.arange(len(c)), c), rng.gen)
    return canonical_counts(np.bincount(colors, minlength=len(c)))
