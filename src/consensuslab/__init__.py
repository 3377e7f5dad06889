"""Simulation and verification toolkit for pull-based consensus dynamics
(Voter, 2-Choices, h-majority) on the complete graph."""

# set before the submodule imports: cli reads it for its output metadata
__version__ = "0.1.0"

from .core import (
    InvalidConfiguration,
    MassMismatch,
    StopCondition,
    canonicalize,
    majorizes,
    prefix_functional,
)
from .rules import (
    UpdateRule,
    expected_fraction_after_step,
    h_majority_rule,
    process_function,
    process_function_exact,
    step_rule,
    two_choices_rule,
    voter_rule,
)
from .sampler import RngStream, sample_multinomial
