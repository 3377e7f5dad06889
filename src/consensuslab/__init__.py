"""Simulation and verification toolkit for pull-based consensus dynamics
(Voter, 2-Choices, h-majority) on the complete graph. Callers import the
submodules: core, sampler, rules, dominance, coalescing, drift, harness
and cli."""

__version__ = "0.1.0"
