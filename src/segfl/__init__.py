"""Segmented federated learning simulator for flow-based intrusion detection.

Workers hold flow-record shards, train small multilayer perceptrons locally,
and are periodically regrouped: a worker whose recent validation score falls
below a sigmoid threshold is moved to a better-fitting group or used to seed
a new one.  Everything is deterministic under a fixed seed.
"""

from segfl.orchestrator import DataSpec, ExperimentConfig, ExperimentResult, run_experiment

__all__ = ["DataSpec", "ExperimentConfig", "ExperimentResult", "run_experiment"]

__version__ = "0.1.0"
