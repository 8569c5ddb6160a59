"""Replicable algorithms for constrained stochastic multi-armed bandits."""

from .algorithms import ALGORITHM_NAMES, ConfigError, make_policy
from .environment import (
    InstanceSpec,
    OracleSolution,
    ValidationError,
    instance_from_dict,
    load_instance,
    solve_oracle,
)
from .harness import (
    ReplicabilityReport,
    TrialLog,
    aggregate_and_export,
    run_batch,
    run_replicability_experiment,
    run_trial,
)

__all__ = [
    "ALGORITHM_NAMES",
    "ConfigError",
    "InstanceSpec",
    "OracleSolution",
    "ReplicabilityReport",
    "TrialLog",
    "ValidationError",
    "aggregate_and_export",
    "instance_from_dict",
    "load_instance",
    "make_policy",
    "run_batch",
    "run_replicability_experiment",
    "run_trial",
]

__version__ = "0.1.0"
