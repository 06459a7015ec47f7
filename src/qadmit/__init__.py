"""Admission-control queueing laboratory.

An overloaded queue receives jobs at rate ``arrival_rate`` and service
tokens at rate ``1 - divert_budget``; the manager may divert arrivals at a
long-run rate up to the budget, possibly peeking at a lookahead window of
revealed future events.  This package bundles the pieces needed to study
that system at desk scale: a reproducible merged-stream generator, online
and lookahead diversion policies, an exact discrete-event simulator with a
pathwise flow identity, closed-form birth-death oracles with the
heavy-traffic scaling table, and Monte Carlo machinery for the rare
excursion events behind the lookahead lower bound.

The top level exports what the demos and the README use; everything else
is imported from its submodule (``qadmit.policy``, ``qadmit.sim``, ...).
"""

# the one place the version lives: pyproject.toml and the run manifest read it
__version__ = "0.1.0"

from .analytic import bd_stationary, ldp_rate_estimate, online_scaling_table, poisson_tail
from .errors import ConfigurationError, EstimationError, OutOfRangeError
from .excursion import (
    ExcursionConfig,
    diversion_idling_diagnostic,
    e1_zeta_sweep,
    e5_rate_fit,
    estimate_event_probs,
    reference_queue,
)
from .policy import PolicyState, min_feasible_threshold
from .sim import flow_identity_residuals, run_simulation
from .stream import (
    EventStream,
    ModelParams,
    generate_stream,
    net_input,
    replication_seed,
    running_extreme,
    stream_to_csv,
)

__all__ = [
    "ConfigurationError",
    "EstimationError",
    "EventStream",
    "ExcursionConfig",
    "ModelParams",
    "OutOfRangeError",
    "PolicyState",
    "bd_stationary",
    "diversion_idling_diagnostic",
    "e1_zeta_sweep",
    "e5_rate_fit",
    "estimate_event_probs",
    "flow_identity_residuals",
    "generate_stream",
    "ldp_rate_estimate",
    "min_feasible_threshold",
    "net_input",
    "online_scaling_table",
    "poisson_tail",
    "reference_queue",
    "replication_seed",
    "run_simulation",
    "running_extreme",
    "stream_to_csv",
]
