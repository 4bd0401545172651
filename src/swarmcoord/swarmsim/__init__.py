from .scenario import (
    Scenario,
    ScenarioConfig,
    ScenarioError,
    poisson_disk_box,
    sample_scenario,
    validate_scenario,
)
from .episode import (
    ChannelConfig,
    DynamicsModel,
    EpisodeTrace,
    RunMode,
    channel_deliver,
    comm_graph,
    make_default_dynamics,
    run_episode,
    step_dynamics,
)
from .metrics import (
    COST_KEYS,
    config_digest,
    metrics,
    prediction_error_per_step,
    trace_manifest,
    write_trace_csvs,
)

__all__ = [
    "COST_KEYS", "ChannelConfig", "DynamicsModel", "EpisodeTrace", "RunMode",
    "Scenario", "ScenarioConfig", "ScenarioError", "channel_deliver",
    "comm_graph", "config_digest", "make_default_dynamics", "metrics",
    "poisson_disk_box", "prediction_error_per_step", "run_episode",
    "sample_scenario", "step_dynamics", "trace_manifest", "validate_scenario",
    "write_trace_csvs",
]
