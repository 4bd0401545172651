"""Episode metrics: cost totals, safety distances, per-step prediction error.

Per-step prediction error follows the meter-valued convention: at horizon
step h it is the mean Euclidean distance between the predicted and the true
planned 3-D point, averaged over every (tick, ego, target) prediction.
"""

import csv
import hashlib
import itertools
import json
from dataclasses import asdict

import numpy as np

from .episode import EpisodeTrace

R_COLL_DEFAULT = 0.07
GOAL_RADIUS_DEFAULT = 0.5

COST_KEYS = ("migration", "safe_agent", "safe_obstacle", "cohesion", "control_effort")


def metrics(trace: EpisodeTrace) -> dict:
    """Aggregate one trace into the reportable quantities."""
    n, ticks = trace.n, trace.ticks
    costs = {key: 0.0 for key in COST_KEYS}
    for tick_costs in trace.costs:
        for agent_costs in tick_costs:
            for key in COST_KEYS:
                costs[key] += agent_costs[key]
    total = sum(costs.values())

    pair_d = trace.pairwise_scaled_distances(trace.controller.agent_shape)
    pair_values = np.array([pair_d[t, i, j] for t in range(ticks)
                            for i, j in itertools.combinations(range(n), 2)])
    obs_d = trace.obstacle_distances()

    agent_collisions = int(np.sum(pair_values < R_COLL_DEFAULT))
    obstacle_collisions = int(np.sum(obs_d < R_COLL_DEFAULT))

    pred_err = prediction_error_per_step(trace)

    goal_dist = np.array([np.max(np.linalg.norm(
        states[:, :3] - trace.scenario.p_mig, axis=1)) for states in trace.true_states])

    return {
        "costs": costs,
        "total_cost": total,
        "min_agent_distance": float(pair_values.min()) if pair_values.size else np.inf,
        "avg_agent_distance": float(pair_values.mean()) if pair_values.size else np.inf,
        "max_agent_distance": float(pair_values.max()) if pair_values.size else np.inf,
        "min_obstacle_distance": float(obs_d.min()) if obs_d.size else np.inf,
        "agent_collisions": agent_collisions,
        "obstacle_collisions": obstacle_collisions,
        "collision": bool(agent_collisions or obstacle_collisions),
        "prediction_error_per_step": pred_err,
        "goal_reached": bool(np.any(goal_dist <= GOAL_RADIUS_DEFAULT)),
        "fallback_ticks": int(sum(len(f) for f in trace.fallback_flags)),
        "ticks": ticks,
        "n_agents": n,
    }


def prediction_error_per_step(trace: EpisodeTrace):
    """Mean Euclidean error per horizon step, or None without predictions."""
    horizon = trace.controller.horizon
    sums = np.zeros(horizon)
    count = 0
    for tick in range(trace.ticks):
        plans = trace.plans[tick]
        for (ego, target), pred in trace.predictions[tick].items():
            diff = (np.asarray(pred) - plans[target]).reshape(horizon, 3)
            sums += np.linalg.norm(diff, axis=1)
            count += 1
    if count == 0:
        return None
    return (sums / count).tolist()


def config_digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _controller_doc(cfg):
    doc = asdict(cfg)
    doc["agent_shape"] = np.asarray(doc["agent_shape"]).tolist()
    return doc


def trace_manifest(trace: EpisodeTrace) -> dict:
    from .. import __version__
    doc = {
        "software_version": __version__,
        "ticks": trace.ticks,
        "n_agents": trace.n,
        "mode": trace.mode.value,
        "seed": trace.seed,
        "scenario_seed": trace.scenario.seed,
        "noise_std": trace.noise_std,
        "controller": _controller_doc(trace.controller),
        "channel": asdict(trace.channel),
    }
    doc["config_digest"] = config_digest(
        {k: doc[k] for k in ("mode", "seed", "scenario_seed", "noise_std",
                             "controller", "channel")})
    return doc


def write_trace_csvs(trace: EpisodeTrace, out_dir):
    """One CSV per metric family plus a JSON manifest; returns written paths."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = {}

    with open(out / "states.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tick", "agent", "px", "py", "pz", "vx", "vy", "vz",
                         "measured_px", "measured_py", "measured_pz"])
        for t in range(trace.ticks):
            for i in range(trace.n):
                row = ([t, i] + trace.true_states[t][i].tolist()
                       + trace.measured_states[t][i][:3].tolist())
                writer.writerow(row)
    written["states"] = out / "states.csv"

    with open(out / "costs.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tick", "agent", *COST_KEYS, "total"])
        for t in range(trace.ticks):
            for i in range(trace.n):
                vals = [trace.costs[t][i][k] for k in COST_KEYS]
                writer.writerow([t, i, *vals, sum(vals)])
    written["costs"] = out / "costs.csv"

    pair_d = trace.pairwise_scaled_distances(trace.controller.agent_shape)
    obs_d = trace.obstacle_distances()
    with open(out / "distances.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tick", "min_agent_agent", "avg_agent_agent",
                         "max_agent_agent", "min_agent_obstacle"])
        for t in range(trace.ticks):
            vals = [pair_d[t, i, j] for i, j in
                    itertools.combinations(range(trace.n), 2)]
            if vals:
                writer.writerow([t, min(vals), sum(vals) / len(vals), max(vals),
                                 obs_d[t].min()])
            else:
                writer.writerow([t, "", "", "", obs_d[t].min()])
    written["distances"] = out / "distances.csv"

    err = prediction_error_per_step(trace)
    with open(out / "prediction_errors.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "mean_euclidean_error"])
        if err is not None:
            for h, e in enumerate(err, start=1):
                writer.writerow([h, e])
    written["prediction_errors"] = out / "prediction_errors.csv"

    with open(out / "messages.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tick", "sent", "delivered"])
        for t in range(trace.ticks):
            writer.writerow([t, len(trace.messages_sent[t]),
                             len(trace.deliveries[t])])
    written["messages"] = out / "messages.csv"

    manifest = trace_manifest(trace)
    manifest["metrics"] = metrics(trace)
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)
    written["manifest"] = out / "manifest.json"
    return written
