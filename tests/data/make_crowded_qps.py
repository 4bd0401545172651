"""Regenerate the solver fixtures: the plan() inputs of agent-ticks whose QPs
an ADMM solver failed on. Each record is the measured state, the previous
plan and the neighbour predictions; tests/test_dmpc.py rebuilds the QPs
from them. One BLAS thread throughout.

crowded_qps.bin: default ScenarioConfig, scenario seed 3 (13 agents),
oracle mode, episode seed 7. When the ADMM ran on unscaled data, its 20000
iterations ran out at tick 97 (agent 3) and at tick 124 (agent 12), and both
agents fell back to their shifted previous plans. The script replays the
episode with those two fallbacks forced, so that the second agent-tick sees
the same swarm. The obstacles and p_mig are stored once. A 124-tick closed
loop amplifies any change in rounding: on code that moves plans by 1e-10,
the replayed tick-124 agent has 6 neighbours instead of 5, so the committed
file is kept (see write).

tick0_qps.bin: default ScenarioConfig, scenario seeds 2, 11 and 23, oracle
mode, episode seed 0, the tick-0 plan() of agent 1, 7 and 2. The
equilibrated ADMM ran out of its 20000 iterations on each of these feasible
QPs, after 3.0-3.5 s. Tick-0 plans do not depend on each other, so no replay
is needed. Each record stores its scenario's obstacles and p_mig.

    python tests/data/make_crowded_qps.py
"""

import os
import sys
from pathlib import Path

# the closed-loop trajectory depends on the BLAS thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

from swarmcoord import dmpc  # noqa: E402
from swarmcoord.arrayio import read_container, write_container  # noqa: E402
from swarmcoord.qpcore import QpSolution, SolveStatus  # noqa: E402
from swarmcoord.swarmsim import episode  # noqa: E402
from swarmcoord.swarmsim.scenario import sample_scenario  # noqa: E402

CROWDED_SEEDS = 3, 7  # scenario, episode
FALLBACKS = ((97, 3), (124, 12))  # (tick, agent)
TICK0_AGENTS = ((2, 1), (11, 7), (23, 2))  # (scenario seed, agent), episode seed 0
CROWDED_OUT, CROWDED_FORMAT = HERE / "crowded_qps.bin", "swarmcoord-crowded-qps"
TICK0_OUT, TICK0_FORMAT = HERE / "tick0_qps.bin", "swarmcoord-tick0-qps"


def max_iter_stub(qp, **_):
    return QpSolution(np.zeros(qp.num_vars), np.zeros(qp.num_ineq), np.zeros(qp.num_eq),
                      SolveStatus.MAX_ITER, float("nan"), 0)


def scenario_arrays(scenario, prefix=""):
    return {f"{prefix}p_mig": scenario.p_mig,
            f"{prefix}obstacle_centers": np.array([o.center for o in scenario.obstacles]),
            f"{prefix}obstacle_shapes": np.array([o.shape_matrix for o in scenario.obstacles])}


def plan_inputs(key, state, prev_plan, preds):
    neighbors = sorted(preds)
    return {
        f"{key}.position": state.position, f"{key}.velocity": state.velocity,
        f"{key}.prev_control_points": prev_plan.control_points,
        f"{key}.neighbors": np.asarray(neighbors, dtype=np.int64),
        f"{key}.predictions": np.array([preds[j] for j in neighbors]).reshape(len(neighbors), -1),
    }


def recording_plan(scenario, pick, arrays, meta, force_fallback=False):
    """An episode.plan that stores the inputs of the (tick, agent) pairs in
    pick, solving them with a MAX_ITER stub if force_fallback."""
    real_plan, real_solve = episode.plan, dmpc.solve
    calls = [0]

    def plan(state, prev_plan, preds, obstacles, p_mig, bundle, **kwargs):
        tick, agent = divmod(calls[0], scenario.n)
        calls[0] += 1
        if (tick, agent) not in pick:
            return real_plan(state, prev_plan, preds, obstacles, p_mig, bundle, **kwargs)
        key = pick[tick, agent]
        arrays.update(plan_inputs(key, state, prev_plan, preds))
        meta.append({"tick": tick, "agent": agent, "segment_duration": prev_plan.segment_duration})
        if force_fallback:
            dmpc.solve = max_iter_stub
        try:
            return real_plan(state, prev_plan, preds, obstacles, p_mig, bundle, **kwargs)
        finally:
            dmpc.solve = real_solve

    return plan


def run(scenario, ticks, seed, plan):
    real_plan = episode.plan
    episode.plan = plan
    try:
        episode.run_episode(scenario, "oracle", ticks=ticks, seed=seed)
    finally:
        episode.plan = real_plan


def write(path, arrays, fmt, meta):
    """Write a fixture, unless it exists and the replay gives other inputs:
    the fixture records the QP that failed, so drift does not replace it.
    Delete the file to take the replayed inputs instead."""
    if path.exists():
        old, old_meta = read_container(path, expect_format=fmt)
        drift = [k for k in arrays if k not in old or not np.array_equal(old[k], arrays[k])]
        if drift or old_meta != meta:
            print(f"kept {path}: the replay differs in {drift or 'meta'}")
            return
    write_container(path, arrays, fmt=fmt, meta=meta)
    print(f"wrote {path} ({path.stat().st_size} bytes)")


def crowded():
    scenario_seed, episode_seed = CROWDED_SEEDS
    scenario = sample_scenario(scenario_seed)
    arrays, meta = scenario_arrays(scenario), []
    pick = {(tick, agent): f"{tick}.{agent}" for tick, agent in FALLBACKS}
    run(scenario, max(t for t, _ in FALLBACKS) + 1, episode_seed,
        recording_plan(scenario, pick, arrays, meta, force_fallback=True))
    write(CROWDED_OUT, arrays, CROWDED_FORMAT,
          {"scenario_seed": scenario_seed, "episode_seed": episode_seed, "agent_ticks": meta})


def tick0():
    arrays, meta = {}, []
    for scenario_seed, agent in TICK0_AGENTS:
        scenario = sample_scenario(scenario_seed)
        key = f"{scenario_seed}.{agent}"
        arrays.update(scenario_arrays(scenario, prefix=f"{key}."))
        run(scenario, 1, 0, recording_plan(scenario, {(0, agent): key}, arrays, meta))
        meta[-1]["scenario_seed"] = scenario_seed
    write(TICK0_OUT, arrays, TICK0_FORMAT, {"episode_seed": 0, "agent_ticks": meta})


if __name__ == "__main__":
    crowded()
    tick0()
