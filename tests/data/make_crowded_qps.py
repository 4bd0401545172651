"""Regenerate crowded_qps.bin, the plan() inputs of two crowded agent-ticks.

The episode: default ScenarioConfig, scenario seed 3 (13 agents), oracle
mode, episode seed 7, one BLAS thread. When the ADMM ran on unscaled data,
its 20000 iterations ran out at tick 97 (agent 3) and at tick 124 (agent 12),
and both agents fell back to their shifted previous plans. The script replays
the episode with those two fallbacks forced, so that the second agent-tick
sees the same swarm, and stores the inputs of both plan() calls: the measured
state, the previous plan, the neighbour predictions, the obstacles and p_mig,
in one arrayio container. tests/test_dmpc.py rebuilds the QPs from them.

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
from swarmcoord.arrayio import write_container  # noqa: E402
from swarmcoord.qpcore import QpSolution, SolveStatus  # noqa: E402
from swarmcoord.swarmsim import episode  # noqa: E402
from swarmcoord.swarmsim.scenario import sample_scenario  # noqa: E402

SCENARIO_SEED, EPISODE_SEED = 3, 7
FALLBACKS = ((97, 3), (124, 12))  # (tick, agent)
OUT = HERE / "crowded_qps.bin"
FORMAT = "swarmcoord-crowded-qps"


def max_iter_stub(qp, **_):
    return QpSolution(np.zeros(qp.num_vars), np.zeros(qp.num_ineq), np.zeros(qp.num_eq),
                      SolveStatus.MAX_ITER, float("nan"), 0)


def main():
    scenario = sample_scenario(SCENARIO_SEED)
    real_plan, real_solve = episode.plan, dmpc.solve
    calls, meta = [0], []
    arrays = {"p_mig": scenario.p_mig,
              "obstacle_centers": np.array([o.center for o in scenario.obstacles]),
              "obstacle_shapes": np.array([o.shape_matrix for o in scenario.obstacles])}

    def plan(state, prev_plan, preds, obstacles, p_mig, bundle, **kwargs):
        tick, agent = divmod(calls[0], scenario.n)
        calls[0] += 1
        if (tick, agent) not in FALLBACKS:
            return real_plan(state, prev_plan, preds, obstacles, p_mig, bundle, **kwargs)
        key = f"{tick}.{agent}"
        neighbors = sorted(preds)
        arrays.update({
            f"{key}.position": state.position, f"{key}.velocity": state.velocity,
            f"{key}.prev_control_points": prev_plan.control_points,
            f"{key}.neighbors": np.asarray(neighbors, dtype=np.int64),
            f"{key}.predictions": np.array([preds[j] for j in neighbors]).reshape(len(neighbors), -1),
        })
        meta.append({"tick": tick, "agent": agent, "segment_duration": prev_plan.segment_duration})
        dmpc.solve = max_iter_stub
        try:
            return real_plan(state, prev_plan, preds, obstacles, p_mig, bundle, **kwargs)
        finally:
            dmpc.solve = real_solve

    episode.plan = plan
    try:
        episode.run_episode(scenario, "oracle", ticks=max(t for t, _ in FALLBACKS) + 1,
                            seed=EPISODE_SEED)
    finally:
        episode.plan = real_plan
    write_container(OUT, arrays, fmt=FORMAT,
                    meta={"scenario_seed": SCENARIO_SEED, "episode_seed": EPISODE_SEED,
                          "agent_ticks": meta})
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
