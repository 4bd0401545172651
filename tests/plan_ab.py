"""Replay one DESK episode's plan() calls through two checkouts, interleaved.

    python3 tests/plan_ab.py --parent PARENT_DIR --change CHANGE_DIR [--rounds 5]

Loads PARENT_DIR/src/swarmcoord and CHANGE_DIR/src/swarmcoord side by side in
one process, as the packages `swarmcoord_parent` and `swarmcoord_change` (the
package imports itself only relatively), with one BLAS thread. It records the
inputs of every plan() call of the desk-oracle episode 1000 (120 ticks of the
benchmark's DESK scenario, run by the change) as plain arrays, rebuilds them
in each package, and runs every call once in each package untimed, so both
bundles hold their QP frames. Then, for `rounds` rounds, it times each call
in four stages back to back in the two packages, alternating which goes
first: plan(), build_qp(), solve() on that call's QP and hint masks, and the
collision probe detect_first_collision(). A pair is one stage of one call
timed in both packages within microseconds of each other, so a slow spell of
the machine falls on both sides of it.

Prints one JSON object: per stage, summarize()'s paired median ratio
(change time / parent time), its quartiles, the share of pairs the change
wins and each side's median time, plus whether the two packages returned
bitwise equal plans on every call.
"""

import os
import sys

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

STAGES = ("plan", "build_qp", "solve", "probe")
SIDES = ("parent", "change")
# the benchmark's desk-oracle workload: scenario 0 of the DESK config, and
# episode 1000 (the closed-loop episode of benchmark seed 1)
DESK = {"n_min": 4, "n_max": 5, "p_mig": (18.0, 0.0, 0.0)}
EPISODE_SEED, TICKS = 1000, 120


def summarize(parent, change):
    """Paired verdict of one stage; parent[k] and change[k] are pair k (seconds).

    median_ratio is the median over pairs of change / parent, with its
    quartiles; change_wins is the share of pairs in which the change was
    faster (ties count for neither side)."""
    parent, change = np.asarray(parent, float).ravel(), np.asarray(change, float).ravel()
    if parent.shape != change.shape or parent.size == 0 or np.any(parent <= 0):
        raise ValueError("need one positive parent time per change time")
    ratio = change / parent
    return {"median_ratio": float(np.median(ratio)),
            "ratio_quartiles": [float(q) for q in np.percentile(ratio, [25, 75])],
            "change_wins": float(np.mean(change < parent)),
            "pairs": int(parent.size),
            "parent_median_us": 1e6 * float(np.median(parent)),
            "change_median_us": 1e6 * float(np.median(change))}


def load_package(checkout, name):
    """The checkout's src/swarmcoord, imported as the package `name`."""
    root = Path(checkout).resolve() / "src" / "swarmcoord"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def module(package, name):
    return importlib.import_module(f"{package.__name__}.{name}")


def capture(package):
    """(obstacles as (center, shape matrix) pairs, the plan() calls' inputs)."""
    swarmsim, episode = module(package, "swarmsim"), module(package, "swarmsim.episode")
    scenario = swarmsim.sample_scenario(0, swarmsim.ScenarioConfig(**DESK))
    calls, real_plan = [], episode.plan

    def recording(state, prev_plan, preds, obstacles, p_mig, bundle, hint_labels=None):
        calls.append({"position": state.position.copy(), "velocity": state.velocity.copy(),
                      "control_points": prev_plan.control_points.copy(),
                      "segment_duration": prev_plan.segment_duration,
                      "preds": {int(j): np.array(v, dtype=float) for j, v in preds.items()},
                      "p_mig": np.array(p_mig, dtype=float), "hint_labels": hint_labels})
        return real_plan(state, prev_plan, preds, obstacles, p_mig, bundle,
                         hint_labels=hint_labels)

    episode.plan = recording
    try:
        swarmsim.run_episode(scenario, "oracle", ticks=TICKS, seed=EPISODE_SEED)
    finally:
        episode.plan = real_plan
    obstacles = [(o.center.copy(), o.shape_matrix.copy()) for o in scenario.obstacles]
    return obstacles, calls


class Replay:
    """The captured calls rebuilt in one package, with a stage runner per stage."""

    def __init__(self, package, obstacles, calls):
        dmpc, geometry = module(package, "dmpc"), module(package, "geometry")
        self.dmpc = dmpc
        bundle = dmpc.BasisBundle(dmpc.ControllerConfig())
        self.obstacles = [geometry.Ellipsoid(c, e) for c, e in obstacles]
        self.args = [(dmpc.AgentState(c["position"], c["velocity"]),
                      geometry.BezierPlan(c["control_points"], c["segment_duration"]),
                      c["preds"], self.obstacles, c["p_mig"], bundle) for c in calls]
        self.hints = [c["hint_labels"] for c in calls]
        self.solve_args = []
        for args, hint_labels in zip(self.args, self.hints):
            qp, meta = dmpc.build_qp(*args)
            if hint_labels is None:
                masks = np.zeros(qp.num_ineq, bool), np.isfinite(qp.lb)
            else:
                masks = (np.array([lab in hint_labels for lab in meta["labels"]], bool),
                         np.array([lab in hint_labels for lab in meta["bound_labels"]], bool))
            self.solve_args.append((qp, *masks))
        cfg = bundle.cfg
        self.probe_args = [(bundle.shifted @ args[1].flatten(), self.obstacles,
                            cfg.r_min + dmpc.OBSTACLE_BAND, cfg.agent_shape)
                           for args in self.args]

    def stage(self, name, k):
        """A no-argument callable that runs stage `name` of call k."""
        dmpc = self.dmpc
        if name == "plan":
            return lambda: dmpc.plan(*self.args[k], hint_labels=self.hints[k])
        if name == "build_qp":
            return lambda: dmpc.build_qp(*self.args[k])
        if name == "solve":
            qp, hint, bound_hint = self.solve_args[k]
            return lambda: dmpc.solve(qp, active_set_hint=hint, bound_hint=bound_hint)
        traj, obstacles, distance, shape = self.probe_args[k]
        return lambda: dmpc.detect_first_collision(traj, obstacles, distance, norm_matrix=shape)


def time_pairs(replays, n_calls, rounds):
    """{stage: {side: (rounds, n_calls) seconds}}, each pair timed back to back."""
    times = {s: {side: np.zeros((rounds, n_calls)) for side in SIDES} for s in STAGES}
    for r in range(rounds):
        for k in range(n_calls):
            order = SIDES if (r + k) % 2 == 0 else SIDES[::-1]
            for name in STAGES:
                for side in order:
                    run = replays[side].stage(name, k)
                    t0 = perf_counter()
                    run()
                    times[name][side][r, k] = perf_counter() - t0
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--rounds", type=int, default=5, help="timed passes over the calls")
    args = parser.parse_args(argv)

    packages = {side: load_package(getattr(args, side), f"swarmcoord_{side}")
                for side in SIDES}
    obstacles, calls = capture(packages["change"])
    replays = {side: Replay(packages[side], obstacles, calls) for side in SIDES}
    equal = all([np.array_equal(replays["parent"].stage("plan", k)().trajectory,
                                replays["change"].stage("plan", k)().trajectory)
                 for k in range(len(calls))])
    times = time_pairs(replays, len(calls), args.rounds)
    out = {"command": "python3 tests/plan_ab.py --parent <parent> --change <change> "
                      f"--rounds {args.rounds}",
           "episode": f"desk-oracle {EPISODE_SEED}, {TICKS} ticks",
           "calls": len(calls), "rounds": args.rounds, "plans_bitwise_equal": equal,
           "stages": {name: summarize(times[name]["parent"], times[name]["change"])
                      for name in STAGES}}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
