"""Smoke tests of the benchmark itself, on 2-tick episodes.

Run from the repository root:  python3 -m pytest swarmbench/tests -q
"""

import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402  (pins the BLAS thread count before numpy loads)
import bench  # noqa: E402
from swarmcoord import dmpc, predictor, qpcore  # noqa: E402
from swarmcoord.nn import Tensor  # noqa: E402
from swarmcoord.swarmsim import episode  # noqa: E402

SMOKE_TICKS = 2
SPEC = run.load_spec()

# metrics that repeat exactly for one seed: outcomes and counts, not times
DETERMINISTIC = {
    "end_to_end": ("goal_dist_m", "pred_err_m"),
    "per_layer": tuple(
        s["name"] for s in SPEC["per_layer"]
        if s["unit"] in ("count", "GFLOP") or s["name"] in (
            "plan_fallback_frac", "qpcore.hint_hit_frac", "qpcore.kkt_res_max")),
}


@pytest.fixture(autouse=True)
def smoke_workloads(monkeypatch):
    short = {name: dataclasses.replace(wl, ticks=SMOKE_TICKS)
             for name, wl in bench.WORKLOADS.items()}
    monkeypatch.setattr(bench, "WORKLOADS", short)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 2)
    monkeypatch.setattr(bench, "COLD_START_SAMPLES", 4)


def run_once(workload, trace, seed=7):
    out = io.StringIO()
    code = run.run_workload(workload, seed, 0.0, trace, out=out)
    lines = out.getvalue().splitlines()
    return code, (json.loads(lines[-1]) if lines else None)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_result_names_match_spec_and_repeat(workload, trace, section):
    code, first = run_once(workload, trace)
    assert code == 0
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert first["correct"] is True and first["attempted"] >= 1
    assert {n: m["unit"] for n, m in first["metrics"].items()} == {
        s["name"]: s["unit"] for s in SPEC[section]}

    _, second = run_once(workload, trace)
    for name in DETERMINISTIC[section]:
        assert first["metrics"][name] == second["metrics"][name], name
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_failed_check_exits_nonzero_without_result(monkeypatch, trace):
    monkeypatch.setattr(bench, "KKT_TOL", 0.0)  # no solve meets a zero residual
    code, result = run_once("desk-oracle", trace=trace)
    assert code != 0 and result is None


def test_hooks_are_removed_after_a_run():
    def hooked():
        return (episode.plan, episode.comm_graph, dmpc.solve, dmpc.QpInstance,
                qpcore.scipy, predictor.TrajectoryPredictor.predict_prior,
                predictor.lstm_step, Tensor.__init__)

    before = hooked()
    run_once("desk-oracle", trace=1)
    assert hooked() == before


def test_times_are_scaled_by_the_nearest_reference_slices(monkeypatch):
    monkeypatch.setattr(bench, "REF_NEAREST", 1)
    monkeypatch.setattr(bench, "REF_WINDOW_S", 0.5)
    ref = bench.Reference()
    # the machine runs a slice at the reference speed, then at half of it
    ref.starts, ref.seconds = [0.0, 10.0], [bench.REF_SLICE_MS / 1e3, 2 * bench.REF_SLICE_MS / 1e3]
    scaled = ref.scaled_ms([0.010, 0.020], at=[1.0, 9.0])
    assert scaled == pytest.approx([10.0, 10.0])
