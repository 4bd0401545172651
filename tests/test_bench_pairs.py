import io

import numpy as np
import pytest

import bench_pairs
import episode_digest

PARENT = [8.1, 8.3, 8.0, 8.7, 8.4, 8.2, 8.9, 8.5, 8.6, 8.3]


class TestCompare:
    def test_nine_wins_and_a_gap_beyond_the_spread(self):
        change = [p - 2.0 for p in PARENT]
        change[4] = PARENT[4] + 0.1  # one loss
        v = bench_pairs.compare(PARENT, change, "lower", 0.25)
        assert (v["change_wins"], v["change_losses"], v["pairs"]) == (9, 1, 10)
        assert v["parent_median"] == pytest.approx(8.35)
        assert v["parent_quartiles"] == pytest.approx(np.percentile(PARENT, [25, 75]))
        assert v["claim_met"] and v["within_bound"] and v["resolved"]

    def test_eight_wins_do_not_claim(self):
        change = [p - 2.0 for p in PARENT]
        change[4], change[7] = PARENT[4] + 0.1, PARENT[7] + 0.1
        v = bench_pairs.compare(PARENT, change, "lower", 0.25)
        assert v["change_wins"] == 8 and not v["claim_met"]

    def test_ties_count_for_neither_side(self):
        change = [p - 2.0 for p in PARENT]
        change[0] = PARENT[0]
        v = bench_pairs.compare(PARENT, change, "lower", 0.25)
        assert (v["change_wins"], v["change_losses"]) == (9, 0)
        assert v["claim_met"]
        change[1] = PARENT[1]
        assert not bench_pairs.compare(PARENT, change, "lower", 0.25)["claim_met"]

    def test_gap_inside_the_parents_spread_does_not_claim(self):
        # every pair a win, but the median moves by less than the
        # parent's interquartile distance (8.2 to 8.575)
        change = [p - 0.3 for p in PARENT]
        v = bench_pairs.compare(PARENT, change, "lower", 0.25)
        assert v["change_wins"] == 10 and not v["claim_met"]

    def test_higher_is_better(self):
        change = [p + 2.0 for p in PARENT]
        v = bench_pairs.compare(PARENT, change, "higher", 0.25)
        assert v["change_wins"] == 10 and v["claim_met"] and v["within_bound"]
        v = bench_pairs.compare(change, PARENT, "higher", 0.2)
        assert v["change_losses"] == 10 and not v["claim_met"]
        assert v["relative_change"] == pytest.approx(8.35 / 10.35 - 1)
        assert v["within_bound"]  # 19.3 % worse
        assert not bench_pairs.compare(change, PARENT, "higher", 0.15)["within_bound"]

    def test_regression_bound_and_resolution(self):
        worse = [p * 1.2 for p in PARENT]
        v = bench_pairs.compare(PARENT, worse, "lower", 0.25)
        assert v["relative_change"] == pytest.approx(0.2)
        assert v["within_bound"] and not v["claim_met"]
        assert not bench_pairs.compare(PARENT, worse, "lower", 0.1)["within_bound"]
        # a parent spread wider than the bound leaves the metric unresolved,
        # unless every change run beats every parent run
        wide = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0]
        assert not bench_pairs.compare(wide, wide[::-1], "lower", 0.25)["resolved"]
        assert bench_pairs.compare(wide, [0.5] * 10, "lower", 0.25)["resolved"]

    def test_equal_pairs_are_resolved(self):
        # every pair reads exactly the parent's value: no change, however
        # widely the value spreads across seeds
        wide = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0]
        v = bench_pairs.compare(wide, wide, "lower", 0.25)
        assert v["resolved"] and v["within_bound"] and not v["claim_met"]
        assert v["relative_change"] == 0.0
        assert (v["change_wins"], v["change_losses"]) == (0, 0)
        # one pair apart, and the spread rule applies again
        near = wide[:-1] + [3.0 + 1e-12]
        assert not bench_pairs.compare(wide, near, "lower", 0.25)["resolved"]

    def test_rejects_unpaired_input(self):
        with pytest.raises(ValueError):
            bench_pairs.compare(PARENT, PARENT[:-1], "lower", 0.25)
        with pytest.raises(ValueError):
            bench_pairs.compare(PARENT, PARENT, "faster", 0.25)


class TestDigestSection:
    @staticmethod
    def write(path, episodes, plans):
        """A dump in episode_digest's layout: the same arrays for each episode
        but `plans`."""
        rng = np.random.default_rng(5)
        arrays = {"true_states": rng.normal(size=(2, 4, 6)),
                  "pred_keys": np.array([[0, 0, 1], [1, 1, 0]], dtype=np.int64),
                  "pred_values": rng.normal(size=(2, 48))}
        np.savez(path, **{f"{ep}.{field}": a for ep in episodes
                          for field, a in {"plans": plans, **arrays}.items()})

    def test_equal_moved_and_missing_episodes(self, tmp_path):
        plans = np.random.default_rng(6).normal(size=(2, 4, 48))
        parent, change = tmp_path / "parent.npz", tmp_path / "change.npz"
        episodes = ["desk-eg.1000", "desk-oracle.1000"]
        self.write(parent, episodes, plans)
        self.write(change, episodes, plans.copy())
        section = bench_pairs.digest_section(parent, change)
        assert section["bitwise_equal"]
        assert section["episodes"] == {
            ep: {"max_abs_diff": 0.0, "bitwise_equal": True} for ep in episodes}
        assert section["command"] == "python3 tests/episode_digest.py --out <file>.npz"

        moved = plans.copy()
        moved[0, 1, 2] += 1e-3
        self.write(change, episodes[:1], moved)
        section = bench_pairs.digest_section(parent, change)
        assert not section["bitwise_equal"]
        assert section["episodes"]["desk-eg.1000"]["bitwise_equal"] is False
        assert section["episodes"]["desk-eg.1000"]["max_abs_diff"] == pytest.approx(1e-3)
        assert section["episodes"]["desk-oracle.1000"] == {"max_abs_diff": None,
                                                           "bitwise_equal": False}
        report = bench_pairs.report({}, None, 45, {}, digest=section)
        assert report["digest"] is section


def test_machine_record_names_the_openblas_kernel(monkeypatch):
    def run_once(checkout, workload, seed, seconds):
        result = {"failed": 0, "attempted": 4, "correct": 4, "metrics": {}}
        return {"machine": {"nproc": 2, "cpu_model": checkout}}, result

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    pairs, results, machine = bench_pairs.run_pairs("parent", "change", "desk-eg", [1, 2],
                                                    45, log=io.StringIO())
    assert [p["first"] for p in pairs] == ["parent", "change"]
    assert len(results["parent"]) == len(results["change"]) == 2
    assert machine == {"nproc": 2, "cpu_model": "parent",
                       "openblas_core": episode_digest.openblas_core()}
