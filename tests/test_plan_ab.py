import numpy as np
import pytest

import plan_ab


class TestSummarize:
    def test_paired_ratios(self):
        parent = np.array([[2.0, 4.0, 1.0], [2.0, 5.0, 1.0]])
        change = np.array([[1.0, 4.0, 1.5], [1.8, 4.0, 0.5]])
        v = plan_ab.summarize(parent, change)
        # ratios per pair: 0.5, 1.0, 1.5, 0.9, 0.8, 0.5
        assert v["median_ratio"] == pytest.approx(0.85)
        assert v["ratio_quartiles"] == pytest.approx(np.percentile([0.5, 1.0, 1.5, 0.9, 0.8, 0.5],
                                                                   [25, 75]))
        assert v["pairs"] == 6
        assert v["change_wins"] == pytest.approx(4 / 6)   # the tie counts for neither side
        assert v["parent_median_us"] == pytest.approx(2e6)
        assert v["change_median_us"] == pytest.approx(1.65e6)

    def test_ratio_is_paired_not_of_medians(self):
        # one call twice as slow, the other twice as fast: the pairs read
        # 2.0 and 0.5, while the ratio of the two medians, 3.5 / 5.5, would
        # credit the change
        v = plan_ab.summarize([1.0, 10.0], [2.0, 5.0])
        assert v["median_ratio"] == pytest.approx(1.25)
        assert v["change_wins"] == 0.5

    @pytest.mark.parametrize("parent,change", [([1.0, 2.0], [1.0]), ([], []),
                                               ([1.0, 0.0], [1.0, 1.0])])
    def test_rejects_unpaired_or_empty_input(self, parent, change):
        with pytest.raises(ValueError):
            plan_ab.summarize(parent, change)
