"""Figure 13: total time (I/O + max(prefetch, render)) across cache ratios.

Paper shape: OPT achieves the lowest total time at small direction changes
at cache ratio 0.5, and a larger cache (ratio 0.7) extends/deepens OPT's
advantage (the paper reports 8.6%/19.7% savings over LRU/FIFO at 0.7 vs
12%/25% only below 10 degrees at 0.5).
"""

import numpy as np


def test_fig13_total_time_sweep(run_figure, panel):
    cells = run_figure("fig13")
    panels = {
        ratio: panel(cells, "degrees", "total_time_s", cache_ratio=ratio)[1]
        for ratio in (0.5, 0.7)
    }

    ratio05, ratio07 = panels[0.5], panels[0.7]
    for ratio, series in panels.items():
        fifo = np.asarray(series["fifo"])
        lru = np.asarray(series["lru"])
        opt = np.asarray(series["opt"])
        # At the smallest direction change OPT clearly wins.
        assert opt[0] < lru[0], ratio
        assert opt[0] < fifo[0], ratio
        # Total time grows with direction change for every method.
        for values in (fifo, lru, opt):
            assert values[-1] > values[0], ratio
        # LRU never loses to FIFO by much on these paths.
        assert np.all(lru <= fifo * 1.05), ratio

    # The bigger cache helps OPT more than it helps the baselines: the
    # relative OPT saving at the largest direction change grows with the
    # cache ratio (the mechanism behind the paper's ratio-0.7 experiment).
    def saving(series):
        return 1.0 - series["opt"][-1] / series["lru"][-1]

    assert saving(ratio07) > saving(ratio05) - 1e-9
