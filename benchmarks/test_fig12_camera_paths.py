"""Figure 12: miss rate across spherical (a) and random (b) camera paths.

Paper shape (§V-C): on the 2048-block 3d_ball, OPT's miss rate is roughly
a quarter of FIFO/LRU at 1 degree/step and stays below half of FIFO
generally; miss rate grows with the per-step direction change.
"""

import numpy as np


def test_fig12_camera_path_sweep(run_figure, panel):
    cells = run_figure("fig12")
    spherical = panel(cells, "degrees", "total_miss_rate", workload="spherical")[1]
    rnd = panel(cells, "degrees", "total_miss_rate", workload="random")[1]

    for name, series in (("fig12a", spherical), ("fig12b", rnd)):
        fifo = np.asarray(series["fifo"])
        lru = np.asarray(series["lru"])
        opt = np.asarray(series["opt"])
        # OPT wins everywhere.
        assert np.all(opt < lru), name
        assert np.all(opt < fifo), name
        # Miss rate grows with the direction change for every method.
        for values in (fifo, lru, opt):
            assert values[-1] > values[0], name

    # At the smallest direction change OPT is a small fraction of the
    # baselines (paper: one quarter; assert at most 60% to be robust
    # across scales).
    assert spherical["opt"][0] < 0.6 * spherical["lru"][0]
    assert rnd["opt"][0] < 0.6 * rnd["lru"][0]
