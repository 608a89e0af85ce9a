"""Figure 7: miss rate (a) and I/O time (b) vs number of sampling positions.

Paper shape: more sampling positions → lower miss rate, but I/O time is
U-shaped — beyond ~26k positions the per-query lookup overhead outweighs
the miss-rate saving.

The second bench is our ablation of that upturn: it is an artifact of the
paper's linear table scan — replaying the largest table with this
library's actual KD-tree cost (log-time) erases the penalty.
"""

import numpy as np

from repro.camera.path import random_path
from repro.camera.sampling import SamplingConfig
from repro.runtime import OptimizerConfig
from repro.experiments.runner import ExperimentSetup
from repro.tables.visible_table import LookupCostModel


def test_fig7_sampling_position_sweep(run_figure, panel):
    cells = run_figure("fig7")
    # One line per dataset over the table sizes (n_directions axis).
    _, miss_series = panel(cells, "n_directions", "total_miss_rate", group_by="dataset")
    _, io_series = panel(cells, "n_directions", "io_time_s", group_by="dataset")

    for dataset, rates in miss_series.items():
        # (a) denser tables do not hurt the miss rate: the sparsest table
        # is the worst (or tied); beyond saturation the curve is flat
        # within vicinal-sampling noise.
        assert rates[-1] <= rates[0] + 1e-9, (dataset, rates)
        assert max(rates[1:]) <= rates[0] + 0.02, (dataset, rates)

    for dataset, times in io_series.items():
        # (b) the U-shape: the largest table costs clearly more than the
        # best (per-query lookup overhead outgrows the miss-rate saving,
        # Fig. 7b), and the sparsest table is never a clear winner (a
        # mid-size table matches it within 2%).
        assert times[-1] > min(times) * 1.05, (dataset, times)
        assert min(times[1:-1]) <= times[0] * 1.02, (dataset, times)


def test_fig7_upturn_is_a_scan_artifact(run_once, full_scale):
    """Same workload, same large table — linear-scan vs KD-tree lookup cost.

    The per-step demand I/O is identical; only the charged query time
    differs.  With the log-cost model the large table's I/O-time penalty
    collapses to (near) nothing, confirming the Fig. 7b upturn is the
    lookup implementation, not the method.
    """
    n_dirs = 4096 if full_scale else 2048
    setup = ExperimentSetup.for_dataset(
        "3d_ball",
        target_n_blocks=512,
        sampling=SamplingConfig(n_directions=n_dirs, n_distances=2,
                                distance_range=(2.2, 2.8)),
        seed=0,
    )
    path = random_path(
        n_positions=200 if full_scale else 60,
        degree_change=(10.0, 15.0), distance=2.5,
        view_angle_deg=setup.view_angle_deg, seed=0,
    )
    context = setup.context(path)

    def sweep():
        out = {}
        for kind in ("linear", "log"):
            cfg = OptimizerConfig(lookup_cost=LookupCostModel(kind=kind))
            result = setup.optimizer(cfg).run(context, setup.hierarchy("lru"))
            out[kind] = result
        return out

    results = run_once(sweep)
    linear, log = results["linear"], results["log"]

    print()
    print(f"table entries: {setup.visible_table.n_entries}")
    print(f"linear scan : io={linear.io_time_s:.3f}s (lookup {linear.lookup_time_s:.3f}s)")
    print(f"kd-tree     : io={log.io_time_s:.3f}s (lookup {log.lookup_time_s:.3f}s)")

    # Identical demand behaviour...
    assert linear.total_miss_rate == log.total_miss_rate
    assert linear.demand_io_time_s == log.demand_io_time_s
    # ...but the scan's lookup time dominates the tree's by orders of magnitude.
    assert linear.lookup_time_s > 50 * log.lookup_time_s
