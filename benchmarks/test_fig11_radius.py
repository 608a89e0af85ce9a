"""Figure 11: Eq. 6 optimal vicinal radius vs the paper's fixed radii.

Paper shape: with a zooming user (dynamically changing d), the dynamic
Eq. 6 radius achieves the lowest total I/O + prefetch time among
{optimal, 0.1, 0.075, 0.05, 0.025}.
"""

from repro.experiments.report import format_series


def test_fig11_radius_comparison(run_figure):
    cells = run_figure("fig11")
    labels = [cell["key"] for cell in cells]
    times = [cell["summary"]["io_time_s"] + cell["summary"]["prefetch_time_s"]
             for cell in cells]
    misses = [cell["summary"]["total_miss_rate"] for cell in cells]
    print()
    print(format_series("radius", labels,
                        {"io_plus_prefetch_s": times, "miss_rate": misses}))

    assert labels[0] == "optimal (Eq.6)"
    optimal_time = times[0]
    # The Eq. 6 radius is the cheapest of the paper's comparison set
    # (allow 2% numerical slack at quick scale).
    for label, t in zip(labels[1:], times[1:]):
        assert optimal_time <= t * 1.02, (label, optimal_time, t)
    # And it achieves the best miss rate of the set too.
    assert misses[0] <= min(misses[1:]) + 1e-9
