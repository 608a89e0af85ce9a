"""Ablations beyond the paper: component knock-outs and stronger baselines.

Design claims exercised (DESIGN.md §4/§5):
- prefetch is the dominant miss-rate lever of Algorithm 1;
- the method also beats ARC (adaptive) — the gains are not an artefact of
  weak baselines;
- offline Belady bounds every demand-only policy but NOT the prefetching
  method (prediction can beat optimal replacement).
"""

from repro.experiments.report import format_series


def test_ablation_matrix(run_figure):
    cells = run_figure("ablations")
    # Cells key as the variants: fifo, ..., opt, opt(no-prefetch), ...
    miss = {cell["key"]: cell["summary"]["total_miss_rate"] for cell in cells}
    time = {cell["key"]: cell["summary"]["total_time_s"] for cell in cells}
    print()
    print(format_series("variant", list(miss),
                        {"miss_rate": list(miss.values()), "total_time_s": list(time.values())}))

    # Full method beats every conventional baseline on miss rate and time.
    for base in ("fifo", "lru", "arc"):
        assert miss["opt"] < miss[base], base
        assert time["opt"] < time[base], base

    # Belady bounds the demand-only baselines at the DRAM level by
    # construction; at the total-miss-rate level it must still beat LRU.
    assert miss["belady"] <= miss["lru"] + 1e-9

    # Every component earns its keep: knocking out either the prefetch or
    # the importance preload raises the miss rate.
    assert miss["opt(no-prefetch)"] > miss["opt"]
    assert miss["opt(no-preload)"] > miss["opt"]

    # Removing the importance filter must not help the miss rate by much
    # (it exists to bound prefetch volume, not to reduce misses).
    assert miss["opt(no-filter)"] <= miss["opt"] + 0.05

    # The adaptive-sigma controller stays in the full method's ballpark
    # without hand-tuning the threshold.
    assert miss["opt(adaptive-sigma)"] <= miss["opt(no-prefetch)"]
