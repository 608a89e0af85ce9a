"""Experiment harness: one entry point per paper table/figure.

``repro.experiments.figures`` defines each experiment (workload,
parameters, series) at two scales — ``full=False`` laptop-bench defaults
and ``full=True`` paper-scale sweeps; ``repro.experiments.runner`` holds
the shared setup/replay machinery; ``repro.experiments.report`` renders
the same rows/series the paper reports.

Run from the command line::

    python -m repro.experiments --figure fig12
"""

from repro.experiments.gating import (
    GateRule,
    compare_metric_sets,
    compare_snapshots,
    flatten_run_summary,
)
from repro.experiments.loadgen import (
    LoadGenConfig,
    make_session_specs,
    run_load,
)
from repro.experiments.matrix import (
    MatrixSpec,
    bundled_spec_names,
    expand_cells,
    load_spec,
    run_matrix,
)
from repro.experiments.runner import (
    ExperimentSetup,
    fresh_hierarchy,
    belady_hierarchy,
    compare_policies,
)
from repro.experiments.report import format_table, format_series
from repro.experiments.sweep import parameter_sweep, SweepResult
from repro.experiments import extensions, figures

__all__ = [
    "ExperimentSetup",
    "fresh_hierarchy",
    "belady_hierarchy",
    "compare_policies",
    "GateRule",
    "compare_metric_sets",
    "compare_snapshots",
    "flatten_run_summary",
    "LoadGenConfig",
    "make_session_specs",
    "run_load",
    "MatrixSpec",
    "bundled_spec_names",
    "expand_cells",
    "load_spec",
    "run_matrix",
    "format_table",
    "format_series",
    "parameter_sweep",
    "SweepResult",
    "figures",
    "extensions",
]
