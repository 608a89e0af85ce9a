"""Experiment harness.

Every paper figure is a bundled matrix spec (``specs/fig7.toml`` …
``fig13.toml`` and ``ablations.toml``, each with a ``-quick`` twin) that
:mod:`repro.experiments.matrix` runs into one gated ``MATRIX_<label>.json``
document; ``repro.experiments.runner`` holds the shared setup/replay
machinery; ``repro.experiments.extensions`` holds the experiments beyond
the paper.

Run from the command line::

    python -m repro matrix run fig13-quick
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
from repro.experiments import extensions

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
    "extensions",
]
