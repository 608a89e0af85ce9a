"""The preprocessing lookup tables (Steps 1–2 of the paper's method).

``T_visible`` maps a sampled camera position key ``<l, d>`` to its
predicted visible block set ``S_v``; ``T_important`` ranks blocks by
importance.  Both are built once by :mod:`repro.tables.builder` and used
at run time by :class:`repro.runtime.AppAwareOptimizer`.
"""

from repro.tables.importance_table import ImportanceTable
from repro.tables.visible_table import VisibleTable, LookupCostModel
from repro.tables.builder import build_visible_table, build_importance_table, build_tables

__all__ = [
    "ImportanceTable",
    "VisibleTable",
    "LookupCostModel",
    "build_visible_table",
    "build_importance_table",
    "build_tables",
]
