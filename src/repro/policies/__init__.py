"""Cache replacement policies.

``FIFO`` and ``LRU`` are the paper's baselines (§V).  ``ARC`` (Megiddo &
Modha, cited in §II) and offline ``Belady-OPT`` (Belady 1966, cited in §II)
are included as a stronger online baseline and an optimality bound for the
ablation benches.  The application-aware policy itself lives in
:mod:`repro.core` — it composes camera prediction and importance with the
constrained-LRU eviction these classes provide.
"""

from repro.policies.base import ReplacementPolicy, EvictablePredicate
from repro.policies.fifo import FIFOPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.arc import ARCPolicy
from repro.policies.belady import BeladyPolicy
from repro.policies.registry import make_policy, POLICY_NAMES

__all__ = [
    "ReplacementPolicy",
    "EvictablePredicate",
    "FIFOPolicy",
    "LRUPolicy",
    "ARCPolicy",
    "BeladyPolicy",
    "make_policy",
    "POLICY_NAMES",
]
