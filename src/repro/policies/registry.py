"""Name-based policy construction for experiment configs and the CLI."""

from __future__ import annotations

from typing import Callable, Dict

from repro.policies.arc import ARCPolicy
from repro.policies.base import ReplacementPolicy
from repro.policies.fifo import FIFOPolicy
from repro.policies.lru import LRUPolicy

__all__ = ["make_policy", "POLICY_NAMES", "register_policy"]

_FACTORIES: Dict[str, Callable[[], ReplacementPolicy]] = {
    "fifo": FIFOPolicy,
    "lru": LRUPolicy,
    "arc": ARCPolicy,
    # "belady" is intentionally absent: it needs a trace argument, see
    # repro.policies.belady.BeladyPolicy.
}

POLICY_NAMES = tuple(sorted(_FACTORIES))


def register_policy(name: str, factory: Callable[[], ReplacementPolicy]) -> None:
    """Register a custom policy factory under ``name``, case-insensitively
    (a name already registered in any case is rejected)."""
    key = name.lower()
    if key in _FACTORIES:
        raise ValueError(f"policy {name!r} already registered")
    _FACTORIES[key] = factory


def make_policy(name: str) -> ReplacementPolicy:
    """A fresh policy instance by name (``'lru'``, ``'fifo'``, ``'arc'``, ...)."""
    try:
        factory = _FACTORIES[name.lower()]
    except KeyError:
        raise KeyError(f"unknown policy {name!r}; known: {sorted(_FACTORIES)}") from None
    return factory()
