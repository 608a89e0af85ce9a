"""The cross-cutting service bundle every replay shares.

Before the runtime existed, each driver threaded five keyword arguments
(``tracer``, ``registry``, ``profiler``, plus an externally-installed fault
injector and ad-hoc seeds) through its own copy of the loop.
:class:`RunContext` owns them in one typed object:

- ``tracer`` — the event tracer (:class:`repro.trace.Tracer`);
- ``registry`` — the metrics registry (:class:`repro.obs.MetricsRegistry`);
- ``profiler`` — the wall/sim phase profiler (:class:`repro.obs.PhaseProfiler`);
- ``fault_injector`` — seeded storage-fault injector, or ``None``;
- ``rng`` — a deterministic :class:`numpy.random.Generator` for stages
  that need randomness.

``None`` for tracer/registry means *adopt whatever the hierarchy already
has* (the null objects by default), exactly matching the legacy drivers'
keyword semantics.  :meth:`RunContext.bind` installs the non-``None``
services on a hierarchy and resolves the rest, after which every field is
live (never ``None`` except ``fault_injector``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.obs.profiler import resolve_profiler
from repro.utils.rng import SeedLike, resolve_rng

__all__ = ["RunContext"]


@dataclass
class RunContext:
    """Cross-cutting observability/fault/determinism services of one run."""

    tracer: Any = None
    registry: Any = None
    profiler: Any = None
    fault_injector: Any = None
    rng: Any = None
    seed: SeedLike = 0
    session_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = resolve_rng(self.seed)
        self._fork_count = 0

    @classmethod
    def create(
        cls,
        tracer: Any = None,
        registry: Any = None,
        profiler: Any = None,
        faults: str = "none",
        fault_seed: int = 0,
        seed: SeedLike = 0,
    ) -> "RunContext":
        """Build a context, resolving a named fault profile into an injector.

        ``faults`` is a profile name from
        :data:`repro.faults.FAULT_PROFILES`; anything but ``"none"``
        constructs a fresh seeded :class:`~repro.faults.FaultInjector`.
        """
        injector = None
        if faults != "none":
            from repro.faults import FaultInjector, FaultPlan

            injector = FaultInjector(FaultPlan.from_profile(faults, seed=fault_seed))
        return cls(
            tracer=tracer,
            registry=registry,
            profiler=profiler,
            fault_injector=injector,
            seed=seed,
        )

    def bind(self, hierarchy) -> "RunContext":
        """Install the services on ``hierarchy`` and resolve null objects.

        Mirrors the legacy keyword-argument semantics exactly: a ``None``
        tracer/registry adopts the hierarchy's current one; a non-``None``
        one is installed first.  A non-``None`` ``fault_injector`` is
        installed; ``None`` leaves whatever the caller installed untouched.
        Returns ``self`` for chaining.
        """
        if self.fault_injector is not None:
            hierarchy.set_fault_injector(self.fault_injector)
        if self.tracer is not None:
            hierarchy.set_tracer(self.tracer)
        self.tracer = hierarchy.tracer
        if self.registry is not None:
            hierarchy.set_registry(self.registry)
        self.registry = hierarchy.registry
        self.profiler = resolve_profiler(self.profiler)
        return self

    def fork(self, session_id: Optional[str] = None) -> "RunContext":
        """A child context with *fresh* per-run service instances.

        Reusing one ``ctx=`` across two consecutive driver runs accumulates
        trace events and metrics samples and advances the shared ``rng``,
        silently corrupting the second run's snapshot.  ``fork`` is the
        supported way to share a configuration across runs: each enabled
        service is replaced by a fresh instance of the same shape (a new
        ``Tracer`` of the parent's capacity, a new ``MetricsRegistry``, a
        new ``PhaseProfiler``, a new ``FaultInjector`` over the same seeded
        plan), null services pass through shared, and the child ``rng`` is
        derived deterministically from the parent seed and a per-parent
        fork counter — so fork #k of a given parent is reproducible without
        matching the parent's stream.
        """
        import numpy as np

        tracer = self.tracer
        if tracer is not None and getattr(tracer, "enabled", False):
            from repro.trace.tracer import Tracer

            tracer = Tracer(capacity=tracer.capacity)
        registry = self.registry
        if registry is not None and getattr(registry, "enabled", False):
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        profiler = self.profiler
        if profiler is not None and getattr(profiler, "enabled", False):
            from repro.obs.profiler import PhaseProfiler

            profiler = PhaseProfiler(
                tracer=tracer, keep_timeline=getattr(profiler, "keep_timeline", False)
            )
        injector = self.fault_injector
        if injector is not None:
            from repro.faults import FaultInjector

            injector = FaultInjector(injector.plan)
        self._fork_count += 1
        if isinstance(self.seed, (int, np.integer)):
            entropy = [int(self.seed) & (2**63 - 1), self._fork_count]
        else:  # non-int seeds fork off the counter alone, still deterministic
            entropy = [self._fork_count]
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        return RunContext(
            tracer=tracer,
            registry=registry,
            profiler=profiler,
            fault_injector=injector,
            rng=rng,
            seed=self.seed,
            session_id=session_id,
        )

    @property
    def bound(self) -> bool:
        """True once :meth:`bind` resolved the services against a hierarchy."""
        return self.tracer is not None and self.registry is not None

    def span(self, name: str):
        """Shorthand for ``ctx.profiler.span(name)`` (profiler may be unbound)."""
        return resolve_profiler(self.profiler).span(name)
