"""Typed, validated run configuration for the unified replay runtime.

:class:`RunConfig` is the single description of "one replay comparison":
which dataset/workload to replay, which policies to compare, and what
faults to inject.  It is

- **frozen** — a config never mutates after construction;
- **schema-validated** — every field is checked against
  :data:`RUN_CONFIG_SCHEMA` in ``__post_init__`` (unknown names, invalid
  ranges, and conflicting fault settings all raise ``ValueError``);
- **round-trippable** — ``RunConfig.from_dict(cfg.to_dict()) == cfg``, and
  :meth:`RunConfig.from_cli` maps every ``repro replay`` / ``repro bench``
  flag onto a field (flags that configure *reporting* rather than the run
  itself are enumerated in :data:`CLI_ONLY_FLAGS`, and the test suite
  asserts no flag falls through the cracks).

:class:`OptimizerConfig` (the Algorithm 1 tunables) also lives here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from repro.faults.plan import FAULT_PROFILES, FaultPlan
from repro.policies.registry import POLICY_NAMES
from repro.tables.visible_table import LookupCostModel
from repro.utils.validation import check_probability, is_finite_number

__all__ = [
    "RunConfig",
    "OptimizerConfig",
    "RUN_CONFIG_SCHEMA",
    "CLI_FIELD_MAP",
    "CLI_ONLY_FLAGS",
    "check_fault_devices",
]

#: Workload (camera path) generators the runtime knows how to build — the
#: scenario zoo.  The registry in ``repro.runtime.registries`` documents
#: each name; ``recorded`` additionally requires ``trace_file``.
WORKLOAD_NAMES = (
    "random",
    "spherical",
    "zoom",
    "flythrough",
    "random-walk",
    "recorded",
    "multi-focus",
    "temporal-sweep",
)

def _check_choice(field: str, value: Any, choices) -> None:
    if value not in choices:
        raise ValueError(f"{field} must be one of {tuple(choices)}, got {value!r}")


def _check_policy(field: str, value: Any, cfg: "RunConfig") -> None:
    # ``app-aware`` is not a cache-level policy but the paper's optimizer
    # driving an LRU hierarchy, and ``belady`` is the offline bound over
    # the cell's demand trace; matrix specs address both through the same
    # ``policy`` axis as the conventional baselines.
    _check_choice(field, value, tuple(POLICY_NAMES) + ("app-aware", "belady"))
    if value == "belady" and cfg.shards != 1:
        raise ValueError(
            f"{field}='belady' is single-box only (the offline bound has no "
            f"sharded counterpart), got shards={cfg.shards!r}"
        )


def _check_policies(field: str, value: Any, _cfg: "RunConfig") -> None:
    if not isinstance(value, tuple):
        raise ValueError(f"{field} must be a tuple of policy names, got {value!r}")
    for name in value:
        _check_choice(field, name, POLICY_NAMES)


def _check_workload(field: str, value: Any, _cfg: "RunConfig") -> None:
    _check_choice(field, value, WORKLOAD_NAMES)


def _check_shard_map(field: str, value: Any, _cfg: "RunConfig") -> None:
    # Lazy: repro.cluster sits above the runtime layer (it imports the
    # prefetch package, which imports the drivers, which import this
    # module), so a top-level import here would be circular.
    from repro.cluster.shardmap import SHARD_STRATEGIES

    _check_choice(field, value, SHARD_STRATEGIES)


def _check_faults(field: str, value: Any, cfg: "RunConfig") -> None:
    # Lazy for the same layering reason as ``_check_shard_map``.
    from repro.cluster.faults import CLUSTER_FAULT_PROFILES

    cluster_only = tuple(p for p in CLUSTER_FAULT_PROFILES if p not in FAULT_PROFILES)
    _check_choice(field, value, tuple(FAULT_PROFILES) + cluster_only)
    if value in cluster_only and cfg.shards < 2:
        raise ValueError(
            f"{field}={value!r} is a cluster fault profile; it requires shards > 1"
        )
    check_fault_devices(value, cfg.shards, field)


def check_fault_devices(faults: str, shards: Any, field: str = "faults") -> None:
    """Reject a single-box fault profile whose devices a sharded run lacks.

    A sharded hierarchy (``shards > 1``) names its node devices
    ``n{k}.dram``/``n{k}.ssd``, so a single-box profile's entry for
    anything but the shared ``hdd`` would never fire: the run would look
    fault-free.  Shared by :class:`RunConfig` and
    :func:`repro.experiments.runner.compare_policies`.
    """
    if faults in FAULT_PROFILES and isinstance(shards, int) and shards > 1:
        devices = sorted(
            {p.device for p in FaultPlan.from_profile(faults).profiles} - {"hdd"}
        )
        if devices:
            raise ValueError(
                f"{field}={faults!r} targets the single-box device(s) {devices}, "
                f"which do not exist at shards > 1 (nodes name theirs "
                f"n{{k}}.<device>); use 'node-chaos' for per-node faults"
            )


def _check_trace_file(field: str, value: Any, cfg: "RunConfig") -> None:
    if value is not None and not isinstance(value, str):
        raise ValueError(f"{field} must be a path string (or None), got {value!r}")
    if cfg.workload == "recorded" and value is None:
        raise ValueError(
            f"{field} is required for workload='recorded' "
            f"(a camera-trace JSONL written by `repro replay --record`)"
        )


def _check_fault_seed(field: str, value: Any, cfg: "RunConfig") -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{field} must be an int, got {value!r}")
    if value != 0 and cfg.faults == "none":
        raise ValueError(
            f"{field}={value} conflicts with faults='none': a fault seed only "
            f"selects draws of an injected profile — pass faults=<profile> "
            f"(one of {tuple(n for n in FAULT_PROFILES if n != 'none')}) or drop the seed"
        )


def _check_positive_int(field: str, value: Any, _cfg: "RunConfig") -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{field} must be an int >= 1, got {value!r}")


def _check_int(field: str, value: Any, _cfg: "RunConfig") -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{field} must be an int, got {value!r}")


def _check_unit_interval(field: str, value: Any, _cfg: "RunConfig") -> None:
    if not isinstance(value, (int, float)) or not 0.0 < float(value) <= 1.0:
        raise ValueError(f"{field} must be in (0, 1], got {value!r}")


def _check_optional_positive(field: str, value: Any, _cfg: "RunConfig") -> None:
    if value is None:
        return
    if not is_finite_number(value) or float(value) <= 0.0:
        raise ValueError(f"{field} must be positive and finite (or None), got {value!r}")


def _check_pair(field: str, value: Any, positive: bool = False) -> None:
    """A finite ``(lo, hi)`` pair with ``0 <= lo <= hi`` (``0 < lo`` when
    ``positive``)."""
    if (
        not isinstance(value, tuple)
        or len(value) != 2
        or not all(is_finite_number(v) for v in value)
    ):
        raise ValueError(f"{field} must be a finite (lo, hi) pair, got {value!r}")
    lo, hi = (float(v) for v in value)
    if not (0.0 < lo if positive else 0.0 <= lo) or lo > hi:
        bound = "<" if positive else "<="
        raise ValueError(f"{field} must satisfy 0 {bound} lo <= hi, got {value!r}")


def _check_degrees(field: str, value: Any, _cfg: "RunConfig") -> None:
    _check_pair(field, value)


def _check_distance(field: str, value: Any, cfg: "RunConfig") -> None:
    # A (lo, hi) pair draws each position's distance uniformly from the
    # range (a zooming user, Figs. 11 and 12b); only the random walk
    # takes one.
    if isinstance(value, tuple):
        if cfg.workload != "random":
            raise ValueError(
                f"{field} takes a (lo, hi) pair only with workload='random', "
                f"got workload={cfg.workload!r}"
            )
        _check_pair(field, value, positive=True)
        return
    if not is_finite_number(value) or float(value) <= 0.0:
        raise ValueError(f"{field} must be positive and finite, got {value!r}")


def _check_bool(field: str, value: Any, _cfg: "RunConfig") -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{field} must be a bool, got {value!r}")


def _check_dataset(field: str, value: Any, _cfg: "RunConfig") -> None:
    from repro.volume.datasets import DATASETS

    _check_choice(field, value, sorted(DATASETS))


#: field name -> (validator, help).  The single source of truth for what a
#: RunConfig may contain; ``from_dict`` rejects anything outside it.
RUN_CONFIG_SCHEMA: Dict[str, Tuple[Callable[[str, Any, "RunConfig"], None], str]] = {
    "dataset": (_check_dataset, "Table I dataset analogue to replay"),
    "blocks": (_check_positive_int, "target block count for the grid"),
    "scale": (_check_optional_positive, "per-axis shrink of the paper resolution"),
    "seed": (_check_int, "seed for dataset synthesis and the camera path"),
    "workload": (
        _check_workload,
        "camera-path generator (random/spherical/zoom/flythrough)",
    ),
    "steps": (_check_positive_int, "view points on the camera path"),
    "degrees": (_check_degrees, "per-step direction change range (lo, hi)"),
    "distance": (
        _check_distance,
        "camera distance from the volume center ((lo, hi) for workload='random')",
    ),
    "cache_ratio": (_check_unit_interval, "cache size as a fraction of the data"),
    "policy": (_check_policy, "replacement policy of the primary run"),
    "policies": (_check_policies, "baseline policies for a comparison replay"),
    "belady": (_check_bool, "include the offline Belady bound"),
    "app_aware": (_check_bool, "include the paper's app-aware optimizer"),
    "faults": (_check_faults, "named fault profile injected into the storage stack"),
    "fault_seed": (_check_fault_seed, "seed of the deterministic fault draws"),
    "shards": (_check_positive_int, "number of simulated cluster nodes (1 = single box)"),
    "shard_map": (_check_shard_map, "block-ownership strategy for sharded runs"),
    "sessions": (_check_positive_int, "concurrent tenant sessions (serve-runner cells)"),
    "trace_file": (_check_trace_file, "camera-trace JSONL for workload='recorded'"),
}


@dataclass(frozen=True)
class RunConfig:
    """Frozen, validated description of one replay run (or comparison).

    Build one directly, from a plain dict (:meth:`from_dict`), or from
    parsed CLI arguments (:meth:`from_cli`); all three construction paths
    run the same :data:`RUN_CONFIG_SCHEMA` validation.
    """

    dataset: str = "3d_ball"
    blocks: int = 512
    scale: Optional[float] = None
    seed: int = 0
    workload: str = "random"
    steps: int = 120
    degrees: Tuple[float, float] = (5.0, 10.0)
    distance: Union[float, Tuple[float, float]] = 2.5
    cache_ratio: float = 0.5
    policy: str = "lru"
    policies: Tuple[str, ...] = ("fifo", "lru")
    belady: bool = False
    app_aware: bool = True
    faults: str = "none"
    fault_seed: int = 0
    shards: int = 1
    shard_map: str = "slab"
    sessions: int = 1
    trace_file: Optional[str] = None

    def __post_init__(self) -> None:
        # Collect every invalid field before raising: hand-written matrix
        # specs make config typos the common failure mode, and fixing them
        # one error message at a time is miserable.
        errors = []
        for name, (validator, _help) in RUN_CONFIG_SCHEMA.items():
            try:
                validator(name, getattr(self, name), self)
            except ValueError as exc:
                errors.append(str(exc))
        if len(errors) == 1:
            raise ValueError(errors[0])
        if errors:
            raise ValueError(
                f"{len(errors)} invalid RunConfig fields: " + "; ".join(errors)
            )

    # -- round-trip -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serialisable view (tuples become lists)."""
        out: Dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RunConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys.

        All problems — unknown keys *and* invalid values of the known
        ones — are reported together in one ``ValueError``.
        """
        unknown = sorted(set(d) - set(RUN_CONFIG_SCHEMA))
        problems = []
        if unknown:
            problems.append(
                f"unknown RunConfig field(s) {unknown}; known: {sorted(RUN_CONFIG_SCHEMA)}"
            )
        kwargs: Dict[str, Any] = {k: v for k, v in d.items() if k in RUN_CONFIG_SCHEMA}
        for name in ("degrees", "distance"):
            if isinstance(kwargs.get(name), (list, tuple)):
                kwargs[name] = tuple(
                    float(v) if isinstance(v, int) and not isinstance(v, bool) else v
                    for v in kwargs[name]
                )
        if "policies" in kwargs and isinstance(kwargs["policies"], (list, tuple)):
            kwargs["policies"] = tuple(str(v) for v in kwargs["policies"])
        try:
            config = cls(**kwargs)
        except ValueError as exc:
            problems.append(str(exc))
            config = None
        if problems:
            raise ValueError("; ".join(problems))
        assert config is not None
        return config

    # -- CLI ------------------------------------------------------------------

    @classmethod
    def from_cli(cls, args: Any, command: str = "replay") -> "RunConfig":
        """Build a config from a parsed ``repro replay``/``repro bench``
        argparse namespace.

        Every run-shaping flag of those subcommands maps onto a field via
        :data:`CLI_FIELD_MAP`; reporting/execution flags (snapshot label,
        worker count, profile path, ...) are enumerated in
        :data:`CLI_ONLY_FLAGS` and ignored here.  The test suite walks the
        real parsers and asserts the two sets cover every flag.
        """
        if command not in ("replay", "bench"):
            raise ValueError(f"command must be 'replay' or 'bench', got {command!r}")
        kwargs: Dict[str, Any] = {}
        for dest, field in CLI_FIELD_MAP.items():
            if not hasattr(args, dest):
                continue
            value = getattr(args, dest)
            if dest == "no_app_aware":
                kwargs[field] = not value
            elif dest == "policies":
                kwargs[field] = tuple(value)
            elif dest == "degrees":
                kwargs[field] = tuple(float(v) for v in value)
            elif dest == "scale" and value is not None:
                kwargs[field] = float(value)
            elif dest == "trace_file" and value is not None:
                kwargs[field] = str(value)
            else:
                kwargs[field] = value
        return cls(**kwargs)


#: argparse ``dest`` -> RunConfig field, for every run-shaping CLI flag.
CLI_FIELD_MAP: Dict[str, str] = {
    "dataset": "dataset",
    "blocks": "blocks",
    "scale": "scale",
    "seed": "seed",
    "path_type": "workload",
    "steps": "steps",
    "degrees": "degrees",
    "distance": "distance",
    "cache_ratio": "cache_ratio",
    "policies": "policies",
    "belady": "belady",
    "no_app_aware": "app_aware",
    "faults": "faults",
    "fault_seed": "fault_seed",
    "shards": "shards",
    "shard_map": "shard_map",
    "trace_file": "trace_file",
}

#: argparse ``dest`` names that deliberately do NOT map onto RunConfig —
#: they configure reporting or suite execution, not the simulated run.
#: dest -> reason.  ``tests/runtime/test_config.py`` asserts every replay/
#: bench flag is covered by CLI_FIELD_MAP or this table (no orphans).
CLI_ONLY_FLAGS: Dict[str, str] = {
    "command": "subcommand dispatch, not a run parameter",
    "tier": "bench tier selection (which bundled spec runs)",
    "quick": "suite sizing of `repro bench` (same shape, less work)",
    "label": "snapshot file naming (MATRIX_<label>.json)",
    "out": "output directory/file selection",
    "workers": "process parallelism over a tier's cells",
    "profile": "extra Chrome-trace artifact emission",
    "record": "camera-trace JSONL output path (records the path, doesn't shape it)",
}


@dataclass(frozen=True)
class OptimizerConfig:
    """Tunables of Algorithm 1.

    Parameters
    ----------
    sigma:
        Absolute importance threshold σ.  When ``None`` it is derived from
        ``sigma_percentile`` of the importance distribution.
    sigma_percentile:
        Fraction of blocks considered unimportant (default 0.5: the lower
        half of the entropy distribution is neither preloaded nor
        prefetched).
    preload:
        Run the importance preload (Alg. 1 line 7).  Ablation knob.
    prefetch:
        Run the overlapped prefetch (lines 20-22).  Ablation knob.
    use_importance_filter:
        Filter prefetch candidates by σ (line 22).  With ``False`` every
        predicted block is prefetched — the over-prediction failure mode
        §IV-C warns about.  Ablation knob.
    max_prefetch_per_step:
        Hard cap on prefetch fetches per step (None = fastest-level
        capacity).
    lookup_cost:
        Simulated ``T_visible`` query-cost model (drives Fig. 7b).
    adaptive_sigma:
        Tune σ online (extension): when a step's prefetch time overruns
        its render time, raise the threshold (prefetch less next step);
        when prefetch uses less than half the render budget, lower it.
        The paper fixes σ; this controller keeps the prefetch stream
        filling — but not overrunning — the overlap window as view speed
        changes.  Requires percentile mode (``sigma=None``).
    sigma_step:
        Percentile increment per adjustment of the adaptive controller.
    sigma_bounds:
        Percentile clamp range for the adaptive controller.
    """

    sigma: Optional[float] = None
    sigma_percentile: float = 0.5
    preload: bool = True
    prefetch: bool = True
    use_importance_filter: bool = True
    max_prefetch_per_step: Optional[int] = None
    lookup_cost: LookupCostModel = dataclasses.field(default_factory=LookupCostModel)
    adaptive_sigma: bool = False
    sigma_step: float = 0.05
    sigma_bounds: Tuple[float, float] = (0.05, 0.95)

    def __post_init__(self) -> None:
        check_probability("sigma_percentile", self.sigma_percentile)
        if self.max_prefetch_per_step is not None and self.max_prefetch_per_step < 0:
            raise ValueError(
                f"max_prefetch_per_step must be >= 0, got {self.max_prefetch_per_step}"
            )
        if self.adaptive_sigma:
            if self.sigma is not None:
                raise ValueError("adaptive_sigma requires percentile mode (sigma=None)")
            lo, hi = self.sigma_bounds
            check_probability("sigma_bounds[0]", lo)
            check_probability("sigma_bounds[1]", hi)
            if not lo < hi:
                raise ValueError(f"sigma_bounds must satisfy lo < hi, got {self.sigma_bounds}")
            if not 0.0 < self.sigma_step <= 0.5:
                raise ValueError(f"sigma_step must be in (0, 0.5], got {self.sigma_step}")

    def resolve_sigma(self, importance) -> float:
        if self.sigma is not None:
            return float(self.sigma)
        return importance.threshold_for_percentile(self.sigma_percentile)
