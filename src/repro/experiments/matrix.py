"""The declarative experiment-matrix runtime (``repro matrix``).

One TOML/JSON spec describes a whole study: a cartesian grid of axes over
:class:`~repro.runtime.config.RunConfig` fields (dataset/scale × workload
× policy × fault profile × shards × sessions × ...), optional
constraints that prune cells, repeats with derived per-repeat seeds, and
which figures/report sections to render.  ``run_matrix`` expands the spec
into validated ``RunConfig`` cells, executes them (serially or over
``--workers`` processes), and emits one schema-versioned
``MATRIX_<label>.json`` snapshot; ``repro matrix report`` renders it into
a self-contained HTML report (see :mod:`repro.experiments.matrix_report`).

The spec format, by section (TOML table names; the JSON form mirrors it):

``[matrix]``
    ``label`` (required), ``runner`` (``replay``/``bench-cell``/``serve``),
    ``repeats``, ``seed``, ``key_prefix``, ``key_joiner``.
``[base]``
    ``RunConfig`` field defaults shared by every cell.
``[axes]``
    ``RunConfig`` field → list of values; cells are the cartesian product
    in declaration order (first axis varies slowest).
``[setup]``
    Non-``RunConfig`` extras the cell runners read: sampling shape
    ``n_directions``/``n_distances``, ``tracer_capacity``, cluster
    ``ghost_ratio``/``force_sharded``, serve ``mix``/``arrival_rate_hz``/
    ``partition``/``attribution``.  Any other key is rejected.
``[labels.<axis>]``
    ``str(value)`` → display label used in cell keys; an empty label drops
    the segment (so a fault axis only names its faulted cells).
``[[constraints]]``
    Each entry is a partial axes assignment; a cell matching *all* entries
    of any constraint is skipped (values may be scalars or lists).
``[[figures]]``
    ``{x, metric, group_by?, title?}`` — series rendered by the report via
    :meth:`repro.experiments.sweep.SweepResult.series`.
``[report]``
    ``title``, ``bench_snapshots`` (committed ``BENCH_*``/``SERVE_*``
    files to chart as trends).

Two cell runners ship built in (``register_cell_runner`` adds more):

- ``replay`` — one baseline-or-app-aware replay per cell on a fresh (or
  sharded) hierarchy, with fault injection; the general-purpose runner.
- ``serve`` — one multi-tenant serving scenario per cell
  (:func:`repro.experiments.loadgen.run_load`), ``sessions``-axis aware.

The bench tiers register two more: ``bench-cell`` (the instrumented cell
of :mod:`repro.obs.bench`) and ``fullscale-cell`` (the wall-clock cell of
:mod:`repro.obs.bench_fullscale`).  Every runner reads only its cell's
``RunConfig`` and the ``[setup]`` extras; the replay-shaped ones build
their setup (``setup_for``) and replay context (``_context_for``) through
the shared per-process caches, so every bench tier is a bundled spec.

Seeds: each cell's config seed defaults to the spec seed; repeat ``r > 0``
replaces it with ``derive_seed(seed, r)``.  Single-box fault profiles draw
from ``derive_seed(fault_seed, cell.index)`` (as the ``bench-cell``
runner does); cluster profiles use the raw ``fault_seed``.  Everything is a pure function of the spec, so
serial and ``--workers N`` runs produce byte-identical snapshots.
"""

from __future__ import annotations

import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple, Union

from repro.experiments.gating import MATRIX_SCHEMA_VERSION
from repro.runtime.config import RUN_CONFIG_SCHEMA, RunConfig
from repro.utils.rng import derive_seed

__all__ = [
    "MATRIX_SCHEMA_VERSION",
    "MatrixSpec",
    "MatrixCell",
    "spec_from_dict",
    "load_spec",
    "bundled_spec_names",
    "expand_grid",
    "expand_cells",
    "register_cell_runner",
    "run_matrix_cell",
    "execute_cells",
    "run_matrix",
    "setup_for",
]

PathLike = Union[str, Path]

#: Directory of the committed (bundled) specs shipped with the package.
SPEC_DIR = Path(__file__).parent / "specs"


# ---------------------------------------------------------------------------
# minimal TOML parsing (fallback for Python < 3.11 without tomllib)


def _strip_comment(line: str) -> str:
    quote = None
    for i, ch in enumerate(line):
        if quote:
            if ch == quote:
                quote = None
        elif ch in ('"', "'"):
            quote = ch
        elif ch == "#":
            return line[:i]
    return line


def _bracket_depth(line: str) -> int:
    depth = 0
    quote = None
    for ch in line:
        if quote:
            if ch == quote:
                quote = None
        elif ch in ('"', "'"):
            quote = ch
        elif ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
    return depth


def _split_top_level(body: str) -> List[str]:
    """Split on commas not nested in brackets/strings."""
    parts, depth, quote, start = [], 0, None, 0
    for i, ch in enumerate(body):
        if quote:
            if ch == quote:
                quote = None
        elif ch in ('"', "'"):
            quote = ch
        elif ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    tail = body[start:]
    if tail.strip():
        parts.append(tail)
    return parts


def _parse_key(raw: str) -> str:
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"'):
        return json.loads(raw)
    if raw.startswith("'") and raw.endswith("'"):
        return raw[1:-1]
    return raw


def _parse_value(raw: str) -> Any:
    raw = raw.strip()
    if not raw:
        raise ValueError("empty value")
    if raw.startswith('"'):
        return json.loads(raw)
    if raw.startswith("'") and raw.endswith("'"):
        return raw[1:-1]
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise ValueError(f"unterminated array: {raw!r}")
        return [_parse_value(p) for p in _split_top_level(raw[1:-1])]
    if raw.startswith("{"):
        if not raw.endswith("}"):
            raise ValueError(f"unterminated inline table: {raw!r}")
        out = {}
        for part in _split_top_level(raw[1:-1]):
            k, _, v = part.partition("=")
            if not _:
                raise ValueError(f"bad inline-table entry: {part!r}")
            out[_parse_key(k)] = _parse_value(v)
        return out
    if raw == "true":
        return True
    if raw == "false":
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    raise ValueError(f"unsupported TOML value: {raw!r}")


def _navigate(root: Dict[str, Any], dotted: str) -> Dict[str, Any]:
    table = root
    for part in dotted.split("."):
        part = _parse_key(part)
        nxt = table.setdefault(part, {})
        if isinstance(nxt, list):
            nxt = nxt[-1]
        if not isinstance(nxt, dict):
            raise ValueError(f"[{dotted}] collides with a value")
        table = nxt
    return table


def parse_toml_subset(text: str) -> Dict[str, Any]:
    """Parse the TOML subset the matrix specs use.

    Supported: ``[table]`` / ``[a.b]`` headers, ``[[array-of-tables]]``,
    bare and quoted keys, strings, ints, floats, bools, (multi-line)
    arrays, and inline tables.  This is the fallback used on Pythons
    without :mod:`tomllib`; the stdlib parser is preferred when present.
    """
    root: Dict[str, Any] = {}
    current = root
    pending = ""
    for raw_line in text.splitlines():
        line = (pending + " " + _strip_comment(raw_line)).strip() if pending \
            else _strip_comment(raw_line).strip()
        if not line:
            continue
        if _bracket_depth(line) > 0 and not line.startswith("["):
            pending = line
            continue
        if line.startswith("[") and "=" not in line.split("]")[0]:
            pending = ""
            if line.startswith("[["):
                name = line[2:line.index("]]")].strip()
                parent = root
                parts = name.split(".")
                for part in parts[:-1]:
                    parent = _navigate(parent, part)
                rows = parent.setdefault(_parse_key(parts[-1]), [])
                if not isinstance(rows, list):
                    raise ValueError(f"[[{name}]] collides with a table")
                rows.append({})
                current = rows[-1]
            else:
                name = line[1:line.index("]")].strip()
                current = _navigate(root, name)
            continue
        if _bracket_depth(line) > 0:
            pending = line
            continue
        pending = ""
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"bad TOML line: {line!r}")
        current[_parse_key(key)] = _parse_value(value)
    if pending:
        raise ValueError(f"unterminated TOML value: {pending!r}")
    return root


def _load_toml(path: Path) -> Dict[str, Any]:
    text = path.read_text(encoding="utf-8")
    try:
        import tomllib
    except ImportError:
        return parse_toml_subset(text)
    return tomllib.loads(text)


# ---------------------------------------------------------------------------
# spec model


@dataclass(frozen=True)
class MatrixSpec:
    """A parsed, validated experiment-matrix specification."""

    label: str
    runner: str = "replay"
    base: Dict[str, Any] = field(default_factory=dict)
    axes: Dict[str, Tuple[Any, ...]] = field(default_factory=dict)
    setup: Dict[str, Any] = field(default_factory=dict)
    labels: Dict[str, Dict[str, str]] = field(default_factory=dict)
    constraints: Tuple[Dict[str, Any], ...] = ()
    figures: Tuple[Dict[str, Any], ...] = ()
    report: Dict[str, Any] = field(default_factory=dict)
    repeats: int = 1
    seed: int = 0
    key_prefix: str = ""
    key_joiner: str = "/"

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serialisable view; ``spec_from_dict`` inverts it."""
        return {
            "matrix": {
                "label": self.label,
                "runner": self.runner,
                "repeats": self.repeats,
                "seed": self.seed,
                "key_prefix": self.key_prefix,
                "key_joiner": self.key_joiner,
            },
            "base": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self.base.items()
            },
            "axes": {name: list(values) for name, values in self.axes.items()},
            "setup": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self.setup.items()
            },
            "labels": {axis: dict(table) for axis, table in self.labels.items()},
            "constraints": [dict(c) for c in self.constraints],
            "figures": [dict(f) for f in self.figures],
            "report": dict(self.report),
        }


_SPEC_SECTIONS = (
    "matrix", "base", "axes", "setup", "labels", "constraints", "figures", "report",
)
_MATRIX_KEYS = ("label", "runner", "repeats", "seed", "key_prefix", "key_joiner")

#: The ``[setup]`` extras the cell runners read.
_SETUP_KEYS = (
    "n_directions", "n_distances", "tracer_capacity", "ghost_ratio", "force_sharded",
    "mix", "arrival_rate_hz", "partition", "attribution",
)


#: Modules that register additional cell runners on import; loaded lazily
#: before runner-name validation/lookup so bundled specs that use them
#: (``bench-cell``, ``fullscale-cell``) work standalone through
#: ``repro matrix run``.
_RUNNER_MODULES = ("repro.obs.bench", "repro.obs.bench_fullscale")


def _ensure_runner_plugins() -> None:
    import importlib

    for module in _RUNNER_MODULES:
        try:
            importlib.import_module(module)
        except ImportError:
            pass


def spec_from_dict(d: Mapping[str, Any], where: str = "<spec>") -> MatrixSpec:
    """Validate a raw spec dict (parsed TOML/JSON) into a :class:`MatrixSpec`.

    Like ``RunConfig.from_dict``, every problem is collected and reported
    in one error — a hand-written spec gets one round of fixes, not ten.
    """
    _ensure_runner_plugins()
    problems: List[str] = []
    unknown = sorted(set(d) - set(_SPEC_SECTIONS))
    if unknown:
        problems.append(f"unknown section(s) {unknown}; known: {list(_SPEC_SECTIONS)}")

    matrix = dict(d.get("matrix", {}))
    unknown_keys = sorted(set(matrix) - set(_MATRIX_KEYS))
    if unknown_keys:
        problems.append(f"[matrix] unknown key(s) {unknown_keys}; known: {list(_MATRIX_KEYS)}")
    label = matrix.get("label")
    if not isinstance(label, str) or not label:
        problems.append("[matrix] needs a non-empty string 'label'")
        label = "invalid"
    runner = matrix.get("runner", "replay")
    if runner not in CELL_RUNNERS:
        problems.append(
            f"[matrix] unknown runner {runner!r}; known: {sorted(CELL_RUNNERS)}"
        )
    repeats = matrix.get("repeats", 1)
    if not isinstance(repeats, int) or isinstance(repeats, bool) or repeats < 1:
        problems.append(f"[matrix] repeats must be an int >= 1, got {repeats!r}")
        repeats = 1
    seed = matrix.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        problems.append(f"[matrix] seed must be an int, got {seed!r}")
        seed = 0

    setup = dict(d.get("setup", {}))
    unknown_keys = sorted(set(setup) - set(_SETUP_KEYS))
    if unknown_keys:
        problems.append(f"[setup] unknown key(s) {unknown_keys}; known: {list(_SETUP_KEYS)}")

    base = dict(d.get("base", {}))
    axes_raw = d.get("axes", {})
    axes: Dict[str, Tuple[Any, ...]] = {}
    for name, values in axes_raw.items():
        if not isinstance(values, (list, tuple)):
            problems.append(f"[axes] {name} must be a list of values, got {values!r}")
            continue
        if len(values) == 0:
            problems.append(f"[axes] {name} has no values")
            continue
        axes[name] = tuple(values)
    for name in sorted((set(base) | set(axes)) - set(RUN_CONFIG_SCHEMA)):
        problems.append(
            f"{'[axes]' if name in axes else '[base]'} {name!r} is not a RunConfig "
            f"field; known: {sorted(RUN_CONFIG_SCHEMA)}"
        )
    overlap = sorted(set(base) & set(axes))
    if overlap:
        problems.append(f"field(s) {overlap} appear in both [base] and [axes]")

    labels_raw = d.get("labels", {})
    labels: Dict[str, Dict[str, str]] = {}
    for axis, table in labels_raw.items():
        if axis not in axes:
            problems.append(f"[labels.{axis}] does not match any axis")
        elif not isinstance(table, Mapping):
            problems.append(f"[labels.{axis}] must be a table of value -> label")
        else:
            labels[axis] = {str(k): str(v) for k, v in table.items()}

    constraints = []
    for i, entry in enumerate(d.get("constraints", []) or []):
        if not isinstance(entry, Mapping) or not entry:
            problems.append(f"[[constraints]] #{i} must be a non-empty table")
            continue
        bad = sorted(set(entry) - set(axes))
        if bad:
            problems.append(f"[[constraints]] #{i} names non-axis field(s) {bad}")
            continue
        constraints.append(dict(entry))

    figures = []
    for i, entry in enumerate(d.get("figures", []) or []):
        if not isinstance(entry, Mapping):
            problems.append(f"[[figures]] #{i} must be a table")
            continue
        missing = [k for k in ("x", "metric") if k not in entry]
        if missing:
            problems.append(f"[[figures]] #{i} missing key(s) {missing}")
            continue
        if entry["x"] not in axes:
            problems.append(f"[[figures]] #{i} x={entry['x']!r} is not an axis")
            continue
        group_by = entry.get("group_by")
        if group_by is not None and group_by not in axes:
            problems.append(f"[[figures]] #{i} group_by={group_by!r} is not an axis")
            continue
        figures.append(dict(entry))

    if problems:
        raise ValueError(f"{where}: invalid matrix spec: " + "; ".join(problems))
    return MatrixSpec(
        label=label,
        runner=runner,
        base=base,
        axes=axes,
        setup=setup,
        labels=labels,
        constraints=tuple(constraints),
        figures=tuple(figures),
        report=dict(d.get("report", {})),
        repeats=repeats,
        seed=seed,
        key_prefix=str(matrix.get("key_prefix", "")),
        key_joiner=str(matrix.get("key_joiner", "/")),
    )


def bundled_spec_names() -> List[str]:
    """Names of the committed specs shipped under ``experiments/specs/``."""
    if not SPEC_DIR.is_dir():
        return []
    return sorted(p.stem for p in SPEC_DIR.glob("*.toml"))


def load_spec(name_or_path: PathLike) -> MatrixSpec:
    """Load a spec from a ``.toml``/``.json`` path or a bundled spec name."""
    path = Path(name_or_path)
    if not path.is_file():
        candidate = SPEC_DIR / f"{path.name.removesuffix('.toml')}.toml"
        if candidate.is_file():
            path = candidate
        else:
            raise FileNotFoundError(
                f"no spec file {name_or_path!r} and no bundled spec of that name; "
                f"bundled: {bundled_spec_names()}"
            )
    if path.suffix == ".json":
        raw = json.loads(path.read_text(encoding="utf-8"))
    else:
        raw = _load_toml(path)
    return spec_from_dict(raw, where=str(path))


# ---------------------------------------------------------------------------
# expansion


def expand_grid(
    grid: Mapping[str, Sequence[Any]],
) -> Tuple[Tuple[str, ...], List[Dict[str, Any]]]:
    """Cartesian expansion of ``{axis: values}`` in declaration order.

    Returns ``(axis_names, combos)`` where each combo is an axis → value
    dict; the first axis varies slowest.  Shared by ``expand_cells`` and
    :func:`repro.experiments.sweep.parameter_sweep`.
    """
    if not grid:
        raise ValueError("grid needs at least one parameter axis")
    for name, values in grid.items():
        if len(values) == 0:
            raise ValueError(f"parameter {name!r} has no values")
    names = tuple(grid)
    combos = [
        dict(zip(names, combo))
        for combo in itertools.product(*(grid[n] for n in names))
    ]
    return names, combos


@dataclass(frozen=True)
class MatrixCell:
    """One expanded cell: a key, a run-order index, and its ``RunConfig``."""

    key: str
    index: int
    repeat: int
    config: RunConfig
    axes: Dict[str, Any]


def _constraint_matches(constraint: Mapping[str, Any], combo: Mapping[str, Any]) -> bool:
    for axis, accepted in constraint.items():
        values = accepted if isinstance(accepted, (list, tuple)) else (accepted,)
        if combo.get(axis) not in values:
            return False
    return True


def _cell_key(
    spec: MatrixSpec, names: Tuple[str, ...], combo: Mapping[str, Any], repeat: int
) -> str:
    segments = [spec.key_prefix] if spec.key_prefix else []
    for name in names:
        value = combo[name]
        label = spec.labels.get(name, {}).get(str(value), str(value))
        if label:
            segments.append(label)
    key = spec.key_joiner.join(segments) if segments else spec.label
    if spec.repeats > 1:
        key = f"{key}{spec.key_joiner}r{repeat}"
    return key


def expand_cells(spec: MatrixSpec) -> List[MatrixCell]:
    """Expand a spec into validated, runnable cells (run order).

    Cell indices count *emitted* cells, so they are dense and stable for a
    pinned spec — the per-cell fault-seed derivation depends on that.
    """
    if spec.axes:
        names, combos = expand_grid(spec.axes)
    else:
        names, combos = (), [{}]
    cells: List[MatrixCell] = []
    seen: Dict[str, Dict[str, Any]] = {}
    index = 0
    for combo in combos:
        if any(_constraint_matches(c, combo) for c in spec.constraints):
            continue
        for repeat in range(spec.repeats):
            d = dict(spec.base)
            d.update(combo)
            d.setdefault("seed", spec.seed)
            if repeat > 0:
                d["seed"] = derive_seed(int(d["seed"]), repeat)
            key = _cell_key(spec, names, combo, repeat)
            if key in seen:
                raise ValueError(
                    f"cells {seen[key]} and {dict(combo)} both map to key {key!r}; "
                    f"fix [labels] so every cell keys uniquely"
                )
            seen[key] = dict(combo)
            try:
                config = RunConfig.from_dict(d)
            except ValueError as exc:
                raise ValueError(f"cell {key!r}: {exc}") from None
            cells.append(
                MatrixCell(key=key, index=index, repeat=repeat,
                           config=config, axes=dict(combo))
            )
            index += 1
    if not cells:
        raise ValueError(
            f"spec {spec.label!r} expands to zero cells (constraints skip everything)"
        )
    return cells


# ---------------------------------------------------------------------------
# setup/context caches (per process; workers each fill their own)

_SETUP_CACHE: Dict[Tuple, Any] = {}
_CONTEXT_CACHE: Dict[Tuple, Any] = {}


def _sampling_shape(extras: Mapping[str, Any]) -> Tuple[int, int]:
    return int(extras.get("n_directions", 512)), int(extras.get("n_distances", 4))


def _setup_key(config: RunConfig, extras: Mapping[str, Any]) -> Tuple:
    return (
        config.dataset, config.blocks, config.scale, config.cache_ratio, config.seed,
    ) + _sampling_shape(extras)


def setup_for(config: RunConfig, extras: Mapping[str, Any]):
    """The (cached) :class:`~repro.experiments.runner.ExperimentSetup` of a
    cell — dataset synthesis and table builds are shared across every cell
    with the same dataset/grid/sampling shape."""
    key = _setup_key(config, extras)
    if key not in _SETUP_CACHE:
        from repro.camera.sampling import SamplingConfig
        from repro.experiments.runner import ExperimentSetup

        n_directions, n_distances = _sampling_shape(extras)
        _SETUP_CACHE[key] = ExperimentSetup.for_dataset(
            config.dataset,
            target_n_blocks=config.blocks,
            scale=config.scale,
            cache_ratio=config.cache_ratio,
            sampling=SamplingConfig(
                n_directions=n_directions, n_distances=n_distances
            ),
            seed=config.seed,
        )
    return _SETUP_CACHE[key]


def _context_for(setup, config: RunConfig, extras: Mapping[str, Any]):
    """The (cached) replay context — visible sets are computed once per
    unique (setup, workload) pair and shared by every cell replaying that
    path."""
    key = _setup_key(config, extras) + (
        config.workload, config.steps, config.degrees, config.distance,
        config.trace_file,
    )
    if key not in _CONTEXT_CACHE:
        from repro.core.pipeline import PipelineContext
        from repro.runtime.registries import make_workload

        path = make_workload(config, setup.view_angle_deg)
        _CONTEXT_CACHE[key] = PipelineContext.create(
            path, setup.grid, setup.render_model
        )
    return _CONTEXT_CACHE[key]


# ---------------------------------------------------------------------------
# cell runners

#: runner name -> fn(cell, extras) -> plain-JSON run dict.
CELL_RUNNERS: Dict[str, Callable[[MatrixCell, Mapping[str, Any]], Dict[str, object]]] = {}


def register_cell_runner(
    name: str, fn: Callable[[MatrixCell, Mapping[str, Any]], Dict[str, object]]
) -> None:
    if name in CELL_RUNNERS:
        raise ValueError(f"cell runner {name!r} is already registered")
    CELL_RUNNERS[name] = fn


def _replay_cell(cell: MatrixCell, extras: Mapping[str, Any]) -> Dict[str, object]:
    """The general-purpose runner: one replay per cell.

    ``policy="app-aware"`` runs the paper's optimizer over an LRU
    hierarchy; any other policy runs the conventional baseline.  Cells
    with ``shards > 1`` (or ``setup.force_sharded``) replay on a
    :class:`~repro.cluster.ShardedHierarchy` and carry the network ledger.
    """
    from repro.faults import FaultInjector, FaultPlan
    from repro.faults.plan import FAULT_PROFILES
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime.context import RunContext
    from repro.runtime.drivers import run_baseline
    from repro.trace import Tracer, aggregate

    config = cell.config
    setup = setup_for(config, extras)
    context = _context_for(setup, config, extras)
    cache_policy = "lru" if config.policy == "app-aware" else config.policy
    sharded = config.shards > 1 or bool(extras.get("force_sharded"))
    if sharded:
        from repro.cluster import make_sharded_hierarchy

        hierarchy = make_sharded_hierarchy(
            setup.grid,
            config.shards,
            strategy=config.shard_map,
            cache_ratio=config.cache_ratio,
            policy=cache_policy,
            ghost_ratio=(
                float(extras.get("ghost_ratio", 0.0)) if config.shards > 1 else 0.0
            ),
            seed=config.seed,
        )
    else:
        hierarchy = setup.hierarchy(cache_policy)

    injector = None
    derived_seed = None
    if config.faults != "none":
        if config.faults in FAULT_PROFILES:
            # Single-box profiles: the bench tier's per-cell derivation, so
            # every cell of a suite sees distinct draws.
            derived_seed = derive_seed(config.fault_seed, cell.index)
            plan = FaultPlan.from_profile(config.faults, seed=derived_seed)
        else:
            # Cluster profiles: raw seed, matching the cluster tier.
            from repro.cluster import cluster_fault_plan

            plan = cluster_fault_plan(config.faults, config.shards, seed=config.fault_seed)
        injector = FaultInjector(plan)

    tracer = Tracer(capacity=int(extras.get("tracer_capacity", 500_000)))
    ctx = RunContext(tracer=tracer, registry=MetricsRegistry(), fault_injector=injector)
    t0 = time.perf_counter()
    if config.policy == "app-aware":
        result = setup.optimizer().run(context, hierarchy, ctx=ctx)
    else:
        result = run_baseline(context, hierarchy, ctx=ctx)
    run: Dict[str, object] = {
        "wall_s": time.perf_counter() - t0,  # informational; never compared
        "summary": result.summary(),
        "hierarchy_stats": result.hierarchy_stats.as_dict(),
    }
    if sharded:
        from repro.obs.bench_cluster import ledger_reconciles

        ledger = hierarchy.cluster_ledger()
        run["split_bytes"] = dict(ledger["split_bytes"])
        run["peer_transfers"] = ledger["peer_transfers"]
        run["link_fallbacks"] = ledger["link_fallbacks"]
        run["ledger_reconciles"] = ledger_reconciles(hierarchy)
        run["cluster"] = ledger
    if injector is not None:
        summary = aggregate(tracer.events())
        faults_section: Dict[str, object] = {
            "profile": config.faults,
            "seed": config.fault_seed,
            "stats": injector.stats.as_dict(),
            "trace": {
                "faults": summary.total_faults,
                "retries": summary.total_retries,
                "degraded": summary.total_degraded,
                "fault_time_s": summary.fault_time_s,
            },
        }
        if derived_seed is not None:
            faults_section["derived_seed"] = derived_seed
        run["faults"] = faults_section
    return run


def _serve_cell(cell: MatrixCell, extras: Mapping[str, Any]) -> Dict[str, object]:
    """One multi-tenant serving scenario per cell (``sessions`` axis)."""
    from repro.experiments.loadgen import LoadGenConfig, run_load

    config = cell.config
    load_config = LoadGenConfig(
        n_sessions=config.sessions,
        mix=tuple(extras.get("mix", (0.5, 0.25, 0.25))),
        arrival_rate_hz=float(extras.get("arrival_rate_hz", 2.0)),
        steps=config.steps,
        degrees=config.degrees,
        distance=config.distance,
        dataset=config.dataset,
        blocks=config.blocks,
        scale=config.scale,
        cache_ratio=config.cache_ratio,
        policy=config.policy,
        partition=str(extras.get("partition", "equal")),
        seed=config.seed,
    )
    t0 = time.perf_counter()
    doc = run_load(
        load_config,
        attribution=bool(extras.get("attribution", True)),
        tracer_capacity=int(extras.get("tracer_capacity", 500_000)),
    )
    return {
        "wall_s": time.perf_counter() - t0,  # informational; never compared
        "serve_config": doc["config"],
        "workloads": doc["workloads"],
        "multi_tenant": doc["multi_tenant"],
    }


register_cell_runner("replay", _replay_cell)
register_cell_runner("serve", _serve_cell)


def run_matrix_cell(cell: MatrixCell, spec: MatrixSpec) -> Dict[str, object]:
    """Run one cell with the spec's runner and ``[setup]`` extras."""
    return CELL_RUNNERS[spec.runner](cell, spec.setup)


# ---------------------------------------------------------------------------
# execution

_WORKER_STATE: Dict[str, object] = {}


def _init_worker(runner: str, extras: Dict[str, Any]) -> None:
    _ensure_runner_plugins()
    _WORKER_STATE["runner"] = runner
    _WORKER_STATE["extras"] = extras


def _worker_cell(cell: MatrixCell) -> Tuple[str, Dict[str, object]]:
    runner: str = _WORKER_STATE["runner"]  # type: ignore[assignment]
    extras: Dict[str, Any] = _WORKER_STATE["extras"]  # type: ignore[assignment]
    return cell.key, CELL_RUNNERS[runner](cell, extras)


def execute_cells(
    cells: Sequence[MatrixCell],
    runner: str,
    extras: Mapping[str, Any],
    workers: int = 1,
    progress=None,
) -> Dict[str, Dict[str, object]]:
    """Run cells serially or over worker processes; key → run dict.

    Each worker process fills its own setup/context caches from the pinned
    cells, and nothing non-trivial crosses the process boundary — so
    parallel snapshots are byte-identical to serial ones.
    """
    _ensure_runner_plugins()
    if runner not in CELL_RUNNERS:
        raise KeyError(f"unknown cell runner {runner!r}; known: {sorted(CELL_RUNNERS)}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    notify = progress if progress is not None else (lambda msg: None)
    runs: Dict[str, Dict[str, object]] = {}
    n_workers = min(workers, len(cells))
    if n_workers > 1:
        with ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_init_worker,
            initargs=(runner, dict(extras)),
        ) as pool:
            for key, run in pool.map(_worker_cell, list(cells)):
                notify(f"done: {key}")
                runs[key] = run
    else:
        fn = CELL_RUNNERS[runner]
        for cell in cells:
            notify(f"run: {cell.key}")
            runs[cell.key] = fn(cell, extras)
    return runs


def run_matrix(
    spec: MatrixSpec, workers: int = 1, progress=None
) -> Dict[str, object]:
    """Expand and execute a spec; returns the JSON-ready snapshot document."""
    notify = progress if progress is not None else (lambda msg: None)
    cells = expand_cells(spec)
    notify(
        f"matrix {spec.label!r}: {len(cells)} cells "
        f"({spec.runner} runner, {min(workers, len(cells))} worker(s))"
    )
    t0 = time.perf_counter()
    runs = execute_cells(cells, spec.runner, spec.setup, workers=workers, progress=progress)
    doc: Dict[str, object] = {
        "schema_version": MATRIX_SCHEMA_VERSION,
        "kind": "matrix",
        "label": spec.label,
        "runner": spec.runner,
        "workers": min(workers, len(cells)),
        "spec": spec.to_dict(),
        "n_cells": len(cells),
        "cells": {
            cell.key: {
                "axes": cell.axes,
                "index": cell.index,
                "repeat": cell.repeat,
                "config": cell.config.to_dict(),
                **runs[cell.key],
            }
            for cell in cells
        },
        "suite_wall_s": time.perf_counter() - t0,  # informational; never compared
    }
    return doc
