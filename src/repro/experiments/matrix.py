"""The declarative experiment-matrix runtime (``repro matrix``).

One TOML/JSON spec describes a whole study: a cartesian grid of axes over
:class:`~repro.runtime.config.RunConfig` fields (dataset/scale × workload
× policy × fault profile × shards × sessions × ...), optional
constraints that prune cells, repeats with derived per-repeat seeds, and
which figures/report sections to render.  ``run_matrix`` expands the spec
into validated ``RunConfig`` cells, executes them (serially or over
``--workers`` processes), and emits one schema-versioned
``MATRIX_<label>.json`` snapshot; ``repro analyze`` (or ``repro matrix
run --report``) renders it into a self-contained HTML report (see
:mod:`repro.obs.report`).

The spec format, by section (TOML table names; the JSON form mirrors it):

``[matrix]``
    ``label`` (required), ``runner`` (``replay``/``bench-cell``/``serve``),
    ``repeats``, ``seed``, ``key_prefix``, ``key_joiner``.
``[base]``
    ``RunConfig`` field defaults shared by every cell.
``[axes]``
    ``RunConfig`` field or ``[setup]`` key → list of values; cells are the
    cartesian product in declaration order (first axis varies slowest).
    A ``[setup]``-key axis reaches the runner as that cell's ``[setup]``
    value.
``[setup]``
    Non-``RunConfig`` extras the cell runners read: the ``T_visible``
    shape (``n_directions``/``n_distances``, the sampled radial
    ``distance_range = [lo, hi]``, ``n_vicinal`` points per vicinal
    sphere, and ``fixed_radius``, a radius every sample uses or ``"eq6"``,
    the default, for Eq. 6's), ``optimizer`` (a table of
    :class:`~repro.runtime.config.OptimizerConfig` fields for app-aware
    cells), ``tracer_capacity``, cluster ``ghost_ratio``/``force_sharded``,
    serve ``mix``/``arrival_rate_hz``/``partition``/``attribution``, and
    the ``bench-cell`` suite's ``multi_tenant = {sessions, steps}``
    scenario.  Any other key is rejected.
``[labels.<axis>]``
    ``str(value)`` → display label used in cell keys; an empty label drops
    the segment (so a fault axis only names its faulted cells).
``[[constraints]]``
    Each entry is a partial axes assignment; a cell matching *all* entries
    of any constraint is skipped (values may be scalars or lists, so a
    pair-valued axis takes a list of pairs: ``degrees = [[0.0, 5.0]]``).
    An entry that matches no cell of the full axis grid is an error.
``[[figures]]``
    ``{x, metric, group_by?, title?}`` — series rendered by the report via
    :func:`repro.obs.report.figure_series` (one line per ``group_by`` value
    and per value of every other axis that varies).
``[report]``
    ``title``, ``bench_snapshots`` (committed ``MATRIX_*`` files to chart
    as trends; relative names resolve against the current directory).

Two cell runners ship built in (``register_cell_runner`` adds more):

- ``replay`` — one baseline-or-app-aware replay per cell on a fresh (or
  sharded) hierarchy, with fault injection; the general-purpose runner,
  and the one that takes ``policy = "belady"`` (the offline bound over the
  cell's demand trace, single-box only).  The paper's figures are its
  bundled specs (``fig7`` … ``fig13``, ``ablations``, each with a
  ``-quick`` twin).
- ``serve`` — one multi-tenant serving scenario per cell
  (:func:`repro.experiments.loadgen.run_load`), ``sessions``-axis aware.

The bench tiers register two more: ``bench-cell`` (the instrumented cell
of :mod:`repro.obs.bench`) and ``fullscale-cell`` (the wall-clock cell of
:mod:`repro.obs.bench_fullscale`).  Every runner reads only its cell's
``RunConfig`` and the ``[setup]`` extras; the replay-shaped ones build
their setup (``setup_for``) and replay context (``_context_for``) through
the shared per-process caches, so every bench tier is a bundled spec.
A runner may also own a suite hook, the one place a document gains
sections that belong to no cell (``suite.multi_tenant`` of ``bench-cell``,
``suite.fullscale`` of ``fullscale-cell``).

Seeds: each cell's config seed defaults to the spec seed; repeat ``r > 0``
replaces it with ``derive_seed(seed, r)``.  Single-box fault profiles draw
from ``derive_seed(fault_seed, cell.index)`` (as the ``bench-cell``
runner does); cluster profiles use the raw ``fault_seed``.  Everything is
a pure function of the spec, so serial and ``--workers N`` runs produce
byte-identical snapshots.
"""

from __future__ import annotations

import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.experiments.gating import MATRIX_SCHEMA_VERSION
from repro.runtime.config import RUN_CONFIG_SCHEMA, OptimizerConfig, RunConfig
from repro.utils.rng import derive_seed
from repro.utils.validation import is_finite_number

__all__ = [
    "MATRIX_SCHEMA_VERSION",
    "MatrixSpec",
    "MatrixCell",
    "spec_from_dict",
    "load_spec",
    "bundled_spec_names",
    "expand_grid",
    "expand_cells",
    "CellRunner",
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
    "n_directions", "n_distances", "distance_range", "n_vicinal", "fixed_radius",
    "optimizer", "tracer_capacity", "ghost_ratio", "force_sharded",
    "mix", "arrival_rate_hz", "partition", "attribution", "multi_tenant",
)

#: ``[setup] fixed_radius`` value that lets Eq. 6 pick each sample's
#: radius (the default; TOML has no null for an axis to name).
EQ6_RADIUS = "eq6"


def _is_int_at_least_1(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _setup_problem(key: str, value: Any) -> Optional[str]:
    """Why ``value`` is not a valid ``[setup] key`` (or a value of a
    ``[setup]``-key axis); ``None`` when it is."""
    if key == "multi_tenant" and not (
        isinstance(value, Mapping)
        and set(value) == {"sessions", "steps"}
        and all(_is_int_at_least_1(v) for v in value.values())
    ):
        return ("multi_tenant must be a table {sessions = <int >= 1>, "
                f"steps = <int >= 1>}}, got {value!r}")
    if key == "distance_range" and not (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(is_finite_number(v) for v in value)
        and 0 < value[0] <= value[1]
    ):
        return f"distance_range must be a finite [lo, hi] with 0 < lo <= hi, got {value!r}"
    if key == "n_vicinal" and not _is_int_at_least_1(value):
        return f"n_vicinal must be an int >= 1, got {value!r}"
    if key == "fixed_radius" and value != EQ6_RADIUS and not (
        is_finite_number(value) and value > 0
    ):
        return (f"fixed_radius must be a positive finite radius or "
                f"{EQ6_RADIUS!r}, got {value!r}")
    if key == "optimizer":
        if not isinstance(value, Mapping):
            return f"optimizer must be a table of OptimizerConfig fields, got {value!r}"
        try:
            OptimizerConfig(**value)
        except (TypeError, ValueError) as exc:
            return f"optimizer {dict(value)!r}: {exc}"
    return None


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
    for key, value in setup.items():
        problem = _setup_problem(key, value)
        if problem:
            problems.append(f"[setup] {problem}")

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
        for value in values:
            problem = _setup_problem(name, value)
            if problem:
                problems.append(f"[axes] {problem}")
    for name in sorted(set(base) - set(RUN_CONFIG_SCHEMA)):
        problems.append(
            f"[base] {name!r} is not a RunConfig field; known: {sorted(RUN_CONFIG_SCHEMA)}"
        )
    for name in sorted(set(axes) - set(RUN_CONFIG_SCHEMA) - set(_SETUP_KEYS)):
        problems.append(
            f"[axes] {name!r} is not a RunConfig field or a [setup] key; "
            f"known: {sorted(RUN_CONFIG_SCHEMA)} and {list(_SETUP_KEYS)}"
        )
    for section, names in (("[base]", base), ("[setup]", setup)):
        overlap = sorted(set(names) & set(axes))
        if overlap:
            problems.append(f"field(s) {overlap} appear in both {section} and [axes]")

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
    combos = expand_grid(axes)[1] if axes else []
    for i, entry in enumerate(d.get("constraints", []) or []):
        if not isinstance(entry, Mapping) or not entry:
            problems.append(f"[[constraints]] #{i} must be a non-empty table")
            continue
        bad = sorted(set(entry) - set(axes))
        if bad:
            problems.append(f"[[constraints]] #{i} names non-axis field(s) {bad}")
            continue
        if not any(_constraint_matches(entry, combo) for combo in combos):
            problems.append(
                f"[[constraints]] #{i} matches no cell{_flat_pair_hint(entry, axes)}"
            )
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
    spec = MatrixSpec(
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
    # Expand now, so a cell its runner cannot run fails here, not mid-run.
    try:
        for cell in expand_cells(spec):
            _check_runner_takes(spec, cell)
    except ValueError as exc:
        raise ValueError(f"{where}: invalid matrix spec: {exc}") from None
    return spec


def _check_runner_takes(spec: MatrixSpec, cell: "MatrixCell") -> None:
    """Reject a cell that only the single-box ``replay`` runner can run."""
    config = cell.config
    extras = _cell_setup(cell, spec.setup)
    sharded = bool(extras.get("force_sharded"))
    if config.policy == "belady" and (spec.runner != "replay" or sharded):
        raise ValueError(
            f"cell {cell.key!r}: policy='belady' runs only single-box on the replay "
            f"runner, not on {spec.runner!r}{' with force_sharded' if sharded else ''}"
        )
    if extras.get("optimizer") and spec.runner != "replay":
        raise ValueError(
            f"cell {cell.key!r}: [setup] optimizer is read only by the replay "
            f"runner, not by {spec.runner!r}"
        )
    if isinstance(config.distance, tuple) and spec.runner == "serve":
        raise ValueError(
            f"cell {cell.key!r}: the serve runner takes one distance, "
            f"not a (lo, hi) pair {list(config.distance)}"
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
    dict; the first axis varies slowest.
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


def _flat_pair_hint(constraint: Mapping[str, Any], axes: Mapping[str, Sequence[Any]]) -> str:
    """The double-wrapped spelling of each flat pair a constraint gives a
    pair-valued axis (a flat list means "any of these values")."""
    fixes = [
        f"{axis} = [{list(value)!r}]"
        for axis, value in constraint.items()
        if isinstance(value, (list, tuple))
        and not any(isinstance(v, (list, tuple)) for v in value)
        and any(isinstance(a, (list, tuple)) for a in axes[axis])
    ]
    if not fixes:
        return ""
    return f" (a pair-valued axis takes a list of pairs: write {', '.join(fixes)})"


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
            d.update((k, v) for k, v in combo.items() if k in RUN_CONFIG_SCHEMA)
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


def _cell_setup(cell: MatrixCell, extras: Mapping[str, Any]) -> Mapping[str, Any]:
    """``[setup]`` as ``cell`` sees it: with its values of ``[setup]``-key axes."""
    own = {k: v for k, v in cell.axes.items() if k not in RUN_CONFIG_SCHEMA}
    return {**extras, **own} if own else extras


# ---------------------------------------------------------------------------
# setup/context caches (per process; workers each fill their own)

_SETUP_CACHE: Dict[Tuple, Any] = {}
_CONTEXT_CACHE: Dict[Tuple, Any] = {}


def _sampling_shape(extras: Mapping[str, Any]) -> Tuple[int, int]:
    return int(extras.get("n_directions", 512)), int(extras.get("n_distances", 4))


def _table_options(extras: Mapping[str, Any]) -> Dict[str, Any]:
    """The ``ExperimentSetup.for_dataset`` keywords of the ``[setup]`` keys
    that shape ``T_visible``; a key left out keeps the builder's default."""
    from repro.camera.sampling import SamplingConfig

    n_directions, n_distances = _sampling_shape(extras)
    sampling: Dict[str, Any] = dict(n_directions=n_directions, n_distances=n_distances)
    if "distance_range" in extras:
        sampling["distance_range"] = tuple(float(v) for v in extras["distance_range"])
    options: Dict[str, Any] = {"sampling": SamplingConfig(**sampling)}
    if "n_vicinal" in extras:
        options["n_vicinal"] = int(extras["n_vicinal"])
    if extras.get("fixed_radius", EQ6_RADIUS) != EQ6_RADIUS:
        options["fixed_radius"] = float(extras["fixed_radius"])
    return options


def _setup_key(config: RunConfig, extras: Mapping[str, Any]) -> Tuple:
    return (
        config.dataset, config.blocks, config.scale, config.cache_ratio, config.seed,
    ) + tuple(sorted(_table_options(extras).items()))


def setup_for(config: RunConfig, extras: Mapping[str, Any]):
    """The (cached) :class:`~repro.experiments.runner.ExperimentSetup` of a
    cell — dataset synthesis and table builds are shared across every cell
    with the same dataset/grid and ``T_visible`` shape."""
    key = _setup_key(config, extras)
    if key not in _SETUP_CACHE:
        from repro.experiments.runner import ExperimentSetup

        _SETUP_CACHE[key] = ExperimentSetup.for_dataset(
            config.dataset,
            target_n_blocks=config.blocks,
            scale=config.scale,
            cache_ratio=config.cache_ratio,
            seed=config.seed,
            **_table_options(extras),
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

#: ``fn(cell, extras) -> plain-JSON run dict``.
CellFn = Callable[..., Dict[str, object]]
#: ``suite(spec, cells, run_cells, notify) -> (runs, {section name: section})``.
SuiteHook = Callable[..., Tuple[Dict[str, Dict[str, object]], Dict[str, object]]]


class CellRunner(NamedTuple):
    """A registered runner: see :func:`register_cell_runner`."""

    fn: CellFn
    suite: Optional[SuiteHook] = None
    profiled: bool = False


#: runner name -> :class:`CellRunner`.
CELL_RUNNERS: Dict[str, CellRunner] = {}


def register_cell_runner(
    name: str,
    fn: CellFn,
    suite: Optional[SuiteHook] = None,
    profiled: bool = False,
) -> None:
    """Register ``fn(cell, extras) -> plain-JSON run dict`` as ``name``.

    ``suite`` is the runner's one extension point for sections that
    belong to no cell: :func:`run_matrix` calls
    ``suite(spec, cells, run_cells, notify)``, where ``run_cells()`` runs
    every cell and returns ``{key: run}``; the hook calls it once (doing
    its own work around it) and returns ``(runs, sections)``, which
    become the document's cells and its ``suite`` sections.
    ``profiled`` marks an ``fn`` that also takes ``profiler=`` (a
    :class:`~repro.obs.profiler.PhaseProfiler`), which ``run_matrix``'s
    ``profile`` needs.
    """
    if name in CELL_RUNNERS:
        raise ValueError(f"cell runner {name!r} is already registered")
    CELL_RUNNERS[name] = CellRunner(fn, suite, profiled)


def _replay_cell(cell: MatrixCell, extras: Mapping[str, Any]) -> Dict[str, object]:
    """The general-purpose runner: one replay per cell.

    ``policy="app-aware"`` runs the paper's optimizer (``[setup]
    optimizer`` its tunables) over an LRU hierarchy; ``policy="belady"``
    runs the offline bound over the cell's demand trace
    (:func:`~repro.experiments.runner.belady_hierarchy`); any other policy
    runs the conventional baseline.  Cells with ``shards > 1`` (or
    ``setup.force_sharded``) replay on a
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
    if config.policy == "belady":
        from repro.experiments.runner import belady_hierarchy

        hierarchy = belady_hierarchy(
            setup.grid, context.demand_trace(), cache_ratio=config.cache_ratio
        )
    elif sharded:
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
        tunables = extras.get("optimizer")
        optimizer = setup.optimizer(OptimizerConfig(**tunables) if tunables else None)
        result = optimizer.run(context, hierarchy, ctx=ctx)
    elif config.policy == "belady":
        result = run_baseline(context, hierarchy, name="baseline-belady", ctx=ctx)
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
    return CELL_RUNNERS[spec.runner].fn(cell, _cell_setup(cell, spec.setup))


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
    return cell.key, CELL_RUNNERS[runner].fn(cell, _cell_setup(cell, extras))


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
        fn = CELL_RUNNERS[runner].fn
        for cell in cells:
            notify(f"run: {cell.key}")
            runs[cell.key] = fn(cell, _cell_setup(cell, extras))
    return runs


def run_matrix(
    spec: MatrixSpec,
    workers: int = 1,
    progress=None,
    profile: Optional[PathLike] = None,
) -> Dict[str, object]:
    """Expand and execute a spec; returns the JSON-ready snapshot document.

    The cells run serially or over ``workers`` processes (byte-identical
    either way); the runner's suite hook, if it has one, adds the
    document's ``suite`` sections.  ``profile``, a path, re-runs the
    first app-aware cell (else the first cell) with a span timeline kept
    and writes its Chrome trace there — only a runner that takes a
    profiler supports it.
    """
    _ensure_runner_plugins()
    if spec.runner not in CELL_RUNNERS:
        raise KeyError(f"unknown cell runner {spec.runner!r}; known: {sorted(CELL_RUNNERS)}")
    runner = CELL_RUNNERS[spec.runner]
    if profile is not None and not runner.profiled:
        profiled = sorted(name for name, r in CELL_RUNNERS.items() if r.profiled)
        raise ValueError(
            f"runner {spec.runner!r} takes no profiler; profiling needs one of {profiled}"
        )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    notify = progress if progress is not None else (lambda msg: None)
    cells = expand_cells(spec)
    n_workers = min(workers, len(cells))
    notify(
        f"matrix {spec.label!r}: {len(cells)} cells "
        f"({spec.runner} runner, {n_workers} worker(s))"
    )
    t0 = time.perf_counter()

    def run_cells() -> Dict[str, Dict[str, object]]:
        return execute_cells(cells, spec.runner, spec.setup, workers=workers, progress=progress)

    if runner.suite is None:
        runs, suite = run_cells(), {}
    else:
        runs, suite = runner.suite(spec, cells, run_cells, notify)
    doc: Dict[str, object] = {
        "schema_version": MATRIX_SCHEMA_VERSION,
        "kind": "matrix",
        "label": spec.label,
        "runner": spec.runner,
        "workers": n_workers,
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
    }
    if suite:
        doc["suite"] = suite
    doc["suite_wall_s"] = time.perf_counter() - t0  # informational; never compared
    if profile is not None:
        from repro.obs.profiler import PhaseProfiler

        cell = next((c for c in cells if c.config.policy == "app-aware"), cells[0])
        notify(f"profile: re-running {cell.key} with a span timeline")
        profiler = PhaseProfiler(keep_timeline=True)
        runner.fn(cell, _cell_setup(cell, spec.setup), profiler=profiler)
        doc["profile"] = {"cell": cell.key, "path": str(profiler.write_chrome_trace(profile))}
    return doc
