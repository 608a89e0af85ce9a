"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands mirror a real out-of-core visualization workflow:

- ``info``       — datasets, policies, version;
- ``preprocess`` — build and save ``T_visible`` / ``T_important`` (Steps 1-2);
- ``replay``     — replay a camera path under several policies, print the
  comparison (optionally reusing saved tables);
- ``render``     — ray-cast one frame of a dataset to a PPM file;
- ``trace``      — replay one policy with the event tracer on, write a
  Chrome-trace JSON (and optionally JSONL) plus a per-step summary table;
  ``--from-jsonl`` re-reports on a previously written JSONL instead;
- ``analyze``    — the one HTML report: consumes a ``MATRIX_`` document
  (cells, figures, faults, fairness, per-frame latency attribution,
  eviction forensics, regret, trends) or a JSONL trace (its attribution),
  or runs the quick bench tier in-process, and writes a self-contained
  page, plus a Prometheus text dump with ``--prom``; exits 1 when any
  section fails the exact ledger reconciliation, 2 on an unreadable source;
- ``bench``      — run a bench tier's bundled spec (the pinned regression
  suite by default) and write ``MATRIX_<label>.json``;
- ``serve-sim``  — simulate N concurrent viewer sessions over one shared
  hierarchy (tenant quotas, fairness, per-tenant tail latencies) as a
  one-cell ``serve`` spec and write ``MATRIX_<label>.json``;
- ``matrix``     — the declarative experiment-matrix runner:
  ``matrix run`` expands a TOML/JSON spec (bundled name or path) into
  cells and writes ``MATRIX_<label>.json`` (``--report`` also writes the
  HTML page ``analyze`` writes); ``matrix compare`` gates two matrix
  documents (the one compare; non-zero exit on regression).

``bench``, ``serve-sim`` and ``matrix run`` are spellings of one call,
:func:`repro.experiments.matrix.run_matrix`.

The paper's evaluation is bundled specs too: ``matrix run fig13`` runs
Fig. 13 at paper scale and ``matrix run fig13-quick`` its quick twin
(likewise ``fig7``, ``fig9``, ``fig11``, ``fig12`` and ``ablations``);
``info`` prints Table I.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.camera.sampling import SamplingConfig
from repro.experiments.report import format_run_summaries
from repro.cluster.shardmap import SHARD_STRATEGIES
from repro.experiments.runner import ExperimentSetup, compare_policies
from repro.faults import FAULT_PROFILES
from repro.policies.registry import POLICY_NAMES
from repro.runtime.config import WORKLOAD_NAMES, RunConfig
from repro.runtime.registries import WORKLOADS, make_workload
from repro.volume.datasets import DATASETS, dataset_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Application-aware data replacement for interactive scientific visualization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="datasets, policies, version")

    pre = sub.add_parser("preprocess", help="build and save T_visible / T_important")
    _add_dataset_args(pre)
    pre.add_argument("--out", type=Path, default=Path("tables"), help="output directory")
    pre.add_argument("--directions", type=int, default=256, help="sampled view directions")
    pre.add_argument("--distances", type=int, default=2, help="sampled distance shells")

    rep = sub.add_parser("replay", help="compare policies on a camera path")
    _add_dataset_args(rep)
    _add_path_args(rep)
    rep.add_argument("--cache-ratio", type=float, default=0.5)
    rep.add_argument("--policies", nargs="+", default=["fifo", "lru"],
                     choices=list(POLICY_NAMES))
    rep.add_argument("--belady", action="store_true", help="include the offline bound")
    rep.add_argument("--no-app-aware", action="store_true")
    rep.add_argument("--shards", type=_positive_int, default=1,
                     help="simulated cluster nodes (1 = single box; >1 shards the "
                          "block grid and charges peer fetches on network links)")
    rep.add_argument("--shard-map", choices=list(SHARD_STRATEGIES), default="slab",
                     help="block-ownership strategy for --shards > 1")
    rep.add_argument("--record", type=Path, default=None, metavar="PATH",
                     help="also write the camera path as a JSONL trace, "
                          "replayable with --path-type recorded --trace-file")
    _add_fault_args(rep)

    tra = sub.add_parser(
        "trace",
        help="replay one policy with event tracing; write a Chrome trace + summary",
    )
    _add_dataset_args(tra)
    _add_path_args(tra)
    tra.add_argument("--cache-ratio", type=float, default=0.5)
    tra.add_argument("--policy", default="app-aware",
                     choices=["app-aware"] + list(POLICY_NAMES))
    tra.add_argument("--out", type=Path, default=Path("trace.json"),
                     help="Chrome-trace JSON output (chrome://tracing / Perfetto)")
    tra.add_argument("--jsonl", type=Path, default=None,
                     help="also write raw events as JSON lines")
    tra.add_argument("--capacity", type=_positive_int, default=1_000_000,
                     help="tracer ring-buffer capacity (events)")
    tra.add_argument("--from-jsonl", type=Path, default=None, metavar="PATH",
                     help="skip the replay: load events from a JSONL trace "
                          "written earlier (with --jsonl) and report on those")

    ana = sub.add_parser(
        "analyze",
        help="self-contained HTML report (optional Prometheus dump) of a "
             "matrix document or a JSONL trace",
    )
    ana.add_argument("source", nargs="?", default=None,
                     help="MATRIX_ document (.json) or trace events "
                          "(.jsonl); omitted: run the quick bench tier "
                          "in-process and analyze it")
    ana.add_argument("--out", type=Path, default=Path("report.html"),
                     help="self-contained HTML report path (default report.html)")
    ana.add_argument("--prom", type=Path, default=None, metavar="PATH",
                     help="also write a Prometheus text-exposition dump "
                          "(registry metrics + attribution/forensics series)")
    ana.add_argument("--title", default=None, help="report title override")

    ben = sub.add_parser(
        "bench",
        help="run a bench tier's bundled spec (MATRIX_<label>.json)",
    )
    ben.add_argument("--tier", choices=("default", "fullscale", "cluster"), default="default",
                     help="which bundled spec runs — default: the pinned "
                          "simulated-clock suite (bench); cluster: the sharded "
                          "replay (cluster); fullscale: paper-scale geometry with "
                          "wall-clock/RSS metrics (fullscale)")
    ben.add_argument("--quick", action="store_true",
                     help="CI-smoke variant (bench-quick, cluster-smoke, "
                          "fullscale-smoke): same suite shape, a fraction of the work")
    ben.add_argument("--label", default="local",
                     help="names the output file: writes MATRIX_<label>.json")
    ben.add_argument("--out", type=Path, default=Path("."),
                     help="directory the snapshot is written into (default: cwd)")
    ben.add_argument("--workers", type=_positive_int, default=1,
                     help="worker processes for the tier's cells (default 1: serial)")
    ben.add_argument("--profile", type=Path, default=None, metavar="PATH",
                     help="also re-run the first app-aware cell with a span "
                          "timeline and write a Chrome-trace JSON there "
                          "(default and fullscale tiers)")
    _add_fault_args(ben)

    srv = sub.add_parser(
        "serve-sim",
        help="simulate N concurrent viewer sessions over a shared hierarchy "
             "(MATRIX_<label>.json)",
    )
    srv.add_argument("--sessions", type=_positive_int, default=8,
                     help="number of concurrent viewer sessions (default 8)")
    srv.add_argument("--session-steps", type=_positive_int, default=24,
                     help="camera positions per session (default 24)")
    srv.add_argument("--mix", type=float, nargs=3, default=(0.5, 0.25, 0.25),
                     metavar=("ORBIT", "ZOOM", "FLYTHROUGH"),
                     help="workload mix weights (default 0.5 0.25 0.25)")
    srv.add_argument("--arrival-rate", type=float, default=2.0,
                     help="mean session arrivals per simulated second "
                          "(exponential inter-arrivals; <= 0: all at t=0)")
    srv.add_argument("--serve-blocks", type=_positive_int, default=256,
                     help="target block count of the shared dataset (default 256)")
    srv.add_argument("--serve-scale", type=float, default=0.08,
                     help="per-axis shrink of the paper resolution (default 0.08)")
    srv.add_argument("--cache-ratio", type=float, default=0.5)
    srv.add_argument("--policy", choices=list(POLICY_NAMES), default="lru")
    srv.add_argument("--partition", choices=("equal", "none"), default="equal",
                     help="tenant cache partition: equal per-tenant quotas "
                          "(default) or none (free-for-all sharing)")
    srv.add_argument("--serve-seed", type=int, default=0,
                     help="seed of the whole scenario (mix, arrivals, paths)")
    srv.add_argument("--label", default="local",
                     help="names the output file: writes MATRIX_<label>.json")
    srv.add_argument("--out", type=Path, default=Path("."),
                     help="directory the snapshot is written into (default: cwd)")

    mat = sub.add_parser(
        "matrix",
        help="declarative experiment-matrix runner: run a spec (and write its "
             "HTML report), or compare two matrix documents",
    )
    mat_sub = mat.add_subparsers(dest="matrix_command", required=True)
    mrun = mat_sub.add_parser(
        "run", help="expand and run a matrix spec; write MATRIX_<label>.json"
    )
    mrun.add_argument("spec",
                      help="bundled spec name (e.g. 'smoke') or a .toml/.json path")
    mrun.add_argument("--workers", type=_positive_int, default=1,
                      help="worker processes for the matrix cells (default 1: serial)")
    mrun.add_argument("--out", type=Path, default=Path("."),
                      help="directory the document is written into (default: cwd)")
    mrun.add_argument("--label", default=None,
                      help="names the output file MATRIX_<label>.json (default: "
                           "the spec's label); cell keys always come from the spec")
    mrun.add_argument("--report", type=Path, default=None, metavar="PATH",
                      help="also write the self-contained HTML report there")
    mcmp = mat_sub.add_parser(
        "compare", help="compare two matrix documents on their simulated metrics"
    )
    mcmp.add_argument("old", help="baseline MATRIX_<label>.json")
    mcmp.add_argument("new", help="candidate MATRIX_<label>.json")
    mcmp.add_argument("--threshold", type=float, default=0.10,
                      help="relative regression threshold (default 0.10)")
    mcmp.add_argument("--warn-only", action="store_true",
                      help="report regressions but exit 0 (PR-gate mode)")
    mcmp.add_argument("--verbose", action="store_true",
                      help="show unchanged metrics in the comparison table")

    ren = sub.add_parser("render", help="ray-cast one frame to a PPM image")
    _add_dataset_args(ren)
    ren.add_argument("--out", type=Path, default=Path("frame.ppm"))
    ren.add_argument("--camera", type=float, nargs=3, default=(2.5, 0.0, 0.0),
                     metavar=("X", "Y", "Z"))
    ren.add_argument("--view-angle", type=float, default=30.0)
    ren.add_argument("--size", type=int, default=160, help="image width=height")
    ren.add_argument("--tf", choices=("grayscale", "fire", "coolwarm"), default="fire")
    return parser


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", choices=sorted(DATASETS), default="3d_ball")
    p.add_argument("--blocks", type=int, default=512, help="target block count")
    p.add_argument("--scale", type=float, default=None,
                   help="per-axis shrink of the paper resolution (default per dataset)")
    p.add_argument("--seed", type=int, default=0)


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--faults", choices=list(FAULT_PROFILES), default="none",
                   help="inject seeded storage faults from a named profile "
                        "(default: none — fault-free fast path)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed of the deterministic fault draws (default 0)")


def _add_path_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--path-type", choices=WORKLOAD_NAMES, default="random")
    p.add_argument("--steps", type=int, default=120, help="camera positions on the path")
    p.add_argument("--degrees", type=float, nargs=2, default=(5.0, 10.0),
                   metavar=("LO", "HI"), help="per-step direction change range")
    p.add_argument("--distance", type=float, default=2.5)
    p.add_argument("--trace-file", type=Path, default=None, metavar="PATH",
                   help="camera-trace JSONL replayed by --path-type recorded")


def _make_path(args, setup: ExperimentSetup):
    kwargs = {}
    if getattr(args, "trace_file", None) is not None:
        kwargs["trace_file"] = str(args.trace_file)
    return WORKLOADS.create(
        args.path_type,
        steps=args.steps,
        degrees=tuple(args.degrees),
        distance=args.distance,
        view_angle_deg=setup.view_angle_deg,
        seed=args.seed,
        **kwargs,
    )


def _make_setup(args, sampling: Optional[SamplingConfig] = None) -> ExperimentSetup:
    return ExperimentSetup.for_dataset(
        args.dataset,
        target_n_blocks=args.blocks,
        scale=args.scale,
        sampling=sampling or SamplingConfig(),
        seed=args.seed,
    )


def _cmd_info(args) -> int:
    from repro import __version__

    print(f"repro {__version__}")
    print()
    print(dataset_table())
    print()
    print(f"policies: {', '.join(POLICY_NAMES)} (+ belady with a trace, + app-aware)")
    return 0


def _cmd_preprocess(args) -> int:
    sampling = SamplingConfig(n_directions=args.directions, n_distances=args.distances)
    setup = _make_setup(args, sampling)
    args.out.mkdir(parents=True, exist_ok=True)
    vpath = setup.visible_table.save(args.out / f"{args.dataset}_t_visible.npz")
    ipath = setup.importance_table.save(args.out / f"{args.dataset}_t_important.npz")
    print(f"T_visible:   {vpath}  ({setup.visible_table.n_entries} entries, "
          f"mean set size {setup.visible_table.entry_sizes().mean():.1f})")
    print(f"T_important: {ipath}  ({setup.importance_table.n_blocks} blocks)")
    return 0


def _cmd_replay(args) -> int:
    try:
        config = RunConfig.from_cli(args, command="replay")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup = _make_setup(args)
    path = make_workload(config, setup.view_angle_deg)
    if args.record is not None:
        from repro.camera.recorded import write_camera_trace

        write_camera_trace(path, args.record)
        print(f"camera trace: {args.record} ({len(path)} positions)")
    results = compare_policies(
        setup,
        path,
        baselines=config.policies,
        include_belady=config.belady,
        include_app_aware=config.app_aware,
        cache_ratio=config.cache_ratio,
        faults=config.faults,
        fault_seed=config.fault_seed,
        shards=config.shards,
        shard_map=config.shard_map,
    )
    title = (f"{config.dataset} ({setup.grid.n_blocks} blocks), {path.name}, "
             f"{config.steps} steps, cache ratio {config.cache_ratio}")
    if config.shards > 1:
        title += f", {config.shards} shards ({config.shard_map})"
    if config.faults != "none":
        title += f", faults {config.faults} (seed {config.fault_seed})"
    print(format_run_summaries(results, title=title))
    if config.faults != "none":
        for res in results.values():
            dropped = int(res.extras.get("dropped_blocks", 0))
            degraded = int(res.extras.get("degraded_frames", 0))
            stats = res.extras.get("fault_stats", {})
            print(f"{res.name}: {stats.get('errors', 0)} injected errors, "
                  f"{stats.get('retries', 0)} retries, "
                  f"{stats.get('breaker_opens', 0)} breaker opens, "
                  f"{dropped} dropped blocks over {degraded} degraded frames")
    return 0


def _warn_dropped(n_dropped: int) -> None:
    print(f"warning: ring buffer dropped {n_dropped} events — "
          f"per-step aggregates above are skewed toward the end of the run "
          f"(raise --capacity for an exact ledger)")


def _cmd_trace(args) -> int:
    from repro.runtime.drivers import run_baseline
    from repro.experiments.report import format_trace_report
    from repro.trace import (
        Tracer, aggregate, read_jsonl, seq_drop_stats, write_chrome_trace, write_jsonl,
    )

    if args.from_jsonl is not None:
        try:
            events = read_jsonl(args.from_jsonl)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        summary = aggregate(events)
        print(format_trace_report(summary, title=f"trace {args.from_jsonl}"))
        drops = seq_drop_stats(events)
        if drops:
            _warn_dropped(drops["n_dropped"])
        try:
            out = write_chrome_trace(events, args.out)
        except ValueError as exc:  # raised before the file is created
            print(f"error: {args.from_jsonl}: {exc}", file=sys.stderr)
            return 2
        print(f"chrome trace: {out} ({len(events)} events; open in chrome://tracing "
              f"or https://ui.perfetto.dev)")
        return 0

    setup = _make_setup(args)
    path = _make_path(args, setup)
    context = setup.context(path)
    tracer = Tracer(capacity=args.capacity)
    if args.policy == "app-aware":
        result = setup.optimizer().run(
            context, setup.hierarchy("lru", args.cache_ratio), tracer=tracer
        )
    else:
        result = run_baseline(
            context, setup.hierarchy(args.policy, args.cache_ratio), tracer=tracer
        )

    events = tracer.events()
    summary = aggregate(events)
    title = (f"{args.dataset} ({setup.grid.n_blocks} blocks), {path.name}, "
             f"{args.steps} steps, policy {args.policy}")
    print(format_trace_report(summary, result, title=title))
    drops = tracer.drop_stats()
    print(f"tracer: {drops['n_recorded']} events recorded, "
          f"{drops['n_retained']} retained, {drops['n_dropped']} dropped "
          f"(capacity {drops['capacity']})")
    if tracer.n_dropped:
        _warn_dropped(tracer.n_dropped)
    out = write_chrome_trace(events, args.out)
    print(f"chrome trace: {out} ({len(events)} events; open in chrome://tracing "
          f"or https://ui.perfetto.dev)")
    if args.jsonl is not None:
        print(f"jsonl: {write_jsonl(events, args.jsonl)}")
    return 0


def _analysis_prom_snapshot(doc) -> dict:
    """Registry metrics + synthetic attribution/forensics series for --prom."""
    from repro.obs.prometheus import labeled_key, merge_snapshots, relabel_snapshot
    from repro.obs.report import attribution_sections

    counters, gauges = {}, {}

    def counter(name, labels, value):
        counters[labeled_key(name, labels)] = {"value": float(value)}

    def gauge(name, labels, value):
        gauges[labeled_key(name, labels)] = {"value": float(value)}

    snaps = []
    for key, cell in (doc.get("cells") or {}).items():
        if cell.get("metrics"):
            snaps.append(relabel_snapshot(cell["metrics"], {"cell": key}))
    for label, attr in attribution_sections(doc):
        sec = {"section": label}
        for comp, v in (attr.get("demand_components") or {}).items():
            counter("attribution_component_seconds",
                    {**sec, "channel": "demand", "component": comp}, v)
        for comp, v in (attr.get("prefetch_components") or {}).items():
            counter("attribution_component_seconds",
                    {**sec, "channel": "prefetch", "component": comp}, v)
        for kind, v in (attr.get("totals") or {}).items():
            counter("attribution_time_seconds",
                    {**sec, "kind": kind.removesuffix("_s")}, v)
        counter("attribution_re_miss_total", sec, attr.get("n_re_miss", 0))
        counter("attribution_degraded_total", sec, attr.get("n_degraded", 0))
        counter("attribution_degraded_extra_seconds", sec,
                attr.get("degraded_extra_s", 0.0))
        if attr.get("reconciled") is not None:
            gauge("attribution_reconciled", sec, 1 if attr["reconciled"] else 0)
        gauge("attribution_exact", sec, 1 if attr.get("exact", True) else 0)
        gauge("attribution_incomplete", sec, 1 if attr.get("incomplete") else 0)
        forensics = attr.get("forensics")
        if forensics:
            counter("eviction_lineage_evictions_total", sec,
                    forensics.get("n_evictions", 0))
            counter("eviction_lineage_re_misses_total", sec,
                    forensics.get("n_re_misses", 0))
            counter("eviction_lineage_premature_total", sec,
                    forensics.get("n_premature", 0))
        regret = attr.get("regret")
        if regret:
            rl = {**sec, "policy": str(regret.get("policy", ""))}
            gauge("cache_regret_misses", rl, regret.get("regret", 0))
            gauge("cache_actual_fast_misses", rl, regret.get("actual_fast_misses", 0))
            gauge("cache_belady_misses", rl, regret.get("belady_misses", 0))
    snaps.append({"counters": counters, "gauges": gauges})
    return merge_snapshots(*snaps)


def _cmd_analyze(args) -> int:
    import json

    from repro.obs.report import attribution_sections, write_report

    source = args.source
    if source is None:
        from repro.experiments.matrix import run_matrix
        from repro.obs.bench import tier_spec

        print("no source given: running the quick bench tier in-process")
        doc = run_matrix(tier_spec("default", quick=True), progress=print)
        title = args.title or "repro analyze — quick bench tier"
    elif str(source).endswith(".jsonl"):
        from repro.obs.attribution import attribute_run
        from repro.trace import read_jsonl, seq_drop_stats

        try:
            events = read_jsonl(source)
            doc = attribute_run(events, drop_stats=seq_drop_stats(events)).as_dict(
                include_frames=True
            )
        except (ValueError, OverflowError, OSError) as exc:
            # unreadable or unfoldable (read_jsonl), or an infinite time
            print(f"error: {exc}", file=sys.stderr)
            return 2
        title = args.title or f"repro analyze — trace {source}"
    else:
        try:
            doc = json.loads(Path(source).read_text())
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not isinstance(doc, dict):
            print(f"error: {source}: not a JSON object", file=sys.stderr)
            return 2
        title = args.title or f"repro analyze — {source}"

    path = write_report(doc, args.out, title=title)
    sections = list(attribution_sections(doc))
    print(f"wrote {path} ({len(sections)} attribution section(s))")
    failed = []
    for label, attr in sections:
        rec = attr.get("reconciled")
        line = (f"  {label}: reconciled={rec} exact={attr.get('exact', True)} "
                f"incomplete={attr.get('incomplete', False)}")
        regret = attr.get("regret")
        if regret:
            line += f" regret={regret.get('regret')}"
        print(line)
        if rec is False:
            failed.append(label)
    if args.prom is not None:
        from repro.obs.prometheus import write_prometheus

        print(f"prometheus: {write_prometheus(_analysis_prom_snapshot(doc), args.prom)}")
    if failed:
        print(f"error: {len(failed)} section(s) failed ledger reconciliation: "
              f"{', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _print_multi_tenant(name: str, mt) -> None:
    frames = mt["frame_times"]
    print(f"multi_tenant[{name}]: {mt['n_sessions']} sessions, makespan "
          f"{mt['makespan_s']:.3f}s sim; fairness (Jain, hit rate) "
          f"{frames['fairness_jain']:.4f}; pooled frame time p99 "
          f"{frames['pooled']['p99'] * 1e3:.2f} ms; "
          f"cross-tenant evictions: {mt['cross_evictions']}")


def _run_and_write(spec, out, label=None, workers=1, profile=None, report=None) -> int:
    """Run ``spec`` through ``run_matrix``, write ``MATRIX_<label>.json``
    and print its sections: exit 2 when the spec or its runner refuses the
    run, 1 when a sharded cell's network ledger fails to reconcile."""
    from repro.experiments.gating import load_snapshot, write_snapshot
    from repro.experiments.matrix import run_matrix

    try:
        doc = run_matrix(spec, workers=workers, progress=print, profile=profile)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = write_snapshot(doc, out, label=label)
    print(f"wrote {path} ({doc['n_cells']} cells, runner {doc['runner']}, "
          f"{doc['workers']} worker(s), schema v{doc['schema_version']}, "
          f"suite {doc['suite_wall_s']:.2f}s wall)")
    for key, cell in doc["cells"].items():
        if "faults" in cell:
            fs = cell["faults"]["stats"]
            print(f"faults[{key}]: {fs['errors']} errors, {fs['retries']} retries, "
                  f"{fs['timeouts']} timeouts, {fs['dropped_blocks']} dropped blocks")
        if "cluster" in cell:
            cl = cell["cluster"]
            print(f"cluster[{key}]: {cl['n_nodes']} nodes, map "
                  f"{cl['shard_map']['strategy']}, locality "
                  f"{cl['shard_map']['locality_score']:.3f}; peer "
                  f"{cl['split_bytes']['peer'] / 1e6:.2f} MB over "
                  f"{cl['peer_transfers']} transfers, cold fallback "
                  f"{cl['split_bytes']['cold'] / 1e6:.2f} MB "
                  f"({cl['link_fallbacks']} severed-link fallbacks)")
        if "multi_tenant" in cell:
            _print_multi_tenant(key, cell["multi_tenant"])
    suite = doc.get("suite", {})
    if "multi_tenant" in suite:
        _print_multi_tenant("suite", suite["multi_tenant"])
    if "fullscale" in suite:
        fs = suite["fullscale"]
        print(f"fullscale: table build {fs['table_build_wall_s']:.2f}s wall "
              f"({fs['n_samples']} samples, mean set {fs['mean_set_size']:.1f}); "
              f"importance {fs['importance_wall_s']:.2f}s; "
              f"peak RSS {fs['peak_rss_bytes'] / 2**30:.2f} GiB")
    if "profile" in doc:
        print(f"profile: {doc['profile']['path']} (cell {doc['profile']['cell']})")
    if report is not None:
        from repro.obs.report import write_report

        # Render the document as written (keys sorted), as `analyze` reads it.
        print(f"report: {write_report(load_snapshot(path), report)}")
    unreconciled = [k for k, c in doc["cells"].items() if c.get("ledger_reconciles") is False]
    if unreconciled:
        print(f"error: the cluster network ledger failed to reconcile in "
              f"{', '.join(unreconciled)} (bytes moved != local + ghost + peer + "
              f"cold, or peer bytes != the per-link sum)", file=sys.stderr)
        return 1
    return 0


#: Why the cluster and fullscale tiers refuse ``--faults``.
_FAULTS_REFUSED = {
    "cluster": "the scenario pins its own link-partition fault profile",
    "fullscale": "wall-clock numbers would measure the injector",
}


def _cmd_bench(args) -> int:
    import dataclasses

    from repro.obs.bench import tier_spec

    try:
        config = RunConfig.from_cli(args, command="bench")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = tier_spec(args.tier, args.quick)
    if config.faults != "none":
        if args.tier in _FAULTS_REFUSED:
            print(f"error: --faults is not supported on the {args.tier} tier "
                  f"({_FAULTS_REFUSED[args.tier]})", file=sys.stderr)
            return 2
        spec = dataclasses.replace(
            spec, base={**spec.base, "faults": config.faults, "fault_seed": config.fault_seed}
        )
    return _run_and_write(
        spec, args.out, label=args.label, workers=args.workers, profile=args.profile
    )


def _cmd_serve_sim(args) -> int:
    from repro.experiments.matrix import MatrixSpec

    spec = MatrixSpec(
        label="serve-sim",
        runner="serve",
        base={
            "blocks": args.serve_blocks,
            "scale": args.serve_scale,
            "steps": args.session_steps,
            "cache_ratio": args.cache_ratio,
            "policy": args.policy,
            "seed": args.serve_seed,
            "sessions": args.sessions,
        },
        setup={
            "mix": list(args.mix),
            "arrival_rate_hz": args.arrival_rate,
            "partition": args.partition,
            "attribution": True,
        },
    )
    return _run_and_write(spec, args.out, label=args.label)


def _cmd_matrix(args) -> int:
    from repro.experiments.gating import (
        compare_snapshots,
        count_regressions,
        format_gate_rows,
        load_snapshot,
    )
    from repro.experiments.matrix import load_spec

    if args.matrix_command == "compare":
        # Exit 2 on an unreadable document or two that ran different
        # runners or axes, 1 on a regression (unless --warn-only).
        try:
            rows = compare_snapshots(
                load_snapshot(args.old), load_snapshot(args.new), threshold=args.threshold
            )
        except (ValueError, OSError, KeyError) as exc:
            print(f"error: {exc}")
            return 2
        print(f"comparing {args.old} -> {args.new}, threshold {args.threshold:.0%}")
        print(format_gate_rows(rows, verbose=args.verbose))
        n_regressions = count_regressions(rows)
        if n_regressions and args.warn_only:
            print(f"warn-only: {n_regressions} regression(s) ignored")
            return 0
        return 1 if n_regressions else 0

    try:
        spec = load_spec(args.spec)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _run_and_write(
        spec, args.out, label=args.label, workers=args.workers, report=args.report
    )


def _cmd_render(args) -> int:
    from repro.camera.model import Camera
    from repro.render.raycast import Raycaster, RenderSettings
    from repro.render.transfer_function import TransferFunction

    setup = _make_setup(args)
    tf = {
        "grayscale": TransferFunction.grayscale_ramp,
        "fire": TransferFunction.fire,
        "coolwarm": TransferFunction.cool_warm,
    }[args.tf]()
    rc = Raycaster(
        setup.volume, tf,
        RenderSettings(width=args.size, height=args.size, n_samples=args.size),
    )
    cam = Camera(tuple(args.camera), args.view_angle)
    image = rc.render(cam)
    Raycaster.to_ppm(image, str(args.out))
    print(f"wrote {args.out} ({args.size}x{args.size}, camera d={cam.distance:.2f})")
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "preprocess": _cmd_preprocess,
    "replay": _cmd_replay,
    "trace": _cmd_trace,
    "analyze": _cmd_analyze,
    "bench": _cmd_bench,
    "serve-sim": _cmd_serve_sim,
    "matrix": _cmd_matrix,
    "render": _cmd_render,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
