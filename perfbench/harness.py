"""Measurement loop, output checks and metrics of the repository benchmark.

An untraced run repeats workload iterations for the measured seconds with
one hook installed: a timestamp at every frame start, taken by wrapping
``repro.runtime.stages.DemandFetchStage.step`` (every workload calls it
exactly once per frame), plus marks where each replay call begins and
ends.  Timestamps are read from :data:`spans.CLOCK`, the process CPU clock,
and every timed stretch is scaled by a host-speed probe timed at the frame
starts around it (see :class:`FrameClock` and :func:`fastest`).
Since every iteration replays identical inputs, the frame metrics take each
frame's (and each stretch between frames') fastest time over the run's
iterations, and set-up time is the median over them.  A traced run first measures untraced iterations for
half its seconds, then traced ones (every layer call site wrapped in a span,
see :mod:`spans`) for the other half; the two frame rates give the tracing
overhead.

Output checks run after each iteration, outside the timed region: the
hierarchy invariants, trace byte conservation, the cluster ledger, the
serve attribution reconciliation, a dense-kernel recomputation of sampled
visible sets, and a digest of the simulated results that must repeat
across iterations, across traced and untraced runs, and, on the default
seed, match the digest recorded in ``digests.json``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import spans
import workloads
from spans import CLOCK, SpanRecorder, patched

HERE = Path(__file__).resolve().parent
DIGESTS_FILE = HERE / "digests.json"
OUT_DIR = HERE / "out"
DEFAULT_SEED = 0

#: End-to-end metrics (untraced run) and their units.
END_TO_END = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "frame_ms_p50": "ms",
    "frame_ms_p99": "ms",
    "peak_rss_mib": "MiB",
    "sim_frame_ms": "sim_ms",
    "sim_frame_ms_p99": "sim_ms",
    "dram_miss_rate": "ratio",
}

#: Exact per-replay counts the traced run reports (per iteration).
COUNTS = (
    "trace.events", "trace.dropped", "faults.injected", "faults.retries",
    "storage.dropped_blocks", "cluster.peer_transfers", "cluster.link_fallbacks",
)

#: Workloads whose visible sets come from a culled Eq. 1 kernel.
CULLED = ("replay",)
DENSE_SAMPLES = 8

#: The speed probe's median time on the idle 2-core Xeon VM the bounds
#: were set on; scaled times read as CPU seconds on that host.
PROBE_REF_S = 18e-6
#: Frames whose probe times give one piece's local host speed (median).
PROBE_WINDOW = 33


def _probe_work() -> int:
    """A fixed loop of interpreter arithmetic (about 20 us), independent of
    the package: timed at every frame start, its median over the frames
    around a piece gauges how fast the shared host ran that piece."""
    acc = 0
    for i in range(300):
        acc += i * i
    return acc


def _probe_burst(n: int = 9) -> float:
    """The median of ``n`` probe times: the host speed at one instant."""
    samples = []
    for _ in range(n):
        t0 = CLOCK()
        _probe_work()
        samples.append(CLOCK() - t0)
    return statistics.median(samples)


#: Codes of the run-phase marks a FrameClock records.
FRAME, BEGIN, END = 0, 1, 2


class FrameClock:
    """Timestamps of one iteration: its entry call, then every replay
    call's begin, frame starts and end, then the iteration's end.

    While ``probing``, each frame start first times :func:`_probe_work`,
    and the entry call and each replay call's end a :func:`_probe_burst`
    (``entry_probe`` and ``bursts``, NaN at other marks), for the stretches
    without frames.  ``probes`` holds the probe time before each mark's
    timestamp, which the pieces leave out.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.codes: List[int] = []
        self.probes: List[float] = []
        self.bursts: List[float] = []
        self.entry_probe = float("nan")
        self.probing = True
        self.t_entry = 0.0
        self.t_end = 0.0
        self.recorder: Optional[SpanRecorder] = None

    def hook(self, step):
        clock = self
        now = CLOCK

        def timed_step(stage, engine, frame):
            t0 = t1 = now()
            if clock.probing:
                _probe_work()
                t1 = now()
            clock.times.append(t1)
            clock.codes.append(FRAME)
            clock.probes.append(t1 - t0)
            clock.bursts.append(float("nan"))
            return step(stage, engine, frame)

        return timed_step

    def _mark(self, code: int, burst: bool = False) -> None:
        t0 = t1 = CLOCK()
        speed = float("nan")
        if burst and self.probing:
            speed = _probe_burst()
            t1 = CLOCK()
        self.times.append(t1)
        self.codes.append(code)
        self.probes.append(t1 - t0)
        self.bursts.append(speed)

    def entry(self) -> None:
        """The workload's entry call starts (imports are done)."""
        self.times, self.codes, self.probes, self.bursts = [], [], [], []
        self.entry_probe = _probe_burst() if self.probing else float("nan")
        self.t_entry = CLOCK()
        if self.recorder is not None:
            self.recorder.open_root(self.t_entry)

    def begin_call(self) -> None:
        """A replay call starts."""
        self._mark(BEGIN)

    def end_call(self) -> None:
        """A replay call returned."""
        self._mark(END, burst=True)

    def end(self) -> None:
        """The last replay call returned."""
        self.t_end = CLOCK()
        if self.recorder is not None:
            self.recorder.close_root(self.t_end)


@dataclass
class Timing:
    """Clock figures of one iteration, in CPU seconds (see spans.CLOCK).

    ``pieces`` cut the run phase, from the first frame start to the end of
    the iteration, at every mark; ``is_gap`` flags the pieces that run
    from one frame start to the next inside one replay call.  ``scales``
    (per piece) and ``setup_scale`` are ``PROBE_REF_S`` over the host's
    probe time around them (1 when unprobed).
    """

    setup_s: float
    pieces: np.ndarray
    is_gap: np.ndarray
    n_frames: int
    scales: np.ndarray
    setup_scale: float = 1.0

    @property
    def scale(self) -> float:
        return float(np.median(self.scales))

    @property
    def run_s(self) -> float:
        return float(self.pieces.sum())

    @property
    def gaps(self) -> np.ndarray:
        return self.pieces[self.is_gap]

    @property
    def frames_per_s(self) -> float:
        return self.n_frames / self.run_s if self.run_s > 0 else 0.0


def _timing(clock: FrameClock) -> Optional[Timing]:
    codes = np.asarray(clock.codes)
    frames = np.flatnonzero(codes == FRAME)
    if not frames.size:
        return None
    first = int(frames[0])
    times = np.append(np.asarray(clock.times[first:]), clock.t_end)
    probes = np.asarray(clock.probes)
    run = codes[first:]
    local = np.full(frames.size, PROBE_REF_S)
    if clock.probing:
        w = min(PROBE_WINDOW, frames.size)
        padded = np.pad(probes[frames], (w // 2, w - 1 - w // 2), mode="edge")
        local = np.median(np.lib.stride_tricks.sliding_window_view(padded, w), axis=1)
    # Each piece takes the window of the last frame started at or before
    # it, averaged with the burst at its end where it has one (the end of
    # a replay call: the stretch after its last frame has no frame probes).
    last_frame = np.searchsorted(frames, np.arange(first, codes.size), side="right") - 1
    before = local[last_frame]
    after = np.append(np.asarray(clock.bursts[first + 1:]), np.nan)
    speed = np.where(np.isfinite(after), (before + after) / 2, before)
    entry = clock.entry_probe
    setup_speed = (entry + local[0]) / 2 if np.isfinite(entry) else local[0]
    return Timing(
        setup_s=float(times[0] - probes[first] - clock.t_entry),
        pieces=np.diff(times) - np.append(probes[first + 1:], 0.0),
        is_gap=np.append((run[:-1] == FRAME) & (run[1:] == FRAME), False),
        n_frames=int(frames.size),
        scales=PROBE_REF_S / speed,
        setup_scale=float(PROBE_REF_S / setup_speed),
    )


def fastest(timings: List[Timing], scaled: bool = True) -> Timing:
    """One iteration made of each piece's fastest time over ``timings``,
    with their median set-up time, each time scaled by its local probe
    scale when ``scaled``.

    A shared host changes how fast it runs this process for seconds to
    minutes at a time (measured at up to 1.8x on the 2-core VM the bounds
    were set on), and the CPU clock counts that; the scale takes out what
    lasts through a few dozen frames.  Every iteration of a run replays
    identical inputs, so piece *k* is the same work in each; its fastest
    time is the one the rest of the host disturbed least.  Iterations cut
    differently from the first (a replay call that failed) are left out.
    """
    first = timings[0]
    same = [t for t in timings if np.array_equal(t.is_gap, first.is_gap)]
    return Timing(
        setup_s=statistics.median(
            t.setup_s * (t.setup_scale if scaled else 1.0) for t in timings
        ),
        pieces=np.min([t.pieces * (t.scales if scaled else 1.0) for t in same], axis=0),
        is_gap=first.is_gap,
        n_frames=first.n_frames,
        scales=np.ones(first.pieces.size),
    )


# ---------------------------------------------------------------------------
# output checks


def sim_digest(replay: workloads.Replay) -> str:
    """Digest of a replay's simulated results (bit-exact floats)."""
    h = hashlib.sha256()
    if replay.document is not None:
        h.update(json.dumps(replay.document, sort_keys=True).encode())
    for run in replay.runs:
        rows = np.array(
            [
                (s.n_visible, s.n_fast_misses, s.n_prefetched, s.io_time_s,
                 s.lookup_time_s, s.prefetch_time_s, s.render_time_s)
                for s in run.steps
            ],
            dtype=np.float64,
        )
        h.update(rows.tobytes())
        h.update(json.dumps(run.summary(), sort_keys=True, default=str).encode())
        h.update(json.dumps(run.hierarchy_stats.as_dict(), sort_keys=True).encode())
    return h.hexdigest()[:20]


def _dense_mismatches(it: workloads.Iteration, seed: int) -> Dict[str, str]:
    """Recompute sampled visible sets with the dense kernel; context -> problem."""
    from repro.camera.frustum import visible_ids_batch

    problems = {}
    rng = np.random.default_rng(seed)
    for label, context in it.contexts.items():
        n = len(context.visible_sets)
        idx = np.sort(rng.choice(n, size=min(DENSE_SAMPLES, n), replace=False))
        dense = visible_ids_batch(
            context.path.positions[idx], context.grid, context.path.view_angle_deg,
            True, kernel="dense",
        )
        bad = [int(i) for i, ids in zip(idx, dense)
               if not np.array_equal(ids, context.visible_sets[i])]
        if bad:
            problems[label] = f"culled visible sets differ from dense at steps {bad}"
    return problems


def _check(workload: str, replay: workloads.Replay) -> List[str]:
    """Output checks of one replay; returns the problems found."""
    from repro.obs.bench_cluster import ledger_reconciles
    from repro.trace import aggregate

    if replay.error is not None:
        return [replay.error.strip().splitlines()[-1]]
    problems = []
    hierarchy = replay.hierarchy
    try:
        hierarchy.check_invariants()
    except AssertionError as exc:
        problems.append(f"invariants: {exc}")
    tracer = replay.tracer
    if tracer is not None:
        if tracer.n_dropped:
            problems.append(f"tracer dropped {tracer.n_dropped} events")
        moved = hierarchy.backing_bytes + hierarchy.stats().total_bytes_read
        traced = aggregate(tracer.events()).total_bytes
        if traced != moved:
            problems.append(f"trace bytes {traced} != bytes_moved {moved}")
    if workload == "cluster" and not ledger_reconciles(hierarchy):
        problems.append("cluster ledger does not reconcile")
    if workload == "serve":
        reports = replay.result.attribution or {}
        if not reports or not all(r.reconciled is True for r in reports.values()):
            problems.append("attribution does not reconcile")
    return problems


def _counters(replay: workloads.Replay) -> Dict[str, float]:
    """Exact per-replay counts for the traced run's guards."""
    out = dict.fromkeys(COUNTS + ("cluster.local_bytes", "cluster.routed_bytes"), 0)
    if replay.tracer is not None:
        out["trace.events"] = replay.tracer.n_recorded
        out["trace.dropped"] = replay.tracer.n_dropped
    if replay.injector is not None:
        stats = replay.injector.stats
        out["faults.injected"] = sum(stats.total(k) for k in ("errors", "spikes", "corruptions"))
        out["faults.retries"] = stats.total("retries")
    out["storage.dropped_blocks"] = sum(r.extras.get("dropped_blocks", 0) for r in replay.runs)
    if hasattr(replay.hierarchy, "cluster_ledger"):
        ledger = replay.hierarchy.cluster_ledger()
        out["cluster.peer_transfers"] = ledger["peer_transfers"]
        out["cluster.link_fallbacks"] = ledger["link_fallbacks"]
        out["cluster.local_bytes"] = ledger["split_bytes"]["local"]
        out["cluster.routed_bytes"] = sum(ledger["split_bytes"].values())
    return out


def _recorded_digests(workload: str) -> Optional[Dict[str, str]]:
    if not DIGESTS_FILE.is_file():
        return None
    return json.loads(DIGESTS_FILE.read_text())["workloads"].get(workload)


# ---------------------------------------------------------------------------
# the measurement loop


@dataclass
class Measurement:
    """Everything a phase of iterations produced."""

    timings: List[Timing] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)  # first iteration
    sim_times: Optional[np.ndarray] = None  # first iteration, seconds
    misses: int = 0
    demands: int = 0
    counters: Dict[str, float] = field(default_factory=dict)  # summed

    @property
    def n_iterations(self) -> int:
        return len(self.timings)


def measure(
    workload: str,
    size: str,
    seed: int,
    seconds: float,
    clock: FrameClock,
    min_iterations: int,
    expect: Optional[Dict[str, str]] = None,
) -> Measurement:
    """Repeat iterations while the next one is expected to end within
    ``seconds`` (at least ``min_iterations``), checking each afterwards.

    ``expect`` maps replay labels to digests every iteration must
    reproduce (the recorded default-seed digests, or another phase's).
    """
    iterate = workloads.make_workload(workload, size)
    m = Measurement()
    t_start = time.perf_counter()
    while True:
        gc.collect()  # each iteration starts from a collected heap, as the first does
        it = iterate(seed, clock)
        timing = _timing(clock)
        if timing is None:
            m.attempted += len(it.replays) or 1
            m.failed += len(it.replays) or 1
            m.problems.append("no frame was replayed")
            break
        m.timings.append(timing)
        dense = _dense_mismatches(it, seed) if workload in CULLED else {}
        first = m.n_iterations == 1
        sim_parts = []
        for replay in it.replays:
            m.attempted += 1
            try:
                problems = _check(workload, replay)
                if replay.error is None:
                    if replay.context in dense:
                        problems.append(dense[replay.context])
                    digest = sim_digest(replay)
                    want = m.digests.get(replay.label) if not first else None
                    if expect is not None and expect.get(replay.label) is not None:
                        want = expect[replay.label]
                    if want is not None and digest != want:
                        problems.append(f"sim digest {digest} != expected {want}")
                    if first:
                        m.digests[replay.label] = digest
                        sim_parts.append(workloads.frame_sim_times(replay))
                        misses, demands = workloads.demand_counts(replay)
                        m.misses += misses
                        m.demands += demands
                    for key, value in _counters(replay).items():
                        m.counters[key] = m.counters.get(key, 0.0) + value
            except Exception as exc:  # a broken output is a failed operation
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                m.failed += 1
                m.problems.extend(f"{replay.label}: {p}" for p in problems)
        if first and sim_parts:
            m.sim_times = np.concatenate(sim_parts)
        del it
        elapsed = time.perf_counter() - t_start
        if m.n_iterations >= min_iterations and elapsed * (1 + 1 / m.n_iterations) > seconds:
            break
    return m


def _peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(m: Measurement) -> Dict[str, float]:
    sim = m.sim_times if m.sim_times is not None and m.sim_times.size else np.zeros(1)
    best = fastest(m.timings)
    return {
        "setup_s": best.setup_s,
        "frames_per_s": best.frames_per_s,
        "frame_ms_p50": float(np.percentile(best.gaps, 50)) * 1e3,
        "frame_ms_p99": float(np.percentile(best.gaps, 99)) * 1e3,
        "peak_rss_mib": _peak_rss_mib(),
        "sim_frame_ms": float(np.mean(sim)) * 1e3,
        "sim_frame_ms_p99": float(np.quantile(sim, 0.99)) * 1e3,
        "dram_miss_rate": m.misses / m.demands if m.demands else 0.0,
    }


def counter_metrics(m: Measurement) -> Dict[str, Tuple[float, str]]:
    n = max(1, m.n_iterations)
    c = m.counters
    out = {name: (c.get(name, 0) / n, "count") for name in COUNTS}
    routed = c.get("cluster.routed_bytes", 0)
    out["cluster.local_byte_ratio"] = (
        c.get("cluster.local_bytes", 0) / routed if routed else 0.0, "ratio",
    )
    return out


def environment(seed: int, m: Measurement) -> Dict[str, object]:
    """The seed and environment record printed with every run."""
    gaps = fastest(m.timings).gaps if m.timings else np.zeros(0)
    p99 = float(np.percentile(gaps, 99)) if gaps.size else 0.0
    sim = m.sim_times if m.sim_times is not None else np.zeros(0)
    sim_p99 = float(np.quantile(sim, 0.99)) if sim.size else 0.0
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "iterations": m.n_iterations,
        "iteration_setup_s": [round(t.setup_s, 4) for t in m.timings],
        "iteration_frames_per_s": [round(t.frames_per_s, 2) for t in m.timings],
        "iteration_scale": [round(t.scale, 3) for t in m.timings],
        "frames_per_iteration": m.timings[0].n_frames if m.timings else 0,
        "frame_gaps": int(gaps.size),
        "frame_gaps_above_p99": int((gaps > p99).sum()),
        "sim_frames": int(sim.size),
        "sim_frames_above_p99": int((sim > sim_p99).sum()),
    }


# ---------------------------------------------------------------------------
# one run


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    out_dir: Optional[Path] = None,
) -> Dict[str, object]:
    """Run one workload; returns the result document (``correct``,
    ``attempted``, ``failed``, ``metrics``, plus ``env``/``problems``)."""
    from repro.runtime import stages

    if workload not in workloads.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {sorted(workloads.WORKLOADS)}")
    recorded = _recorded_digests(workload) if (seed, size) == (DEFAULT_SEED, "full") else None
    clock = FrameClock()
    with patched(stages.DemandFetchStage, "step", clock.hook):
        # One untimed tiny iteration first, so lazy imports and first calls
        # are not timed.
        workloads.make_workload(workload, "tiny")(seed, clock)
        base = measure(workload, size, seed, seconds / 2 if trace else seconds, clock,
                       min_iterations=2 if trace else 3, expect=recorded)
        traced = None
        if trace and base.timings:
            recorder = SpanRecorder()
            clock.recorder = recorder
            clock.probing = False  # the probe would count as runtime self time
            with spans.instrument(recorder):
                traced = measure(workload, size, seed, seconds / 2, clock,
                                 min_iterations=1, expect=base.digests)
            clock.recorder = None

    phases = [base] + ([traced] if traced is not None else [])
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [p for phase in phases for p in phase.problems]
    metrics: Dict[str, Tuple[float, str]] = {}
    if not trace and base.timings:
        values = end_to_end_metrics(base)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    elif traced is not None and traced.timings:
        metrics = spans.layer_metrics(recorder, traced.n_iterations)
        metrics.update(counter_metrics(traced))
        fps_plain = fastest(base.timings, scaled=False).frames_per_s
        fps_traced = fastest(traced.timings, scaled=False).frames_per_s
        metrics["bench.trace_overhead"] = (1.0 - fps_traced / fps_plain, "ratio")
        out_dir = out_dir or OUT_DIR
        stem = f"{workload}-seed{seed}"
        span_file = recorder.write_chrome_trace(out_dir / f"{stem}-spans.json")
        layers = {
            "workload": workload,
            "traced_iterations": traced.n_iterations,
            "iteration_wall_s": statistics.mean(t.setup_s + t.run_s for t in traced.timings),
            "frames_per_s": {"untraced": fps_plain, "traced": fps_traced},
            "self_time_table": spans.self_time_table(recorder),
            "metrics": {k: v for k, (v, _) in sorted(metrics.items())},
            "span_file": span_file.name,
            "spans": {"recorded": recorder.n_spans, "retained": len(recorder.spans)},
            "env": environment(seed, traced),
        }
        (out_dir / f"{stem}-layers.json").write_text(json.dumps(layers, indent=2) + "\n")
    if not metrics:
        problems.append("no metrics: the workload never replayed a frame")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(1, attempted),
        "failed": failed if metrics else max(1, failed),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
        "env": environment(seed, traced if traced is not None else base),
        "problems": problems,
        "digests": base.digests,
        "traced_digests": traced.digests if traced is not None else {},
    }


def record_digests(workload: str, digests: Dict[str, str]) -> None:
    """Store the default-seed digests of ``workload`` in ``digests.json``."""
    doc = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.is_file() else {
        "seed": DEFAULT_SEED, "size": "full", "workloads": {},
    }
    doc["workloads"][workload] = dict(sorted(digests.items()))
    DIGESTS_FILE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
