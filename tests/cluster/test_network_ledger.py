"""Conservation laws of the sharded byte/time ledgers.

Every byte a :class:`~repro.cluster.ShardedHierarchy` serves lands in
exactly one route of the split ledger, and every peer byte is charged to
exactly one link — checked with integer ``==``, no tolerance:

- ``bytes_moved`` (``backing_bytes`` + every level's ``bytes_read``)
  equals ``local + ghost + peer + cold``;
- ``peer`` equals the fabric total, the per-link sum, *and* the sum of
  ``xfer`` trace event payloads;
- attribution invariant **A** (exact float-fold reconciliation) extends
  to the ``peer_transfer:{link}`` component, and invariant **B** (exact
  ``Fraction`` partition) still holds with the new component present.

Each law is checked on the runtime's batched replay (``"batched"``) and
on the seed driver's per-block ``fetch`` loop (``"scalar"``).  The full
chaos x cluster sweep (every cluster fault profile x both replays x all
strategies) is marked ``slow``; a representative core runs in tier 1.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.camera.path import random_path
from repro.cluster import (
    CLUSTER_FAULT_PROFILES,
    SHARD_STRATEGIES,
    cluster_fault_plan,
    make_sharded_hierarchy,
    partitioned_links,
)
from repro.core.pipeline import PipelineContext
from repro.faults import FaultInjector
from repro.obs.attribution import attribute_run
from repro.obs.bench_cluster import ledger_reconciles
from repro.runtime import run_baseline
from repro.trace import Tracer
from repro.volume.blocks import BlockGrid
from repro.volume.synthetic import ball_field
from repro.volume.volume import Volume

from tests.runtime._seed_drivers import seed_run_baseline

VIEW = 10.0
REPLAYS = ("batched", "scalar")
N_NODES = 4
FAULT_SEED = 7


@pytest.fixture(scope="module")
def net_setup():
    volume = Volume(ball_field((32, 32, 32)), name="net_ball")
    grid = BlockGrid(volume.shape, (8, 8, 8))
    path = random_path(
        n_positions=10, degree_change=(5.0, 10.0), distance=2.5,
        view_angle_deg=VIEW, seed=11,
    )
    return grid, PipelineContext.create(path, grid)


def _sharded(grid, profile, strategy="slab", ghost_ratio=0.1):
    h = make_sharded_hierarchy(
        grid, N_NODES, strategy=strategy, cache_ratio=0.5, ghost_ratio=ghost_ratio
    )
    if profile != "none":
        h.set_fault_injector(
            FaultInjector(cluster_fault_plan(profile, N_NODES, seed=FAULT_SEED))
        )
    return h


def _run(context, grid, profile, replay, strategy="slab"):
    tracer = Tracer()
    h = _sharded(grid, profile, strategy=strategy)
    if replay == "scalar":
        result = seed_run_baseline(context, h, tracer=tracer, engine="scalar")
    else:
        result = run_baseline(context, h, tracer=tracer)
    return h, tracer, result


def _assert_bytes_conserved(h, tracer):
    ledger = h.cluster_ledger()
    split = ledger["split_bytes"]
    bytes_moved = h.backing_bytes + h.stats().total_bytes_read
    assert bytes_moved == sum(split.values())
    link_bytes = sum(row["bytes"] for row in ledger["links"].values())
    assert split["peer"] == ledger["peer_bytes"] == link_bytes
    xfer_bytes = sum(e.nbytes for e in tracer.events() if e.kind == "xfer")
    assert split["peer"] == xfer_bytes
    assert ledger_reconciles(h)
    # the run extras pin the same number: movement_extras' bytes_moved
    assert bytes_moved == h.backing_bytes + sum(
        s.bytes_read for s in h.stats().levels.values()
    )


def _assert_partition_exact(report):
    """Invariant B with peer_transfer components in the mix."""
    for frame in report.frames:
        assert sum(
            (Fraction(v) for v in frame.components.values()), Fraction(0)
        ) == Fraction(frame.io_time_s)
        assert sum(
            (Fraction(v) for v in frame.prefetch_components.values()), Fraction(0)
        ) == Fraction(frame.prefetch_time_s)


class TestByteConservation:
    @pytest.mark.parametrize("replay", REPLAYS)
    @pytest.mark.parametrize("profile", ("none", "link-partition"))
    def test_split_sums_to_bytes_moved(self, net_setup, profile, replay):
        grid, context = net_setup
        h, tracer, _ = _run(context, grid, profile, replay)
        _assert_bytes_conserved(h, tracer)

    def test_partition_forces_cold_fallbacks(self, net_setup):
        grid, context = net_setup
        h, tracer, _ = _run(context, grid, "link-partition", "batched")
        ledger = h.cluster_ledger()
        severed = partitioned_links(N_NODES)[0]
        assert ledger["links"][severed]["fallbacks"] > 0
        assert ledger["links"][severed]["bytes"] == 0  # nothing crosses it
        assert ledger["split_bytes"]["cold"] > 0
        assert ledger["fallback_reads"] > 0

    def test_fault_free_run_never_touches_cold_store(self, net_setup):
        grid, context = net_setup
        h, _, _ = _run(context, grid, "none", "batched")
        ledger = h.cluster_ledger()
        assert ledger["split_bytes"]["cold"] == 0
        assert ledger["link_fallbacks"] == 0
        assert ledger["split_bytes"]["peer"] > 0  # remote blocks did move

    def test_engines_agree_on_the_ledger(self, net_setup):
        grid, context = net_setup
        ha, _, ra = _run(context, grid, "link-partition", "batched")
        hb, _, rb = _run(context, grid, "link-partition", "scalar")
        assert ha.cluster_ledger() == hb.cluster_ledger()
        assert [s.io_time_s for s in ra.steps] == [s.io_time_s for s in rb.steps]

    def test_ghost_hits_stay_off_the_network(self, net_setup):
        grid, context = net_setup
        h = _sharded(grid, "none", ghost_ratio=1.0)
        tracer = Tracer()
        h.set_tracer(tracer)
        ids = np.arange(grid.n_blocks, dtype=np.int64)
        h.fetch_many(ids, 0)
        first = dict(h.cluster_ledger())
        h.fetch_many(ids, 1)
        second = h.cluster_ledger()
        assert second["peer_bytes"] == first["peer_bytes"]  # replayed from ghost
        assert second["split_bytes"]["ghost"] > 0
        _assert_bytes_conserved(h, tracer)  # conserved with no second-pass xfers


class TestAttributionInvariants:
    @pytest.mark.parametrize("replay", REPLAYS)
    @pytest.mark.parametrize("profile", ("none", "link-partition"))
    def test_invariant_a_extends_to_peer_transfer(self, net_setup, profile, replay):
        grid, context = net_setup
        _, tracer, result = _run(context, grid, profile, replay)
        report = attribute_run(
            tracer.events(), result.steps, drop_stats=tracer.drop_stats()
        )
        assert report.exact
        assert report.reconciled is True
        for frame, row in zip(report.frames, result.steps):
            assert frame.io_time_s == row.io_time_s  # float ==, no tolerance
        comps = set()
        for f in report.frames:
            comps.update(f.components)
        assert any(c.startswith("peer_transfer:n") for c in comps)
        if profile == "link-partition":
            assert "fault_penalty" in comps  # severed-link probes
        _assert_partition_exact(report)

    def test_peer_transfer_component_matches_fabric_time(self, net_setup):
        """The run-level peer_transfer components agree with the fabric's
        time ledger.

        The components are *fold marginals* (invariant B), so they absorb
        the float-rounding dust of their position in the fold — they match
        the raw per-event sum to fold precision, not bit-for-bit, while
        still partitioning ``io_time_s`` exactly."""
        grid, context = net_setup
        h, tracer, result = _run(context, grid, "none", "batched")
        report = attribute_run(tracer.events(), result.steps)
        peer = sum(
            (v for c, v in report.demand_components.items()
             if c.startswith("peer_transfer:")),
            Fraction(0),
        )
        ledger = h.cluster_ledger()
        assert float(peer) == pytest.approx(ledger["peer_time_s"], rel=1e-9)
        # and the components name real links, one per peer the home talked to
        links = {c.split(":", 1)[1] for c in report.demand_components
                 if c.startswith("peer_transfer:")}
        assert links == {name for name, row in ledger["links"].items()
                         if row["transfers"]}


@pytest.mark.slow
@pytest.mark.parametrize("replay", REPLAYS)
@pytest.mark.parametrize("profile", CLUSTER_FAULT_PROFILES)
@pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
class TestChaosClusterSweep:
    """Every cluster fault profile x replay x strategy conserves bytes and
    reconciles attribution bit-for-bit."""

    def test_conservation_and_attribution(self, net_setup, profile, replay, strategy):
        grid, context = net_setup
        h, tracer, result = _run(context, grid, profile, replay, strategy=strategy)
        _assert_bytes_conserved(h, tracer)
        report = attribute_run(
            tracer.events(), result.steps, drop_stats=tracer.drop_stats()
        )
        assert report.reconciled is True
        _assert_partition_exact(report)


class TestNodeLoss:
    def test_fail_node_reshards_and_keeps_conservation(self, net_setup):
        grid, context = net_setup
        h = _sharded(grid, "none")
        tracer = Tracer()
        h.set_tracer(tracer)
        ids = np.arange(grid.n_blocks, dtype=np.int64)
        h.fetch_many(ids, 0)
        dead = 2
        before = h.shard_map.counts()[dead]
        assert before > 0
        new_map = h.fail_node(dead)
        assert not np.any(new_map.owner == dead)
        assert h.cluster_ledger()["failed_nodes"] == [dead]
        # re-fetch after loss: orphaned blocks are re-served by survivors
        h.fetch_many(ids, 1)
        _assert_bytes_conserved(h, tracer)
        assert h.cluster_ledger()["node_serves"][f"n{dead}"] >= 0

    def test_fail_home_rejected(self, net_setup):
        grid, _ = net_setup
        h = _sharded(grid, "none")
        with pytest.raises(ValueError):
            h.fail_node(h.home)
