"""The multi-tenant session scheduler: determinism, quotas, equivalence."""

import json
import math

import pytest

from repro.policies.lru import LRUPolicy
from repro.runtime.context import RunContext
from repro.runtime.drivers import run_baseline
from repro.runtime.registries import WORKLOADS
from repro.runtime.sessions import SessionSpec, SessionsResult, run_sessions
from repro.core.pipeline import PipelineContext
from repro.storage.cache import CacheLevel
from repro.storage.device import DRAM, HDD, SSD
from repro.storage.hierarchy import MemoryHierarchy, make_standard_hierarchy

from tests.runtime._seed_drivers import seed_run_baseline

VIEW = 10.0


def _hierarchy(grid, cache_ratio=0.5, policy="lru"):
    return make_standard_hierarchy(
        n_blocks=grid.n_blocks,
        block_nbytes=grid.uniform_block_nbytes(),
        cache_ratio=cache_ratio,
        policy=policy,
    )


def _mixed_specs(n=8, steps=6):
    workloads = ["spherical", "zoom", "flythrough"]
    return [
        SessionSpec(
            session_id=f"s{i}",
            workload=workloads[i % 3],
            steps=steps,
            seed=100 + i,
            arrival_s=0.05 * i,
        )
        for i in range(n)
    ]


class TestSessionSpec:
    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="workload"):
            SessionSpec(session_id="a", workload="teleport")

    def test_bad_steps(self):
        with pytest.raises(ValueError, match="steps"):
            SessionSpec(session_id="a", steps=0)

    def test_negative_arrival(self):
        with pytest.raises(ValueError, match="arrival_s"):
            SessionSpec(session_id="a", arrival_s=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("arrival_s", math.nan),
            ("arrival_s", math.inf),
            ("distance", math.inf),
            ("distance", math.nan),
            ("distance", 0.0),
            ("degrees", (5.0, math.inf)),
            ("degrees", (math.nan, 5.0)),
            ("degrees", (10.0, 5.0)),
            ("degrees", (-1.0, 5.0)),
            ("degrees", (5.0,)),
        ],
    )
    def test_bad_numbers_rejected(self, field, value):
        """The checks LoadGenConfig makes: nothing non-finite reaches a
        camera path or the end times."""
        with pytest.raises(ValueError, match=rf"^{field} must be "):
            SessionSpec(session_id="a", **{field: value})

    def test_tenant_defaults_to_session_id(self):
        assert SessionSpec(session_id="a").tenant_label == "a"
        assert SessionSpec(session_id="a", tenant="team").tenant_label == "team"


class TestValidation:
    def test_empty_specs(self, small_grid):
        with pytest.raises(ValueError, match="at least one"):
            run_sessions([], _hierarchy(small_grid), small_grid)

    def test_duplicate_ids(self, small_grid):
        specs = [SessionSpec(session_id="a", steps=2)] * 2
        with pytest.raises(ValueError, match="unique"):
            run_sessions(specs, _hierarchy(small_grid), small_grid)

    def test_partition_missing_tenant(self, small_grid):
        specs = [SessionSpec(session_id="a", steps=2), SessionSpec(session_id="b", steps=2)]
        with pytest.raises(ValueError, match="missing tenants"):
            run_sessions(
                specs, _hierarchy(small_grid), small_grid,
                view_angle_deg=VIEW, partition={"a": 0.5},
            )


class TestDeterminism:
    def test_eight_session_mixed_run_is_seed_deterministic(self, small_grid):
        """The acceptance scenario: 8 mixed sessions over a shared
        hierarchy with equal quotas replay to bit-identical ledgers."""
        docs = []
        for _ in range(2):
            result = run_sessions(
                _mixed_specs(8), _hierarchy(small_grid), small_grid,
                view_angle_deg=VIEW, partition="equal",
            )
            docs.append(json.dumps(result.as_dict(), sort_keys=True))
        assert docs[0] == docs[1]

    def test_unpartitioned_run_is_deterministic(self, small_grid):
        docs = []
        for _ in range(2):
            result = run_sessions(
                _mixed_specs(4), _hierarchy(small_grid), small_grid,
                view_angle_deg=VIEW, partition=None,
            )
            docs.append(json.dumps(result.as_dict(), sort_keys=True))
        assert docs[0] == docs[1]


class TestQuotas:
    def test_equal_partition_enforced(self, small_grid):
        hierarchy = _hierarchy(small_grid)
        result = run_sessions(
            _mixed_specs(8), hierarchy, small_grid,
            view_angle_deg=VIEW, partition="equal",
        )
        assert result.cross_evictions == 0
        for level_name, quotas in result.quotas.items():
            usage = result.tenant_usage[level_name]
            for tenant, used in usage.items():
                assert used <= quotas[tenant], (
                    f"{level_name}: tenant {tenant} holds {used} > quota {quotas[tenant]}"
                )

    def test_arc_equal_partition_enforced(self, small_grid):
        """ARC quota levels admit block by block, ranking each victim under
        the admission's owner filter: quotas hold, no tenant evicts
        another's block, every level's books agree, and two runs give the
        same document."""
        docs = []
        for _ in range(2):
            hierarchy = _hierarchy(small_grid, policy="arc")
            result = run_sessions(
                _mixed_specs(8), hierarchy, small_grid,
                view_angle_deg=VIEW, partition="equal",
            )
            assert result.cross_evictions == 0
            for level_name, quotas in result.quotas.items():
                for tenant, used in result.tenant_usage[level_name].items():
                    assert used <= quotas[tenant], (level_name, tenant, used)
            for level in hierarchy.levels:
                assert level.tenant_quotas_enabled and level.stats.evictions > 0
                level.check_invariants()
            docs.append(json.dumps(result.as_dict(), sort_keys=True))
        assert docs[0] == docs[1]

    def test_quota_invariants_hold_on_levels(self, small_grid):
        hierarchy = _hierarchy(small_grid)
        run_sessions(
            _mixed_specs(8), hierarchy, small_grid,
            view_angle_deg=VIEW, partition="equal",
        )
        for level in hierarchy.levels:
            level.check_invariants()

    def test_explicit_fraction_partition(self, small_grid):
        hierarchy = _hierarchy(small_grid)
        specs = [
            SessionSpec(session_id="hot", workload="zoom", steps=8, seed=1),
            SessionSpec(session_id="cold", workload="spherical", steps=8, seed=2),
        ]
        result = run_sessions(
            specs, hierarchy, small_grid, view_angle_deg=VIEW,
            partition={"hot": 0.6, "cold": 0.4},
        )
        assert result.cross_evictions == 0
        dram = result.quotas["dram"]
        assert dram["hot"] > dram["cold"]

    def test_shared_tenant_label_pools_quota(self, small_grid):
        specs = [
            SessionSpec(session_id="v1", steps=4, seed=1, tenant="team"),
            SessionSpec(session_id="v2", steps=4, seed=2, tenant="team"),
        ]
        result = run_sessions(
            specs, _hierarchy(small_grid), small_grid,
            view_angle_deg=VIEW, partition="equal",
        )
        # One tenant -> the whole capacity is its quota.
        assert set(result.quotas["dram"]) == {"team"}

    def test_no_partition_leaves_quotas_disabled(self, small_grid):
        hierarchy = _hierarchy(small_grid)
        result = run_sessions(
            _mixed_specs(3), hierarchy, small_grid,
            view_angle_deg=VIEW, partition=None,
        )
        assert result.quotas == {}
        assert result.tenant_usage == {}


class TestSingleSessionEquivalence:
    def test_one_session_matches_run_baseline(self, small_grid):
        """A 1-session schedule is the run_baseline recipe: same steps,
        same hierarchy stats, same extras, bit for bit."""
        spec = SessionSpec(session_id="solo", workload="spherical", steps=10, seed=5)
        path = WORKLOADS.create(
            "spherical", steps=10, degrees=(5.0, 10.0), distance=2.5,
            view_angle_deg=VIEW, seed=5,
        )

        baseline = run_baseline(
            PipelineContext.create(path, small_grid), _hierarchy(small_grid),
            name="solo",
        )
        scheduled = run_sessions(
            [spec], _hierarchy(small_grid), small_grid, view_angle_deg=VIEW,
        ).runs["solo"]

        assert scheduled.name == baseline.name
        assert scheduled.steps == baseline.steps
        assert scheduled.hierarchy_stats == baseline.hierarchy_stats
        assert scheduled.extras == baseline.extras

    def test_one_session_scalar_engine_matches(self, small_grid):
        """...and the per-block seed loop (one ``fetch`` per block)."""
        spec = SessionSpec(session_id="solo", steps=6, seed=5)
        path = WORKLOADS.create(
            "spherical", steps=6, degrees=(5.0, 10.0), distance=2.5,
            view_angle_deg=VIEW, seed=5,
        )
        baseline = seed_run_baseline(
            PipelineContext.create(path, small_grid), _hierarchy(small_grid),
            name="solo", engine="scalar",
        )
        scheduled = run_sessions(
            [spec], _hierarchy(small_grid), small_grid, view_angle_deg=VIEW,
        ).runs["solo"]
        assert scheduled.steps == baseline.steps
        assert scheduled.hierarchy_stats == baseline.hierarchy_stats


class TestScheduling:
    def test_arrival_offsets_shift_end_times(self, small_grid):
        specs = [
            SessionSpec(session_id="early", steps=3, seed=1, arrival_s=0.0),
            SessionSpec(session_id="late", steps=3, seed=1, arrival_s=100.0),
        ]
        result = run_sessions(specs, _hierarchy(small_grid), small_grid, view_angle_deg=VIEW)
        assert result.end_times["late"] > 100.0
        assert result.end_times["early"] < 100.0
        assert result.makespan_s == result.end_times["late"]

    def test_every_session_completes_all_steps(self, small_grid):
        result = run_sessions(
            _mixed_specs(5, steps=7), _hierarchy(small_grid), small_grid,
            view_angle_deg=VIEW, partition="equal",
        )
        assert len(result.runs) == 5
        for run in result.runs.values():
            assert len(run.steps) == 7

    def test_frame_stats_cover_every_tenant(self, small_grid):
        result = run_sessions(
            _mixed_specs(4), _hierarchy(small_grid), small_grid,
            view_angle_deg=VIEW, partition="equal",
        )
        report = result.as_dict()
        assert set(report["frame_times"]["per_tenant"]) == {"s0", "s1", "s2", "s3"}
        assert report["frame_times"]["pooled"]["count"] == 4 * 6
        assert 0.0 < report["frame_times"]["fairness_jain"] <= 1.0

    def test_shared_ctx_registry_sees_all_sessions(self, small_grid):
        from repro.obs.metrics import MetricsRegistry

        ctx = RunContext(registry=MetricsRegistry())
        run_sessions(
            _mixed_specs(3), _hierarchy(small_grid), small_grid,
            view_angle_deg=VIEW, ctx=ctx, partition="equal",
        )
        names = {m.name for m in ctx.registry.metrics()}
        assert "tenant_frame_time_seconds" in names
        assert "tenant_fairness_jain" in names


class TestContentionIsolation:
    def test_partition_caps_a_hot_tenant(self, small_grid):
        """Without quotas a hot zooming session can occupy nearly the whole
        fast level; with equal quotas its residency is capped."""
        specs = [
            SessionSpec(session_id="hot", workload="zoom", steps=12, seed=3),
            SessionSpec(session_id="cold", workload="spherical", steps=4, seed=4,
                        arrival_s=0.0),
        ]
        hierarchy = _hierarchy(small_grid)
        result = run_sessions(
            specs, hierarchy, small_grid, view_angle_deg=VIEW, partition="equal",
        )
        dram_quota = result.quotas["dram"]
        for tenant, used in result.tenant_usage["dram"].items():
            assert used <= dram_quota[tenant]
        assert result.cross_evictions == 0


class TestTinyHierarchy:
    def test_capacity_smaller_than_tenant_count_raises(self):
        levels = [CacheLevel("dram", 2, LRUPolicy()), CacheLevel("ssd", 8, LRUPolicy())]
        hierarchy = MemoryHierarchy(levels, [DRAM, SSD], HDD, block_nbytes=1024)
        with pytest.raises(ValueError, match="cannot hold one block per tenant"):
            hierarchy.set_tenant_quotas({f"t{i}": 1 / 3 for i in range(3)})


class TestSessionsResult:
    def test_as_dict_is_json_plain(self, small_grid):
        result = run_sessions(
            _mixed_specs(2), _hierarchy(small_grid), small_grid,
            view_angle_deg=VIEW, partition="equal",
        )
        doc = result.as_dict()
        json.dumps(doc)  # raises on anything non-serializable
        assert doc["n_sessions"] == 2
        for row in doc["sessions"].values():
            assert 0.0 <= row["fast_miss_rate"] <= 1.0
            assert row["n_steps"] == 6

    def test_empty_result_makespan(self):
        from repro.obs.fairness import TenantFrameStats

        empty = SessionsResult(runs={}, end_times={}, frame_stats=TenantFrameStats())
        assert empty.makespan_s == 0.0
