"""The documented public API: everything in __all__ imports and works."""

import importlib
import inspect

import pytest

import repro


class TestPublicAPI:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        assert repro.__version__ == "1.1.0"

    def test_subpackages_importable(self):
        for pkg in (
            "repro.utils",
            "repro.volume",
            "repro.storage",
            "repro.policies",
            "repro.camera",
            "repro.importance",
            "repro.tables",
            "repro.render",
            "repro.core",
            "repro.experiments",
            "repro.trace",
            "repro.obs",
            "repro.obs.bench",
        ):
            importlib.import_module(pkg)

    def test_quickstart_from_docstring(self):
        """The README/docstring quickstart must actually run."""
        setup = repro.ExperimentSetup.for_dataset(
            "3d_ball",
            target_n_blocks=64,
            scale=0.04,
            sampling=repro.SamplingConfig(n_directions=16, n_distances=1),
        )
        path = repro.random_path(
            n_positions=8,
            degree_change=(5, 10),
            distance=2.5,
            view_angle_deg=setup.view_angle_deg,
        )
        results = repro.compare_policies(setup, path)
        assert {"fifo", "lru", "opt"} <= set(results)
        for r in results.values():
            assert 0.0 <= r.total_miss_rate <= 1.0

    def test_package_level_names_resolve_to_runtime(self):
        """The package namespaces re-export the one set of drivers; the
        old per-module driver paths are gone."""
        import repro.core
        import repro.prefetch
        import repro.runtime

        for name in ("run_baseline", "AppAwareOptimizer"):
            assert getattr(repro, name) is getattr(repro.runtime, name)
            assert getattr(repro.core, name) is getattr(repro.runtime, name)
        assert repro.prefetch.run_with_prefetcher is repro.runtime.run_with_prefetcher
        for module in ("repro.core.temporal", "repro.core.optimizer", "repro.prefetch.driver"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        assert not hasattr(importlib.import_module("repro.core.pipeline"), "run_baseline")

    def test_budgeted_replay_is_gone(self):
        """The frame-deadline and temporal replays went with their modules,
        and the unused attribution collector with them; no package
        re-exports any of their names."""
        for module in ("repro.core.interactive", "repro.render.image",
                       "repro.volume.timeseries"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        gone = (
            "run_budgeted", "render_quality_series", "BudgetedResult", "BudgetedStep",
            "BudgetedCollector", "BudgetedFetchStage", "BudgetedPrefetchStage",
            "mse", "psnr", "mean_abs_error", "interactive_quality",
            "run_temporal", "TemporalRemapStage", "TemporalPrefetchStage",
            "TimeVaryingVolume", "temporal_block_id", "split_temporal_id",
            "make_time_varying_climate", "temporal", "AttributionCollector",
        )
        for pkg in ("repro", "repro.core", "repro.runtime", "repro.runtime.engine",
                    "repro.runtime.stages", "repro.runtime.drivers", "repro.render",
                    "repro.volume", "repro.obs", "repro.obs.attribution",
                    "repro.experiments.extensions"):
            module = importlib.import_module(pkg)
            assert not [n for n in gone if hasattr(module, n)], pkg
        for stage in ("budgeted-fetch", "budgeted-prefetch",
                      "temporal-remap", "temporal-prefetch"):
            assert stage not in repro.runtime.STAGES
        # The knobs only those replays set are gone too.
        assert list(inspect.signature(repro.runtime.RenderStage).parameters) == []
        assert list(inspect.signature(repro.runtime.StepMetricsCollector).parameters) == [
            "name", "policy", "overlap_prefetch", "extras_fn",
        ]
