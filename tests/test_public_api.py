"""The documented public API: everything in __all__ imports and works."""

import importlib

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

        for name in ("run_baseline", "run_budgeted", "run_temporal", "AppAwareOptimizer"):
            assert getattr(repro, name) is getattr(repro.runtime, name)
            assert getattr(repro.core, name) is getattr(repro.runtime, name)
        assert repro.prefetch.run_with_prefetcher is repro.runtime.run_with_prefetcher
        for module in ("repro.core.temporal", "repro.core.optimizer", "repro.prefetch.driver"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        assert not hasattr(importlib.import_module("repro.core.pipeline"), "run_baseline")
        assert not hasattr(importlib.import_module("repro.core.interactive"), "run_budgeted")

    def test_experiments_cli_help(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "--figure" in out

    def test_experiments_cli_table1(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--figure", "table1"]) == 0
        out = capsys.readouterr().out
        assert "3d_ball" in out
