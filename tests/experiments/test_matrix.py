"""Tests for the declarative experiment-matrix runner."""

import json
from pathlib import Path

import pytest

from repro.experiments import matrix
from repro.experiments.gating import (
    compare_snapshots,
    flatten_snapshot,
    load_snapshot,
    write_snapshot,
)
from repro.experiments.matrix import (
    CELL_RUNNERS,
    MatrixSpec,
    bundled_spec_names,
    expand_cells,
    expand_grid,
    execute_cells,
    load_spec,
    parse_toml_subset,
    register_cell_runner,
    run_matrix,
    run_matrix_cell,
    spec_from_dict,
)
from repro.obs.bench import TIER_SPECS, tier_spec
from repro.utils.rng import derive_seed

try:
    import tomllib
except ImportError:  # Python < 3.11: the subset parser is the only path
    tomllib = None

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC_DIR = REPO_ROOT / "src" / "repro" / "experiments" / "specs"

TINY_SPEC = MatrixSpec(
    label="tiny",
    runner="replay",
    base={
        "dataset": "3d_ball",
        "blocks": 64,
        "scale": 0.04,
        "steps": 3,
        "degrees": (5.0, 5.0),
        "cache_ratio": 0.5,
    },
    axes={"policy": ("lru", "fifo")},
    setup={"n_directions": 8, "n_distances": 1},
)


class TestTomlSubsetParser:
    def test_matches_tomllib_on_bundled_specs(self):
        if tomllib is None:
            pytest.skip("no tomllib: nothing to cross-check against")
        for path in sorted(SPEC_DIR.glob("*.toml")):
            text = path.read_text()
            assert parse_toml_subset(text) == tomllib.loads(text), path.name

    def test_kitchen_sink_matches_tomllib(self):
        text = (
            '# comment\n'
            '[matrix]\n'
            'label = "demo"  # trailing comment\n'
            'repeats = 2\n'
            'negative = -3\n'
            'ratio = 0.5\n'
            'flag = true\n'
            'off = false\n'
            '\n'
            '[base]\n'
            'degrees = [5.0,\n'
            '           10.0]\n'
            'names = ["a", "b"]\n'
            'inline = { x = 1, y = "two" }\n'
            '\n'
            '[labels.workload]\n'
            '"quoted key" = "v"\n'
            'bare-key = "w"\n'
            '\n'
            '[[constraints]]\n'
            'shards = 1\n'
            '\n'
            '[[constraints]]\n'
            'shards = 4\n'
        )
        parsed = parse_toml_subset(text)
        assert parsed["matrix"]["negative"] == -3
        assert parsed["base"]["degrees"] == [5.0, 10.0]
        assert parsed["base"]["inline"] == {"x": 1, "y": "two"}
        assert parsed["labels"]["workload"]["quoted key"] == "v"
        assert [c["shards"] for c in parsed["constraints"]] == [1, 4]
        if tomllib is not None:
            assert parsed == tomllib.loads(text)

    def test_bad_lines_rejected(self):
        with pytest.raises(ValueError, match="bad TOML line"):
            parse_toml_subset("not a key value line\n")
        with pytest.raises(ValueError, match="unterminated"):
            parse_toml_subset("[t]\nxs = [1, 2\n")


class TestSpecValidation:
    def test_all_problems_reported_in_one_error(self):
        raw = {
            "matrix": {"runner": "nope", "repeats": 0, "bogus": 1},
            "base": {"blocks": 64, "no_such_field": 1},
            "axes": {"policy": [], "phantom": ["a"]},
            "labels": {"unmatched": {"a": "b"}},
            "constraints": [{"not_an_axis": 1}],
            "figures": [{"metric": "m"}],
            "wrong_section": {},
        }
        with pytest.raises(ValueError) as err:
            spec_from_dict(raw, where="unit")
        msg = str(err.value)
        assert msg.startswith("unit: invalid matrix spec: ")
        for fragment in (
            "unknown section(s) ['wrong_section']",
            "unknown runner 'nope'",
            "repeats must be an int >= 1",
            "unknown key(s) ['bogus']",
            "needs a non-empty string 'label'",
            "'no_such_field' is not a RunConfig field",
            "[axes] policy has no values",
            "'phantom' is not a RunConfig field",
            "[labels.unmatched] does not match any axis",
            "[[constraints]] #0 names non-axis field(s)",
            "[[figures]] #0 missing key(s) ['x']",
        ):
            assert fragment in msg, fragment

    def test_unknown_setup_keys_rejected(self):
        """A typo in ``[setup]`` must not silently fall back to a default."""
        with pytest.raises(ValueError) as err:
            spec_from_dict(
                {"matrix": {"label": "x"}, "setup": {"n_direction": 8, "kernal": "dense"}},
                where="typo",
            )
        assert "[setup] unknown key(s) ['kernal', 'n_direction']" in str(err.value)
        with pytest.raises(ValueError, match=r"\[setup\] unknown key\(s\) \['kernel'\]"):
            spec_from_dict({"matrix": {"label": "x"}, "setup": {"kernel": "culled"}})

    def test_base_axes_overlap_rejected(self):
        with pytest.raises(ValueError, match=r"\['policy'\] appear in both"):
            spec_from_dict({
                "matrix": {"label": "x"},
                "base": {"policy": "lru"},
                "axes": {"policy": ["lru", "fifo"]},
            })

    def test_round_trips_through_to_dict(self):
        spec = load_spec("smoke")
        assert spec_from_dict(spec.to_dict()).to_dict() == spec.to_dict()


class TestLoadSpec:
    def test_unknown_name_lists_bundled(self):
        with pytest.raises(FileNotFoundError, match="bundled:") as err:
            load_spec("no-such-spec")
        for name in bundled_spec_names():
            assert name in str(err.value)

    def test_bundled_names_cover_committed_tiers(self):
        assert {"smoke", "bench", "bench-quick", "serve-baseline", "cluster",
                "cluster-smoke", "fullscale", "fullscale-smoke"} <= set(bundled_spec_names())

    def test_json_spec_path(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY_SPEC.to_dict()))
        assert load_spec(path).to_dict() == TINY_SPEC.to_dict()


class TestSpecPinning:
    """Each bench tier is its bundled spec — the one spelling of the tier."""

    def test_every_bundled_spec_loads_and_expands(self):
        for name in bundled_spec_names():
            spec = load_spec(name)
            assert spec.runner in CELL_RUNNERS, name
            assert expand_cells(spec), name

    def test_bench_specs(self):
        # every --tier/--quick pair resolves to a bundled spec
        from repro.cli import build_parser

        for tier, names in TIER_SPECS.items():
            assert build_parser().parse_args(["bench", "--tier", tier]).tier == tier
            for quick, name in zip((False, True), names):
                assert name in bundled_spec_names()
                assert tier_spec(tier, quick).to_dict() == load_spec(name).to_dict()
        assert tier_spec("default", quick=True).runner == "bench-cell"
        assert tier_spec("cluster").runner == "replay"
        assert tier_spec("fullscale").runner == "fullscale-cell"

    def test_serve_baseline_spec(self):
        spec = load_spec("serve-baseline")
        assert spec.runner == "serve"
        assert [c.key for c in expand_cells(spec)] == ["serve-baseline"]

    def test_cluster_smoke_spec(self):
        full, smoke = load_spec("cluster"), load_spec("cluster-smoke")
        assert [c.key for c in expand_cells(full)] == [c.key for c in expand_cells(smoke)]
        assert full.setup.keys() == smoke.setup.keys()

    def test_fullscale_smoke_spec(self):
        full, smoke = load_spec("fullscale"), load_spec("fullscale-smoke")
        assert [c.key for c in expand_cells(full)] == [c.key for c in expand_cells(smoke)]
        assert full.setup.keys() == smoke.setup.keys()
        assert "kernel" not in full.setup


class TestExpandGrid:
    def test_declaration_order_first_axis_slowest(self):
        names, combos = expand_grid({"a": [1, 2], "b": ["x", "y"]})
        assert names == ("a", "b")
        assert combos == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
        ]

    def test_errors_match_sweep_vocabulary(self):
        with pytest.raises(ValueError, match="at least one parameter axis"):
            expand_grid({})
        with pytest.raises(ValueError, match="'a' has no values"):
            expand_grid({"a": []})


class TestExpandCells:
    def test_keys_labels_and_order(self):
        spec = load_spec("smoke")
        cells = expand_cells(spec)
        assert [c.key for c in cells] == [
            "orbit/lru", "orbit/app-aware", "zoom/lru", "zoom/app-aware"
        ]
        assert [c.index for c in cells] == [0, 1, 2, 3]
        assert cells[0].config.workload == "spherical"  # label only renames the key

    def test_empty_label_drops_segment(self):
        spec = load_spec("cluster-smoke")
        keys = [c.key for c in expand_cells(spec)]
        # faults="none" is labelled "" so the fault-free cells have no segment
        assert keys == ["orbit/K1", "orbit/K4", "orbit/K4/partition"]

    def test_constraint_skips_keep_indices_dense(self):
        cells = expand_cells(load_spec("cluster-smoke"))
        assert [c.index for c in cells] == [0, 1, 2]  # skipped K1/partition eats no index

    def test_no_axes_single_cell_named_after_label(self):
        spec = load_spec("serve-baseline")
        cells = expand_cells(spec)
        assert len(cells) == 1
        assert cells[0].key == "serve-baseline"
        assert cells[0].axes == {}

    def test_repeats_derive_seeds_and_key_segments(self):
        import dataclasses

        spec = dataclasses.replace(TINY_SPEC, repeats=2, seed=7)
        cells = expand_cells(spec)
        assert [c.key for c in cells] == [
            "lru/r0", "lru/r1", "fifo/r0", "fifo/r1"
        ]
        assert cells[0].config.seed == 7
        assert cells[1].config.seed == derive_seed(7, 1)
        assert cells[1].config.seed != 7

    def test_duplicate_keys_rejected(self):
        import dataclasses

        spec = dataclasses.replace(
            TINY_SPEC, labels={"policy": {"lru": "same", "fifo": "same"}}
        )
        with pytest.raises(ValueError, match="both map to key 'same'"):
            expand_cells(spec)

    def test_invalid_cell_config_names_the_cell(self):
        import dataclasses

        spec = dataclasses.replace(TINY_SPEC, base={**TINY_SPEC.base, "blocks": -1})
        with pytest.raises(ValueError, match="cell 'lru':"):
            expand_cells(spec)

    def test_all_constraints_skipping_everything_rejected(self):
        import dataclasses

        spec = dataclasses.replace(
            TINY_SPEC, constraints=({"policy": ["lru", "fifo"]},)
        )
        with pytest.raises(ValueError, match="zero cells"):
            expand_cells(spec)


class TestRunners:
    def test_duplicate_runner_registration_rejected(self):
        assert "replay" in CELL_RUNNERS
        with pytest.raises(ValueError, match="already registered"):
            register_cell_runner("replay", lambda cell, extras: {})

    def test_plugin_runner_autoloads(self):
        # fullscale-cell is registered by repro.obs.bench_fullscale, which
        # spec validation imports on demand — the bundled spec just works.
        spec = load_spec("fullscale-smoke")
        assert spec.runner == "fullscale-cell"

    @pytest.mark.parametrize("runner", ["replay", "bench-cell", "fullscale-cell"])
    def test_one_sampling_default_for_every_runner(self, runner, monkeypatch):
        # A spec without [setup] n_directions/n_distances: every runner
        # builds T_visible from the same sample grid (_sampling_shape's).
        from repro.experiments.runner import ExperimentSetup

        class Built(Exception):
            pass

        seen = []

        def capture(cls, *args, sampling=None, **kwargs):
            seen.append((sampling.n_directions, sampling.n_distances))
            raise Built

        monkeypatch.setattr(ExperimentSetup, "for_dataset", classmethod(capture))
        monkeypatch.setattr(matrix, "_SETUP_CACHE", {})
        load_spec("fullscale-smoke")  # registers the plugin runners
        spec = MatrixSpec(
            label="no-sampling",
            runner=runner,
            base={"dataset": "3d_ball", "blocks": 27, "scale": 0.03, "steps": 2,
                  "workload": "spherical", "policy": "lru"},
        )
        with pytest.raises(Built):
            run_matrix_cell(expand_cells(spec)[0], spec)
        assert seen == [matrix._sampling_shape({})]

    def test_unknown_runner_rejected(self):
        cells = expand_cells(TINY_SPEC)
        with pytest.raises(KeyError, match="unknown cell runner 'nope'"):
            execute_cells(cells, "nope", {})

    def test_bad_worker_count_rejected(self):
        cells = expand_cells(TINY_SPEC)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            execute_cells(cells, "replay", {}, workers=0)


class TestRunMatrix:
    @pytest.fixture(scope="class")
    def tiny_doc(self):
        return run_matrix(TINY_SPEC)

    def test_document_layout(self, tiny_doc):
        assert tiny_doc["kind"] == "matrix"
        assert tiny_doc["label"] == "tiny"
        assert tiny_doc["n_cells"] == 2
        assert set(tiny_doc["cells"]) == {"lru", "fifo"}
        cell = tiny_doc["cells"]["lru"]
        assert cell["axes"] == {"policy": "lru"}
        assert cell["config"]["policy"] == "lru"
        assert "summary" in cell and "hierarchy_stats" in cell

    def test_write_load_round_trip(self, tiny_doc, tmp_path):
        path = write_snapshot(tiny_doc, tmp_path)
        assert path.name == "MATRIX_tiny.json"
        loaded = load_snapshot(path, ("matrix",))
        assert loaded["cells"].keys() == tiny_doc["cells"].keys()

    def test_load_rejects_wrong_kind_and_version(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text(json.dumps({"schema_version": 1, "runs": {}}))
        with pytest.raises(ValueError, match="is a bench snapshot, not a matrix snapshot"):
            load_snapshot(bad, ("matrix",))
        bad.write_text(json.dumps({"kind": "matrix", "schema_version": 99}))
        with pytest.raises(ValueError, match="schema_version 99"):
            load_snapshot(bad, ("matrix",))

    def test_self_compare_all_ok(self, tiny_doc):
        rows = compare_snapshots(tiny_doc, tiny_doc)
        assert rows and all(r["status"] == "ok" for r in rows)

    def test_flattened_metrics_skip_wall_clock(self, tiny_doc):
        names = flatten_snapshot(tiny_doc)
        assert names
        assert not any("wall" in n for n in names)

    def test_parallel_equals_serial(self, tiny_doc):
        parallel = run_matrix(TINY_SPEC, workers=2)
        assert all(r["status"] == "ok" for r in compare_snapshots(tiny_doc, parallel))
        for key, cell in tiny_doc["cells"].items():
            assert parallel["cells"][key]["summary"] == cell["summary"]


class TestCommittedSmokeDocument:
    """MATRIX_smoke.json is the CI gate baseline — regenerate and compare."""

    def test_committed_smoke_regenerates_identically(self):
        committed = load_snapshot(REPO_ROOT / "MATRIX_smoke.json", ("matrix",))
        fresh = run_matrix(load_spec("smoke"))
        rows = compare_snapshots(committed, fresh)
        bad = [r for r in rows if r["status"] not in ("ok", "improved")]
        assert not bad, bad
        # bit-level: every compared metric is exactly equal, not just in-threshold
        old_metrics = flatten_snapshot(committed)
        new_metrics = flatten_snapshot(fresh)
        assert {k: v for k, (v, _) in old_metrics.items()} == {
            k: v for k, (v, _) in new_metrics.items()
        }
