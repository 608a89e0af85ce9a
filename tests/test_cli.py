"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_replay_defaults(self):
        args = build_parser().parse_args(["replay"])
        assert args.dataset == "3d_ball"
        assert args.path_type == "random"
        assert args.policies == ["fifo", "lru"]


class TestInfo:
    def test_prints_datasets_and_policies(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "3d_ball" in out
        assert "lru" in out
        assert "repro" in out


class TestPreprocess:
    def test_writes_tables(self, tmp_path, capsys):
        rc = main([
            "preprocess", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--directions", "16", "--distances", "1",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "3d_ball_t_visible.npz").exists()
        assert (tmp_path / "3d_ball_t_important.npz").exists()
        out = capsys.readouterr().out
        assert "T_visible" in out

    def test_tables_loadable(self, tmp_path):
        main([
            "preprocess", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--directions", "16", "--distances", "1",
            "--out", str(tmp_path),
        ])
        from repro import ImportanceTable, VisibleTable

        vt = VisibleTable.load(tmp_path / "3d_ball_t_visible.npz")
        it = ImportanceTable.load(tmp_path / "3d_ball_t_important.npz")
        assert vt.n_entries == 16
        assert it.n_blocks == vt.meta["n_blocks"]


class TestReplay:
    def test_random_replay(self, capsys):
        rc = main([
            "replay", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--steps", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "opt" in out and "lru" in out and "fifo" in out

    def test_spherical_with_belady(self, capsys):
        rc = main([
            "replay", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--steps", "8", "--path-type", "spherical",
            "--degrees", "5", "5", "--belady", "--no-app-aware",
            "--policies", "lru",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "belady" in out
        assert "opt" not in out.splitlines()[-2]

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["replay", "--policies", "nonsense"])

    def test_faults_flag_prints_fault_summary(self, capsys):
        rc = main([
            "replay", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--steps", "8", "--policies", "lru",
            "--no-app-aware", "--faults", "lossy", "--fault-seed", "7",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults lossy (seed 7)" in out
        assert "injected errors" in out and "retries" in out

    def test_unknown_fault_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["replay", "--faults", "gremlins"])

    def test_single_box_ssd_profile_on_shards_exits_two(self, capsys):
        rc = main([
            "replay", "--blocks", "64", "--scale", "0.04", "--steps", "4",
            "--shards", "4", "--faults", "degraded-ssd",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "node-chaos" in err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--distance", "nan"], "distance"),
            (["--distance", "inf"], "distance"),
            (["--scale", "inf"], "scale"),
            (["--degrees", "0", "inf"], "degrees"),
        ],
    )
    def test_non_finite_value_exits_two_with_one_line(self, flags, field, capsys):
        rc = main(["replay", "--dataset", "3d_ball", "--blocks", "64", "--scale", "0.04",
                   "--steps", "6", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be") and "finite" in err
        assert err.count("\n") == 1  # one line, no traceback


class TestTrace:
    def test_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        rc = main([
            "trace", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--steps", "6", "--policy", "lru",
            "--out", str(out), "--jsonl", str(jsonl),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        for ev in doc["traceEvents"]:
            assert "ph" in ev and "pid" in ev
        assert jsonl.exists()
        text = capsys.readouterr().out
        assert "ledger check" in text and "agrees" in text

    def test_app_aware_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main([
            "trace", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--steps", "6",
            "--out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "app-aware" in text
        assert "agrees" in text

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.policy == "app-aware"
        assert args.capacity == 1_000_000

    def test_reports_drop_counters(self, tmp_path, capsys):
        rc = main([
            "trace", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--steps", "6", "--policy", "lru",
            "--capacity", "10", "--out", str(tmp_path / "trace.json"),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "events recorded" in text and "dropped (capacity 10)" in text
        assert "warning: ring buffer dropped" in text

    def test_writers_create_their_directories(self, tmp_path, capsys):
        import json

        out = tmp_path / "nodir" / "t.json"
        jsonl = tmp_path / "other" / "deeper" / "t.jsonl"
        rc = main([
            "trace", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--steps", "6", "--policy", "lru",
            "--out", str(out), "--jsonl", str(jsonl),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["traceEvents"]
        lines = jsonl.read_text().splitlines()
        assert lines and not any("count" in json.loads(line) for line in lines)
        again = tmp_path / "third" / "t2.json"
        assert main(["trace", "--from-jsonl", str(jsonl), "--out", str(again)]) == 0
        assert json.loads(again.read_text())["traceEvents"]


class TestBench:
    def test_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.label == "local"
        assert args.quick is False
        assert args.tier == "default" and args.workers == 1 and args.profile is None
        assert not hasattr(args, "compare") and not hasattr(args, "threshold")

    def test_quick_writes_snapshot(self, tmp_path, capsys):
        import json

        rc = main(["bench", "--quick", "--label", "smoke", "--out", str(tmp_path)])
        assert rc == 0
        path = tmp_path / "MATRIX_smoke.json"
        assert path.exists()
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1 and doc["kind"] == "matrix"
        assert doc["runner"] == "bench-cell" and doc["label"] == "bench-quick"
        assert set(doc["suite"]) == {"multi_tenant"}
        out = capsys.readouterr().out
        assert "wrote" in out and "multi_tenant[suite]" in out

    def test_compare_self_exits_zero(self, tmp_path, capsys):
        main(["bench", "--quick", "--label", "a", "--out", str(tmp_path)])
        snap = str(tmp_path / "MATRIX_a.json")
        assert main(["matrix", "compare", snap, snap]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_compare_missing_file_exits_two(self, tmp_path, capsys):
        # `repro matrix compare` is the one compare; bench takes no --compare.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--compare", "a.json", "b.json"])
        missing = str(tmp_path / "nope.json")
        assert main(["matrix", "compare", missing, missing]) == 2
        assert "error:" in capsys.readouterr().out

    def test_faulted_quick_bench(self, tmp_path, capsys):
        import json

        rc = main([
            "bench", "--quick", "--label", "chaos", "--out", str(tmp_path),
            "--faults", "flaky-hdd", "--fault-seed", "42",
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "MATRIX_chaos.json").read_text())
        assert doc["spec"]["base"]["faults"] == "flaky-hdd"
        assert doc["spec"]["base"]["fault_seed"] == 42
        assert all("faults" in run for run in doc["cells"].values())
        assert "faults[" in capsys.readouterr().out

    def test_out_directory_is_created(self, tmp_path, monkeypatch):
        import json

        from repro.experiments import matrix

        committed = json.loads((REPO_ROOT / "MATRIX_bench-quick.json").read_text())
        monkeypatch.setattr(matrix, "run_matrix", lambda *args, **kwargs: committed)
        out = tmp_path / "new" / "dir"
        assert main(["bench", "--quick", "--label", "x", "--out", str(out)]) == 0
        assert (out / "MATRIX_x.json").is_file()

    def test_cluster_ledger_mismatch_exits_one(self, tmp_path, monkeypatch, capsys):
        from repro.obs import bench_cluster

        monkeypatch.setattr(bench_cluster, "ledger_reconciles", lambda hierarchy: False)
        rc = main([
            "bench", "--tier", "cluster", "--quick", "--label", "c", "--out", str(tmp_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ledger failed to reconcile" in err
        assert "orbit/K1, orbit/K4, orbit/K4/partition" in err
        assert (tmp_path / "MATRIX_c.json").is_file()

    def test_cluster_tier_honours_workers(self, tmp_path):
        import json

        rc = main([
            "bench", "--tier", "cluster", "--quick", "--label", "w",
            "--workers", "2", "--out", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "MATRIX_w.json").read_text())
        assert doc["workers"] == 2
        assert all(cell["ledger_reconciles"] for cell in doc["cells"].values())

    def test_profile_creates_its_directory(self, tmp_path, capsys):
        import json

        profile = tmp_path / "nodir" / "p.json"
        rc = main([
            "bench", "--quick", "--label", "p", "--profile", str(profile),
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert json.loads(profile.read_text())["traceEvents"]
        doc = json.loads((tmp_path / "MATRIX_p.json").read_text())
        assert doc["profile"]["path"] == str(profile)

    def test_profile_on_a_runner_without_a_profiler_exits_two(self, tmp_path, capsys):
        profile = tmp_path / "prof.json"
        rc = main([
            "bench", "--tier", "cluster", "--quick", "--label", "p",
            "--profile", str(profile), "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "runner 'replay' takes no profiler" in capsys.readouterr().err
        assert not profile.exists() and not (tmp_path / "MATRIX_p.json").exists()


class TestCrossKindCompare:
    """The one compare refuses two documents that ran different runners or
    different axes with exit 2 and a message naming both sides."""

    def _compare(self, old, new):
        return main(["matrix", "compare", str(REPO_ROOT / old), str(REPO_ROOT / new)])

    def test_bench_compare_refuses_a_serve_snapshot(self, capsys):
        assert self._compare("MATRIX_serve-baseline.json", "MATRIX_bench-quick.json") == 2
        assert ("a 'serve'-runner document with a 'bench-cell'-runner document"
                in capsys.readouterr().out)

    def test_serve_compare_refuses_bench_snapshots(self, capsys):
        assert self._compare("MATRIX_bench-quick.json", "MATRIX_serve-baseline.json") == 2
        assert ("a 'bench-cell'-runner document with a 'serve'-runner document"
                in capsys.readouterr().out)

    def test_matrix_compare_refuses_a_serve_snapshot(self, capsys):
        assert self._compare("MATRIX_smoke.json", "MATRIX_serve-baseline.json") == 2
        assert "a 'replay'-runner document with a 'serve'" in capsys.readouterr().out

    def test_bench_tiers_refuse_each_other(self, capsys):
        assert self._compare("MATRIX_bench-quick.json", "MATRIX_cluster-smoke.json") == 2
        assert self._compare("MATRIX_bench-quick.json", "MATRIX_fullscale-smoke.json") == 2
        # one runner (replay), different axes
        assert self._compare("MATRIX_cluster-smoke.json", "MATRIX_smoke.json") == 2
        assert "different axes" in capsys.readouterr().out

    def test_candidate_lacking_a_baseline_row_exits_one(self, tmp_path, capsys):
        import json

        doc = json.loads((REPO_ROOT / "MATRIX_smoke.json").read_text())
        del doc["cells"]["zoom/lru"]["summary"]["io_time_s"]
        lacking = tmp_path / "MATRIX_lacking.json"
        lacking.write_text(json.dumps(doc))
        assert main(["matrix", "compare", str(REPO_ROOT / "MATRIX_smoke.json"),
                     str(lacking)]) == 1
        out = capsys.readouterr().out
        assert "zoom/lru.io_time_s" in out and "dropped" in out
        assert "1 regression(s) (1 dropped)" in out


class TestRender:
    def test_writes_ppm(self, tmp_path, capsys):
        out = tmp_path / "f.ppm"
        rc = main([
            "render", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--size", "24", "--out", str(out),
        ])
        assert rc == 0
        raw = out.read_bytes()
        assert raw.startswith(b"P6\n24 24\n255\n")
        assert len(raw) == len(b"P6\n24 24\n255\n") + 24 * 24 * 3

    def test_out_directory_is_created(self, tmp_path, capsys):
        out = tmp_path / "nd" / "x" / "frame.ppm"
        rc = main([
            "render", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--size", "24", "--out", str(out),
        ])
        assert rc == 0
        assert out.read_bytes().startswith(b"P6\n24 24\n255\n")


class TestServeSim:
    _FAST = [
        "serve-sim", "--sessions", "4", "--session-steps", "4",
        "--serve-blocks", "64", "--serve-scale", "0.04",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve-sim"])
        assert args.sessions == 8
        assert args.partition == "equal"
        assert args.mix == (0.5, 0.25, 0.25) or list(args.mix) == [0.5, 0.25, 0.25]

    def test_writes_snapshot(self, tmp_path, capsys):
        import json

        rc = main(self._FAST + ["--label", "t", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "MATRIX_t.json").read_text())
        assert doc["schema_version"] == 1 and doc["runner"] == "serve"
        mt = doc["cells"]["serve-sim"]["multi_tenant"]
        assert mt["n_sessions"] == 4
        assert mt["cross_evictions"] == 0
        out = capsys.readouterr().out
        assert "fairness" in out and "p99" in out

    def test_compare_self_exits_zero(self, tmp_path, capsys):
        main(self._FAST + ["--label", "a", "--out", str(tmp_path)])
        snap = str(tmp_path / "MATRIX_a.json")
        assert main(["matrix", "compare", snap, snap]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_compare_missing_file_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-sim", "--compare", "a.json", "b.json"])
        missing = str(tmp_path / "nope.json")
        assert main(["matrix", "compare", missing, missing]) == 2
        assert "error:" in capsys.readouterr().out

    def test_label_with_a_slash_is_sanitised(self, tmp_path):
        assert main(self._FAST + ["--label", "a/b", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "MATRIX_a-b.json").is_file()

    def test_partition_none(self, tmp_path):
        import json

        rc = main(self._FAST + ["--partition", "none", "--label", "n",
                                "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "MATRIX_n.json").read_text())
        assert doc["cells"]["serve-sim"]["multi_tenant"]["quotas"] == {}

    def test_bad_mix_exits_two(self, tmp_path, capsys):
        rc = main(self._FAST + ["--mix", "0", "0", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, values, field", [
        ("--arrival-rate", ["nan"], "arrival_rate_hz"),
        ("--arrival-rate", ["inf"], "arrival_rate_hz"),
        ("--mix", ["nan", "1", "1"], "mix"),
        ("--mix", ["inf", "1", "1"], "mix"),
    ])
    def test_non_finite_value_exits_two(self, tmp_path, capsys, flag, values, field):
        """A NaN or infinite rate or weight is refused by name, before any
        session runs: no snapshot (with a NaN in it) is written."""
        rc = main(self._FAST + [flag, *values, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not list(tmp_path.iterdir())


@pytest.fixture(scope="module")
def bench_snapshot(tmp_path_factory):
    """One quick bench snapshot shared by the analyze tests."""
    out = tmp_path_factory.mktemp("analyze")
    assert main(["bench", "--quick", "--label", "an", "--out", str(out)]) == 0
    return out / "MATRIX_an.json"


class TestAnalyze:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["analyze"])
        assert args.source is None
        assert str(args.out) == "report.html"
        assert args.prom is None

    def test_bench_snapshot_writes_html_and_prom(self, bench_snapshot, tmp_path,
                                                 capsys):
        html = tmp_path / "report.html"
        prom = tmp_path / "metrics.prom"
        rc = main(["analyze", str(bench_snapshot),
                   "--out", str(html), "--prom", str(prom)])
        assert rc == 0
        out = capsys.readouterr().out
        # 4 cells and the 4 tenants of suite.multi_tenant, all reconciled
        assert "8 attribution section(s)" in out
        assert out.count("reconciled=True") == 8
        assert "tenant:s003" in out
        text = html.read_text(encoding="utf-8")
        assert "Regret vs Belady" in text
        assert "Frame-time waterfall" in text
        prom_text = prom.read_text()
        assert "# TYPE repro_attribution_component_seconds counter" in prom_text
        assert "repro_cache_regret_misses" in prom_text
        assert "repro_eviction_lineage_evictions_total" in prom_text

    def test_serve_snapshot_source(self, tmp_path, capsys):
        assert main(["serve-sim", "--sessions", "2", "--session-steps", "4",
                     "--serve-blocks", "64", "--serve-scale", "0.04",
                     "--label", "x", "--out", str(tmp_path)]) == 0
        rc = main(["analyze", str(tmp_path / "MATRIX_x.json"),
                   "--out", str(tmp_path / "r.html")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 attribution section(s)" in out
        assert "serve-sim/tenant:s001: reconciled=True" in out

    def test_committed_serve_document(self, tmp_path, capsys):
        rc = main(["analyze", str(REPO_ROOT / "MATRIX_serve-baseline.json"),
                   "--out", str(tmp_path / "r.html")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "8 attribution section(s)" in out
        assert out.count("serve-baseline/tenant:") == 8

    def test_out_creates_its_directory(self, tmp_path, capsys):
        html = tmp_path / "nodir" / "deeper" / "r.html"
        rc = main(["analyze", str(REPO_ROOT / "MATRIX_serve-baseline.json"),
                   "--out", str(html)])
        assert rc == 0
        assert "serve-baseline" in html.read_text(encoding="utf-8")

    def test_prom_creates_its_directory(self, tmp_path, capsys):
        prom = tmp_path / "nodir" / "x.prom"
        rc = main(["analyze", str(REPO_ROOT / "MATRIX_serve-baseline.json"),
                   "--out", str(tmp_path / "r.html"), "--prom", str(prom)])
        assert rc == 0
        assert prom.read_text().startswith("# ")

    def test_jsonl_source(self, tmp_path, capsys):
        from repro.trace import TraceEvent, write_jsonl

        events = [
            TraceEvent(0, "fetch", 0, "hdd", 1, 1024, 0.5),
            TraceEvent(1, "render", 0, "", -1, 0, 0.1),
        ]
        path = write_jsonl(events, tmp_path / "t.jsonl")
        rc = main(["analyze", str(path), "--out", str(tmp_path / "r.html")])
        assert rc == 0
        assert (tmp_path / "r.html").exists()

    def test_empty_jsonl_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        rc = main(["analyze", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert err.count("\n") == 1

    def test_truncated_jsonl_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "trunc.jsonl"
        path.write_text('{"seq":0,"kind":"hit",')
        rc = main(["analyze", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "truncated" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("line, why", [
        ('"kind":"frobnicate","step":0,"level":"","key":1', "unknown event kind"),
        ('"kind":"fetch","step":0,"level":"hdd","key":100000000000000000000', "too large"),
    ])
    def test_unfoldable_jsonl_one_line_error(self, tmp_path, capsys, line, why):
        """Trace columns hold the EVENT_KINDS and int64 numbers: anything
        else in a JSONL trace is a one-line error, not a traceback."""
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq":0,' + line + ',"nbytes":0,"time_s":0.5}\n')
        rc = main(["analyze", str(path), "--out", str(tmp_path / "r.html")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and why in err
        assert err.count("\n") == 1

    def test_missing_source_one_line_error(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "nope.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_failed_reconciliation_exits_one(self, tmp_path, capsys):
        import json

        doc = {
            "kind": "matrix",
            "cells": {
                "bad/run": {
                    "attribution": {
                        "schema_version": 1,
                        "n_frames": 1,
                        "demand_components": {"miss_transfer:hdd": 0.5},
                        "prefetch_components": {},
                        "totals": {"io_time_s": 0.5, "frame_time_s": 0.5},
                        "n_re_miss": 0, "n_degraded": 0,
                        "degraded_extra_s": 0.0,
                        "reconciled": False, "exact": True,
                        "incomplete": False, "frames": [],
                    },
                },
            },
        }
        snap = tmp_path / "bad.json"
        snap.write_text(json.dumps(doc))
        rc = main(["analyze", str(snap), "--out", str(tmp_path / "r.html")])
        assert rc == 1
        assert "failed ledger reconciliation" in capsys.readouterr().err


class TestTraceFromJsonl:
    def test_overwritten_events_read_incomplete(self, tmp_path, capsys):
        """A JSONL trace of a wrapped ring reports its drops: ``analyze``
        reads it incomplete and ``trace --from-jsonl`` warns as the live
        run does; a complete trace reads as before."""
        jsonl = tmp_path / "t.jsonl"
        argv = ["trace", "--dataset", "3d_ball", "--blocks", "64", "--scale", "0.04",
                "--steps", "6", "--policy", "lru", "--out", str(tmp_path / "t.json"),
                "--jsonl", str(jsonl)]
        assert main(argv + ["--capacity", "10"]) == 0
        live = capsys.readouterr().out
        warning = next(line for line in live.splitlines() if line.startswith("warning:"))
        assert main(["analyze", str(jsonl), "--out", str(tmp_path / "t.html")]) == 0
        assert "run: reconciled=None exact=True incomplete=True" in capsys.readouterr().out
        assert main(["trace", "--from-jsonl", str(jsonl),
                     "--out", str(tmp_path / "t2.json")]) == 0
        assert warning in capsys.readouterr().out.splitlines()

        assert main(argv) == 0
        assert "warning:" not in capsys.readouterr().out
        assert main(["analyze", str(jsonl), "--out", str(tmp_path / "t.html")]) == 0
        assert "incomplete=False" in capsys.readouterr().out
        assert main(["trace", "--from-jsonl", str(jsonl),
                     "--out", str(tmp_path / "t2.json")]) == 0
        assert "warning:" not in capsys.readouterr().out
        assert (tmp_path / "t.json").read_bytes() == (tmp_path / "t2.json").read_bytes()

    def test_reports_from_existing_jsonl(self, tmp_path, capsys):
        from repro.trace import TraceEvent, write_jsonl

        events = [
            TraceEvent(0, "fetch", 0, "hdd", 1, 1024, 0.5),
            TraceEvent(1, "render", 0, "", -1, 0, 0.1),
        ]
        path = write_jsonl(events, tmp_path / "t.jsonl")
        rc = main(["trace", "--from-jsonl", str(path),
                   "--out", str(tmp_path / "chrome.json")])
        assert rc == 0
        assert (tmp_path / "chrome.json").exists()
        assert "chrome trace" in capsys.readouterr().out

    def test_empty_jsonl_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        rc = main(["trace", "--from-jsonl", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def _line(**fields):
    import json

    row = {"seq": 0, "kind": "fetch", "step": 0, "level": "hdd", "key": 1, "nbytes": 8,
           "time_s": 0.5, "span": "", "age_steps": -1, "origin": ""}
    row.update(fields)
    return json.dumps(row, separators=(",", ":")) + "\n"


#: JSONL files both readers reject: the columns cannot hold the first two,
#: every event is one block, a charged time is a finite number >= 0, and
#: ``aggregate`` sums bytes in int64 and times in finite floats.
_BAD_JSONL = {
    "unknown_kind": _line(kind="frobnicate"),
    "number_past_int64": _line(key=2**64),
    "count_2": _line(count=2),
    "byte_sums_past_int64": _line(nbytes=2**62) + _line(seq=1, nbytes=2**62),
    "time_infinity": _line(time_s=float("inf")),
    "time_nan": _line(time_s=float("nan")),
    "time_negative": _line(time_s=-1.0),
    "time_sums_past_the_floats": _line(time_s=1e308) + _line(seq=1, time_s=1e308),
}


class TestJsonlReaders:
    """``repro trace --from-jsonl`` and ``repro analyze`` read a JSONL
    trace through one reader, so they accept and reject the same files."""

    @pytest.mark.parametrize("name", sorted(_BAD_JSONL))
    def test_both_commands_reject_the_same_files(self, tmp_path, capsys, name):
        path = tmp_path / f"{name}.jsonl"
        path.write_text(_BAD_JSONL[name])
        for argv in (["trace", "--from-jsonl", str(path), "--out", str(tmp_path / "t.json")],
                     ["analyze", str(path), "--out", str(tmp_path / "t.html")]):
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("error:") and str(path) in err, argv[0]
            assert err.count("\n") == 1 and "Traceback" not in err, argv[0]
        assert not (tmp_path / "t.json").exists() and not (tmp_path / "t.html").exists()

    def test_a_clock_past_the_floats_writes_no_chrome_file(self, tmp_path, capsys):
        """A time the readers take can still scale past the floats on the
        Chrome clock (microseconds): ``--from-jsonl`` then exits 2 with one
        line, before the file exists."""
        path = tmp_path / "huge.jsonl"
        path.write_text(_line(time_s=1e303))
        out = tmp_path / "t.json"
        assert main(["trace", "--from-jsonl", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err and "not be finite" in err
        assert err.count("\n") == 1 and not out.exists()
        assert main(["analyze", str(path), "--out", str(tmp_path / "t.html")]) == 0

    def test_count_1_lines_read_as_before(self, tmp_path, capsys):
        """Lines that carry ``"count": 1`` (the key older versions wrote)
        read as the same trace in both commands."""
        import json

        new = tmp_path / "new" / "t.jsonl"
        assert main(["trace", "--dataset", "3d_ball", "--blocks", "64", "--scale", "0.04",
                     "--steps", "6", "--policy", "lru", "--out", str(tmp_path / "t.json"),
                     "--jsonl", str(new)]) == 0
        capsys.readouterr()
        old = tmp_path / "old" / "t.jsonl"
        old.parent.mkdir()
        with old.open("w") as fh:
            for line in new.read_text().splitlines():
                row = json.loads(line)  # "count" went after "span", the 8th key
                row = {**{k: row.pop(k) for k in list(row)[:8]}, "count": 1, **row}
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
        assert '"span":"","count":1,"age_steps":-1' in old.read_text()
        outs = []
        for path in (new, old):
            out = path.parent / "t2.json"
            assert main(["trace", "--from-jsonl", str(path), "--out", str(out)]) == 0
            table = capsys.readouterr().out.split("\n", 1)[1]  # after the title
            assert main(["analyze", str(path), "--out", str(path.parent / "t.html")]) == 0
            outs.append((table.replace(str(path.parent), ""), out.read_bytes(),
                         capsys.readouterr().out.replace(str(path.parent), "")))
        assert outs[0] == outs[1]


class TestReplayRecord:
    def test_record_then_replay_trace(self, tmp_path, capsys):
        trace = tmp_path / "session.jsonl"
        rc = main([
            "replay", "--blocks", "64", "--scale", "0.04", "--steps", "6",
            "--path-type", "spherical", "--policies", "lru", "--no-app-aware",
            "--record", str(trace),
        ])
        assert rc == 0
        assert "camera trace" in capsys.readouterr().out
        assert trace.is_file()

        rc = main([
            "replay", "--blocks", "64", "--scale", "0.04", "--steps", "6",
            "--path-type", "recorded", "--trace-file", str(trace),
            "--policies", "lru", "--no-app-aware",
        ])
        assert rc == 0
        # the recorded path keeps the original session's name
        assert "spherical_5deg" in capsys.readouterr().out

    def test_record_creates_its_directory(self, tmp_path, capsys):
        trace = tmp_path / "nodir" / "cam.jsonl"
        rc = main([
            "replay", "--blocks", "64", "--scale", "0.04", "--steps", "6",
            "--path-type", "spherical", "--policies", "lru", "--no-app-aware",
            "--record", str(trace),
        ])
        assert rc == 0
        assert trace.is_file()

    def test_recorded_without_trace_file_is_one_line_error(self, capsys):
        rc = main([
            "replay", "--blocks", "64", "--scale", "0.04", "--steps", "6",
            "--path-type", "recorded",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "trace_file" in err


class TestMatrix:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["matrix", "run", "smoke"])
        assert args.matrix_command == "run"
        assert args.spec == "smoke" and args.workers == 1

    def test_run_bundled_smoke_spec(self, tmp_path, capsys):
        report = tmp_path / "report.html"
        rc = main([
            "matrix", "run", "smoke", "--out", str(tmp_path),
            "--report", str(report),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 cells" in out
        assert (tmp_path / "MATRIX_smoke.json").is_file()
        html = report.read_text()
        assert "<script" not in html.lower()
        assert "http://" not in html and "https://" not in html
        # `analyze` of the written document writes the same page.
        again = tmp_path / "analyze.html"
        assert main(["analyze", str(tmp_path / "MATRIX_smoke.json"), "--out", str(again),
                     "--title", "matrix smoke report"]) == 0
        assert again.read_text() == html

    def test_compare_fresh_against_committed(self, tmp_path, capsys):
        assert main(["matrix", "run", "smoke", "--out", str(tmp_path)]) == 0
        rc = main([
            "matrix", "compare", str(tmp_path / "MATRIX_smoke.json"),
            "MATRIX_smoke.json",
        ])
        assert rc == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_report_subcommand(self, tmp_path, capsys):
        # `matrix report` is gone; `analyze` renders a matrix document.
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "report", "MATRIX_smoke.json"])
        assert exc.value.code == 2
        out_html = tmp_path / "m.html"
        assert main(["analyze", "MATRIX_smoke.json", "--out", str(out_html)]) == 0
        html = out_html.read_text()
        for key in ("orbit/lru", "orbit/app-aware", "zoom/lru", "zoom/app-aware"):
            assert f"<tr><td>{key}</td>" in html

    def test_unknown_spec_lists_bundled(self, capsys):
        rc = main(["matrix", "run", "no-such-spec"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bundled" in err and "smoke" in err

    def test_compare_missing_file_exits_two(self, capsys):
        rc = main(["matrix", "compare", "nope.json", "also-nope.json"])
        assert rc == 2

    def test_label_override(self, tmp_path):
        import json

        assert main([
            "matrix", "run", "smoke", "--label", "renamed",
            "--out", str(tmp_path),
        ]) == 0
        doc = json.loads((tmp_path / "MATRIX_renamed.json").read_text())
        assert doc["label"] == "smoke"  # --label names the file only
        assert sorted(doc["cells"]) == sorted(
            ["orbit/lru", "orbit/app-aware", "zoom/lru", "zoom/app-aware"]
        )

    def test_label_names_the_file_only(self, tmp_path, capsys):
        # A no-axes spec keys its one cell by the spec's label; --label
        # must not rename that cell, or the compare finds no common rows.
        import json

        assert main(["matrix", "run", "serve-baseline", "--out", str(tmp_path)]) == 0
        assert main(["matrix", "run", "serve-baseline", "--label", "ci",
                     "--out", str(tmp_path)]) == 0
        for name in ("MATRIX_serve-baseline.json", "MATRIX_ci.json"):
            doc = json.loads((tmp_path / name).read_text())
            assert list(doc["cells"]) == ["serve-baseline"], name
        capsys.readouterr()
        assert main(["matrix", "compare", str(tmp_path / "MATRIX_serve-baseline.json"),
                     str(tmp_path / "MATRIX_ci.json"), "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "30 metrics compared, 0 regression(s)" in out
        assert out.count("  ok") == 30 and "missing" not in out
