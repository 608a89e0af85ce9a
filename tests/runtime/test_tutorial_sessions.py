"""Executes the TUTORIAL's "Simulating many viewers" code blocks.

Mirrors docs/TUTORIAL.md §12 line for line (smaller steps/blocks for
speed); if an API there drifts, this file breaks with it.
"""

from repro.experiments import LoadGenConfig, fresh_hierarchy, run_load
from repro.runtime import SessionSpec, run_sessions


class TestTutorialSessionsWalkthrough:
    def test_run_sessions_block(self, small_grid):
        grid = small_grid
        specs = [
            SessionSpec(session_id="alice", workload="spherical", steps=8, seed=1),
            SessionSpec(session_id="bob", workload="zoom", steps=8, seed=2,
                        arrival_s=0.5),
            SessionSpec(session_id="cara", workload="flythrough", steps=8, seed=3,
                        arrival_s=1.0),
        ]
        result = run_sessions(specs, fresh_hierarchy(grid), grid, partition="equal")

        report = result.as_dict()
        assert report["frame_times"]["per_tenant"]["bob"]["p99"] > 0.0
        assert 0.0 < report["frame_times"]["fairness_jain"] <= 1.0
        assert result.cross_evictions == 0

    def test_run_load_block(self):
        doc = run_load(LoadGenConfig(n_sessions=8, steps=4, blocks=64,
                                     scale=0.04, seed=0))
        assert doc["multi_tenant"]["frame_times"]["pooled"]["p99"] > 0.0

    def test_serve_sim_cli_block(self, tmp_path, capsys):
        from repro.cli import main

        fast = ["serve-sim", "--sessions", "8", "--session-steps", "3",
                "--serve-blocks", "64", "--serve-scale", "0.04",
                "--out", str(tmp_path)]
        assert main(fast + ["--label", "baseline"]) == 0
        assert main(fast + ["--label", "local"]) == 0
        assert main([
            "matrix", "compare",
            str(tmp_path / "MATRIX_baseline.json"),
            str(tmp_path / "MATRIX_local.json"),
            "--threshold", "0.25",
        ]) == 0
