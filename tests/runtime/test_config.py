"""RunConfig: schema validation, round-trips, and total CLI flag coverage."""

import dataclasses

import pytest

from repro.cli import build_parser
from repro.runtime import (
    CLI_FIELD_MAP,
    CLI_ONLY_FLAGS,
    RUN_CONFIG_SCHEMA,
    RunConfig,
)


class TestValidation:
    def test_default_config_is_valid(self):
        RunConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policy": "not-a-policy"},
            {"policies": ("lru", "not-a-policy")},
            {"policies": ["lru"]},  # list, not tuple
            {"prefetcher": "psychic"},
            {"workload": "teleport"},
            {"shard_map": "hexagonal"},
            {"faults": "meteor-strike"},
            {"dataset": "no_such_dataset"},
            {"blocks": 0},
            {"steps": -1},
            {"cache_ratio": 0.0},
            {"cache_ratio": 1.5},
            {"degrees": (10.0, 5.0)},  # lo > hi
            {"degrees": (5.0,)},
            {"distance": -2.5},
            {"io_budget_s": 0.0},
            {"belady": 1},  # not a bool
            {"scale": -0.5},
        ],
    )
    def test_invalid_field_raises(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_fault_seed_without_profile_conflicts(self):
        with pytest.raises(ValueError, match="conflicts with faults='none'"):
            RunConfig(fault_seed=3)

    def test_fault_seed_with_profile_ok(self):
        cfg = RunConfig(faults="chaos", fault_seed=3)
        assert cfg.fault_seed == 3

    def test_schema_covers_every_field(self):
        field_names = {f.name for f in dataclasses.fields(RunConfig)}
        assert field_names == set(RUN_CONFIG_SCHEMA)


class TestRoundTrip:
    def test_dict_round_trip(self):
        cfg = RunConfig(
            dataset="3d_ball", blocks=64, workload="zoom", steps=9,
            degrees=(1.0, 2.0), policies=("lru", "arc"), belady=True,
            faults="chaos", fault_seed=5, io_budget_s=0.25,
        )
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_is_json_plain(self):
        d = RunConfig().to_dict()
        assert isinstance(d["degrees"], list)
        assert isinstance(d["policies"], list)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown RunConfig field"):
            RunConfig.from_dict({"steps": 5, "warp_factor": 9})


class TestFromCli:
    def test_replay_defaults(self):
        args = build_parser().parse_args(["replay"])
        cfg = RunConfig.from_cli(args, command="replay")
        assert cfg == RunConfig()

    def test_replay_flags_map_onto_fields(self):
        args = build_parser().parse_args(
            [
                "replay", "--dataset", "3d_ball", "--blocks", "64",
                "--seed", "4", "--path-type", "zoom", "--steps", "9",
                "--degrees", "1", "2", "--distance", "3.0",
                "--cache-ratio", "0.25", "--policies", "lru", "arc",
                "--belady", "--no-app-aware",
                "--faults", "chaos", "--fault-seed", "5",
            ]
        )
        cfg = RunConfig.from_cli(args, command="replay")
        assert cfg == RunConfig(
            dataset="3d_ball", blocks=64, seed=4, workload="zoom", steps=9,
            degrees=(1.0, 2.0), distance=3.0, cache_ratio=0.25,
            policies=("lru", "arc"), belady=True, app_aware=False,
            faults="chaos", fault_seed=5,
        )

    def test_bench_flags_map_onto_fields(self):
        args = build_parser().parse_args(
            ["bench", "--faults", "flaky-hdd", "--fault-seed", "2"]
        )
        cfg = RunConfig.from_cli(args, command="bench")
        assert cfg.faults == "flaky-hdd"
        assert cfg.fault_seed == 2

    def test_conflicting_fault_flags_raise(self):
        args = build_parser().parse_args(["replay", "--fault-seed", "9"])
        with pytest.raises(ValueError, match="conflicts"):
            RunConfig.from_cli(args, command="replay")

    def test_unknown_command_raises(self):
        args = build_parser().parse_args(["replay"])
        with pytest.raises(ValueError, match="command"):
            RunConfig.from_cli(args, command="render")

    @pytest.mark.parametrize("command", ["replay", "bench"])
    def test_no_orphan_flags(self, command):
        """Every replay/bench argparse dest is claimed by CLI_FIELD_MAP
        (run-shaping) or CLI_ONLY_FLAGS (reporting/execution) — a new flag
        must be sorted into one of the two."""
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        sub = subparsers.choices[command]
        dests = {
            a.dest for a in sub._actions if a.dest not in ("help", "==SUPPRESS==")
        }
        claimed = set(CLI_FIELD_MAP) | set(CLI_ONLY_FLAGS)
        orphans = dests - claimed
        assert not orphans, f"unclassified {command} flags: {sorted(orphans)}"

    def test_field_map_points_at_real_fields(self):
        field_names = {f.name for f in dataclasses.fields(RunConfig)}
        assert set(CLI_FIELD_MAP.values()) <= field_names
        assert not set(CLI_FIELD_MAP) & set(CLI_ONLY_FLAGS)
