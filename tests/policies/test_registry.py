"""Tests for the policy registry."""

import pytest

from repro.policies.base import ReplacementPolicy
from repro.policies.registry import POLICY_NAMES, make_policy, register_policy


class TestRegistry:
    def test_all_names_construct(self):
        for name in POLICY_NAMES:
            p = make_policy(name)
            assert isinstance(p, ReplacementPolicy)
            assert p.name == name

    def test_case_insensitive(self):
        assert make_policy("LRU").name == "lru"

    def test_fresh_instances(self):
        assert make_policy("lru") is not make_policy("lru")

    def test_unknown_rejected(self):
        with pytest.raises(KeyError, match="unknown policy"):
            make_policy("belady")  # needs a trace, not in the registry

    def test_expected_names_present(self):
        assert {"fifo", "lru", "arc", "mru", "lfu"} <= set(POLICY_NAMES)

    def test_register_custom(self):
        from repro.policies.lru import LRUPolicy

        class Custom(LRUPolicy):
            name = "custom-test"

        register_policy("custom-test", Custom)
        try:
            assert make_policy("custom-test").name == "custom-test"
            with pytest.raises(ValueError, match="already registered"):
                register_policy("custom-test", Custom)
        finally:
            from repro.policies import registry

            registry._FACTORIES.pop("custom-test", None)
