"""Tests for the policy registry."""

import pytest

from repro.policies import registry
from repro.policies.base import ReplacementPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.registry import POLICY_NAMES, make_policy, register_policy


@pytest.fixture()
def restore_registry():
    """Leave the registry as the test found it."""
    saved = dict(registry._FACTORIES)
    yield
    registry._FACTORIES.clear()
    registry._FACTORIES.update(saved)


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
        assert {"fifo", "lru", "arc"} <= set(POLICY_NAMES)

    def test_register_custom(self):
        class Custom(LRUPolicy):
            name = "custom-test"

        register_policy("custom-test", Custom)
        try:
            assert make_policy("custom-test").name == "custom-test"
            with pytest.raises(ValueError, match="already registered"):
                register_policy("custom-test", Custom)
        finally:
            registry._FACTORIES.pop("custom-test", None)

    def test_mixed_case_registration_is_found(self, restore_registry):
        register_policy("MyLRU", LRUPolicy)
        assert isinstance(make_policy("MyLRU"), LRUPolicy)
        assert isinstance(make_policy("mylru"), LRUPolicy)

    @pytest.mark.parametrize("name", ["LRU", "Fifo", "lru"])
    def test_case_variant_of_a_known_name_rejected(self, restore_registry, name):
        with pytest.raises(ValueError, match="already registered"):
            register_policy(name, LRUPolicy)

    def test_case_variant_of_a_registration_rejected(self, restore_registry):
        register_policy("MyLRU", LRUPolicy)
        with pytest.raises(ValueError, match="already registered"):
            register_policy("mylru", LRUPolicy)

    def test_unknown_lists_the_registered_names(self, restore_registry):
        register_policy("custom-listed", LRUPolicy)
        with pytest.raises(KeyError, match="custom-listed"):
            make_policy("no-such-policy")
