"""Tests for FIFOPolicy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.fifo import FIFOPolicy
from tests.policies._fifo_reference import FIFOPolicy as ReferenceFIFO


@pytest.fixture()
def p():
    return FIFOPolicy()


class TestFIFO:
    def test_victim_is_oldest_insert(self, p):
        for k in (4, 5, 6):
            p.on_insert(k, 0)
        assert p.choose_victim() == 4

    def test_hits_do_not_refresh(self, p):
        for k in (4, 5, 6):
            p.on_insert(k, 0)
        p.on_hit(4, 9)
        p.on_hit(4, 10)
        assert p.choose_victim() == 4

    def test_protected_skipped_in_order(self, p):
        for k in (4, 5, 6):
            p.on_insert(k, 0)
        assert p.choose_victim(lambda k: k != 4) == 5

    def test_evict_then_next(self, p):
        for k in (4, 5, 6):
            p.on_insert(k, 0)
        p.on_evict(4)
        assert p.choose_victim() == 5

    def test_reinsert_goes_to_back(self, p):
        for k in (1, 2):
            p.on_insert(k, 0)
        p.on_evict(1)
        p.on_insert(1, 5)
        assert p.insertion_order() == [2, 1]

    def test_double_insert_rejected(self, p):
        p.on_insert(1, 0)
        with pytest.raises(KeyError):
            p.on_insert(1, 0)

    def test_none_when_all_protected(self, p):
        p.on_insert(1, 0)
        assert p.choose_victim(lambda k: False) is None

    def test_reset(self, p):
        p.on_insert(1, 0)
        p.reset()
        assert len(p) == 0


# The array-native FIFO against the OrderedDict implementation it replaced.

N_KEYS = 12

_op = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, N_KEYS - 1)),
    st.tuples(st.just("hit"), st.integers(0, N_KEYS - 1)),
    st.tuples(st.just("evict"), st.integers(0, N_KEYS - 1)),
    st.tuples(st.just("access"), st.lists(st.integers(0, N_KEYS - 1), unique=True)),
    st.tuples(st.just("victim"), st.sets(st.integers(0, N_KEYS - 1))),
    st.tuples(st.just("masked"), st.sets(st.integers(0, N_KEYS - 1))),
    st.tuples(st.just("order"), st.sets(st.integers(0, N_KEYS - 1))),
)


@given(ops=st.lists(_op, max_size=60))
@settings(max_examples=200, deadline=None)
def test_matches_ordered_dict_reference(ops):
    """Random hook sequences: every answer and the insertion order agree.

    Hits and inserts go only to tracked/untracked keys (the cache's
    contract); ``access`` splits its keys by tracking the same way.
    """
    ref, fifo = ReferenceFIFO(), FIFOPolicy()
    tracked: set = set()
    for op, arg in ops:
        if op == "insert" and arg not in tracked:
            ref.on_insert(arg, 0)
            fifo.on_insert(arg, 0)
            tracked.add(arg)
        elif op == "hit" and arg in tracked:
            ref.on_hit(arg, 0)
            fifo.on_hit(arg, 0)
        elif op == "evict" and arg in tracked:
            ref.on_evict(arg)
            fifo.on_evict(arg)
            tracked.discard(arg)
        elif op == "access":
            keys = np.array(arg, dtype=np.int64)
            inserted = np.array([k not in tracked for k in arg], dtype=bool)
            for key, ins in zip(arg, inserted.tolist()):
                if ins:
                    ref.on_insert(key, 0)
                else:
                    ref.on_hit(key, 0)
            fifo.on_access_many(keys, inserted, 0)
            tracked.update(arg)
        elif op == "victim":
            assert fifo.choose_victim(arg.__contains__) == ref.choose_victim(arg.__contains__)
        elif op in ("masked", "order"):
            mask = np.zeros(N_KEYS, dtype=bool)
            mask[list(arg)] = True
            if op == "masked":  # the head of the order is the next victim
                order = fifo.victim_order(mask)
                head = int(order[0]) if order.size else None
                assert head == ref.choose_victim(arg.__contains__)
            else:
                want = [k for k in ref.insertion_order() if mask[k]]
                assert fifo.victim_order(mask).tolist() == want
        assert fifo.insertion_order() == ref.insertion_order()
        assert len(fifo) == len(ref)
    for key in tracked:  # the error contract matches too
        with pytest.raises(KeyError):
            ref.on_insert(key, 0)
        with pytest.raises(KeyError):
            fifo.on_insert(key, 0)
