"""Edge cases of ``CacheLevel.access_many`` against the per-key loop.

``access_many(keys, ...)`` must equal ``for k in keys: touch(k) if k in
level else admit(k)`` — residency, ``last_used``, ``CacheStats``, the
policy's internal order and the victim queue left to consume — including
the frames where the planned sweep for victim-queue policies (LRU, FIFO)
could go wrong: a victim the frame accesses later, a FIFO block hit
earlier in the frame, an unconstrained queue running dry, a constrained
frame with nothing evictable, free slots before the first eviction, and a
prefetch limit that cuts the frame — each entered with and without a
victim queue already built.  Every frame also runs on the live-loop
policies, and every frame compares the evict/bypass events as well: the
per-key loop records them on a tracer, ``access_many`` collects them in
an :class:`~repro.storage.cache.EventSink` tagged with the frame position
of the access that caused each — the same events at the same positions,
tenant-quota levels included.

Tenant-quota levels plan too: the differential at the end also draws
quotas that fill the capacity or leave room, unowned residents,
untenanted frames, quota re-installs, ``admits`` masks and frames with
many more misses than a quota, and compares the owners and the
registry's occupancy gauge and eviction, bypass and cross-eviction
counters as well.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.policies.registry import make_policy
from repro.storage.cache import CacheLevel, EventSink
from repro.trace import Tracer

POLICIES = ["lru", "fifo", "arc", "mru", "lfu", "clock"]
QUEUE_POLICIES = ["lru", "fifo"]


def _level(policy, capacity, residents=(), quotas=None):
    """A traced level whose ``residents`` were admitted in order at step 0
    (``residents`` of ``(key, tenant)`` pairs under ``quotas``)."""
    level = CacheLevel("dram", capacity, make_policy(policy), n_blocks=16)
    level.set_tenant_quotas(quotas)
    for resident in residents:
        key, tenant = resident if quotas else (resident, None)
        level.admit(key, 0, tenant=tenant)
    level.tracer = Tracer()
    return level


def _per_key(level, keys, step, min_free_step=None, touch=True, limit=None, tenant=None,
             admits=None):
    """The reference: one touch or admit per key, stopping after ``limit``
    admits; a miss that ``admits`` does not mark is passed over.  Returns
    the hit list and the evict/bypass events each access recorded, as
    ``(position, kind, key)``."""
    hit, events = [], []
    tracer = level.tracer
    n_admits = 0
    for pos, key in enumerate(keys):
        if limit is not None and n_admits >= limit:
            break
        seen = tracer.n_recorded
        if key in level:
            if touch:
                level.touch(key, step)
            hit.append(True)
        else:
            if admits is None or admits[pos]:
                level.admit(key, step, min_free_step=min_free_step, tenant=tenant)
                n_admits += 1
            hit.append(False)
        events += [(pos, e.kind, e.key) for e in tracer.events_since(seen)]
    return hit, events


def _frame(a, b, keys, step, min_free_step=None, touch=True, limit=None, tenant=None,
           admits=None):
    """One frame through the per-key loop on ``a`` and ``access_many`` on
    ``b``: the same hit mask and the same events at the same positions
    (``b`` records none itself: they go to the sink)."""
    want, want_events = _per_key(a, keys, step, min_free_step, touch, limit, tenant, admits)
    sink = EventSink()
    mask = None if admits is None else np.array(admits, dtype=bool)
    got = b.access_many(
        np.array(keys, dtype=np.int64), step, min_free_step, touch, None, limit, tenant, sink,
        mask,
    )
    assert got.tolist() == want
    assert sorted(zip(sink.pos, sink.kinds, sink.keys), key=lambda e: e[0]) == want_events
    assert b.tracer.n_recorded == 0
    return want


def _order(level):
    policy = level.policy
    if hasattr(policy, "recency_order"):
        return policy.recency_order()
    if hasattr(policy, "list_sizes"):
        return (policy.list_sizes(), policy.p, list(policy._t1), list(policy._t2))
    return None


def _queue(level):
    """The victim queue still to be consumed, with what it was built for."""
    if level._vq_epoch is None:
        return None
    token = level._vq_token if level._vq_epoch[1] is None else None
    return level._vq_epoch, token, level._vq[level._vq_pos:].tolist()


def _assert_same(a, b):
    ra, rb = np.flatnonzero(a._resident), np.flatnonzero(b._resident)
    np.testing.assert_array_equal(ra, rb)
    np.testing.assert_array_equal(a._last_used[ra], b._last_used[rb])
    assert a.stats == b.stats
    assert _order(a) == _order(b)
    assert _queue(a) == _queue(b)
    a.check_invariants()
    b.check_invariants()


def _check(policy, capacity, residents, keys, step=1, min_free_step=None, touch=True,
           limit=None, warm=False):
    """Run one frame both ways and compare; then compare a follow-up frame
    (which consumes whatever victim queue the first frame left behind).
    ``warm`` first admits block 15 per key at the frame's step, so a full
    level enters the frame with its victim queue already built.
    Returns the hit mask, the residents and the stats after the frame."""
    a = _level(policy, capacity, residents)
    b = _level(policy, capacity, residents)
    if warm:
        for level in (a, b):
            level.admit(15, step, min_free_step=min_free_step)
        b.tracer.clear()  # the warm-up's eviction is not the frame's
    got = _frame(a, b, keys, step, min_free_step, touch, limit)
    _assert_same(a, b)
    after = np.flatnonzero(b._resident).tolist(), copy.copy(b.stats)
    follow = [k for k in range(12) if k not in keys][:4] + list(keys)[:2]
    _frame(a, b, follow, step, min_free_step)
    _assert_same(a, b)
    return (got,) + after


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("min_free_step", [None, 1])
@pytest.mark.parametrize("warm", [False, True])
class TestFrames:
    def test_early_miss_evicts_a_later_hit(self, policy, min_free_step, warm):
        # The frame's miss evicts the next queued block, which the frame
        # then misses on too (cold: 1 then 2; warm, 1 already gone: 2 then 3).
        keys = [5, 2] if warm else [5, 1]
        hit, resident, _ = _check(policy, 3, [1, 2, 3], keys, min_free_step=min_free_step,
                                  warm=warm)
        if policy in QUEUE_POLICIES:
            assert hit == [False, False]
            assert resident == ([2, 5, 15] if warm else [1, 3, 5])

    def test_hit_then_eviction_in_one_frame(self, policy, min_free_step, warm):
        # The frame hits the next queued block, then misses.
        keys = [2, 5] if warm else [1, 5]
        hit, resident, _ = _check(policy, 3, [1, 2, 3], keys, min_free_step=min_free_step,
                                  warm=warm)
        assert hit == [True, False]
        if policy == "fifo" and min_free_step is None:
            # Hits do not protect under FIFO: the hit block goes.
            assert resident == ([3, 5, 15] if warm else [2, 3, 5])
        elif policy in QUEUE_POLICIES:
            assert resident == ([2, 5, 15] if warm else [1, 3, 5])

    def test_free_slots_fill_before_the_first_eviction(self, policy, min_free_step, warm):
        hit, resident, stats = _check(policy, 4, [1, 2], [3, 4, 5], min_free_step=min_free_step,
                                      warm=warm)
        assert hit == [False, False, False]
        assert stats.evictions == (2 if warm else 1)
        if policy in QUEUE_POLICIES:
            assert resident == ([3, 4, 5, 15] if warm else [2, 3, 4, 5])

    def test_prefetch_limit_cuts_mid_frame(self, policy, min_free_step, warm):
        hit, _, _ = _check(policy, 3, [1, 2, 3], [1, 4, 2, 5, 6], touch=False, limit=2,
                           min_free_step=min_free_step, warm=warm)
        assert hit.count(False) == 2
        assert len(hit) < 5

    def test_more_misses_than_capacity(self, policy, min_free_step, warm):
        _check(policy, 2, [1, 2], [3, 4, 5, 6, 1, 7], min_free_step=min_free_step, warm=warm)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("warm", [False, True])
class TestQueueEnds:
    def test_unconstrained_queue_runs_dry_mid_frame(self, policy, warm):
        # The queue holds the two residents; the third miss finds it empty
        # and rebuilds over the blocks this frame inserted.
        hit, resident, stats = _check(policy, 2, [1, 2], [3, 4, 5], warm=warm)
        assert hit == [False, False, False]
        assert stats.evictions == (4 if warm else 3)
        if policy in QUEUE_POLICIES:
            assert resident == [4, 5]

    def test_constrained_frame_bypasses_when_all_touched(self, policy, warm):
        keys = [2, 15, 3, 4] if warm else [1, 2, 3, 4]
        hit, resident, stats = _check(policy, 2, [1, 2], keys, min_free_step=1, warm=warm)
        assert stats.bypasses == 2
        if policy in QUEUE_POLICIES or not warm:
            assert hit == [True, True, False, False]
            assert resident == sorted(keys[:2])


@pytest.mark.parametrize("policy", QUEUE_POLICIES)
def test_victim_queue_shared_across_calls_of_one_step(policy):
    """Two constrained calls at one step share one queue epoch: the second
    call resumes where the first stopped, skipping blocks it touched."""
    a = _level(policy, 4, [1, 2, 3, 4])
    b = _level(policy, 4, [1, 2, 3, 4])
    for keys in ([5, 2], [6, 1, 7]):
        _frame(a, b, keys, 1, 1)
        _assert_same(a, b)


@pytest.mark.parametrize("policy", QUEUE_POLICIES)
def test_earlier_step_drops_a_later_epochs_queue(policy):
    """A frame at an earlier step than the queue's epoch leaves no queue
    behind, as a touch or an insert at that step does."""
    a = _level(policy, 3, [1, 2, 3])
    b = _level(policy, 3, [1, 2, 3])
    for level in (a, b):
        level.admit(4, 5, min_free_step=5)  # builds the queue of epoch (5, 5)
    b.tracer.clear()
    _frame(a, b, [2], 2, 2)
    assert b._vq_epoch is None
    _assert_same(a, b)


_frame_args = st.tuples(
    st.lists(st.integers(0, 11), unique=True, max_size=12),  # keys
    st.booleans(),  # constrained (min_free_step = step)
    st.booleans(),  # touch
    st.one_of(st.none(), st.integers(0, 6)),  # limit
)


@given(
    policy=st.sampled_from(POLICIES),
    capacity=st.integers(1, 6),
    residents=st.lists(st.integers(0, 11), unique=True, max_size=6),
    frames=st.lists(_frame_args, min_size=1, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_frame_sequences_match_the_per_key_loop(policy, capacity, residents, frames):
    """Random frame sequences: each frame starts from whatever queue the
    previous ones left, so cold, warm, dry and stale queues all occur."""
    a = _level(policy, capacity, residents)
    b = _level(policy, capacity, residents)
    for step, (keys, constrained, touch, limit) in enumerate(frames, start=1):
        mfs = step if constrained else None
        _frame(a, b, keys, step, mfs, touch, limit)
        _assert_same(a, b)


@given(
    policy=st.sampled_from(POLICIES),
    residents=st.lists(
        st.tuples(st.integers(0, 11), st.sampled_from(["a", "b"])),
        unique_by=lambda r: r[0], max_size=6,
    ),
    frames=st.lists(st.tuples(_frame_args, st.sampled_from(["a", "b", None])),
                    min_size=1, max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_tenant_quota_frames_match_the_per_key_loop(policy, residents, frames):
    """Tenant-quota levels plan ``access_many`` under owner filters: the
    same residency, ownership, stats and events as the per-key admits,
    per tenant."""
    quotas = {"a": 2, "b": 3}
    a = _level(policy, 6, residents, quotas)
    b = _level(policy, 6, residents, quotas)
    for step, ((keys, constrained, touch, limit), tenant) in enumerate(frames, start=1):
        mfs = step if constrained else None
        _frame(a, b, keys, step, mfs, touch, limit, tenant)
        _assert_same(a, b)
        assert a.tenant_usage() == b.tenant_usage()
        np.testing.assert_array_equal(a._owner, b._owner)


# -- tenant-quota levels on the planned sweep ---------------------------------

TENANTS = ("a", "b", "c")
N_KEYS = 16


def _quotas(caps, fill, capacity):
    """Quotas for a prefix of TENANTS from the drawn ``caps``, each >= 1,
    that sum to at most the capacity — to exactly it when ``fill``."""
    out, left = {}, capacity
    for name, cap in zip(TENANTS, caps):
        if left < 1:
            break
        out[name] = min(cap, left)
        left -= out[name]
    if fill:
        out[list(out)[-1]] += capacity - sum(out.values())
    return out


_caps = st.tuples(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.booleans())


def _metered(policy, capacity, residents, quotas, preload):
    """A traced, metered quota level: ``residents`` (``(key, tenant or
    None)``) admitted at step 0, then ``preload`` placed unowned."""
    level = CacheLevel("dram", capacity, make_policy(policy), n_blocks=N_KEYS)
    level.set_registry(MetricsRegistry())
    level.set_tenant_quotas(quotas)
    for key, tenant in residents:
        if key not in level:
            level.admit(key, 0, tenant=tenant if tenant in quotas else None)
    level.preload(preload)
    level.tracer = Tracer()
    return level


def _meters(level):
    return (
        level._occupancy.as_dict(),
        level._evictions.value,
        level._bypasses.value,
        level._cross_evictions.value,
        level.tenant_cross_evictions,
    )


def _assert_same_quota(a, b):
    _assert_same(a, b)
    np.testing.assert_array_equal(a._owner, b._owner)
    np.testing.assert_array_equal(a._tenant_used, b._tenant_used)
    assert _meters(a) == _meters(b)
    assert b.tenant_cross_evictions == 0


_quota_frame = st.tuples(
    st.just("frame"),
    st.lists(st.integers(0, N_KEYS - 1), unique=True, max_size=N_KEYS),  # keys
    st.integers(0, 4),  # step: sessions keep their own step counters
    st.sampled_from([None, 0, -1]),  # min_free_step: none, at or one below the step
    st.booleans(),  # touch
    st.one_of(st.none(), st.integers(0, 8)),  # limit
    st.one_of(st.none(), st.lists(st.booleans(), min_size=N_KEYS, max_size=N_KEYS)),  # admits
    st.sampled_from(TENANTS + (None,)),
)
_quota_op = st.one_of(*[_quota_frame] * 6, st.tuples(st.just("quotas"), _caps))


def _quota_ops(a, b, ops, capacity):
    for op in ops:
        if op[0] == "quotas":  # a re-install leaves every resident unowned
            quotas = _quotas(*op[1], capacity)
            for level in (a, b):
                level.set_tenant_quotas(quotas)
            continue
        _, keys, step, offset, touch, limit, admits, tenant = op
        if tenant not in a._tenant_names:
            tenant = None
        mfs = None if offset is None else step + offset
        mask = None if admits is None else admits[: len(keys)]
        _frame(a, b, keys, step, mfs, touch, limit, tenant, mask)
        _assert_same_quota(a, b)


@st.composite
def _quota_case(draw):
    capacity = draw(st.integers(2, 8))
    return dict(
        policy=draw(st.sampled_from(QUEUE_POLICIES)),
        capacity=capacity,
        quotas=_quotas(*draw(_caps), capacity),
        residents=draw(
            st.lists(
                st.tuples(st.integers(0, N_KEYS - 1), st.sampled_from(TENANTS + (None,))),
                unique_by=lambda r: r[0], max_size=capacity,
            )
        ),
        preload=draw(st.lists(st.integers(0, N_KEYS - 1), max_size=4)),
        ops=draw(st.lists(_quota_op, min_size=1, max_size=8)),
    )


def _quota_differential(case):
    args = (case["policy"], case["capacity"], case["residents"], case["quotas"],
            case["preload"])
    a, b = _metered(*args), _metered(*args)
    _assert_same_quota(a, b)
    _quota_ops(a, b, case["ops"], case["capacity"])


@given(case=_quota_case())
@settings(max_examples=150, deadline=None)
def test_quota_levels_plan_as_the_per_key_loop(case):
    """Tenant-quota LRU/FIFO levels take the planned sweep: random frames
    (tenanted and untenanted, constrained or not, prefetches, ``limit``
    and ``admits``) and quota re-installs leave the same residency,
    owners, stats, policy order, victim queue, events and registry values
    as the per-key loop."""
    _quota_differential(case)


@pytest.mark.slow
@given(case=_quota_case())
@settings(max_examples=600, deadline=None)
def test_quota_levels_plan_as_the_per_key_loop_wide(case):
    _quota_differential(case)


@pytest.mark.parametrize("policy", QUEUE_POLICIES)
@pytest.mark.parametrize("min_free_step", [None, 1])
def test_quota_crossing_mid_frame_changes_the_filter(policy, min_free_step):
    """``a`` (quota 2) owns 1 of a full level that also holds unowned 0, 2
    and 3.  Its first miss may take an unowned block — 0, the oldest — and
    that takes ``a`` to its quota, so the next misses take its own blocks
    only: 1, then (unconstrained) the block its first miss inserted."""
    residents = [(0, None), (1, "a"), (2, None), (3, None)]
    quotas = {"a": 2, "b": 1}
    a = _metered(policy, 4, residents, quotas, [])
    b = _metered(policy, 4, residents, quotas, [])
    hit = _frame(a, b, [5, 6, 7], 1, min_free_step, tenant="a")
    _assert_same_quota(a, b)
    assert hit == [False, False, False]
    if min_free_step is None:
        assert sorted(b.resident_ids()) == [2, 3, 6, 7]
        assert b.stats.evictions == 3
    else:  # 5 was inserted at the step: nothing of a's is evictable for 7
        assert sorted(b.resident_ids()) == [2, 3, 5, 6]
        assert b.stats.bypasses == 1
    assert b.tenant_usage() == {"a": 2, "b": 0}


@pytest.mark.parametrize("policy", QUEUE_POLICIES)
def test_a_quota_frame_is_written_once(policy, monkeypatch):
    """A 117-key frame of a tenant at its quota of 15 (16 tenants on 250
    blocks): its queue runs dry every 15 admissions, and each rebuild comes
    from the plan, so the frame is written once — and matches the per-key
    loop."""
    writes = []
    write = CacheLevel._write_segment

    def counted(self, *args, **kwargs):
        writes.append(self)
        return write(self, *args, **kwargs)

    monkeypatch.setattr(CacheLevel, "_write_segment", counted)
    quotas = {f"t{i}": 15 for i in range(16)}
    levels = []
    for _ in range(2):
        level = CacheLevel("dram", 250, make_policy(policy), n_blocks=1000)
        level.set_registry(MetricsRegistry())
        level.set_tenant_quotas(quotas)
        level.tracer = Tracer()
        levels.append(level)
    a, b = levels
    rng = np.random.default_rng(7)
    for step in range(40):
        keys = rng.choice(1000, 117, replace=False).tolist()
        tenant = f"t{step % 16}"
        at_quota = b.tenant_usage()[tenant] == 15
        writes.clear()
        hit = _frame(a, b, keys, step, tenant=tenant)
        _assert_same_quota(a, b)
        assert writes == [b]
    assert at_quota and hit.count(False) > 3 * 15


@pytest.mark.parametrize("policy", POLICIES)
def test_unknown_tenant_leaves_the_level_unchanged(policy):
    """The tenant is resolved before the frame's first write: the leading
    hits stay untouched."""
    level = _level(policy, 4, [(0, "a"), (1, "b")], {"a": 2, "b": 2})
    before = (level._last_used.copy(), copy.copy(level.stats), _order(level), _queue(level))
    with pytest.raises(KeyError, match="unknown tenant"):
        level.access_many(np.array([0, 1, 5], dtype=np.int64), 3, tenant="z")
    np.testing.assert_array_equal(level._last_used, before[0])
    assert (level.stats, _order(level), _queue(level)) == before[1:]
    assert level.last_used(0) == level.last_used(1) == 0
