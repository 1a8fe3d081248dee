"""Alias policies, memory queue blocking rules, and byte-range overlap.

The queues are set up as dispatch fills them (gen.enqueue), and an entry
executes as the complete stage has it: its record leaves the pending map.
A refused instruction learns the blocking entry's record.
"""

from hypothesis import given
from hypothesis import strategies as st

from cycletrace import AccessKind, AliasPolicy, MemQueues, MemoryAccess
from gen import enqueue

L = lambda a, s: MemoryAccess(AccessKind.LOAD, a, s)
S = lambda a, s: MemoryAccess(AccessKind.STORE, a, s)


def store_blocks_load(a, sa, b, sb):
    """Whether an older store of [a, a+sa) blocks a younger load of
    [b, b+sb) under METADATA."""
    q = queues()
    enqueue(q, 1, stores=(S(a, sa),))
    enqueue(q, 2, loads=(L(b, sb),))
    return q.find_blocker(AliasPolicy.METADATA, 2, (L(b, sb),), ()) is not None


def test_overlap_basics():
    assert store_blocks_load(0, 8, 4, 8)
    assert store_blocks_load(4, 8, 0, 8)
    assert store_blocks_load(0, 8, 0, 1)
    assert not store_blocks_load(0, 8, 8, 8)   # half-open: touching is disjoint
    assert not store_blocks_load(8, 8, 0, 8)


@given(st.integers(0, 100), st.integers(1, 16),
       st.integers(0, 100), st.integers(1, 16))
def test_overlap_symmetric(a, sa, b, sb):
    assert store_blocks_load(a, sa, b, sb) == store_blocks_load(b, sb, a, sa)


@given(st.integers(0, 100), st.integers(1, 16))
def test_overlap_reflexive(a, s):
    assert store_blocks_load(a, s, a, s)


@given(st.integers(0, 100), st.integers(1, 16),
       st.integers(0, 100), st.integers(1, 16))
def test_overlap_matches_interval_arithmetic(a, sa, b, sb):
    expected = len(set(range(a, a + sa)) & set(range(b, b + sb))) > 0
    assert store_blocks_load(a, sa, b, sb) == expected


def queues(lq=16, sq=16):
    return MemQueues(lq, sq)


def test_load_blocked_by_older_conflicting_store():
    q = queues()
    enqueue(q, 1, stores=(S(0x100, 8),))
    enqueue(q, 5, loads=(L(0x104, 4),))
    store = q.find_blocker(AliasPolicy.METADATA, 5, (L(0x104, 4),), ())
    assert store.seq_id == 1
    del q.pending_stores[1]  # the store executes
    assert q.find_blocker(AliasPolicy.METADATA, 5, (L(0x104, 4),), ()) is None


def test_loads_never_block_loads():
    q = queues()
    enqueue(q, 1, loads=(L(0x100, 8),))
    assert q.find_blocker(AliasPolicy.ALL, 2, (L(0x100, 8),), ()) is None


def test_store_blocked_by_older_loads_and_stores():
    q = queues()
    enqueue(q, 1, loads=(L(0x100, 8),))
    enqueue(q, 2, stores=(S(0x200, 8),))
    st_acc = (S(0x100, 4),)
    assert q.find_blocker(AliasPolicy.METADATA, 3, (), st_acc).seq_id == 1
    # SQ scanned first
    assert q.find_blocker(AliasPolicy.ALL, 3, (), st_acc).seq_id == 2


def test_policy_none_never_blocks():
    q = queues()
    enqueue(q, 1, stores=(S(0x100, 8),))
    assert q.find_blocker(AliasPolicy.NONE, 2, (L(0x100, 8),), ()) is None


def test_disjoint_ranges_pass_under_metadata():
    q = queues()
    enqueue(q, 1, stores=(S(0x100, 8),))
    assert q.find_blocker(
        AliasPolicy.METADATA, 2, (L(0x108, 8),), ()
    ) is None
    assert q.find_blocker(AliasPolicy.ALL, 2, (L(0x108, 8),), ()).seq_id == 1


def test_missing_metadata_conflicts_with_everything():
    # A None access is a memory op whose addresses were not traced.
    q = queues()
    store = enqueue(q, 1, stores=(None,))
    assert q.find_blocker(
        AliasPolicy.METADATA, 2, (L(0x9999, 1),), ()) is store
    assert q.find_blocker(AliasPolicy.NONE, 2, (L(0x9999, 1),), ()) is None


def test_younger_entries_never_block():
    q = queues()
    enqueue(q, 5, stores=(S(0x100, 8),))
    assert q.find_blocker(AliasPolicy.ALL, 2, (L(0x100, 8),), ()) is None
