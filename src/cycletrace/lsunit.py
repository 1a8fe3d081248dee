"""Load-store unit: alias policies, memory queues, issue admission.

A memory instruction occupies one queue slot per access (loads in the
load queue, stores in the store queue) from dispatch until retirement.
At issue time the unit admits the instruction only if no older,
not-yet-executed queue entry conflicts with it:

  * a load must wait for conflicting older stores;
  * a store must wait for conflicting older stores and older loads;
  * loads never block other loads, under any policy.

What "conflicts" means is the alias policy.  ALL assumes any two memory
operations may touch the same bytes; NONE assumes none do; METADATA
compares the actual byte ranges.  An access slot with no metadata (the
producer traced the instruction but not its addresses) is represented by
None and conservatively conflicts with everything under METADATA.

A refused instruction learns the record of one older blocking entry.
Conflicts never change, so the instruction cannot be admitted before that
entry executes, and the caller may wait on that record instead of asking
again.  Entries are inserted in sequence order, so no new older blocker
can appear later.
"""

from __future__ import annotations

from enum import Enum


class AliasPolicy(Enum):
    ALL = "all"
    NONE = "none"
    METADATA = "metadata"


# Reading a member off an Enum class goes through the Enum machinery
# (about 150 ns), so the admission test, run per memory instruction at
# issue, compares with these.
_ALL = AliasPolicy.ALL
_NONE = AliasPolicy.NONE
_INF = float("inf")


class MemQueues:
    """In-flight memory operations, ordered by sequence id.

    The pipeline's stages keep the fields in place.  lq_used and sq_used
    count the slots taken, at most lq_size and sq_size: dispatch takes
    one per access, and retire frees them.  pending_loads and
    pending_stores map seq to the record of each entry that has not
    executed, the only ones that can block: dispatch adds entries in
    seq order, and each leaves as it executes.
    """

    def __init__(self, lq_size: int, sq_size: int):
        self.lq_size = lq_size
        self.sq_size = sq_size
        self.lq_used = 0
        self.sq_used = 0
        self.pending_loads: dict = {}   # seq -> record, oldest first
        self.pending_stores: dict = {}

    def find_blocker(self, policy: AliasPolicy, seq: int, loads: tuple,
                     stores: tuple):
        """Record of an older unexecuted blocking entry, or None to admit.

        Stores are scanned before loads, each queue oldest first, and the
        first conflict found is returned.
        """
        if policy is _NONE:
            return None
        # Loads wait on conflicting older stores; stores wait on
        # conflicting older stores and older loads.
        blocker = _first_conflict(self.pending_stores, True, policy, seq,
                                  loads + stores)
        if blocker is None and stores:
            blocker = _first_conflict(self.pending_loads, False, policy, seq,
                                      stores)
        return blocker


def _first_conflict(pending: dict, of_stores: bool, policy: AliasPolicy,
                    seq: int, mine: tuple):
    """Oldest record of pending, older than seq, whose stores (of_stores)
    or loads conflict with mine.

    Each of mine is read once and scanned for on its own; each scan stops
    at the oldest blocker found so far, and the oldest found is returned.
    """
    if not pending:
        return None
    if policy is _ALL:
        oldest, rec = next(iter(pending.items()))
        return rec if oldest < seq else None
    blocker = seq  # insertion is in seq order; younger entries never block
    for a in mine:
        # Untraced addresses (None) conflict with every access; byte
        # ranges are half-open, so touching ones do not.
        if a is None:
            start, end = -_INF, _INF
        else:
            start = a.address
            end = start + a.size
        for other, rec in pending.items():
            if other >= blocker:
                break
            for b in (rec.stores if of_stores else rec.loads):
                if b is None or (start < b.address + b.size
                                 and b.address < end):
                    break
            else:
                continue
            blocker = other
            break
    return pending[blocker] if blocker < seq else None
