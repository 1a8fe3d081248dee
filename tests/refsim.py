"""Naive reference simulator used as a differential oracle.

A direct, unoptimized transcription of the pipeline stage semantics:
whole trace in memory, plain lists, O(n) scans per cycle, no recycling,
no streaming, no event heaps.  Slow on purpose; every shortcut the real
engine takes has to agree with this.

Stage order each cycle: retire, complete, issue (one in-order scan that
sees completions and single-cycle issues from earlier in the same scan),
dispatch.
"""

from __future__ import annotations

from itertools import chain, groupby

from cycletrace import AccessKind, AliasPolicy
from cycletrace.analysis import RegionStats
from cycletrace.brokers import BrokerStream

WAITING, EXECUTING, EXECUTED, RETIRED = range(4)


def youngest_writer(insts, rob, i, reg):
    """The youngest entry older than i in the ROB (trace indices, oldest
    first, a contiguous run) that writes reg; None if it has none, when
    every older writer has retired and so blocks nothing."""
    for j in range(i - 1, rob[0] - 1, -1):
        if reg in insts[j].writes:
            return j
    return None


def simulate(model, insts, policy=AliasPolicy.METADATA):
    """Return (total_cycles, [(dispatched, issued, executed, retired)...])."""
    n = len(insts)
    cls_of = [model.class_named(i.class_name) for i in insts]

    lat = []
    for inst, cls in zip(insts, cls_of):
        latency = cls.latency
        ctx = inst.context
        if ctx is not None and cls.context_latency_key == ctx[0]:
            latency = model.context_latency_tables[ctx[0]][str(ctx[1])]
        lat.append(latency)

    loads = []
    stores = []
    for inst, cls in zip(insts, cls_of):
        ld = tuple(a for a in inst.mem if a.kind is AccessKind.LOAD)
        st = tuple(a for a in inst.mem if a.kind is AccessKind.STORE)
        if cls.may_load and not ld:
            ld = (None,)
        if cls.may_store and not st:
            st = (None,)
        loads.append(ld)
        stores.append(st)

    state = [-1] * n  # -1 = not yet dispatched
    d = [-1] * n
    iss = [-1] * n
    x = [-1] * n
    r = [-1] * n
    remaining = [0] * n
    busy = {res.name: [-1] * res.units for res in model.resources}
    rob: list[int] = []
    next_dispatch = 0
    dispatch_blocked_until = -1
    width = model.dispatch_width
    cycle = 0

    def conflicts(a, b):
        if policy is AliasPolicy.NONE:
            return False
        if policy is AliasPolicy.ALL:
            return True
        if a is None or b is None:
            return True
        return (a.address < b.address + b.size
                and b.address < a.address + a.size)

    def any_conflict(mine, theirs):
        return any(conflicts(a, b) for a in mine for b in theirs)

    def mem_blocked(i):
        for j in rob:
            if j >= i:
                break
            if state[j] >= EXECUTED:
                continue
            if loads[i] and stores[j] and any_conflict(loads[i], stores[j]):
                return True
            if stores[i] and (
                (stores[j] and any_conflict(stores[i], stores[j]))
                or (loads[j] and any_conflict(stores[i], loads[j]))
            ):
                return True
        return False

    while next_dispatch < n or rob:
        # retire, in order, from the oldest
        budget = model.retire_width
        while budget > 0 and rob and state[rob[0]] == EXECUTED:
            j = rob.pop(0)
            state[j] = RETIRED
            r[j] = cycle
            budget -= 1

        # complete
        for j in rob:
            if state[j] == EXECUTING:
                remaining[j] -= 1
                if remaining[j] == 0:
                    state[j] = EXECUTED
                    x[j] = cycle

        # issue: single pass in seq order
        for j in rob:
            if state[j] != WAITING or d[j] >= cycle:
                continue
            blocked = False
            for reg in insts[j].reads:
                w = youngest_writer(insts, rob, j, reg)
                if w is not None and state[w] < EXECUTED:
                    blocked = True
                    break
            if blocked:
                continue
            if (loads[j] or stores[j]) and mem_blocked(j):
                continue
            granted = []
            ok = True
            for rname, occ in cls_of[j].resource_usage:
                units = busy[rname]
                idx = -1
                for k, busy_until in enumerate(units):
                    if busy_until < cycle:
                        idx = k
                        break
                if idx < 0:
                    ok = False
                    break
                granted.append((units, idx, units[idx]))
                units[idx] = cycle + occ - 1
            if not ok:
                for units, idx, old in granted:
                    units[idx] = old
                continue
            iss[j] = cycle
            if lat[j] == 1:
                state[j] = EXECUTED
                x[j] = cycle
            else:
                state[j] = EXECUTING
                remaining[j] = lat[j] - 1

        # dispatch
        if cycle > dispatch_blocked_until:
            budget = width
            while next_dispatch < n and budget > 0:
                j = next_dispatch
                uops = cls_of[j].num_uops
                lq_used = sum(len(loads[k]) for k in rob)
                sq_used = sum(len(stores[k]) for k in rob)
                fits = (
                    len(rob) < model.reorder_buffer_size
                    and lq_used + len(loads[j]) <= model.load_queue_size
                    and sq_used + len(stores[j]) <= model.store_queue_size
                )
                if uops > width:
                    if budget < width or not fits:
                        break
                    span = -(-uops // width)
                    d[j] = cycle + span - 1
                    dispatch_blocked_until = cycle + span - 1
                    state[j] = WAITING
                    rob.append(j)
                    next_dispatch += 1
                    break
                if uops > budget or not fits:
                    break
                d[j] = cycle
                state[j] = WAITING
                rob.append(j)
                next_dispatch += 1
                budget -= uops

        cycle += 1

    total = r[n - 1] + 1 if n else 0
    return total, list(zip(d, iss, x, r))


def analyze_regions(pipe, broker, regions):
    """The region loop that simulates every visit, one instruction per
    feed: the reference for analysis._analyze_regions, which replays
    repeated visits.  Monkeypatched over it, analyze runs this one."""
    stream = BrokerStream(broker, pipe.entry_capacity)
    per_visit = []
    for inside, visit in groupby(chain.from_iterable(stream),
                                 key=lambda inst: regions.contains(inst.address)):
        if not inside:
            pipe.skip(visit)
            continue
        pipe.iteration = len(per_visit)
        retired, cycles = pipe.instructions_retired, pipe.total_cycles
        for inst in visit:
            pipe.feed((inst,))
        pipe.drain()
        per_visit.append((pipe.instructions_retired - retired,
                          pipe.total_cycles - cycles))
    return stream.truncated, RegionStats(
        len(per_visit), sum(n for n, _ in per_visit),
        sum(c for _, c in per_visit), tuple(per_visit))
