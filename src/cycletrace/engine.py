"""Out-of-order pipeline core.

Each simulated cycle applies stages to the machine state in a fixed
order, so every timestamp is a deterministic function of the instruction
stream and the model:

  1. retire   up to retire_width executed records from the ROB head,
              freeing their queue slots;
  2. complete executions whose latency elapses this cycle;
  3. issue    ready records oldest-first, subject to resource units and
              load-store admission; operands forward the same cycle they
              complete, so a consumer can issue in the cycle its last
              producer finishes;
  4. dispatch up to dispatch_width uops from the entry buffer into the
              ROB, registering scoreboard writes and queue slots.

An instruction never issues earlier than the cycle after its dispatch.
The stages keep the MemQueues fields in place: dispatch and retire its
slot counts, and dispatch and execution (stage 2, or a single-cycle
issue) its pending maps.  Admission (find_blocker) is the one call.

A ready record that fails to issue waits where it is blocked and is
tried again only once it could succeed, so issue work per cycle follows
what changes, not the size of the window:

  * blocked by an older LSQ entry: parked on that entry's seq and put
    back in the ready heap when the entry executes, in the complete stage
    or on a single-cycle issue earlier in the same pass;
  * short of resource units: kept in a heap shared by the classes that
    claim the same units the same number of times, until their next-free
    cycle (unit_free_at), set whenever one of them fails to claim or
    issues.  Claiming a resource k times needs k of its units free at
    once, so not before the k-th smallest busy_until + 1; the latest of
    these over the resources stays a lower bound, as units only get
    busier.  Until then a ready record of those classes goes straight to
    the heap; from then on the heap's oldest returns each cycle, and the
    next follows whenever one gets past the units;
  * inside a multi-uop dispatch span: retried every cycle (deferred).

A cycle ends quiet when nothing is ready or deferred, the ROB head has
not executed, and dispatch is held by ROB or LSQ space, a dispatch span
or an empty entry buffer.  No stage can then act before the next
completion, the span's end or the next-free cycle of a heap with
waiters; until then (_quiet_until, which a driver-side skip over idle
cycles or a bulk count of stall cycles would read) run_cycle only
advances the clock.  Feeding an empty entry buffer ends the window.

All of this is exact.  Records sharing a heap need the same free units,
so within a pass, as units only get busier, once one fails all would.  A
skipped attempt would have failed, and a failed one has no side effects.
Memory blocking only ever clears, because entries enter the queues in seq
order, so no older entry can appear after a record was refused.  A quiet
cycle would have retired, completed, issued and dispatched nothing, and
with a cycle run only on a full entry buffer (feed) or an ended input
(drain), fetch pacing cannot matter.

Retired records go on a free list, and feed builds a new record only
when that list is empty, so memory stays bounded by the ROB plus the
entry buffer no matter how long the stream runs.  A record retires only
once it has executed, so it waits on no producer any more.

A drained pipeline holds nothing that can delay later work but its unit
and dispatch timers (_drained_state), and the stages read sequence ids
only for their order.  So instructions fed into it and drained time the
same, relative to the first cycle, from every drained state with the
same timers: _record keeps what they did, and _replay does it again
without running a cycle.
"""

from __future__ import annotations

from array import array
from collections import deque, namedtuple
from collections.abc import Callable
from heapq import heappush, heappop

from .brokers import BrokerStream
from .errors import AnalysisError
from .lsunit import AliasPolicy, MemQueues
from .model import InstrClass, MachineModel, validate_model
from .trace import _LOAD


def _free_from(claims) -> int:
    """First cycle at which each claimed resource has a unit per claim."""
    return 1 + max(sorted(units)[sum(u is units for u, _ in claims) - 1]
                   for units, _ in claims)


class _UnitWaits(list):
    """Heap of ready seq ids short of units, with their next-free cycle."""

    unit_free_at = 0


class _Kind:
    """An instruction class as one pipeline runs it, resolved once.

    feed and the issue stage read these once per instruction; slots read
    several times faster than the InstrClass named tuple's fields.
    """

    __slots__ = ("cls", "latency", "uops", "claims", "usage", "may_load",
                 "may_store", "context_key", "waiting", "issued")

    def __init__(self, cls: InstrClass, busy: dict[str, list[int]],
                 groups: dict[tuple, _UnitWaits]):
        self.cls = cls
        self.latency = cls.latency
        self.uops = cls.num_uops
        # (busy list, occupancy cycles) per claim
        self.claims = tuple((busy[rname], cycles)
                            for rname, cycles in cls.resource_usage)
        self.usage = cls.resource_usage
        self.may_load = cls.may_load
        self.may_store = cls.may_store
        self.context_key = cls.context_latency_key
        self.issued = 0             # records issued; counted if it claims units
        # Classes that claim the same resources the same number of times
        # share one _UnitWaits; None if the class claims nothing.
        self.waiting = None
        if self.usage:
            self.waiting = groups.setdefault(
                tuple(sorted(r for r, _ in self.usage)), _UnitWaits())


class InstrRecord:
    """Mutable per-instruction pipeline state; pooled and recycled."""

    __slots__ = ("seq_id", "kind", "dispatched_at", "issued_at",
                 "executed_at", "retired_at", "latency", "uops", "reads",
                 "writes", "waiting_on", "loads", "stores")

    def __init__(self):
        self.seq_id = -1
        self.kind: _Kind | None = None
        self.dispatched_at = -1
        self.issued_at = -1
        self.executed_at = -1       # >= 0 once executed
        self.retired_at = -1
        self.latency = 1            # the class latency or its context override
        self.uops = 1
        self.reads: tuple[int, ...] = ()
        self.writes: tuple[int, ...] = ()
        self.waiting_on: set[int] = set()
        self.loads: tuple = ()      # MemoryAccess or None (metadata missing)
        self.stores: tuple = ()


PoolStats = namedtuple("PoolStats", "total_allocated total_recycled peak_live")

# A visit as Pipeline._record saw it, from its drained start.  Per
# retirement, in order: four timestamps relative to the start cycle in
# times (dispatched, issued, executed, retired), and its _Kind, loads and
# stores in held.  Then the cycles it took, its uops and instructions
# missing metadata, (kind, records issued) per class that issued, and
# the drained state it ended in.
_Visit = namedtuple("_Visit", "times held cycles uops missing issued end")


def _order_error(seq: int, last: int) -> AnalysisError:
    return AnalysisError(
        f"instruction {seq}: sequence id not increasing (previous {last})")


class Pipeline:
    def __init__(
        self,
        model: MachineModel,
        alias_policy: AliasPolicy = AliasPolicy.METADATA,
        entry_capacity: int = 256,
    ):
        # Fewer than 30 instance attributes: CPython 3.11 shares at most
        # 30 keys between a class's instance dicts, and past that every
        # attribute read and write in the stages takes a slower path.
        validate_model(model)
        self.model = model
        self.policy = alias_policy
        # The model's fields the stages read every cycle, as attributes.
        self.dispatch_width = model.dispatch_width
        self.retire_width = model.retire_width
        self.rob_size = model.reorder_buffer_size
        # A buffer that holds one dispatch width gives the same cycles
        # as any larger one; a smaller one would cap dispatch.
        self.entry_capacity = max(entry_capacity, model.dispatch_width)

        self.cycle = 0
        self.entry: deque[InstrRecord] = deque()
        self.rob: deque[InstrRecord] = deque()
        self.live: dict[int, InstrRecord] = {}
        self.scoreboard: dict[int, int] = {}      # register -> youngest writer
        # seq -> records waiting for it to execute: register consumers, and
        # ready memory records its LSQ entry blocks
        self.consumers: dict[int, list[InstrRecord]] = {}
        self.ready: list[int] = []                # heap of ready seq ids
        self.deferred: list[int] = []             # in a dispatch span; next cycle
        self.executing: list[tuple[int, int]] = []  # heap (completes_at, seq)
        busy = {r.name: [-1] * r.units for r in model.resources}
        groups: dict[tuple, _UnitWaits] = {}
        # class name -> its _Kind
        self.classes: dict[str, _Kind] = {
            c.name: _Kind(c, busy, groups) for c in model.classes}
        self._busy = list(busy.values())        # per resource, in place
        self._unit_groups = list(groups.values())
        self.queues = MemQueues(model.load_queue_size, model.store_queue_size)
        self.free: list[InstrRecord] = []       # retired records, for reuse

        self.instructions_retired = 0
        self.uops_retired = 0
        self.missing_metadata = 0
        self.iteration = 0
        self.retire_sink: Callable[[InstrRecord, int], None] | None = None

        self._last_seq = -1
        self._last_retire_cycle = -1
        self._dispatch_busy_until = -1
        self._quiet_until = 0

    # -- input -------------------------------------------------------------

    def feed(self, instructions) -> int:
        """Append instructions to the entry buffer in order, running a
        cycle whenever it is full; returns len(instructions) once all are
        in and the buffer is no longer full.

        feed runs a cycle only on a full buffer, and drain only once the
        input has ended, so cycle counts, timestamps and pool stats depend
        only on the order of the instructions, never on their batching.
        Class resolution, metadata validation, and context latency lookup
        all happen here so later stages never fail.
        """
        capacity = self.entry_capacity
        tables = self.model.context_latency_tables
        classes = self.classes
        entry = self.entry
        free = self.free
        for inst in instructions:
            if not entry:
                self._quiet_until = 0  # dispatch may act again
            seq = inst.seq_id
            if seq <= self._last_seq:
                raise _order_error(seq, self._last_seq)
            kind = classes.get(inst.class_name)
            if kind is None:
                raise AnalysisError(
                    f"instruction {seq}: unknown class '{inst.class_name}'")

            may_load = kind.may_load
            may_store = kind.may_store
            if inst.mem or may_load or may_store:
                loads: list = []
                stores: list = []
                for acc in inst.mem:
                    is_load = acc.kind is _LOAD
                    if not (may_load if is_load else may_store):
                        raise AnalysisError(
                            f"instruction {seq}: class '{inst.class_name}' "
                            f"may not {'load' if is_load else 'store'}")
                    (loads if is_load else stores).append(acc)
                # An access the producer did not trace is None.
                no_load = may_load and not loads
                no_store = may_store and not stores
                if no_load or no_store:
                    self.missing_metadata += 1
                load_accs = (None,) if no_load else tuple(loads)
                store_accs = (None,) if no_store else tuple(stores)
            else:
                load_accs = store_accs = ()

            context = inst.context
            if context is not None and context[0] == kind.context_key:
                key, value = context
                lat = tables[key].get(str(value))
                if lat is None:
                    raise AnalysisError(
                        f"instruction {seq}: class '{inst.class_name}': no "
                        f"latency for context {key}={value}")
            else:
                lat = kind.latency

            rec = free.pop() if free else InstrRecord()
            rec.seq_id = seq
            rec.kind = kind
            rec.dispatched_at = rec.issued_at = rec.executed_at = -1
            rec.retired_at = -1
            rec.latency = lat
            rec.uops = kind.uops
            rec.reads = inst.reads
            rec.writes = inst.writes
            rec.loads = load_accs
            rec.stores = store_accs

            entry.append(rec)
            self._last_seq = seq
            while len(entry) >= capacity:
                self.run_cycle()
        return len(instructions)

    def skip(self, instructions):
        """Pass over instructions that are not simulated, holding them to
        feed's rule that sequence ids increase."""
        last = self._last_seq
        for inst in instructions:
            seq = inst.seq_id
            if seq <= last:
                raise _order_error(seq, last)
            last = seq
        self._last_seq = last

    # -- simulation --------------------------------------------------------

    def has_work(self) -> bool:
        return bool(self.entry or self.rob)

    def run_cycle(self):
        cycle = self.cycle
        if cycle < self._quiet_until:
            self.cycle = cycle + 1
            return
        live = self.live
        queues = self.queues

        # 1. retire from the ROB head, in order
        rob = self.rob
        if rob and rob[0].executed_at >= 0:
            budget = self.retire_width
            scoreboard = self.scoreboard
            free = self.free
            sink = self.retire_sink
            while budget > 0 and rob and rob[0].executed_at >= 0:
                rec = rob.popleft()
                seq = rec.seq_id
                rec.retired_at = cycle
                del live[seq]
                for reg in rec.writes:
                    if scoreboard.get(reg) == seq:
                        del scoreboard[reg]
                if rec.loads or rec.stores:
                    queues.lq_used -= len(rec.loads)
                    queues.sq_used -= len(rec.stores)
                self.instructions_retired += 1
                self.uops_retired += rec.uops
                self._last_retire_cycle = cycle
                if sink is not None:
                    sink(rec, self.iteration)
                free.append(rec)
                budget -= 1

        # 2. complete executions elapsing this cycle
        executing = self.executing
        while executing and executing[0][0] <= cycle:
            _, seq = heappop(executing)
            rec = live[seq]
            rec.executed_at = cycle
            if rec.loads:
                del queues.pending_loads[seq]
            if rec.stores:
                del queues.pending_stores[seq]
            self._wake(seq)

        # 3. issue ready records oldest-first; a producer completing here
        #    (single-cycle latency) can wake and issue its consumers within
        #    the same pass, which keeps issue order equal to seq order.
        #    Of the records short of units, only the oldest of each heap
        #    whose next-free cycle has come returns.
        ready = self.ready
        deferred = self.deferred
        for seq in deferred:
            heappush(ready, seq)
        deferred.clear()
        groups = self._unit_groups
        for waiting in groups:
            if waiting and waiting.unit_free_at <= cycle:
                heappush(ready, heappop(waiting))
        if ready:
            policy = self.policy
            consumers = self.consumers
            while ready:
                seq = heappop(ready)
                rec = live[seq]
                if rec.dispatched_at >= cycle:
                    deferred.append(seq)
                    continue
                kind = rec.kind
                claims = kind.claims
                if claims:
                    waiting = kind.waiting
                    if waiting.unit_free_at > cycle:
                        heappush(waiting, seq)
                        continue
                loads = rec.loads
                stores = rec.stores
                if loads or stores:
                    blocker = queues.find_blocker(policy, seq, loads, stores)
                    if blocker is not None:
                        consumers.setdefault(blocker, []).append(rec)
                        if claims and waiting:
                            heappush(ready, heappop(waiting))
                        continue
                if claims:
                    # Units free before this cycle are alike for every
                    # later one, so any of them will do.
                    if len(claims) == 1:
                        units, occ = claims[0]
                        low = min(units)
                        if low < cycle:
                            units[units.index(low)] = cycle + occ - 1
                        waiting.unit_free_at = min(units) + 1
                    else:
                        low = _free_from(claims) - 1
                        if low < cycle:
                            for units, occ in claims:
                                units[units.index(min(units))] = cycle + occ - 1
                        waiting.unit_free_at = _free_from(claims)
                    if low >= cycle:
                        heappush(waiting, seq)
                        continue
                    kind.issued += 1
                    if waiting and waiting.unit_free_at <= cycle:
                        heappush(ready, heappop(waiting))
                rec.issued_at = cycle
                lat = rec.latency
                if lat == 1:
                    rec.executed_at = cycle
                    if loads:
                        del queues.pending_loads[seq]
                    if stores:
                        del queues.pending_stores[seq]
                    self._wake(seq)
                else:
                    heappush(executing, (cycle + lat - 1, seq))

        # 4. dispatch from the entry buffer while width and space allow;
        #    held is whether ROB or LSQ space stopped it
        entry = self.entry
        held = False
        if entry and cycle > self._dispatch_busy_until:
            width = self.dispatch_width
            rob_size = self.rob_size
            scoreboard = self.scoreboard
            consumers = self.consumers
            budget = width
            while entry and budget > 0:
                rec = entry[0]
                uops = rec.uops
                if budget < width if uops > width else uops > budget:
                    break
                loads = rec.loads
                stores = rec.stores
                held = len(rob) >= rob_size or (loads or stores) and (
                    queues.lq_used + len(loads) > queues.lq_size
                    or queues.sq_used + len(stores) > queues.sq_size)
                if held:
                    break
                entry.popleft()
                seq = rec.seq_id
                if loads:
                    queues.lq_used += len(loads)
                    queues.pending_loads[seq] = loads
                if stores:
                    queues.sq_used += len(stores)
                    queues.pending_stores[seq] = stores
                if uops > width:
                    # Wider than the machine: takes dispatch for whole
                    # cycles, and only starts on a fresh cycle.
                    rec.dispatched_at = self._dispatch_busy_until = (
                        cycle - 1 - (-uops // width))
                    budget = 0
                else:
                    rec.dispatched_at = cycle
                    budget -= uops
                rob.append(rec)
                live[seq] = rec
                pending = rec.waiting_on
                for reg in rec.reads:
                    producer = scoreboard.get(reg)
                    if (producer is not None and producer not in pending
                            and live[producer].executed_at < 0):
                        pending.add(producer)
                        consumers.setdefault(producer, []).append(rec)
                for reg in rec.writes:
                    scoreboard[reg] = seq
                if not pending:
                    heappush(ready, seq)

        # 5. if no stage can act next cycle, note when one next can
        if not (ready or deferred or rob and rob[0].executed_at >= 0):
            until = executing[0][0] if executing else float("inf")
            if entry and not held:
                until = min(until, self._dispatch_busy_until + 1)
            if until > cycle + 1:
                for waiting in groups:
                    if waiting and waiting.unit_free_at < until:
                        until = waiting.unit_free_at
                self._quiet_until = until

        self.cycle = cycle + 1

    def _wake(self, producer_seq: int):
        """Release the records waiting for producer_seq to execute."""
        waiters = self.consumers.pop(producer_seq, None)
        if not waiters:
            return
        ready = self.ready
        for rec in waiters:
            pending = rec.waiting_on
            if pending:
                # a register consumer: ready once its last producer is done
                pending.discard(producer_seq)
                if pending:
                    continue
            heappush(ready, rec.seq_id)

    # -- driving -----------------------------------------------------------

    def run_until_starved(self, broker) -> bool:
        """Feed each batch of the broker's stream, then drain.

        Each fetch asks for entry_capacity instructions; the result is
        whether the stream was truncated.  A broker may block, and an
        empty batch that has not ended is simply fetched again.
        """
        stream = BrokerStream(broker, self.entry_capacity)
        for batch in stream:
            self.feed(batch)
        self.drain()
        return stream.truncated

    def drain(self):
        """Run cycles until everything in flight has retired."""
        while self.entry or self.rob:
            self.run_cycle()

    # -- visits from a drained state ---------------------------------------

    def _drained_state(self) -> tuple:
        """What of a drained pipeline can still change later timestamps,
        relative to the cycle: each resource's busy-until values as a
        sorted multiset, each unit heap's next-free cycle, and the end of
        the last dispatch span.

        From a drained state, dispatch comes no earlier than this cycle
        and issue no earlier than the next.  So a unit busy until this
        cycle is as free as one busy until long before, a next-free cycle
        up to the next as past as an older one, and a dispatch span that
        ended before this cycle as over as an older one: each collapses
        to one value.
        """
        cycle = self.cycle
        return (
            tuple([tuple(sorted([max(b - cycle, 0) for b in units]))
                   for units in self._busy]),
            tuple([max(w.unit_free_at - cycle, 1)
                   for w in self._unit_groups]),
            max(self._dispatch_busy_until - cycle, -1),
        )

    def _restore(self, state: tuple):
        """Set the drained state that _drained_state returned, relative
        to the current cycle."""
        busy, free_at, dispatch = state
        cycle = self.cycle
        for units, rel in zip(self._busy, busy):
            units[:] = [cycle + r for r in rel]
        for waiting, rel in zip(self._unit_groups, free_at):
            waiting.unit_free_at = cycle + rel
        self._dispatch_busy_until = cycle + dispatch

    def _record(self, instructions) -> _Visit:
        """Feed instructions one per call into a drained pipeline and
        drain it, as a region run does; returns what _replay needs to
        run the same visit again from the same drained state."""
        start = self.cycle
        kinds = list(self.classes.values())
        issued = [kind.issued for kind in kinds]
        uops, missing = self.uops_retired, self.missing_metadata
        times = array("q")
        held: list = []
        sink = self.retire_sink

        def record(rec: InstrRecord, iteration: int):
            times.extend((rec.dispatched_at - start, rec.issued_at - start,
                          rec.executed_at - start, rec.retired_at - start))
            held.extend((rec.kind, rec.loads, rec.stores))
            if sink is not None:
                sink(rec, iteration)

        self.retire_sink = record
        try:
            for inst in instructions:
                self.feed((inst,))
            self.drain()
        finally:
            self.retire_sink = sink
        return _Visit(
            times=times,
            held=tuple(held),
            cycles=self.cycle - start,
            uops=self.uops_retired - uops,
            missing=self.missing_metadata - missing,
            issued=tuple((kind, kind.issued - n)
                         for kind, n in zip(kinds, issued) if kind.issued > n),
            end=self._drained_state(),
        )

    def _replay(self, instructions, visit: _Visit):
        """Retire instructions as _record recorded them, without running
        a cycle.  The pipeline must be in the drained state the record
        started from, and the instructions must equal the recorded ones
        but for their addresses, which no stage reads, and their
        sequence ids, which the stages read only for their order."""
        self.skip(instructions)
        start = self.cycle
        sink = self.retire_sink
        if sink is not None:
            # One record for every retirement; a sink may read any field.
            rec = InstrRecord()
            iteration = self.iteration
            t = iter(visit.times)
            h = iter(visit.held)
            for inst, d, i, x, r, kind, loads, stores in zip(
                    instructions, t, t, t, t, h, h, h):
                rec.seq_id = inst.seq_id
                rec.kind = kind
                rec.dispatched_at = start + d
                rec.issued_at = start + i
                rec.executed_at = start + x
                rec.retired_at = start + r
                rec.latency = x - i + 1
                rec.uops = kind.uops
                rec.reads = inst.reads
                rec.writes = inst.writes
                rec.loads = loads
                rec.stores = stores
                sink(rec, iteration)
        self.instructions_retired += len(instructions)
        self.uops_retired += visit.uops
        self.missing_metadata += visit.missing
        for kind, n in visit.issued:
            kind.issued += n
        self.cycle = start + visit.cycles
        # A drain ends on the cycle that retires its last record.
        self._last_retire_cycle = self.cycle - 1
        self._restore(visit.end)

    # -- results -----------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        """Cycles consumed so far: last retirement cycle + 1, 0 if none."""
        return self._last_retire_cycle + 1

    @property
    def resource_claimed(self) -> dict[str, int]:
        """Occupancy cycles claimed so far, per resource name."""
        claimed = dict.fromkeys((r.name for r in self.model.resources), 0)
        for kind in self.classes.values():
            for rname, occ in kind.usage:
                claimed[rname] += kind.issued * occ
        return claimed

    def pool_stats(self) -> PoolStats:
        # Every record is free, in the entry buffer or in the ROB, and a
        # new one is built only once every record is live (peak_live);
        # every retired record, and no other, is freed (total_recycled).
        allocated = len(self.free) + len(self.entry) + len(self.rob)
        return PoolStats(allocated, self.instructions_retired, allocated)
