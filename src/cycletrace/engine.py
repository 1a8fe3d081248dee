"""Out-of-order pipeline core.

Each simulated cycle applies stages to the machine state in a fixed
order, so every timestamp is a deterministic function of the instruction
stream and the model:

  1. retire   up to retire_width executed records from the ROB head;
  2. complete executions whose latency elapses this cycle;
  3. issue    ready records oldest-first, subject to resource units and
              load-store admission; operands forward the same cycle they
              complete, so a consumer can issue in the cycle its last
              producer finishes;
  4. dispatch up to dispatch_width uops from the entry buffer into the
              ROB, registering scoreboard writes and queue slots.

An instruction never issues earlier than the cycle after its dispatch.

A ready record that fails to issue waits where it is blocked and is
tried again only once it could succeed, so issue work per cycle follows
what changes, not the size of the window:

  * blocked by an older LSQ entry: parked on that entry's seq and put
    back in the ready heap when the entry executes, in the complete stage
    or on a single-cycle issue earlier in the same pass;
  * short of resource units: kept in a heap per class.  Every record of
    a class claims the same units, and within a pass units only get
    busier, so once one record of a class fails the rest of the class
    would fail too; each cycle only the oldest record of each class is
    tried, and the next one follows only after it gets past the units;
  * inside a multi-uop dispatch span: retried every cycle (deferred).

This is exact: every attempt skipped would have failed, and a failed
attempt has no side effects, since partial unit claims are rolled back.
Memory blocking only ever clears, because entries enter the queues in
seq order, so no older entry can appear after a record was refused.

Records live in a recycle pool: the pipeline allocates a new record only
when the free list is empty, so memory stays bounded by the ROB plus the
entry buffer no matter how long the stream runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappush, heappop
from typing import Callable

from .errors import AnalysisError, TruncatedTraceError
from .lsunit import AliasPolicy, MemQueues
from .model import InstrClass, MachineModel, effective_latency
from .trace import AccessKind


@dataclass(slots=True)
class InstrRecord:
    """Mutable per-instruction pipeline state; pooled and recycled."""

    seq_id: int = -1
    cls: InstrClass | None = None
    dispatched_at: int = -1
    issued_at: int = -1
    executed_at: int = -1      # >= 0 once executed
    retired_at: int = -1
    effective_latency: int = 1
    uops: int = 1
    reads: tuple[int, ...] = ()
    writes: tuple[int, ...] = ()
    waiting_on: set[int] = field(default_factory=set)
    claims: tuple = ()          # (resource name, busy list, occupancy cycles)
    loads: tuple = ()           # MemoryAccess or None (metadata missing)
    stores: tuple = ()


@dataclass(frozen=True)
class PoolStats:
    total_allocated: int
    total_recycled: int
    peak_live: int


class RecyclePool:
    """Free list of InstrRecords with allocation counters."""

    def __init__(self):
        self._free: list[InstrRecord] = []
        self._live = 0
        self.total_allocated = 0
        self.total_recycled = 0
        self.peak_live = 0

    def acquire(self) -> InstrRecord:
        if self._free:
            rec = self._free.pop()
        else:
            rec = InstrRecord()
            self.total_allocated += 1
        self._live += 1
        if self._live > self.peak_live:
            self.peak_live = self._live
        return rec

    def release(self, rec: InstrRecord):
        rec.waiting_on.clear()
        self._free.append(rec)
        self.total_recycled += 1
        self._live -= 1

    def stats(self) -> PoolStats:
        return PoolStats(self.total_allocated, self.total_recycled,
                         self.peak_live)


class Pipeline:
    def __init__(
        self,
        model: MachineModel,
        alias_policy: AliasPolicy = AliasPolicy.METADATA,
        entry_capacity: int = 256,
    ):
        # A smaller buffer would cap dispatch below its width and change
        # the cycles, which no report records.
        if entry_capacity < model.dispatch_width:
            raise ValueError(
                f"entry_capacity {entry_capacity} is below the model's "
                f"dispatch_width {model.dispatch_width}")
        self.model = model
        self.policy = alias_policy
        self.entry_capacity = entry_capacity

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
        # class name -> heap of ready seq ids that found its units busy
        self.unit_waits: dict[str, list[int]] = {
            c.name: [] for c in model.classes if c.resource_usage
        }
        self.executing: list[tuple[int, int]] = []  # heap (completes_at, seq)
        self.busy: dict[str, list[int]] = {
            r.name: [-1] * r.units for r in model.resources
        }
        # class name -> (resource name, busy list, occupancy cycles) claims
        self.claims: dict[str, tuple] = {
            c.name: tuple((rname, self.busy[rname], cycles)
                          for rname, cycles in c.resource_usage)
            for c in model.classes
        }
        self.queues = MemQueues(model.load_queue_size, model.store_queue_size)
        self.pool = RecyclePool()

        self.instructions_retired = 0
        self.uops_retired = 0
        self.resource_claimed: dict[str, int] = {r.name: 0 for r in model.resources}
        self.missing_metadata = 0
        self.iteration = 0
        self.retire_sink: Callable[[InstrRecord, int], None] | None = None

        self._last_seq = -1
        self._last_retire_cycle = -1
        self._dispatch_busy_until = -1

    # -- input -------------------------------------------------------------

    def feed(self, instructions) -> int:
        """Accept instructions into the entry buffer, up to free capacity.

        Returns how many were taken; the caller re-offers the rest later.
        Class resolution, metadata validation, and context latency lookup
        all happen here so later stages never fail.
        """
        space = self.entry_capacity - len(self.entry)
        if space <= 0:
            return 0
        accepted = 0
        model = self.model
        class_index = model._class_index
        entry = self.entry
        pool = self.pool
        claims = self.claims
        for inst in instructions:
            if accepted >= space:
                break
            seq = inst.seq_id
            if seq <= self._last_seq:
                raise AnalysisError(
                    f"instruction {seq}: sequence id not increasing "
                    f"(previous {self._last_seq})"
                )
            cls = class_index.get(inst.class_name)
            if cls is None:
                raise AnalysisError(
                    f"instruction {seq}: unknown class '{inst.class_name}'"
                )

            if inst.mem or cls.may_load or cls.may_store:
                loads: list = []
                stores: list = []
                for acc in inst.mem:
                    if acc.kind is AccessKind.LOAD:
                        if not cls.may_load:
                            raise AnalysisError(
                                f"instruction {seq}: class '{cls.name}' "
                                "may not load"
                            )
                        loads.append(acc)
                    else:
                        if not cls.may_store:
                            raise AnalysisError(
                                f"instruction {seq}: class '{cls.name}' "
                                "may not store"
                            )
                        stores.append(acc)
                missing = False
                if cls.may_load and not loads:
                    loads.append(None)
                    missing = True
                if cls.may_store and not stores:
                    stores.append(None)
                    missing = True
                if missing:
                    self.missing_metadata += 1
                load_accs = tuple(loads)
                store_accs = tuple(stores)
            else:
                load_accs = store_accs = ()

            context = inst.context
            if context is not None and context[0] == cls.context_latency_key:
                try:
                    lat = effective_latency(model, cls, context[1])
                except AnalysisError as e:
                    raise AnalysisError(f"instruction {seq}: {e}") from None
            else:
                lat = cls.latency

            rec = pool.acquire()
            rec.seq_id = seq
            rec.cls = cls
            rec.dispatched_at = -1
            rec.issued_at = -1
            rec.executed_at = -1
            rec.retired_at = -1
            rec.effective_latency = lat
            rec.uops = cls.num_uops
            rec.reads = inst.reads
            rec.writes = inst.writes
            rec.claims = claims[cls.name]
            rec.loads = load_accs
            rec.stores = store_accs

            entry.append(rec)
            self._last_seq = seq
            accepted += 1
        return accepted

    # -- simulation --------------------------------------------------------

    def has_work(self) -> bool:
        return bool(self.entry or self.rob)

    def run_cycle(self):
        cycle = self.cycle
        live = self.live

        # 1. retire from the ROB head, in order
        rob = self.rob
        if rob and rob[0].executed_at >= 0:
            budget = self.model.retire_width
            scoreboard = self.scoreboard
            queues = self.queues
            pool = self.pool
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
                    queues.remove(seq)
                self.instructions_retired += 1
                self.uops_retired += rec.uops
                self._last_retire_cycle = cycle
                if sink is not None:
                    sink(rec, self.iteration)
                pool.release(rec)
                budget -= 1

        # 2. complete executions elapsing this cycle
        executing = self.executing
        while executing and executing[0][0] <= cycle:
            _, seq = heappop(executing)
            rec = live[seq]
            rec.executed_at = cycle
            if rec.loads or rec.stores:
                self.queues.mark_executed(seq)
            self._wake(seq)

        # 3. issue ready records oldest-first; a producer completing here
        #    (single-cycle latency) can wake and issue its consumers within
        #    the same pass, which keeps issue order equal to seq order.
        #    A record that cannot issue waits where it is blocked; of the
        #    records blocked on their class's units, only the oldest of
        #    each class comes back each cycle.
        ready = self.ready
        deferred = self.deferred
        if deferred:
            for seq in deferred:
                heappush(ready, seq)
            deferred.clear()
        unit_waits = self.unit_waits
        for waiting in unit_waits.values():
            if waiting:
                heappush(ready, heappop(waiting))
        if ready:
            policy = self.policy
            queues = self.queues
            consumers = self.consumers
            claimed = self.resource_claimed
            full: set[str] = set()   # classes whose units ran out this pass
            while ready:
                seq = heappop(ready)
                rec = live[seq]
                if rec.dispatched_at >= cycle:
                    deferred.append(seq)
                    continue
                name = rec.cls.name
                waiting = unit_waits.get(name)
                if name in full:
                    heappush(waiting, seq)
                    continue
                if waiting:
                    # The next oldest of the class tries after this one;
                    # if this one runs out of units, it goes straight back.
                    heappush(ready, heappop(waiting))
                loads = rec.loads
                stores = rec.stores
                if loads or stores:
                    blocker = queues.find_blocker(policy, seq, loads, stores)
                    if blocker is not None:
                        consumers.setdefault(blocker, []).append(rec)
                        continue
                claims = rec.claims
                if claims:
                    granted = []
                    ok = True
                    for rname, units, occ in claims:
                        idx = -1
                        for i, busy_until in enumerate(units):
                            if busy_until < cycle:
                                idx = i
                                break
                        if idx < 0:
                            ok = False
                            break
                        granted.append((units, idx, units[idx]))
                        units[idx] = cycle + occ - 1
                    if not ok:
                        for units, idx, old in granted:
                            units[idx] = old
                        full.add(name)
                        heappush(waiting, seq)
                        continue
                    for rname, units, occ in claims:
                        claimed[rname] += occ
                rec.issued_at = cycle
                lat = rec.effective_latency
                if lat == 1:
                    rec.executed_at = cycle
                    if loads or stores:
                        queues.mark_executed(seq)
                    self._wake(seq)
                else:
                    heappush(executing, (cycle + lat - 1, seq))

        # 4. dispatch from the entry buffer while width and space allow
        entry = self.entry
        if entry and cycle > self._dispatch_busy_until:
            width = self.model.dispatch_width
            rob_size = self.model.reorder_buffer_size
            budget = width
            while entry and budget > 0:
                rec = entry[0]
                uops = rec.uops
                if uops > width:
                    # Wider than the machine: takes dispatch for whole
                    # cycles, and only starts on a fresh cycle.
                    if budget < width:
                        break
                    if len(rob) >= rob_size or not self._queue_space(rec):
                        break
                    entry.popleft()
                    span = -(-uops // width)
                    self._dispatch_busy_until = cycle + span - 1
                    self._enter_rob(rec, cycle + span - 1)
                    break
                if uops > budget:
                    break
                if len(rob) >= rob_size or not self._queue_space(rec):
                    break
                entry.popleft()
                self._enter_rob(rec, cycle)
                budget -= uops

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

    def _queue_space(self, rec: InstrRecord) -> bool:
        if not rec.loads and not rec.stores:
            return True
        return self.queues.can_insert(len(rec.loads), len(rec.stores))

    def _enter_rob(self, rec: InstrRecord, dispatched_at: int):
        seq = rec.seq_id
        rec.dispatched_at = dispatched_at
        self.rob.append(rec)
        self.live[seq] = rec
        scoreboard = self.scoreboard
        waiting = rec.waiting_on
        consumers = self.consumers
        live = self.live
        for reg in rec.reads:
            producer = scoreboard.get(reg)
            if producer is not None and producer not in waiting:
                prec = live[producer]
                if prec.executed_at < 0:
                    waiting.add(producer)
                    lst = consumers.get(producer)
                    if lst is None:
                        consumers[producer] = [rec]
                    else:
                        lst.append(rec)
        for reg in rec.writes:
            scoreboard[reg] = seq
        if rec.loads or rec.stores:
            self.queues.insert(seq, rec.loads, rec.stores)
        if not waiting:
            heappush(self.ready, seq)

    # -- driving -----------------------------------------------------------

    def run_until_starved(self, broker) -> bool:
        """Pump the broker through the pipeline until the stream ends.

        Returns only once the stream has ended or been truncated and the
        pipeline has drained; the result is whether it was truncated.  A
        broker may block until it has instructions, and an empty batch
        that has not ended is simply fetched again.

        A cycle runs only when the entry buffer is full or the stream has
        ended, so cycle counts, timestamps and pool stats depend only on
        the stream contents, never on how the producer batched or paced
        them.

        The broker is asked for entry_capacity instructions at a time, and
        a batch is staged here until the entry buffer has taken all of it;
        the broker is asked again only once the staged batch is used up.
        So a stream costs one fetch per batch rather than one per cycle,
        and staging holds at most entry_capacity instructions beyond the
        buffer.  End of stream and truncation can only be seen with
        nothing staged, so no instruction is dropped.
        """
        capacity = self.entry_capacity
        entry = self.entry
        staged: tuple = ()
        pos = 0
        eos = False
        truncated = False
        while True:
            while len(entry) < capacity:
                if pos < len(staged):
                    space = capacity - len(entry)
                    pos += self.feed(staged[pos:pos + space])
                    continue
                if eos:
                    break
                try:
                    got = broker.fetch_batch(capacity)
                except TruncatedTraceError:
                    truncated = eos = True
                    break
                staged = got.instructions
                pos = 0
                eos = got.end_of_stream
            if not entry and not self.rob:
                return truncated
            self.run_cycle()

    def run_trace(self, instructions) -> bool:
        """Convenience: run a fully materialized instruction sequence."""
        from .brokers import SequenceBroker

        return self.run_until_starved(SequenceBroker(instructions))

    def drain(self):
        """Run cycles until everything in flight has retired."""
        while self.entry or self.rob:
            self.run_cycle()

    # -- results -----------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        """Cycles consumed so far: last retirement cycle + 1, 0 if none."""
        return self._last_retire_cycle + 1

    def pool_stats(self) -> PoolStats:
        return self.pool.stats()
