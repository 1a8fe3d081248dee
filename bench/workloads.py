"""Benchmark inputs: machine models, traces, wire frames and region files.

Every workload is generated here from the command-line seed; nothing is
shared with the test suite's generators, so changing those never moves
the benchmark.  The seed picks a register renaming, a data base address
and (for the toy program) register allocation.  It never changes the
dependence or the memory-overlap structure, so simulated cycles and IPC
are the same on every seed and can be checked exactly on any seed; the
report digest covers the trace text and so differs from seed to seed.
"""

from __future__ import annotations

import json
import os
import random

import cycletrace as ct

# Instruction counts (or program shape) per size.  "full" is what the
# benchmark measures; "tiny" keeps the benchmark's own tests fast.
SIZES = {
    "full": {"mix": 70_000, "big_groups": 150, "toy_outer": 250,
             "toy_inner": 24},
    "tiny": {"mix": 600, "big_groups": 6, "toy_outer": 4, "toy_inner": 6},
}

WIRE_BATCH = 64          # instructions per 'insts' frame, as stream_to_socket
TIMELINE_WINDOW = (200, 263)
REG_SPACE = 32


def _class(name, latency, uses=(), may_load=False, may_store=False,
           is_branch=False):
    return {
        "name": name, "latency": latency,
        "uses": [{"resource": r, "cycles": c} for r, c in uses],
        "may_load": may_load, "may_store": may_store, "is_branch": is_branch,
    }


# The acceptance synthetic mix runs on a small two-wide core.
SMALL_MODEL = {
    "name": "bench-small", "dispatch_width": 2, "retire_width": 2,
    "rob_size": 32, "lq_size": 16, "sq_size": 16,
    "resources": [{"name": "ALU", "units": 1}, {"name": "MEM", "units": 1}],
    "classes": [
        _class("add", 1, [("ALU", 1)]),
        _class("mul", 3, [("ALU", 1)]),
        _class("load", 4, [("MEM", 1)], may_load=True),
        _class("store", 1, [("MEM", 1)], may_store=True),
        _class("nop", 1),
    ],
}

# Shaped like a modern big core: wide, a deep window, deep memory queues.
BIG_MODEL = {
    "name": "bench-big", "dispatch_width": 4, "retire_width": 4,
    "rob_size": 512, "lq_size": 64, "sq_size": 64,
    "resources": [
        {"name": "ALU", "units": 3}, {"name": "MULDIV", "units": 1},
        {"name": "LOAD", "units": 2}, {"name": "STORE", "units": 1},
    ],
    "classes": [
        _class("alu", 1, [("ALU", 1)]),
        _class("mul", 4, [("MULDIV", 1)]),
        _class("div", 30, [("MULDIV", 4)]),
        _class("load", 5, [("LOAD", 1)], may_load=True),
        _class("store", 1, [("STORE", 1)], may_store=True),
    ],
}

# Toy-ISA opcodes map onto these classes through the program's .map lines.
TOY_MODEL = {
    "name": "bench-toy", "dispatch_width": 3, "retire_width": 3,
    "rob_size": 48, "lq_size": 12, "sq_size": 8,
    "resources": [
        {"name": "ALU", "units": 2}, {"name": "MUL", "units": 1},
        {"name": "MEM", "units": 1}, {"name": "BR", "units": 1},
    ],
    "classes": [
        _class("alu", 1, [("ALU", 1)]),
        _class("mul", 3, [("MUL", 1)]),
        _class("load", 4, [("MEM", 1)], may_load=True),
        _class("store", 1, [("MEM", 1)], may_store=True),
        _class("br", 1, [("BR", 1)], is_branch=True),
        _class("halt", 1),
    ],
}


def _renaming(rng: random.Random) -> list[int]:
    regs = list(range(REG_SPACE))
    rng.shuffle(regs)
    return regs


def _data_base(rng: random.Random) -> int:
    # Page-aligned, so every overlap between accesses is kept.
    return 0x100000 + rng.randrange(1, 1 << 16) * 0x1000


def _access(kind, address):
    return (ct.MemoryAccess(kind, address, 8),)


# ---------------------------------------------------------------------------
# Synthetic acceptance mix (file_mix, socket_mix)

def synthetic_mix(seed: int, n: int):
    """add/mul/load/nop round robin with register hazards, no stores."""
    rng = random.Random(seed)
    reg = _renaming(rng)
    base = _data_base(rng)
    load = ct.AccessKind.LOAD
    for s in range(n):
        k = s & 3
        address = 0x400000 + 4 * s
        if k == 0:
            yield ct.TraceInstruction(s, address, "add", (reg[s % 4],),
                                      (reg[(s + 1) % 4],))
        elif k == 1:
            yield ct.TraceInstruction(s, address, "mul", (reg[(s + 1) % 4],),
                                      (reg[s % 4],))
        elif k == 2:
            yield ct.TraceInstruction(s, address, "load", (), (),
                                      _access(load, base + 8 * (s % 64)))
        else:
            yield ct.TraceInstruction(s, address, "nop")


# ---------------------------------------------------------------------------
# Big core (in-process generator, streamed through SequenceBroker)

# A group opens with a serial chain of slow divides that nothing else
# reads (the window fills behind it and cycles go idle), then repeats a
# block of: a multiply burst that saturates the one MULDIV port, a chain
# of dependent ALU ops behind a divide, and stores fed by a slow divide
# with loads queued behind them, every other store with one load that
# overlaps it.  The layout is fixed, so cycles do not depend on the seed.
_LONG_CHAIN = 8
_BLOCKS_PER_GROUP = 4
_BURST = 20
_CHAIN = 8
_STORES = 4
_LOADS_PER_STORE = 3


def _big_group():
    """Template instructions: (class, reads, writes, mem) with symbolic
    registers 0..31 and addresses as offsets from the data base."""
    out = [("div", (4,), (4,), None) for _ in range(_LONG_CHAIN)]
    out.append(("alu", (4,), (5,), None))
    for _ in range(_BLOCKS_PER_GROUP):
        for i in range(_BURST):
            out.append(("mul", (1,), (8 + i % 8,), None))
        out.append(("div", (2,), (2,), None))
        for _ in range(_CHAIN):
            out.append(("alu", (2,), (2,), None))
        out.append(("div", (3,), (16,), None))
        for k in range(_STORES):
            slot = 64 * k
            out.append(("store", (16,), (), ("S", slot)))
            for j in range(_LOADS_PER_STORE):
                overlaps = j == 0 and k % 2 == 0
                offset = slot + 4 if overlaps else (
                    4096 + 64 * (k * _LOADS_PER_STORE + j))
                out.append(("load", (), (24 + j,), ("L", offset)))
            out.append(("alu", (24,), (3,), None))
    return out


_BIG_TEMPLATE = _big_group()


def big_core_trace(seed: int, groups: int):
    rng = random.Random(seed)
    reg = _renaming(rng)
    base = _data_base(rng)
    kinds = {"L": ct.AccessKind.LOAD, "S": ct.AccessKind.STORE}
    template = [
        (cls, tuple(reg[r] for r in reads), tuple(reg[w] for w in writes),
         None if mem is None else (kinds[mem[0]], mem[1]))
        for cls, reads, writes, mem in _BIG_TEMPLATE
    ]
    seq = 0
    for g in range(groups):
        # Successive groups use fresh data lines, 8 KiB apart.
        block_base = base + (g % 256) * 0x2000
        for cls, reads, writes, mem in template:
            acc = () if mem is None else _access(mem[0], block_base + mem[1])
            yield ct.TraceInstruction(seq, 0x400000 + 4 * seq, cls, reads,
                                      writes, acc)
            seq += 1


def big_core_length(groups: int) -> int:
    return groups * len(_BIG_TEMPLATE)


# ---------------------------------------------------------------------------
# Toy-ISA loop program (toy_regions)

_TOY_PROGRAM = """\
.map const alu
.map add alu
.map ble br
init:
    const {base}, {base_addr}
    const {step}, 4
    const {n}, {inner_last}
    const {m}, {outer_last}
    const {one}, 1
outer:
    const {j}, 0
    add {p}, {base}, {zero}
inner:
    load {a}, {p}
    mul {b}, {a}, {a}
    add {c}, {c}, {b}
    store {c}, {p}
    add {p}, {p}, {step}
    add {j}, {j}, {one}
    ble {j}, {n}, inner
tail:
    add {i}, {i}, {one}
    ble {i}, {m}, outer
    halt
"""
_TOY_REGS = ("base", "step", "n", "m", "one", "j", "p", "zero",
             "a", "b", "c", "i")


def toy_program_text(seed: int, outer: int, inner: int) -> str:
    """Each load reads 8 bytes at p after the previous iteration stored 8
    bytes at p - 4, so every load overlaps the store just before it."""
    rng = random.Random(seed)
    regs = rng.sample(range(1, REG_SPACE), len(_TOY_REGS))
    names = {k: f"r{r}" for k, r in zip(_TOY_REGS, regs)}
    return _TOY_PROGRAM.format(
        base_addr=_data_base(rng), inner_last=inner - 1,
        outer_last=outer - 1, **names,
    )


# ---------------------------------------------------------------------------
# Writing the inputs

def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _write_trace(path: str, instructions) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        for inst in instructions:
            f.write(ct.render_instruction(inst))
            f.write("\n")
            n += 1
    return n


def _write_frames(path: str, instructions) -> int:
    """The wire protocol's frames, one per line, hello first, end last."""
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        hello = {"t": "hello", "version": 1, "model_hint": "bench"}
        f.write(json.dumps(hello) + "\n")
        chunk = []
        for inst in instructions:
            chunk.append(ct.to_wire(inst))
            n += 1
            if len(chunk) == WIRE_BATCH:
                f.write(json.dumps({"t": "insts", "batch": chunk}) + "\n")
                chunk = []
        if chunk:
            f.write(json.dumps({"t": "insts", "batch": chunk}) + "\n")
        f.write('{"t": "end"}\n')
    return n


def prepare(workload: str, seed: int, size: str, workdir: str) -> dict:
    """Write one workload's inputs under workdir and describe the run.

    The returned spec tells the analyzer process which broker to open
    and on which files; "instructions" is the stream length.
    """
    shape = SIZES[size]
    os.makedirs(workdir, exist_ok=True)
    model_path = os.path.join(workdir, "model.json")
    spec = {"workload": workload, "model": model_path}

    if workload in ("file_mix", "socket_mix"):
        _write(model_path, json.dumps(SMALL_MODEL))
        trace_path = os.path.join(workdir, "mix.trace")
        spec["trace"] = trace_path
        spec["instructions"] = _write_trace(
            trace_path, synthetic_mix(seed, shape["mix"]))
        if workload == "socket_mix":
            spec["frames"] = os.path.join(workdir, "mix.frames")
            _write_frames(spec["frames"], synthetic_mix(seed, shape["mix"]))
            spec["broker"] = "socket"
        else:
            spec["broker"] = "file"
    elif workload == "big_core":
        _write(model_path, json.dumps(BIG_MODEL))
        spec["broker"] = "generator"
        spec["generator"] = {"seed": seed, "groups": shape["big_groups"]}
        spec["instructions"] = big_core_length(shape["big_groups"])
    elif workload == "toy_regions":
        _write(model_path, json.dumps(TOY_MODEL))
        text = toy_program_text(seed, shape["toy_outer"], shape["toy_inner"])
        program = ct.parse_program(text)
        trace_path = os.path.join(workdir, "toy.trace")
        spec["trace"] = trace_path
        spec["instructions"] = _write_trace(
            trace_path, ct.execute(program, max_steps=10 ** 7))
        regions_path = os.path.join(workdir, "inner.regions")
        _write(regions_path, "R {:#x} {:#x}\n".format(
            program.label_address("inner"), program.label_address("tail")))
        spec["regions"] = regions_path
        spec["timeline"] = list(TIMELINE_WINDOW)
        spec["broker"] = "file"
    else:
        raise ValueError(f"unknown workload '{workload}'")
    return spec
