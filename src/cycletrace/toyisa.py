"""A tiny assembly language whose interpreter emits traces.

The point of the toy ISA is generating ground-truth instruction streams
with real control flow and real addresses, without depending on any
outside tooling.  Programs are line oriented:

    .map <opcode> <class>     # trace class for an opcode (default: opcode)
    .entry <label>
    label:
    const rD, <imm>
    add   rD, rA, rB          # also: mul, cmp (cmp computes rA - rB)
    load  rD, rA              # rD = mem64[rA]
    store rV, rA              # mem64[rA] = rV
    ble   rA, rB, <label>     # branch if rA <= rB, signed
    jump  <label>
    halt
    setctx <key>=<value>      # context attached to subsequent instructions

Registers are r0..r31, 64-bit, wrapping.  Memory is byte addressable;
loads and stores move 8 bytes; unwritten memory reads as zero.
Execution is pure: the same program always yields the same trace.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .errors import ProgramError, TraceParseError, TruncatedTraceError
from .trace import (
    _LOAD, _STORE, MemoryAccess, TraceInstruction, _parse_int, read_records)

U64 = 1 << 64
BASE_ADDRESS = 0x400000
INSTR_SPACING = 4
ACCESS_SIZE = 8


ToyOp = namedtuple("ToyOp", "opcode regs imm target key value line",
                   defaults=((), None, None, None, None, 0))


class ToyProgram(namedtuple("ToyProgram",
                            "instructions labels entry class_map")):
    __slots__ = ()

    def address_of(self, index: int) -> int:
        return BASE_ADDRESS + INSTR_SPACING * index

    def label_address(self, label: str) -> int:
        return self.address_of(self.labels[label])


# Each opcode's operands, left to right: r a register, i an immediate,
# k a key=value pair; a trailing l is a target label, always the last token.
_OPERANDS = {
    "const": "ri", "add": "rrr", "mul": "rrr", "cmp": "rrr",
    "load": "rr", "store": "rr", "ble": "rrl", "jump": "l",
    "halt": "", "setctx": "k",
}


def _parse_reg(token: str, line: int) -> int:
    if (len(token) < 2 or token[0] != "r" or not token.isascii()
            or not token[1:].isdigit()):
        raise TraceParseError(f"expected register, got '{token}'", line)
    n = int(token[1:])
    if n > 31:
        raise TraceParseError(f"register r{n} out of range (r0..r31)", line)
    return n


def parse_program(text: str) -> ToyProgram:
    class_map: dict[str, str] = {}
    labels: dict[str, int] = {}
    entry_label: str | None = None
    pending: list[tuple[int, str, list[str], str | None]] = []

    for lineno, body in read_records(text):
        if body.startswith(".map"):
            parts = body.split()
            if len(parts) != 3:
                raise TraceParseError(".map takes an opcode and a class", lineno)
            if parts[1] not in _OPERANDS:
                raise TraceParseError(f"unknown opcode '{parts[1]}' in .map", lineno)
            class_map[parts[1]] = parts[2]
            continue
        if body.startswith(".entry"):
            parts = body.split()
            if len(parts) != 2:
                raise TraceParseError(".entry takes one label", lineno)
            entry_label = parts[1]
            continue
        if body.startswith("."):
            raise TraceParseError(f"unknown directive '{body.split()[0]}'", lineno)

        while body and ":" in body.split()[0]:
            label, _, rest = body.partition(":")
            label = label.strip()
            if not label or " " in label:
                raise TraceParseError(f"bad label '{label}'", lineno)
            if label in labels:
                raise TraceParseError(f"duplicate label '{label}'", lineno)
            labels[label] = len(pending)
            body = rest.strip()
        if not body:
            continue

        tokens = body.replace(",", " ").split()
        opcode = tokens[0]
        if opcode not in _OPERANDS:
            raise TraceParseError(f"unknown opcode '{opcode}'", lineno)
        target_label: str | None = None
        operands = tokens[1:]
        if _OPERANDS[opcode].endswith("l"):
            if not operands:
                raise TraceParseError(f"'{opcode}' needs a target label", lineno)
            target_label = operands.pop()
        pending.append((lineno, opcode, operands, target_label))

    ops: list[ToyOp] = []
    for lineno, opcode, operands, target_label in pending:
        target = None
        if target_label is not None:
            if target_label not in labels:
                raise TraceParseError(
                    f"undefined label '{target_label}'", lineno
                )
            target = labels[target_label]

        kinds = _OPERANDS[opcode].rstrip("l")
        if len(operands) != len(kinds):
            raise TraceParseError(
                f"'{opcode}' takes {len(kinds)} operand(s), "
                f"got {len(operands)}",
                lineno,
            )
        regs: list[int] = []
        imm = key = value = None
        for kind, token in zip(kinds, operands):
            if kind == "r":
                regs.append(_parse_reg(token, lineno))
            elif kind == "i":
                imm = _parse_int(token, lineno, "immediate")
            else:
                key, sep, value = token.partition("=")
                if not sep or not key:
                    raise TraceParseError("setctx takes key=value", lineno)
        ops.append(ToyOp(opcode, regs=tuple(regs), imm=imm, target=target,
                         key=key, value=value, line=lineno))

    if not ops:
        raise TraceParseError("program has no instructions")
    if entry_label is not None:
        if entry_label not in labels:
            raise TraceParseError(f"undefined entry label '{entry_label}'")
        entry = labels[entry_label]
    else:
        entry = 0
    for label, index in labels.items():
        if index >= len(ops):
            raise TraceParseError(f"label '{label}' points past the program")
    return ToyProgram(
        instructions=tuple(ops),
        labels=labels,
        entry=entry,
        class_map=class_map,
    )


def _signed(v: int) -> int:
    return v - U64 if v >= (U64 >> 1) else v


def execute(
    program: ToyProgram, max_steps: int = 100_000
) -> Iterator[TraceInstruction]:
    """Run a program, yielding each instruction as it executes.

    Raises TruncatedTraceError once it has yielded max_steps
    instructions without reaching halt.
    """
    regs = [0] * 32
    mem: dict[int, int] = {}
    context: tuple[str, str] | None = None
    pc = program.entry
    # Each op as a plain tuple of its fields, its address and its trace
    # class, unpacked once per step: a ToyOp's named-tuple fields read
    # several times slower.
    class_map = program.class_map
    steps = [(*op, program.address_of(i),
              class_map.get(op.opcode, op.opcode))
             for i, op in enumerate(program.instructions)]

    for seq in range(max_steps):
        if not 0 <= pc < len(steps):
            raise ProgramError(
                f"execution ran past the program (pc={pc})"
            )
        (opcode, op_regs, imm, target, ctx_key, ctx_value, line, address,
         cname) = steps[pc]
        next_pc = pc + 1
        reads: tuple[int, ...] = ()
        writes: tuple[int, ...] = ()
        accesses: tuple[MemoryAccess, ...] = ()

        if opcode == "const":
            d = op_regs[0]
            regs[d] = imm % U64
            writes = (d,)
        elif opcode in ("add", "mul", "cmp"):
            d, a, b = op_regs
            if opcode == "add":
                regs[d] = (regs[a] + regs[b]) % U64
            elif opcode == "mul":
                regs[d] = (regs[a] * regs[b]) % U64
            else:
                regs[d] = (regs[a] - regs[b]) % U64
            reads = (a, b)
            writes = (d,)
        elif opcode == "load":
            d, a = op_regs
            addr = regs[a]
            if addr + ACCESS_SIZE > U64:
                raise ProgramError(
                    f"load at {addr:#x} wraps past the address space "
                    f"(line {line})"
                )
            value = 0
            for i in range(ACCESS_SIZE):
                value |= mem.get(addr + i, 0) << (8 * i)
            regs[d] = value
            reads = (a,)
            writes = (d,)
            accesses = (MemoryAccess(_LOAD, addr, ACCESS_SIZE),)
        elif opcode == "store":
            v, a = op_regs
            addr = regs[a]
            if addr + ACCESS_SIZE > U64:
                raise ProgramError(
                    f"store at {addr:#x} wraps past the address space "
                    f"(line {line})"
                )
            value = regs[v]
            for i in range(ACCESS_SIZE):
                mem[addr + i] = (value >> (8 * i)) & 0xFF
            reads = (v, a)
            accesses = (MemoryAccess(_STORE, addr, ACCESS_SIZE),)
        elif opcode == "ble":
            a, b = op_regs
            reads = (a, b)
            if _signed(regs[a]) <= _signed(regs[b]):
                next_pc = target
        elif opcode == "jump":
            next_pc = target

        yield TraceInstruction(
            seq_id=seq,
            address=address,
            class_name=cname,
            reads=reads,
            writes=writes,
            mem=accesses,
            context=context,
        )

        if opcode == "setctx":
            context = (ctx_key, ctx_value)
        if opcode == "halt":
            return
        pc = next_pc
    raise TruncatedTraceError(
        f"step budget of {max_steps} exhausted before halt")
