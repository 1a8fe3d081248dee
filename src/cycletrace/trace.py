"""Trace instruction types plus the text and wire encodings.

One trace line per dynamically executed instruction:

    I <seq> <hex-addr> <class> R:<regs> W:<regs> [L:<addr>:<size>]...
        [S:<addr>:<size>]... [C:<key>=<value>]

Register lists are comma separated; '-' means empty.  A register number
may carry a letter prefix (r13, x2).  '#' starts a comment.  Numbers are
ASCII.  The wire encoding mirrors the same fields as a JSON object.

A line spelled exactly as render_trace writes it, newline included, is
canonical.  A whole trace is read a chunk of lines at a time
(ChunkReader): one findall of a regular expression tiles a chunk's
joined text into its lines.  It certifies a line's sequence id, address,
accesses and context, and captures the middle, from the class to the
writes, as read.  A static instruction repeats its middle, so each
distinct middle text is certified and parsed once, and a line costs two
ints and two dict lookups.  A line that is not canonical is parsed with
parse_trace_line, which parses any spelling field by field.  A chunk
holding a bad line is read again line by line for the error the format
calls for.  Lines are split as a file read with universal newlines
splits them, at LF, CRLF and CR only, whether the text comes from a
file or from parse_trace.

The reader keeps a line's middle and access texts with their fields,
and render_trace a class and register lists, and a context, with their
text.  Each table is an _InternTable, cleared whenever it is full, so
its memory stays bounded on any input: _INTERN_BOUND entries, and 256
for the access texts, which carry dynamic addresses.
render_trace's entry also keeps the register tuples whose types it
checked, and checks each register's type on a hit by other tuples, so
what it accepts does not depend on what it rendered before.
"""

from __future__ import annotations

import io
import operator
import re
from collections import namedtuple
from collections.abc import Iterable, Iterator
from enum import Enum
from itertools import islice

from .errors import ProtocolError, TraceParseError

U64_LIMIT = 1 << 64


class AccessKind(Enum):
    LOAD = "load"
    STORE = "store"

    # Members are equal only to themselves, so they hash by identity, in
    # C: Enum's __hash__ runs in Python, and a region run hashes every
    # access of every visit it looks up (analysis._memoized).
    __hash__ = object.__hash__


_LOAD = AccessKind.LOAD
_STORE = AccessKind.STORE


# Immutable; the text parser, from_wire and the toy ISA build one per
# access.  Fields: kind (an AccessKind), address and size.
MemoryAccess = namedtuple("MemoryAccess", "kind address size")


_INSTRUCTION_FIELDS = ("seq_id", "address", "class_name", "reads",
                       "writes", "mem", "context")
_field_values = operator.attrgetter(*_INSTRUCTION_FIELDS)


class TraceInstruction:
    """One executed instruction: a mutable record with a slot per field.

    It is built once per instruction by every input, so it is a plain
    class: a named tuple's fields read several times slower, and the
    engine reads them once per instruction.  It compares equal only to
    another TraceInstruction with equal fields, and is unhashable.
    """

    __slots__ = _INSTRUCTION_FIELDS

    def __init__(
        self,
        seq_id: int,
        address: int,
        class_name: str,
        reads: tuple[int, ...] = (),
        writes: tuple[int, ...] = (),
        mem: tuple[MemoryAccess, ...] = (),
        context: tuple[str, str] | None = None,
    ):
        self.seq_id = seq_id
        self.address = address
        self.class_name = class_name
        self.reads = reads
        self.writes = writes
        self.mem = mem
        self.context = context

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _field_values(self) == _field_values(other)

    __hash__ = None

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, _INSTRUCTION_FIELDS,
                     _field_values(self))
        return f"{type(self).__qualname__}({', '.join(fields)})"


class Batch(namedtuple("Batch", "instructions end_of_stream stalled text",
                       defaults=((), False, False, None))):
    """A slice of the instruction stream handed to the consumer.

    The final instructions of a stream may share a batch with the
    end_of_stream flag.  An empty batch that has not ended means "nothing
    yet" and the driver simply fetches again.  stalled may mark such a
    batch for a caller that counts them; no library broker sets it and
    the driver never reads it.

    text, when set, is the batch's canonical text, render_trace of its
    instructions, as the broker read it or rendered it to check them;
    the digest hashes it without rendering again.  FileBroker sets it
    when every instruction of the batch was read from a canonical line,
    and SocketBroker on every 'insts' frame; any other source leaves it
    None.
    """

    __slots__ = ()


def _check_access(address: int, size: int, line: int | None = None):
    if not 0 <= address < U64_LIMIT:
        raise TraceParseError(f"address {address:#x} out of range", line)
    if size < 1:
        raise TraceParseError(f"access size {size} must be >= 1", line)
    if address + size > U64_LIMIT:
        raise TraceParseError(
            f"access at {address:#x} size {size} wraps past 2^64", line
        )


def _parse_reg(token: str, line: int | None) -> int:
    # Producers may prefix register numbers with a letter (r13, x2).
    body = token[1:] if token[:1].isalpha() else token
    if token.isascii() and body.isdigit():
        try:
            return int(body)
        except ValueError:  # past the interpreter's digit limit
            pass
    raise TraceParseError(f"bad register token '{token}'", line)


def _parse_reg_list(f: str, line: int | None) -> tuple[int, ...]:
    if f == "-" or f == "":
        return ()
    return tuple(_parse_reg(tok, line) for tok in f.split(","))


_INTERN_BOUND = 4096  # entries an _InternTable holds before it is cleared


class _InternTable(dict):
    """A dict that makes a missing key's value with make(key), keeps it
    and returns it; if make raises, nothing is kept.  It is cleared
    whenever it reaches bound entries, so its memory stays bounded
    however many distinct keys arrive."""

    __slots__ = ("make", "bound")

    def __init__(self, make, bound=_INTERN_BOUND):
        self.make = make
        self.bound = bound

    def __missing__(self, key):
        value = self.make(key)
        if len(self) >= self.bound:
            self.clear()
        self[key] = value
        return value


def read_int(token: str) -> int:
    """Read a number as every text input does, or raise ValueError.

    Takes every form int(token, 0) takes (0x1f, 0o17, 0b101, 1_000, -3)
    and also a zero-padded decimal such as 007 or +04, which int(token,
    0) refuses.  Only ASCII is read: int() would also take other
    scripts' digits.
    """
    if not token.isascii():
        raise ValueError(f"non-ASCII number {token!r}")
    try:
        return int(token, 0)
    except ValueError:
        digits = token[1:] if token[:1] in ("+", "-") else token
        if not digits.isdigit():
            raise
    return int(token, 10)  # ValueError past the interpreter's digit limit


def _parse_int(token: str, line: int | None, what: str) -> int:
    try:
        return read_int(token)
    except ValueError:
        raise TraceParseError(f"bad {what} '{token}'", line) from None


# A line exactly as render_trace writes it, newline included: unsigned
# decimals and lowercase 0x hex without leading zeros, bare register
# numbers, accesses before the context.  \s is what str.split() splits
# on.  The groups are sequence id, address, class, reads, writes, every
# access as one string, context key and context value.
_NUM = r"(?:0|[1-9][0-9]*)"
_HEX = r"0x(?:0|[1-9a-f][0-9a-f]*)"
_REGS = rf"(?:-|{_NUM}(?:,{_NUM})*)"
_CLASS = r"[^\s#]+"
_CTX_KEY = r"[^\s#=]+"
_CTX_VALUE = r"[^\s#]*"
_MIDDLE = rf" ({_CLASS}) R:({_REGS}) W:({_REGS})"
_ACCESSES = rf"(?: [LS]:{_HEX}:[1-9][0-9]*)*"
_CONTEXT = rf" C:({_CTX_KEY})=({_CTX_VALUE})"
_CANONICAL_LINE = (
    rf"I ({_NUM}) ({_HEX}){_MIDDLE}({_ACCESSES})(?:{_CONTEXT})?\n")
# Each match is one line.  A line shaped as a canonical one gives its
# sequence id, address, middle (the text from the class to the writes)
# as read, accesses, and context key and value.  The pattern certifies
# all but the middle; _LINE_MIDDLES certifies that once per distinct
# text, and the line is canonical when it is.  Any other line, newline
# included, is the seventh group.  Only a newline ends a line, as
# io.StringIO(text, newline="\n") splits it.
_LINE = re.compile(rf"I ({_NUM}) ({_HEX})( [^ \n]+ R:[^ \n]* W:[^ \n]*)"
                   rf"({_ACCESSES})(?:{_CONTEXT})?\n|(.+\n?|\n)")


def _read_middle(text: str):
    """(class, reads, writes) of a middle text that is canonical, and
    None for any other; raises ValueError for a register past the
    interpreter's digit limit."""
    m = re.fullmatch(_MIDDLE, text)
    if m is None:
        return None
    name, reads, writes = m.groups()
    return (name, () if reads == "-" else tuple(map(int, reads.split(","))),
            () if writes == "-" else tuple(map(int, writes.split(","))))


def _read_accesses(text: str) -> tuple[MemoryAccess, ...]:
    """The accesses of an access text that _ACCESSES matched; raises
    ValueError for one that wraps past 2^64, or a size past the
    interpreter's digit limit."""
    mem = []
    for tok in text.split():
        kind, a, s = tok.split(":")
        a = int(a, 16)
        s = int(s)
        if a + s > U64_LIMIT:
            raise ValueError
        # MemoryAccess(...) without the Python frame of its __new__: a
        # trace whose every address is new makes one per line.
        mem.append(tuple.__new__(MemoryAccess, (
            _LOAD if kind == "L" else _STORE, a, s)))
    return tuple(mem)


# The text of a line's middle and accesses -> its fields.  A static
# instruction repeats its middle, so each distinct text is certified and
# parsed once.  Access addresses are dynamic data, so that table is held
# to window scale: 256 entries, a chunk of lines.
_LINE_MIDDLES = _InternTable(_read_middle)
_LINE_ACCESSES = _InternTable(_read_accesses, bound=256)


def parse_trace_line(
    text: str, line: int | None = None
) -> TraceInstruction | None:
    """Parse one line in any spelling, field by field; returns None for
    blanks and comments."""
    if "#" in text:
        text = text.split("#", 1)[0]
    fields = text.split()
    if not fields:
        return None
    if fields[0] != "I":
        raise TraceParseError(f"expected 'I' record, got '{fields[0]}'", line)
    if len(fields) < 6:
        raise TraceParseError("truncated instruction record", line)
    seq = _parse_int(fields[1], line, "sequence id")
    if seq < 0:
        raise TraceParseError(f"negative sequence id {seq}", line)
    addr = _parse_int(fields[2], line, "address")
    if not 0 <= addr < U64_LIMIT:
        raise TraceParseError(f"address {addr:#x} out of range", line)
    r_field = fields[4]
    w_field = fields[5]
    if not r_field.startswith("R:") or not w_field.startswith("W:"):
        raise TraceParseError("expected R: and W: register lists", line)
    reads = _parse_reg_list(r_field[2:], line)
    writes = _parse_reg_list(w_field[2:], line)

    mem: list[MemoryAccess] = []
    context: tuple[str, str] | None = None
    for tok in fields[6:]:
        if tok.startswith("L:") or tok.startswith("S:"):
            kind = _LOAD if tok[0] == "L" else _STORE
            parts = tok[2:].split(":")
            if len(parts) != 2:
                raise TraceParseError(f"bad memory token '{tok}'", line)
            a = _parse_int(parts[0], line, "memory address")
            s = _parse_int(parts[1], line, "memory size")
            _check_access(a, s, line)
            mem.append(MemoryAccess(kind, a, s))
        elif tok.startswith("C:"):
            if context is not None:
                raise TraceParseError("multiple context tokens", line)
            kv = tok[2:].split("=", 1)
            if len(kv) != 2 or not kv[0]:
                raise TraceParseError(f"bad context token '{tok}'", line)
            context = (kv[0], kv[1])
        else:
            raise TraceParseError(f"unrecognized token '{tok}'", line)

    return TraceInstruction(
        seq, addr, fields[3], reads, writes, tuple(mem), context
    )


def _not_utf8(text: str) -> bool:
    """Whether text holds a surrogate, which has no UTF-8 encoding.  A
    file read with errors="surrogateescape" holds one for each byte that
    is not UTF-8."""
    if text.isascii():
        return False
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


class ChunkReader:
    """Reads a trace a chunk of lines at a time, enforcing seq_id
    monotonicity across chunks.

    Errors carry 1-based line numbers counted over all chunks read.
    """

    __slots__ = ("lineno", "last_seq")

    def __init__(self):
        self.lineno = 0  # lines read so far
        self.last_seq = -1

    def read(self, text: str, n: int):
        """(instructions, text) of the next chunk: the joined text of n
        consecutive lines as a text file in universal newlines mode reads
        them, so each but perhaps the trace's last ends with a newline.

        The text returned is render_trace of the chunk's instructions
        when every one of them was read from a canonical line, and None
        otherwise.  A line holding a surrogate is not UTF-8.
        """
        insts, text = _read_chunk(text, self.lineno, self.last_seq)
        self.lineno += n
        if insts:
            self.last_seq = insts[-1].seq_id
        return insts, text


def _read_chunk(text: str, lineno: int, last_seq: int):
    """(instructions, text) of a chunk's joined lines, the first being
    line lineno + 1; raises the error of the first bad line.

    One _LINE.findall tiles the chunk into its lines.  A line costs its
    sequence id, its address and a lookup each of its middle and access
    texts, whose fields are certified and parsed once per distinct
    text.  A line that is not canonical is parsed by parse_trace_line,
    as it was read.  The text returned is the chunk as read when every
    line is canonical, its canonical lines when the other lines hold no
    instruction, and None otherwise.  A chunk that is not UTF-8, or
    that holds a bad line (out of range, out of sequence order or
    malformed), is read one by one for its error.
    """
    first_seq = last_seq
    middles = _LINE_MIDDLES
    accesses_of = _LINE_ACCESSES
    insts: list[TraceInstruction] = []
    append = insts.append
    others = 0  # lines that are not canonical
    try:
        if _not_utf8(text):
            raise ValueError
        matches = _LINE.findall(text)
        for seq, addr, middle, accesses, key, value, other in matches:
            if not other:
                static = middles[middle]
                if static is not None:
                    seq = int(seq)
                    if seq <= last_seq:
                        raise ValueError
                    last_seq = seq
                    addr = int(addr, 16)
                    if addr >= U64_LIMIT:
                        raise ValueError
                    name, reads, writes = static
                    append(TraceInstruction(seq, addr, name, reads, writes,
                                            accesses_of[accesses],
                                            (key, value) if key else None))
                    continue
                context = f" C:{key}={value}" if key else ""
                other = f"I {seq} {addr}{middle}{accesses}{context}\n"
            others += 1
            inst = parse_trace_line(other)
            if inst is None:
                continue
            if inst.seq_id <= last_seq:
                raise ValueError
            last_seq = inst.seq_id
            append(inst)
    except (ValueError, TraceParseError):
        return _read_lines(io.StringIO(text, newline="\n"), lineno,
                           first_seq), None
    if not others:
        return insts, text
    if len(insts) > len(matches) - others:  # another line held one
        return insts, None
    # Every line that held no instruction is in the seventh group, and
    # every other line is canonical.
    lines = io.StringIO(text, newline="\n").readlines()
    return insts, "".join([line for line, m in zip(lines, matches)
                           if not m[6]])


def _read_lines(lines: Iterable[str], lineno: int, last_seq: int):
    """The instructions of lines read one by one, the first being line
    lineno + 1; raises the error of the first bad line."""
    insts = []
    for lineno, raw in enumerate(lines, lineno + 1):
        if not raw.isascii() and _not_utf8(raw):
            raise TraceParseError("not UTF-8", lineno)
        inst = parse_trace_line(raw, lineno)
        if inst is None:
            continue
        if inst.seq_id <= last_seq:
            raise TraceParseError(
                f"sequence id {inst.seq_id} not greater than previous "
                f"{last_seq}", lineno,
            )
        last_seq = inst.seq_id
        insts.append(inst)
    return insts


_CHUNK_LINES = 256  # lines parse_trace reads per chunk


def parse_trace(text: str) -> list[TraceInstruction]:
    """The instructions of a whole trace text.

    Lines are split as a file read with universal newlines splits them,
    at LF, CRLF and CR only, so text parses as FileBroker reads a file
    that holds it.
    """
    f = io.StringIO(text, newline=None)
    reader = ChunkReader()
    out: list[TraceInstruction] = []
    while lines := list(islice(f, _CHUNK_LINES)):
        out += reader.read("".join(lines), len(lines))[0]
    return out


def read_records(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped body) of each line of a region, ground-truth
    or toy program text that holds more than blanks and a '#' comment.
    Lines are split as parse_trace splits them, at LF, CRLF and CR only."""
    for lineno, raw in enumerate(io.StringIO(text, newline=None), 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body


# A name a canonical line cannot carry would render to the text, and
# the digest, of another instruction.
_IS_CLASS = re.compile(_CLASS).fullmatch
_IS_CTX_KEY = re.compile(_CTX_KEY).fullmatch
_IS_CTX_VALUE = re.compile(_CTX_VALUE).fullmatch


# The rules of a trace line's fields, one function each; each raises
# TraceParseError naming the field as the wire table of the README does.
_PAST_LIMIT = "holds an integer past the interpreter's digit limit"


def _int(value, field: str) -> int:
    """value, an int but not a bool; an int subclass is an integer."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TraceParseError(f"instruction field '{field}' must be an integer")


def _int_text(value, field: str) -> str:
    """value in decimal; past the interpreter's digit limit it has no
    text, so no line carries it."""
    try:
        return str(_int(value, field))
    except ValueError:
        raise TraceParseError(f"instruction field '{field}' {_PAST_LIMIT}"
                              ) from None


def _class_text(name) -> str:
    if not isinstance(name, str) or not name:
        raise TraceParseError(
            "instruction field 'class' must be a non-empty string")
    if not _IS_CLASS(name):
        raise TraceParseError("instruction field 'class' may contain no "
                              "whitespace and no '#'")
    if _not_utf8(name):
        raise TraceParseError("instruction field 'class' is not UTF-8")
    return name


def _reg_text(regs, field: str) -> str:
    if not isinstance(regs, tuple):
        raise TraceParseError(
            f"instruction field '{field}' must be a tuple of integers")
    for reg in regs:
        if not isinstance(reg, int) or isinstance(reg, bool):
            raise TraceParseError(f"register {reg!r} in instruction field "
                                  f"'{field}' is not an integer")
    text = ",".join([_int_text(reg, field) for reg in regs])
    if regs and min(regs) < 0:  # a line carries no sign for a register
        raise TraceParseError(f"negative register {min(regs)} in "
                              f"instruction field '{field}'")
    return text or "-"


def _middle(key: tuple) -> str:
    """The text of a line from the class to the writes."""
    name, reads, writes = key
    return (f" {_class_text(name)} R:{_reg_text(reads, 'reads')} "
            f"W:{_reg_text(writes, 'writes')}")


def _access_text(acc) -> str:
    if not isinstance(acc, MemoryAccess):
        raise TraceParseError(f"memory entry {acc!r} is not a MemoryAccess")
    kind, a, s = acc
    if kind is not _LOAD and kind is not _STORE:
        raise TraceParseError(f"bad memory kind {kind!r}")
    if 0 <= _int(a, "addr") < U64_LIMIT:  # else the address is reported
        _int_text(s, "size")
    _check_access(a, _int(s, "size"))
    return f" {'L' if kind is _LOAD else 'S'}:{a:#x}:{s}"


def _context_text(context) -> str:
    if not (isinstance(context, tuple) and len(context) == 2
            and all(isinstance(part, str) for part in context)):
        raise TraceParseError(
            "instruction field 'ctx' must be a pair of strings")
    key, value = context
    if not _IS_CTX_KEY(key):
        raise TraceParseError(
            "instruction field 'ctx' key must be non-empty, with no "
            "whitespace, no '#' and no '='")
    if not _IS_CTX_VALUE(value):
        raise TraceParseError("instruction field 'ctx' value may contain "
                              "no whitespace and no '#'")
    if _not_utf8(key + value):
        raise TraceParseError("instruction field 'ctx' is not UTF-8")
    return f" C:{key}={value}"


def _line(inst) -> str:
    """inst's line, its fields checked in line order, so that an
    instruction with several faults always reports the same one."""
    try:
        seq, addr, name, reads, writes, mem, context = _field_values(inst)
    except AttributeError:
        raise TraceParseError(f"{inst!r} is not an instruction") from None
    text = _int_text(seq, "seq")
    if seq < 0:
        raise TraceParseError(f"negative sequence id {text}")
    if not 0 <= _int(addr, "addr") < U64_LIMIT:
        raise TraceParseError(f"address {addr:#x} out of range")
    line = f"I {text} {addr:#x}{_middle((name, reads, writes))}"
    if not isinstance(mem, tuple):
        raise TraceParseError("instruction field 'mem' must be a tuple")
    line += "".join(map(_access_text, mem))
    return line if context is None else line + _context_text(context)


# (class name, reads, writes) -> (_middle, reads, writes), and context ->
# its C: token.  Equal keys share an entry, and (1,) == (True,), so an
# entry keeps the register tuples whose types it checked.
_MIDDLES = _InternTable(lambda key: (_middle(key), key[1], key[2]))
_CONTEXT_TEXT = _InternTable(_context_text)


def render_trace(instructions: Iterable[TraceInstruction]) -> str:
    """The canonical text of instructions: one line each, newline ended.

    This is the one checker of an instruction's values.  An instruction
    that no trace line carries raises TraceParseError: the README's wire
    table sets out the rules, with tuples for the lists, a MemoryAccess
    for each access and a pair of strs for the context.
    """
    middles = _MIDDLES
    contexts = _CONTEXT_TEXT
    out: list[str] = []
    append = out.append
    for inst in instructions:
        # Fields of exact types are rendered here from interned text; any
        # other instruction, and any fault, is left to _line, which
        # checks each field and raises the precise error.
        try:
            seq = inst.seq_id
            addr = inst.address
            mem = inst.mem
            if (seq.__class__ is not int or addr.__class__ is not int
                    or seq < 0 or addr < 0 or addr >= U64_LIMIT
                    or mem.__class__ is not tuple):
                raise ValueError
            reads = inst.reads
            writes = inst.writes
            middle, checked_reads, checked_writes = middles[
                inst.class_name, reads, writes]
            if checked_reads is not reads:
                for reg in reads:
                    if reg.__class__ is not int:
                        raise ValueError
            if checked_writes is not writes:
                for reg in writes:
                    if reg.__class__ is not int:
                        raise ValueError
            line = f"I {seq} {addr:#x}{middle}"
            for acc in mem:
                kind, a, s = acc
                if (acc.__class__ is not MemoryAccess
                        or a.__class__ is not int or s.__class__ is not int
                        or not 0 <= a < a + s <= U64_LIMIT
                        or kind is not _LOAD and kind is not _STORE):
                    raise ValueError
                line += f" {'L' if kind is _LOAD else 'S'}:{a:#x}:{s}"
            if inst.context is not None:
                line += contexts[inst.context]
        except Exception:
            line = _line(inst)
        append(line)
    append("")  # the last line's newline
    return "\n".join(out)


def render_instruction(inst: TraceInstruction) -> str:
    return render_trace((inst,))[:-1]


# ---------------------------------------------------------------------------
# Wire encoding (JSON object per instruction, used inside stream frames)

def to_wire(inst: TraceInstruction) -> dict:
    obj = {
        "seq": inst.seq_id,
        "addr": inst.address,
        "class": inst.class_name,
        "reads": list(inst.reads),
        "writes": list(inst.writes),
    }
    if inst.mem:
        obj["mem"] = [
            {
                "kind": "L" if a.kind is _LOAD else "S",
                "addr": a.address,
                "size": a.size,
            }
            for a in inst.mem
        ]
    if inst.context is not None:
        obj["ctx"] = inst.context  # the receiver holds it to the line rules
    return obj


def from_wire(obj: dict) -> TraceInstruction:
    """Decode one wire instruction object.

    Only the JSON shape is checked here: the object is a dict, 'reads'
    and 'writes' are lists, and 'mem' is a list of objects.  The values
    are held to a trace line's rules by render_trace, whose
    TraceParseError is raised as a ProtocolError.  Fields are checked in
    a fixed order, so an object with several faults always reports the
    same one.
    """
    return _wire_line(obj)[0]


def _wire_line(obj) -> tuple[TraceInstruction, str]:
    """from_wire's instruction, and the trace line that checking it
    rendered, newline included."""
    if not isinstance(obj, dict):
        raise ProtocolError("instruction frame entry must be an object")
    get = obj.get
    regs = []
    for key in ("reads", "writes"):
        value = get(key, [])
        if not isinstance(value, list):
            raise ProtocolError(f"instruction field '{key}' must be a list "
                                "of integers")
        regs.append(tuple(value))
    entries = get("mem", [])  # 'mem': null is refused
    if not isinstance(entries, list):
        raise ProtocolError("instruction field 'mem' must be a list")
    mem = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ProtocolError("memory entry must be an object")
        kind = entry.get("kind")  # render_trace refuses all but L and S
        kind = _LOAD if kind == "L" else _STORE if kind == "S" else kind
        mem.append(MemoryAccess(kind, entry.get("addr"), entry.get("size")))
    ctx = get("ctx")
    if isinstance(ctx, list):
        ctx = tuple(ctx)  # render_trace takes only a pair of strings
    inst = TraceInstruction(get("seq"), get("addr"), get("class"), *regs,
                            tuple(mem), ctx)
    try:
        return inst, render_trace((inst,))
    except TraceParseError as e:
        raise ProtocolError(str(e)) from None
