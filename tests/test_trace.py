"""Trace text parsing, rendering, and the JSON wire encoding."""

import contextlib
import io
import json
import re
import socket
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from cycletrace import brokers, trace
from cycletrace import (
    AccessKind,
    MemoryAccess,
    ProtocolError,
    SocketBroker,
    TraceInstruction,
    TraceParseError,
    from_wire,
    parse_ground_truth,
    parse_program,
    parse_regions,
    parse_trace,
    parse_trace_line,
    render_instruction,
    render_trace,
    to_wire,
)


def test_parse_full_line():
    inst = parse_trace_line(
        "I 7 0x400010 load R:3,11 W:4 L:0x1000:8 S:0x2000:4 C:sz=8"
    )
    assert inst.seq_id == 7
    assert inst.address == 0x400010
    assert inst.class_name == "load"
    assert inst.reads == (3, 11)
    assert inst.writes == (4,)
    assert inst.mem == (
        MemoryAccess(AccessKind.LOAD, 0x1000, 8),
        MemoryAccess(AccessKind.STORE, 0x2000, 4),
    )
    assert inst.context == ("sz", "8")


def test_parse_empty_register_lists():
    inst = parse_trace_line("I 0 0x400000 nop R:- W:-")
    assert inst.reads == ()
    assert inst.writes == ()
    assert inst.mem == ()
    assert inst.context is None


def test_parse_letter_prefixed_registers():
    # Producers write r13 or x2; the prefix letter is cosmetic.
    inst = parse_trace_line("I 0 0x400000 add R:r1,x2 W:r3")
    assert inst.reads == (1, 2)
    assert inst.writes == (3,)


def test_interned_list_does_not_hide_a_bad_one():
    with pytest.raises(TraceParseError,
                       match="line 2: bad register token '3a'"):
        parse_trace("I 0 0x0 nop R:3 W:-\nI 1 0x4 nop R:3a W:-\n")


def test_prefixed_and_bare_lists_parse_alike():
    insts = parse_trace("I 0 0x0 add R:r1,x2 W:-\nI 1 0x4 add R:1,2 W:-\n")
    assert insts[0].reads == insts[1].reads == (1, 2)


def test_register_list_table_stays_bounded():
    bound = trace._INTERN_BOUND
    parse_trace("".join(
        f"I {i} 0x0 add R:{i} W:-\n" for i in range(bound + 10)
    ))
    assert len(trace._LINE_MIDDLES) <= bound
    late = parse_trace_line(f"I 0 0x0 add R:{bound + 5},7 W:x9", 1)
    assert late.reads == (bound + 5, 7)
    assert late.writes == (9,)


def test_parse_zero_padded_decimals():
    inst = parse_trace_line("I 007 0x0 load R:- W:- L:0x10:08 S:016:+04")
    assert inst.seq_id == 7
    assert inst.mem == (
        MemoryAccess(AccessKind.LOAD, 0x10, 8),
        MemoryAccess(AccessKind.STORE, 16, 4),
    )
    assert parse_trace_line("I 0 00400000 nop R:- W:-").address == 400000


@pytest.mark.parametrize("token,value", [
    ("0", 0), ("00", 0), ("0_0", 0), ("1_000", 1000), ("+7", 7),
    ("0x1f", 31), ("0x_1f", 31), ("0o17", 15), ("0b101", 5), ("0009", 9),
])
def test_parse_int_forms(token, value):
    assert trace._parse_int(token, 1, "size") == value


@pytest.mark.parametrize("token", [
    "0_7", "08x", "--07", "0x", "", "\u0660\u0667",
    # Digit strings past the interpreter's int conversion limit (4300
    # digits by default) make int() raise ValueError.
    pytest.param("1" * 5000, id="5000-digits"),
    pytest.param("0" + "1" * 5000, id="padded-5000-digits"),
])
def test_parse_int_still_refuses(token):
    with pytest.raises(TraceParseError, match="line 4: bad size"):
        trace._parse_int(token, 4, "size")


def test_comments_and_blanks_skipped():
    insts = parse_trace("""
# header comment
I 0 0x400000 nop R:- W:-

I 1 0x400004 nop R:- W:-   # trailing comment
""")
    assert [i.seq_id for i in insts] == [0, 1]


def test_seq_must_increase():
    with pytest.raises(TraceParseError, match="line 2.*not greater"):
        parse_trace("I 5 0x400000 nop R:- W:-\nI 5 0x400004 nop R:- W:-\n")


@pytest.mark.parametrize("line,message", [
    ("J 0 0x0 nop R:- W:-", "expected 'I' record"),
    ("I 0 0x0 nop R:-", "truncated"),
    ("I -1 0x0 nop R:- W:-", "negative sequence id"),
    ("I zz 0x0 nop R:- W:-", "bad sequence id"),
    ("I 0 0xqq nop R:- W:-", "bad address"),
    ("I 0 0x0 nop W:- R:-", "expected R: and W:"),
    ("I 0 0x0 nop R:1a W:-", "bad register token"),
    ("I 0 0x0 nop R:- W:- L:0x10", "bad memory token"),
    ("I 0 0x0 nop R:- W:- L:0x10:0", "size 0 must be >= 1"),
    ("I 1 0x10000000000000000 nop R:- W:-",
     "line 3: address 0x10000000000000000 out of range"),
    ("I 0 0x0 nop R:- W:- L:-1:8", "address -0x1 out of range"),
    ("I 0 0x0 nop R:- W:- C:=x", "bad context token"),
    ("I 0 0x0 nop R:- W:- C:a=1 C:b=2", "multiple context"),
    ("I 0 0x0 nop R:- W:- whatever", "unrecognized token"),
    ("I -007 0x0 nop R:- W:-", "negative sequence id -7"),
    pytest.param(f"I {'1' * 5000} 0x0 nop R:- W:-", "bad sequence id",
                 id="5000-digit-seq"),
])
def test_parse_rejects(line, message):
    with pytest.raises(TraceParseError, match=message):
        parse_trace_line(line, 3)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(TraceParseError, match="line 3:"):
        parse_trace("I 0 0x0 nop R:- W:-\n\nJ bad\n")


# -- every line-oriented input splits lines alike -------------------------------

@pytest.mark.parametrize("char", ["\f", "\x85", "\u2028"],
                         ids=["FF", "NEL", "LS"])
@pytest.mark.parametrize("read,good,bad,message", [
    (parse_regions, "R 0x10 0x20", "R 0x30", "bad region line: 'R 0x30'"),
    (parse_ground_truth, "G 10 20", "G 30", "bad ground-truth line: 'G 30'"),
    (parse_program, "halt", "jump", "'jump' needs a target label"),
], ids=["regions", "ground-truth", "program"])
def test_a_comment_ends_only_at_a_line_end(read, good, bad, message, char):
    # Only LF, CRLF and CR end a line, as in a trace.
    with pytest.raises(TraceParseError,
                       match=f"^line 3: {re.escape(message)}$"):
        read(f"{good}\n# a{char}b\n{bad}\n")


_BREAKS = "\f\v\x1c\x85\u2028"  # line breaks to str.splitlines only
_skipped_lines = st.lists(st.tuples(
    st.text(" \t" + _BREAKS, max_size=3),
    st.one_of(st.just(""), st.text("a #" + _BREAKS, max_size=6).map(
        "#".__add__)),
    st.sampled_from(["\n", "\r\n", "\r"]),
), max_size=8)


@given(_skipped_lines)
def test_every_line_reader_numbers_lines_alike(lines):
    head = "".join(map("".join, lines))
    # A CR then an LF is one line end, as the alternation reads it.
    line = len(re.findall("\r\n|\r|\n", head)) + 1
    for read in (parse_trace, parse_regions, parse_ground_truth,
                 parse_program):
        with pytest.raises(TraceParseError) as e:
            read(head + "X\n")
        assert e.value.line == line, read


def test_access_must_fit_address_space():
    with pytest.raises(TraceParseError, match="wraps"):
        parse_trace_line("I 0 0x0 st R:- W:- S:0xffffffffffffffff:2")


def test_render_parse_round_trip():
    text = (
        "I 3 0x400300 load R:1,2 W:7 L:0x10:8 C:sz=4\n"
        "I 9 0x400304 store R:7 W:- S:0x10:8 S:0x20:1\n"
    )
    insts = parse_trace(text)
    assert render_trace(insts) == text
    assert parse_trace(render_trace(insts)) == insts


def test_wire_round_trip():
    insts = parse_trace(
        "I 0 0x400000 add R:1 W:2\n"
        "I 4 0x400010 load R:- W:3 L:0x1000:8 C:sz=2\n"
    )
    for inst in insts:
        assert from_wire(to_wire(inst)) == inst


def _wire(**fields):
    return {"seq": 0, "addr": 0, "class": "a", **fields}


def _entry(**fields):
    return {"kind": "L", "addr": 16, "size": 8, **fields}


@pytest.mark.parametrize("obj,message", [
    ("nope", "must be an object"),
    ({"seq": "0", "addr": 0, "class": "a"}, "'seq' must be an integer"),
    ({"seq": -1, "addr": 0, "class": "a"}, "negative"),
    ({"seq": 0, "addr": -3, "class": "a"}, "out of range"),
    ({"seq": 0, "addr": 0, "class": ""}, "'class' must be a non-empty string"),
    ({"seq": 0, "addr": 0, "class": "a", "reads": [True]},
     "register True in instruction field 'reads' is not an integer"),
    ({"seq": 0, "addr": 0, "class": "a", "mem": [{"kind": "X"}]},
     "bad memory kind"),
    ({"seq": 0, "addr": 0, "class": "a", "ctx": ["k"]}, "pair of strings"),
    ({"seq": 0, "addr": 0, "class": "a", "mem": 5}, "'mem' must be a list"),
    ({"seq": 0, "addr": 0, "class": "a", "mem": None},
     "'mem' must be a list"),
    # Cases an exact-type fast path could get wrong, with full messages.
    ({"seq": True, "addr": 0, "class": "a"},
     "instruction field 'seq' must be an integer"),
    ({"seq": 0, "addr": True, "class": "a"},
     "instruction field 'addr' must be an integer"),
    (_wire(mem=[_entry(addr=True)]),
     "instruction field 'addr' must be an integer"),
    (_wire(mem=[_entry(addr=False)]),
     "instruction field 'addr' must be an integer"),
    (_wire(mem=[_entry(size=True)]),
     "instruction field 'size' must be an integer"),
    (_wire(mem=[_entry(size=False)]),
     "instruction field 'size' must be an integer"),
    (_wire(writes=[1, False]),
     "register False in instruction field 'writes' is not an integer"),
    (_wire(reads="1,2"),
     "instruction field 'reads' must be a list of integers"),
    (_wire(reads={"r": 1}),
     "instruction field 'reads' must be a list of integers"),
    (_wire(writes=7),
     "instruction field 'writes' must be a list of integers"),
    (_wire(mem=[5]), "memory entry must be an object"),
    (_wire(mem=[_entry(kind=["L"])]), "bad memory kind ['L']"),
    (_wire(mem=[_entry(size=0)]), "access size 0 must be >= 1"),
    (_wire(mem=[_entry(addr=(1 << 64) - 4, size=8)]),
     "access at 0xfffffffffffffffc size 8 wraps past 2^64"),
    ({"seq": 0, "addr": 0, "class": 5},
     "instruction field 'class' must be a non-empty string"),
    (_wire(ctx=["sz", 4]),
     "instruction field 'ctx' must be a pair of strings"),
    (_wire(ctx="ab"), "instruction field 'ctx' must be a pair of strings"),
    (_wire(ctx=["a", "b", "c"]),
     "instruction field 'ctx' must be a pair of strings"),
    (_wire(addr=1 << 64), "address 0x10000000000000000 out of range"),
    (_wire(**{"class": ["a"]}),
     "instruction field 'class' must be a non-empty string"),
    # Names and contexts no trace line can carry.  The last class renders
    # to the canonical text of a two-instruction trace, digest included.
    (_wire(**{"class": "a b"}),
     "instruction field 'class' may contain no whitespace and no '#'"),
    (_wire(**{"class": "a#b"}),
     "instruction field 'class' may contain no whitespace and no '#'"),
    (_wire(**{"class": "a\u2028b"}),
     "instruction field 'class' may contain no whitespace and no '#'"),
    (_wire(**{"class": "add R:- W:-\nI 1 0x4 add"}),
     "instruction field 'class' may contain no whitespace and no '#'"),
    (_wire(ctx=["", "x"]), "instruction field 'ctx' key must be non-empty, "
     "with no whitespace, no '#' and no '='"),
    (_wire(ctx=["a=b", "x"]), "instruction field 'ctx' key must be non-empty"),
    (_wire(ctx=["a b", "x"]), "instruction field 'ctx' key must be non-empty"),
    (_wire(ctx=["a#", "x"]), "instruction field 'ctx' key must be non-empty"),
    (_wire(ctx=["k", "x y"]),
     "instruction field 'ctx' value may contain no whitespace and no '#'"),
    (_wire(ctx=["k", "x#"]),
     "instruction field 'ctx' value may contain no whitespace and no '#'"),
    # A lone surrogate, as json.loads reads "\udcff": no UTF-8 encodes it.
    (_wire(**{"class": "add\udcff"}),
     "instruction field 'class' is not UTF-8"),
    (_wire(ctx=["k\ud800", "x"]), "instruction field 'ctx' is not UTF-8"),
    (_wire(ctx=["k", "\udfff"]), "instruction field 'ctx' is not UTF-8"),
    # A trace line has no sign for a register, so the wire refuses one.
    (_wire(reads=[-1]), "negative register -1 in instruction field 'reads'"),
    (_wire(writes=[3, -2, -7]),
     "negative register -7 in instruction field 'writes'"),
    (_wire(reads=[1], writes=[-1]),
     "negative register -1 in instruction field 'writes'"),
    # Numbers no trace line can carry: render_trace could not write them.
    ({"seq": 10 ** 5000, "addr": 0, "class": "a"},
     "instruction field 'seq' holds an integer past the interpreter's "
     "digit limit"),
    (_wire(reads=[10 ** 5000]), "instruction field 'reads' holds an "
     "integer past the interpreter's digit limit"),
    (_wire(reads=[1], writes=[2, 10 ** 5000, 3]), "instruction field "
     "'writes' holds an integer past the interpreter's digit limit"),
])
def test_from_wire_rejects(obj, message):
    with pytest.raises(ProtocolError, match=re.escape(message)):
        from_wire(obj)


def test_from_wire_takes_long_numbers_a_line_carries():
    # Over 640 digits, but within the digit limit.
    long = 10 ** 700
    inst = from_wire(_wire(seq=long, reads=[long], writes=[3, long]))
    assert (inst.seq_id, inst.reads, inst.writes) == (
        long, (long,), (3, long))
    assert parse_trace(render_trace([inst])) == [inst]


def test_from_wire_accepts_int_subclasses():
    class Reg(int):
        pass

    inst = from_wire(
        _wire(seq=Reg(3), reads=[Reg(1)], mem=[_entry(size=Reg(4))]))
    assert (inst.seq_id, inst.reads) == (3, (1,))
    assert inst.mem == (MemoryAccess(AccessKind.LOAD, 16, 4),)


class _Int(int):
    pass


_PAST_LIMIT = "holds an integer past the interpreter's digit limit"


# Each integer field of a wire object: how to set it, what it decodes
# to, the refusal of a bool, and of an integer past the digit limit.
# Decimal fields refuse it; an address is written in hex, so it is
# reported out of range.
@pytest.mark.parametrize("put, got, bool_message, long_message", [
    (lambda v: _wire(seq=v), lambda inst: inst.seq_id,
     "instruction field 'seq' must be an integer",
     re.escape(f"instruction field 'seq' {_PAST_LIMIT}")),
    (lambda v: _wire(addr=v), lambda inst: inst.address,
     "instruction field 'addr' must be an integer",
     "address -?0x[0-9a-f]+ out of range"),
    (lambda v: _wire(mem=[_entry(addr=v)]), lambda inst: inst.mem[0].address,
     "instruction field 'addr' must be an integer",
     "address -?0x[0-9a-f]+ out of range"),
    (lambda v: _wire(mem=[_entry(size=v)]), lambda inst: inst.mem[0].size,
     "instruction field 'size' must be an integer",
     re.escape(f"instruction field 'size' {_PAST_LIMIT}")),
    (lambda v: _wire(reads=[v]), lambda inst: inst.reads[0],
     "register True in instruction field 'reads' is not an integer",
     re.escape(f"instruction field 'reads' {_PAST_LIMIT}")),
    (lambda v: _wire(writes=[2, v]), lambda inst: inst.writes[1],
     "register True in instruction field 'writes' is not an integer",
     re.escape(f"instruction field 'writes' {_PAST_LIMIT}")),
], ids=["seq", "addr", "mem-addr", "mem-size", "reads", "writes"])
def test_from_wire_checks_each_integer_field(put, got, bool_message,
                                             long_message):
    with pytest.raises(ProtocolError, match=re.escape(bool_message)):
        from_wire(put(True))
    assert got(from_wire(put(_Int(4)))) == 4
    for long in (10 ** 5000, -10 ** 5000):
        with pytest.raises(ProtocolError, match=long_message):
            from_wire(put(long))


@pytest.mark.parametrize("reg", [True, 2.0], ids=["bool", "float"])
def test_wire_registers_are_checked_whatever_was_rendered_before(reg):
    # render_trace interns a class and its register lists by equality,
    # and (1,) == (True,) and (2,) == (2.0,).  The wire must refuse them
    # after (1,) and (2,) have rendered all the same.
    render_trace([TraceInstruction(0, 0, "a", (1,)),
                  TraceInstruction(1, 0, "a", (2,))])
    message = re.escape(
        f"register {reg!r} in instruction field 'reads' is not an integer")
    with pytest.raises(ProtocolError, match=message):
        from_wire(_wire(reads=[reg]))
    frame = json.dumps({"t": "insts", "batch": [_wire(reads=[reg])]})
    with pytest.raises(ProtocolError, match=message):
        SocketBroker._decode_frame(frame.encode() + b"\n", -1)


@pytest.mark.parametrize("field", ["reads", "writes"])
@pytest.mark.parametrize("reg", [True, 2.0], ids=["bool", "float"])
def test_rendered_registers_are_checked_whatever_was_rendered_before(field,
                                                                     reg):
    # (1,) == (True,) and (2,) == (2.0,), so they share an intern entry.
    def inst(seq, regs):
        return TraceInstruction(seq, 4 * seq, "a", **{field: regs})

    message = re.escape(
        f"register {reg!r} in instruction field '{field}' is not an integer")
    with pytest.raises(TraceParseError, match=f"^{message}$"):
        render_trace([inst(2, (reg,))])
    render_trace([inst(0, (int(reg),))])
    with pytest.raises(TraceParseError, match=f"^{message}$"):
        render_trace([inst(2, (reg,))])
    trace._MIDDLES.clear()
    with pytest.raises(TraceParseError, match=f"^{message}$"):
        render_trace([inst(0, (int(reg),)), inst(2, (reg,))])


_regs = st.lists(st.integers(-2, 63), max_size=3).map(tuple)
_accesses = st.builds(
    MemoryAccess,
    st.sampled_from(AccessKind),
    st.integers(0, (1 << 64) - 64),
    st.integers(1, 64),
)
_instructions = st.builds(
    TraceInstruction,
    st.integers(0, 1 << 40),
    st.integers(0, (1 << 64) - 1),
    st.sampled_from(["add", "load", "store", "x.y"]),
    _regs,
    _regs,
    st.lists(_accesses, max_size=3).map(tuple),
    st.none() | st.tuples(st.text(min_size=1, max_size=3), st.text()),
)


def _text_carries(inst):
    try:
        return parse_trace(render_trace([inst])) == [inst]
    except TraceParseError:
        return False


@given(_instructions)
def test_wire_round_trip_property(inst):
    # The wire takes exactly the instructions a trace line carries.
    if not _text_carries(inst):
        # The registers are checked before the context, in line order.
        no_context = TraceInstruction(inst.seq_id, inst.address,
                                      inst.class_name, inst.reads,
                                      inst.writes, inst.mem)
        cause = "'ctx'" if _text_carries(no_context) else "negative register"
        with pytest.raises(ProtocolError, match=cause):
            from_wire(to_wire(inst))
        return
    decoded = from_wire(json.loads(json.dumps(to_wire(inst))))
    assert decoded == inst
    assert from_wire(to_wire(inst)) == inst


# Near-valid wire objects: each has the JSON shape from_wire checks, and
# values on both sides of a trace line's rules.
_U64 = 1 << 64
_EDGE_INTS = [0, 1, -1, -4, _U64 - 8, _U64 - 1, _U64, _U64 + 1, -_U64,
              10 ** 5000, True, False, 1.0, 2.5, None, "1"]
_EDGE_CHARS = ["a", "Z", "0", "_", ".", "=", "#", " ", "\t", "\n", "\x1c",
               "\x85", "\xa0", "\u2028", "\u3000", "\ud800", "\udcff"]
_near_int = st.sampled_from(_EDGE_INTS) | st.integers(-2, 1 << 66)
_near_text = st.text(st.sampled_from(_EDGE_CHARS) | st.characters(),
                     max_size=3)
_near_objects = st.fixed_dictionaries({}, optional={
    "seq": _near_int,
    "addr": _near_int,
    "class": _near_text | st.sampled_from([None, 5, True, ["a"]]),
    "reads": st.lists(_near_int, max_size=3),
    "writes": st.lists(_near_int, max_size=3),
    "mem": st.lists(st.fixed_dictionaries(
        {"kind": st.sampled_from(["L", "S"])},
        optional={"addr": _near_int, "size": _near_int}), max_size=2),
    "ctx": st.none() | st.lists(_near_text, min_size=2, max_size=2),
})


def _instruction_of_fields(obj):
    """The instruction an object's fields hold, lists as tuples."""
    mem = tuple(MemoryAccess(AccessKind.LOAD if e["kind"] == "L"
                             else AccessKind.STORE, e.get("addr"),
                             e.get("size")) for e in obj.get("mem", []))
    ctx = obj.get("ctx")
    return TraceInstruction(obj.get("seq"), obj.get("addr"), obj.get("class"),
                            tuple(obj.get("reads", [])),
                            tuple(obj.get("writes", [])), mem,
                            None if ctx is None else tuple(ctx))


def _one_field_off():
    """Valid wire objects with one value replaced by an edge value, so
    that each edge reaches render_trace's fast path, which takes only
    an instruction whose every other field is valid."""
    valid = {"seq": 7, "addr": 64, "class": "add", "reads": [1],
             "writes": [2], "mem": [{"kind": "L", "addr": 16, "size": 8}],
             "ctx": ["k", "v"]}
    for v in _EDGE_INTS:
        yield from ({**valid, "seq": v}, {**valid, "addr": v},
                    {**valid, "reads": [v]}, {**valid, "writes": [2, v]},
                    {**valid, "mem": [{"kind": "S", "addr": v, "size": 8}]},
                    {**valid, "mem": [{"kind": "L", "addr": 16, "size": v}]})
    for c in ["", *_EDGE_CHARS]:
        yield from ({**valid, "class": f"a{c}"}, {**valid, "class": c},
                    {**valid, "ctx": [c, "v"]}, {**valid, "ctx": ["k", c]})


def _check_from_wire_against_render_trace(obj):
    """from_wire takes obj exactly when render_trace takes its instruction,
    and refuses it with render_trace's message."""
    inst = _instruction_of_fields(obj)
    try:
        text = render_trace([inst])
    except TraceParseError as e:
        with pytest.raises(ProtocolError, match=f"^{re.escape(str(e))}$"):
            from_wire(obj)
        return
    assert text == trace._line(inst) + "\n"
    assert from_wire(obj) == inst
    assert parse_trace(text) == [inst]


@given(_near_objects)
def test_from_wire_takes_exactly_the_objects_whose_instruction_renders(obj):
    _check_from_wire_against_render_trace(obj)


def test_from_wire_takes_exactly_the_instructions_one_field_off_renders():
    for obj in _one_field_off():
        _check_from_wire_against_render_trace(obj)


# -- canonical wire frames ------------------------------------------------------
#
# SocketBroker reads a frame spelled as stream_to_socket writes it in one
# certified pass (brokers._read_canonical) and hands any other frame to
# json.loads and from_wire.  The frames below are spelled that way or
# perturbed; the broker must receive them exactly as it does with the
# fast path switched off.

# Strings a canonical frame carries as they are, and any strings.
_PLAIN = st.characters(min_codepoint=0x21, max_codepoint=0x7e,
                       blacklist_characters='"#\\')
_PLAIN_KEY = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7e,
                                   blacklist_characters='"#=\\'),
                     min_size=1, max_size=3)
_ANY_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e)
                    | st.characters(), max_size=3)


def _wire_instructions(plain):
    """Instructions (sequence id 0) whose strings are all plain, or any."""
    name = st.text(_PLAIN, min_size=1, max_size=3)
    key, value = _PLAIN_KEY, st.text(_PLAIN, max_size=3)
    regs = st.lists(st.integers(0, 300), max_size=3).map(tuple)
    if not plain:
        name, key, value, regs = _ANY_TEXT, _ANY_TEXT, _ANY_TEXT, _regs
    return st.builds(
        TraceInstruction,
        st.just(0),
        st.sampled_from([0, 4, (1 << 64) - 1])
        | st.integers(0, (1 << 64) - 1),
        name,
        regs,
        regs,
        st.lists(_accesses, max_size=3).map(tuple),
        st.none() | st.tuples(key, value),
    )


def _dumps(objs, **kwargs):
    return (json.dumps({"t": "insts", "batch": objs}, **kwargs)
            + "\n").encode()


def _respell(old, new):
    """Spell the chosen object's first old as new."""
    def spell(objs, i):
        line = _dumps(objs[:i] + [{}] + objs[i + 1:])
        obj = json.dumps(objs[i]).encode().replace(old, new, 1)
        return line.replace(b"{}", obj, 1)
    return spell


def _set(key, value):
    """Set a field of the chosen object."""
    def spell(objs, i):
        objs[i][key] = value
        return _dumps(objs)
    return spell


def _set_access(**fields):
    return _set("mem", [{"kind": "L", "addr": 0, "size": 8, **fields}])


def _spell_number(key, digits):
    def spell(objs, i):
        objs[i][key] = 7
        return _respell(f'"{key}": 7'.encode(), digits.encode())(objs, i)
    return spell


def _spell_register(digits):
    def spell(objs, i):
        objs[i]["reads"] = [7]
        return _respell(b'"reads": [7]', b'"reads": [%s]' % digits)(objs, i)
    return spell


_LONG = "1" * 5000
_SPELLINGS = {
    "canonical": lambda objs, i: _dumps(objs),
    "compact": lambda objs, i: _dumps(objs, separators=(",", ":")),
    "reordered": lambda objs, i: _dumps([dict(reversed(o.items()))
                                         for o in objs]),
    "raw-utf8": lambda objs, i: _dumps(objs, ensure_ascii=False),
    "trailing-space": lambda objs, i: _dumps(objs)[:-1] + b" \n",
    "escaped": _respell(b'"class": "', b'"class": "\\u0061'),
    "not-utf8": _respell(b'"class": "', b'"class": "\xff'),
    "unknown-key": _set("x", 1),
    "mem-null": _set("mem", None),
    "mem-empty": _set("mem", []),
    "ctx-null": _set("ctx", None),
    "float": _set("addr", 4.0),
    "true": _set("seq", True),
    "negative": _set("addr", -4),
    "negative-register": _set("writes", [-1]),
    "addr-2^64": _set("addr", 1 << 64),
    "size-0": _set_access(size=0),
    "past-2^64": _set_access(addr=(1 << 64) - 4),
    "long-seq": _spell_number("seq", _LONG),
    "long-addr": _spell_number("addr", _LONG),
    "long-register": _spell_register(_LONG.encode()),
    "leading-zero": _spell_number("seq", "07"),
}


@st.composite
def _frames(draw):
    """Frames of instructions, each with its spelling's name.

    A spelling changes one object of its frame.  Sequence ids mostly
    step by 1, but some do not increase, within a frame or from one
    frame to the next.
    """
    frames = []
    seq = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(1, 3))):
        insts = draw(st.lists(_wire_instructions(draw(st.booleans())),
                              min_size=1, max_size=4))
        objs = []
        for inst in insts:
            objs.append(to_wire(TraceInstruction(
                seq, inst.address, inst.class_name, inst.reads, inst.writes,
                inst.mem, inst.context)))
            seq += draw(st.sampled_from([1] * 8 + [2, 0]))
        name = draw(st.sampled_from(["canonical"] * 8 + list(_SPELLINGS)))
        i = draw(st.integers(0, len(objs) - 1))
        frames.append((name, _SPELLINGS[name](objs, i)))
    return frames


def _received(lines, max_n, fast):
    """A SocketBroker's batches for the frame lines, up to its end batch
    or its ProtocolError, whose message comes second."""
    producer, consumer = socket.socketpair()
    producer.sendall(b'{"t": "hello", "version": 1}\n' + b"".join(lines)
                     + b'{"t": "end"}\n')
    producer.shutdown(socket.SHUT_WR)
    off = mock.patch.object(brokers, "_read_canonical",
                            lambda line: None)
    batches = []
    with producer, contextlib.nullcontext() if fast else off:
        broker = SocketBroker(consumer)
        try:
            while not batches or not batches[-1].end_of_stream:
                batches.append(broker.fetch_batch(max_n))
        except ProtocolError as e:
            return batches, str(e)
        finally:
            broker.close()
    return batches, None


def _check_received(frames, max_n):
    """The broker receives frames as it does with the fast path off."""
    lines = [line for _, line in frames]
    batches, error = _received(lines, max_n, fast=True)
    expect_batches, expect_error = _received(lines, max_n, fast=False)
    assert error == expect_error
    assert [(b.instructions, b.end_of_stream) for b in batches] == [
        (b.instructions, b.end_of_stream) for b in expect_batches]
    for batch in batches:
        if batch.text is not None:
            assert batch.text == render_trace(batch.instructions)
    if error is None:
        # Every 'insts' frame's batch carries its text, so only the fast
        # path itself tells whether it took a frame.  One spelled
        # canonically, with no escape, it must take.
        for name, line in frames:
            if name == "canonical" and b"\\" not in line:
                assert brokers._read_canonical(line) is not None, line
    return batches, error


@settings(max_examples=300, deadline=None)
@given(_frames(), st.sampled_from([1, 3, 256]))
def test_canonical_frames_decode_as_json_and_from_wire(frames, max_n):
    _check_received(frames, max_n)


def _plain_frame(first_seq):
    return [to_wire(inst) for inst in (
        TraceInstruction(first_seq, 0x400000, "ld", (1, 2), (3,),
                         (MemoryAccess(AccessKind.LOAD, 0x1000, 8),
                          MemoryAccess(AccessKind.STORE, 0x2000, 4))),
        TraceInstruction(first_seq + 1, 0x400004, "add", (), (4,),
                         context=("sz", "8")),
        TraceInstruction(first_seq + 2, 0x400008, "nop"),
    )]


@pytest.mark.parametrize("i", [0, 1, 2])
@pytest.mark.parametrize("name", list(_SPELLINGS))
def test_each_spelling_decodes_as_json_and_from_wire(name, i):
    # Each spelling of one object of a frame between two canonical ones.
    frames = [("canonical", _dumps(_plain_frame(0))),
              (name, _SPELLINGS[name](_plain_frame(3), i)),
              ("canonical", _dumps(_plain_frame(6)))]
    batches, error = _check_received(frames, 256)
    if name == "canonical":
        assert error is None
    # Every 'insts' frame's batch carries its text, however spelled.
    assert all(b.text is not None for b in batches if b.instructions)


def test_a_respelled_frame_batch_carries_its_rendered_text():
    line = _dumps(_plain_frame(3), separators=(",", ":"))
    assert brokers._read_canonical(line) is None
    batch = SocketBroker._decode_frame(line, 2)
    assert batch.text == render_trace(batch.instructions)
    assert len(batch.instructions) == 3


@pytest.mark.parametrize("seqs", [(5, 6, 7), (0, 6, 7), (6, 7, 7),
                                  (6, 8, 7)])
def test_canonical_frames_keep_sequence_ids_increasing(seqs):
    # The first frame ends at sequence id 5.
    first = _plain_frame(3)
    second = [dict(obj, seq=seq) for obj, seq in zip(_plain_frame(0), seqs)]
    frames = [("canonical", _dumps(first)), ("canonical", _dumps(second))]
    batches, error = _check_received(frames, 256)
    assert error.startswith("sequence id ")
    # The fast path takes both frames; the broker refuses the second.
    assert all(brokers._read_canonical(line) is not None
               for _, line in frames)


def test_canonical_frame_strings_are_what_a_line_carries():
    # Each printable character the fast path takes in a string is one
    # json.dumps writes unescaped and the trace line's pattern takes.
    is_class, is_ctx_key = trace._IS_CLASS, trace._IS_CTX_KEY
    for c in map(chr, range(0x20, 0x7f)):
        name = "a" + c
        plain = json.dumps(name) == f'"{name}"'
        obj = to_wire(TraceInstruction(0, 0, name, (), (), (), ("k", c)))
        line = _dumps([obj])
        batch = brokers._read_canonical(line)
        carried = plain and bool(is_class(name))
        assert (batch is not None) == carried, c
        key = to_wire(TraceInstruction(0, 0, "a", (), (), (), (name, "")))
        carried = plain and bool(is_ctx_key(name))
        assert (brokers._read_canonical(_dumps([key]))
                is not None) == carried, c


def test_wire_register_list_table_stays_bounded():
    bound = trace._INTERN_BOUND
    objs = [to_wire(TraceInstruction(i, 4 * i, "add", (i,), (i, 7)))
            for i in range(bound + 10)]
    batch = brokers._read_canonical(_dumps(objs))
    assert len(brokers._WIRE_REG_LISTS) <= bound
    assert batch.instructions == tuple(map(from_wire, objs))
    assert batch.text == render_trace(batch.instructions)


def test_render_uses_hex_addresses():
    inst = parse_trace_line("I 0 4194304 nop R:- W:-")
    assert render_instruction(inst).split()[2] == "0x400000"


# -- canonical lines ------------------------------------------------------------

def read_chunk(line):
    """The chunk reader's instructions and text for line as a one-line
    chunk, the trace's fifth line; the text is line itself when the
    reader reads it as canonical."""
    return trace._read_chunk(line, 4, -1)


def is_canonical(line):
    try:
        return read_chunk(line)[1] == line
    except TraceParseError:
        return False


def parse_each_line(text):
    """parse_trace_line's instructions for each line of text, numbered as
    read_chunk numbers them."""
    insts = []
    for lineno, raw in enumerate(io.StringIO(text, newline="\n"), 5):
        inst = parse_trace_line(raw, lineno)
        if inst is not None:
            insts.append(inst)
    return insts


@given(gen.instructions)
def test_rendered_lines_are_canonical(inst):
    line = render_instruction(inst) + "\n"
    assert read_chunk(line) == ([inst], line)
    assert parse_trace_line(line) == inst


@given(st.from_regex(trace._CANONICAL_LINE, fullmatch=True))
def test_every_canonical_line_renders_back_to_itself(line):
    try:
        inst = parse_trace_line(line)
    except TraceParseError:
        return  # out of range: the parser refuses it before any digest
    assert render_instruction(inst) + "\n" == line


@pytest.mark.parametrize("line", [
    "I 03 0x40 add R:1 W:2\n",
    "I 3 0X40 add R:1 W:2\n",
    "I 3 0x4A add R:1 W:2\n",
    "I 3 0x040 add R:1 W:2\n",
    "I 3 64 add R:1 W:2\n",
    "I 3 0x40 add R:r1 W:2\n",
    "I 3 0x40 add R:01 W:2\n",
    "I 3 0x40 add R:\u0661 W:2\n",
    "I 3  0x40 add R:1 W:2\n",
    "I 3\t0x40 add R:1 W:2\n",
    "I 3 0x40 add R:1 W:2 \n",
    " I 3 0x40 add R:1 W:2\n",
    "I 3 0x40 add R:1 W:2 # c\n",
    "I 3 0x40 add R:1 W:2 C:k=v#c\n",
    "\n",
    "# c\n",
    "I 3 0x40 ld R:1 W:2 C:sz=8 L:0x10:8\n",
    "I 3 0x40 ld R:1 W:2 L:0x10:08\n",
    "I 3 0x40 ld R:1 W:2 L:0x10:0\n",
    "I 3 0x40 add R: W:2\n",
    "I 3 0x40 add R:1 W:2",
    "I 3 0x40 add R:1 W:2\r\n",
    # A canonical middle with a context that is not.
    "I 3 0x40 add R:1 W:2 C:=v\n",
    "I 3 0x40 add R:1 W:2 C:k\n",
    "I 3 0x40 ld R:1 W:2 L:0x10:8 C:k=v#c\n",
    # A middle that is not canonical with canonical accesses.
    "I 3 0x40 ld R:01 W:2 L:0x10:8\n",
    "I 3 0x40 ld R:01 W:2 L:0x10:8 S:0x20:4 C:k=v\n",
    # str.split() splits at U+0085, which a class may not hold.
    "I 3 0x40 a\x85 R:1 W:2\n",
    "I 3 0x40 a\x85b R:1 W:2\n",
    # The second line's middle is served from the table.
    "I 3 0x40 add R:01 W:2\nI 4 0x44 add R:01 W:2\n",
    # A context that is not canonical, twice.
    "I 3 0x40 add R:1 W:2 C:k\nI 4 0x44 add R:1 W:2 C:k\n",
])
def test_near_miss_spellings_are_not_canonical(line):
    assert not is_canonical(line)
    assert (read_or_error(lambda text: read_chunk(text)[0], line)
            == read_or_error(parse_each_line, line))


def read_or_error(read, line):
    try:
        return read(line)
    except TraceParseError as e:
        return str(e), e.line


@given(st.from_regex(trace._CANONICAL_LINE, fullmatch=True))
def test_matched_canonical_lines_parse_as_the_general_path_does(line):
    assert (read_or_error(lambda line: read_chunk(line)[0][0], line)
            == read_or_error(lambda line: parse_trace_line(line, 5), line))


# Characters a mutation puts into a field: separators of the format,
# digits, hex letters, whitespace a line may hold, and non-ASCII digits.
_MUTANTS = ["0", "1", "7", "a", "F", "x", "X", "-", "+", "_", ",", ":", "=",
            "#", " ", "\t", "\r", "\x85", "\u2028", "\u0661", "I", "R",
            "W", "L", "S", "C"]


def _one_field_mutants(line, char):
    """line with one field changed, in each way: char put in at either
    end or the middle, or in place of an end character; an end character
    taken out; or the field swapped with the next one."""
    fields = line[:-1].split(" ")
    for i, field in enumerate(fields):
        mid = len(field) // 2
        for changed in (char + field, field[:mid] + char + field[mid:],
                        field + char, char + field[1:], field[:-1] + char,
                        field[1:], field[:-1]):
            yield " ".join([*fields[:i], changed, *fields[i + 1:]]) + "\n"
        if i + 1 < len(fields):
            yield " ".join([*fields[:i], fields[i + 1], field,
                            *fields[i + 2:]]) + "\n"


@given(st.from_regex(trace._CANONICAL_LINE, fullmatch=True),
       st.sampled_from(_MUTANTS))
def test_the_reader_keeps_a_line_as_read_exactly_when_it_is_canonical(
        line, char):
    for mutant in (line, *_one_field_mutants(line, char)):
        try:
            insts, text = read_chunk(mutant)
        except TraceParseError as e:
            assert read_or_error(parse_each_line, mutant) == (str(e), e.line)
            continue
        assert insts == parse_each_line(mutant)
        assert (text == mutant) == bool(
            re.fullmatch(trace._CANONICAL_LINE, mutant))


def test_line_tables_stay_bounded():
    # Each line brings a new middle and access text.
    lines = [f"I {i} 0x0 c{i} R:{i} W:- L:{8 * i:#x}:8 C:k={i}\n"
             for i in range(20_000)]
    first = read_chunk(lines[0])
    reader = trace.ChunkReader()
    tables = (trace._LINE_MIDDLES, trace._LINE_ACCESSES)
    for at in range(0, len(lines), 100):
        chunk = lines[at:at + 100]
        text = "".join(chunk)
        assert reader.read(text, len(chunk)) == (
            parse_each_line(text), text)
        for table in tables:
            assert len(table) <= table.bound
    assert trace._LINE_ACCESSES.bound == 256
    # Each table was cleared since the first line was read.
    for table, key in zip(tables, (" c0 R:0 W:-", " L:0x0:8")):
        assert key not in table
    assert read_chunk(lines[0]) == first


@given(gen.instructions)
def test_matched_rendered_lines_parse_as_the_general_path_does(inst):
    line = render_instruction(inst) + "\n"
    assert read_chunk(line)[0] == [parse_trace_line(line, 5)] == [inst]


@pytest.mark.parametrize("line,message", [
    ("I 0 0x10000000000000000 nop R:- W:-\n", "address 0x1"),
    ("I 0 0x0 ld R:- W:- L:0xfffffffffffffff8:9\n", r"wraps past 2\^64"),
    ("I 0 0x0 ld R:- W:- L:0x10000000000000000:1\n", "out of range"),
    ("I 0 0x0 ld R:- W:- L:0x10:8 S:0xffffffffffffffff:2\n", "wraps"),
    ("I " + "1" * 5000 + " 0x0 nop R:- W:-\n", "bad sequence id"),
    ("I 0 0x0 ld R:- W:- L:0x10:" + "1" * 5000 + "\n", "bad memory size"),
    ("I 0 0x0 nop R:" + "1" * 5000 + " W:-\n", "bad register token"),
], ids=["address", "wrap", "access-address", "second-access", "long-seq",
        "long-size", "long-register"])
def test_out_of_range_canonical_lines_raise_as_the_general_path_does(
        line, message):
    with pytest.raises(TraceParseError, match=message) as matched:
        read_chunk(line)
    with pytest.raises(TraceParseError) as general:
        parse_trace_line(line, 5)
    assert (str(matched.value), matched.value.line) == (
        str(general.value), general.value.line)
    assert matched.value.line == 5


def test_render_table_stays_bounded():
    bound = trace._INTERN_BOUND
    insts = [TraceInstruction(i, 4 * i, f"c{i}", (i,), (i, 7), (),
                              ("k", f"{i}"))
             for i in range(bound + 10)]
    expect = "".join(f"I {i} {4 * i:#x} c{i} R:{i} W:{i},7 C:k={i}\n"
                     for i in range(bound + 10))
    assert render_trace(insts) == expect
    for table in (trace._MIDDLES, trace._CONTEXT_TEXT):
        assert len(table) <= bound
    assert render_trace(insts) == expect
    assert render_instruction(insts[-1]) == expect.splitlines()[-1]


@pytest.mark.parametrize("line,message", [
    ("I \u0661 0x0 add R:\u0661,\u0663 W:-", "bad sequence id '\u0661'"),
    ("I 1 0x\u0661 add R:- W:-", "bad address"),
    ("I 1 0x0 add R:\u0661,\u0663 W:-", "bad register token '\u0661'"),
    ("I 1 0x0 add R:r\u0661 W:-", "bad register token 'r\u0661'"),
    ("I 1 0x0 add R:\u00b2 W:-", "bad register token"),
    ("I 1 0x0 ld R:- W:- L:0x10:\uff18", "bad memory size"),
], ids=["seq", "address", "register", "prefixed-register", "superscript",
        "fullwidth-size"])
def test_non_ascii_digits_are_refused(line, message):
    with pytest.raises(TraceParseError, match=f"line 3: {message}"):
        parse_trace_line(line, 3)


def test_read_int_refuses_non_ascii_digits():
    with pytest.raises(ValueError):
        trace.read_int("\u0661\u0662")


def test_memory_access_is_an_immutable_value():
    a = MemoryAccess(AccessKind.LOAD, 0x10, 8)
    assert a == MemoryAccess(AccessKind.LOAD, 0x10, 8)
    assert a != MemoryAccess(AccessKind.STORE, 0x10, 8)
    assert len({a, MemoryAccess(AccessKind.LOAD, 0x10, 8)}) == 1
    assert repr(a) == (
        "MemoryAccess(kind=<AccessKind.LOAD: 'load'>, address=16, size=8)")
    with pytest.raises(AttributeError):
        a.size = 4


def test_trace_instruction_is_a_mutable_record():
    inst = TraceInstruction(3, 0x10, "add", (1,), (2,))
    fields = (3, 0x10, "add", (1,), (2,), (), None)
    assert inst == TraceInstruction(*fields)
    assert inst != TraceInstruction(4, 0x10, "add", (1,), (2,))
    assert inst != fields
    assert TraceInstruction(0, 0, "nop") == TraceInstruction(
        seq_id=0, address=0, class_name="nop", reads=(), writes=(), mem=(),
        context=None)
    with pytest.raises(TypeError):
        hash(inst)
    assert repr(inst) == (
        "TraceInstruction(seq_id=3, address=16, class_name='add', "
        "reads=(1,), writes=(2,), mem=(), context=None)")
    inst.seq_id = 4
    inst.context = ("k", "v")
    assert (inst.seq_id, inst.context) == (4, ("k", "v"))
    with pytest.raises(AttributeError):
        inst.extra = 1
