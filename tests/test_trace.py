"""Trace text parsing, rendering, and the JSON wire encoding."""

import pytest

from cycletrace import trace
from cycletrace import (
    AccessKind,
    MemoryAccess,
    ProtocolError,
    TraceParseError,
    from_wire,
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
    bound = trace._REG_LISTS_MAX
    parse_trace("".join(
        f"I {i} 0x0 add R:{i} W:-\n" for i in range(bound + 10)
    ))
    assert len(trace._REG_LISTS) <= bound
    late = parse_trace_line(f"I 0 0x0 add R:{bound + 5},7 W:x9", 1)
    assert late.reads == (bound + 5, 7)
    assert late.writes == (9,)


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
    ("I 0 0x0 nop R:- W:- C:=x", "bad context token"),
    ("I 0 0x0 nop R:- W:- C:a=1 C:b=2", "multiple context"),
    ("I 0 0x0 nop R:- W:- whatever", "unrecognized token"),
])
def test_parse_rejects(line, message):
    with pytest.raises(TraceParseError, match=message):
        parse_trace_line(line, 3)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(TraceParseError, match="line 3:"):
        parse_trace("I 0 0x0 nop R:- W:-\n\nJ bad\n")


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


def test_wire_stringifies_context_value():
    inst = parse_trace_line("I 0 0x0 a R:- W:-")
    inst.context = ("sz", 4)
    assert to_wire(inst)["ctx"] == ["sz", "4"]


@pytest.mark.parametrize("obj,message", [
    ("nope", "must be an object"),
    ({"seq": "0", "addr": 0, "class": "a"}, "'seq' must be an integer"),
    ({"seq": -1, "addr": 0, "class": "a"}, "negative"),
    ({"seq": 0, "addr": -3, "class": "a"}, "out of range"),
    ({"seq": 0, "addr": 0, "class": ""}, "'class' must be a string"),
    ({"seq": 0, "addr": 0, "class": "a", "reads": [True]}, "list of integers"),
    ({"seq": 0, "addr": 0, "class": "a", "mem": [{"kind": "X"}]},
     "bad memory kind"),
    ({"seq": 0, "addr": 0, "class": "a", "ctx": ["k"]}, "pair of strings"),
    ({"seq": 0, "addr": 0, "class": "a", "mem": 5}, "'mem' must be a list"),
    ({"seq": 0, "addr": 0, "class": "a", "mem": None},
     "'mem' must be a list"),
])
def test_from_wire_rejects(obj, message):
    with pytest.raises(ProtocolError, match=message):
        from_wire(obj)


def test_render_uses_hex_addresses():
    inst = parse_trace_line("I 0 4194304 nop R:- W:-")
    assert render_instruction(inst).split()[2] == "0x400000"
