"""Toy assembly language: parsing and execution semantics."""

import pytest

from cycletrace import (
    AccessKind,
    ProgramError,
    TraceParseError,
    TruncatedTraceError,
    execute,
    parse_program,
)

U64 = 1 << 64


def run(text, **kw):
    return list(execute(parse_program(text), **kw))


# -- parsing ------------------------------------------------------------------

def test_parse_full_program():
    prog = parse_program(
        """
        .map mul vmul      # rename for the model
        .entry start
        start:
            const r1, 10
        top:
            mul r2, r1, r1
            ble r2, r1, top
            halt
        """
    )
    assert len(prog.instructions) == 4
    assert prog.entry == 0
    assert prog.labels == {"start": 0, "top": 1}
    assert prog.class_map == {"mul": "vmul"}
    # instruction addresses are 4 apart, starting at the image base
    assert prog.address_of(0) == 0x400000
    assert prog.address_of(3) == 0x40000C
    assert prog.label_address("top") == 0x400004


@pytest.mark.parametrize("imm,value", [
    ("007", 7), ("-010", -10), ("0x10", 16), ("1_000", 1000),
])
def test_immediates_read_numbers_as_the_trace_does(imm, value):
    prog = parse_program(f"const r1, {imm}\nhalt\n")
    assert prog.instructions[0].imm == value


@pytest.mark.parametrize("text,match", [
    ("const r1, \u0661\nhalt\n", "line 1: bad immediate '\u0661'"),
    ("const r1, 0x\u0661\nhalt\n", "line 1: bad immediate"),
    ("const r\u0661, 5\nhalt\n", "line 1: expected register"),
    ("const r\u00b2, 5\nhalt\n", "line 1: expected register"),
], ids=["immediate", "hex-immediate", "register", "superscript-register"])
def test_non_ascii_digits_are_refused(text, match):
    with pytest.raises(TraceParseError, match=match):
        parse_program(text)


def test_entry_defaults_to_first_instruction():
    prog = parse_program("add r1, r0, r0\nhalt\n")
    assert prog.entry == 0


def test_two_labels_may_share_an_instruction():
    prog = parse_program("a: b: halt\n")
    assert prog.labels == {"a": 0, "b": 0}


def test_comments_and_blanks_are_skipped():
    prog = parse_program("# header\n\n   \nhalt  # done\n")
    assert len(prog.instructions) == 1


@pytest.mark.parametrize("text,match", [
    (".map add", r"\.map takes"),
    (".map bogus cls", "unknown opcode 'bogus'"),
    (".entry", r"\.entry takes"),
    (".section foo", "unknown directive"),
    ("addx r1, r2, r3", "unknown opcode 'addx'"),
    ("ble", "needs a target label"),
    ("jump", "needs a target label"),
    ("jump nowhere\nhalt", "undefined label 'nowhere'"),
    ("const r1", "takes 2 operand"),
    ("add r1, r2", "takes 3 operand"),
    ("const rx, 5", "expected register"),
    ("const r32, 5", "out of range"),
    ("const r1, zebra", "bad immediate"),
    ("setctx novalue", "key=value"),
    ("setctx =v", "key=value"),
    ("x: halt\nx: halt", "duplicate label 'x'"),
    (": halt", "bad label"),
    ("", "no instructions"),
    ("# only comments\n", "no instructions"),
    (".entry nowhere\nhalt", "undefined entry label"),
    ("halt\nend:", "points past the program"),
])
def test_parse_rejects(text, match):
    with pytest.raises(TraceParseError, match=match):
        parse_program(text)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(TraceParseError, match="line 3"):
        parse_program("halt\n# fine\nconst r99, 1\n")


def test_branch_target_may_be_defined_later():
    prog = parse_program("jump end\nadd r1, r0, r0\nend: halt\n")
    assert prog.instructions[0].target == 2


# -- execution: arithmetic ----------------------------------------------------

def assert_reg(setup, reg, expected):
    """Run setup, then prove reg == expected with two opposing branches.

    cmp leaves reg - expected; the program halts at 'eq' only when both
    ble directions hold, i.e. the difference is exactly zero.
    """
    text = (
        f"{setup}\n"
        f"const r30, {expected}\n"
        f"cmp r31, {reg}, r30\n"
        "ble r31, r0, ge\n"
        "halt\n"
        "ge: ble r0, r31, eq\n"
        "halt\n"
        "eq: halt\n"
    )
    prog = parse_program(text)
    trace = list(execute(prog))
    assert trace[-1].address == prog.label_address("eq"), (
        f"{reg} != {expected} after:\n{setup}"
    )


def test_add_wraps_at_64_bits():
    assert_reg("const r1, -1\nadd r8, r1, r1", "r8", -2)


def test_mul_wraps_at_64_bits():
    assert_reg(
        f"const r1, {1 << 63}\nconst r2, 2\nmul r8, r1, r2", "r8", 0
    )


def test_mul_computes_products():
    assert_reg("const r1, 6\nconst r2, 7\nmul r8, r1, r2", "r8", 42)


def test_cmp_is_wrapping_subtraction():
    assert_reg("const r1, 1\nconst r2, 2\ncmp r8, r1, r2", "r8", -1)


def test_ble_compares_signed():
    trace = run(
        """
        const r1, -1
        ble r1, r0, neg    # signed -1 <= 0: taken
        halt
        neg: halt
        """
    )
    assert trace[-1].address == 0x400000 + 4 * 3


def test_ble_not_taken_when_strictly_greater():
    trace = run(
        """
        const r1, 5
        ble r1, r0, low
        halt
        low: halt
        """
    )
    assert trace[-1].address == 0x400000 + 4 * 2


def test_jump_transfers_control():
    trace = run("jump end\nadd r1, r0, r0\nend: halt\n")
    assert [t.address for t in trace] == [0x400000, 0x400008]


# -- execution: memory --------------------------------------------------------

def test_store_load_round_trip_and_access_metadata():
    trace = run(
        """
        const r1, 0x1234
        const r9, 0x3000
        store r1, r9
        load r2, r9
        halt
        """
    )
    st, ld = trace[2], trace[3]
    assert st.mem[0].kind is AccessKind.STORE
    assert st.mem[0].address == 0x3000
    assert st.mem[0].size == 8
    assert st.reads == (1, 9)
    assert st.writes == ()
    assert ld.mem[0].kind is AccessKind.LOAD
    assert ld.reads == (9,)
    assert ld.writes == (2,)


def test_memory_round_trips_values():
    assert_reg(
        """
        const r1, 0xDEADBEEFCAFEF00D
        const r9, 0x3000
        store r1, r9
        load r8, r9
        """,
        "r8", 0xDEADBEEFCAFEF00D,
    )


def test_memory_is_little_endian():
    # store at A, reload at A+1: low byte falls off, top byte reads as zero
    assert_reg(
        """
        const r1, 0x0102030405060708
        const r9, 0x3000
        const r2, 0x3001
        store r1, r9
        load r8, r2
        """,
        "r8", 0x0001020304050607,
    )


def test_unwritten_memory_reads_zero():
    assert_reg("const r9, 0x5000\nload r8, r9", "r8", 0)


@pytest.mark.parametrize("op", ["load r1, r9", "store r1, r9"])
def test_access_may_not_wrap_the_address_space(op):
    with pytest.raises(ProgramError, match="wraps past the address space"):
        run(f"const r9, -4\n{op}\nhalt\n")


def test_falling_off_the_program_is_an_error():
    with pytest.raises(ProgramError, match="ran past the program"):
        run("add r1, r0, r0\n")


# -- execution: trace shape ---------------------------------------------------

def test_seq_ids_count_executed_instructions():
    trace = run(
        """
        const r1, 3
        const r2, 1
        loop:
            cmp r1, r1, r2
            ble r0, r1, loop
        halt
        """
    )
    # 4 loop trips (r1: 3, 2, 1, 0), then the fall-through halt
    assert len(trace) == 2 + 4 * 2 + 1
    assert [t.seq_id for t in trace] == list(range(len(trace)))


def test_loop_revisits_the_same_address():
    trace = run(
        """
        const r1, 2
        const r2, 1
        loop:
            cmp r1, r1, r2
            ble r2, r1, loop
        halt
        """
    )
    body = [t.address for t in trace if t.address == 0x400008]
    assert len(body) == 2  # cmp executed twice


def test_class_map_renames_trace_classes():
    trace = run(".map add alu\nadd r1, r0, r0\nhalt\n")
    assert trace[0].class_name == "alu"
    assert trace[1].class_name == "halt"


def test_setctx_applies_to_subsequent_instructions_only():
    trace = run(
        """
        add r1, r0, r0
        setctx width=4
        add r2, r0, r0
        setctx width=8
        add r3, r0, r0
        halt
        """
    )
    assert trace[0].context is None
    assert trace[1].context is None        # the setctx row itself
    assert trace[2].context == ("width", "4")
    assert trace[3].context == ("width", "4")
    assert trace[4].context == ("width", "8")
    assert trace[5].context == ("width", "8")


def test_step_budget_raises_with_partial_trace():
    partial = []
    with pytest.raises(TruncatedTraceError):
        for inst in execute(parse_program("loop: jump loop\n"), max_steps=10):
            partial.append(inst)
    assert len(partial) == 10
    assert all(t.class_name == "jump" for t in partial)
    assert [t.seq_id for t in partial] == list(range(10))


def test_execution_is_deterministic():
    text = """
        const r1, 9
        const r2, 1
        const r9, 0x8000
        loop:
            store r1, r9
            load r3, r9
            cmp r1, r1, r2
            ble r2, r1, loop
        halt
    """
    assert run(text) == run(text)
