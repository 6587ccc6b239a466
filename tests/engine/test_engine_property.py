"""Property-based dispatch parity: random programs, both engines.

Hypothesis generates small programs over the fusable instruction mix —
straight-line ALU/memory runs, hardware loops (zero-trip, single-
instruction bodies, nested lp0/lp1), forward branches, and mid-body
``ebreak`` — and asserts the block engine retires them bit- and
cycle-identically to the interpreter.  The generator deliberately
includes instructions the fuser declines (``mul``, misaligned and
register-offset accesses) so side exits and partial-block flushes get
the same coverage as the happy path.  Every program also gets random
``.region`` boundaries, and the per-region counters must match too.

The unpack ops of the RI5CY sub-byte kernels (bitfield extract, lane
insert, ``pv.shuffle2``, constant lane shifts) are in the mix, and
``test_unpack_loop_parity`` builds loop bodies from their idioms: insert
chains that cover a whole word (fusable) or only part of it (declined),
shuffles whose ``rd`` is or is not written first, and two post-increment
accesses on one pointer at interleaved or colliding phases.
"""

from hypothesis import given, settings, strategies as st

from tests.engine.conftest import run_both

#: Data registers the generated ops read/write freely.
DATA_REGS = ("a0", "a1", "a2", "a3", "a4", "a5")
#: Pointer registers: only post-increment ops may move them, by small
#: steps, so every generated access stays inside the 512 KiB memory.
PTR_REGS = ("s0", "s1")
PTR_BASES = {"s0": 0x8000, "s1": 0x9000}

ALU_RR = ("add", "sub", "xor", "or", "and", "sll", "srl", "sra",
          "slt", "sltu", "mul")

data_reg = st.sampled_from(DATA_REGS)
ptr_reg = st.sampled_from(PTR_REGS)


def _fmt_alu(draw):
    mn = draw(st.sampled_from(ALU_RR))
    return f"{mn} {draw(data_reg)}, {draw(data_reg)}, {draw(data_reg)}"


def _fmt_addi(draw):
    return (f"addi {draw(data_reg)}, {draw(data_reg)}, "
            f"{draw(st.integers(-16, 16))}")


def _fmt_ptr_bump(draw):
    reg = draw(ptr_reg)
    return f"addi {reg}, {reg}, {draw(st.integers(-8, 8))}"


def _fmt_lui(draw):
    return f"lui {draw(data_reg)}, {draw(st.integers(0, 64))}"


def _fmt_load(draw):
    mn = draw(st.sampled_from(("lw", "lh", "lhu", "lb", "lbu")))
    off = draw(st.integers(0, 16))       # any alignment: misaligned too
    return f"{mn} {draw(data_reg)}, {off}({draw(ptr_reg)})"


def _fmt_load_post(draw):
    mn = draw(st.sampled_from(("p.lw", "p.lh", "p.lb")))
    return (f"{mn} {draw(data_reg)}, "
            f"{draw(st.integers(-8, 8))}({draw(ptr_reg)}!)")


def _fmt_store(draw):
    mn = draw(st.sampled_from(("sw", "sh", "sb")))
    off = draw(st.integers(0, 16))
    return f"{mn} {draw(data_reg)}, {off}({draw(ptr_reg)})"


def _fmt_store_post(draw):
    mn = draw(st.sampled_from(("p.sw", "p.sh", "p.sb")))
    return (f"{mn} {draw(data_reg)}, "
            f"{draw(st.integers(-8, 8))}({draw(ptr_reg)}!)")


def _fmt_dotp(draw):
    mn = draw(st.sampled_from(
        ("pv.dotsp.b", "pv.dotup.b", "pv.sdotsp.b", "pv.sdotup.b",
         "pv.dotsp.h", "pv.sdotsp.h")))
    return f"{mn} {draw(data_reg)}, {draw(data_reg)}, {draw(data_reg)}"


def _fmt_extract(draw):
    mn = draw(st.sampled_from(("p.extract", "p.extractu")))
    return (f"{mn} {draw(data_reg)}, {draw(data_reg)}, "
            f"{draw(st.integers(0, 31))}, {draw(st.integers(1, 32))}")


def _fmt_insert(draw):
    mn = draw(st.sampled_from(("pv.insert.b", "pv.insert.h")))
    if draw(st.booleans()):
        return (f"p.insert {draw(data_reg)}, {draw(data_reg)}, "
                f"{draw(st.integers(0, 31))}, {draw(st.integers(1, 32))}")
    return (f"{mn} {draw(data_reg)}, {draw(data_reg)}, "
            f"{draw(st.integers(-16, 15))}")


def _fmt_shuffle2(draw):
    mn = draw(st.sampled_from(("pv.shuffle2.b", "pv.shuffle2.h")))
    return f"{mn} {draw(data_reg)}, {draw(data_reg)}, {draw(data_reg)}"


def _fmt_lane_shift(draw):
    op = draw(st.sampled_from(("srl", "sra", "sll")))
    width = draw(st.sampled_from(("b", "h")))
    return (f"pv.{op}.sci.{width} {draw(data_reg)}, {draw(data_reg)}, "
            f"{draw(st.integers(-16, 15))}")


_OP_MAKERS = (_fmt_alu, _fmt_addi, _fmt_ptr_bump, _fmt_lui, _fmt_load,
              _fmt_load_post, _fmt_store, _fmt_store_post, _fmt_dotp,
              _fmt_extract, _fmt_insert, _fmt_shuffle2, _fmt_lane_shift)


@st.composite
def body_ops(draw, min_size=1, max_size=6, allow_ebreak=False):
    """A list of assembly lines drawn from the fusable op mix."""
    size = draw(st.integers(min_size, max_size))
    ops = [draw(st.sampled_from(_OP_MAKERS))(draw) for _ in range(size)]
    if allow_ebreak and draw(st.booleans()) and size > 1:
        ops[draw(st.integers(0, size - 1))] = "ebreak"
    return ops


@st.composite
def initial_regs(draw):
    regs = {r: draw(st.integers(0, 0xFFFFFFFF)) for r in DATA_REGS}
    regs.update(PTR_BASES)
    return regs


@st.composite
def initial_mem(draw):
    data = draw(st.binary(min_size=64, max_size=64))
    return {0x8000: data, 0x9000: data[::-1]}


#: Random region boundaries: up to four (line index, region name) marks;
#: from each mark on, lines belong to that region ("" = unmarked).
region_marks = st.lists(
    st.tuples(st.integers(0, 12), st.sampled_from(("r0", "r1", ""))),
    max_size=4)


def _assemble_lines(lines, marks=()):
    """Join *lines*, wrapping the stretches *marks* name in ``.region``."""
    starts = dict(sorted(marks))
    out = []
    current = ""
    for i, line in enumerate(lines):
        name = starts.get(i, current)
        if name != current:
            if current:
                out.append(".endregion")
            if name:
                out.append(f".region {name}")
            current = name
        out.append(line)
    if current:
        out.append(".endregion")
    return "\n".join(out) + "\n"


@settings(max_examples=60, deadline=None)
@given(ops=body_ops(max_size=8), regs=initial_regs(), mem=initial_mem(),
       marks=region_marks)
def test_straight_line_parity(ops, regs, mem, marks):
    run_both(_assemble_lines(ops + ["ebreak"], marks), regs=regs, mem=mem)


@settings(max_examples=60, deadline=None)
@given(ops=body_ops(allow_ebreak=True), count=st.integers(0, 7),
       level=st.integers(0, 1), regs=initial_regs(), mem=initial_mem(),
       marks=region_marks)
def test_single_loop_parity(ops, count, level, regs, mem, marks):
    """One hardware loop: zero-trip, single-op bodies, either level,
    possibly halting mid-body."""
    lines = [f"lp.setupi {level}, {count}, end{level}"]
    lines += ops[:-1]
    lines += [f"end{level}:", ops[-1], "ebreak"]
    run_both(_assemble_lines(lines, marks), regs=regs, mem=mem)


@settings(max_examples=40, deadline=None)
@given(inner=body_ops(max_size=4), outer_tail=body_ops(max_size=3),
       n_outer=st.integers(0, 4), n_inner=st.integers(0, 5),
       regs=initial_regs(), mem=initial_mem(), marks=region_marks)
def test_nested_loop_parity(inner, outer_tail, n_outer, n_inner, regs, mem,
                            marks):
    """lp1 wrapping lp0: the inner body fuses, the outer back-edge and
    re-setup run on the fast-block/interpreter tiers."""
    lines = [f"lp.setupi 1, {n_outer}, end1",
             f"lp.setupi 0, {n_inner}, end0"]
    lines += inner[:-1]
    lines += ["end0:", inner[-1]]
    lines += outer_tail[:-1]
    lines += ["end1:", outer_tail[-1], "ebreak"]
    run_both(_assemble_lines(lines, marks), regs=regs, mem=mem)


@settings(max_examples=40, deadline=None)
@given(ops=body_ops(max_size=6), skip=st.integers(1, 3),
       regs=initial_regs(), mem=initial_mem(), marks=region_marks)
def test_branch_parity(ops, skip, regs, mem, marks):
    """A forward branch mid-program: terminators stay interpreter steps
    and block re-entry lands on the branch target."""
    cut = min(skip, len(ops))
    lines = list(ops)
    lines.insert(0, "bne a0, a1, skip")
    label_at = min(cut, len(lines) - 1) + 1
    lines.insert(label_at, "skip:")
    lines.append("ebreak")
    run_both(_assemble_lines(lines, marks), regs=regs, mem=mem)


@settings(max_examples=25, deadline=None)
@given(ops=body_ops(min_size=2, max_size=5), count=st.integers(2, 6),
       budget=st.integers(3, 40), regs=initial_regs(), mem=initial_mem(),
       marks=region_marks)
def test_budget_parity(ops, count, budget, regs, mem, marks):
    """A max_instructions ceiling that may land mid-loop: both engines
    raise the identical SimError (or both halt) at the same state."""
    lines = [f"lp.setupi 0, {count}, end0"]
    lines += ops[:-1]
    lines += ["end0:", ops[-1], "ebreak"]
    run_both(_assemble_lines(lines, marks), regs=regs, mem=mem,
             max_instructions=budget)


# ---------------------------------------------------------------------------
# Unpack idioms of the RI5CY sub-byte kernels
# ---------------------------------------------------------------------------

@st.composite
def insert_chain(draw):
    """``p.extract[u]`` + ``pv.insert.b`` pairs into one destination: all
    four lanes (the word is covered before it is read) or a subset (its
    other lanes carry over between iterations: the fuser must decline)."""
    src, scratch, dest = draw(st.permutations(DATA_REGS))[:3]
    lanes = draw(st.permutations(range(4)))[:draw(st.integers(1, 4))]
    bits = draw(st.sampled_from((2, 4, 8)))
    mn = draw(st.sampled_from(("p.extract", "p.extractu")))
    lines = []
    for lane in lanes:
        pos = draw(st.integers(0, 32 - bits))
        lines += [f"{mn} {scratch}, {src}, {pos}, {bits}",
                  f"pv.insert.b {dest}, {scratch}, {lane}"]
    return lines


@st.composite
def shuffle_step(draw):
    """A ``pv.shuffle2`` whose old ``rd`` is written first in the body
    (as the kernels' ``mv`` does) or is not (a carried value)."""
    rd, src, sel, other = draw(st.permutations(DATA_REGS))[:4]
    width = draw(st.sampled_from(("b", "h")))
    lines = [f"pv.shuffle2.{width} {rd}, {src}, {sel}"]
    if draw(st.booleans()):
        lines.insert(0, f"addi {rd}, {other}, 0")
    return lines


@st.composite
def paired_accesses(draw):
    """Two post-increment accesses on one pointer: one stride, two
    phases, disjoint when each increment covers its access."""
    ptr = draw(ptr_reg)
    lines = []
    for _ in range(2):
        size = draw(st.sampled_from(("w", "h", "b")))
        kind = draw(st.sampled_from(("p.s", "p.s", "p.l")))
        lines.append(f"{kind}{size} {draw(data_reg)}, "
                     f"{draw(st.integers(0, 8))}({ptr}!)")
    return lines


@st.composite
def lane_shift_step(draw):
    return [_fmt_lane_shift(draw)]


_IDIOMS = (insert_chain(), shuffle_step(), paired_accesses(),
           lane_shift_step(), st.builds(lambda op: [op], st.sampled_from(
               ("and a4, a0, a5", "pv.dotup.b t0, a2, a3",
                "p.sw a1, 4(s1!)"))))


@settings(max_examples=150, deadline=None)
@given(parts=st.lists(st.one_of(*_IDIOMS), min_size=1, max_size=4),
       count=st.integers(2, 9), level=st.integers(0, 1),
       regs=initial_regs(), mem=initial_mem())
def test_unpack_loop_parity(parts, count, level, regs, mem):
    """Loop bodies built from unpack idioms, then accumulating readers of
    every data register, retire identically on both engines."""
    ops = [line for part in parts for line in part]
    ops += ["pv.sdotsp.b t1, a0, a1", "pv.sdotsp.b t2, a2, a3",
            "pv.sdotsp.b t3, a4, a5"]
    lines = [f"lp.setupi {level}, {count}, end{level}"]
    lines += ops[:-1]
    lines += [f"end{level}:", ops[-1], "ebreak"]
    run_both(_assemble_lines(lines), regs=regs, mem=mem)
