"""XpulpV2 DSP extension: hardware loops, post-increment memory access,
scalar DSP ALU ops, and 8/16-bit packed SIMD.

This is the baseline RI5CY extension set of Gautschi et al. (the paper's
reference [4]) that the XpulpNN extensions build on.  The subset here is
the one exercised by QNN kernels and general-purpose control code:

* two levels of zero-overhead hardware loops (``lp.*``);
* post-increment and register-offset loads/stores (``p.lw rd, imm(rs1!)``);
* scalar min/max/abs/clip, sign/zero extension, ``p.mac``/``p.msu``,
  bit-manipulation (extract/insert/bset/bclr/cnt/ff1/fl1/clb, ror);
* packed SIMD on ``.h``/``.b`` vectors with vector-vector, ``.sc`` and
  ``.sci`` addressing variants, including the dot-product family.
"""

from __future__ import annotations

from typing import List, Optional

from .bits import (
    bit_count,
    count_leading_redundant_sign_bits,
    find_first_set,
    find_last_set,
    sign_extend,
    to_signed,
    u32,
    zero_extend,
)
from .encoding import (
    OPC_BRANCH,
    OPC_PULP_ALU,
    OPC_PULP_HWLOOP,
    OPC_PULP_LOAD_POST,
    OPC_PULP_LOAD_RR,
    OPC_PULP_SIMD,
    OPC_PULP_STORE_POST,
)
from .instruction import Instruction, InstrSpec
from .simd import make_simd_specs

from ..target.names import XPULPV2 as _ISA


def _spec(mnemonic, fmt, fixed, syntax, execute, timing="alu", **kw) -> InstrSpec:
    return InstrSpec(
        mnemonic=mnemonic, fmt=fmt, fixed=fixed, syntax=syntax,
        execute=execute, timing=timing, isa=_ISA, **kw,
    )


# ---------------------------------------------------------------------------
# Hardware loops
# ---------------------------------------------------------------------------

def _exec_lp_starti(cpu, ins):
    cpu.hwloops.configure(ins.rd, start=u32(cpu.pc + ins.imm))
    return None


def _exec_lp_endi(cpu, ins):
    cpu.hwloops.configure(ins.rd, end=u32(cpu.pc + ins.imm))
    return None


def _exec_lp_count(cpu, ins):
    cpu.hwloops.configure(ins.rd, count=cpu.regs[ins.rs1])
    return None


def _exec_lp_counti(cpu, ins):
    cpu.hwloops.configure(ins.rd, count=ins.imm)
    return None


def _exec_lp_setup(cpu, ins):
    cpu.hwloops.configure(
        ins.rd, start=u32(cpu.pc + 4), end=u32(cpu.pc + ins.imm),
        count=cpu.regs[ins.rs1],
    )
    return None


def _exec_lp_setupi(cpu, ins):
    cpu.hwloops.configure(
        ins.rd, start=u32(cpu.pc + 4), end=u32(cpu.pc + ins.imm),
        count=ins.rs1,
    )
    return None


_HWLOOP_SPECS = [
    _spec("lp.starti", "LP", {"opcode": OPC_PULP_HWLOOP, "funct3": 0},
          ("L", "label"), _exec_lp_starti, timing="hwloop"),
    _spec("lp.endi", "LP", {"opcode": OPC_PULP_HWLOOP, "funct3": 1},
          ("L", "label"), _exec_lp_endi, timing="hwloop"),
    _spec("lp.count", "R1", {"opcode": OPC_PULP_HWLOOP, "funct3": 2},
          ("L", "rs1"), _exec_lp_count, timing="hwloop"),
    _spec("lp.counti", "IU", {"opcode": OPC_PULP_HWLOOP, "funct3": 3, "rs1": 0},
          ("L", "uimm"), _exec_lp_counti, timing="hwloop"),
    _spec("lp.setup", "LP", {"opcode": OPC_PULP_HWLOOP, "funct3": 4},
          ("L", "rs1", "label"), _exec_lp_setup, timing="hwloop"),
    _spec("lp.setupi", "LPI", {"opcode": OPC_PULP_HWLOOP, "funct3": 5},
          ("L", "count5", "label"), _exec_lp_setupi, timing="hwloop"),
]


# ---------------------------------------------------------------------------
# Post-increment / register-offset memory access
# ---------------------------------------------------------------------------

_LOAD_WIDTHS = [("b", 0, 1, True), ("h", 1, 2, True), ("w", 2, 4, True),
                ("bu", 4, 1, False), ("hu", 5, 2, False)]
_STORE_WIDTHS = [("b", 0, 1), ("h", 1, 2), ("w", 2, 4)]


def _load_post_imm(size: int, signed: bool):
    def execute(cpu, ins: Instruction) -> Optional[int]:
        addr = cpu.regs[ins.rs1]
        cpu.regs[ins.rd] = cpu.load(addr, size, signed)
        cpu.regs[ins.rs1] = u32(addr + ins.imm)
        return None

    return execute


def _load_rr(size: int, signed: bool, post: bool):
    def execute(cpu, ins: Instruction) -> Optional[int]:
        base = cpu.regs[ins.rs1]
        addr = base if post else u32(base + cpu.regs[ins.rs2])
        cpu.regs[ins.rd] = cpu.load(addr, size, signed)
        if post:
            cpu.regs[ins.rs1] = u32(base + cpu.regs[ins.rs2])
        return None

    return execute


def _store_post_imm(size: int):
    def execute(cpu, ins: Instruction) -> Optional[int]:
        addr = cpu.regs[ins.rs1]
        cpu.store(addr, size, cpu.regs[ins.rs2])
        cpu.regs[ins.rs1] = u32(addr + ins.imm)
        return None

    return execute


def _build_mem_specs() -> List[InstrSpec]:
    specs: List[InstrSpec] = []
    for suffix, funct3, size, signed in _LOAD_WIDTHS:
        specs.append(
            _spec(f"p.l{suffix}", "I",
                  {"opcode": OPC_PULP_LOAD_POST, "funct3": funct3},
                  ("rd", "imm(rs1!)"), _load_post_imm(size, signed), timing="load",
                  fusion=("load_post", size, signed))
        )
        specs.append(
            _spec(f"p.l{suffix}rr", "R",
                  {"opcode": OPC_PULP_LOAD_RR, "funct3": funct3, "funct7": 0},
                  ("rd", "rs2(rs1)"), _load_rr(size, signed, post=False), timing="load")
        )
        specs.append(
            _spec(f"p.l{suffix}rrpost", "R",
                  {"opcode": OPC_PULP_LOAD_RR, "funct3": funct3, "funct7": 1},
                  ("rd", "rs2(rs1!)"), _load_rr(size, signed, post=True), timing="load")
        )
    for suffix, funct3, size in _STORE_WIDTHS:
        specs.append(
            _spec(f"p.s{suffix}", "S",
                  {"opcode": OPC_PULP_STORE_POST, "funct3": funct3},
                  ("rs2", "imm(rs1!)"), _store_post_imm(size), timing="store",
                  fusion=("store_post", size))
        )
    return specs


# ---------------------------------------------------------------------------
# Scalar DSP ALU
# ---------------------------------------------------------------------------

def _rr(fn):
    def execute(cpu, ins: Instruction) -> Optional[int]:
        cpu.regs[ins.rd] = u32(fn(cpu.regs[ins.rs1], cpu.regs[ins.rs2]))
        return None

    return execute


def _r1(fn):
    def execute(cpu, ins: Instruction) -> Optional[int]:
        cpu.regs[ins.rd] = u32(fn(cpu.regs[ins.rs1]))
        return None

    return execute


def _exec_mac(cpu, ins):
    cpu.regs[ins.rd] = u32(cpu.regs[ins.rd] + to_signed(cpu.regs[ins.rs1]) * to_signed(cpu.regs[ins.rs2]))
    return None


def _exec_msu(cpu, ins):
    cpu.regs[ins.rd] = u32(cpu.regs[ins.rd] - to_signed(cpu.regs[ins.rs1]) * to_signed(cpu.regs[ins.rs2]))
    return None


def _exec_clip(cpu, ins):
    bits = ins.imm
    lo = -(1 << (bits - 1)) if bits > 0 else 0
    hi = (1 << (bits - 1)) - 1 if bits > 0 else 0
    value = to_signed(cpu.regs[ins.rs1])
    cpu.regs[ins.rd] = u32(min(max(value, lo), hi))
    return None


def _exec_clipu(cpu, ins):
    bits = ins.imm
    hi = (1 << (bits - 1)) - 1 if bits > 0 else 0
    value = to_signed(cpu.regs[ins.rs1])
    cpu.regs[ins.rd] = u32(min(max(value, 0), hi))
    return None


def _unpack_pos_len(imm: int) -> tuple:
    pos = imm & 0x1F
    length = ((imm >> 5) & 0x1F) + 1
    return pos, length


def _exec_extract(cpu, ins):
    pos, length = _unpack_pos_len(ins.imm)
    value = (cpu.regs[ins.rs1] >> pos) & ((1 << length) - 1)
    cpu.regs[ins.rd] = sign_extend(value, length)
    return None


def _exec_extractu(cpu, ins):
    pos, length = _unpack_pos_len(ins.imm)
    cpu.regs[ins.rd] = (cpu.regs[ins.rs1] >> pos) & ((1 << length) - 1)
    return None


def _exec_insert(cpu, ins):
    pos, length = _unpack_pos_len(ins.imm)
    mask = ((1 << length) - 1) << pos
    inserted = (cpu.regs[ins.rs1] << pos) & mask
    cpu.regs[ins.rd] = (cpu.regs[ins.rd] & ~mask & 0xFFFF_FFFF) | inserted
    return None


def _exec_bclr(cpu, ins):
    pos, length = _unpack_pos_len(ins.imm)
    mask = ((1 << length) - 1) << pos
    cpu.regs[ins.rd] = cpu.regs[ins.rs1] & ~mask & 0xFFFF_FFFF
    return None


def _exec_bset(cpu, ins):
    pos, length = _unpack_pos_len(ins.imm)
    mask = ((1 << length) - 1) << pos
    cpu.regs[ins.rd] = (cpu.regs[ins.rs1] | mask) & 0xFFFF_FFFF
    return None


def _ror(a: int, b: int) -> int:
    shift = b & 31
    return ((a >> shift) | (a << (32 - shift))) & 0xFFFF_FFFF if shift else a


def _build_alu_specs() -> List[InstrSpec]:
    r_ops = [
        ("p.min", 1, lambda a, b: a if to_signed(a) < to_signed(b) else b),
        ("p.minu", 2, lambda a, b: min(a, b)),
        ("p.max", 3, lambda a, b: a if to_signed(a) > to_signed(b) else b),
        ("p.maxu", 4, lambda a, b: max(a, b)),
        ("p.ror", 11, _ror),
        ("p.slet", 16, lambda a, b: 1 if to_signed(a) <= to_signed(b) else 0),
        ("p.sletu", 17, lambda a, b: 1 if a <= b else 0),
    ]
    r1_ops = [
        ("p.abs", 0, lambda a: abs(to_signed(a))),
        ("p.exths", 5, lambda a: sign_extend(a, 16)),
        ("p.exthz", 6, lambda a: zero_extend(a, 16)),
        ("p.extbs", 7, lambda a: sign_extend(a, 8)),
        ("p.extbz", 8, lambda a: zero_extend(a, 8)),
        ("p.cnt", 12, bit_count),
        ("p.ff1", 13, find_first_set),
        ("p.fl1", 14, find_last_set),
        ("p.clb", 15, count_leading_redundant_sign_bits),
    ]
    specs: List[InstrSpec] = []
    for mnemonic, funct7, fn in r_ops:
        specs.append(
            _spec(mnemonic, "R",
                  {"opcode": OPC_PULP_ALU, "funct3": 0, "funct7": funct7},
                  ("rd", "rs1", "rs2"), _rr(fn))
        )
    for mnemonic, funct7, fn in r1_ops:
        specs.append(
            _spec(mnemonic, "R1",
                  {"opcode": OPC_PULP_ALU, "funct3": 0, "funct7": funct7, "rs2": 0},
                  ("rd", "rs1"), _r1(fn))
        )
    specs.append(
        _spec("p.mac", "R", {"opcode": OPC_PULP_ALU, "funct3": 0, "funct7": 9},
              ("rd", "rs1", "rs2"), _exec_mac, timing="mul", rd_is_src=True,
              fusion=("mac", 1))
    )
    specs.append(
        _spec("p.msu", "R", {"opcode": OPC_PULP_ALU, "funct3": 0, "funct7": 10},
              ("rd", "rs1", "rs2"), _exec_msu, timing="mul", rd_is_src=True,
              fusion=("mac", -1))
    )
    specs.append(
        _spec("p.clip", "IU", {"opcode": OPC_PULP_ALU, "funct3": 1},
              ("rd", "rs1", "uimm"), _exec_clip)
    )
    specs.append(
        _spec("p.clipu", "IU", {"opcode": OPC_PULP_ALU, "funct3": 2},
              ("rd", "rs1", "uimm"), _exec_clipu)
    )
    # A ``None`` field width in the fusion tag: the field is the
    # immediate's (pos, len) pair, not a SIMD lane.
    bitfield = [
        ("p.extract", 3, _exec_extract, False, ("extract", True, None)),
        ("p.extractu", 4, _exec_extractu, False, ("extract", False, None)),
        ("p.insert", 5, _exec_insert, True, ("insert", None)),
        ("p.bclr", 6, _exec_bclr, False, None),
        ("p.bset", 7, _exec_bset, False, None),
    ]
    for mnemonic, funct3, execute, rd_src, fusion in bitfield:
        specs.append(
            _spec(mnemonic, "IU", {"opcode": OPC_PULP_ALU, "funct3": funct3},
                  ("rd", "rs1", "pos", "len"), execute, rd_is_src=rd_src,
                  fusion=fusion)
        )
    return specs


def pack_pos_len(pos: int, length: int) -> int:
    """Pack a bit-field (pos, length) pair into the 12-bit immediate used
    by ``p.extract``/``p.insert``/``p.bclr``/``p.bset``."""
    if not 0 <= pos < 32:
        raise ValueError(f"bit position {pos} out of range")
    if not 1 <= length <= 32:
        raise ValueError(f"bit length {length} out of range")
    return pos | ((length - 1) << 5)


# ---------------------------------------------------------------------------
# Immediate branches, pack operations, normalization adds
# ---------------------------------------------------------------------------

def _imm_branch(taken_when_equal: bool):
    def execute(cpu, ins: Instruction) -> Optional[int]:
        value = to_signed(cpu.regs[ins.rs1])
        imm = to_signed(ins.rs2, 5)
        if (value == imm) == taken_when_equal:
            return u32(cpu.pc + ins.imm)
        return None

    return execute


def _exec_pack_h(cpu, ins):
    cpu.regs[ins.rd] = ((cpu.regs[ins.rs1] & 0xFFFF) << 16) | (
        cpu.regs[ins.rs2] & 0xFFFF)
    return None


def _exec_packhi_b(cpu, ins):
    keep = cpu.regs[ins.rd] & 0x0000FFFF
    cpu.regs[ins.rd] = keep | ((cpu.regs[ins.rs1] & 0xFF) << 24) | (
        (cpu.regs[ins.rs2] & 0xFF) << 16)
    return None


def _exec_packlo_b(cpu, ins):
    keep = cpu.regs[ins.rd] & 0xFFFF0000
    cpu.regs[ins.rd] = keep | ((cpu.regs[ins.rs1] & 0xFF) << 8) | (
        cpu.regs[ins.rs2] & 0xFF)
    return None


def _norm_op(subtract: bool, rounding: bool):
    def execute(cpu, ins: Instruction) -> Optional[int]:
        a = to_signed(cpu.regs[ins.rs1])
        b = to_signed(cpu.regs[ins.rs2])
        total = a - b if subtract else a + b
        shift = ins.imm & 31
        if rounding and shift:
            total += 1 << (shift - 1)
        cpu.regs[ins.rd] = u32(total >> shift)
        return None

    return execute


def _build_extra_specs() -> List[InstrSpec]:
    """Immediate branches (p.beqimm/p.bneimm), SIMD pack, p.addN family."""
    specs = [
        # Branch against a 5-bit signed immediate carried in the rs2 field.
        _spec("p.beqimm", "B", {"opcode": OPC_BRANCH, "funct3": 2},
              ("rs1", "simm5", "label"), _imm_branch(True), timing="branch"),
        _spec("p.bneimm", "B", {"opcode": OPC_BRANCH, "funct3": 3},
              ("rs1", "simm5", "label"), _imm_branch(False), timing="branch"),
        # Lane packing (used to assemble SIMD words from scalars).
        _spec("pv.pack.h", "PV",
              {"opcode": OPC_PULP_SIMD, "op5": 24, "width2": 0, "funct3": 0},
              ("rd", "rs1", "rs2"), _exec_pack_h),
        _spec("pv.packhi.b", "PV",
              {"opcode": OPC_PULP_SIMD, "op5": 25, "width2": 1, "funct3": 0},
              ("rd", "rs1", "rs2"), _exec_packhi_b, rd_is_src=True),
        _spec("pv.packlo.b", "PV",
              {"opcode": OPC_PULP_SIMD, "op5": 26, "width2": 1, "funct3": 0},
              ("rd", "rs1", "rs2"), _exec_packlo_b, rd_is_src=True),
    ]
    norm = [
        ("p.addn", 0, False, False),
        ("p.addrn", 1, False, True),
        ("p.subn", 2, True, False),
        ("p.subrn", 3, True, True),
    ]
    for mnemonic, funct7h, subtract, rounding in norm:
        specs.append(
            _spec(mnemonic, "RN",
                  {"opcode": OPC_PULP_LOAD_RR, "funct3": 3, "funct7h": funct7h},
                  ("rd", "rs1", "rs2", "uimm"), _norm_op(subtract, rounding))
        )
    return specs


SPECS: List[InstrSpec] = (
    _HWLOOP_SPECS
    + _build_mem_specs()
    + _build_alu_specs()
    + _build_extra_specs()
    + make_simd_specs(
        width_suffixes=("h", "b"),
        variants=("", "sc", "sci"),
        isa=_ISA,
        include_logical=True,
        include_shuffle=True,
        include_extract=True,
    )
)
