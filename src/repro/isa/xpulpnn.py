"""XpulpNN ISA extension (the paper's contribution, Table II).

Extends the packed-SIMD operation set to 4-bit *nibble* (``.n``, 8 lanes)
and 2-bit *crumb* (``.c``, 16 lanes) vectors:

* ALU: ``pv.{add,sub,avg,avgu}[.sc].{n,c}``
* comparison: ``pv.{max,maxu,min,minu}[.sc].{n,c}``
* shift: ``pv.{srl,sra,sll}[.sc].{n,c}``
* ``pv.abs.{n,c}``
* dot products: ``pv.{dotup,dotusp,dotsp,sdotup,sdotusp,sdotsp}[.sc].{n,c}``
* quantization: ``pv.qnt.{n,c}``

Per the paper §III-A, the ``.sci`` immediate variant is *not* provided for
sub-byte types (no encoding space); only vector-vector and ``.sc``.

``pv.qnt.{n,c}`` implements the thresholding-based staircase compression of
§II-2/§III-B2 in hardware: two 16-bit accumulator values packed in ``rs1``
are compared against a balanced binary threshold tree stored in memory at
the address in ``rs2`` (second tree at a hard-wired stride), producing two
unsigned Q-bit codes packed into the low bits of ``rd``.  The instruction
is multicycle (9 cycles nibble / 5 cycles crumb) and stalls the pipeline
while the quantization FSM walks the tree — the timing lives in
:mod:`repro.core.timing`; :mod:`repro.core.units` holds a reference model
of the FSM that only its tests and the ablation benchmark use.
"""

from __future__ import annotations

from typing import List, Optional

from .bits import to_signed
from .encoding import OPC_PULP_SIMD
from .instruction import Instruction, InstrSpec
from .simd import OP5, WIDTHS, make_simd_specs

from ..target.names import XPULPNN as _ISA

#: Byte stride between the threshold trees of two consecutive channels.
#: A Q-bit output needs 2**Q - 1 int16 thresholds; the paper stores trees
#: aligned so that the second tree's entry point is a hard-wired offset
#: from the first (no extra source operand needed).
NIBBLE_TREE_STRIDE = 32   # 15 thresholds * 2 B, aligned to 32
CRUMB_TREE_STRIDE = 8     # 3 thresholds * 2 B, aligned to 8

#: Tree depth = output bit count.
QNT_DEPTH = {"n": 4, "c": 2}
QNT_STRIDE = {"n": NIBBLE_TREE_STRIDE, "c": CRUMB_TREE_STRIDE}


def walk_threshold_tree(read16, base: int, act: int, depth: int) -> int:
    """Walk a heap-ordered balanced threshold tree; return the Q-bit code.

    ``read16(addr) -> int`` provides signed 16-bit memory reads.  At each
    node the activation is compared against the threshold; ``act > thr``
    selects the right child and contributes a 1 bit (MSB first), exactly
    the iterative construction of the paper's Fig. 2.  The resulting code
    equals the activation's rank among the sorted thresholds.
    """
    index = 0
    code = 0
    for _ in range(depth):
        threshold = read16(base + 2 * index)
        bit = 1 if act > threshold else 0
        code = (code << 1) | bit
        index = 2 * index + 1 + bit
    return code


def _make_qnt_exec(suffix: str):
    depth = QNT_DEPTH[suffix]
    stride = QNT_STRIDE[suffix]

    def execute(cpu, ins: Instruction) -> Optional[int]:
        packed = cpu.regs[ins.rs1]
        base = cpu.regs[ins.rs2]
        act0 = to_signed(packed & 0xFFFF, 16)
        act1 = to_signed((packed >> 16) & 0xFFFF, 16)

        def read16(addr: int) -> int:
            if addr % 2:
                # Misaligned threshold access: the FSM inserts a stall.
                cpu.add_stall_cycles(1)
            return to_signed(cpu.mem.load(addr, 2), 16)

        code0 = walk_threshold_tree(read16, base, act0, depth)
        code1 = walk_threshold_tree(read16, base + stride, act1, depth)
        cpu.regs[ins.rd] = code0 | (code1 << depth)
        return None

    return execute


def _build_qnt_specs() -> List[InstrSpec]:
    specs = []
    for suffix, timing in (("n", "qnt_n"), ("c", "qnt_c")):
        specs.append(
            InstrSpec(
                mnemonic=f"pv.qnt.{suffix}",
                fmt="PV",
                fixed={
                    "opcode": OPC_PULP_SIMD,
                    "op5": OP5["qnt"],
                    "width2": WIDTHS[suffix][1],
                    "funct3": 0,
                },
                syntax=("rd", "rs1", "rs2"),
                execute=_make_qnt_exec(suffix),
                timing=timing,
                isa=_ISA,
                # The quantization FSM walks a threshold tree in data
                # memory and stalls on misaligned reads — its cycle cost
                # depends on runtime values, so it is interpreter-only.
                fusion=("interp",),
            )
        )
    return specs


SPECS: List[InstrSpec] = (
    make_simd_specs(
        width_suffixes=("n", "c"),
        variants=("", "sc"),
        isa=_ISA,
        include_logical=False,
        include_shuffle=False,
        include_extract=False,
    )
    + _build_qnt_specs()
)
