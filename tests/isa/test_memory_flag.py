"""``InstrSpec.touches_memory`` is complete.

The cluster scheduler keeps only memory-touching instructions in global
event order and lets a hart run ahead through everything else, so an op
that touches data memory without the flag would be scheduled out of
order.  Every spec of every ISA subset runs here against a recording
memory, with every register pointing into it.
"""

import pytest

from repro.core import Cpu
from repro.isa.instruction import Instruction
from repro.isa.registry import SUBSETS
from repro.soc.memory import Memory

BASE = 0x1000
SIZE = 0x4000
POINTER = BASE + 0x2000


class RecordingMemory(Memory):
    """A RAM that counts every data access."""

    def __init__(self) -> None:
        super().__init__(SIZE, base=BASE)
        self.touched = 0

    def load(self, addr, size, signed=False):
        self.touched += 1
        return super().load(addr, size, signed)

    def store(self, addr, size, value):
        self.touched += 1
        super().store(addr, size, value)


def _all_specs():
    for subset, specs in sorted(SUBSETS.items()):
        for spec in specs:
            yield pytest.param(spec, id=f"{subset}:{spec.mnemonic}")


@pytest.mark.parametrize("spec", _all_specs())
def test_unflagged_specs_never_touch_memory(spec):
    mem = RecordingMemory()
    cpu = Cpu(isa="xpulpnn", mem=mem)
    for reg in range(1, 32):
        cpu.regs[reg] = POINTER
    cpu.pc = BASE
    ins = Instruction(spec, rd=8, rs1=9, rs2=10, rs3=11, imm=4, addr=BASE)
    try:
        spec.execute(cpu, ins)
    except Exception:                             # noqa: BLE001
        pass   # a trap still had to reach memory to count
    if mem.touched:
        assert spec.touches_memory, (
            f"{spec.mnemonic} ({spec.timing}) touched data memory "
            f"without touches_memory")


def test_flagged_classes_cover_loads_stores_and_quantization():
    flagged = {spec.mnemonic for specs in SUBSETS.values() for spec in specs
               if spec.touches_memory}
    assert {"lw", "sw", "p.lw", "pv.qnt.n", "pv.qnt.c"} <= flagged
    assert "pv.sdotusp.n" not in flagged
