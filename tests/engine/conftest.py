"""Shared harness for the translation-engine tests.

Every test here compares the block engine against the interpreter on the
*complete* observable state: halt reason, pc, all 32 registers, the full
PerfCounters snapshot, every per-region counter, the load-use pipeline
residue, hardware-loop state, and every byte of data memory.  Parity is the
engine's contract — any divergence is a bug, never a tolerance.
"""

import pytest

from repro.asm import assemble
from repro.core import Cpu
from repro.engine import set_default_mode
from repro.engine.blocks import GLOBAL_CACHE
from repro.isa.registers import parse_register
from repro.trace import RegionCounters


@pytest.fixture(autouse=True)
def _fresh_engine_state():
    """Isolate the process-wide engine default and translated-block cache."""
    set_default_mode(None)
    GLOBAL_CACHE.clear()
    yield
    set_default_mode(None)
    GLOBAL_CACHE.clear()


def state_of(cpu):
    """The complete observable machine state after a run."""
    return {
        "halted": cpu.halted,
        "pc": cpu.pc,
        "regs": list(cpu.regs),
        "perf": cpu.perf.snapshot(),
        "regions": region_state(cpu.region_counters),
        "pending_load": cpu.timing.pending,
        "hwloops": (list(cpu.hwloops.start), list(cpu.hwloops.end),
                    list(cpu.hwloops.count)),
        "mem": bytes(cpu.mem._data),
    }


def region_state(counters):
    """Every field of every region's counters, in first-charged order."""
    if counters is None:
        return None
    return [(name, counters[name].snapshot()) for name in counters.regions]


def _run_one(program, mode, *, isa, regs, mem, max_instructions):
    cpu = Cpu(isa=isa, engine=mode)
    cpu.region_counters = RegionCounters()
    for addr, data in (mem or {}).items():
        cpu.mem.write_bytes(addr, data)
    cpu.load_program(program)
    for name, value in (regs or {}).items():
        cpu.regs[parse_register(name)] = value & 0xFFFFFFFF
    error = None
    try:
        cpu.run(max_instructions=max_instructions)
    except Exception as exc:                      # noqa: BLE001 - compared
        error = (type(exc).__name__, str(exc))
    return cpu, error


def run_both(source, *, isa="xpulpnn", regs=None, mem=None,
             max_instructions=200_000):
    """Run *source* on a fresh interpreter core and a fresh block-engine
    core; assert bit- and cycle-identical outcomes (including identical
    exceptions) and return ``(interp_cpu, block_cpu)``."""
    program = assemble(source, isa=isa)
    interp, interp_err = _run_one(program, "interp", isa=isa, regs=regs,
                                  mem=mem, max_instructions=max_instructions)
    block, block_err = _run_one(program, "block", isa=isa, regs=regs,
                                mem=mem, max_instructions=max_instructions)
    assert interp_err == block_err, (
        f"engines diverged on outcome: interp={interp_err} "
        f"block={block_err}")
    istate, bstate = state_of(interp), state_of(block)
    for key in istate:
        assert istate[key] == bstate[key], (
            f"engines diverged on {key}: interp={istate[key]!r} "
            f"block={bstate[key]!r}")
    return interp, block
