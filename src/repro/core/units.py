"""Functional models of the two hardware blocks XpulpNN adds to RI5CY.

These mirror the paper's Fig. 3 (extended dot-product unit) and Fig. 4
(quantization unit).  The instruction semantics in :mod:`repro.isa` do not
depend on these classes — they are the *microarchitectural* view, used
only by

* unit tests that check the datapath behaviour matches the ISA semantics,
  and
* the ablation benchmark (``benchmarks/test_ablations.py``: pipelined vs
  combinatorial quantization unit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from ..errors import ModelError
from ..isa.simd import simd_dotp
from ..isa.xpulpnn import walk_threshold_tree

#: Bitwidth regions of the extended dot-product unit (Fig. 3).  The
#: baseline RI5CY unit has the 16- and 8-bit regions; XpulpNN adds the
#: 4-bit (nibble) and 2-bit (crumb) regions, each with its own multiplier
#: set and adder tree so the critical path does not grow.
DOTP_REGIONS = (16, 8, 4, 2)


@dataclass
class DotpResult:
    value: int
    region: int          # which bitwidth region computed it
    active_multipliers: int
    latency: int = 1     # single cycle by design (paper §III-B1)


class DotpUnit:
    """Extended dot-product unit: four clock-gated bitwidth regions.

    ``input_registers=True`` models the operand-isolation registers the
    paper adds in front of each region; the power model uses
    :attr:`toggles` to account switching only in the selected region.
    """

    def __init__(self, regions: Tuple[int, ...] = DOTP_REGIONS,
                 input_registers: bool = True) -> None:
        self.regions = regions
        self.input_registers = input_registers
        self.toggles: Dict[int, int] = {width: 0 for width in regions}

    def multipliers_in(self, width: int) -> int:
        """Number of element multipliers in one region (32 / width lanes)."""
        if width not in self.regions:
            raise ModelError(f"dotp unit has no {width}-bit region")
        return 32 // width

    def dotp(self, width: int, a: int, b: int, a_signed: bool,
             b_signed: bool, acc: int = 0) -> DotpResult:
        """Compute a (sum-of-)dot-product in the *width*-bit region."""
        if width not in self.regions:
            raise ModelError(f"dotp unit has no {width}-bit region")
        value = simd_dotp(a, b, width, a_signed, b_signed, acc)
        self.toggles[width] += 1
        if not self.input_registers:
            # Without operand isolation every region sees the operands.
            for other in self.regions:
                if other != width:
                    self.toggles[other] += 1
        return DotpResult(
            value=value,
            region=width,
            active_multipliers=self.multipliers_in(width),
        )


@dataclass
class QuantResult:
    codes: Tuple[int, int]
    latency: int
    memory_reads: int


class QuantUnit:
    """Quantization unit: threshold-tree walker FSM (Fig. 4).

    Two design points are modelled, matching §III-B2:

    * ``pipelined=True`` (the shipped design): comparison and address
      update are interleaved across two half-word datapaths, quantizing
      *two* activations in ``2 * depth + 1`` cycles (9 for 4-bit, 5 for
      2-bit) while keeping the system critical path unchanged.
    * ``pipelined=False`` (the rejected initial design): combinatorial
      compare+address-update quantizing *one* activation in ``depth + 1``
      cycles, but lengthening the critical path by ~90 %.
    """

    #: Relative critical-path impact of the combinatorial design (paper: +90 %).
    COMBINATORIAL_CRITICAL_PATH_FACTOR = 1.90

    def __init__(self, pipelined: bool = True) -> None:
        self.pipelined = pipelined
        self.invocations = 0

    def latency(self, depth: int) -> int:
        """FSM latency in cycles for one ``pv.qnt`` invocation."""
        if self.pipelined:
            return 2 * depth + 1
        return depth + 1

    def activations_per_invocation(self) -> int:
        return 2 if self.pipelined else 1

    def quantize_pair(
        self,
        read16: Callable[[int], int],
        base: int,
        stride: int,
        act0: int,
        act1: int,
        depth: int,
    ) -> QuantResult:
        """Quantize two activations against consecutive-channel trees."""
        if not self.pipelined:
            raise ModelError(
                "the combinatorial quantization unit handles one activation "
                "per invocation; use quantize_single"
            )
        self.invocations += 1
        code0 = walk_threshold_tree(read16, base, act0, depth)
        code1 = walk_threshold_tree(read16, base + stride, act1, depth)
        return QuantResult(
            codes=(code0, code1),
            latency=self.latency(depth),
            memory_reads=2 * depth,
        )

    def quantize_single(
        self,
        read16: Callable[[int], int],
        base: int,
        act: int,
        depth: int,
    ) -> QuantResult:
        """Single-activation walk (the rejected combinatorial design)."""
        if self.pipelined:
            raise ModelError(
                "the pipelined quantization unit interleaves two activations; "
                "use quantize_pair"
            )
        self.invocations += 1
        code = walk_threshold_tree(read16, base, act, depth)
        return QuantResult(
            codes=(code, 0),
            latency=self.latency(depth),
            memory_reads=depth,
        )

    def address_update_bits(self, depth: int) -> int:
        """Bits needed by the address-update block.

        The paper observes that with trees aligned in memory only 6 bits of
        the address change while walking a tree (heap index span within the
        aligned 2-byte-entry tree region).
        """
        # 2**depth - 1 entries of 2 bytes each, heap-indexed.
        span = (2 ** depth - 1) * 2
        bits = max(1, (span - 1).bit_length())
        return bits
