"""Instruction-set registry: assemble per-core ISA configurations.

The paper compares two cores:

* the baseline **RI5CY**: ``RV32IMC + XpulpV2``;
* the **extended RI5CY**: the same plus the XpulpNN instructions.

:func:`build_isa` returns an :class:`Isa` bundling the spec tables, the
mnemonic lookup used by the assembler/builder, and the binary decoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import IsaError
from ..target.names import RI5CY, RV32IMC, XPULPNN, XPULPV2
from .encoding import Decoder
from .instruction import InstrSpec
from . import rv32c, rv32i, rv32m, xpulpnn, xpulpv2, zicsr

#: Available ISA subsets, in dependency order.
SUBSETS: Dict[str, List[InstrSpec]] = {
    "rv32i": rv32i.SPECS,
    "rv32m": rv32m.SPECS,
    "rv32c": rv32c.SPECS,
    "zicsr": zicsr.SPECS,
    XPULPV2: xpulpv2.SPECS,
    XPULPNN: xpulpnn.SPECS,
}

#: Named core configurations used throughout the reproduction.
CORE_CONFIGS: Dict[str, Tuple[str, ...]] = {
    RV32IMC: ("rv32i", "rv32m", "rv32c", "zicsr"),
    # Baseline RI5CY of the paper: RV32IMC + XpulpV2.
    RI5CY: ("rv32i", "rv32m", "rv32c", "zicsr", XPULPV2),
    # Extended RI5CY: RI5CY + the XpulpNN instructions.
    XPULPNN: ("rv32i", "rv32m", "rv32c", "zicsr", XPULPV2, XPULPNN),
}


@dataclass
class Isa:
    """A concrete instruction-set configuration for one core."""

    name: str
    subsets: Tuple[str, ...]
    specs: List[InstrSpec]
    by_name: Dict[str, InstrSpec] = field(default_factory=dict)
    decoder: Decoder = field(init=False)

    def __post_init__(self) -> None:
        if not self.by_name:
            for spec in self.specs:
                if spec.mnemonic in self.by_name:
                    raise IsaError(f"duplicate mnemonic {spec.mnemonic!r} in ISA {self.name}")
                self.by_name[spec.mnemonic] = spec
        self.decoder = Decoder(self.specs)

    def spec(self, mnemonic: str) -> InstrSpec:
        """Look up a spec by mnemonic, raising :class:`IsaError` if absent."""
        try:
            return self.by_name[mnemonic]
        except KeyError:
            raise IsaError(
                f"instruction {mnemonic!r} is not part of ISA {self.name!r} "
                f"(subsets: {', '.join(self.subsets)})"
            ) from None

    def has(self, mnemonic: str) -> bool:
        return mnemonic in self.by_name

    def __contains__(self, mnemonic: str) -> bool:
        return self.has(mnemonic)

    def __repr__(self) -> str:
        return f"Isa({self.name}, {len(self.specs)} instructions)"


_CACHE: Dict[str, Isa] = {}


def build_isa(name: str) -> Isa:
    """Build (and cache) the ISA configuration *name*.

    Valid names are the keys of :data:`CORE_CONFIGS` plus any single subset
    name (useful in tests).
    """
    if name in _CACHE:
        return _CACHE[name]
    if name in CORE_CONFIGS:
        subsets = CORE_CONFIGS[name]
    elif name in SUBSETS:
        subsets = (name,)
    else:
        raise IsaError(
            f"unknown ISA configuration {name!r}; "
            f"choose from {sorted(CORE_CONFIGS) + sorted(SUBSETS)}"
        )
    specs: List[InstrSpec] = []
    for subset in subsets:
        specs.extend(SUBSETS[subset])
    isa = Isa(name=name, subsets=tuple(subsets), specs=specs)
    _CACHE[name] = isa
    return isa
