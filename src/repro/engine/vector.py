"""Numpy batch semantics for fusable instructions.

Values are modelled in the unsigned 32-bit register domain: a register
across all ``N`` loop iterations is either a Python ``int`` (the same
value every iteration) or an ``int64`` ndarray of shape ``(N,)`` with
every element already masked to ``[0, 2**32)``.  int64 leaves headroom
for the dot-product/MAC accumulation sums (|contribution| < 2**34 per
iteration, trip counts < 2**20) before the final 32-bit wraparound.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, Union

import numpy as np

MASK32 = 0xFFFF_FFFF

Value = Union[int, np.ndarray]


def to_signed32(value: Value) -> Value:
    """Reinterpret a u32 value (scalar or lane-packed word) as signed."""
    return (value ^ 0x8000_0000) - 0x8000_0000


def replicate(value: Value, width: int) -> Value:
    """Broadcast the low *width* bits across all 32-bit lanes (the
    ``.sc``/``.sci`` scalar-replication addressing variants)."""
    pattern = sum(1 << (width * lane) for lane in range(32 // width))
    return ((value & ((1 << width) - 1)) * pattern) & MASK32


def dot(a: Value, b: Value, width: int,
        a_signed: bool, b_signed: bool) -> Value:
    """Lane dot product of two packed words; returns the (unwrapped)
    integer sum — scalar or per-iteration int64 array."""
    lanes = 32 // width
    mask = (1 << width) - 1
    sign_bit = 1 << (width - 1)
    total: Value = 0
    for lane in range(lanes):
        la = (a >> (lane * width)) & mask
        lb = (b >> (lane * width)) & mask
        if a_signed:
            la = (la ^ sign_bit) - sign_bit
        if b_signed:
            lb = (lb ^ sign_bit) - sign_bit
        total = total + la * lb
    return total


def gather(data: np.ndarray, offsets: np.ndarray, size: int,
           signed: bool) -> np.ndarray:
    """Load *size*-byte little-endian values at byte *offsets* from the
    uint8 memory view; returns u32-masked int64 values."""
    value = data[offsets].astype(np.int64)
    for k in range(1, size):
        value |= data[offsets + k].astype(np.int64) << (8 * k)
    if signed:
        sign_bit = 1 << (size * 8 - 1)
        value = ((value ^ sign_bit) - sign_bit) & MASK32
    return value


def scatter(data: np.ndarray, offsets: np.ndarray, size: int,
            values: np.ndarray) -> None:
    """Store *size*-byte little-endian values at byte *offsets*."""
    for k in range(size):
        data[offsets + k] = np.asarray(
            (values >> (8 * k)) & 0xFF, dtype=np.uint8)


def scalar_load(data: np.ndarray, offset: int, size: int,
                signed: bool) -> int:
    value = 0
    for k in range(size):
        value |= int(data[offset + k]) << (8 * k)
    if signed:
        sign_bit = 1 << (size * 8 - 1)
        value = ((value ^ sign_bit) - sign_bit) & MASK32
    return value


def bitfield_extract(value: Value, pos: int, length: int,
                     signed: bool) -> Value:
    """The *length*-bit field at bit *pos* (``p.extract[u]``), zero- or
    sign-extended to 32 bits."""
    field = (value >> pos) & ((1 << length) - 1)
    if signed:
        sign_bit = 1 << (length - 1)
        field = ((field ^ sign_bit) - sign_bit) & MASK32
    return field


def bitfield_insert(old: Value, value: Value, pos: int, mask: int) -> Value:
    """*old* with the bits of *mask* replaced by *value* shifted to
    *pos* (``p.insert``, ``pv.insert``)."""
    return (old & (~mask & MASK32)) | ((value << pos) & mask)


def lane_shifter(op: str, amount: int, width: int) -> Callable:
    """``pv.{srl,sra,sll}.sci``: shift every *width*-bit lane by the
    constant *amount* (``0 <= amount < width``) with word-wide shifts
    and per-lane masks."""
    lane = (1 << width) - 1
    if op == "sll":
        keep = replicate((lane << amount) & lane, width)
        return lambda value: (value << amount) & keep
    keep = replicate(lane >> amount, width)
    if op == "srl" or amount == 0:
        return lambda value: (value >> amount) & keep
    # Each lane's sign bit, moved to the lane's bit 0, times the fill
    # pattern: the product stays inside its lane.
    ones = replicate(1, width)
    fill = ((1 << amount) - 1) << (width - amount)
    return lambda value: ((value >> amount) & keep) \
        | ((value >> (width - 1)) & ones) * fill


def _shuffle2_moves(sel: int, width: int) -> List[Tuple[bool, int, int]]:
    """``(from_old, source_mask, shift)`` moves that realize selector
    *sel*: lanes taken from the same word by the same lane distance move
    together."""
    count = 32 // width
    lane = (1 << width) - 1
    moves: Dict[Tuple[bool, int], int] = {}
    for k in range(count):
        index = ((sel >> (k * width)) & lane) % (2 * count)
        j = index % count
        key = (index >= count, (k - j) * width)
        moves[key] = moves.get(key, 0) | (lane << (j * width))
    return [(old, mask, shift) for (old, shift), mask in moves.items()]


def shuffler2(width: int) -> Callable:
    """``pv.shuffle2``: selector lane ``k`` (of *sel*) picks lane
    ``s mod 2*count`` of the concatenation of *src* (lanes
    ``0..count-1``) and *old* (lanes ``count..2*count-1``)."""
    count = 32 // width
    lane = (1 << width) - 1
    shifts = np.arange(count, dtype=np.int64) * width

    def lanes_of(value, n):
        return (np.broadcast_to(value, (n,))[:, None] >> shifts) & lane

    def shuffle2(old: Value, src: Value, sel: Value) -> Value:
        if isinstance(sel, np.ndarray):
            n = len(sel)
            both = np.concatenate([lanes_of(src, n), lanes_of(old, n)],
                                  axis=1)
            index = ((sel[:, None] >> shifts) & lane) % (2 * count)
            picked = np.take_along_axis(both, index, axis=1)
            return (picked << shifts).sum(axis=1)
        # A loop-invariant selector (the kernels' case) moves whole
        # groups of lanes with word-wide masks and shifts: measured
        # cheaper than the gather on conv-suite.
        out: Value = 0
        for from_old, mask, shift in _shuffle2_moves(sel, width):
            part = (old if from_old else src) & mask
            out = out | (part << shift if shift >= 0 else part >> -shift)
        return out

    return shuffle2


#: u32-domain binary ALU semantics shared by the register-register and
#: immediate forms (b is the already-masked second operand).
def _sra(a, b):
    shift = b & 31 if isinstance(b, int) else b & 31
    return (to_signed32(a) >> shift) & MASK32


def _slt(a, b):
    result = to_signed32(a) < to_signed32(b)
    return result.astype(np.int64) if isinstance(result, np.ndarray) \
        else int(result)


def _sltu(a, b):
    result = (a & MASK32) < (b & MASK32)
    return result.astype(np.int64) if isinstance(result, np.ndarray) \
        else int(result)


ALU_OPS = {
    "add": lambda a, b: (a + b) & MASK32,
    "sub": lambda a, b: (a - b) & MASK32,
    "sll": lambda a, b: (a << (b & 31)) & MASK32,
    "srl": lambda a, b: (a & MASK32) >> (b & 31),
    "sra": _sra,
    "slt": _slt,
    "sltu": _sltu,
    "xor": lambda a, b: (a ^ b) & MASK32,
    "or": lambda a, b: (a | b) & MASK32,
    "and": lambda a, b: a & b & MASK32,
}
