"""Banked TCDM: word interleaving and per-cycle conflict accounting."""

import pytest

from repro.cluster import Tcdm
from repro.soc.memmap import TCDM_BASE


@pytest.fixture
def tcdm():
    return Tcdm(num_banks=16)


def bank_of(tcdm, addr):
    """The bank holding *addr*, observed through arbitration: two
    same-cycle accesses on fresh timing state conflict exactly once, in
    that bank."""
    tcdm.reset_timing()
    assert tcdm.access(addr, when=7) == 0
    assert tcdm.access(addr, when=7) == 1
    banks = [b for b, n in enumerate(tcdm.conflicts_by_bank) if n]
    assert len(banks) == 1 and tcdm.conflicts == 1
    return banks[0]


class TestBankMapping:
    def test_word_interleaved(self, tcdm):
        assert bank_of(tcdm, TCDM_BASE) == 0
        assert bank_of(tcdm, TCDM_BASE + 4) == 1
        assert bank_of(tcdm, TCDM_BASE + 60) == 15
        assert bank_of(tcdm, TCDM_BASE + 64) == 0

    def test_sub_word_accesses_share_bank(self, tcdm):
        # All four bytes of a word live in the same bank.
        for offset in range(4):
            assert bank_of(tcdm, TCDM_BASE + offset) == 0

    def test_contains(self, tcdm):
        assert tcdm.contains(TCDM_BASE, 4)
        assert tcdm.contains(TCDM_BASE + tcdm.size - 4, 4)
        assert not tcdm.contains(TCDM_BASE + tcdm.size, 4)
        assert not tcdm.contains(TCDM_BASE - 4, 4)


class TestConflictAccounting:
    def test_distinct_banks_no_stall(self, tcdm):
        for i in range(16):
            assert tcdm.access(TCDM_BASE + 4 * i, when=100) == 0
        assert tcdm.conflicts == 0

    def test_same_bank_same_cycle_serializes(self, tcdm):
        addr = TCDM_BASE + 4
        # Grants at 100, 101, 102: each request waits for the last.
        assert tcdm.access(addr, when=100) == 0
        assert tcdm.access(addr, when=100) == 1
        assert tcdm.access(addr, when=100) == 2
        assert tcdm.conflicts == 2
        assert tcdm.conflict_cycles == 3

    def test_bank_frees_next_cycle(self, tcdm):
        addr = TCDM_BASE
        tcdm.access(addr, when=100)
        assert tcdm.access(addr, when=101) == 0
        assert tcdm.conflicts == 0

    def test_same_bank_different_words_conflict(self, tcdm):
        # Two words 64 B apart map to the same bank (16 banks).
        tcdm.access(TCDM_BASE, when=50)
        assert tcdm.access(TCDM_BASE + 64, when=50) == 1
        assert tcdm.conflicts_by_bank[0] == 1

    def test_conflict_rate(self, tcdm):
        tcdm.access(TCDM_BASE, when=0)
        tcdm.access(TCDM_BASE, when=0)
        assert tcdm.accesses == 2
        assert tcdm.conflict_rate == pytest.approx(0.5)

    def test_reset_timing_keeps_contents(self, tcdm):
        tcdm.mem.store(TCDM_BASE, 4, 0xDEADBEEF)
        tcdm.access(TCDM_BASE, when=0)
        tcdm.access(TCDM_BASE, when=0)
        tcdm.reset_timing()
        assert tcdm.accesses == 0 and tcdm.conflicts == 0
        assert tcdm.mem.load(TCDM_BASE, 4) == 0xDEADBEEF
        assert tcdm.access(TCDM_BASE, when=0) == 0
