"""Full convolution-layer kernels (the paper's benchmark workload).

One generated program executes a whole quantized convolution layer the way
PULP-NN does (§II-2): a software loop over output-pixel *pairs*, each pair
doing an im2col phase (two buffers) followed by the 2x2-blocked MatMul
over all filters with fused requantization and packed output stores.

Configurations (:class:`ConvConfig`) cover every point the evaluation
needs:

========  ========  =========  ===============================================
bits      isa       quant      corresponds to
========  ========  =========  ===============================================
8         either    shift      PULP-NN 8-bit kernel (identical on both cores)
4 / 2     xpulpnn   hw         XpulpNN kernel with ``pv.qnt`` (Fig 6 "HW")
4 / 2     xpulpnn   sw         XpulpNN kernel, software staircase (Fig 6 "SW")
4 / 2     ri5cy     sw         baseline kernel with pack/unpack (Figs 8/9)
========  ========  =========  ===============================================

Structural notes that matter for the cycle counts:

* the two ``pv.qnt`` variants keep the filter loop branch-free, so it runs
  under the second hardware loop (L1); software quantization introduces
  branches and falls back to a ``bnez`` loop — one more reason the
  dedicated instruction pays off;
* 2-bit outputs pack four channels per byte, so the filter loop processes
  two channel pairs per iteration and merges their half-bytes through a
  one-word spill slot (``sp``);
* the baseline stores im2col data widened to int8 (8/bits larger buffer)
  and widens packed weights inside the inner loop — the paper's
  pack/unpack overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..asm.builder import KernelBuilder
from ..core.cpu import Cpu
from ..errors import KernelError
from ..qnn import ThresholdTable, pack, tree_stride, unpack
from ..qnn.layers import ConvGeometry
from ..soc.memmap import L2_SIZE
from ..target.names import RI5CY, XPULPNN
from ..trace.metrics import RegionCounters
from .common import KernelRun, align_up, plan_layout
from .im2col import (
    emit_im2col_pixel_packed,
    emit_im2col_pixel_unpack,
    im2col_buffer_bytes,
    padded_row_bytes,
    pixel_bytes,
    seg_words_packed,
)
from .matmul import (
    MatmulRegs,
    emit_acc_clear,
    emit_hwquant_nibble_store,
    emit_inner_loop,
    emit_pack_qnt_input,
    emit_requant_shift_store,
    emit_swquant_pair,
    k_bytes,
    k_words,
)
from .unpack import emit_load_unpack_constants

#: Register roles (fixed; see module docstring of :mod:`.common`).
_R = MatmulRegs(
    wptr0="a6", wptr1="a7", xptr0="s6", xptr1="s7",
    acc00="s2", acc01="s3", acc10="s4", acc11="s5",
)
_TMPS = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "s0", "s1"]

#: Unpack register maps.  During im2col the matmul registers are dead, so
#: the unsigned-activation unpack borrows them for its constants; during
#: the inner loop the extract-style weight unpack only needs scratch
#: registers that are dead while unpacking (see matmul emitter comments).
_IM2COL_UNPACK_REGS = {
    "scratch0": "t6", "scratch1": "s1", "scratch2": "ra",
    "sel_lo": "s2", "sel_hi": "s3", "mask": "s4",
    "sel_half_lo": "s5", "sel_half_hi": "a6",
}
_MATMUL_UNPACK_REGS = {
    "scratch0": "s0", "scratch1": "s1", "scratch2": "t6",
}


@dataclass
class ConvConfig:
    """One convolution kernel configuration."""

    geometry: ConvGeometry
    bits: int
    isa: str = XPULPNN
    quant: str = "hw"          # "shift" | "hw" | "sw"
    unpack_style: str = "extract"
    #: Per-channel int32 bias added to the accumulators (8-bit path only;
    #: sub-byte layers absorb bias into the staircase thresholds, §II-2).
    with_bias: bool = False

    def __post_init__(self) -> None:
        if self.with_bias and self.quant != "shift":
            raise KernelError(
                "bias is only explicit on the 8-bit path; staircase "
                "thresholds absorb it (paper §II-2)")
        g = self.geometry
        if self.bits not in (2, 4, 8):
            raise KernelError(f"unsupported operand width {self.bits}")
        if self.isa not in (RI5CY, XPULPNN):
            raise KernelError(
                f"conv kernels target {RI5CY}/{XPULPNN}, not {self.isa}")
        if self.bits == 8 and self.quant != "shift":
            raise KernelError("8-bit kernels use shift requantization")
        if self.bits != 8 and self.quant == "shift":
            raise KernelError("sub-byte kernels use staircase quantization")
        if self.quant == "hw" and self.isa != XPULPNN:
            raise KernelError("pv.qnt requires the XpulpNN ISA")
        if not self.native and self.unpack_style != "extract":
            raise KernelError(
                "baseline conv kernels support the extract unpack style only "
                "(register pressure); use MatmulKernel for shuffle ablations"
            )
        if g.out_w % 2:
            raise KernelError("out_w must be even (pixel pairs)")
        if g.out_ch % (4 if self.bits == 2 else 2):
            raise KernelError("out_ch must pack whole output bytes")
        if seg_words_packed(g, self.bits) > 31:
            raise KernelError("im2col segment exceeds the immediate loop count")
        if g.stride * pixel_bytes(g, self.bits) * 2 > 2047:
            raise KernelError("pixel advance exceeds the addi immediate")
        if (g.kh - 1) * padded_row_bytes(g, self.bits) > 2047:
            raise KernelError(
                "activation rows too wide for immediate im2col offsets; "
                "tile the layer"
            )

    @property
    def native(self) -> bool:
        return self.bits == 8 or self.isa == XPULPNN

    @property
    def macs(self) -> int:
        return self.geometry.macs

    def describe(self) -> str:
        return (
            f"conv {self.bits}-bit on {self.isa} ({self.quant} quant): "
            f"{self.geometry.describe()}"
        )


class ConvKernel:
    """Generate and run one full convolution layer on the ISS."""

    def __init__(self, config: ConvConfig, base: int = 0) -> None:
        self.config = config
        g = config.geometry
        b = KernelBuilder(isa=config.isa, base=base)
        self._emit(b)
        self.program = b.build()

        self.layout = plan_layout(
            self.program.size, self._layout_spec(), base=base,
        )

    def _layout_spec(self) -> dict:
        """Region sizes of one run (overridden by the parallel variant)."""
        config = self.config
        g = config.geometry
        pad_h = g.in_h + 2 * g.pad
        pad_w = g.in_w + 2 * g.pad
        acts_bytes = pad_h * pad_w * pixel_bytes(g, config.bits)
        buf_bytes = align_up(
            im2col_buffer_bytes(g, config.bits, unpacked=not config.native), 4
        )
        thr_bytes = (
            g.out_ch * tree_stride(config.bits) if config.quant != "shift" else 4
        )
        out_bytes = g.out_pixels * g.out_ch * config.bits // 8
        return {
            "weights": (g.out_ch * k_bytes(g.reduction, config.bits), 4),
            "acts": (align_up(acts_bytes, 4), 4),
            "im2col0": (self._im2col_copies() * buf_bytes, 4),
            "im2col1": (self._im2col_copies() * buf_bytes, 4),
            "thr": (thr_bytes, 32),
            "bias": (g.out_ch * 4 if config.with_bias else 4, 4),
            "out": (align_up(out_bytes, 4), 4),
            "spill": (16 * self._im2col_copies(), 4),
        }

    # ------------------------------------------------------------------
    # Code generation
    # ------------------------------------------------------------------

    # Hooks specialized by ParallelConvKernel (row sharding across harts).
    def _im2col_copies(self) -> int:
        """Private im2col/spill copies to lay out (one per hart)."""
        return 1

    def _row_count(self) -> int:
        """Output rows this program instance processes."""
        return self.config.geometry.out_h

    def _emit_prologue(self, b: KernelBuilder) -> None:
        """Emitted before any other instruction (hart sharding setup)."""

    def _emit_epilogue(self, b: KernelBuilder) -> None:
        """Emitted after the row loop (the parallel variant barriers)."""
        b.ebreak()

    def _emit(self, b: KernelBuilder) -> None:
        cfg = self.config
        g = cfg.geometry
        kw = k_words(g.reduction, cfg.bits)
        kb = k_bytes(g.reduction, cfg.bits)
        pix_bytes = pixel_bytes(g, cfg.bits)
        row_bytes = padded_row_bytes(g, cfg.bits)
        out_ch_bytes = g.out_ch * cfg.bits // 8
        stride_pix = g.stride * pix_bytes
        row_advance = g.stride * row_bytes - g.out_w * stride_pix
        if not -2048 <= row_advance < 2048:
            raise KernelError("row advance exceeds the addi immediate")

        hw_filter_loop = cfg.quant in ("hw", "shift")
        pairs_per_iter = 2 if cfg.bits == 2 else 1
        filter_iters = g.out_ch // (2 * pairs_per_iter)

        self._emit_prologue(b)

        # Persistent loop-count registers.
        use_k_reg = kw > 31
        if use_k_reg:
            b.li("gp", kw)
        if hw_filter_loop and filter_iters > 31:
            b.li("tp", filter_iters)

        b.emit("addi", "a4", "a3", out_ch_bytes)
        b.li("s11", self._row_count())

        b.label("row_loop")
        b.li("s9", g.out_w // 2)

        b.label("pair_loop")
        with b.region("im2col"):
            self._emit_im2col_pair(b, stride_pix)

        # MatMul over all filters for this pixel pair.
        b.mv(_R.wptr0, "a0")
        b.emit("addi", _R.wptr1, "a0", kb)
        if cfg.quant != "shift":
            b.mv("a5", "s10")
        if cfg.with_bias:
            b.mv("ra", "s0")     # rewind the bias pointer (anchor in s0)
        k_count = "gp" if use_k_reg else kw

        def filter_body() -> None:
            for _ in range(pairs_per_iter):
                with b.region("dotprod"):
                    if cfg.with_bias:
                        # Accumulators start from the channel biases; both
                        # pixels of a channel share the same bias value.
                        b.emit("p.lw", _R.acc00, 4, "ra", inc=True)
                        b.mv(_R.acc01, _R.acc00)
                        b.emit("p.lw", _R.acc10, 4, "ra", inc=True)
                        b.mv(_R.acc11, _R.acc10)
                    else:
                        emit_acc_clear(b, _R)
                    b.mv(_R.xptr0, "a1")
                    b.mv(_R.xptr1, "a2")
                    emit_inner_loop(
                        b, cfg.bits, cfg.native, k_count, _R, _TMPS,
                        style=cfg.unpack_style, unpack_regs=_MATMUL_UNPACK_REGS,
                    )
                    b.emit("addi", _R.wptr0, _R.wptr0, kb)
                    b.emit("addi", _R.wptr1, _R.wptr1, kb)
                with b.region("quant"):
                    self._emit_quant_pass(b)
            if cfg.bits == 2:
                with b.region("quant"):
                    self._emit_merge_halfbytes(b)

        if hw_filter_loop:
            count = "tp" if filter_iters > 31 else filter_iters
            with b.hardware_loop(1, count):
                filter_body()
        else:
            b.li("tp", filter_iters)
            b.label("filter_loop")
            filter_body()
            b.emit("addi", "tp", "tp", -1)
            b.bnez("tp", "filter_loop")

        # Advance to the next pixel pair.
        b.emit("addi", "s8", "s8", 2 * stride_pix)
        b.emit("addi", "a3", "a3", out_ch_bytes)
        b.emit("addi", "a4", "a3", out_ch_bytes)
        b.emit("addi", "s9", "s9", -1)
        b.bnez("s9", "pair_loop")
        if row_advance:
            b.emit("addi", "s8", "s8", row_advance)
        b.emit("addi", "s11", "s11", -1)
        b.bnez("s11", "row_loop")
        self._emit_epilogue(b)

    def _emit_im2col_pair(self, b: KernelBuilder, stride_pix: int) -> None:
        cfg = self.config
        g = cfg.geometry
        seg_reg = None  # asserted <= 31 in the config
        if cfg.native:
            b.mv("t2", "a1")
            emit_im2col_pixel_packed(b, g, cfg.bits, "s8", "t2", "t0", "t1", seg_reg)
            b.emit("addi", "a7", "s8", stride_pix)
            b.mv("t2", "a2")
            emit_im2col_pixel_packed(b, g, cfg.bits, "a7", "t2", "t0", "t1", seg_reg)
            return
        # Baseline: widen activations to int8 while copying.
        dests = ["t3", "t4"] if cfg.bits == 4 else ["t3", "t4", "t5", "s0"]
        emit_load_unpack_constants(b, cfg.bits, False, "shuffle", _IM2COL_UNPACK_REGS)
        b.mv("t2", "a1")
        emit_im2col_pixel_unpack(b, g, cfg.bits, "s8", "t2", "t0", "t1",
                                 dests, _IM2COL_UNPACK_REGS, seg_reg)
        b.emit("addi", "a7", "s8", stride_pix)
        b.mv("t2", "a2")
        emit_im2col_pixel_unpack(b, g, cfg.bits, "a7", "t2", "t0", "t1",
                                 dests, _IM2COL_UNPACK_REGS, seg_reg)

    def _emit_quant_pass(self, b: KernelBuilder) -> None:
        """Requantize and (for 8/4-bit) store one channel pair's 2x2 block.

        For 2-bit the half-bytes are packed into t4 (pixel0 in [3:0],
        pixel1 in [19:16]) and spilled to the sp slot after the first pass;
        :meth:`_emit_merge_halfbytes` combines and stores.
        """
        cfg = self.config
        if cfg.quant == "shift":
            emit_requant_shift_store(b, _R, "a5", "a3", "a4", "t0")
            return
        if cfg.bits == 4:
            if cfg.quant == "hw":
                emit_hwquant_nibble_store(b, _R, "a5", "a3", "a4", "t0", "t1")
            else:
                emit_swquant_pair(b, 4, _R, "a5", "t2", "t0", "t1", "t4", "s0")
                b.emit("p.sb", "t0", 1, "a3", inc=True)
                b.emit("p.sb", "t1", 1, "a4", inc=True)
            b.emit("addi", "a5", "a5", 2 * tree_stride(4))
            return
        # 2-bit channel pair -> half-byte per pixel.
        if cfg.quant == "hw":
            emit_pack_qnt_input(b, _R.acc00, _R.acc10, "t0")
            b.emit("pv.qnt.c", "t1", "t0", "a5")
            emit_pack_qnt_input(b, _R.acc01, _R.acc11, "t0")
            b.emit("pv.qnt.c", "t2", "t0", "a5")
        else:
            emit_swquant_pair(b, 2, _R, "a5", "t4", "t1", "t2", "t0", "s0")
        b.emit("slli", "t2", "t2", 16)
        b.emit("or", "t4", "t1", "t2")
        b.emit("addi", "a5", "a5", 2 * tree_stride(2))
        b.emit("sw", "t4", 0, "sp")
        b.emit("addi", "sp", "sp", 4)

    def _emit_merge_halfbytes(self, b: KernelBuilder) -> None:
        """Combine the two spilled 2-bit passes into one output byte per
        pixel (channels i..i+3)."""
        b.emit("lw", "t1", -8, "sp")    # first pass: lower crumbs
        b.emit("lw", "t2", -4, "sp")    # second pass: upper crumbs
        b.emit("addi", "sp", "sp", -8)
        b.emit("slli", "t2", "t2", 4)
        b.emit("or", "t1", "t1", "t2")
        b.emit("andi", "t0", "t1", 0xFF)
        b.emit("p.sb", "t0", 1, "a3", inc=True)
        b.emit("srli", "t0", "t1", 16)
        b.emit("andi", "t0", "t0", 0xFF)
        b.emit("p.sb", "t0", 1, "a4", inc=True)

    # ------------------------------------------------------------------
    # Execution harness
    # ------------------------------------------------------------------

    def run(
        self,
        weights: np.ndarray,
        activations: np.ndarray,
        thresholds: Optional[ThresholdTable] = None,
        shift: int = 0,
        bias: Optional[np.ndarray] = None,
        cpu: Optional[Cpu] = None,
        profile_quant: bool = False,
    ) -> KernelRun:
        """Run the layer.

        *weights* is ``(Co, Kh, Kw, Ci)`` signed, *activations* is the
        **unpadded** ``(H, W, C)`` unsigned input (padding is applied
        here, zero-filled, exactly what the golden model assumes).
        Returns the quantized output ``(Ho, Wo, Co)``.
        """
        cfg = self.config
        g = cfg.geometry
        weights = np.asarray(weights)
        activations = np.asarray(activations)
        if weights.shape != (g.out_ch, g.kh, g.kw, g.in_ch):
            raise KernelError(
                f"weights must be {(g.out_ch, g.kh, g.kw, g.in_ch)}, "
                f"got {weights.shape}"
            )
        if activations.shape != (g.in_h, g.in_w, g.in_ch):
            raise KernelError(
                f"activations must be {(g.in_h, g.in_w, g.in_ch)}, "
                f"got {activations.shape}"
            )
        if cpu is None:
            needed = self.layout.end + 4096
            from ..soc.memory import Memory

            cpu = Cpu(isa=cfg.isa, mem=Memory(max(needed, L2_SIZE)))
        lay = self.layout

        padded = np.zeros(
            (g.in_h + 2 * g.pad, g.in_w + 2 * g.pad, g.in_ch), dtype=np.int32
        )
        padded[g.pad:g.pad + g.in_h, g.pad:g.pad + g.in_w, :] = activations
        cpu.mem.write_bytes(lay.addr("acts"), pack(padded, cfg.bits, signed=False))
        cpu.mem.write_bytes(
            lay.addr("weights"),
            pack(weights.reshape(g.out_ch, -1), cfg.bits, signed=True),
        )
        if cfg.quant != "shift":
            if thresholds is None:
                raise KernelError("staircase quantization needs a threshold table")
            if thresholds.channels != g.out_ch:
                raise KernelError("threshold table channel count mismatch")
            thresholds.write_to_memory(cpu.mem, lay.addr("thr"))
        if cfg.with_bias:
            if bias is None:
                raise KernelError("with_bias kernel needs a bias vector")
            bias = np.asarray(bias, dtype=np.int64)
            if bias.shape != (g.out_ch,):
                raise KernelError(f"bias must have shape ({g.out_ch},)")
            cpu.mem.write_words(lay.addr("bias"),
                                [int(v) & 0xFFFFFFFF for v in bias])
        elif bias is not None:
            raise KernelError("kernel built without with_bias=True")

        cpu.reset()
        cpu.load_program(self.program)
        # Fig 6's quantization share: the cycles the core charges to the
        # "quant" region (on an attached tracer's counters, if any).
        own_regions = profile_quant and cpu.region_counters is None
        if own_regions:
            cpu.region_counters = RegionCounters()
        quant_before = _quant_cycles(cpu.region_counters)
        cpu.regs[10] = lay.addr("weights")   # a0
        cpu.regs[11] = lay.addr("im2col0")   # a1
        cpu.regs[12] = lay.addr("im2col1")   # a2
        cpu.regs[13] = lay.addr("out")       # a3
        cpu.regs[24] = lay.addr("acts")      # s8 (top-left of first patch)
        cpu.regs[2] = lay.addr("spill")      # sp
        if cfg.quant == "shift":
            cpu.regs[15] = shift             # a5
        else:
            cpu.regs[15] = lay.addr("thr")   # a5
            cpu.regs[26] = lay.addr("thr")   # s10 anchor
        if cfg.with_bias:
            cpu.regs[1] = lay.addr("bias")   # ra
            cpu.regs[8] = lay.addr("bias")   # s0 anchor
        perf = cpu.run()

        out_bytes = g.out_pixels * g.out_ch * cfg.bits // 8
        data = cpu.mem.read_bytes(lay.addr("out"), out_bytes)
        flat = unpack(data, cfg.bits, signed=False,
                      count=g.out_pixels * g.out_ch)
        output = flat.reshape(g.out_h, g.out_w, g.out_ch)
        detail = {}
        if profile_quant:
            detail["quant_cycles"] = (
                _quant_cycles(cpu.region_counters) - quant_before)
        if own_regions:
            cpu.region_counters = None
        return KernelRun(output=output, perf=perf.copy(), layout=lay, detail=detail)


def _quant_cycles(regions: Optional[RegionCounters]) -> int:
    """Cycles *regions* has charged to the "quant" region so far."""
    if regions is None or "quant" not in regions:
        return 0
    return regions["quant"].cycles
