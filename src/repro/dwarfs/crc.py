"""crc — the Combinational Logic dwarf.

Table-driven CRC-32 (the reflected IEEE 802.3 polynomial, identical to
``zlib.crc32``) over a message split into pages: one work item computes
the CRC of one page, and the host combines page CRCs into the
message CRC with the GF(2) matrix technique of zlib's
``crc32_combine`` — implemented here from scratch.

This benchmark is the paper's outlier: essentially zero floating-point
work, byte-serial table lookups, and page-level-only parallelism, so
"execution times for crc are lowest on CPU-type architectures" (§5.1,
Fig. 1) — the one benchmark where CPUs beat every GPU, and the one
benchmark where the CPU also wins on energy (Fig. 5).

Validation checks every page CRC and the combined message CRC against
``zlib.crc32``.
"""

from __future__ import annotations

import zlib

import numpy as np

from ..cache import trace as trace_mod
from ..ocl import Context, Event, KernelSource, MemFlags, Program
from ..perfmodel.characterization import KernelProfile
from . import kernels_cl
from .base import (Benchmark, StaticBuffer, StaticLaunch, StaticLaunchModel,
                   ValidationError)

#: Reflected CRC-32 polynomial (IEEE 802.3 / zlib).
POLY = 0xEDB88320

#: Page size each work item processes, bytes.
PAGE_BYTES = 1024


def make_table() -> np.ndarray:
    """The 256-entry reflected CRC-32 lookup table."""
    table = np.empty(256, dtype=np.uint32)
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ POLY if crc & 1 else crc >> 1
        table[i] = crc
    return table


_TABLE = make_table()


def crc32_bytes(data: bytes | np.ndarray, crc: int = 0) -> int:
    """Serial reference CRC-32 (bit-identical to ``zlib.crc32``)."""
    data = np.frombuffer(bytes(data), dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else data
    c = np.uint32(crc ^ 0xFFFFFFFF)
    table = _TABLE
    for byte in data.tolist():
        c = np.uint32(table[(c ^ byte) & 0xFF] ^ (c >> np.uint32(8)))
    return int(c ^ np.uint32(0xFFFFFFFF))


# ----------------------------------------------------------------------
# GF(2) combination (zlib's crc32_combine)
# ----------------------------------------------------------------------
def _gf2_matrix_times(mat: list[int], vec: int) -> int:
    total = 0
    i = 0
    while vec:
        if vec & 1:
            total ^= mat[i]
        vec >>= 1
        i += 1
    return total


def _gf2_matrix_square(mat: list[int]) -> list[int]:
    return [_gf2_matrix_times(mat, mat[i]) for i in range(32)]


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """Combine CRCs of two concatenated blocks.

    ``crc32(a + b) == crc32_combine(crc32(a), crc32(b), len(b))``.
    Implements zlib's matrix-exponentiation algorithm: advancing a CRC
    over ``len2`` zero bytes is a linear operator over GF(2), applied
    by repeated squaring.
    """
    if len2 <= 0:
        return crc1
    # operator for one zero *bit*
    odd = [POLY] + [1 << (i - 1) for i in range(1, 32)]
    even = _gf2_matrix_square(odd)   # two bits
    odd = _gf2_matrix_square(even)   # four bits
    # apply len2 zero *bytes* = 8*len2 bits; start with the 8-bit operator
    crc1 = int(crc1)
    n = len2
    while True:
        even = _gf2_matrix_square(odd)
        if n & 1:
            crc1 = _gf2_matrix_times(even, crc1)
        n >>= 1
        if n == 0:
            break
        odd = _gf2_matrix_square(even)
        if n & 1:
            crc1 = _gf2_matrix_times(odd, crc1)
        n >>= 1
        if n == 0:
            break
    return crc1 ^ int(crc2)


def _crc_pages_kernel(nd, pages, lengths, table, crcs):
    """Per-page CRC-32, vectorised across pages.

    ``pages`` is (n_pages, PAGE_BYTES) uint8 (zero padded); ``lengths``
    holds each page's true byte count; ``table`` is the device copy of
    the 256-entry lookup table.  The byte loop is sequential (as CRC
    inherently is); all pages advance together.
    """
    n_pages, width = pages.shape
    c = np.full(n_pages, 0xFFFFFFFF, dtype=np.uint32)
    active_len = lengths.astype(np.int64)
    for pos in range(width):
        active = pos < active_len
        if not active.any():
            break
        idx = (c[active] ^ pages[active, pos]) & np.uint32(0xFF)
        c[active] = table[idx] ^ (c[active] >> np.uint32(8))
    crcs[...] = c ^ np.uint32(0xFFFFFFFF)


class CRC(Benchmark):
    """Combinational Logic dwarf: paged CRC-32."""

    name = "crc"
    dwarf = "Combinational Logic"
    presets = {"tiny": 2000, "small": 16000, "medium": 524000, "large": 4194304}
    args_template = "-i 1000 {phi}.txt"

    def __init__(self, n_bytes: int, inner_iterations: int = 1000,
                 page_bytes: int = PAGE_BYTES, seed: int = 5):
        super().__init__()
        if n_bytes <= 0:
            raise ValueError(f"message size must be positive, got {n_bytes}")
        self.n_bytes = int(n_bytes)
        self.inner_iterations = int(inner_iterations)
        self.page_bytes = int(page_bytes)
        self.n_pages = (self.n_bytes + self.page_bytes - 1) // self.page_bytes
        self.seed = seed
        self.message: np.ndarray | None = None
        self.crcs_out: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_scale(cls, phi, **overrides) -> "CRC":
        return cls(n_bytes=int(phi), **overrides)

    @classmethod
    def from_args(cls, argv: list[str], **overrides) -> "CRC":
        """Parse ``-i N <size>.txt`` (Table 3)."""
        inner, size = 1000, None
        i = 0
        while i < len(argv):
            if argv[i] == "-i":
                inner = int(argv[i + 1]); i += 2
            else:
                size = int(argv[i].split(".")[0]); i += 1
        if size is None:
            raise ValueError("crc: message size argument required")
        return cls(n_bytes=size, inner_iterations=inner, **overrides)

    # ------------------------------------------------------------------
    def static_launches(self) -> StaticLaunchModel:
        np_, pb = self.n_pages, self.page_bytes
        return StaticLaunchModel(
            source=kernels_cl.CRC_CL,
            macros={"PAGE_BYTES": pb},
            buffers={
                "pages": StaticBuffer("pages", np_ * pb),
                "lengths": StaticBuffer("lengths", np_ * 4),
                "table": StaticBuffer("table", 256 * 4),
                "crcs": StaticBuffer("crcs", np_ * 4),
            },
            launches=(
                StaticLaunch(
                    "crc_pages", (np_,),
                    buffers={"pages": ("pages", 0),
                             "lengths": ("lengths", 0),
                             "table": ("table", 0),
                             "crcs": ("crcs", 0)},
                ),
            ),
        )

    def host_setup(self, context: Context) -> None:
        self.context = context
        rng = np.random.default_rng(self.seed)
        self.message = rng.integers(0, 256, size=self.n_bytes, dtype=np.uint8)

        padded = np.zeros((self.n_pages, self.page_bytes), dtype=np.uint8)
        padded.reshape(-1)[: self.n_bytes] = self.message
        lengths = np.full(self.n_pages, self.page_bytes, dtype=np.int32)
        lengths[-1] = self.n_bytes - (self.n_pages - 1) * self.page_bytes
        self.lengths = lengths

        self.buf_pages = context.buffer_like(padded, MemFlags.READ_ONLY)
        self.buf_lengths = context.buffer_like(lengths, MemFlags.READ_ONLY)
        self.buf_table = context.buffer_like(_TABLE, MemFlags.READ_ONLY)
        self.buf_crcs = context.buffer_like(np.zeros(self.n_pages, dtype=np.uint32))
        program = Program(context, [
            KernelSource("crc_pages", _crc_pages_kernel, self._profile_crc,
                         cl_source=kernels_cl.CRC_CL),
        ]).build()
        self.kernel = program.create_kernel("crc_pages").set_args(
            self.buf_pages, self.buf_lengths, self.buf_table, self.buf_crcs
        )
        self._setup_done = True

    def transfer_inputs(self, queue) -> list[Event]:
        self._require_setup()
        padded = np.zeros((self.n_pages, self.page_bytes), dtype=np.uint8)
        padded.reshape(-1)[: self.n_bytes] = self.message
        return [
            queue.enqueue_write_buffer(self.buf_pages, padded),
            queue.enqueue_write_buffer(self.buf_lengths, self.lengths),
            queue.enqueue_write_buffer(self.buf_table, _TABLE),
        ]

    def run_iteration(self, queue) -> list[Event]:
        self._require_setup()
        return [queue.enqueue_nd_range_kernel(self.kernel, (self.n_pages,))]

    def collect_results(self, queue) -> list[Event]:
        self._require_setup()
        self.crcs_out = np.empty(self.n_pages, dtype=np.uint32)
        return [queue.enqueue_read_buffer(self.buf_crcs, self.crcs_out)]

    def combined_crc(self) -> int:
        """Fold the page CRCs into the whole-message CRC."""
        if self.crcs_out is None:
            raise ValidationError("crc: results were never collected")
        total = int(self.crcs_out[0])
        for page in range(1, self.n_pages):
            total = crc32_combine(total, int(self.crcs_out[page]),
                                  int(self.lengths[page]))
        return total

    def validate(self) -> None:
        if self.crcs_out is None:
            raise ValidationError("crc: results were never collected")
        # every page against zlib
        for page in range(self.n_pages):
            start = page * self.page_bytes
            chunk = self.message[start : start + int(self.lengths[page])]
            expected = zlib.crc32(chunk.tobytes()) & 0xFFFFFFFF
            if int(self.crcs_out[page]) != expected:
                raise ValidationError(
                    f"crc: page {page} CRC {self.crcs_out[page]:#x} != "
                    f"zlib {expected:#x}"
                )
        # and the combination path
        whole = zlib.crc32(self.message.tobytes()) & 0xFFFFFFFF
        combined = self.combined_crc()
        if combined != whole:
            raise ValidationError(
                f"crc: combined CRC {combined:#x} != zlib {whole:#x}"
            )

    # ------------------------------------------------------------------
    def _profile_crc(self, nd, pages=None, lengths=None, table=None,
                     crcs=None) -> KernelProfile:
        """Characterise the OpenDwarfs CRC kernel.

        The original OpenCL kernel walks the message byte-serially: each
        step's table index depends on the previous CRC value, a single
        dependent chain of ~6 ops per byte with essentially no
        work-item parallelism.  That chain is why "execution times for
        crc are lowest on CPU-type architectures" (paper §5.1): an
        out-of-order CPU steps the chain every few cycles, while a GPU
        lane pays tens of cycles per step and the rest of the device
        idles.  (Our *functional* kernel splits the message into pages
        purely so the numpy execution is vectorised; the page CRCs are
        recombined with crc32_combine and validated against zlib.)
        """
        total_bytes = float(self.n_bytes)
        return KernelProfile(
            name="crc_pages",
            flops=0.0,
            int_ops=0.0,                    # all work is on the chain
            bytes_read=0.0,                 # chain steps include their loads
            bytes_written=4.0,
            working_set_bytes=float(self.footprint_bytes()),
            work_items=1,                   # a single serial task
            seq_fraction=1.0,
            branch_fraction=0.05,
            chain_ops=6.0 * total_bytes,    # xor, shift, mask, lookup per byte
        )

    def profiles(self) -> list[KernelProfile]:
        return [self._profile_crc(None, None, None, None)]

    def trace_spec(self) -> trace_mod.TraceSpec:
        """Message streaming interleaved with hot table lookups."""
        return trace_mod.TraceSpec.single(
            trace_mod.seq(self.n_bytes, element_bytes=1, passes=2,
                          budget=("floordiv", 2)),
            trace_mod.random_component(256 * 4, seed_offset=1,
                                       offset=self.n_pages * self.page_bytes,
                                       budget=("floordiv", 2)),
        )
