"""Benchmark base class.

Every Extended OpenDwarfs benchmark follows the same life cycle, which
mirrors the instrumented regions of the paper (§2: host setup, memory
transfer, kernel execution):

1. :meth:`host_setup` — generate input data, create buffers and build
   the program on a context;
2. :meth:`transfer_inputs` — enqueue host-to-device writes;
3. :meth:`run_iteration` — enqueue the kernels of one timed iteration
   (the region the paper loops for >= 2 s and reports);
4. :meth:`collect_results` — read results back;
5. :meth:`validate` — check results against a serial reference
   (paper §4.4.2: outputs compared against serial implementations or
   via norms).

Benchmarks also expose their Table 2 problem-size presets, a static
launch model (:meth:`Benchmark.static_launches`: the OpenCL C source,
the device buffers and every kernel launch, declared from the scale
parameters alone), an architecture-independent kernel characterization
for the analytic model, and a representative memory-access trace for
the cache-counter verification of §4.4.

The launch model is the only place a benchmark declares its buffers.
The device-side footprint — the quantity the paper verifies by
"printing the sum of the size of all memory allocated on the device" —
is the sum of those declared buffers, so it cannot drift from what the
IR analyses read.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..cache import trace as trace_mod
from ..ocl.context import Context
from ..ocl.event import Event
from ..ocl.queue import CommandQueue
from ..perfmodel.characterization import KernelProfile

#: Canonical problem-size names, ordered smallest to largest (Table 2).
SIZES = ("tiny", "small", "medium", "large")


class ValidationError(AssertionError):
    """Benchmark results disagree with the serial reference."""


# ---------------------------------------------------------------------------
# Static launch model (consumed by repro.analysis.absint)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaticBuffer:
    """One device (or host-staging) allocation of a benchmark run.

    ``nbytes`` is the declared size; ``footprint_bytes()`` is the sum
    of the declared sizes.  ``kernel_bound`` distinguishes buffers some
    kernel launch binds from host-only staging (those are always priced
    at their declared size by the static footprint).
    """

    key: str
    nbytes: int
    kernel_bound: bool = True


@dataclass(frozen=True)
class StaticLaunch:
    """One kernel enqueue: NDRange, scalar arguments, buffer bindings.

    ``buffers`` maps kernel parameter names to ``(buffer key, byte
    offset)`` pairs — the offset supports benchmarks that bind row
    views of a larger allocation (cwt's per-scale output planes).
    """

    kernel: str
    global_size: tuple[int, ...]
    scalars: dict[str, float] = field(default_factory=dict)
    buffers: dict[str, tuple[str, int]] = field(default_factory=dict)
    local_size: tuple[int, ...] | None = None


@dataclass(frozen=True)
class StaticLaunchModel:
    """A benchmark's launch geometry, declared without executing it.

    This is the bridge between the dwarf layer and the §4.4 working-set
    verification: :func:`repro.analysis.absint.static_footprint`
    interprets ``source`` abstractly and substitutes each launch to
    reconstruct the benchmark's memory footprint from first principles.
    """

    source: str
    buffers: dict[str, StaticBuffer]
    launches: tuple[StaticLaunch, ...]
    macros: dict[str, float] = field(default_factory=dict)


class Benchmark(abc.ABC):
    """One OpenDwarfs benchmark.

    Subclasses set the class attributes and implement the abstract
    methods; the harness (:mod:`repro.harness.runner`) drives the life
    cycle uniformly across benchmarks and devices.
    """

    #: Benchmark name as used in the paper's tables ("kmeans", "lud", ...).
    name: ClassVar[str] = ""
    #: The Berkeley dwarf the benchmark represents.
    dwarf: ClassVar[str] = ""
    #: Table 2 scale parameters, keyed by size name.  Benchmarks with a
    #: single valid size (nqueens, and hmm in the evaluation) restrict
    #: this mapping.
    presets: ClassVar[dict] = {}
    #: Table 3 argument template; ``{phi}`` etc. substituted per size.
    args_template: ClassVar[str] = ""

    def __init__(self):
        self.context: Context | None = None
        self._setup_done = False

    # ------------------------------------------------------------------
    # Construction from the paper's tables
    # ------------------------------------------------------------------
    @classmethod
    def from_size(cls, size: str, **overrides) -> "Benchmark":
        """Instantiate at a Table 2 problem size ('tiny' .. 'large')."""
        if size not in cls.presets:
            valid = ", ".join(cls.presets)
            raise ValueError(
                f"{cls.name} has no {size!r} problem size (valid: {valid})"
            )
        return cls.from_scale(cls.presets[size], **overrides)

    @classmethod
    @abc.abstractmethod
    def from_scale(cls, phi, **overrides) -> "Benchmark":
        """Instantiate from a Table 2 scale parameter value."""

    @classmethod
    def available_sizes(cls) -> tuple[str, ...]:
        """The problem sizes this benchmark supports, in Table 2 order."""
        return tuple(s for s in SIZES if s in cls.presets)

    @classmethod
    def cli_args(cls, size: str) -> str:
        """The Table 3 argument string for a given size."""
        phi = cls.presets[size]
        if isinstance(phi, tuple):
            subs = {f"phi{i + 1}": v for i, v in enumerate(phi)}
            subs["phi"] = " ".join(str(v) for v in phi)
        else:
            subs = {"phi": phi}
        return cls.args_template.format(**subs)

    # ------------------------------------------------------------------
    # Life cycle
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def host_setup(self, context: Context) -> None:
        """Generate inputs, allocate buffers, build the program."""

    @abc.abstractmethod
    def transfer_inputs(self, queue: CommandQueue) -> list[Event]:
        """Enqueue host-to-device input transfers."""

    @abc.abstractmethod
    def run_iteration(self, queue: CommandQueue) -> list[Event]:
        """Enqueue the kernels of one timed iteration."""

    @abc.abstractmethod
    def collect_results(self, queue: CommandQueue) -> list[Event]:
        """Enqueue device-to-host result transfers."""

    @abc.abstractmethod
    def validate(self) -> None:
        """Raise :class:`ValidationError` if results are wrong."""

    def teardown(self) -> None:
        """Release buffers.  Safe to call repeatedly."""
        if self.context is not None:
            self.context.release_all()

    # ------------------------------------------------------------------
    # Model hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def static_launches(self) -> StaticLaunchModel:
        """The benchmark's buffers and launch geometry.

        The one place a benchmark declares its device buffers: the
        footprint, the IR analyses and the §4.4 cross-check all read
        this model.  Implementations must not require
        :meth:`host_setup` — the model is derived from the scale
        parameters alone, so a working set can be priced without
        allocating it.
        """

    def footprint_bytes(self) -> int:
        """Device-side memory footprint: the sum of the declared buffers."""
        return sum(b.nbytes for b in self.static_launches().buffers.values())

    @abc.abstractmethod
    def profiles(self) -> list[KernelProfile]:
        """Per-iteration kernel characterizations for the analytic model."""

    def trace_spec(self) -> trace_mod.TraceSpec:
        """Declarative spec for the hand-authored access trace.

        Default: two sequential passes over the footprint.  Benchmarks
        with distinctive locality override this with their own spec;
        ``access_trace`` interprets it.
        """
        return trace_mod.TraceSpec.single(
            trace_mod.seq(self.footprint_bytes(), passes=2))

    def access_trace(self, max_len: int = trace_mod.DEFAULT_MAX_LEN) -> np.ndarray:
        """Representative memory-access trace for counter verification."""
        return self.trace_spec().build(max_len=max_len, seed=getattr(self, "seed", 0))

    # ------------------------------------------------------------------
    def footprint_kib(self) -> float:
        return self.footprint_bytes() / 1024.0

    def run_complete(self, context: Context, queue: CommandQueue) -> None:
        """Convenience: full life cycle once, with validation."""
        self.host_setup(context)
        self.transfer_inputs(queue)
        self.run_iteration(queue)
        self.collect_results(queue)
        self.validate()

    def _require_setup(self) -> None:
        if not self._setup_done:
            raise RuntimeError(f"{self.name}: host_setup() has not run")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} ({self.dwarf}) {self.footprint_kib():.1f} KiB>"


def assert_close(actual, expected, rtol: float, what: str) -> None:
    """Norm-comparison helper (paper §4.4.2's 'compare norms' utility)."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if not (np.iscomplexobj(actual) or np.iscomplexobj(expected)):
        actual = actual.astype(np.float64)
        expected = expected.astype(np.float64)
    if actual.shape != expected.shape:
        raise ValidationError(
            f"{what}: shape mismatch {actual.shape} vs {expected.shape}"
        )
    denom = np.linalg.norm(expected)
    err = np.linalg.norm(actual - expected) / (denom if denom else 1.0)
    if not np.isfinite(err) or err > rtol:
        raise ValidationError(f"{what}: relative error {err:.3e} exceeds {rtol:.0e}")
