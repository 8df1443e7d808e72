"""Extended OpenDwarfs in Python.

A reproduction of "Dwarfs on Accelerators: Enhancing OpenCL
Benchmarking for Heterogeneous Computing Architectures" (Johnston &
Milthorpe, ICPP 2018) as a self-contained Python library: a simulated
OpenCL runtime with an analytic device performance model, the eleven
dwarf benchmarks with validated numpy kernels, the problem-size
methodology, LibSciBench-style measurement, and a harness that
regenerates every table and figure of the paper.

Quickstart::

    from repro import ocl
    from repro.dwarfs import create

    device = ocl.find_device("GTX 1080")
    context = ocl.Context(device)
    queue = ocl.CommandQueue(context)
    bench = create("fft", "medium")
    bench.run_complete(context, queue)   # executes + validates
    print(queue.total_kernel_time_s())   # modeled kernel time

Subpackages load on first use (``repro.dwarfs``, ``from repro import
ocl``), so a short command pays only for the ones it touches.
"""

import importlib
import types

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "aiwc",
    "cache",
    "counters",
    "devices",
    "dwarfs",
    "harness",
    "io",
    "ocl",
    "perfmodel",
    "regress",
    "scheduling",
    "scibench",
    "sizing",
    "telemetry",
    "tuning",
]


def __getattr__(name: str) -> types.ModuleType:
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
