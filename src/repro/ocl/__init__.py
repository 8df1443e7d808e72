"""Simulated OpenCL 1.2 runtime.

Functional execution of kernels (numpy-backed buffers, real results)
with modeled timing (analytic performance model, profiling events).
The host API mirrors the subset of OpenCL the Extended OpenDwarfs
benchmarks use::

    from repro import ocl

    device = ocl.find_device("i7-6700K")
    ctx = ocl.Context(device)
    queue = ocl.CommandQueue(ctx)
    buf = ctx.buffer_like(np.zeros(1024, np.float32))
    program = ocl.Program(ctx, [ocl.KernelSource("scale", body, profile)]).build()
    kernel = program.create_kernel("scale").set_args(buf, np.float32(2.0))
    event = queue.enqueue_nd_range_kernel(kernel, (1024,))
    print(event.duration_s)
"""

from .clsource import (
    CLKernelSignature,
    CLParam,
    CLSourceError,
    check_scalar_argument,
    kernel_suppressions,
    parse_kernels,
    scalar_kind,
)
from .context import Context
from .device import Device
from .errors import (
    BuildProgramFailure,
    CLError,
    DeviceNotFound,
    InvalidCommandQueue,
    InvalidContext,
    InvalidDevice,
    InvalidKernelArgs,
    InvalidMemObject,
    InvalidValue,
    InvalidWorkGroupSize,
    MemObjectAllocationFailure,
    OutOfResources,
    ProfilingInfoNotAvailable,
)
from .event import Event
from .memory import Buffer, SubBuffer
from .ndrange import MAX_WORK_GROUP_SIZE, NDRange, ndrange
from .platform import Platform, TYPE_FLAG, find_device, get_platforms, select_device
from .program import (
    Kernel,
    KernelSource,
    Program,
    current_work_item,
    disable_work_item_tracking,
    enable_work_item_tracking,
    work_group_barrier,
    work_item_kernel,
    work_item_tracking_enabled,
)
from .queue import CommandQueue, ENQUEUE_OVERHEAD_NS
from .types import (
    CommandExecutionStatus,
    CommandType,
    DeviceType,
    MemFlags,
    ProfilingInfo,
    QueueProperties,
)

__all__ = [
    "CLKernelSignature",
    "CLParam",
    "CLSourceError",
    "check_scalar_argument",
    "kernel_suppressions",
    "parse_kernels",
    "scalar_kind",
    "Buffer",
    "SubBuffer",
    "BuildProgramFailure",
    "CLError",
    "CommandExecutionStatus",
    "CommandQueue",
    "CommandType",
    "Context",
    "Device",
    "DeviceNotFound",
    "DeviceType",
    "ENQUEUE_OVERHEAD_NS",
    "Event",
    "InvalidCommandQueue",
    "InvalidContext",
    "InvalidDevice",
    "InvalidKernelArgs",
    "InvalidMemObject",
    "InvalidValue",
    "InvalidWorkGroupSize",
    "Kernel",
    "KernelSource",
    "MAX_WORK_GROUP_SIZE",
    "MemFlags",
    "MemObjectAllocationFailure",
    "NDRange",
    "OutOfResources",
    "Platform",
    "Program",
    "ProfilingInfo",
    "ProfilingInfoNotAvailable",
    "QueueProperties",
    "TYPE_FLAG",
    "current_work_item",
    "disable_work_item_tracking",
    "enable_work_item_tracking",
    "find_device",
    "get_platforms",
    "ndrange",
    "select_device",
    "work_group_barrier",
    "work_item_kernel",
    "work_item_tracking_enabled",
]
