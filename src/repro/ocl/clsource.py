"""OpenCL C source handling.

The real Extended OpenDwarfs ships ``.cl`` kernel sources; this module
keeps that artefact meaningful in the simulation: benchmarks attach
their OpenCL C source to :class:`KernelSource`, and a small parser
extracts ``__kernel`` signatures so the runtime can cross-check that

* every Python kernel body has a same-named ``__kernel`` in the source,
* the argument count bound at enqueue matches the C signature.

That is the class of host/kernel mismatch (wrong arg index, renamed
kernel) that produces the silent wrong answers the paper's curation
fought — here it fails the build instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: OpenCL C type qualifiers stripped while parsing parameters.
_QUALIFIERS = {
    "__global", "global", "__local", "local", "__constant", "constant",
    "__private", "private", "const", "restrict", "volatile",
    "__read_only", "__write_only", "read_only", "write_only",
}

_KERNEL_RE = re.compile(
    r"__kernel\s+void\s+(?P<name>[A-Za-z_]\w*)\s*\((?P<params>[^)]*)\)",
    re.S,
)

_COMMENT_RE = re.compile(r"/\*.*?\*/|//[^\n]*", re.S)

#: ``#define`` / ``#pragma`` / ``#include`` lines stripped before
#: signature parsing (a macro body may contain text that looks like a
#: parameter list).
_PREPROCESSOR_RE = re.compile(r"^\s*#[^\n]*$", re.M)

#: Lint suppression directive: ``// repro-lint: allow(check: name)``.
#: Placed inside a kernel (between its signature and closing brace) it
#: suppresses that check for that kernel; ``name`` is optional and
#: restricts the suppression to one parameter.
_ALLOW_RE = re.compile(
    r"repro-lint:\s*allow\(\s*(?P<check>[\w-]+)\s*(?::\s*(?P<name>\w+)\s*)?\)"
)

#: OpenCL C scalar types with integer semantics.
INT_TYPE_NAMES = frozenset({
    "bool", "char", "uchar", "short", "ushort", "int", "uint",
    "long", "ulong", "size_t", "ptrdiff_t", "intptr_t", "uintptr_t",
    "unsigned", "signed",
})

#: OpenCL C scalar types with floating-point semantics.
FLOAT_TYPE_NAMES = frozenset({"float", "double", "half"})


def scalar_kind(type_name: str) -> str:
    """Classify a scalar C type as ``"int"``, ``"float"`` or ``"other"``.

    ``type_name`` is the parsed :attr:`CLParam.type_name`, possibly a
    multi-word type like ``unsigned int``; vector types (``float4``)
    and unknown typedefs classify as ``"other"`` and are not checked.
    """
    tokens = type_name.split()
    if any(t in FLOAT_TYPE_NAMES for t in tokens):
        return "float"
    if any(t in INT_TYPE_NAMES for t in tokens):
        return "int"
    return "other"


class CLSourceError(ValueError):
    """Malformed OpenCL C source or host/kernel mismatch."""


@dataclass(frozen=True)
class CLParam:
    """One parsed kernel parameter."""

    type_name: str
    name: str
    is_pointer: bool
    address_space: str  # global / local / constant / private

    @property
    def is_buffer(self) -> bool:
        return self.is_pointer and self.address_space in ("global", "constant")


@dataclass(frozen=True)
class CLKernelSignature:
    """A parsed ``__kernel void name(...)`` signature."""

    name: str
    params: tuple[CLParam, ...]

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def buffer_params(self) -> tuple[CLParam, ...]:
        return tuple(p for p in self.params if p.is_buffer)


def _parse_param(text: str) -> CLParam:
    text = text.strip()
    if not text:
        raise CLSourceError("empty kernel parameter")
    is_pointer = "*" in text
    tokens = text.replace("*", " ").split()
    address_space = "private"
    for token in tokens:
        cleaned = token.lstrip("_")
        if token in _QUALIFIERS and cleaned in ("global", "local",
                                                "constant", "private"):
            address_space = cleaned
    meaningful = [t for t in tokens if t not in _QUALIFIERS]
    if len(meaningful) < 2:
        raise CLSourceError(f"cannot parse kernel parameter {text!r}")
    return CLParam(
        type_name=" ".join(meaningful[:-1]),
        name=meaningful[-1],
        is_pointer=is_pointer,
        address_space=address_space if is_pointer else "private",
    )


def parse_kernels(source: str) -> dict[str, CLKernelSignature]:
    """Extract every ``__kernel`` signature from OpenCL C source.

    Comments and preprocessor lines are stripped first, so ``/* ... */``
    inside a parameter list, ``#define`` macro bodies and multi-line
    signatures all parse as the C compiler would see them.
    """
    stripped = _PREPROCESSOR_RE.sub(" ", _COMMENT_RE.sub(" ", source))
    kernels: dict[str, CLKernelSignature] = {}
    for match in _KERNEL_RE.finditer(stripped):
        name = match.group("name")
        params_text = match.group("params").strip()
        if params_text in ("", "void"):
            params: tuple[CLParam, ...] = ()
        else:
            params = tuple(_parse_param(p) for p in params_text.split(","))
        if name in kernels:
            raise CLSourceError(f"duplicate __kernel {name!r} in source")
        kernels[name] = CLKernelSignature(name=name, params=params)
    if not kernels:
        raise CLSourceError("source contains no __kernel functions")
    return kernels


def check_arguments(signature: CLKernelSignature, n_args: int) -> None:
    """Raise if the bound argument count disagrees with the C signature."""
    if n_args != signature.arity:
        raise CLSourceError(
            f"kernel {signature.name!r} takes {signature.arity} arguments "
            f"per its OpenCL C signature, but {n_args} were bound"
        )


def check_scalar_argument(kernel: str, param: CLParam, index: int, value) -> None:
    """Validate one *scalar* bound argument against its parsed C type.

    Mirrors the host/kernel dtype mismatches ``clSetKernelArg`` lets
    through silently (the paper's §4.4 curation problem): a Python
    float bound to an ``int`` parameter truncates inside the kernel, a
    buffer bound to a scalar slot reinterprets a pointer.  Pointer
    parameters are not checked here — buffer identity and context
    ownership are enforced at enqueue.
    """
    import numpy as np

    if param.is_pointer:
        return
    if isinstance(value, np.ndarray):
        raise CLSourceError(
            f"kernel {kernel!r} argument {index} ({param.name!r}): an array "
            f"was bound to scalar parameter of type {param.type_name!r}"
        )
    kind = scalar_kind(param.type_name)
    if kind == "int" and isinstance(value, (float, np.floating)):
        raise CLSourceError(
            f"kernel {kernel!r} argument {index} ({param.name!r}): Python "
            f"value {value!r} is floating-point but the OpenCL C parameter "
            f"is {param.type_name!r}; pass an int (or fix the signature)"
        )
    if kind == "float" and isinstance(value, (bool, np.bool_)):
        raise CLSourceError(
            f"kernel {kernel!r} argument {index} ({param.name!r}): bool "
            f"bound to {param.type_name!r} parameter"
        )


def _kernel_spans(source: str) -> dict[str, tuple[int, int]]:
    """Map kernel name -> (body start, body end) offsets in ``source``.

    Offsets bracket the brace-matched body of each ``__kernel``; used
    to attribute suppression directives to a kernel.  Comments are
    *not* stripped here so directives survive; brace matching ignores
    braces inside comments by scanning a comment-blanked copy.
    """
    blanked = _COMMENT_RE.sub(lambda m: " " * len(m.group(0)), source)
    blanked = _PREPROCESSOR_RE.sub(lambda m: " " * len(m.group(0)), blanked)
    spans: dict[str, tuple[int, int]] = {}
    for match in _KERNEL_RE.finditer(blanked):
        name = match.group("name")
        open_brace = blanked.find("{", match.end())
        if open_brace < 0:
            continue
        depth = 0
        for pos in range(open_brace, len(blanked)):
            if blanked[pos] == "{":
                depth += 1
            elif blanked[pos] == "}":
                depth -= 1
                if depth == 0:
                    spans[name] = (open_brace + 1, pos)
                    break
    return spans


def kernel_suppressions(source: str) -> dict[str, set[tuple[str, str | None]]]:
    """Per-kernel lint suppressions declared in the source.

    A comment ``// repro-lint: allow(unused-param: scale)`` inside a
    kernel body suppresses the ``unused-param`` check for parameter
    ``scale`` in that kernel; omitting ``: name`` suppresses the check
    for the whole kernel.  Returns ``{kernel: {(check, name-or-None)}}``.
    """
    out: dict[str, set[tuple[str, str | None]]] = {}
    for name, (start, end) in _kernel_spans(source).items():
        allows = {
            (m.group("check"), m.group("name"))
            for m in _ALLOW_RE.finditer(source[start:end])
        }
        if allows:
            out[name] = allows
    return out
