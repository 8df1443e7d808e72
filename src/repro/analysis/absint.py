"""Symbolic abstract interpretation of kernel memory footprints.

Third stage of the kernel IR pipeline: an interval abstract interpreter
over the :mod:`repro.analysis.frontend` AST whose interval endpoints are
*symbolic expressions* in the kernel's scalar arguments, the NDRange
(``get_global_id`` ranges over ``[0, gsize-1]``) and the build macros.
Running a kernel abstractly yields, per buffer parameter, the symbolic
index range every load/store can touch — the kernel's working set as a
closed-form function of the launch, which is exactly what the paper's
§4.4 derives by hand (Eq. 1 for kmeans).

Substituting a concrete :class:`~repro.dwarfs.base.StaticLaunchModel`
(the per-benchmark launch geometry declared by ``static_launches()``)
evaluates those ranges numerically and sums per-buffer extents into a
*static* footprint that :func:`verify_benchmark_footprint` cross-checks
against the runtime ``footprint_bytes()`` at every size preset.

Precision machinery, in rough order of importance:

* branch refinement — ``if (gid < remaining)`` narrows ``gid`` in the
  taken arm (and the negation narrows the fall-through after an early
  ``return``), including one relational step: when ``row`` was defined
  as ``idx / C`` with constant ``C``, a bound on ``row`` propagates
  back to ``idx`` (the SRAD halo pattern);
* path guards — every access records the comparisons guarding it, and
  a launch whose values make a guard infeasible skips the access (the
  ``hmm_backward`` ``t == T_OBS-1`` special case);
* bounded loop fixpoints — loop-carried scalars are iterated to a join
  fixpoint (with widening to TOP after four passes) before a final
  recording pass;
* indirect fallback — an access whose symbolic bound is unbounded
  (subscripts fed from memory, e.g. CSR's gather) falls back to the
  declared size of the bound buffer.

The same interpretation classifies per-argument access strides
(``uniform`` / ``unit`` / ``strided`` / ``indirect``) via a small
dependency lattice carried next to each interval.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

from ..ocl.clsource import CLSourceError
from ..telemetry.tracer import get_tracer
from .cfg import stmt_exprs, walk_expr, walk_stmts
from .frontend import (
    Assign,
    Bin,
    Block,
    Call,
    Cast,
    Cond,
    Decl,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    Ident,
    If,
    Index,
    IntLit,
    KernelDef,
    Member,
    Paren,
    Return,
    Stmt,
    StrLit,
    Unary,
    VectorCtor,
    While,
    parse_source,
    type_sizeof,
)

INF = float("inf")

# ---------------------------------------------------------------------------
# Symbolic expressions
# ---------------------------------------------------------------------------


class SymExpr:
    """Base class of the symbolic endpoint language."""


@dataclass(frozen=True)
class Const(SymExpr):
    """A numeric constant (possibly ±inf)."""

    value: float

    def __str__(self) -> str:
        if math.isfinite(self.value) and self.value == int(self.value):
            return str(int(self.value))
        return str(self.value)


@dataclass(frozen=True)
class Sym(SymExpr):
    """A named symbol: a scalar kernel argument or an NDRange size."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SBin(SymExpr):
    """A binary operation on symbolic endpoints."""

    op: str
    lhs: SymExpr
    rhs: SymExpr

    def __str__(self) -> str:
        return f"({self.lhs} {self.op} {self.rhs})"


@dataclass(frozen=True)
class SMin(SymExpr):
    """Minimum of symbolic endpoints."""

    args: tuple[SymExpr, ...]

    def __str__(self) -> str:
        return "min(" + ", ".join(str(a) for a in self.args) + ")"


@dataclass(frozen=True)
class SMax(SymExpr):
    """Maximum of symbolic endpoints."""

    args: tuple[SymExpr, ...]

    def __str__(self) -> str:
        return "max(" + ", ".join(str(a) for a in self.args) + ")"


NEG_INF_E = Const(-INF)
POS_INF_E = Const(INF)
ZERO = Const(0)
ONE = Const(1)


def _num_mul(a: float, b: float) -> float:
    """Multiplication with the interval convention ``0 * inf == 0``."""
    if a == 0 or b == 0:
        return 0
    return a * b


def _num_div(a: float, b: float) -> float:
    """C-style truncating division, inf-safe."""
    if b == 0:
        return INF if a >= 0 else -INF
    if abs(a) == INF or abs(b) == INF:
        q = a / b if abs(b) != INF else 0.0
        return q
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


_NUM_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": _num_mul,
    "/": _num_div,
    "%": lambda a, b: a - _num_mul(_num_div(a, b), b)
    if abs(a) != INF and b else INF,
    "<<": lambda a, b: _num_mul(a, 2 ** b),
    ">>": lambda a, b: _num_div(a, 2 ** b),
}


def sym_eval(expr: SymExpr, env: dict[str, float]) -> float:
    """Evaluate a symbolic endpoint with concrete launch values."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Sym):
        if expr.name not in env:
            raise CLSourceError(
                f"unbound symbol {expr.name!r} while evaluating a static "
                f"footprint (missing scalar in the launch model?)"
            )
        return env[expr.name]
    if isinstance(expr, SBin):
        return _NUM_OPS[expr.op](sym_eval(expr.lhs, env),
                                 sym_eval(expr.rhs, env))
    if isinstance(expr, SMin):
        return min(sym_eval(a, env) for a in expr.args)
    if isinstance(expr, SMax):
        return max(sym_eval(a, env) for a in expr.args)
    raise TypeError(f"unknown symbolic node {type(expr).__name__}")


def _fold(op: str, lhs: SymExpr, rhs: SymExpr) -> SymExpr:
    """Build ``lhs op rhs`` with light constant folding."""
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        return Const(_NUM_OPS[op](lhs.value, rhs.value))
    if op == "+":
        if lhs == ZERO:
            return rhs
        if rhs == ZERO:
            return lhs
    if op == "-" and rhs == ZERO:
        return lhs
    if op == "*":
        if lhs == ONE:
            return rhs
        if rhs == ONE:
            return lhs
        if lhs == ZERO or rhs == ZERO:
            return ZERO
        if isinstance(lhs, Const) and abs(lhs.value) == INF:
            return lhs if isinstance(rhs, Const) else SBin(op, lhs, rhs)
    return SBin(op, lhs, rhs)


def s_add(a: SymExpr, b: SymExpr) -> SymExpr:
    """Symbolic addition with folding."""
    return _fold("+", a, b)


def s_sub(a: SymExpr, b: SymExpr) -> SymExpr:
    """Symbolic subtraction with folding."""
    return _fold("-", a, b)


def s_mul(a: SymExpr, b: SymExpr) -> SymExpr:
    """Symbolic multiplication with folding."""
    return _fold("*", a, b)


def s_min(*args: SymExpr) -> SymExpr:
    """Symbolic minimum; collapses infinities and nested mins."""
    flat: list[SymExpr] = []
    for a in args:
        if isinstance(a, SMin):
            flat.extend(a.args)
        else:
            flat.append(a)
    consts = [a for a in flat if isinstance(a, Const)]
    others = [a for a in flat if not isinstance(a, Const)]
    if consts:
        low = min(c.value for c in consts)
        if low == -INF or not others:
            return Const(low)
        others.append(Const(low))
    seen: list[SymExpr] = []
    for a in others:
        if a not in seen:
            seen.append(a)
    if len(seen) == 1:
        return seen[0]
    return SMin(tuple(seen))


def s_max(*args: SymExpr) -> SymExpr:
    """Symbolic maximum; collapses infinities and nested maxes."""
    flat: list[SymExpr] = []
    for a in args:
        if isinstance(a, SMax):
            flat.extend(a.args)
        else:
            flat.append(a)
    consts = [a for a in flat if isinstance(a, Const)]
    others = [a for a in flat if not isinstance(a, Const)]
    if consts:
        high = max(c.value for c in consts)
        if high == INF or not others:
            return Const(high)
        others.append(Const(high))
    seen: list[SymExpr] = []
    for a in others:
        if a not in seen:
            seen.append(a)
    if len(seen) == 1:
        return seen[0]
    return SMax(tuple(seen))


# ---------------------------------------------------------------------------
# Dependency lattice (stride classification)
# ---------------------------------------------------------------------------

#: Dependence of a value on the work-item index:
#: ``("uniform",)`` — identical for all work items;
#: ``("affine", c)`` — base + c * work-item id;
#: ``("nonlinear",)`` — varies, but not affinely;
#: ``("indirect",)`` — derived from a memory load.
Dep = tuple

UNIFORM: Dep = ("uniform",)
NONLINEAR: Dep = ("nonlinear",)
INDIRECT: Dep = ("indirect",)

_DEP_RANK = {"uniform": 0, "affine": 1, "nonlinear": 2, "indirect": 3}


def affine(coeff: int) -> Dep:
    """An affine dependence with the given work-item coefficient."""
    return ("affine", coeff) if coeff else UNIFORM


def dep_rank(dep: Dep) -> int:
    """Lattice rank (higher = less structured)."""
    return _DEP_RANK[dep[0]]


def dep_add(a: Dep, b: Dep, negate_b: bool = False) -> Dep:
    """Dependence of ``a + b`` (or ``a - b`` with ``negate_b``)."""
    if INDIRECT in (a, b):
        return INDIRECT
    if a[0] == "nonlinear" or b[0] == "nonlinear":
        return NONLINEAR
    ca = a[1] if a[0] == "affine" else 0
    cb = b[1] if b[0] == "affine" else 0
    return affine(ca + (-cb if negate_b else cb))


def dep_mul(a: Dep, b: Dep, a_const: float | None,
            b_const: float | None) -> Dep:
    """Dependence of ``a * b``; ``*_const`` is the operand's value when
    it is a compile-time constant."""
    if INDIRECT in (a, b):
        return INDIRECT
    if a == UNIFORM and b == UNIFORM:
        return UNIFORM
    if a[0] == "affine" and b == UNIFORM and b_const is not None:
        return affine(int(a[1] * b_const))
    if b[0] == "affine" and a == UNIFORM and a_const is not None:
        return affine(int(b[1] * a_const))
    return NONLINEAR


def dep_join(a: Dep, b: Dep) -> Dep:
    """Least upper bound of two dependences."""
    if a == b:
        return a
    if dep_rank(a) < dep_rank(b):
        a, b = b, a
    if a[0] == "affine" and b[0] == "affine":
        return a if a == b else NONLINEAR
    if a[0] == "affine" and b == UNIFORM:
        return NONLINEAR  # joining a varying with a uniform value
    return a


def dep_other(a: Dep, b: Dep) -> Dep:
    """Dependence through a non-affine operator (div, mod, shift, ...)."""
    if INDIRECT in (a, b):
        return INDIRECT
    if a == UNIFORM and b == UNIFORM:
        return UNIFORM
    return NONLINEAR


def stride_class(dep: Dep) -> str:
    """Map a dependence to the reported stride class."""
    if dep == UNIFORM:
        return "uniform"
    if dep[0] == "affine":
        return "unit" if dep[1] in (1, -1) else "strided"
    if dep[0] == "nonlinear":
        return "strided"
    return "indirect"


_STRIDE_RANK = {"uniform": 0, "unit": 1, "strided": 2, "indirect": 3}


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A symbolic interval ``[lo, hi]`` with a work-item dependence."""

    lo: SymExpr
    hi: SymExpr
    dep: Dep = UNIFORM

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"

    @property
    def is_point(self) -> bool:
        """Whether both endpoints are the same expression."""
        return self.lo == self.hi

    def const_value(self) -> float | None:
        """The numeric value when this is a constant point interval."""
        if isinstance(self.lo, Const) and self.lo == self.hi:
            return self.lo.value
        return None


def top(dep: Dep = UNIFORM) -> Interval:
    """The unbounded interval with the given dependence."""
    return Interval(NEG_INF_E, POS_INF_E, dep)


def point(expr: SymExpr, dep: Dep = UNIFORM) -> Interval:
    """A single-valued interval."""
    return Interval(expr, expr, dep)


def iv_add(a: Interval, b: Interval) -> Interval:
    """``a + b``."""
    return Interval(s_add(a.lo, b.lo), s_add(a.hi, b.hi),
                    dep_add(a.dep, b.dep))


def iv_sub(a: Interval, b: Interval) -> Interval:
    """``a - b``."""
    return Interval(s_sub(a.lo, b.hi), s_sub(a.hi, b.lo),
                    dep_add(a.dep, b.dep, negate_b=True))


def iv_mul(a: Interval, b: Interval) -> Interval:
    """``a * b`` (endpoint products via symbolic min/max)."""
    dep = dep_mul(a.dep, b.dep, a.const_value(), b.const_value())
    if a.is_point and b.is_point:
        prod = s_mul(a.lo, b.lo)
        return Interval(prod, prod, dep)
    products = [s_mul(a.lo, b.lo), s_mul(a.lo, b.hi),
                s_mul(a.hi, b.lo), s_mul(a.hi, b.hi)]
    return Interval(s_min(*products), s_max(*products), dep)


def iv_binop(op: str, a: Interval, b: Interval) -> Interval:
    """Apply a C binary operator abstractly."""
    if op == "+":
        return iv_add(a, b)
    if op == "-":
        return iv_sub(a, b)
    if op == "*":
        return iv_mul(a, b)
    dep = dep_other(a.dep, b.dep)
    if op in ("/", "<<", ">>"):
        if a.is_point and b.is_point:
            q = _fold(op, a.lo, b.lo)
            return Interval(q, q, dep)
        combos = [_fold(op, a.lo, b.lo), _fold(op, a.lo, b.hi),
                  _fold(op, a.hi, b.lo), _fold(op, a.hi, b.hi)]
        return Interval(s_min(*combos), s_max(*combos), dep)
    if op == "%":
        # divisor assumed positive (all launch scalars are); a
        # non-negative dividend keeps the C result in [0, b-1]
        lo = ZERO if _nonneg(a.lo) else NEG_INF_E
        return Interval(lo, s_min(a.hi, s_sub(b.hi, ONE)), dep)
    if op == "&":
        # a & mask is in [0, mask] for a non-negative mask
        if _nonneg(b.lo):
            return Interval(ZERO, b.hi, dep)
        if _nonneg(a.lo):
            return Interval(ZERO, a.hi, dep)
        return top(dep)
    if op in ("|", "^"):
        return top(dep)
    if op in ("<", "<=", ">", ">=", "==", "!=", "&&", "||"):
        return Interval(ZERO, ONE, dep)
    return top(dep)


def _nonneg(expr: SymExpr) -> bool:
    """Conservatively, is this endpoint provably >= 0?"""
    if isinstance(expr, Const):
        return expr.value >= 0
    if isinstance(expr, (SMin, SMax)):
        check = all if isinstance(expr, SMin) else any
        return check(_nonneg(a) for a in expr.args)
    return False


def iv_join(a: Interval, b: Interval) -> Interval:
    """Least upper bound (interval hull)."""
    return Interval(s_min(a.lo, b.lo), s_max(a.hi, b.hi),
                    dep_join(a.dep, b.dep))


def iv_neg(a: Interval) -> Interval:
    """``-a``."""
    return Interval(s_sub(ZERO, a.hi), s_sub(ZERO, a.lo),
                    dep_add(UNIFORM, a.dep, negate_b=True))


def iv_min(a: Interval, b: Interval) -> Interval:
    """``min(a, b)`` (the OpenCL built-in)."""
    return Interval(s_min(a.lo, b.lo), s_min(a.hi, b.hi),
                    dep_join(a.dep, b.dep))


def iv_max(a: Interval, b: Interval) -> Interval:
    """``max(a, b)`` (the OpenCL built-in)."""
    return Interval(s_max(a.lo, b.lo), s_max(a.hi, b.hi),
                    dep_join(a.dep, b.dep))


# ---------------------------------------------------------------------------
# Path guards
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Guard:
    """One comparison guarding an access, for per-launch feasibility.

    ``mask`` marks guards inherited from an early-return fall-through
    (``if (cond) return;``): the rest of the kernel runs under the
    negated condition, which partitions the NDRange into active and
    inactive lanes rather than expressing data-dependent control flow.
    Masked guards still gate feasibility and op weighting, but the
    static AIWC stage does not count work behind them as divergent.
    """

    lhs: Interval
    op: str
    rhs: Interval
    mask: bool = False

    def feasible(self, env: dict[str, float]) -> bool:
        """Can any value pair in the operand ranges satisfy the guard?"""
        a1 = sym_eval(self.lhs.lo, env)
        a2 = sym_eval(self.lhs.hi, env)
        b1 = sym_eval(self.rhs.lo, env)
        b2 = sym_eval(self.rhs.hi, env)
        if self.op == "==":
            return max(a1, b1) <= min(a2, b2)
        if self.op == "!=":
            return not (a1 == a2 == b1 == b2)
        if self.op == "<":
            return a1 < b2
        if self.op == "<=":
            return a1 <= b2
        if self.op == ">":
            return a2 > b1
        if self.op == ">=":
            return a2 >= b1
        return True


_NEGATED_CMP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<",
                "==": "!=", "!=": "=="}


# ---------------------------------------------------------------------------
# Abstract interpreter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Access:
    """One abstract memory access of a kernel.

    ``space`` is the address space of the accessed object (``global``
    covers ``__constant`` too; ``local`` covers ``__local`` arrays and
    pointer parameters).  ``epoch`` counts the ``barrier()`` calls seen
    before the access: two accesses with different epochs are separated
    by a work-group barrier and cannot race.  ``weight`` is the
    per-work-item repetition count (the enclosing-loop trip product,
    like :attr:`OpEvent.weight`): the static AIWC stage prices a
    site's traffic as ``min(extent, weight * work_items * elem_size)``
    so a wavefront kernel indexing across the whole matrix is charged
    the bytes it touches, not the span it addresses.
    """

    param: str
    index: Interval
    elem_size: int
    is_write: bool
    guards: tuple[Guard, ...]
    line: int
    space: str = "global"
    epoch: int = 0
    weight: SymExpr = ONE


@dataclass(frozen=True)
class OpEvent:
    """One counted arithmetic operation of a kernel body.

    ``weight`` is the per-work-item repetition count: the symbolic
    product of the trip counts of every enclosing loop (data-dependent
    trips appear as ``__trip<n>`` symbols resolved per launch via
    :attr:`KernelSummary.trip_buffers`).  ``guards`` are the path
    conditions active at the operation — the static AIWC stage scales
    the weight by the satisfied fraction of each guard.  ``chain``
    marks operations on a loop-carried load chain (the CRC/FSM
    table-walk idiom); ``divergent`` marks operations behind
    data-dependent (memory-derived) control flow.
    """

    kind: str  # "fp" | "int"
    weight: SymExpr
    guards: tuple[Guard, ...]
    chain: bool = False
    divergent: bool = False
    line: int = 0


@dataclass
class KernelSummary:
    """The abstract result of interpreting one kernel."""

    kernel: str
    accesses: list[Access] = field(default_factory=list)
    opaque: bool = False  # empty body: nothing to interpret
    uses_barrier: bool = False
    ops: list[OpEvent] = field(default_factory=list)
    #: ``__trip<n>`` symbol -> buffer parameters a data-dependent loop
    #: walks via its loop variable (empty when none was identified).
    #: The static AIWC stage resolves such a trip count as the largest
    #: candidate's element count divided by the launch's total work
    #: items (the "segment partition" heuristic: CSR rows split nnz,
    #: CRC pages split the message, BFS vertices split the edge list).
    trip_buffers: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def strides(self) -> dict[str, str]:
        """Worst stride class per accessed global buffer parameter."""
        out: dict[str, str] = {}
        for access in self.accesses:
            if access.space != "global":
                continue
            cls = stride_class(access.index.dep)
            prev = out.get(access.param)
            if prev is None or _STRIDE_RANK[cls] > _STRIDE_RANK[prev]:
                out[access.param] = cls
        return out


#: Work-item builtin ranges: (lo sym, hi sym template, dep).
_GS = ("__gs0", "__gs1", "__gs2")
_LS = ("__ls0", "__ls1", "__ls2")
_NG = ("__ng0", "__ng1", "__ng2")

#: Binary operators counted as arithmetic work.
_ARITH_OPS = frozenset({"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^"})

#: OpenCL math built-ins counted as one floating-point operation.
_FLOAT_FUNCS = frozenset({
    "sqrt", "rsqrt", "cbrt", "exp", "exp2", "exp10", "expm1",
    "log", "log2", "log10", "log1p", "pow", "powr", "pown",
    "sin", "cos", "tan", "asin", "acos", "atan", "atan2",
    "sinh", "cosh", "tanh", "hypot", "fabs", "floor", "ceil",
    "round", "trunc", "rint", "fract", "fmod", "remainder",
    "fmin", "fmax", "mix", "smoothstep", "step", "sign",
    "erf", "erfc", "tgamma", "lgamma",
})


def _is_float_type(type_name: str) -> bool:
    """Whether a C type spelling names a floating-point scalar/vector."""
    base = type_name.split()[-1] if type_name else ""
    return base.rstrip("0123456789") in ("float", "double", "half")


def _has_inf(expr: SymExpr) -> bool:
    """Whether a symbolic endpoint mentions an infinite constant."""
    if isinstance(expr, Const):
        return not math.isfinite(expr.value)
    if isinstance(expr, SBin):
        return _has_inf(expr.lhs) or _has_inf(expr.rhs)
    if isinstance(expr, (SMin, SMax)):
        return any(_has_inf(a) for a in expr.args)
    return False


class _Interp:
    """One abstract execution of a kernel body."""

    def __init__(self, kernel: KernelDef, macros: dict[str, float]) -> None:
        self.kernel = kernel
        self.env: dict[str, Interval] = {}
        self.arrays: dict[str, Interval] = {}  # declared arrays, one cell
        self.local_arrays: dict[str, int] = {}  # __local array -> elem size
        self.defs: dict[str, tuple[str, str, int]] = {}  # v -> (div, u, c)
        self.buffers = {p.name: p for p in kernel.params if p.is_pointer}
        self.accesses: list[Access] = []
        self.guards: list[Guard] = []
        self.record = True
        self.epoch = 0  # barrier() calls seen so far
        # -- opcode accounting state (static AIWC) ----------------------
        self.ops: list[OpEvent] = []
        self.weight: SymExpr = ONE  # product of enclosing loop trips
        self.chain_depth = 0  # > 0 inside a loop-carried load chain
        self.addr_depth = 0  # > 0 inside an Index subscript
        self.ctl_depth = 0  # > 0 inside loop control (cond/step)
        self.trip_counter = 0
        self.trip_buffers: dict[str, str | None] = {}
        self.float_names: set[str] = {
            p.name for p in kernel.params
            if not p.is_pointer and _is_float_type(p.type_name)
        }
        self.float_buffers: set[str] = {
            p.name for p in kernel.params
            if p.is_pointer and _is_float_type(p.type_name)
        }
        for name, value in macros.items():
            self.env[name] = point(Const(value))
        for p in kernel.params:
            if not p.is_pointer:
                self.env[p.name] = point(Sym(p.name))

    # -- entry ----------------------------------------------------------
    def run(self) -> KernelSummary:
        """Interpret the body and return its access summary."""
        summary = KernelSummary(kernel=self.kernel.name,
                                opaque=not self.kernel.body.stmts)
        self.exec_stmt(self.kernel.body)
        summary.accesses = self.accesses
        summary.uses_barrier = self.epoch > 0
        summary.ops = self.ops
        summary.trip_buffers = dict(self.trip_buffers)
        return summary

    # -- statements -----------------------------------------------------
    def exec_stmt(self, stmt: Stmt) -> bool:
        """Execute one statement; True when it always returns."""
        if isinstance(stmt, Block):
            for inner in stmt.stmts:
                if self.exec_stmt(inner):
                    return True
            return False
        if isinstance(stmt, Decl):
            is_local = any(q.lstrip("_") == "local" for q in stmt.quals)
            if _is_float_type(stmt.type_name):
                for d in stmt.declarators:
                    self.float_names.add(d.name)
            for d in stmt.declarators:
                if d.array_sizes:
                    self.arrays[d.name] = top(UNIFORM)
                    if is_local:
                        self.local_arrays[d.name] = type_sizeof(stmt.type_name)
                elif d.init is not None:
                    value = self.eval(d.init)
                    self.env[d.name] = value
                    self._note_def(d.name, d.init)
                else:
                    self.env[d.name] = top(UNIFORM)
            return False
        if isinstance(stmt, ExprStmt):
            self.eval(stmt.expr)
            return False
        if isinstance(stmt, Return):
            if stmt.value is not None:
                self.eval(stmt.value)
            return True
        if isinstance(stmt, If):
            return self._exec_if(stmt)
        if isinstance(stmt, For):
            self._exec_loop(stmt.init, stmt.cond, stmt.step, stmt.body)
            return False
        if isinstance(stmt, While):
            self._exec_loop(None, stmt.cond, None, stmt.body)
            return False
        raise TypeError(f"unknown statement node {type(stmt).__name__}")

    def _exec_if(self, stmt: If) -> bool:
        self.eval(stmt.cond)  # record any loads in the condition
        then_env, then_guards = self._refined(stmt.cond, negate=False)
        else_env, else_guards = self._refined(stmt.cond, negate=True)

        saved_env, saved_guards = self.env, self.guards
        self.env = then_env
        self.guards = saved_guards + then_guards
        then_ret = self.exec_stmt(stmt.then)
        then_env = self.env

        self.env = else_env
        self.guards = saved_guards + else_guards
        else_ret = False
        if stmt.orelse is not None:
            else_ret = self.exec_stmt(stmt.orelse)
        else_env = self.env

        self.guards = saved_guards
        if then_ret and else_ret:
            self.env = saved_env
            return True
        if then_ret:
            self.env = else_env
            # the fall-through keeps the negated guard (early-return
            # idiom: the rest of the kernel runs under !cond); such
            # guards are lane masks, not data-dependent divergence
            self.guards = saved_guards + [replace(g, mask=True)
                                          for g in else_guards]
            return False
        if else_ret:
            self.env = then_env
            self.guards = saved_guards + [replace(g, mask=True)
                                          for g in then_guards]
            return False
        self.env = self._join_envs(then_env, else_env)
        return False

    def _join_envs(self, a: dict[str, Interval],
                   b: dict[str, Interval]) -> dict[str, Interval]:
        out: dict[str, Interval] = {}
        for key in set(a) | set(b):
            if key in a and key in b:
                out[key] = iv_join(a[key], b[key]) if a[key] != b[key] \
                    else a[key]
            else:
                out[key] = a.get(key) or b[key]
        return out

    def _exec_loop(self, init: Stmt | None, cond: Expr | None,
                   step: Expr | None, body: Stmt) -> None:
        if init is not None:
            self.exec_stmt(init)
        loop_var = self._loop_var(init)
        self.ctl_depth += 1  # loop control is not counted work
        try:
            var_range = self._loop_range(loop_var, cond)
            if loop_var is not None and var_range is not None:
                self.env[loop_var] = var_range
            if cond is not None:
                self.eval(cond)  # loads in the condition count as accesses
        finally:
            self.ctl_depth -= 1

        def rebind() -> None:
            if loop_var is not None and var_range is not None:
                self.env[loop_var] = var_range

        # fixpoint passes without recording, then one recording pass
        saved_record = self.record
        self.record = False
        for _ in range(4):
            before = dict(self.env)
            self.exec_stmt(body)
            if step is not None:
                self.eval(step)
            rebind()
            stable = True
            for key, prev in before.items():
                cur = self.env.get(key, prev)
                joined = iv_join(cur, prev) if cur != prev else prev
                if joined != prev:
                    stable = False
                self.env[key] = joined
            if stable:
                break
        else:
            for key, prev in before.items():
                if self.env.get(key) != prev:
                    self.env[key] = top(self.env[key].dep)
            rebind()
        self.record = saved_record
        if self.record:
            trip = self._trip_expr(loop_var, var_range, step, body)
            chain = self._chain_loop(loop_var, body)
            saved_weight = self.weight
            self.weight = s_mul(saved_weight, trip)
            if chain:
                self.chain_depth += 1
            try:
                self.exec_stmt(body)
            finally:
                if chain:
                    self.chain_depth -= 1
                self.weight = saved_weight
            if step is not None:
                self.ctl_depth += 1
                try:
                    self.eval(step)
                finally:
                    self.ctl_depth -= 1
            rebind()

    def _trip_expr(self, loop_var: str | None, var_range: Interval | None,
                   step: Expr | None, body: Stmt) -> SymExpr:
        """Symbolic trip count of one loop (per enclosing iteration).

        A bounded range yields ``ceil((hi - lo + 1) / step)``; a
        data-dependent range (endpoints fed from memory) yields a fresh
        ``__trip<n>`` symbol resolved per launch via the partitioned
        buffer recorded in :attr:`trip_buffers`.
        """
        if (var_range is not None and not _has_inf(var_range.lo)
                and not _has_inf(var_range.hi)):
            step_amount = self._step_amount(loop_var, step)
            span = s_add(s_sub(var_range.hi, var_range.lo), step_amount)
            return _fold("/", span, step_amount)
        name = f"__trip{self.trip_counter}"
        self.trip_counter += 1
        self.trip_buffers[name] = self._partition_buffer(loop_var, body)
        return Sym(name)

    def _step_amount(self, loop_var: str | None,
                     step: Expr | None) -> SymExpr:
        """The per-iteration increment of the loop variable (default 1)."""
        if loop_var is None or step is None:
            return ONE
        expr = _strip(step)
        if isinstance(expr, Unary) and expr.op in ("++", "--"):
            return ONE
        if isinstance(expr, Assign):
            target = _strip(expr.target)
            if not (isinstance(target, Ident) and target.name == loop_var):
                return ONE
            value: Expr | None = None
            if expr.op in ("+=", "-="):
                value = expr.value
            elif expr.op == "=":
                rhs = _strip(expr.value)
                if isinstance(rhs, Bin) and rhs.op in ("+", "-"):
                    lhs = _strip(rhs.lhs)
                    if isinstance(lhs, Ident) and lhs.name == loop_var:
                        value = rhs.rhs
            if value is not None:
                iv = self.eval_pure(value)
                if iv.is_point and not _has_inf(iv.lo):
                    return iv.lo
        return ONE

    def _partition_buffer(self, loop_var: str | None,
                          body: Stmt) -> tuple[str, ...]:
        """Buffers a data-dependent loop walks via its loop variable."""
        if loop_var is None:
            return ()
        found: list[str] = []
        for stmt in walk_stmts(body):
            for root in stmt_exprs(stmt):
                for node in walk_expr(root):
                    if not isinstance(node, Index):
                        continue
                    base = _strip(node.base)
                    if not (isinstance(base, Ident)
                            and base.name in self.buffers):
                        continue
                    if base.name not in found and any(
                        isinstance(n, Ident) and n.name == loop_var
                        for n in walk_expr(node.index)
                    ):
                        found.append(base.name)
        return tuple(found)

    def _chain_loop(self, loop_var: str | None, body: Stmt) -> bool:
        """Whether the loop body carries a load chain (CRC/FSM idiom):
        a scalar (or private cell) is reassigned from a buffer load
        whose subscript depends on the value being replaced."""
        for stmt in walk_stmts(body):
            for root in stmt_exprs(stmt):
                for node in walk_expr(root):
                    if not isinstance(node, Assign):
                        continue
                    target = _strip(node.target)
                    if isinstance(target, Index):
                        tbase = _strip(target.base)
                        tname = tbase.name \
                            if isinstance(tbase, Ident) else None
                    elif isinstance(target, Ident):
                        tname = target.name
                    else:
                        tname = None
                    if tname is None or tname == loop_var:
                        continue
                    for sub in walk_expr(node.value):
                        if not isinstance(sub, Index):
                            continue
                        sbase = _strip(sub.base)
                        if (isinstance(sbase, Ident)
                                and sbase.name in self.buffers
                                and any(isinstance(n, Ident)
                                        and n.name == tname
                                        for n in walk_expr(sub.index))):
                            return True
        return False

    def _loop_var(self, init: Stmt | None) -> str | None:
        if isinstance(init, Decl) and len(init.declarators) == 1:
            return init.declarators[0].name
        if isinstance(init, ExprStmt):
            expr = init.expr
            if isinstance(expr, Assign) and isinstance(expr.target, Ident):
                return expr.target.name
        return None

    def _loop_range(self, loop_var: str | None,
                    cond: Expr | None) -> Interval | None:
        """``[init, bound]`` for an upward-counting loop variable."""
        if loop_var is None or loop_var not in self.env:
            return None
        init_iv = self.env[loop_var]
        for cmp in self._conjuncts(cond):
            lhs = _strip(cmp.lhs)
            if isinstance(lhs, Ident) and lhs.name == loop_var:
                bound = self.eval(cmp.rhs)
                if cmp.op == "<":
                    hi = s_sub(bound.hi, ONE)
                elif cmp.op == "<=":
                    hi = bound.hi
                else:
                    continue
                return Interval(init_iv.lo, s_max(init_iv.lo, hi),
                                dep_join(init_iv.dep, UNIFORM))
        return None

    def _conjuncts(self, cond: Expr | None) -> list[Bin]:
        """The comparison conjuncts of a (possibly ``&&``-ed) condition."""
        out: list[Bin] = []
        stack = [cond] if cond is not None else []
        while stack:
            node = _strip(stack.pop())
            if isinstance(node, Bin) and node.op == "&&":
                stack.extend((node.lhs, node.rhs))
            elif isinstance(node, Bin) and node.op in _NEGATED_CMP:
                out.append(node)
        return out

    def _note_def(self, name: str, init: Expr) -> None:
        """Remember ``name = u / C`` definitions for branch refinement."""
        expr = _strip(init)
        if isinstance(expr, Bin) and expr.op == "/":
            src = _strip(expr.lhs)
            divisor = self.eval(expr.rhs).const_value()
            if isinstance(src, Ident) and divisor and divisor > 0:
                self.defs[name] = ("div", src.name, int(divisor))

    # -- refinement -----------------------------------------------------
    def _refined(self, cond: Expr, negate: bool,
                 ) -> tuple[dict[str, Interval], list[Guard]]:
        """A copy of the env narrowed by the condition, plus its guards."""
        env = dict(self.env)
        guards: list[Guard] = []
        self._refine_into(env, guards, cond, negate)
        return env, guards

    def _refine_into(self, env: dict[str, Interval], guards: list[Guard],
                     cond: Expr, negate: bool) -> None:
        cond = _strip(cond)
        if isinstance(cond, Unary) and cond.op == "!":
            self._refine_into(env, guards, cond.operand, not negate)
            return
        if isinstance(cond, Bin) and cond.op == "&&" and not negate:
            self._refine_into(env, guards, cond.lhs, False)
            self._refine_into(env, guards, cond.rhs, False)
            return
        if isinstance(cond, Bin) and cond.op == "||" and negate:
            self._refine_into(env, guards, cond.lhs, True)
            self._refine_into(env, guards, cond.rhs, True)
            return
        if not (isinstance(cond, Bin) and cond.op in _NEGATED_CMP):
            if isinstance(cond, Bin) and cond.op in ("&&", "||"):
                return
            # bare truth test: ``if (e)`` means ``e != 0`` (negated: == 0)
            iv = self.eval_pure(cond)
            guards.append(Guard(lhs=iv, op="==" if negate else "!=",
                                rhs=point(ZERO)))
            return
        op = _NEGATED_CMP[cond.op] if negate else cond.op
        lhs_iv = self.eval_pure(cond.lhs)
        rhs_iv = self.eval_pure(cond.rhs)
        guards.append(Guard(lhs=lhs_iv, op=op, rhs=rhs_iv))
        lhs = _strip(cond.lhs)
        rhs = _strip(cond.rhs)
        if isinstance(lhs, Ident) and lhs.name in env:
            self._narrow(env, lhs.name, op, rhs_iv)
        if isinstance(rhs, Ident) and rhs.name in env:
            self._narrow(env, rhs.name, _FLIPPED_CMP[op], lhs_iv)

    def _narrow(self, env: dict[str, Interval], name: str, op: str,
                bound: Interval) -> None:
        iv = env[name]
        if iv.is_point:
            # already exact (scalar params, constants); narrowing only
            # perturbs loop fixpoints into widening.  Guards handle the
            # infeasible-branch case.
            return
        new_lo, new_hi = iv.lo, iv.hi
        if op in ("<", "<="):
            hi = bound.hi if op == "<=" else s_sub(bound.hi, ONE)
            new_hi = s_min(new_hi, hi)
        elif op in (">", ">="):
            lo = bound.lo if op == ">=" else s_add(bound.lo, ONE)
            new_lo = s_max(new_lo, lo)
        elif op == "==":
            new_lo = s_max(new_lo, bound.lo)
            new_hi = s_min(new_hi, bound.hi)
        else:
            return
        env[name] = Interval(new_lo, new_hi, iv.dep)
        # relational step: a bound on v with v = u / C bounds u as well
        definition = self.defs.get(name)
        if definition is not None:
            _, src, divisor = definition
            if src in env:
                src_iv = env[src]
                if op in ("<", "<=", "=="):
                    src_hi = s_sub(s_mul(s_add(new_hi, ONE),
                                         Const(divisor)), ONE)
                    src_iv = Interval(src_iv.lo,
                                      s_min(src_iv.hi, src_hi),
                                      src_iv.dep)
                if op in (">", ">=", "=="):
                    src_lo = s_mul(new_lo, Const(divisor))
                    src_iv = Interval(s_max(src_iv.lo, src_lo),
                                      src_iv.hi, src_iv.dep)
                env[src] = src_iv

    # -- opcode accounting ----------------------------------------------
    def _count_op(self, kind: str, divergent: bool = False,
                  line: int = 0) -> None:
        """Record one op at the current loop weight and guard context.

        Loop-control expressions never count; address arithmetic inside
        subscripts counts only on a load chain, where the address
        computation *is* the dependent work (the CRC table walk).
        """
        if not self.record or self.ctl_depth:
            return
        if self.addr_depth and not self.chain_depth:
            return
        if not divergent:
            divergent = any(
                not g.mask and (dep_rank(g.lhs.dep) >= 2
                                or dep_rank(g.rhs.dep) >= 2)
                for g in self.guards
            )
        self.ops.append(OpEvent(
            kind=kind, weight=self.weight, guards=tuple(self.guards),
            chain=self.chain_depth > 0, divergent=divergent, line=line,
        ))

    def _expr_is_float(self, expr: Expr) -> bool:
        """Pure-AST floating-point classification from declared types."""
        expr = _strip(expr)
        if isinstance(expr, FloatLit):
            return True
        if isinstance(expr, (IntLit, StrLit)):
            return False
        if isinstance(expr, Ident):
            return expr.name in self.float_names
        if isinstance(expr, Index):
            base = _strip(expr.base)
            return isinstance(base, Ident) and (
                base.name in self.float_buffers
                or base.name in self.float_names
            )
        if isinstance(expr, Unary):
            return self._expr_is_float(expr.operand)
        if isinstance(expr, Bin):
            if expr.op in _NEGATED_CMP or expr.op in ("&&", "||"):
                return False  # comparisons and logic yield int
            return (self._expr_is_float(expr.lhs)
                    or self._expr_is_float(expr.rhs))
        if isinstance(expr, Assign):
            return self._expr_is_float(expr.target)
        if isinstance(expr, Cond):
            return (self._expr_is_float(expr.then)
                    or self._expr_is_float(expr.other))
        if isinstance(expr, Call):
            if expr.func in _FLOAT_FUNCS \
                    or expr.func.startswith(("native_", "half_")):
                return True
            if expr.func in ("min", "max", "clamp", "abs", "mad", "fma"):
                return any(self._expr_is_float(a) for a in expr.args)
            if expr.func.startswith("convert_"):
                return _is_float_type(expr.func[len("convert_"):])
            return False
        if isinstance(expr, Cast):
            return _is_float_type(expr.type_name)
        if isinstance(expr, Member):
            return self._expr_is_float(expr.base)
        if isinstance(expr, VectorCtor):
            return (_is_float_type(expr.type_name)
                    or any(self._expr_is_float(a) for a in expr.args))
        return False

    # -- expressions ----------------------------------------------------
    def eval_pure(self, expr: Expr) -> Interval:
        """Evaluate without recording accesses (guard snapshots)."""
        saved = self.record
        self.record = False
        try:
            return self.eval(expr)
        finally:
            self.record = saved

    def eval(self, expr: Expr) -> Interval:
        """Abstractly evaluate an expression."""
        if isinstance(expr, IntLit):
            return point(Const(expr.value))
        if isinstance(expr, FloatLit):
            return point(Const(expr.value))
        if isinstance(expr, StrLit):
            return top(UNIFORM)
        if isinstance(expr, Paren):
            return self.eval(expr.inner)
        if isinstance(expr, Ident):
            if expr.name in self.env:
                return self.env[expr.name]
            if expr.name in self.arrays:
                return self.arrays[expr.name]
            return top(UNIFORM)  # FLT_MAX, CLK_* enums, ...
        if isinstance(expr, Unary):
            return self._eval_unary(expr)
        if isinstance(expr, Bin):
            lhs = self.eval(expr.lhs)
            rhs = self.eval(expr.rhs)
            if expr.op in _ARITH_OPS:
                self._count_op(
                    "fp" if self._expr_is_float(expr) else "int")
            elif expr.op in _NEGATED_CMP:
                self._count_op("int", divergent=(
                    dep_rank(lhs.dep) >= 2 or dep_rank(rhs.dep) >= 2))
            return iv_binop(expr.op, lhs, rhs)
        if isinstance(expr, Assign):
            return self._eval_assign(expr)
        if isinstance(expr, Cond):
            return self._eval_cond(expr)
        if isinstance(expr, Call):
            return self._eval_call(expr)
        if isinstance(expr, Index):
            return self._eval_load(expr)
        if isinstance(expr, Member):
            base = self.eval(expr.base)
            return top(base.dep)
        if isinstance(expr, Cast):
            return self.eval(expr.operand)
        if isinstance(expr, VectorCtor):
            dep: Dep = UNIFORM
            for arg in expr.args:
                dep = dep_join(dep, self.eval(arg).dep)
            return top(dep)
        raise TypeError(f"unknown expression node {type(expr).__name__}")

    def _eval_unary(self, expr: Unary) -> Interval:
        if expr.op in ("++", "--"):
            target = _strip(expr.operand)
            value = self.eval(expr.operand)
            delta = ONE if expr.op == "++" else Const(-1)
            updated = iv_add(value, point(delta))
            if isinstance(target, Ident) and target.name in self.env:
                self.env[target.name] = updated
            self._count_op("int")
            return updated if expr.prefix else value
        value = self.eval(expr.operand)
        if expr.op == "-":
            self._count_op(
                "fp" if self._expr_is_float(expr.operand) else "int")
            return iv_neg(value)
        if expr.op == "+":
            return value
        if expr.op == "!":
            self._count_op("int", divergent=dep_rank(value.dep) >= 2)
            return Interval(ZERO, ONE, value.dep)
        self._count_op("int")
        return top(value.dep)  # ~

    def _eval_assign(self, expr: Assign) -> Interval:
        value = self.eval(expr.value)
        target = _strip(expr.target)
        if expr.op != "=":
            current = self.eval_pure(expr.target) \
                if not isinstance(target, Index) else None
            if isinstance(target, Index):
                current = self._eval_load(target, record=False)
            assert current is not None
            value = iv_binop(expr.op[:-1], current, value)
            self._count_op("fp" if (self._expr_is_float(expr.target)
                                    or self._expr_is_float(expr.value))
                           else "int")
        if isinstance(target, Ident):
            self.env[target.name] = value
            if expr.op == "=":
                self._note_def(target.name, expr.value)
            return value
        if isinstance(target, Index):
            base = _strip(target.base)
            self.addr_depth += 1
            try:
                index = self.eval(target.index)
            finally:
                self.addr_depth -= 1
            if isinstance(base, Ident) and base.name in self.buffers:
                self._record(base.name, index, is_write=True,
                             line=_line_of(target))
            elif isinstance(base, Ident) and base.name in self.arrays:
                if base.name in self.local_arrays:
                    self._record(base.name, index, is_write=True,
                                 line=_line_of(target))
                cell = self.arrays[base.name]
                self.arrays[base.name] = iv_join(cell, value) \
                    if cell != value else cell
            return value
        if isinstance(target, Member):
            base = _strip(target.base)
            if isinstance(base, Ident) and base.name in self.env:
                self.env[base.name] = top(value.dep)
            return value
        return value

    def _eval_cond(self, expr: Cond) -> Interval:
        self.eval(expr.cond)
        then_env, then_guards = self._refined(expr.cond, negate=False)
        else_env, else_guards = self._refined(expr.cond, negate=True)
        saved, saved_guards = self.env, self.guards
        self.env = then_env
        self.guards = saved_guards + then_guards
        then_iv = self.eval(expr.then)
        self.env = else_env
        self.guards = saved_guards + else_guards
        else_iv = self.eval(expr.other)
        self.env, self.guards = saved, saved_guards
        then_iv = self._clamp_by_cond(expr.cond, expr.then, then_iv,
                                      negate=False)
        else_iv = self._clamp_by_cond(expr.cond, expr.other, else_iv,
                                      negate=True)
        return iv_join(then_iv, else_iv)

    def _clamp_by_cond(self, cond: Expr, arm: Expr, iv: Interval,
                       negate: bool) -> Interval:
        """Syntactic refinement: ``(E < B) ? E : ...`` clamps the arm
        that *is* the compared expression (the DWT edge-mirror idiom)."""
        cond = _strip(cond)
        if not (isinstance(cond, Bin) and cond.op in _NEGATED_CMP):
            return iv
        if _strip(arm) != _strip(cond.lhs):
            return iv
        op = _NEGATED_CMP[cond.op] if negate else cond.op
        bound = self.eval_pure(cond.rhs)
        if op == "<":
            return Interval(iv.lo, s_min(iv.hi, s_sub(bound.hi, ONE)),
                            iv.dep)
        if op == "<=":
            return Interval(iv.lo, s_min(iv.hi, bound.hi), iv.dep)
        if op == ">":
            return Interval(s_max(iv.lo, s_add(bound.lo, ONE)), iv.hi,
                            iv.dep)
        if op == ">=":
            return Interval(s_max(iv.lo, bound.lo), iv.hi, iv.dep)
        return iv

    def _eval_call(self, expr: Call) -> Interval:
        args = [self.eval(a) for a in expr.args]
        name = expr.func
        if name in ("mad", "fma") and len(args) == 3:
            self._count_op("fp")
            self._count_op("fp")
        elif name in ("min", "max", "clamp", "abs") and args:
            self._count_op(
                "fp" if any(self._expr_is_float(a) for a in expr.args)
                else "int",
                divergent=any(dep_rank(a.dep) >= 2 for a in args))
        elif name in _FLOAT_FUNCS \
                or name.startswith(("native_", "half_")):
            self._count_op("fp")
        if name in ("get_global_id", "get_local_id", "get_group_id"):
            dim = 0
            if expr.args:
                const = args[0].const_value()
                dim = int(const) if const is not None else 0
            syms = {"get_global_id": _GS, "get_local_id": _LS,
                    "get_group_id": _NG}[name]
            hi = s_sub(Sym(syms[dim]), ONE)
            return Interval(ZERO, hi, affine(1))
        if name == "get_global_size":
            dim = int(args[0].const_value() or 0) if args else 0
            return point(Sym(_GS[dim]))
        if name == "get_local_size":
            dim = int(args[0].const_value() or 0) if args else 0
            return point(Sym(_LS[dim]))
        if name == "get_num_groups":
            dim = int(args[0].const_value() or 0) if args else 0
            return point(Sym(_NG[dim]))
        if name == "min" and len(args) == 2:
            return iv_min(args[0], args[1])
        if name == "max" and len(args) == 2:
            return iv_max(args[0], args[1])
        if name == "clamp" and len(args) == 3:
            return iv_min(iv_max(args[0], args[1]), args[2])
        if name == "abs" and len(args) == 1:
            return iv_max(args[0], iv_neg(args[0]))
        if name in ("barrier", "work_group_barrier"):
            # accesses before and after a work-group barrier are in
            # different epochs and cannot race with each other
            self.epoch += 1
            return top(UNIFORM)
        dep: Dep = UNIFORM
        for arg in args:
            dep = dep_join(dep, arg.dep)
        return top(dep)  # math built-ins, barrier, ...

    def _eval_load(self, expr: Index, record: bool = True) -> Interval:
        base = _strip(expr.base)
        self.addr_depth += 1
        try:
            index = self.eval(expr.index)
        finally:
            self.addr_depth -= 1
        if isinstance(base, Ident) and base.name in self.buffers:
            if record:
                self._record(base.name, index, is_write=False,
                             line=_line_of(expr))
            return top(INDIRECT)
        if isinstance(base, Ident) and base.name in self.arrays:
            if record and base.name in self.local_arrays:
                self._record(base.name, index, is_write=False,
                             line=_line_of(expr))
            return self.arrays[base.name]
        self.eval(expr.base)
        return top(INDIRECT)

    def _record(self, param: str, index: Interval, is_write: bool,
                line: int) -> None:
        if not self.record:
            return
        if param in self.buffers:
            buf = self.buffers[param]
            elem_size = type_sizeof(buf.type_name)
            space = "local" if buf.address_space == "local" else "global"
        else:
            elem_size = self.local_arrays[param]
            space = "local"
        self.accesses.append(Access(
            param=param, index=index, elem_size=elem_size,
            is_write=is_write, guards=tuple(self.guards), line=line,
            space=space, epoch=self.epoch, weight=self.weight,
        ))


_FLIPPED_CMP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                "==": "==", "!=": "!="}


def _strip(expr: Expr) -> Expr:
    """Remove redundant parentheses."""
    while isinstance(expr, Paren):
        expr = expr.inner
    return expr


def _line_of(expr: Expr) -> int:
    """Best-effort source line for an access (via an embedded call)."""
    if isinstance(expr, Call):
        return expr.line
    return 0


def interpret_kernel(kernel: KernelDef,
                     macros: dict[str, float] | None = None) -> KernelSummary:
    """Abstractly interpret one kernel under the given build macros."""
    with get_tracer().span("absint_interpret", phase="absint",
                           kernel=kernel.name):
        return _Interp(kernel, macros or {}).run()


# ---------------------------------------------------------------------------
# One IR per launch model
# ---------------------------------------------------------------------------

#: Distinct (source, macros) keys the :func:`model_ir` memo keeps
#: (least recently used first out).  A full ``lint --deep --traces
#: --aiwc`` run needs 27.
IR_MEMO_SIZE = 32


@dataclass(frozen=True)
class ModelIR:
    """A launch model's source, parsed and interpreted once (read-only)."""

    kernels: tuple[KernelDef, ...]  # in source order
    summaries: dict[str, KernelSummary]  # kernel name -> summary

    def summary(self, name: str) -> KernelSummary:
        """The summary of the kernel a launch names."""
        try:
            return self.summaries[name]
        except KeyError:
            raise CLSourceError(
                f"launch model references unknown kernel {name!r}"
            ) from None


@functools.lru_cache(maxsize=IR_MEMO_SIZE)
def _build_ir(source: str, macros: tuple[tuple[str, float], ...]) -> ModelIR:
    kernels = tuple(parse_source(source).kernels)
    return ModelIR(kernels, {k.name: interpret_kernel(k, dict(macros))
                             for k in kernels})


def model_ir(model: "object") -> ModelIR:
    """The IR of a :class:`~repro.dwarfs.base.StaticLaunchModel`.

    Parses the source once and interprets every kernel once under the
    model's macros exactly as given (no numeric cast), memoized on the
    source text plus the sorted macros.  Raises
    :class:`~repro.ocl.clsource.CLSourceError` when the source does not
    parse.
    """
    macros = tuple(sorted(model.macros.items()))  # type: ignore[attr-defined]
    return _build_ir(model.source, macros)  # type: ignore[attr-defined]


def clear_ir_memo() -> None:
    """Drop every memoized :func:`model_ir` result."""
    _build_ir.cache_clear()


# ---------------------------------------------------------------------------
# Launch-model evaluation: the §4.4 working-set cross-check
# ---------------------------------------------------------------------------

#: Bytes of per-buffer disagreement tolerated by the cross-check
#: (sub-buffer alignment padding; see docs/analysis.md).
SLACK_PER_BUFFER = 64


@dataclass
class StaticFootprint:
    """Per-buffer extents derived by abstract interpretation."""

    per_buffer: dict[str, int]
    fallbacks: tuple[str, ...]  # buffers priced at their declared size
    strides: dict[str, dict[str, str]]  # kernel -> param -> class
    symbolic: dict[str, dict[str, str]]  # kernel -> param -> index range

    @property
    def total_bytes(self) -> int:
        """The static working-set estimate for the whole model."""
        return sum(self.per_buffer.values())


@dataclass
class FootprintComparison:
    """Static-vs-runtime working-set comparison for one benchmark/size."""

    benchmark: str
    size: str
    static_bytes: int
    runtime_bytes: int
    slack_bytes: int
    per_buffer: dict[str, int]
    fallbacks: tuple[str, ...]

    @property
    def delta(self) -> int:
        """Signed static-minus-runtime difference in bytes."""
        return self.static_bytes - self.runtime_bytes

    @property
    def ok(self) -> bool:
        """Whether the two working sets agree within the slack."""
        return abs(self.delta) <= self.slack_bytes


def _launch_env(launch: "object") -> dict[str, float]:
    """Numeric symbol environment for one launch."""
    env: dict[str, float] = {}
    for name, value in launch.scalars.items():  # type: ignore[attr-defined]
        env[name] = float(value)
    gsize = tuple(launch.global_size)  # type: ignore[attr-defined]
    lsize = launch.local_size  # type: ignore[attr-defined]
    gs = gsize + (1,) * (3 - len(gsize))
    if lsize is None:
        # the NDRange default: groups of up to 64 along dimension 0
        ls = (min(64, gs[0]) or 1, 1, 1)
    else:
        padded = tuple(lsize) + (1,) * (3 - len(lsize))
        ls = (padded[0] or 1, padded[1] or 1, padded[2] or 1)
    for dim in range(3):
        env[_GS[dim]] = float(gs[dim])
        env[_LS[dim]] = float(ls[dim])
        env[_NG[dim]] = float(-(-gs[dim] // ls[dim]))
    return env


def static_footprint(model: "object") -> StaticFootprint:
    """Evaluate a :class:`~repro.dwarfs.base.StaticLaunchModel`.

    Every launch substitutes its scalars and NDRange into the symbolic
    access ranges of its kernel; per-buffer extents are the maximum
    touched byte over all launches.  A buffer whose index bound is
    unbounded (indirect addressing) or that only a body-less kernel
    binds is priced at its declared size, as is a buffer the kernels
    never see (host-side staging).
    """
    with get_tracer().span("absint_static_footprint", phase="absint"):
        return _static_footprint(model)


def _static_footprint(model: "object") -> StaticFootprint:
    """The :func:`static_footprint` evaluation, outside its phase span."""
    ir = model_ir(model)
    computed: dict[str, int] = {key: 0 for key in model.buffers}  # type: ignore[attr-defined]
    fallback: set[str] = set()
    strides: dict[str, dict[str, str]] = {}
    symbolic: dict[str, dict[str, str]] = {}

    for launch in model.launches:  # type: ignore[attr-defined]
        name = launch.kernel
        summary = ir.summary(name)
        if name not in strides:
            strides[name] = summary.strides()
            symbolic[name] = {a.param: str(a.index)
                              for a in summary.accesses}
        if summary.opaque:
            # nothing to interpret: price every bound buffer at its
            # declared size
            for key, _offset in launch.buffers.values():
                fallback.add(key)
            continue
        env = _launch_env(launch)
        for access in summary.accesses:
            bound = launch.buffers.get(access.param)
            if bound is None:
                continue
            key, offset = bound
            if not all(g.feasible(env) for g in access.guards):
                continue
            hi = sym_eval(access.index.hi, env)
            if not math.isfinite(hi):
                fallback.add(key)
                continue
            if hi < 0:
                continue
            extent = offset + (int(hi) + 1) * access.elem_size
            if extent > computed[key]:
                computed[key] = extent

    per_buffer: dict[str, int] = {}
    for key, buf in model.buffers.items():  # type: ignore[attr-defined]
        if key in fallback or not buf.kernel_bound:
            per_buffer[key] = max(buf.nbytes, computed.get(key, 0))
        else:
            per_buffer[key] = computed.get(key, 0)
    return StaticFootprint(
        per_buffer=per_buffer,
        fallbacks=tuple(sorted(fallback)),
        strides=strides,
        symbolic=symbolic,
    )


def verify_benchmark_footprint(
    name: str, size: str
) -> FootprintComparison | None:
    """Cross-check one benchmark's static vs runtime working set.

    Returns ``None`` when the benchmark has no such size preset or
    declares no static launch model.  The comparison's ``ok`` property
    is the §4.4 acceptance test: agreement within
    :data:`SLACK_PER_BUFFER` bytes per buffer.
    """
    from ..dwarfs import registry

    cls = registry.get_benchmark(name)
    if size not in cls.presets:
        return None
    bench = cls.from_size(size)
    model = bench.static_launches()
    if model is None:
        return None
    static = static_footprint(model)
    runtime = bench.footprint_bytes()
    return FootprintComparison(
        benchmark=name,
        size=size,
        static_bytes=static.total_bytes,
        runtime_bytes=runtime,
        slack_bytes=SLACK_PER_BUFFER * len(model.buffers),
        per_buffer=static.per_buffer,
        fallbacks=static.fallbacks,
    )


def benchmark_strides(name: str, size: str | None = None,
                      ) -> dict[str, dict[str, str]]:
    """Per-kernel, per-parameter stride classes for one benchmark."""
    from ..dwarfs import registry

    cls = registry.get_benchmark(name)
    sizes = cls.available_sizes()
    chosen = size if size in sizes else sizes[0]
    bench = cls.from_size(chosen)
    model = bench.static_launches()
    if model is None:
        return {}
    return static_footprint(model).strides
