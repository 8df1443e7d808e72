"""Control-flow graphs and dataflow checks over the kernel AST.

Second stage of the kernel IR pipeline: each :class:`KernelDef` from
:mod:`repro.analysis.frontend` is lowered to a per-statement CFG with
ENTRY/EXIT nodes, on which the module computes dominators,
post-dominators, reachability, and an *exact* barrier-divergence
analysis.

Barrier divergence is decided by control dependence rather than a
textual heuristic: a node is *divergently executed* iff it is
control-dependent on a branch whose condition is work-item dependent
(tainted by ``get_global_id``/``get_local_id``/``get_group_id`` or by a
memory load), or on a branch that is itself divergently executed.  A
``barrier()`` that post-dominates both arms of a divergent ``if`` — the
``nw_diagonal`` pattern — is therefore correctly accepted, while a
barrier *inside* the divergent arm is flagged.

The module also hosts the AST-level dataflow checks that need no
abstract domains: definite-assignment (``uninit-local-var``),
constant-index bounds (``constant-index-oob``), AST use-def for
``unused-param`` and subscripted stores for ``constant-write``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
)

#: Built-ins whose value differs between work items of one work group.
WORK_ITEM_FUNCS = frozenset({
    "get_global_id", "get_local_id", "get_group_id",
})

#: Built-ins that are uniform across a work group.
UNIFORM_FUNCS = frozenset({
    "get_global_size", "get_local_size", "get_num_groups",
    "get_work_dim", "get_global_offset",
})


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------


@dataclass
class CFGNode:
    """One CFG node: a statement, a branch condition, or ENTRY/EXIT."""

    id: int
    kind: str  # "entry" | "exit" | "stmt" | "branch"
    stmt: Stmt | None = None
    expr: Expr | None = None  # the condition, for branch nodes
    line: int = 0
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)


class CFG:
    """A kernel's control-flow graph with ENTRY (id 0) and EXIT (id 1)."""

    def __init__(self, kernel: KernelDef) -> None:
        self.kernel = kernel
        self.nodes: list[CFGNode] = [
            CFGNode(id=0, kind="entry"),
            CFGNode(id=1, kind="exit"),
        ]
        fringe = self._build_stmts(kernel.body.stmts, {0})
        for node_id in fringe:
            self._edge(node_id, 1)

    # -- construction ---------------------------------------------------
    def _new(self, kind: str, stmt: Stmt | None = None,
             expr: Expr | None = None, line: int = 0) -> int:
        node = CFGNode(id=len(self.nodes), kind=kind, stmt=stmt,
                       expr=expr, line=line)
        self.nodes.append(node)
        return node.id

    def _edge(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succs:
            self.nodes[src].succs.append(dst)
            self.nodes[dst].preds.append(src)

    def _build_stmts(self, stmts: list[Stmt], fringe: set[int]) -> set[int]:
        """Lower a statement list; returns the fall-through fringe."""
        for stmt in stmts:
            fringe = self._build_stmt(stmt, fringe)
        return fringe

    def _build_stmt(self, stmt: Stmt, fringe: set[int]) -> set[int]:
        if isinstance(stmt, Block):
            return self._build_stmts(stmt.stmts, fringe)
        if isinstance(stmt, (Decl, ExprStmt)):
            node = self._new("stmt", stmt=stmt, line=stmt.line)
            for p in fringe:
                self._edge(p, node)
            return {node}
        if isinstance(stmt, Return):
            node = self._new("stmt", stmt=stmt, line=stmt.line)
            for p in fringe:
                self._edge(p, node)
            self._edge(node, 1)
            return set()
        if isinstance(stmt, If):
            cond = self._new("branch", stmt=stmt, expr=stmt.cond,
                             line=stmt.line)
            for p in fringe:
                self._edge(p, cond)
            then_fringe = self._build_stmt(stmt.then, {cond})
            if stmt.orelse is not None:
                else_fringe = self._build_stmt(stmt.orelse, {cond})
            else:
                else_fringe = {cond}
            return then_fringe | else_fringe
        if isinstance(stmt, For):
            if stmt.init is not None:
                fringe = self._build_stmt(stmt.init, fringe)
            cond = self._new("branch", stmt=stmt, expr=stmt.cond,
                             line=stmt.line)
            for p in fringe:
                self._edge(p, cond)
            body_fringe = self._build_stmt(stmt.body, {cond})
            if stmt.step is not None:
                step = self._new("stmt",
                                 stmt=ExprStmt(expr=stmt.step,
                                               line=stmt.line),
                                 line=stmt.line)
                for p in body_fringe:
                    self._edge(p, step)
                body_fringe = {step}
            for p in body_fringe:
                self._edge(p, cond)  # back edge
            # the false edge falls through; an omitted condition means
            # the loop only exits via return
            return {cond} if stmt.cond is not None else set()
        if isinstance(stmt, While):
            cond = self._new("branch", stmt=stmt, expr=stmt.cond,
                             line=stmt.line)
            for p in fringe:
                self._edge(p, cond)
            body_fringe = self._build_stmt(stmt.body, {cond})
            for p in body_fringe:
                self._edge(p, cond)
            return {cond}
        raise TypeError(f"unknown statement node {type(stmt).__name__}")

    # -- analyses -------------------------------------------------------
    def reachable(self) -> set[int]:
        """Node ids reachable from ENTRY."""
        seen: set[int] = set()
        stack = [0]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.nodes[node].succs)
        return seen

    def dominators(self) -> dict[int, set[int]]:
        """Iterative dominator sets: ``dom[n]`` contains ``n``."""
        return self._dom_sets(root=0, forward=True)

    def postdominators(self) -> dict[int, set[int]]:
        """Iterative post-dominator sets over the reversed graph."""
        return self._dom_sets(root=1, forward=False)

    def _dom_sets(self, root: int, forward: bool) -> dict[int, set[int]]:
        everything = set(range(len(self.nodes)))
        dom = {n: set(everything) for n in everything}
        dom[root] = {root}
        changed = True
        while changed:
            changed = False
            for node in self.nodes:
                if node.id == root:
                    continue
                edges = node.preds if forward else node.succs
                incoming = [dom[p] for p in edges]
                new = set.intersection(*incoming) if incoming else set()
                new = new | {node.id}
                if new != dom[node.id]:
                    dom[node.id] = new
                    changed = True
        return dom

    def control_dependencies(self) -> dict[int, set[int]]:
        """Map node -> the branch nodes it is control-dependent on.

        ``N`` is control-dependent on branch ``C`` iff ``N``
        post-dominates some successor of ``C`` but does not strictly
        post-dominate ``C`` itself (Ferrante et al.).
        """
        pdom = self.postdominators()
        deps: dict[int, set[int]] = {n.id: set() for n in self.nodes}
        for branch in self.nodes:
            if branch.kind != "branch" or len(branch.succs) < 2:
                continue
            strict = pdom[branch.id] - {branch.id}
            for succ in branch.succs:
                for node_id in range(len(self.nodes)):
                    # N postdominates a successor of C but not C itself
                    if node_id in pdom[succ] and node_id not in strict:
                        deps[node_id].add(branch.id)
        return deps


def build_cfg(kernel: KernelDef) -> CFG:
    """Lower one kernel definition to its control-flow graph."""
    return CFG(kernel)


# ---------------------------------------------------------------------------
# Expression walking helpers
# ---------------------------------------------------------------------------


def walk_expr(expr: Expr | None) -> list[Expr]:
    """Pre-order list of every node in an expression tree."""
    if expr is None:
        return []
    out: list[Expr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, Paren):
            stack.append(node.inner)
        elif isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, Bin):
            stack.extend((node.lhs, node.rhs))
        elif isinstance(node, Assign):
            stack.extend((node.target, node.value))
        elif isinstance(node, Cond):
            stack.extend((node.cond, node.then, node.other))
        elif isinstance(node, (Call, VectorCtor)):
            stack.extend(node.args)
        elif isinstance(node, Index):
            stack.extend((node.base, node.index))
        elif isinstance(node, Member):
            stack.append(node.base)
        elif isinstance(node, Cast):
            stack.append(node.operand)
    return out


def stmt_exprs(stmt: Stmt) -> list[Expr]:
    """Every expression appearing directly in one statement (not nested
    statements)."""
    if isinstance(stmt, Decl):
        out: list[Expr] = []
        for d in stmt.declarators:
            out.extend(d.array_sizes)
            if d.init is not None:
                out.append(d.init)
        return out
    if isinstance(stmt, ExprStmt):
        return [stmt.expr]
    if isinstance(stmt, Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, If):
        return [stmt.cond]
    if isinstance(stmt, For):
        return [e for e in (stmt.cond, stmt.step) if e is not None]
    if isinstance(stmt, While):
        return [stmt.cond]
    return []


def walk_stmts(stmt: Stmt) -> list[Stmt]:
    """Pre-order list of every statement node under ``stmt``."""
    out: list[Stmt] = [stmt]
    if isinstance(stmt, Block):
        for inner in stmt.stmts:
            out.extend(walk_stmts(inner))
    elif isinstance(stmt, If):
        out.extend(walk_stmts(stmt.then))
        if stmt.orelse is not None:
            out.extend(walk_stmts(stmt.orelse))
    elif isinstance(stmt, For):
        if stmt.init is not None:
            out.extend(walk_stmts(stmt.init))
        out.extend(walk_stmts(stmt.body))
    elif isinstance(stmt, While):
        out.extend(walk_stmts(stmt.body))
    return out


def used_names(kernel: KernelDef) -> set[str]:
    """Every identifier the kernel body mentions (AST use-def).

    Names inside comments or string literals are not uses: they never
    become :class:`Ident` nodes.
    """
    names: set[str] = set()
    for stmt in walk_stmts(kernel.body):
        for root in stmt_exprs(stmt):
            for node in walk_expr(root):
                if isinstance(node, Ident):
                    names.add(node.name)
    return names


def stored_arrays(kernel: KernelDef) -> set[str]:
    """Names the kernel body stores through by subscript.

    A store is an assignment (plain or compound), ``++`` or ``--``
    whose target is ``name[...]``.
    """
    names: set[str] = set()
    for stmt in walk_stmts(kernel.body):
        for root in stmt_exprs(stmt):
            for node in walk_expr(root):
                if isinstance(node, Assign):
                    target = node.target
                elif isinstance(node, Unary) and node.op in ("++", "--"):
                    target = node.operand
                else:
                    continue
                while isinstance(target, Paren):
                    target = target.inner
                if isinstance(target, Index) and isinstance(target.base, Ident):
                    names.add(target.base.name)
    return names


def _contains_barrier(stmt: Stmt) -> int | None:
    """Line of a ``barrier()`` call directly in this statement, or None."""
    for root in stmt_exprs(stmt):
        for node in walk_expr(root):
            if isinstance(node, Call) and node.func == "barrier":
                return node.line or getattr(stmt, "line", 0)
    return None


# ---------------------------------------------------------------------------
# Divergence analysis
# ---------------------------------------------------------------------------


def _tainted_names(kernel: KernelDef) -> set[str]:
    """Flow-insensitive taint: names whose value may differ per work item.

    Seeds are the work-item id built-ins and memory loads (different
    work items generally load different addresses); taint propagates
    through assignments and declarations to a fixpoint.
    """
    assigns: list[tuple[str, Expr]] = []
    for stmt in walk_stmts(kernel.body):
        if isinstance(stmt, Decl):
            for d in stmt.declarators:
                if d.init is not None:
                    assigns.append((d.name, d.init))
        for root in stmt_exprs(stmt):
            for node in walk_expr(root):
                if isinstance(node, Assign):
                    target = node.target
                    while isinstance(target, Paren):
                        target = target.inner
                    if isinstance(target, Ident):
                        assigns.append((target.name, node.value))

    tainted: set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, value in assigns:
            if name not in tainted and expr_tainted(value, tainted):
                tainted.add(name)
                changed = True
    return tainted


def expr_tainted(expr: Expr, tainted: set[str]) -> bool:
    """Whether an expression's value may differ between work items."""
    for node in walk_expr(expr):
        if isinstance(node, Call) and node.func in WORK_ITEM_FUNCS:
            return True
        if isinstance(node, Index):
            return True  # a memory load
        if isinstance(node, Ident) and node.name in tainted:
            return True
        if isinstance(node, Unary) and node.op in ("++", "--"):
            target = node.operand
            while isinstance(target, Paren):
                target = target.inner
            if isinstance(target, Ident) and target.name in tainted:
                return True
    return False


def divergent_barriers(kernel: KernelDef, cfg: CFG | None = None,
                       ) -> list[int]:
    """Lines of barriers reached under divergent control flow (exact).

    Computes the least fixpoint of: *node N is divergently executed iff
    it is control-dependent on a branch C whose condition is tainted,
    or on a branch that is itself divergently executed.*  Barriers in
    the divergent set are reported.
    """
    if cfg is None:
        cfg = build_cfg(kernel)
    tainted = _tainted_names(kernel)
    deps = cfg.control_dependencies()
    tainted_branches = {
        node.id
        for node in cfg.nodes
        if node.kind == "branch" and node.expr is not None
        and expr_tainted(node.expr, tainted)
    }
    divergent: set[int] = set()
    changed = True
    while changed:
        changed = False
        for node in cfg.nodes:
            if node.id in divergent:
                continue
            for branch_id in deps[node.id]:
                if branch_id in tainted_branches or branch_id in divergent:
                    divergent.add(node.id)
                    changed = True
                    break
    lines: list[int] = []
    for node in cfg.nodes:
        if node.id in divergent and node.stmt is not None:
            line = _contains_barrier(node.stmt)
            if line is not None:
                lines.append(line)
    return sorted(set(lines))


def _load_tainted_names(kernel: KernelDef) -> set[str]:
    """Names whose value may derive from a memory load (data taint).

    Unlike :func:`_tainted_names` this does **not** seed from the
    work-item id built-ins: a branch on ``get_global_id`` partitions
    the NDRange deterministically, while a branch on loaded data is
    genuinely input-dependent.  The static AIWC stage uses the
    distinction to bound branch entropy.
    """
    assigns: list[tuple[str, Expr]] = []
    for stmt in walk_stmts(kernel.body):
        if isinstance(stmt, Decl):
            for d in stmt.declarators:
                if d.init is not None:
                    assigns.append((d.name, d.init))
        for root in stmt_exprs(stmt):
            for node in walk_expr(root):
                if isinstance(node, Assign):
                    target = node.target
                    while isinstance(target, Paren):
                        target = target.inner
                    if isinstance(target, Ident):
                        assigns.append((target.name, node.value))

    def data_tainted(expr: Expr, tainted: set[str]) -> bool:
        for node in walk_expr(expr):
            if isinstance(node, Index):
                return True
            if isinstance(node, Ident) and node.name in tainted:
                return True
        return False

    tainted: set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, value in assigns:
            if name not in tainted and data_tainted(value, tainted):
                tainted.add(name)
                changed = True
    return tainted


def branch_entropy_bound(kernel: KernelDef, cfg: CFG | None = None,
                         ) -> float:
    """Upper bound (bits) on the kernel's branch-outcome entropy.

    Each reachable two-way branch (CFG branch node or ternary) whose
    condition derives from a memory load contributes at most one bit
    of outcome entropy; branches on work-item ids or uniform scalars
    contribute none (their outcome is fixed by the launch).  A bound
    of zero therefore proves the kernel has no data-dependent control
    flow at all — the static AIWC stage pins ``branch_fraction`` to
    zero in that case.
    """
    if cfg is None:
        cfg = build_cfg(kernel)
    tainted = _load_tainted_names(kernel)

    def data_dependent(expr: Expr | None) -> bool:
        if expr is None:
            return False
        for node in walk_expr(expr):
            if isinstance(node, Index):
                return True
            if isinstance(node, Ident) and node.name in tainted:
                return True
        return False

    reachable = cfg.reachable()
    bits = sum(
        1 for node in cfg.nodes
        if node.kind == "branch" and node.id in reachable
        and len(node.succs) >= 2 and data_dependent(node.expr)
    )
    # ternaries never become CFG branch nodes; count them separately
    for stmt in walk_stmts(kernel.body):
        for root in stmt_exprs(stmt):
            for node in walk_expr(root):
                if isinstance(node, Cond) and data_dependent(node.cond):
                    bits += 1
    return float(bits)


def sync_phases(kernel: KernelDef, cfg: CFG | None = None) -> int:
    """Number of barrier-separated phases every work item executes.

    Counts the ``barrier()`` statements that dominate EXIT — the
    synchronisation points *every* work item passes — and returns one
    more than that (a kernel with no uniform barrier is one phase).
    Divergent barriers are a defect reported elsewhere
    (:func:`divergent_barriers`) and do not define phases.
    """
    if cfg is None:
        cfg = build_cfg(kernel)
    dom = cfg.dominators()
    barriers = 0
    for node in cfg.nodes:
        if node.stmt is None or node.id not in dom[1]:
            continue
        if _contains_barrier(node.stmt) is not None:
            barriers += 1
    return barriers + 1


def unreachable_statements(kernel: KernelDef, cfg: CFG | None = None,
                           ) -> list[int]:
    """Lines of statements that no path from ENTRY reaches."""
    if cfg is None:
        cfg = build_cfg(kernel)
    reachable = cfg.reachable()
    return sorted({
        node.line
        for node in cfg.nodes
        if node.id not in reachable and node.kind in ("stmt", "branch")
    })


# ---------------------------------------------------------------------------
# Definite assignment (uninit-local-var)
# ---------------------------------------------------------------------------


def uninitialized_uses(kernel: KernelDef) -> list[tuple[str, int]]:
    """``(name, line)`` for reads of locals before any assignment.

    The walk is optimistic about loops (bodies are assumed to execute
    at least once, matching the shipped kernels' macro-sized bounds)
    and joins ``if``/``else`` arms by intersection, treating a
    ``return``-terminated arm as not contributing to the join.  Local
    arrays are summarised as a single cell: one store anywhere marks
    the whole array assigned.
    """
    param_names = {p.name for p in kernel.params}
    findings: list[tuple[str, int]] = []
    seen: set[str] = set()

    def note(name: str, line: int) -> None:
        if name not in seen:
            seen.add(name)
            findings.append((name, line))

    def read_expr(expr: Expr | None, assigned: set[str],
                  declared: set[str], line: int) -> None:
        """Record reads; flag declared-but-unassigned locals."""
        if expr is None:
            return
        if isinstance(expr, Paren):
            read_expr(expr.inner, assigned, declared, line)
        elif isinstance(expr, Unary):
            read_expr(expr.operand, assigned, declared, line)
            if expr.op in ("++", "--"):
                target = expr.operand
                while isinstance(target, Paren):
                    target = target.inner
                if isinstance(target, Ident):
                    assigned.add(target.name)
        elif isinstance(expr, Bin):
            read_expr(expr.lhs, assigned, declared, line)
            read_expr(expr.rhs, assigned, declared, line)
        elif isinstance(expr, Cond):
            read_expr(expr.cond, assigned, declared, line)
            read_expr(expr.then, assigned, declared, line)
            read_expr(expr.other, assigned, declared, line)
        elif isinstance(expr, (Call, VectorCtor)):
            for arg in expr.args:
                read_expr(arg, assigned, declared, line)
        elif isinstance(expr, Index):
            read_expr(expr.base, assigned, declared, line)
            read_expr(expr.index, assigned, declared, line)
        elif isinstance(expr, Member):
            read_expr(expr.base, assigned, declared, line)
        elif isinstance(expr, Cast):
            read_expr(expr.operand, assigned, declared, line)
        elif isinstance(expr, Assign):
            write_expr(expr, assigned, declared, line)
        elif isinstance(expr, Ident):
            name = expr.name
            if name in declared and name not in assigned \
                    and name not in param_names:
                note(name, line)

    def write_expr(expr: Assign, assigned: set[str], declared: set[str],
                   line: int) -> None:
        """Handle an assignment: reads of rhs/indices, then the write."""
        read_expr(expr.value, assigned, declared, line)
        target = expr.target
        while isinstance(target, Paren):
            target = target.inner
        if expr.op != "=":
            # compound assignment reads the target first
            read_expr(target, assigned, declared, line)
        if isinstance(target, Index):
            base = target.base
            while isinstance(base, (Paren, Index)):
                base = base.inner if isinstance(base, Paren) else base.base
            read_expr(target.index, assigned, declared, line)
            if isinstance(base, Ident):
                assigned.add(base.name)
        elif isinstance(target, Member):
            base = target.base
            if isinstance(base, Ident):
                assigned.add(base.name)
        elif isinstance(target, Ident):
            assigned.add(target.name)

    def walk(stmt: Stmt, assigned: set[str], declared: set[str]) -> bool:
        """Walk one statement; returns True when it always returns."""
        if isinstance(stmt, Block):
            for inner in stmt.stmts:
                if walk(inner, assigned, declared):
                    return True
            return False
        if isinstance(stmt, Decl):
            for d in stmt.declarators:
                for size in d.array_sizes:
                    read_expr(size, assigned, declared, stmt.line)
                declared.add(d.name)
                if d.init is not None:
                    read_expr(d.init, assigned, declared, stmt.line)
                    assigned.add(d.name)
            return False
        if isinstance(stmt, ExprStmt):
            read_expr(stmt.expr, assigned, declared, stmt.line)
            return False
        if isinstance(stmt, Return):
            read_expr(stmt.value, assigned, declared, stmt.line)
            return True
        if isinstance(stmt, If):
            read_expr(stmt.cond, assigned, declared, stmt.line)
            then_assigned = set(assigned)
            then_ret = walk(stmt.then, then_assigned, declared)
            else_assigned = set(assigned)
            else_ret = False
            if stmt.orelse is not None:
                else_ret = walk(stmt.orelse, else_assigned, declared)
            if then_ret and else_ret:
                return True
            if then_ret:
                assigned |= else_assigned
            elif else_ret:
                assigned |= then_assigned
            else:
                assigned |= then_assigned & else_assigned
            return False
        if isinstance(stmt, For):
            if stmt.init is not None:
                walk(stmt.init, assigned, declared)
            read_expr(stmt.cond, assigned, declared, stmt.line)
            walk(stmt.body, assigned, declared)
            read_expr(stmt.step, assigned, declared, stmt.line)
            return False
        if isinstance(stmt, While):
            read_expr(stmt.cond, assigned, declared, stmt.line)
            walk(stmt.body, assigned, declared)
            return False
        return False

    walk(kernel.body, set(), set())
    return findings


# ---------------------------------------------------------------------------
# Constant-index bounds (constant-index-oob)
# ---------------------------------------------------------------------------


def const_eval(expr: Expr | None, macros: dict[str, int]) -> int | None:
    """Evaluate a compile-time constant expression, or ``None``."""
    if expr is None:
        return None
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, FloatLit) or isinstance(expr, StrLit):
        return None
    if isinstance(expr, Ident):
        return macros.get(expr.name)
    if isinstance(expr, Paren):
        return const_eval(expr.inner, macros)
    if isinstance(expr, Cast):
        return const_eval(expr.operand, macros)
    if isinstance(expr, Unary) and expr.prefix:
        value = const_eval(expr.operand, macros)
        if value is None:
            return None
        if expr.op == "-":
            return -value
        if expr.op == "+":
            return value
        if expr.op == "~":
            return ~value
        if expr.op == "!":
            return int(not value)
        return None
    if isinstance(expr, Bin):
        lhs = const_eval(expr.lhs, macros)
        rhs = const_eval(expr.rhs, macros)
        if lhs is None or rhs is None:
            return None
        if expr.op in ("/", "%") and rhs == 0:
            return None
        try:
            return _APPLY_INT[expr.op](lhs, rhs)
        except KeyError:
            return None
    return None


def _trunc_div(a: int, b: int) -> int:
    """C integer division (truncates toward zero)."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


_APPLY_INT = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _trunc_div,
    "%": lambda a, b: a - _trunc_div(a, b) * b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
}


def constant_index_oob(kernel: KernelDef, macros: dict[str, int] | None = None,
                       ) -> list[tuple[str, int, int, int]]:
    """``(array, line, index, extent)`` for constant out-of-bounds
    subscripts of declared local arrays."""
    macros = macros or {}
    extents: dict[str, int] = {}
    out: list[tuple[str, int, int, int]] = []
    for stmt in walk_stmts(kernel.body):
        if isinstance(stmt, Decl):
            for d in stmt.declarators:
                if len(d.array_sizes) == 1:
                    size = const_eval(d.array_sizes[0], macros)
                    if size is not None:
                        extents[d.name] = size
        for root in stmt_exprs(stmt):
            for node in walk_expr(root):
                if not isinstance(node, Index):
                    continue
                base = node.base
                while isinstance(base, Paren):
                    base = base.inner
                if not isinstance(base, Ident) or base.name not in extents:
                    continue
                index = const_eval(node.index, macros)
                if index is None:
                    continue
                extent = extents[base.name]
                if index < 0 or index >= extent:
                    line = getattr(stmt, "line", 0)
                    out.append((base.name, line, index, extent))
    return out
