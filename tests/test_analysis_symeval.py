"""Compiled symbolic evaluation against the recursive reference evaluator.

``sym_eval`` runs each :class:`SymExpr` through a straight-line function
generated once per expression.  :func:`oracle_eval` below is the plain
recursive tree walk it replaced; it is the reference, and every
comparison insists on the same value *and* the same type, so ``int``
vs ``float`` cannot drift between the two.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import run_deep_suite
from repro.analysis.absint import (
    _NUM_OPS,
    INF,
    Const,
    SBin,
    SMax,
    SMin,
    Sym,
    SymExpr,
    _launch_env,
    model_ir,
    sym_eval,
)
from repro.analysis.staticaiwc import resolve_trips
from repro.dwarfs import registry
from repro.ocl.clsource import CLSourceError

PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"


def oracle_eval(expr: SymExpr, env: dict) -> float:
    """Recursive reference evaluation of a symbolic endpoint."""
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
        return _NUM_OPS[expr.op](oracle_eval(expr.lhs, env),
                                 oracle_eval(expr.rhs, env))
    if isinstance(expr, SMin):
        return min(oracle_eval(a, env) for a in expr.args)
    if isinstance(expr, SMax):
        return max(oracle_eval(a, env) for a in expr.args)
    raise TypeError(f"unknown symbolic node {type(expr).__name__}")


def outcome(evaluate, expr: SymExpr, env: dict) -> tuple:
    """``(type, repr)`` of the result, or of the exception raised.

    ``repr`` tells ``-0.0`` from ``0.0`` and matches ``nan`` to itself.
    """
    try:
        value = evaluate(expr, env)
    except (CLSourceError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return type(value), repr(value)


# ---------------------------------------------------------------------------
# Every expression the shipped kernels evaluate
# ---------------------------------------------------------------------------


def _launch_cases():
    cases = []
    for name in sorted([*registry.BENCHMARKS, *registry.EXTENSIONS]):
        for size in registry.get_benchmark(name).available_sizes():
            cases.append((name, size))
    return cases


def _ir_exprs(summary) -> list[SymExpr]:
    """Index bounds, guard operands and weights of one kernel summary."""
    exprs: list[SymExpr] = []

    def guards(gs):
        for g in gs:
            exprs.extend((g.lhs.lo, g.lhs.hi, g.rhs.lo, g.rhs.hi))

    for access in summary.accesses:
        exprs.extend((access.index.lo, access.index.hi, access.weight))
        guards(access.guards)
    for op in summary.ops:
        exprs.append(op.weight)
        guards(op.guards)
    return exprs


@pytest.mark.parametrize("name,size", _launch_cases())
def test_compiled_matches_oracle_on_every_launch(name, size):
    model = registry.get_benchmark(name).from_size(size).static_launches()
    ir = model_ir(model)
    checked = 0
    for launch in model.launches:
        summary = ir.summary(launch.kernel)
        envs = [_launch_env(launch)]
        # the static AIWC stage's env: macros and resolved trip counts too
        full = dict(envs[0])
        for macro, value in model.macros.items():
            full.setdefault(macro, float(value))
        full.update(resolve_trips(summary, launch, model, full))
        envs.append(full)
        for env in envs:
            for expr in _ir_exprs(summary):
                assert (outcome(sym_eval, expr, env)
                        == outcome(oracle_eval, expr, env)), (
                    f"{name}/{size} {launch.kernel}: {expr}")
                checked += 1
    assert checked or all(ir.summary(launch.kernel).opaque
                          for launch in model.launches)


# ---------------------------------------------------------------------------
# Random expression DAGs
# ---------------------------------------------------------------------------

SYMBOLS = ("n", "m", "gs0", "__trip1")
CONSTS = st.one_of(
    st.sampled_from([0, 1, -1, 2, 4, 0.0, -0.0, 0.5, INF, -INF]),
    st.integers(-64, 64),
    st.floats(-1e6, 1e6, allow_nan=False),
)
ENV_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, INF, -INF, 0, 3]),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.integers(-64, 64),
)


@st.composite
def expr_dags(draw):
    """A random expression DAG: each node reuses any earlier nodes.

    Reuse by index makes shared subtrees common.  Shift amounts are
    leaves in ``[0, 8]`` so ``2 ** b`` stays small.
    """
    nodes: list[SymExpr] = [
        Sym(draw(st.sampled_from(SYMBOLS))) if draw(st.booleans())
        else Const(draw(CONSTS))
        for _ in range(draw(st.integers(1, 4)))
    ]
    for _ in range(draw(st.integers(0, 12))):
        pick = st.sampled_from(nodes)
        kind = draw(st.sampled_from(
            ["+", "-", "*", "/", "%", "<<", ">>", "min", "max", "leaf"]))
        if kind == "leaf":
            node: SymExpr = (Sym(draw(st.sampled_from(SYMBOLS)))
                             if draw(st.booleans()) else Const(draw(CONSTS)))
        elif kind in ("min", "max"):
            args = tuple(draw(st.lists(pick, min_size=1, max_size=4)))
            node = SMin(args) if kind == "min" else SMax(args)
        elif kind in ("<<", ">>"):
            node = SBin(kind, draw(pick), Const(draw(st.integers(0, 8))))
        else:
            node = SBin(kind, draw(pick), draw(pick))
        nodes.append(node)
    return nodes[-1]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(expr_dags(), st.dictionaries(st.sampled_from(SYMBOLS), ENV_VALUES))
def test_compiled_matches_oracle_on_random_dags(expr, env):
    assert outcome(sym_eval, expr, env) == outcome(oracle_eval, expr, env)


def test_shared_subtree_is_one_assignment():
    shared = SBin("*", Sym("n"), Const(4))
    expr = SMax((SBin("+", shared, shared), shared))
    code = expr.compiled.__code__
    # one local per non-constant node: n, n * 4, the sum and the max
    assert code.co_nlocals == 1 + 4
    assert sym_eval(expr, {"n": 3}) == 24


def test_constants_keep_their_type():
    assert type(sym_eval(Const(3), {})) is int
    assert sym_eval(Const(-INF), {}) == -INF
    assert type(sym_eval(SBin("*", Sym("x"), Const(0)), {"x": 2.5})) is int


def test_single_argument_min_max():
    assert sym_eval(SMin((Sym("x"),)), {"x": 7.0}) == 7.0
    assert sym_eval(SMax((Const(-INF),)), {}) == -INF


def test_deep_chain_compiles():
    # as one nested call expression, mul(mul(...) + 1, 1) 300 deep would
    # exceed Python's parser nesting limit
    expr: SymExpr = Sym("x")
    for _ in range(300):
        expr = SBin("*", SBin("+", expr, Const(1)), Const(1))
    assert sym_eval(expr, {"x": 0}) == 300


# ---------------------------------------------------------------------------
# Unbound symbols
# ---------------------------------------------------------------------------


class TestUnboundSymbol:
    def test_names_the_missing_symbol(self):
        expr = SBin("+", Sym("n"), Sym("width"))
        with pytest.raises(CLSourceError, match="unbound symbol 'width'"):
            sym_eval(expr, {"n": 1.0})

    def test_names_the_leftmost_of_two(self):
        expr = SMin((Sym("rows"), SBin("*", Sym("cols"), Sym("n"))))
        with pytest.raises(CLSourceError, match="unbound symbol 'cols'"):
            sym_eval(expr, {"rows": 1.0})
        with pytest.raises(CLSourceError, match="unbound symbol 'rows'"):
            sym_eval(expr, {})

    def test_leftmost_through_a_shared_subtree(self):
        shared = SBin("-", Sym("b"), Const(1))
        expr = SBin("*", SBin("+", shared, Sym("a")), shared)
        with pytest.raises(CLSourceError, match="unbound symbol 'b'"):
            sym_eval(expr, {})

    def test_bound_after_a_miss(self):
        expr = SBin("+", Sym("n"), Const(1))
        with pytest.raises(CLSourceError):
            sym_eval(expr, {})
        assert sym_eval(expr, {"n": 2.0}) == 3.0


# ---------------------------------------------------------------------------
# The lint report stays byte-identical
# ---------------------------------------------------------------------------


def test_lint_report_matches_pin():
    pin = json.loads(PINS.read_text())["lint_ir"]
    report = run_deep_suite(traces=True, aiwc=True)
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert len(report.findings) == pin["findings"]
    assert digest == pin["report_sha256"]


def test_oracle_sanity():
    # the reference itself: C-style truncation and the 0 * inf convention
    assert oracle_eval(SBin("/", Const(-7), Const(2)), {}) == -3
    assert oracle_eval(SBin("*", Const(0), Const(INF)), {}) == 0
    assert math.isinf(oracle_eval(SBin("/", Const(1), Const(0)), {}))
