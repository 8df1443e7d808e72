"""One IR per launch model: the memo every IR analysis reads from."""

import sys
from collections import Counter

import pytest

from repro.analysis import absint, run_deep_suite
from repro.analysis.absint import (
    IR_MEMO_SIZE,
    clear_ir_memo,
    model_ir,
    static_footprint,
)
from repro.analysis.accessmodel import ir_stride_classes, synthesize_trace
from repro.analysis.staticaiwc import characterize_model, profiles_from_model
from repro.dwarfs import registry
from repro.dwarfs.base import StaticBuffer, StaticLaunch, StaticLaunchModel
from repro.harness.artifacts import clear_memo
from repro.ocl.clsource import CLSourceError

#: Benchmarks for the suite-level checks: one IR key (kmeans), one key
#: per size preset (srad) and a source with an unlaunched kernel
#: (nqueens).
SUITE = ["kmeans", "srad", "nqueens"]

SOURCE = """
__kernel void k(__global float *a) {
    a[get_global_id(0) * N] = 1.0f;
}
"""


def _model(kernel: str = "k", macros=None) -> StaticLaunchModel:
    return StaticLaunchModel(
        source=SOURCE,
        buffers={"a": StaticBuffer("a", 4096)},
        launches=(StaticLaunch(kernel, (64,), scalars={},
                               buffers={"a": ("a", 0)}),),
        macros=dict(macros or {"N": 2}),
    )


def _suite_keys(names) -> set:
    """Distinct (source, macros) keys the suite's launch models use."""
    keys = set()
    for name in names:
        cls = registry.get_benchmark(name)
        for size in cls.available_sizes():
            model = cls.from_size(size).static_launches()
            keys.add((model.source, tuple(sorted(model.macros.items()))))
    return keys


@pytest.fixture
def parse_calls(monkeypatch):
    """The sources handed to ``parse_source`` (every binding wrapped)."""
    from repro.analysis import frontend

    original = frontend.parse_source
    seen: list[str] = []

    def counting(source):
        seen.append(source)
        return original(source)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    clear_memo()
    yield seen
    clear_memo()


@pytest.mark.parametrize("analysis", [
    static_footprint,
    synthesize_trace,
    characterize_model,
    profiles_from_model,
    ir_stride_classes,
], ids=lambda fn: fn.__name__)
def test_unknown_kernel_raises(analysis):
    with pytest.raises(CLSourceError,
                       match="launch model references unknown kernel "
                             "'missing'"):
        analysis(_model(kernel="missing"))


class TestMemo:
    def test_same_source_and_macros_share_one_ir(self):
        clear_ir_memo()
        assert model_ir(_model()) is model_ir(_model())

    def test_macros_key_the_memo(self):
        clear_ir_memo()
        assert model_ir(_model(macros={"N": 2})) is not model_ir(
            _model(macros={"N": 3}))

    def test_macros_reach_the_interpreter_as_given(self):
        clear_ir_memo()
        summary = repr(model_ir(_model(macros={"N": 2})).summary("k"))
        assert "Const(value=2)" in summary
        assert "Const(value=2.0)" not in summary

    def test_every_kernel_interpreted_in_source_order(self):
        model = registry.get_benchmark("nqueens").from_size(
            "tiny").static_launches()
        ir = model_ir(model)
        assert [k.name for k in ir.kernels] == [
            "nqueens_count", "nqueens_estimate"]
        assert set(ir.summaries) == {"nqueens_count", "nqueens_estimate"}

    def test_bounded(self):
        clear_ir_memo()
        for n in range(IR_MEMO_SIZE + 8):
            model_ir(_model(macros={"N": n}))
        assert absint._build_ir.cache_info().currsize == IR_MEMO_SIZE

    def test_parse_failure_raises(self):
        broken = StaticLaunchModel(source="__kernel void k(", buffers={},
                                   launches=())
        with pytest.raises(CLSourceError):
            model_ir(broken)


class TestDeepSuite:
    def test_parses_each_source_and_macros_once(self, parse_calls):
        run_deep_suite(benchmarks=SUITE, traces=True, aiwc=True,
                       emit_metrics=False)
        keys = _suite_keys(SUITE)
        assert Counter(parse_calls) == Counter(source for source, _ in keys)

    def test_report_identical_from_cold_and_warm_memo(self):
        clear_memo()
        cold = run_deep_suite(benchmarks=SUITE, traces=True, aiwc=True,
                              emit_metrics=False).to_json()
        warm = run_deep_suite(benchmarks=SUITE, traces=True, aiwc=True,
                              emit_metrics=False).to_json()
        assert cold == warm
