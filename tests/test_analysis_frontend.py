"""Kernel IR frontend: tokenizer, parser, round-trip, CFG checks."""

import pytest

from repro.analysis.cfg import (
    build_cfg,
    constant_index_oob,
    divergent_barriers,
    uninitialized_uses,
    unreachable_statements,
    used_names,
)
from repro.analysis.frontend import (
    CLSyntaxError,
    parse_source,
    print_program,
    token_texts,
    tokenize,
)
from repro.dwarfs import kernels_cl
from repro.ocl.clsource import CLSourceError

#: Every shipped OpenCL C source, by name.
ALL_SOURCES = {
    name: getattr(kernels_cl, name)
    for name in dir(kernels_cl)
    if name.endswith("_CL")
}


# ---------------------------------------------------------------------------
class TestGoldenParse:
    """All 15 benchmark sources tokenize, parse, and round-trip."""

    @pytest.mark.parametrize("name", sorted(ALL_SOURCES))
    def test_tokenizes(self, name):
        assert len(tokenize(ALL_SOURCES[name])) > 0

    @pytest.mark.parametrize("name", sorted(ALL_SOURCES))
    def test_parses(self, name):
        program = parse_source(ALL_SOURCES[name])
        assert len(program.kernels) >= 1
        for kernel in program.kernels:
            assert kernel.name
            assert kernel.params

    @pytest.mark.parametrize("name", sorted(ALL_SOURCES))
    def test_round_trip_token_equivalent(self, name):
        """Pretty-printed AST re-tokenizes to the original sequence."""
        source = ALL_SOURCES[name]
        printed = print_program(parse_source(source))
        assert token_texts(printed) == token_texts(source)

    def test_covers_all_fifteen_benchmarks(self):
        assert len(ALL_SOURCES) == 15


# ---------------------------------------------------------------------------
class TestSyntaxErrors:
    def test_error_carries_line_and_col(self):
        bad = "__kernel void f(__global float *x) {\n  x[0] = ;\n}"
        with pytest.raises(CLSyntaxError) as info:
            parse_source(bad)
        assert info.value.line == 2
        assert info.value.col > 0

    def test_error_is_a_clsource_error(self):
        with pytest.raises(CLSourceError):
            parse_source("__kernel void f( {")

    def test_unterminated_block(self):
        with pytest.raises(CLSyntaxError):
            parse_source("__kernel void f(int n) { if (n) {")

    def test_message_mentions_position(self):
        with pytest.raises(CLSyntaxError) as info:
            parse_source("__kernel void f(int n) { n +; }")
        assert "line" in str(info.value)


# ---------------------------------------------------------------------------
class TestReqdWorkGroupSize:
    def test_attribute_parsed(self):
        src = ("__kernel __attribute__((reqd_work_group_size(64, 1, 1))) "
               "void f(__global float *x) { x[0] = 1.0f; }")
        kernel = parse_source(src).kernels[0]
        assert kernel.reqd_work_group_size == (64, 1, 1)

    def test_absent_by_default(self):
        kernel = parse_source(
            "__kernel void f(__global float *x) { x[0] = 1.0f; }"
        ).kernels[0]
        assert kernel.reqd_work_group_size is None


# ---------------------------------------------------------------------------
def _kernel(src):
    return parse_source(src).kernels[0]


class TestCFGChecks:
    def test_used_names_sees_all_uses(self):
        kernel = _kernel(
            "__kernel void f(__global float *x, int n, int unused) {\n"
            "  int gid = get_global_id(0);\n"
            "  if (gid < n) x[gid] = 1.0f;\n"
            "}")
        names = used_names(kernel)
        assert {"x", "n"} <= names
        assert "unused" not in names

    def test_divergent_barrier_found(self):
        kernel = _kernel(
            "__kernel void f(__global float *x) {\n"
            "  int gid = get_global_id(0);\n"
            "  if (gid < 16) {\n"
            "    barrier(CLK_LOCAL_MEM_FENCE);\n"
            "  }\n"
            "  x[gid] = 1.0f;\n"
            "}")
        assert divergent_barriers(kernel) == [4]

    def test_uniform_barrier_clean(self):
        kernel = _kernel(
            "__kernel void f(__global float *x, int n) {\n"
            "  int gid = get_global_id(0);\n"
            "  if (n > 4) {\n"
            "    barrier(CLK_LOCAL_MEM_FENCE);\n"
            "  }\n"
            "  x[gid] = 1.0f;\n"
            "}")
        assert divergent_barriers(kernel) == []

    def test_unreachable_after_return(self):
        kernel = _kernel(
            "__kernel void f(__global float *x) {\n"
            "  x[0] = 1.0f;\n"
            "  return;\n"
            "  x[1] = 2.0f;\n"
            "}")
        assert unreachable_statements(kernel) == [4]

    def test_uninitialized_local_read(self):
        kernel = _kernel(
            "__kernel void f(__global float *x) {\n"
            "  float acc;\n"
            "  x[0] = acc;\n"
            "}")
        assert ("acc", 3) in uninitialized_uses(kernel)

    def test_initialized_local_clean(self):
        kernel = _kernel(
            "__kernel void f(__global float *x) {\n"
            "  float acc = 0.0f;\n"
            "  x[0] = acc;\n"
            "}")
        assert uninitialized_uses(kernel) == []

    def test_constant_index_oob_with_macro(self):
        kernel = _kernel(
            "__kernel void f(__global float *x) {\n"
            "  float tmp[N];\n"
            "  tmp[N] = 1.0f;\n"
            "  x[0] = tmp[0];\n"
            "}")
        hits = constant_index_oob(kernel, {"N": 8})
        assert hits == [("tmp", 3, 8, 8)]

    def test_in_bounds_index_clean(self):
        kernel = _kernel(
            "__kernel void f(__global float *x) {\n"
            "  float tmp[4];\n"
            "  tmp[3] = 1.0f;\n"
            "  x[0] = tmp[3];\n"
            "}")
        assert constant_index_oob(kernel, {}) == []

    @pytest.mark.parametrize("name", sorted(ALL_SOURCES))
    def test_cfg_builds_for_every_shipped_kernel(self, name):
        for kernel in parse_source(ALL_SOURCES[name]).kernels:
            cfg = build_cfg(kernel)
            assert len(cfg.nodes) >= 2  # at least ENTRY and EXIT
