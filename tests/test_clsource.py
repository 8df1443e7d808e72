"""OpenCL C sources: parser correctness and host/kernel consistency."""

import pytest

from repro import ocl
from repro.dwarfs import create
from repro.dwarfs.kernels_cl import SOURCES
from repro.dwarfs.registry import BENCHMARKS, EXTENSIONS
from repro.ocl import BuildProgramFailure, InvalidKernelArgs, KernelSource, Program
from repro.ocl.clsource import (
    CLKernelSignature,
    CLSourceError,
    check_arguments,
    parse_kernels,
)


class TestParser:
    def test_simple_kernel(self):
        sigs = parse_kernels(
            "__kernel void f(__global float *x, int n) { }")
        assert set(sigs) == {"f"}
        sig = sigs["f"]
        assert sig.arity == 2
        assert sig.params[0].name == "x"
        assert sig.params[0].is_pointer
        assert sig.params[0].address_space == "global"
        assert sig.params[1].name == "n"
        assert not sig.params[1].is_pointer

    def test_multiple_kernels(self):
        src = ("__kernel void a(int x) {}\n"
               "__kernel void b(__global int *y, float z) {}\n")
        sigs = parse_kernels(src)
        assert sigs["a"].arity == 1
        assert sigs["b"].arity == 2

    def test_qualifiers_stripped(self):
        sigs = parse_kernels(
            "__kernel void f(__global const float * restrict x,"
            " __constant uint *t, __local float *scratch) {}")
        p = sigs["f"].params
        assert p[0].address_space == "global"
        assert p[1].address_space == "constant"
        assert p[2].address_space == "local"
        assert [q.is_buffer for q in p] == [True, True, False]

    def test_comments_ignored(self):
        src = ("/* __kernel void fake(int a, int b, int c) */\n"
               "// __kernel void also_fake(int q)\n"
               "__kernel void real(int x) {}\n")
        assert set(parse_kernels(src)) == {"real"}

    def test_vector_types(self):
        sigs = parse_kernels(
            "__kernel void f(__global float2 *src, __global float4 *v) {}")
        assert sigs["f"].params[0].type_name == "float2"

    def test_empty_params(self):
        assert parse_kernels("__kernel void f() {}")["f"].arity == 0
        assert parse_kernels("__kernel void f(void) {}")["f"].arity == 0

    def test_no_kernels_rejected(self):
        with pytest.raises(CLSourceError):
            parse_kernels("void helper(int x) {}")

    def test_duplicate_kernel_rejected(self):
        with pytest.raises(CLSourceError):
            parse_kernels("__kernel void f(int a) {}\n"
                          "__kernel void f(int b) {}")

    def test_check_arguments(self):
        sig = CLKernelSignature("f", params=())
        check_arguments(sig, 0)
        with pytest.raises(CLSourceError):
            check_arguments(sig, 1)


class TestSourceCatalog:
    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_every_source_parses(self, name):
        sigs = parse_kernels(SOURCES[name])
        assert sigs  # at least one kernel per benchmark

    def test_catalog_covers_all_benchmarks(self):
        assert set(SOURCES) == set(BENCHMARKS) | set(EXTENSIONS)


class TestHostKernelConsistency:
    @pytest.mark.parametrize("name", sorted(set(BENCHMARKS) | set(EXTENSIONS)))
    def test_enqueued_arity_matches_cl_signature(self, name, cpu_context,
                                                 cpu_queue):
        """Run each benchmark and cross-check every kernel launch's
        bound-argument count against the parsed __kernel signature."""
        signatures = parse_kernels(SOURCES[name])
        bench = create(name, "tiny")
        bench.host_setup(cpu_context)
        bench.transfer_inputs(cpu_queue)
        events = bench.run_iteration(cpu_queue)
        seen = set()
        for e in events:
            kernel_name = e.info["kernel"]
            # profile callables may rename (e.g. dwt_pass); map via source
            if kernel_name in signatures:
                assert e.info["n_args"] == signatures[kernel_name].arity, (
                    name, kernel_name)
                seen.add(kernel_name)
        assert seen  # at least one kernel cross-checked
        bench.teardown()


class TestRuntimeEnforcement:
    def test_build_rejects_missing_kernel(self, cpu_context):
        with pytest.raises(BuildProgramFailure, match="no matching __kernel"):
            Program(cpu_context, [KernelSource(
                "nope", lambda nd: None,
                cl_source="__kernel void other(int x) {}")]).build()

    def test_build_rejects_bad_source(self, cpu_context):
        with pytest.raises(BuildProgramFailure, match="bad OpenCL C"):
            Program(cpu_context, [KernelSource(
                "f", lambda nd: None, cl_source="int not_a_kernel;")]).build()

    def test_enqueue_rejects_wrong_arity(self, cpu_context, cpu_queue):
        program = Program(cpu_context, [KernelSource(
            "f", lambda nd, a, b: None,
            cl_source="__kernel void f(__global float *x, int n) {}",
        )]).build()
        kernel = program.create_kernel("f")
        kernel.set_args(1, 2, 3)  # three args; signature says two
        with pytest.raises(InvalidKernelArgs, match="takes 2 arguments"):
            cpu_queue.enqueue_nd_range_kernel(kernel, (4,))

    def test_correct_arity_passes(self, cpu_context, cpu_queue):
        program = Program(cpu_context, [KernelSource(
            "f", lambda nd, a, b: None,
            cl_source="__kernel void f(__global float *x, int n) {}",
        )]).build()
        kernel = program.create_kernel("f").set_args(1, 2)
        event = cpu_queue.enqueue_nd_range_kernel(kernel, (4,))
        assert event.info["n_args"] == 2


class TestParserEdgeCases:
    def test_preprocessor_lines_stripped(self):
        src = ("#define WIDTH 64\n"
               "#pragma OPENCL EXTENSION cl_khr_fp64 : enable\n"
               "#include \"common.h\"\n"
               "__kernel void f(__global float *x, int n) { }\n")
        sigs = parse_kernels(src)
        assert set(sigs) == {"f"}
        assert sigs["f"].arity == 2

    def test_macro_body_does_not_confuse_parser(self):
        src = ("#define HELPER(a, b) ((a) + (b))\n"
               "__kernel void f(int n) { }\n")
        sigs = parse_kernels(src)
        assert sigs["f"].arity == 1
        assert sigs["f"].params[0].name == "n"

    def test_vector_pointer_types(self):
        sigs = parse_kernels(
            "__kernel void f(__global float4 *v, __global int2 *pairs) {}")
        v, pairs = sigs["f"].params
        assert v.type_name == "float4" and v.is_pointer
        assert pairs.type_name == "int2" and pairs.is_pointer
        assert v.address_space == "global"

    def test_multiline_parameter_list(self):
        src = ("__kernel void f(__global const float *a,\n"
               "                __global float *b,\n"
               "                int rows,\n"
               "                int cols)\n"
               "{ }\n")
        sig = parse_kernels(src)["f"]
        assert [p.name for p in sig.params] == ["a", "b", "rows", "cols"]

    def test_comments_inside_signature(self):
        src = ("__kernel void f(__global float *x, /* data */\n"
               "                int n /* length */) { }")
        sig = parse_kernels(src)["f"]
        assert [p.name for p in sig.params] == ["x", "n"]

    def test_line_comment_between_params(self):
        src = ("__kernel void f(__global float *x, // the data\n"
               "                int n) { }")
        sig = parse_kernels(src)["f"]
        assert sig.arity == 2

    def test_multiword_scalar_types(self):
        sig = parse_kernels(
            "__kernel void f(unsigned int n, long m) { }")["f"]
        assert sig.params[0].type_name == "unsigned int"
        assert sig.params[1].type_name == "long"


class TestScalarKind:
    def test_families(self):
        from repro.ocl.clsource import scalar_kind
        assert scalar_kind("int") == "int"
        assert scalar_kind("unsigned int") == "int"
        assert scalar_kind("size_t") == "int"
        assert scalar_kind("float") == "float"
        assert scalar_kind("double") == "float"
        assert scalar_kind("float4") == "other"
        assert scalar_kind("my_struct_t") == "other"


class TestKernelBodies:
    def test_suppressions_parsed(self):
        from repro.ocl.clsource import kernel_suppressions
        src = ("__kernel void a(int n) {\n"
               "  // repro-lint: allow(unused-param: n)\n"
               "  // repro-lint: allow(barrier-divergence)\n"
               "}\n"
               "__kernel void b(int m) { }\n")
        allows = kernel_suppressions(src)
        assert allows["a"] == {("unused-param", "n"), ("barrier-divergence", None)}
        assert "b" not in allows
