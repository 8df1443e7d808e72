"""Property-based tests (hypothesis) on core data structures and
algorithm invariants."""

import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cache import SetAssociativeCache, TLB
from repro.dwarfs.crc import crc32_bytes, crc32_combine
from repro.dwarfs.dwt import lift53_forward, lift53_inverse
from repro.dwarfs.fft import stockham_stage
from repro.io import csrfile, ppm
from repro.perfmodel import KernelProfile, kernel_time
from repro.devices import get_device
from repro.scibench import summarize
from tests.cache_oracles import cache_access, tlb_access

SLOW = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# Cache invariants
# ----------------------------------------------------------------------
@st.composite
def cache_and_trace(draw):
    size_kib = draw(st.sampled_from([1, 4, 16]))
    ways = draw(st.sampled_from([1, 2, 4, 8]))
    addresses = draw(st.lists(st.integers(0, 1 << 20), min_size=1,
                              max_size=300))
    return SetAssociativeCache(size_kib * 1024, 64, ways), addresses


@SLOW
@given(cache_and_trace())
def test_cache_accounting_invariants(ct):
    cache, addresses = ct
    cache_access(cache, addresses)
    s = cache.stats
    assert s.hits + s.misses == s.accesses == len(addresses)
    assert 0 <= cache.resident.size <= cache.n_sets * cache.associativity


@SLOW
@given(cache_and_trace())
def test_cache_repeat_access_hits(ct):
    """Immediately re-accessing any address must hit."""
    cache, addresses = ct
    hits = cache_access(cache, [a for a in addresses for _ in range(2)])
    assert all(hits[1::2])


@SLOW
@given(st.lists(st.integers(0, 1 << 24), min_size=1, max_size=200))
def test_tlb_never_more_resident_than_entries(addresses):
    tlb = TLB(entries=8)
    tlb_access(tlb, addresses)
    assert len(tlb._pages) <= 8


# ----------------------------------------------------------------------
# DWT: perfect reconstruction for arbitrary shapes
# ----------------------------------------------------------------------
@SLOW
@given(hnp.arrays(np.float32, st.integers(2, 200),
                  elements=st.floats(-1e3, 1e3, width=32)))
def test_lifting_inverts_any_signal(x):
    recon = lift53_inverse(lift53_forward(x, 0), 0)
    np.testing.assert_allclose(recon, x, atol=1e-2, rtol=1e-4)


@SLOW
@given(st.integers(2, 60), st.integers(2, 60))
def test_lifting_2d_inverts(h, w):
    rng = np.random.default_rng(h * 100 + w)
    img = rng.uniform(0, 255, (h, w)).astype(np.float32)
    f = lift53_forward(lift53_forward(img, 0), 1)
    b = lift53_inverse(lift53_inverse(f, 1), 0)
    np.testing.assert_allclose(b, img, atol=1e-2)


# ----------------------------------------------------------------------
# FFT: linearity and agreement with numpy for arbitrary signals
# ----------------------------------------------------------------------
def _fft(x):
    n = len(x)
    a, b = x.astype(np.complex64).copy(), np.empty(n, np.complex64)
    for stage in range(n.bit_length() - 1):
        stockham_stage(a, b, n, stage)
        a, b = b, a
    return a


@SLOW
@given(st.integers(1, 9).map(lambda k: 2**k), st.integers(0, 2**31))
def test_fft_matches_numpy_random_signals(n, seed):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(np.complex64)
    np.testing.assert_allclose(_fft(x), np.fft.fft(x), rtol=1e-3, atol=1e-3)


@SLOW
@given(st.integers(2, 8).map(lambda k: 2**k), st.integers(0, 2**31))
def test_fft_linearity(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n).astype(np.complex64)
    y = rng.standard_normal(n).astype(np.complex64)
    lhs = _fft(x + y)
    rhs = _fft(x) + _fft(y)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-3, atol=1e-3)


# ----------------------------------------------------------------------
# CRC: agreement with zlib and the combine identity
# ----------------------------------------------------------------------
@SLOW
@given(st.binary(min_size=0, max_size=500))
def test_crc_matches_zlib(payload):
    assert crc32_bytes(payload) == zlib.crc32(payload) & 0xFFFFFFFF


@SLOW
@given(st.binary(min_size=0, max_size=300), st.binary(min_size=0, max_size=300))
def test_crc_combine_identity(a, b):
    combined = crc32_combine(zlib.crc32(a) & 0xFFFFFFFF,
                             zlib.crc32(b) & 0xFFFFFFFF, len(b))
    assert combined == zlib.crc32(a + b) & 0xFFFFFFFF


# ----------------------------------------------------------------------
# PNM codec round trip
# ----------------------------------------------------------------------
@SLOW
@given(hnp.arrays(np.uint8, st.tuples(st.integers(1, 20), st.integers(1, 20))),
       st.booleans())
def test_pnm_round_trip_any_image(img, binary):
    np.testing.assert_array_equal(ppm.loads(ppm.dumps(img, binary=binary)), img)


# ----------------------------------------------------------------------
# CSR: structure and SpMV consistency
# ----------------------------------------------------------------------
@SLOW
@given(st.integers(4, 80), st.integers(1000, 500_000), st.integers(0, 10_000))
def test_createcsr_structure_and_matvec(n, d, seed):
    m = csrfile.createcsr(n, d, seed=seed)
    m.validate_structure()
    x = np.random.default_rng(seed).uniform(-1, 1, n)
    np.testing.assert_allclose(m.matvec_reference(x), m.to_dense() @ x,
                               rtol=1e-9, atol=1e-12)


@SLOW
@given(st.integers(4, 60), st.integers(1000, 300_000), st.integers(0, 1000))
def test_csr_serialisation_round_trip(n, d, seed):
    m = csrfile.createcsr(n, d, seed=seed)
    out = csrfile.loads(csrfile.dumps(m))
    np.testing.assert_array_equal(out.row_ptr, m.row_ptr)
    np.testing.assert_array_equal(out.col_idx, m.col_idx)
    np.testing.assert_array_equal(out.values, m.values)


# ----------------------------------------------------------------------
# Performance model invariants
# ----------------------------------------------------------------------
@st.composite
def profiles(draw):
    total = draw(st.floats(0.0, 1.0))
    seq = draw(st.floats(0.0, 1.0))
    strided = draw(st.floats(0.0, 1.0 - min(seq, 1.0))) if seq < 1 else 0.0
    seq, strided = seq, min(strided, 1.0 - seq)
    return KernelProfile(
        name="p",
        flops=draw(st.floats(0, 1e10)),
        int_ops=draw(st.floats(0, 1e9)),
        bytes_read=draw(st.floats(0, 1e9)),
        bytes_written=draw(st.floats(0, 1e8)),
        working_set_bytes=draw(st.floats(64, 1e9)),
        work_items=draw(st.integers(1, 1 << 22)),
        seq_fraction=seq,
        strided_fraction=strided,
        random_fraction=1.0 - seq - strided,
        branch_fraction=draw(st.floats(0, 1)),
        serial_ops=draw(st.floats(0, 1e6)),
        chain_ops=draw(st.floats(0, 1e6)),
        launches=draw(st.integers(1, 100)),
    )


@SLOW
@given(profiles(), st.sampled_from(["i7-6700K", "GTX 1080", "R9 290X",
                                    "Xeon Phi 7210"]))
def test_kernel_time_finite_positive(profile, device):
    tb = kernel_time(get_device(device), profile)
    assert np.isfinite(tb.total_s)
    assert tb.total_s > 0
    assert tb.body_s <= tb.total_s
    assert 0.0 <= tb.utilization <= 1.0


@SLOW
@given(profiles())
def test_more_flops_never_faster(profile):
    """Monotonicity: adding work cannot reduce predicted time."""
    import dataclasses
    spec = get_device("GTX 1080")
    heavier = dataclasses.replace(profile, flops=profile.flops * 2 + 1)
    assert kernel_time(spec, heavier).total_s >= kernel_time(spec, profile).total_s


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
@SLOW
@given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=200))
def test_summary_invariants(samples):
    s = summarize(samples)
    assert s.minimum <= s.q1 <= s.median <= s.q3 <= s.maximum
    assert s.minimum <= s.mean <= s.maximum
    assert s.ci_low <= s.mean <= s.ci_high
    assert s.n == len(samples)


# ----------------------------------------------------------------------
# NW alignment-score properties
# ----------------------------------------------------------------------
@SLOW
@given(st.integers(0, 2**31), st.integers(1, 3).map(lambda k: 16 * k))
def test_nw_score_bounded_by_perfect_match(seed, n):
    """The alignment score never exceeds the diagonal self-match bound."""
    from repro import ocl
    from repro.dwarfs.nw import BLOSUM62, NW

    bench = NW(n=n, seed=seed % 10_000)
    ctx = ocl.Context(ocl.find_device("i7-6700K"))
    q = ocl.CommandQueue(ctx)
    bench.host_setup(ctx)
    bench.transfer_inputs(q)
    bench.run_iteration(q)
    bench.collect_results(q)
    bench.validate()
    upper = int(np.maximum(BLOSUM62[bench.seq1, bench.seq1],
                           BLOSUM62[bench.seq2, bench.seq2]).sum())
    assert bench.alignment_score() <= upper
    ctx.release_all()


# ----------------------------------------------------------------------
# Scheduling invariants
# ----------------------------------------------------------------------
@SLOW
@given(st.lists(st.sampled_from(["crc", "srad", "fft", "csr", "kmeans"]),
                min_size=1, max_size=6),
       st.lists(st.sampled_from(["i7-6700K", "GTX 1080", "R9 290X", "K40m"]),
                min_size=1, max_size=3, unique=True))
def test_lpt_schedule_guarantees(names, devices):
    """Provable properties of earliest-finish LPT on unrelated devices:
    every task is placed exactly once, and the makespan never exceeds
    the serialise-everything-on-its-best-device bound (by induction on
    the greedy step).  Stronger bounds do not hold on unrelated
    machines — piling several CPU-friendly tasks on one CPU can be
    optimal yet exceed the sum/m 'lower bound'."""
    from repro.dwarfs import create
    from repro.scheduling import Task, schedule_lpt

    tasks = [Task(f"{n}#{i}", create(n, "small")) for i, n in enumerate(names)]
    lpt = schedule_lpt(tasks, devices)
    placed = sorted(l for d in lpt.placements.values() for l, _ in d)
    assert placed == sorted(t.label for t in tasks)
    best = [min(t.time_on(d) for d in devices) for t in tasks]
    assert lpt.makespan <= sum(best) * (1 + 1e-9)


# ----------------------------------------------------------------------
# OpenCL C parser round trip
# ----------------------------------------------------------------------
_ident = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)


@SLOW
@given(st.lists(_ident, min_size=1, max_size=5, unique=True),
       st.lists(st.integers(0, 5), min_size=1, max_size=5))
def test_clsource_parser_roundtrip(names, arities):
    from repro.ocl.clsource import parse_kernels
    arities = (arities * len(names))[: len(names)]
    chunks = []
    for name, arity in zip(names, arities):
        params = ", ".join(f"__global float *p{i}" for i in range(arity))
        chunks.append(f"__kernel void {name}({params}) {{ }}")
    sigs = parse_kernels("\n".join(chunks))
    assert set(sigs) == set(names)
    for name, arity in zip(names, arities):
        assert sigs[name].arity == arity


# ----------------------------------------------------------------------
# Regression-gate statistics (paper §4.3 discipline between runs)
# ----------------------------------------------------------------------
_group = st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=40)


@SLOW
@given(_group, _group)
def test_welch_antisymmetric_in_group_order(a, b):
    from repro.scibench.stats import welch_t_test
    t_ab, p_ab = welch_t_test(a, b)
    t_ba, p_ba = welch_t_test(b, a)
    if np.isnan(t_ab):
        assert np.isnan(t_ba)
    else:
        assert t_ab == pytest.approx(-t_ba, rel=1e-9, abs=1e-12)
        assert p_ab == pytest.approx(p_ba, rel=1e-9, abs=1e-12)


@SLOW
@given(_group, _group, st.floats(1e-3, 1e3))
@example(a=[541.6048587818298] * 3, b=[541.6048587818298] * 3, k=161.5)
@example(a=[1.0] * 3, b=[541.6048587818298] * 3, k=161.5)
def test_welch_scale_invariant(a, b, k):
    """Rescaling both groups (unit change) must not move t or p."""
    from repro.scibench.stats import welch_t_test
    t1, p1 = welch_t_test(a, b)
    t2, p2 = welch_t_test([k * x for x in a], [k * x for x in b])
    if np.isnan(t1):
        assert np.isnan(t2)
    else:
        assert t1 == pytest.approx(t2, rel=1e-6, abs=1e-9)
        assert p1 == pytest.approx(p2, rel=1e-6, abs=1e-9)


@SLOW
@given(_group, _group)
def test_cohens_d_antisymmetric(a, b):
    from repro.scibench.stats import cohens_d
    d_ab, d_ba = cohens_d(a, b), cohens_d(b, a)
    if np.isinf(d_ab):
        assert d_ba == -d_ab
    else:
        assert d_ab == pytest.approx(-d_ba, rel=1e-9, abs=1e-12)


@SLOW
@given(_group, _group, st.floats(1e-3, 1e3))
@example(a=[1.0] * 3, b=[541.6048587818298] * 3, k=161.5)
def test_cohens_d_scale_invariant(a, b, k):
    from repro.scibench.stats import cohens_d
    d1 = cohens_d(a, b)
    d2 = cohens_d([k * x for x in a], [k * x for x in b])
    if np.isinf(d1) or np.isinf(d2):
        assert d1 == d2
    else:
        assert d1 == pytest.approx(d2, rel=1e-6, abs=1e-9)


@SLOW
@given(_group)
def test_identical_samples_never_regress(samples):
    """A cell re-measured bit-identically must classify as unchanged."""
    from repro.regress import classify
    status, stats = classify(samples, samples)
    assert status == "unchanged"
    assert stats["effect_size"] == 0.0 or np.isnan(stats["effect_size"])


@SLOW
@given(_group, _group, st.floats(1e-3, 1e3), st.integers(0, 2**31))
def test_bootstrap_ci_ordered_and_scale_invariant(a, b, k, seed):
    """lo <= hi always; rescaling both groups leaves the ratio CI alone."""
    from repro.scibench.stats import bootstrap_ratio_ci
    lo, hi = bootstrap_ratio_ci(a, b, n_boot=200, seed=seed)
    assert lo <= hi
    lo2, hi2 = bootstrap_ratio_ci([k * x for x in a], [k * x for x in b],
                                  n_boot=200, seed=seed)
    assert lo == pytest.approx(lo2, rel=1e-6)
    assert hi == pytest.approx(hi2, rel=1e-6)


# ----------------------------------------------------------------------
# Static AIWC invariants
# ----------------------------------------------------------------------
_weights = st.lists(
    st.floats(min_value=0.0, max_value=1e12,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=16)


@given(_weights)
def test_pattern_entropy_bounded(weights):
    """0 <= H <= log2(k) for any k-element non-negative weight vector."""
    from repro.aiwc.metrics import pattern_entropy_from_weights
    h = pattern_entropy_from_weights(weights)
    assert 0.0 <= h <= np.log2(len(weights)) + 1e-9


@given(_weights, st.randoms(use_true_random=False))
def test_pattern_entropy_permutation_invariant(weights, rng):
    """Entropy is a function of the multiset, not the order."""
    from repro.aiwc.metrics import pattern_entropy_from_weights
    shuffled = list(weights)
    rng.shuffle(shuffled)
    assert pattern_entropy_from_weights(shuffled) == pytest.approx(
        pattern_entropy_from_weights(weights), abs=1e-9)


@given(_weights)
def test_pattern_entropy_ignores_degenerate_entries(weights):
    """NaN/inf/negative entries carry no information."""
    from repro.aiwc.metrics import pattern_entropy_from_weights
    noisy = weights + [float("nan"), float("inf"), -1.0]
    assert pattern_entropy_from_weights(noisy) == pytest.approx(
        pattern_entropy_from_weights(weights), abs=1e-9)


@SLOW
@given(st.sampled_from(["kmeans", "lud", "fft", "nw", "srad", "umesh"]))
def test_static_opcode_counts_monotone_in_size(name):
    """Growing the problem never shrinks the static op count or footprint."""
    from repro.analysis.staticaiwc import characterize_static
    from repro.dwarfs import registry
    cls = registry.get_benchmark(name)
    metrics = [characterize_static(cls.from_size(s))
               for s in cls.available_sizes()]
    ops = [m.opcode_total for m in metrics]
    footprints = [m.unique_footprint_log for m in metrics]
    assert all(a <= b + 1e-9 for a, b in zip(ops, ops[1:]))
    assert all(a <= b + 1e-9 for a, b in zip(footprints, footprints[1:]))
