"""Multi-level hierarchy, TLB and branch predictor."""

import numpy as np
import pytest

from repro.cache import BranchPredictor, CacheHierarchy, SetAssociativeCache, TLB
from tests.cache_oracles import hierarchy_access, predict_and_update, tlb_access


def small_hierarchy():
    return CacheHierarchy([
        SetAssociativeCache(1024, 64, 2, name="L1"),
        SetAssociativeCache(8192, 64, 4, name="L2"),
        SetAssociativeCache(65536, 64, 8, name="L3"),
    ])


class TestHierarchy:
    def test_levels_must_grow(self):
        with pytest.raises(ValueError):
            CacheHierarchy([
                SetAssociativeCache(8192, 64, 2),
                SetAssociativeCache(1024, 64, 2),
            ])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CacheHierarchy([])

    def test_miss_fills_all_levels(self):
        h = small_hierarchy()
        # memory, then L1-resident
        assert hierarchy_access(h, [0, 0]) == [3, 0]
        assert h.memory_accesses == 1

    def test_l1_eviction_falls_to_l2(self):
        h = small_hierarchy()
        # fill far beyond L1 (1 KiB) but within L2 (8 KiB)
        addrs = np.arange(0, 4096, 64)
        h.access_many(addrs)
        h.levels[0].reset()
        assert hierarchy_access(h, [0]) == [1]  # L2 hit

    def test_working_set_classification(self, skylake):
        """On the Skylake hierarchy, a working set that fits L2 misses
        L1 but not L3 when streamed cyclically — the basis of the
        problem-size verification."""
        h = CacheHierarchy.for_device(skylake)
        addrs = np.arange(0, 128 * 1024, 64)  # 128 KiB: fits L2 only
        h.access_many(addrs)
        before_l2 = h.levels[1].stats.misses
        h.access_many(addrs)
        assert h.levels[1].stats.misses == before_l2  # L2 absorbs repeats

    def test_for_device_names(self, skylake):
        h = CacheHierarchy.for_device(skylake)
        assert [c.name for c in h.levels] == ["L1", "L2", "L3"]

    def test_for_device_gpu_two_levels(self, gtx1080):
        h = CacheHierarchy.for_device(gtx1080)
        assert len(h.levels) == 2

    def test_miss_counts_and_rates(self):
        h = small_hierarchy()
        h.access_many([0, 64, 0])
        counts = h.miss_counts()
        assert counts["L1"] == 2
        rates = h.miss_rates()
        assert rates["L1"] == pytest.approx(2 / 3)

    def test_reset(self):
        h = small_hierarchy()
        h.access_many([0, 64])
        h.reset()
        assert h.memory_accesses == 0
        assert h.miss_counts() == {"L1": 0, "L2": 0, "L3": 0}


class TestTLB:
    def test_page_hit(self):
        tlb = TLB(entries=4, page_bytes=4096)
        # miss, same page, next page
        assert tlb_access(tlb, [0, 100, 4096]) == [False, True, False]

    def test_lru_eviction(self):
        tlb = TLB(entries=2, page_bytes=4096)
        # page 0, page 1, refresh page 0, page 2 evicts page 1
        tlb_access(tlb, [0, 4096, 0, 2 * 4096])
        assert tlb_access(tlb, [0]) == [True]
        assert tlb_access(tlb, [4096]) == [False]

    def test_reach(self):
        tlb = TLB(entries=64, page_bytes=4096)
        assert tlb.reach_bytes == 64 * 4096

    def test_working_set_beyond_reach_thrashes(self):
        tlb = TLB(entries=8, page_bytes=4096)
        pages = [i * 4096 for i in range(16)]
        tlb.access_many(pages)
        assert tlb.access_many(pages) == 16

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TLB(entries=0)
        with pytest.raises(ValueError):
            TLB(page_bytes=1000)

    def test_reset(self):
        tlb = TLB(entries=4)
        tlb_access(tlb, [0])
        tlb.reset()
        assert tlb.stats.accesses == 0
        assert tlb_access(tlb, [0]) == [False]


class TestBranchPredictor:
    def test_learns_steady_branch(self):
        bp = BranchPredictor(64)
        predict_and_update(bp, [0x400] * 100, [True] * 100)
        assert bp.misprediction_rate < 0.05

    def test_alternating_branch_confuses_bimodal(self):
        bp = BranchPredictor(64)
        predict_and_update(bp, [0x400] * 200,
                           [i % 2 == 0 for i in range(200)])
        assert bp.misprediction_rate > 0.4

    def test_distinct_pcs_do_not_interfere(self):
        bp = BranchPredictor(1024)
        predict_and_update(bp, [0x100, 0x200] * 50, [True, False] * 50)
        assert bp.misprediction_rate < 0.1

    def test_run_trace_shape_mismatch(self):
        bp = BranchPredictor(64)
        with pytest.raises(ValueError):
            bp.run_trace([1, 2, 3], [True])

    def test_table_size_pow2(self):
        with pytest.raises(ValueError):
            BranchPredictor(100)

    def test_reset(self):
        bp = BranchPredictor(64)
        predict_and_update(bp, [0], [True])
        bp.reset()
        assert bp.branches == 0
        assert bp.mispredictions == 0
