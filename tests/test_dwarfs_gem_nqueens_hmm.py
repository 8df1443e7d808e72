"""gem (N-body), nqueens (branch & bound), hmm (Baum-Welch)."""

import numpy as np
import pytest

from repro.dwarfs.gem import GEM
from repro.dwarfs.hmm import HMM
from repro.dwarfs.nqueens import (
    KNOWN_SOLUTIONS,
    MAX_EXACT_N,
    WALKS_PER_ITEM,
    NQueens,
    _nqueens_estimate_kernel,
    bounded_draw,
    expand_prefixes,
    knuth_walk,
    solve_subproblem,
    uint32_stream,
)


class TestGEM:
    def test_presets_are_molecules(self):
        assert GEM.presets == {"tiny": "4TUT", "small": "2D3V",
                               "medium": "nucleosome", "large": "1KX5"}

    def test_unknown_molecule(self):
        with pytest.raises(ValueError):
            GEM(dataset="9XYZ")

    def test_from_args(self):
        assert GEM.from_args(["2D3V", "80", "1", "0"]).dataset == "2D3V"

    def test_tiny_footprint_fits_l1(self, skylake):
        """4TUT: 31.3 KiB, inside the Skylake 32 KiB L1 (paper §4.4.4)."""
        bench = GEM.from_size("tiny")
        assert bench.footprint_bytes() <= skylake.caches[0].size_bytes

    def test_potential_matches_float64(self, cpu_context, cpu_queue):
        GEM.from_size("tiny").run_complete(cpu_context, cpu_queue)

    def test_single_positive_charge_coulomb_law(self, cpu_context, cpu_queue):
        """A lone +1 charge at the origin gives phi = 1/r everywhere."""
        bench = GEM.from_size("tiny")
        bench.host_setup(cpu_context)
        bench.molecule.atoms = np.zeros((1, 4), dtype=np.float32)
        bench.molecule.atoms[0, 3] = 1.0
        bench.buf_atoms.release()
        bench.buf_atoms = cpu_context.buffer_like(bench.molecule.atoms)
        bench.kernel.set_args(bench.buf_atoms, bench.buf_vertices,
                              bench.buf_potential)
        bench.transfer_inputs(cpu_queue)
        bench.run_iteration(cpu_queue)
        bench.collect_results(cpu_queue)
        r = np.linalg.norm(bench.molecule.vertices, axis=1)
        np.testing.assert_allclose(bench.potential_out, 1.0 / r, rtol=1e-3)

    def test_profile_compute_bound_on_gpu(self, gtx1080):
        from repro.perfmodel import iteration_time
        bench = GEM.from_size("tiny")
        assert iteration_time(gtx1080, bench.profiles()).bound == "compute"


class TestNQueensPrimitives:
    @pytest.mark.parametrize("n,expected", [(4, 2), (5, 10), (6, 4),
                                            (7, 40), (8, 92), (9, 352)])
    def test_exact_solver(self, n, expected):
        assert solve_subproblem(n, 0, 0, 0, 0) == expected

    def test_prefix_expansion_counts(self):
        # depth-1 prefixes: n placements
        assert len(expand_prefixes(8, 1)) == 8
        # depth-2: n^2 minus attacked squares
        depth2 = expand_prefixes(8, 2)
        assert len(depth2) == 8 * 8 - 8 - 2 * 7  # columns + two diagonals

    def test_prefix_subtrees_sum_to_total(self):
        total = sum(solve_subproblem(7, c, dl, dr, 2)
                    for c, dl, dr in expand_prefixes(7, 2))
        assert total == 40

    def test_knuth_walk_unbiased(self, rng):
        """Mean of Knuth estimates converges to the solution count."""
        estimates = [knuth_walk(6, rng) for _ in range(20000)]
        assert np.mean(estimates) == pytest.approx(4, rel=0.3)

    def test_knuth_walk_zero_for_dead_end(self, rng):
        # n=3 has no solutions: every walk dies
        assert all(knuth_walk(3, rng) == 0 for _ in range(50))


def _oracle_estimates(n, seeds):
    """The estimator as one ``rng.integers`` call per step: the oracle."""
    out = np.empty(len(seeds))
    for idx, seed in enumerate(seeds):
        rng = np.random.default_rng(int(seed))
        out[idx] = sum(knuth_walk(n, rng)
                       for _ in range(WALKS_PER_ITEM)) / WALKS_PER_ITEM
    return out


class TestNQueensRawStream:
    """The estimate kernel walks the raw PCG64 stream; ``knuth_walk``
    with a fresh ``default_rng(seed)`` per item is its oracle."""

    def _kernel(self, n, seeds):
        seeds = np.asarray(seeds, dtype=np.int64)
        estimates = np.zeros(len(seeds), dtype=np.float64)
        _nqueens_estimate_kernel(None, n, seeds, estimates)
        return estimates

    def test_shipped_seeds_bit_identical(self, cpu_context):
        bench = NQueens(n=18)
        bench.host_setup(cpu_context)
        got = self._kernel(18, bench.seeds)
        assert len(bench.seeds) == 64
        assert np.array_equal(got, _oracle_estimates(18, bench.seeds))

    @pytest.mark.parametrize("n", [14, 16, 20])
    def test_other_boards_bit_identical(self, n):
        seeds = [0, 1, 7, 2024]
        assert np.array_equal(self._kernel(n, seeds),
                              _oracle_estimates(n, seeds))

    def test_stream_is_next_uint32(self):
        oracle = np.random.default_rng(5).bit_generator.ctypes
        want = [oracle.next_uint32(oracle.state) for _ in range(8)]
        bitgen = np.random.default_rng(5).bit_generator
        assert uint32_stream(bitgen, 3) == want[:6]
        assert uint32_stream(bitgen, 1) == want[6:]  # continues the stream

    @pytest.mark.parametrize("seed", range(20))
    def test_bounded_draw_matches_integers(self, seed):
        """Mixed bounds, including ones where rejections are frequent."""
        bounds = [1, 2, 3, 17, 2**31 + 1, 3_000_000_000, 2**32 - 1]
        ks = np.random.default_rng(1000 + seed).choice(bounds, size=300)
        ks = [int(k) for k in ks]
        rng = np.random.default_rng(seed)
        want = [int(rng.integers(k)) for k in ks]
        bitgen = np.random.default_rng(seed).bit_generator
        # one value per draw: every rejection has to extend the stream
        draws = uint32_stream(bitgen, (len(ks) + 1) // 2)
        pos, got = 0, []
        for k in ks:
            choice, pos = bounded_draw(k, draws, pos, bitgen)
            got.append(choice)
        assert got == want
        assert pos > sum(k > 1 for k in ks)  # rejections did fire
        # both sides consumed the same stream: the next draw agrees
        assert bounded_draw(17, draws, pos, bitgen)[0] == int(rng.integers(17))

    @pytest.mark.parametrize("k", [3, 17, 2**31 + 1, 2**32 - 1])
    def test_bounded_draw_rejection_boundary(self, k):
        """A low word one below ``(2**32 - k) % k`` is redrawn; one equal
        to it is kept.  Random streams almost never land on the edge."""
        threshold = (2**32 - k) % k
        inv = pow(k, -1, 2**32)
        below = (threshold - 1) * inv % 2**32
        edge = threshold * inv % 2**32
        bitgen = np.random.default_rng(0).bit_generator
        assert bounded_draw(k, [below, edge], 0, bitgen) == (
            edge * k >> 32, 2)

    def test_k1_consumes_no_draw(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert int(rng.integers(1)) == 0
        assert rng.bit_generator.state == before
        bitgen = np.random.default_rng(3).bit_generator
        draws = uint32_stream(bitgen, 2)
        state = bitgen.state
        assert bounded_draw(1, draws, 1, bitgen) == (0, 1)
        assert bitgen.state == state and len(draws) == 4


class TestNQueensBenchmark:
    def test_preset_is_single_size_18(self):
        assert NQueens.presets == {"tiny": 18}

    def test_exact_mode_small_board(self, cpu_context, cpu_queue):
        bench = NQueens(n=8)
        assert bench.exact
        bench.run_complete(cpu_context, cpu_queue)
        assert bench.solutions == 92

    def test_exact_boundary(self):
        assert NQueens(n=MAX_EXACT_N).exact
        assert not NQueens(n=MAX_EXACT_N + 1).exact

    @pytest.mark.slow
    def test_estimator_mode_n18(self, cpu_context, cpu_queue):
        bench = NQueens(n=18)
        bench.run_complete(cpu_context, cpu_queue)
        assert not bench.exact
        rel = abs(bench.solutions - KNOWN_SOLUTIONS[18]) / KNOWN_SOLUTIONS[18]
        assert rel < 0.5

    def test_wrong_count_detected(self, cpu_context, cpu_queue):
        from repro.dwarfs.base import ValidationError
        bench = NQueens(n=8)
        bench.host_setup(cpu_context)
        bench.transfer_inputs(cpu_queue)
        bench.run_iteration(cpu_queue)
        bench.collect_results(cpu_queue)
        bench.solutions = 93  # corrupt
        with pytest.raises(ValidationError):
            bench.validate()

    def test_board_size_bounds(self):
        with pytest.raises(ValueError):
            NQueens(n=0)
        with pytest.raises(ValueError):
            NQueens(n=40)

    def test_profile_compute_only(self):
        p = NQueens(n=18).profiles()[0]
        assert p.bytes_total < 1e5  # slow-scaling footprint (paper §4.4.4)
        assert p.int_ops > 0


class TestHMM:
    def test_presets_match_table2(self):
        assert HMM.presets == {
            "tiny": (8, 1), "small": (900, 1), "medium": (1012, 1024),
            "large": (2048, 2048)}

    def test_from_args(self):
        bench = HMM.from_args(["-n", "8", "-s", "1", "-v", "s"])
        assert (bench.n_states, bench.n_symbols) == (8, 1)

    def test_from_args_requires_states(self):
        with pytest.raises(ValueError):
            HMM.from_args(["-s", "4"])

    def test_tiny_matches_reference(self, cpu_context, cpu_queue):
        HMM.from_size("tiny").run_complete(cpu_context, cpu_queue)

    def test_multi_symbol_model(self, cpu_context, cpu_queue):
        HMM(n_states=6, n_symbols=4, t_observations=32).run_complete(
            cpu_context, cpu_queue)

    def test_reestimates_are_stochastic(self, cpu_context, cpu_queue):
        bench = HMM(n_states=5, n_symbols=3, t_observations=24)
        bench.run_complete(cpu_context, cpu_queue)
        np.testing.assert_allclose(bench.a_out.sum(axis=1), 1.0, atol=1e-5)
        np.testing.assert_allclose(bench.b_out.sum(axis=1), 1.0, atol=1e-4)
        assert bench.pi_out.sum() == pytest.approx(1.0, abs=1e-5)
        assert (bench.a_out >= 0).all() and (bench.b_out >= 0).all()

    def test_baum_welch_increases_likelihood(self, cpu_context, cpu_queue):
        """A re-estimation step never decreases log P(O | model)."""
        bench = HMM(n_states=4, n_symbols=3, t_observations=40)
        bench.host_setup(cpu_context)
        bench.transfer_inputs(cpu_queue)
        bench.run_iteration(cpu_queue)
        bench.collect_results(cpu_queue)
        before = bench.log_likelihood()
        # run a second step from the re-estimated model
        bench.a0, bench.b0, bench.pi0 = bench.a_out, bench.b_out, bench.pi_out
        bench.buf_a.array[...] = bench.a0
        bench.buf_b.array[...] = bench.b0
        bench.buf_pi.array[...] = bench.pi0
        bench.run_iteration(cpu_queue)
        bench.collect_results(cpu_queue)
        assert bench.log_likelihood() >= before - 1e-3

    def test_launch_structure(self, cpu_context, cpu_queue):
        bench = HMM(n_states=4, n_symbols=2, t_observations=10)
        bench.host_setup(cpu_context)
        bench.transfer_inputs(cpu_queue)
        events = bench.run_iteration(cpu_queue)
        assert len(events) == 2 * 10 + 3  # forward + backward + 3 estimators

    def test_degenerate_single_symbol(self, cpu_context, cpu_queue):
        """S=1 (the paper's tiny/small): B collapses to a column of ones."""
        bench = HMM(n_states=4, n_symbols=1, t_observations=16)
        bench.run_complete(cpu_context, cpu_queue)
        np.testing.assert_allclose(bench.b_out, 1.0, atol=1e-5)
