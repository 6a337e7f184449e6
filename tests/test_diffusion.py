"""Diffusion flows, residual blending, Dirichlet energy, and full runs."""

import contextlib
import gc
import sys
import threading
import tracemalloc
import types
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hypdiff import ball, blocks, diffusion, diffusivity as dv, solvers
from hypdiff.cli import bundled_graph_path
from hypdiff.diffusion import (
    EmbeddingState,
    ResidualSpec,
    build_flow,
    diffusion_flow,
    dirichlet_energy,
    features_to_state,
    initial_state,
    run_diffusion,
)
from hypdiff.diffusivity import DiffusivityConfig, DiffusivityMatrix, isotropic_weights
from hypdiff.graphio import load_edge_list
from hypdiff.graphs import Graph, erdos_renyi
from hypdiff.solvers import NonFiniteStateError, SolverSpec, _hrk4_step, solve

from _oracles import (
    assert_bitwise, dense_log_aggregate, dirichlet_energy_reference, flow_reference,
    gyromidpoint_reference, rk38_step, row_source, scatter_add,
)

K1 = -1.0
KSMALL = -1e-6


PAIR = Graph(2, [(0, 1)])  # directed edges (0, 1), (1, 0)


def row_sizes(n_rows, row_floats, threads=1, floats=None):
    """The lengths of the row_ranges of n_rows equal rows."""
    ranges = blocks.row_ranges(row_floats * np.arange(n_rows + 1), threads, floats)
    return [b - a for a, b in ranges]


def two_point_state(kappa=K1):
    return np.array([[0.2, 0.1], [-0.3, 0.25]])


class TestEmbeddingState:
    def test_projects_rows(self):
        st = EmbeddingState(points=np.array([[5.0, 0.0]]), kappa=K1)
        assert np.linalg.norm(st.points[0]) < 1.0

    def test_shape_check(self):
        with pytest.raises(ValueError):
            EmbeddingState(points=np.zeros(3), kappa=K1)


class TestResidualSpec:
    def test_defaults(self):
        assert ResidualSpec().eta == (1.0, 0.6, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ResidualSpec(eta=(1.0, 2.0))
        with pytest.raises(ValueError):
            ResidualSpec(eta=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError):  # a subnormal sum of |eta|
            ResidualSpec(eta=(5e-324, 0.0, 0.0))

    def test_overflowing_sum_accepted_silently(self):
        with np.errstate(all="raise"):
            assert ResidualSpec(eta=(1e308, 1e308, -1e308)).eta == (1e308, 1e308, -1e308)


class TestDiffusionFlow:
    def test_zero_weights_identity(self):
        pts = two_point_state()
        dmat = DiffusivityMatrix(PAIR, [0.0, 0.0])
        np.testing.assert_allclose(diffusion_flow(pts, dmat, K1), pts, atol=1e-15)

    def test_unit_weight_single_neighbor_swaps(self):
        pts = two_point_state()
        dmat = DiffusivityMatrix(PAIR, [1.0, 1.0])
        out = diffusion_flow(pts, dmat, K1)
        np.testing.assert_allclose(out[0], pts[1], atol=1e-12)
        np.testing.assert_allclose(out[1], pts[0], atol=1e-12)

    def test_flat_limit_matches_graph_diffusion(self):
        g = erdos_renyi(12, 0.4, seed=2)
        rng = np.random.default_rng(3)
        pts = 0.1 * rng.standard_normal((12, 3))
        out = diffusion_flow(pts, isotropic_weights(g), KSMALL)
        deg = g.degrees
        expected = pts.copy()
        for u, v in g.edge_array.tolist():
            w = 1.0 / np.sqrt(deg[u] * deg[v])
            expected[u] += w * (pts[v] - pts[u])
            expected[v] += w * (pts[u] - pts[v])
        np.testing.assert_allclose(out, expected, atol=1e-5)

    def test_tanh_activation(self):
        pts = two_point_state()
        dmat = DiffusivityMatrix(PAIR, [1.0, 1.0])
        out = diffusion_flow(pts, dmat, K1, sigma="tanh")
        want = ball.exp_map(pts, np.tanh(ball.log_map(pts, pts[::-1], K1)), K1)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_unknown_sigma(self):
        pts = two_point_state()
        dmat = DiffusivityMatrix(PAIR, [1.0, 1.0])
        with pytest.raises(ValueError):
            diffusion_flow(pts, dmat, K1, sigma="relu")

    def test_nonfinite_aggregate_names_node(self):
        pts = two_point_state()
        dmat = DiffusivityMatrix(PAIR, [np.inf, 1.0])
        with pytest.raises(FloatingPointError, match="node 0"):
            diffusion_flow(pts, dmat, K1)


def graph_without_loops(n, src, dst):
    """The graph on n nodes of the edges (src, dst) that are no self-loops."""
    src, dst = np.asarray(src), np.asarray(dst)
    keep = src != dst
    return Graph(n, np.stack([src[keep], dst[keep]], axis=1))


@st.composite
def flow_cases(draw):
    """A state of n points, a graph whose edges may leave nodes isolated,
    nonnegative scalar or per-channel weights on its directed edges, and
    maybe a dense nonnegative global part."""
    n = draw(st.integers(1, 9))
    dim = draw(st.integers(1, 4))
    m = draw(st.integers(0, 30))
    pairs = draw(hnp.arrays(np.int64, (2, m), elements=st.integers(0, n - 1)))
    g = graph_without_loops(n, *pairs)
    coords = draw(hnp.arrays(np.float64, (n, dim), elements=st.floats(-0.6, 0.6)))
    edges = g.directed_edges.shape[1]
    wshape = draw(st.sampled_from([(edges,), (edges, dim)]))
    weights = draw(hnp.arrays(np.float64, wshape, elements=st.floats(0.0, 2.0)))
    dense = draw(st.booleans())
    glob = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(0.0, 1.0))) if dense else None
    return coords / np.sqrt(dim), g, weights, glob


class TestAggregation:
    """The blocked bincount edge pass and the row-blocked dense pass against
    the sequential np.add.at and one-shot references."""

    @settings(deadline=None, max_examples=200)
    @given(flow_cases(), st.integers(1, 40))
    def test_flow_matches_reference(self, case, block_floats):
        pts, g, weights, glob = case
        dmat = DiffusivityMatrix(g, weights)
        want = flow_reference(pts, *g.directed_edges, weights, glob, K1)
        rows = row_source(glob)
        assert_bitwise(diffusion_flow(pts, dmat, K1, global_part=rows), want)
        with mock.patch.object(blocks, "_DENSE_BLOCK_FLOATS", block_floats):
            assert_bitwise(diffusion_flow(pts, dmat, K1, global_part=rows), want)

    @staticmethod
    def edge_sums(pts, dmat, block_floats):
        with mock.patch.object(blocks, "_DENSE_BLOCK_FLOATS", block_floats):
            return diffusion._edge_aggregate(pts, dmat, -1.0, ball._sqnorm(pts),
                                             blocks.BlockPool())

    @staticmethod
    def weighted_log_rows(pts, src, dst, weights):
        tang = ball.log_map(pts[src], pts[dst], K1)
        return weights[:, None] * tang if weights.ndim == 1 else weights * tang

    @settings(deadline=None, max_examples=200)
    @given(
        n=st.integers(1, 12),
        pairs=hnp.arrays(np.int64, st.integers(0, 40).map(lambda m: (2, m)),
                         elements=st.integers(0, 11)),
        dim=st.integers(1, 5),
        block_floats=st.integers(1, 50),
        data=st.data(),
    )
    def test_source_sums_equal_add_at(self, n, pairs, dim, block_floats, data):
        """Blocks of whole source nodes, with zero weights that turn negative
        log maps into -0.0 rows."""
        g = graph_without_loops(n, *(pairs % n))
        src, dst = g.directed_edges
        pts = data.draw(hnp.arrays(np.float64, (n, dim), elements=st.floats(-0.5, 0.5)))
        pts = pts / np.sqrt(dim)  # inside the ball, where log_map does not project
        wshape = data.draw(st.sampled_from([(src.size,), (src.size, dim)]))
        weights = data.draw(hnp.arrays(np.float64, wshape, elements=st.one_of(
            st.floats(0.0, 1e3), st.just(0.0))))
        dmat = DiffusivityMatrix(g, weights)
        want = scatter_add(n, src, self.weighted_log_rows(pts, src, dst, weights))
        assert_bitwise(self.edge_sums(pts, dmat, block_floats), want)

    def test_negative_zero_rows_sum_to_positive_zero(self):
        pts = np.array([[0.3, 0.2], [0.1, -0.4], [-0.2, 0.1]])
        g = Graph(3, [(0, 1), (0, 2)])
        src, dst = g.directed_edges
        weights = np.zeros(src.size)
        rows = self.weighted_log_rows(pts, src, dst, weights)
        assert np.signbit(rows).any()
        dmat = DiffusivityMatrix(g, weights)
        for block_floats in (2, 1 << 16):
            out = self.edge_sums(pts, dmat, block_floats)
            assert_bitwise(out, scatter_add(3, src, rows))
            assert not np.signbit(out).any()

    def test_hub_spanning_several_blocks(self):
        """Nodes with more edges than a block holds (the hub 0 and node 5)
        keep them in one range; isolated nodes are summed as np.add.at does."""
        n, dim = 12, 3
        hub = [(0, j) for j in range(1, 9)] + [(5, 6), (6, 5), (9, 5)]
        g = Graph(n, hub)  # nodes 10 and 11 are isolated
        src, dst = g.directed_edges
        rng = np.random.default_rng(4)
        pts = 0.8 * initial_state(n, dim, K1, seed=4, scale=0.6).points
        for weights in (rng.uniform(0, 2, src.size), rng.uniform(0, 2, (src.size, dim))):
            dmat = DiffusivityMatrix(g, weights)
            want = scatter_add(n, src, self.weighted_log_rows(pts, src, dst, weights))
            ranges = blocks.row_ranges(dim * g.offsets, 1, 2 * dim)
            assert ranges == [(0, 1), (1, 3), (3, 5), (5, 6), (6, 7), (7, 9), (9, 12)]
            assert [g.offsets[hi] - g.offsets[lo] for lo, hi in ranges] == [8, 2, 2, 3, 2, 2, 1]
            assert_bitwise(self.edge_sums(pts, dmat, 2 * dim), want)

    def test_blocks_cut_at_source_boundaries(self):
        g = erdos_renyi(40, 0.2, seed=9)
        offsets = g.offsets
        for dim, block_floats in [(1, 1), (3, 17), (16, 256), (16, 1 << 16)]:
            for threads in (1, 2, 3):
                ranges = blocks.row_ranges(dim * offsets, threads, block_floats)
                # the ranges cover all nodes, so their edges cover all edges, in order
                assert [a for a, _ in ranges] == [0] + [b for _, b in ranges[:-1]]
                assert ranges[-1][1] == g.n
                for lo, hi in ranges:
                    # within the budget, or one node whose edges exceed it
                    assert (offsets[hi] - offsets[lo]) * dim <= block_floats or hi - lo == 1

    def test_no_edges_no_blocks(self):
        pts = np.zeros((4, 2))
        dmat = DiffusivityMatrix(Graph(4, []), [])
        pool = blocks.BlockPool()
        with mock.patch.object(pool, "run", wraps=pool.run) as run:
            out = diffusion._edge_aggregate(pts, dmat, -1.0, ball._sqnorm(pts), pool)
        assert run.call_args.args[1] == []
        assert_bitwise(out, np.zeros((4, 2)))

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 7, 16])
    def test_blocked_dense_pass_matches_one_shot(self, block_pool, rows):
        rng = np.random.default_rng(rows)
        # past one row, n is no multiple of the block size
        n = {1: 16, 2: 15, 3: 16, 5: 14, 7: 20, 16: 31}[rows]
        # the dense pass takes twice the budget, here rows rows of n * 3 floats
        pool = block_pool(1, -(-rows * n * 3 // 2))
        assert max(row_sizes(n, n * 3, 1, 2 * blocks._DENSE_BLOCK_FLOATS)) == rows
        pts = 0.9 * initial_state(n, 3, K1, seed=rows, scale=0.6).points
        weights = rng.uniform(0.0, 1.0, size=(n, n))
        # -0.0 + x is x for every x, -0.0 included
        got = np.full_like(pts, -0.0)
        diffusion._global_aggregate(pts, row_source(weights), -1.0, ball._sqnorm(pts), pool, got)
        assert_bitwise(got, dense_log_aggregate(pts, weights, K1))


class TestRowRanges:
    """blocks.row_ranges, the one cutter of every pass."""

    @settings(deadline=None, max_examples=300)
    @given(
        sizes=st.lists(st.one_of(st.just(0), st.integers(0, 40), st.integers(0, 300)), max_size=60),
        start=st.integers(0, 1000),
        threads=st.integers(1, 4),
        floats=st.integers(1, 200),
    )
    def test_ranges_cover_every_row_once_within_the_budget(self, sizes, start, threads, floats):
        """Rows of no floats and rows above the budget, which get a range
        of their own."""
        ends = start + np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
        ranges = blocks.row_ranges(ends, threads, floats)
        bounds = [0] + [b for _, b in ranges]
        assert [a for a, _ in ranges] == bounds[:-1]
        assert bounds[-1] == len(sizes)
        for a, b in ranges:
            assert a < b
            assert ends[b] - ends[a] <= floats or b - a == 1

    @settings(deadline=None, max_examples=300)
    @given(n=st.integers(0, 400), row_floats=st.integers(0, 50), threads=st.integers(1, 4),
           floats=st.integers(1, 200))
    def test_equal_rows_give_a_multiple_of_the_threads(self, n, row_floats, threads, floats):
        """Ranges of equal rows differ by at most one row and number the
        fewest within the budget rounded up to a multiple of threads (but
        no more than the rows)."""
        sizes = row_sizes(n, row_floats, threads, floats)
        fewest = -(-n // max(1, floats // row_floats)) if row_floats else min(n, 1)
        want = fewest if fewest <= 1 else min(n, -(-fewest // threads) * threads)
        assert len(sizes) == want
        assert sum(sizes) == n
        assert not sizes or max(sizes) - min(sizes) <= 1

    def test_pass_shapes(self):
        assert row_sizes(5000, 16, 2) == [2500] * 2
        assert row_sizes(25000, 16, 2) == [3125] * 8
        # the dense pass of global-800: 800 rows of 800 x 16 floats
        assert row_sizes(800, 800 * 16, 2, 2 * blocks._DENSE_BLOCK_FLOATS) == [10] * 80
        assert row_sizes(800, 16, 2) == [800]
        assert row_sizes(0, 16, 2) == []

    def test_budget_read_at_call_time(self):
        with mock.patch.object(blocks, "_DENSE_BLOCK_FLOATS", 32):
            assert row_sizes(5, 16) == [2, 2, 1]


class TestFusedAttention:
    """The dense pass fed by GlobalAttention rows, made inside each block."""

    N, DIM = 37, 4

    @classmethod
    def case(cls, heads):
        g = Graph(cls.N, [(i, (i + 1) % cls.N) for i in range(cls.N)])
        dmat = isotropic_weights(g)
        pts = 0.9 * initial_state(cls.N, cls.DIM, K1, seed=heads, scale=0.6).points
        att = dv.GlobalAttention(pts, dv.AttentionParams.init(cls.DIM, heads, seed=heads),
                                 heads, K1, beta=0.5)
        return pts, dmat, att

    # one node's row of log maps holds N * DIM floats: budgets of 1-row
    # blocks, of 5-row blocks with a 2-row tail, and of 36 rows with a 1-row tail
    @pytest.mark.parametrize("block_floats", [1, 5 * N * DIM, 36 * N * DIM])
    def test_blocked_and_pooled_match_dense_reference(self, nan_block_pool, block_floats):
        nan_block_pool(2, block_floats)
        for heads in (1, 2):
            pts, dmat, att = self.case(heads)
            src, dst = dmat.graph.directed_edges
            want = flow_reference(pts, src, dst, dmat.edge_weights, att.rows(0, self.N), K1)
            assert_bitwise(diffusion_flow(pts, dmat, K1, global_part=att.rows), want)
            with blocks.BlockPool() as pool:
                got = diffusion_flow(pts, dmat, K1, global_part=att.rows, pool=pool)
            assert_bitwise(got, want)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_evaluation_holds_no_dense_attention(self, heads):
        """Besides the heads (n, n) score products, one global flow
        evaluation allocates only block-sized arrays."""
        n, dim = 1500, 16
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        z0 = initial_state(n, dim, K1, seed=heads)
        flow = build_flow(g, DiffusivityConfig(scheme="global", heads=heads), dim, K1)
        tracemalloc.start()
        try:
            flow(z0.points, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= heads * n * n * 8 + 6 * 2**20, peak


class PooledBlocks:
    """Marks the blocks of pooled passes (two or more blocks on a started
    pool of two or more threads), whichever thread runs them: ``inside`` is
    True in a thread while it runs one, and ``raised`` lists the exceptions
    that left them.  Patches BlockPool.run for the rest of the test."""

    def __init__(self, monkeypatch):
        self.local = threading.local()
        self.raised = []
        real = blocks.BlockPool.run

        def run(pool, block, items):
            if pool._executor is None or len(items) < 2:
                return real(pool, block, items)

            def marked(item, work):
                self.local.inside = True
                try:
                    block(item, work)
                except BaseException as exc:
                    self.raised.append(exc)
                    raise
                finally:
                    self.local.inside = False

            return real(pool, marked, items)

        monkeypatch.setattr(blocks.BlockPool, "run", run)

    @property
    def inside(self) -> bool:
        return getattr(self.local, "inside", False)


class TestBlockPool:
    """The flow passes on pool threads: the same bits as in one thread, the
    caller's numpy error state, and no thread left behind by a run; and the
    dispatch of a pass to the helper threads and the calling thread."""

    TIMEOUT = 10.0  # seconds an event wait may take before the test fails

    @staticmethod
    def flow_case(seed, channels):
        g = erdos_renyi(30, 0.3, seed=seed)
        dmat = isotropic_weights(g)
        if channels:
            rng = np.random.default_rng(seed)
            dmat = DiffusivityMatrix(g, rng.uniform(0, 1, (dmat.edge_weights.size, 4)))
        pts = 0.9 * initial_state(g.n, 4, K1, seed=seed, scale=0.6).points
        glob = np.random.default_rng(seed + 1).uniform(0.0, 1.0, (g.n, g.n))
        return pts, dmat, glob

    @pytest.mark.parametrize("threads", [2, 3])
    def test_pooled_equals_serial(self, nan_block_pool, threads):
        pool = nan_block_pool(threads)
        for seed, channels in [(1, False), (2, True)]:
            pts, dmat, glob = self.flow_case(seed, channels)
            want = diffusion_flow(pts, dmat, K1, global_part=row_source(glob))
            with pool:
                got = diffusion_flow(pts, dmat, K1, global_part=row_source(glob), pool=pool)
                names = [t.name for t in threading.enumerate()]
            assert any(name.startswith("hypdiff-block") for name in names)
            assert_bitwise(got, want)

    def test_floating_point_error_in_a_block_reaches_caller(self, block_pool):
        pool = block_pool(2)
        pts, dmat, _ = self.flow_case(3, False)
        # edges whose endpoints coincide have a zero log map, and inf * 0 is
        # an invalid operation
        pts = np.repeat(pts[:1], len(pts), axis=0)
        bad = DiffusivityMatrix(dmat.graph, np.full(dmat.edge_weights.size, np.inf))
        assert len(blocks.row_ranges(4 * bad.graph.offsets, 2)) >= 4
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError) as serial:
                diffusion_flow(pts, bad, K1)
            with pool, pytest.raises(FloatingPointError) as pooled:
                diffusion_flow(pts, bad, K1, pool=pool)
        # raised by numpy inside a block, not by the finiteness check after it
        assert "encountered" in str(pooled.value)
        assert str(pooled.value) == str(serial.value)

    @staticmethod
    def run_global():
        g = erdos_renyi(30, 0.3, seed=5)
        z0 = initial_state(30, 4, K1, seed=5)
        dcfg = DiffusivityConfig(scheme="global", beta=0.5)
        spec = SolverSpec(method="hrk4", tau=0.5, t_final=1.0)
        return run_diffusion(z0, g, dcfg, spec)

    def test_run_joins_its_threads(self, monkeypatch, block_pool):
        block_pool(2)
        start = threading.active_count()
        seen = []
        real = diffusion.diffusion_flow

        def flow(*args, **kwargs):
            out = real(*args, **kwargs)
            seen.append(threading.active_count())
            return out

        monkeypatch.setattr(diffusion, "diffusion_flow", flow)
        _, pooled = self.run_global()
        assert max(seen) > start
        assert threading.active_count() == start
        block_pool(1)
        _, serial = self.run_global()
        assert pooled == serial

    def test_failed_run_joins_its_threads(self, monkeypatch, block_pool):
        block_pool(2)
        start = threading.active_count()
        seen = []

        def failing(agg, sigma):
            seen.append(threading.active_count())
            raise FloatingPointError("injected")

        monkeypatch.setattr(diffusion, "_apply_sigma", failing)
        with pytest.raises(NonFiniteStateError):
            self.run_global()
        assert seen and seen[0] > start
        assert threading.active_count() == start

    def test_helper_and_caller_both_run_blocks(self, block_pool):
        """Item 0 waits for item 1, so the pass ends only if two threads run
        its blocks at once: the pool's one helper and the calling thread."""
        pool = block_pool(2)
        start = threading.active_count()
        second = threading.Event()
        ran = {}

        def block(item, work):
            if item == 0:
                assert second.wait(self.TIMEOUT)
            else:
                second.set()
            ran[item] = threading.current_thread().name
            assert threading.active_count() <= start + 1

        with pool:
            pool.run(block, [0, 1])
        assert sorted(ran) == [0, 1]
        names = set(ran.values())
        assert threading.current_thread().name in names
        assert len(names) == 2 and any(name.startswith("hypdiff-block") for name in names)

    def test_earliest_failing_item_reaches_caller(self, block_pool):
        """Item 1 raises first; item 0, taken before it, raises after it: the
        caller gets item 0's exception."""
        pool = block_pool(2)
        late_failed = threading.Event()

        def block(item, work):
            if item == 1:
                try:
                    raise KeyError("item 1")
                finally:
                    late_failed.set()
            assert late_failed.wait(self.TIMEOUT)
            raise ValueError("item 0")

        with pool, pytest.raises(ValueError, match="item 0"):
            pool.run(block, [0, 1])

    def test_raises_only_after_every_started_block_finished(self, block_pool):
        """The two items run at once; the calling thread's fails at once
        while the helper's still runs, and run() waits for the helper's."""
        pool = block_pool(2)
        caller = threading.current_thread()
        both, never = threading.Barrier(2, timeout=self.TIMEOUT), threading.Event()
        running, finished = [], []

        def block(item, work):
            running.append(item)
            try:
                both.wait()
                if threading.current_thread() is caller:
                    raise ValueError("the caller's item")
                never.wait(0.2)  # still running when the caller's item fails
                finished.append(item)
            finally:
                running.remove(item)

        with pool:
            with pytest.raises(ValueError, match="the caller's item"):
                pool.run(block, [0, 1])
            assert running == [] and len(finished) == 1  # before the pool joins its helper

    def test_helper_blocks_keep_the_callers_error_state(self, block_pool):
        pool = block_pool(2)
        second = threading.Event()
        seen = {}

        def block(item, work):
            if item == 0:
                assert second.wait(self.TIMEOUT)
            else:
                second.set()
            seen[threading.current_thread().name] = np.geterr()

        with pool, np.errstate(divide="raise", over="ignore", under="warn", invalid="raise"):
            want = np.geterr()
            pool.run(block, [0, 1])
        assert want != np.geterr()  # not numpy's default
        assert len(seen) == 2 and all(err == want for err in seen.values())

    def test_every_item_runs_once_under_contention(self, block_pool):
        """Four workers on the shared cursor, switching threads as often as
        possible: a lost update of the cursor would run an item twice or
        skip it."""
        pool = block_pool(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pool:
                for size in [2, 3, 50, 400] * 50:
                    runs = [0] * size

                    def block(item, work):
                        runs[item] += 1  # each item writes only its own slot

                    pool.run(block, range(size))
                    assert runs == [1] * size
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("fail", [False, True])
    def test_no_thread_left_after_a_pass(self, block_pool, fail):
        pool = block_pool(3)
        start = threading.active_count()
        counts = []

        def block(item, work):
            counts.append(threading.active_count())
            if fail and item == 3:
                raise ValueError("item 3")

        with pytest.raises(ValueError) if fail else contextlib.nullcontext():
            with pool:
                for _ in range(3):
                    pool.run(block, range(8))
        assert threading.active_count() == start
        assert max(counts) <= start + 2  # the caller and two helpers


class TestBlockEngine:
    """The solver's row kernels and the energy in blocks on the pool: the
    bits of the serial whole-array run for any thread count and budget."""

    N, DIM = 30, 4

    @classmethod
    def integrate(cls, spec, pool):
        """(final, grid states, energies) of a global-attention run on pool."""
        g = erdos_renyi(cls.N, 0.2, seed=5)
        z0 = initial_state(cls.N, cls.DIM, K1, seed=5, scale=0.5)
        residual = ResidualSpec() if spec.method == "ham" else None
        flow = build_flow(g, DiffusivityConfig(scheme="global", beta=0.5, heads=2), cls.DIM, K1,
                          residual=residual, z0=z0.points, pool=pool)
        states, energies = [], []

        def observe(t, state):
            states.append(state)
            energies.append(dirichlet_energy(state, g, K1, pool))

        final = solve(z0.points, flow, spec, K1, observe=observe, pool=pool)
        return final, states, energies

    @pytest.mark.parametrize("method, s_min", [("heuler", 2), ("hrk4", 2), ("ham", 1), ("ham", 2)])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_pooled_solve_equals_serial(
        self, monkeypatch, nan_block_pool, method, s_min, threads,
    ):
        # 4 full steps, then one cut back by geodesic interpolation
        spec = SolverSpec(method=method, tau=0.5, t_final=2.3, s_min=s_min)
        want_final, want_states, want_energies = self.integrate(spec, None)
        pool = nan_block_pool(threads)
        assert max(row_sizes(self.N, self.DIM, threads)) < self.N / 2
        marks = PooledBlocks(monkeypatch)
        checked = []  # whether each check of flow output rows ran in a pooled block
        real = ball._finite

        def finite(*arrays):
            checked.append(marks.inside)
            return real(*arrays)

        monkeypatch.setattr(ball, "_finite", finite)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch between the pool's threads as often as possible
        try:
            with pool:
                final, states, energies = self.integrate(spec, pool)
        finally:
            sys.setswitchinterval(interval)
        assert_bitwise(final, want_final)
        assert len(states) == len(want_states) == 6
        for got, want in zip(states, want_states):
            assert_bitwise(got, want)
        assert [e.hex() for e in energies] == [e.hex() for e in want_energies]
        assert any(checked) == (threads > 1)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("block_floats", [1, 12, 48])
    def test_blocked_energy_equals_one_shot(self, nan_block_pool, threads, block_floats):
        """An edgeless graph, a single edge, and 89 edges, which no budget
        here cuts into blocks of equal size."""
        graphs = [Graph(5, []), Graph(3, [(0, 1)]),
                  erdos_renyi(self.N, 0.2, seed=5)]
        want = []
        for g in graphs:
            pts = 0.9 * initial_state(g.n, self.DIM, K1, seed=g.n, scale=0.6).points
            want.append(dirichlet_energy_reference(pts, g, K1))
        pool = nan_block_pool(threads, block_floats)
        m = len(graphs[-1].edge_array)
        assert block_floats == 1 or len(set(row_sizes(m, self.DIM, threads))) > 1
        for g, energy in zip(graphs, want):
            pts = 0.9 * initial_state(g.n, self.DIM, K1, seed=g.n, scale=0.6).points
            assert dirichlet_energy(pts, g, K1).hex() == energy.hex()
            with pool:
                assert dirichlet_energy(pts, g, K1, pool).hex() == energy.hex()

    def test_nonfinite_flow_output_in_a_pooled_block(
        self, monkeypatch, block_pool, tmp_path, capsys,
    ):
        """A NaN in the last row of the flow's output is found by the
        solver's check in a block of a pooled pass, not after the pass; the
        run stops with NonFiniteStateError, the CLI exits 2, and no thread is
        left."""
        from hypdiff.cli import main

        block_pool(2)
        real_flow = diffusion.diffusion_flow

        def flow(*args, **kwargs):
            out = real_flow(*args, **kwargs)
            out[-1, 0] = np.nan
            return out

        marks = PooledBlocks(monkeypatch)
        raised_in = []  # whether each failed check ran in a pooled block
        real_finite = ball._finite

        def finite(*arrays):
            try:
                return real_finite(*arrays)
            except ball.NonFiniteError:
                raised_in.append(marks.inside)
                raise

        monkeypatch.setattr(diffusion, "diffusion_flow", flow)
        monkeypatch.setattr(ball, "_finite", finite)
        start = threading.active_count()
        g = erdos_renyi(self.N, 0.2, seed=5)
        z0 = initial_state(self.N, self.DIM, K1, seed=5)
        spec = SolverSpec(method="hrk4", tau=1.0, t_final=2.0)
        with pytest.raises(NonFiniteStateError) as err:
            run_diffusion(z0, g, DiffusivityConfig(), spec)
        assert err.value.step_index == 0
        assert isinstance(err.value.__cause__, ball.NonFiniteError)
        assert raised_in and raised_in[0]
        assert err.value.__cause__ in marks.raised
        assert threading.active_count() == start
        assert main(["diffuse", "--out", str(tmp_path), "--T", "2"]) == 2
        assert capsys.readouterr().err == "numerical failure: non-finite state at step 0 (t=0)\n"
        assert threading.active_count() == start

    def test_new_state_is_checked_in_the_blocks_that_make_it(self, monkeypatch, block_pool):
        """heuler's second state gets NaN in its last row from the exp map
        of a block of a pooled pass; that block raises, the solver stops
        with the step's NonFiniteStateError, and the state is never
        observed."""
        pool = block_pool(2)
        marks = PooledBlocks(monkeypatch)
        h0 = 0.5 * initial_state(self.N, self.DIM, K1, seed=3).points
        assert len(row_sizes(self.N, self.DIM, 2)) >= 2
        real = ball._exp_map
        calls, poisoned = [], []

        def exp_map(x, v, k, x2=None, out=None, work=None):
            got = real(x, v, k, x2, out=out, work=work)
            calls.append(len(x))
            if sum(calls) >= 2 * self.N:  # the block that completes step 1
                got[-1, 0] = np.nan
                poisoned.append(marks.inside)
            return got

        monkeypatch.setattr(ball, "_exp_map", exp_map)
        seen = []
        spec = SolverSpec(method="heuler", tau=0.5, t_final=2.0)
        with pool, pytest.raises(NonFiniteStateError) as err:
            solve(h0, lambda h, t: h, spec, K1, observe=lambda t, h: seen.append(t), pool=pool)
        assert err.value.step_index == 1 and err.value.t == 0.5
        assert isinstance(err.value.__cause__, ball.NonFiniteError)
        assert poisoned and poisoned[0]
        assert err.value.__cause__ in marks.raised
        assert seen == [0.0, 0.5]

    def test_energy_holds_no_edge_by_dim_array(self):
        """One energy at n=5000, 25k edges, d=16 allocates the normalized
        points, the edge distances and block temporaries only.  Measured
        3.2 MB; the whole-array form peaked at 17.3 MB, and its two (m, d)
        gathers alone take 6.4 MB."""
        n, m, dim = 5000, 25000, 16
        rng = np.random.default_rng(0)
        pairs = np.sort(rng.integers(0, n, size=(2 * m, 2)), axis=1)
        g = Graph(n, np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)[:m])
        assert len(g.edge_array) == m
        pts = initial_state(n, dim, K1, seed=0, scale=0.6).points
        g.degrees  # cached before measuring
        tracemalloc.start()
        try:
            dirichlet_energy(pts, g, K1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20, peak


class RecordingScratch(blocks.Scratch):
    """A Scratch that keeps a list of every instance made (strongly, or as
    weak references), of the threads that made them, and, as weak
    references, of every buffer it held."""

    made = []
    weak = False
    buffer_refs = []
    threads = []

    def __init__(self):
        super().__init__()
        type(self).made.append(weakref.ref(self) if self.weak else self)
        type(self).threads.append(threading.current_thread().name)

    def take(self, shape, dtype=np.float64):
        out = super().take(shape, dtype)
        type(self).buffer_refs.append(weakref.ref(out.base))
        return out

    @classmethod
    def record(cls, monkeypatch, weak):
        """A fresh subclass that blocks.Scratch is for the rest of the test."""
        recording = type("Recording", (cls,),
                         {"made": [], "weak": weak, "buffer_refs": [], "threads": []})
        monkeypatch.setattr(blocks, "Scratch", recording)
        return recording


class TestScratchBuffers:
    """The pool's per-thread scratch buffers: reused across passes of
    different kinds without changing a bit, never aliased by a result, and
    gone with the pool."""

    N, DIM = 37, 4

    @classmethod
    def case(cls):
        g = erdos_renyi(cls.N, 0.2, seed=11)
        dmat = isotropic_weights(g)
        pts = 0.9 * initial_state(cls.N, cls.DIM, K1, seed=11, scale=0.6).points
        glob = np.random.default_rng(11).uniform(0.0, 1.0, (cls.N, cls.N))
        no_edges = DiffusivityMatrix(Graph(cls.N, []), [])
        return g, dmat, no_edges, pts, glob

    @classmethod
    def passes(cls, pool):
        """The edge pass, then the dense pass, then one hrk4 step, all on pool."""
        g, dmat, no_edges, pts, glob = cls.case()
        edge = diffusion_flow(pts, dmat, K1, pool=pool)
        dense = diffusion_flow(pts, no_edges, K1, global_part=row_source(glob), pool=pool)
        flow = build_flow(g, DiffusivityConfig(), cls.DIM, K1, pool=pool)
        step = _hrk4_step(pts, 0.0, 0.5, flow, K1, pool=pool)
        return edge, dense, step

    # 1-row dense blocks and edge blocks of at most 12 edges, of unequal
    # sizes; then dense blocks of 9 and 10 rows, and the solver's rows in one
    @pytest.mark.parametrize("block_floats", [48, 5 * N * DIM])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_back_to_back_passes_keep_their_bits(self, nan_block_pool, threads, block_floats):
        g, dmat, _, pts, glob = self.case()
        src, dst = g.directed_edges
        want_edge = flow_reference(pts, src, dst, dmat.edge_weights, None, K1)
        want_dense = flow_reference(pts, src[:0], dst[:0], np.zeros(0), glob, K1)
        serial = self.passes(None)
        pool = nan_block_pool(threads, block_floats)
        assert len(set(row_sizes(self.N, self.DIM, threads))) > 1 or block_floats > 48
        with pool:
            pooled = self.passes(pool)
            again = self.passes(pool)  # on the buffers the first round left
        for got in (serial, pooled, again):
            assert_bitwise(got[0], want_edge)
            assert_bitwise(got[1], want_dense)
            assert_bitwise(got[2], serial[2])

    def test_no_result_aliases_a_buffer(self, monkeypatch, block_pool):
        """Flow outputs before and after the residual blend, solver states
        (which the energy reads) and final states."""
        recording = RecordingScratch.record(monkeypatch, weak=False)
        pool = block_pool(2)
        g, _, _, pts, _ = self.case()
        results = []
        real_flow = diffusion.diffusion_flow

        def raw_flow(*args, **kwargs):
            results.append(real_flow(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(diffusion, "diffusion_flow", raw_flow)
        flow = build_flow(g, DiffusivityConfig(scheme="global", beta=0.5), self.DIM, K1,
                          residual=ResidualSpec(), z0=pts, pool=pool)

        def recorded_flow(points, t):
            results.append(flow(points, t))
            return results[-1]

        def observe(t, state):
            results.append(state)
            dirichlet_energy(state, g, K1, pool)

        with pool:
            for method in ("heuler", "hrk4", "ham"):
                spec = SolverSpec(method=method, tau=0.5, t_final=1.3, s_min=1)
                results.append(solve(pts, recorded_flow, spec, K1, observe=observe, pool=pool))
        assert any(name.startswith("hypdiff-block") for name in recording.threads)
        assert len(results) > 40
        buffers = [buf for work in recording.made for stack in work._stacks for buf in stack]
        assert buffers
        for got in results:
            assert not any(np.shares_memory(got, buf) for buf in buffers)

    @staticmethod
    def run_global(monkeypatch, block_pool):
        recording = RecordingScratch.record(monkeypatch, weak=True)
        # the solver's (30, 4) passes are one block, run in the calling
        # thread; the dense pass has three rows per block, run on the pool
        block_pool(2, 200)
        g = erdos_renyi(30, 0.3, seed=5)
        z0 = initial_state(30, 4, K1, seed=5)
        spec = SolverSpec(method="hrk4", tau=0.5, t_final=1.0)
        return recording, lambda: run_diffusion(z0, g, DiffusivityConfig(scheme="global"), spec)

    def assert_released(self, recording, start):
        gc.collect()  # a failed run's traceback frames are cycles
        assert threading.active_count() == start
        assert threading.current_thread().name in recording.threads
        assert any(name.startswith("hypdiff-block") for name in recording.threads)
        assert recording.buffer_refs
        assert all(ref() is None for ref in recording.made)
        assert all(ref() is None for ref in recording.buffer_refs)

    def test_run_releases_threads_and_buffers(self, monkeypatch, block_pool):
        start = threading.active_count()
        recording, run = self.run_global(monkeypatch, block_pool)
        real_exit = blocks.BlockPool.__exit__
        alive_after_exit = []

        def exit_(pool, *exc):
            real_exit(pool, *exc)  # the run still holds the pool here
            alive_after_exit.extend(ref() for ref in recording.made if ref() is not None)

        monkeypatch.setattr(blocks.BlockPool, "__exit__", exit_)
        run()
        assert not alive_after_exit
        self.assert_released(recording, start)

    def test_failed_run_releases_threads_and_buffers(self, monkeypatch, block_pool):
        start = threading.active_count()
        recording, run = self.run_global(monkeypatch, block_pool)
        marks = PooledBlocks(monkeypatch)
        real = ball._log_map
        calls = []

        def failing(*args, **kwargs):
            calls.append(marks.inside)
            if len(calls) > 50 and calls[-1]:
                raise FloatingPointError("injected")  # past the first evaluation
            return real(*args, **kwargs)

        monkeypatch.setattr(ball, "_log_map", failing)
        with pytest.raises(NonFiniteStateError) as err:
            run()
        assert len(calls) > 50
        assert err.value.__cause__ in marks.raised
        # the caught error, with the failed blocks' tracebacks, is still held
        self.assert_released(recording, start)
        assert isinstance(err.value.__cause__, FloatingPointError)

    def test_pooled_iso_evaluation_allocates_no_block_temporaries(self, block_pool):
        """After a warm-up evaluation, a pooled iso-5k-sized flow evaluation
        (n=5000, 25k edges, d=16) allocates its output, its aggregate and
        squared norms, and each edge block's bincount sums only.  Measured
        1.4 MB; with per-block temporaries it peaked at 5.6 MB."""
        dmat, pts = self.iso_sized()
        pool = block_pool(2, blocks._DENSE_BLOCK_FLOATS)
        with pool:
            diffusion_flow(pts, dmat, K1, pool=pool)
            tracemalloc.start()
            try:
                diffusion_flow(pts, dmat, K1, pool=pool)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 2 * 2**20, peak

    @pytest.mark.parametrize("per_channel", [False, True])
    def test_matrix_holds_edges_and_offsets_only(self, block_pool, per_channel):
        """After a pooled iso-5k-sized flow evaluation, the matrix holds its
        graph and weights, and no per-edge index or bincount bins, with scalar
        and with per-channel weights."""
        dmat, pts = self.iso_sized()
        g, dim = dmat.graph, pts.shape[1]
        if per_channel:
            dmat = DiffusivityMatrix(g, np.repeat(dmat.edge_weights[:, None], dim, axis=1))
        pool = block_pool(2, blocks._DENSE_BLOCK_FLOATS)
        with pool:
            diffusion_flow(pts, dmat, K1, pool=pool)
        assert len(blocks.row_ranges(dim * g.offsets, 2)) > 1
        assert sorted(vars(dmat)) == ["edge_weights", "graph"]
        m = g.directed_edges.shape[1]
        assert dmat.edge_weights.nbytes == 8 * m * (dim if per_channel else 1)

    @staticmethod
    def iso_sized():
        """Isotropic weights of 5000 nodes and 25k random edges, and points
        with d=16."""
        n, m, dim = 5000, 25000, 16
        rng = np.random.default_rng(0)
        pairs = np.sort(rng.integers(0, n, size=(2 * m, 2)), axis=1)
        g = Graph(n, np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)[:m])
        return isotropic_weights(g), initial_state(n, dim, K1, seed=0, scale=0.6).points


class TestResidualFlow:
    """The residual blend in the flow's closing pass."""

    @staticmethod
    def case(seed):
        g = erdos_renyi(12, 0.4, seed=seed)
        pts = 0.9 * initial_state(g.n, 3, K1, seed=seed, scale=0.6).points
        z0 = 0.9 * initial_state(g.n, 3, K1, seed=seed + 1, scale=0.6).points
        return g, pts, z0

    def test_pure_dynamic(self):
        g, pts, z0 = self.case(4)
        dmat = isotropic_weights(g)
        out = diffusion_flow(pts, dmat, K1, residual=ResidualSpec(eta=(1.0, 0.0, 0.0)), z0=z0)
        np.testing.assert_allclose(out, diffusion_flow(pts, dmat, K1), atol=1e-12)

    def test_all_equal_states(self):
        """Zero weights leave every point where it is, so the dynamic,
        current and initial states are one."""
        g, pts, _ = self.case(5)
        dmat = DiffusivityMatrix(g, np.zeros(g.directed_edges.shape[1]))
        out = diffusion_flow(pts, dmat, K1, residual=ResidualSpec(), z0=pts)
        np.testing.assert_allclose(out, pts, atol=1e-12)

    def test_shape_mismatch(self):
        g, pts, z0 = self.case(6)
        for bad in (z0[:1], z0[:, :2], None):
            with pytest.raises(ValueError, match="share one shape"):
                diffusion_flow(pts, isotropic_weights(g), K1, residual=ResidualSpec(), z0=bad)

    @pytest.mark.parametrize("scheme", dv.SCHEMES)
    @pytest.mark.parametrize("threads, block_floats", [(1, 12), (2, 12), (3, 24)])
    def test_pooled_blend_equals_the_stacked_reference(
        self, nan_block_pool, scheme, threads, block_floats,
    ):
        """The blend of each block's exp map, serial and pooled, gives the
        bits of the whole-array gyromidpoint of the stacked (dynamic,
        current, initial) states."""
        g, pts, z0 = self.case(7)
        dcfg = DiffusivityConfig(scheme=scheme, beta=0.5, heads=2, seed=1)
        eta = (1.0, -0.6, 0.1)
        dynamic = build_flow(g, dcfg, 3, K1)(pts, 0.0)
        want = gyromidpoint_reference(np.stack([dynamic, pts, z0]), np.array(eta), K1)
        pool = nan_block_pool(threads, block_floats)
        assert len(row_sizes(g.n, 3, threads)) > 1
        flow = build_flow(g, dcfg, 3, K1, residual=ResidualSpec(eta), z0=z0, pool=pool)
        assert_bitwise(flow(pts, 0.0), want)
        with pool:
            assert_bitwise(flow(pts, 0.0), want)


class TestDirichletEnergy:
    def test_edgeless_graph(self):
        g = Graph(3, [])
        assert dirichlet_energy(np.zeros((3, 2)), g, K1) == 0.0

    def test_equal_points_regular_graph(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        pts = np.tile(np.array([0.2, -0.1]), (4, 1))
        assert dirichlet_energy(pts, g, K1) == pytest.approx(0.0, abs=1e-25)

    def test_single_edge_hand_value(self):
        g = Graph(2, [(0, 1)])
        z2 = np.array([np.tanh(0.5), 0.0])
        pts = np.array([[0.0, 0.0], z2])
        o = np.zeros(2)
        img = ball.exp_map(o, ball.log_map(o, z2, K1) / np.sqrt(2.0), K1)
        want = 0.5 * float(ball.distance(o, img, K1)) ** 2
        assert dirichlet_energy(pts, g, K1) == pytest.approx(want, rel=1e-12)

    def test_nonnegative(self):
        g = erdos_renyi(10, 0.4, seed=6)
        rng = np.random.default_rng(7)
        pts = ball.project_to_ball(0.4 * rng.standard_normal((10, 3)), K1)
        assert dirichlet_energy(pts, g, K1) >= 0.0


class TestRunDiffusion:
    def test_single_heuler_step_is_one_flow_application(self):
        g = erdos_renyi(10, 0.4, seed=8)
        z0 = initial_state(10, 3, K1, seed=8)
        dcfg = DiffusivityConfig(scheme="isotropic")
        spec = SolverSpec(method="heuler", tau=1.0, t_final=1.0)
        final, trace = run_diffusion(z0, g, dcfg, spec)
        want = diffusion_flow(z0.points, isotropic_weights(g), K1)
        np.testing.assert_allclose(final.points, want, atol=1e-12)
        assert [t for t, _ in trace] == [0.0, 1.0]

    def test_ham_evaluates_the_flow_once_per_new_state(self, monkeypatch):
        """The settings of the global-800 benchmark on a small graph: the
        warm-up hrk4 step takes its first stage from the slope queue, so the
        run costs 1 (queue) + 3 (warm-up) + 1 (queue) + 1 (PEC) evaluations."""
        calls = []
        build = diffusion.build_flow

        def counting_build(*args, **kwargs):
            flow = build(*args, **kwargs)

            def counted(points, t):
                calls.append(t)
                return flow(points, t)

            return counted

        monkeypatch.setattr(diffusion, "build_flow", counting_build)
        g = erdos_renyi(40, 0.25, seed=2)
        z0 = initial_state(40, 4, K1, seed=2)
        dcfg = DiffusivityConfig(scheme="global", beta=0.5, heads=2)
        spec = SolverSpec(method="ham", tau=1.0, t_final=2.0, s_min=1)
        run_diffusion(z0, g, dcfg, spec, residual=ResidualSpec())
        assert len(calls) == 6

    def test_energy_decays_without_residual(self):
        g = erdos_renyi(50, 0.1, seed=3)
        z0 = initial_state(50, 8, K1, seed=3)
        dcfg = DiffusivityConfig(scheme="isotropic")
        spec = SolverSpec(method="hrk4", tau=1.0, t_final=16.0)
        _, trace = run_diffusion(z0, g, dcfg, spec)
        energies = [e for _, e in trace]
        assert energies[-1] < 0.05 * energies[0]
        diffs = np.diff(energies[1:])
        assert np.all(diffs <= 1e-12)

    def test_residual_keeps_energy_floor(self):
        g = erdos_renyi(50, 0.1, seed=3)
        z0 = initial_state(50, 8, K1, seed=3)
        dcfg = DiffusivityConfig(scheme="isotropic")
        spec = SolverSpec(method="hrk4", tau=1.0, t_final=16.0)
        _, trace_plain = run_diffusion(z0, g, dcfg, spec)
        _, trace_res = run_diffusion(z0, g, dcfg, spec, residual=ResidualSpec())
        by_t = dict(trace_res)
        assert trace_res[-1][1] > trace_plain[-1][1]
        assert abs(by_t[16.0] - by_t[12.0]) < 0.1 * by_t[12.0]

    def test_flat_limit_full_run(self):
        g = erdos_renyi(50, 0.1, seed=3)
        z0 = initial_state(50, 8, KSMALL, seed=3)
        dcfg = DiffusivityConfig(scheme="isotropic")
        spec = SolverSpec(method="hrk4", tau=1.0, t_final=4.0)
        final, _ = run_diffusion(z0, g, dcfg, spec)
        deg = g.degrees
        w = np.zeros((50, 50))
        for u, v in g.edge_array.tolist():
            w[u, v] = w[v, u] = 1.0 / np.sqrt(deg[u] * deg[v])

        def field(z, t):
            return w @ z - w.sum(axis=1)[:, None] * z

        z = z0.points.copy()
        for i in range(4):
            z = rk38_step(z, float(i), 1.0, field)
        assert np.abs(final.points - z).max() < 1e-3

    def test_all_schemes_run_and_stay_in_ball(self):
        g = erdos_renyi(12, 0.3, seed=10)
        z0 = initial_state(12, 4, K1, seed=10)
        spec = SolverSpec(method="heuler", tau=1.0, t_final=3.0)
        limit = 1.0 - ball.BOUNDARY_EPS
        for scheme in ("isotropic", "local", "global", "local_global"):
            dcfg = DiffusivityConfig(scheme=scheme, beta=0.4, heads=2, seed=10)
            final, trace = run_diffusion(z0, g, dcfg, spec)
            assert np.linalg.norm(final.points, axis=1).max() <= limit
            assert all(np.isfinite(e) for _, e in trace)

    def test_memory_does_not_grow_with_horizon(self):
        # 28 more grid states at T=32 than at T=4; a run that kept them
        # would exceed the T=4 peak by 28 states, far beyond the margin
        n, dim = 500, 16
        g = erdos_renyi(n, 4.0 / n, seed=1)
        z0 = initial_state(n, dim, K1, seed=1)
        dcfg = DiffusivityConfig(scheme="isotropic")
        margin = 4 * z0.points.nbytes
        peaks = {}
        for t_final in (4.0, 32.0):
            spec = SolverSpec(method="heuler", tau=1.0, t_final=t_final)
            tracemalloc.start()
            try:
                _, trace = run_diffusion(z0, g, dcfg, spec)
                peaks[t_final] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(trace) == int(t_final) + 1
        assert peaks[32.0] <= peaks[4.0] + margin, peaks

    def test_node_count_mismatch(self):
        g = erdos_renyi(5, 0.5, seed=1)
        z0 = initial_state(4, 2, K1, seed=1)
        with pytest.raises(ValueError):
            run_diffusion(z0, g, DiffusivityConfig(), SolverSpec(tau=1.0, t_final=1.0))

    def test_features_to_state(self):
        feats = np.array([[0.3, 0.0], [0.0, 0.4]])
        st = features_to_state(feats, K1)
        np.testing.assert_allclose(
            st.points, ball.exp_map(np.zeros(2), feats, K1), atol=1e-15
        )

    def test_residual_needs_initial_state(self):
        g = erdos_renyi(5, 0.5, seed=1)
        with pytest.raises(ValueError):
            build_flow(g, DiffusivityConfig(), 2, K1, residual=ResidualSpec())


class TestValidationBoundary:
    """Arrays are checked where they enter a run; inside it, the flow, the
    attention and the steps call the raw ball kernels."""

    def test_only_the_entries_and_the_flow_output_are_checked(self, monkeypatch, block_pool):
        field_block = next(c for c in solvers._field.__code__.co_consts
                           if isinstance(c, types.CodeType) and c.co_name == "fill")
        callers = set()
        real = ball._finite

        def finite(*arrays):
            callers.add(sys._getframe(1).f_code)
            return real(*arrays)

        monkeypatch.setattr(ball, "_finite", finite)
        block_pool(2)
        g = load_edge_list(bundled_graph_path())
        runs = [  # the second ends with an interpolated step
            (DiffusivityConfig(scheme="global"), SolverSpec(method="ham", tau=0.5, t_final=2.0),
             ResidualSpec()),
            (DiffusivityConfig(scheme="isotropic"),
             SolverSpec(method="hrk4", tau=0.5, t_final=1.75), None),
        ]
        for dcfg, spec, residual in runs:
            run_diffusion(initial_state(g.n, 8, K1, seed=3), g, dcfg, spec, residual)
        assert callers == {ball.project_to_ball.__code__, ball.exp_map.__code__, field_block}

    def test_nan_row_in_a_global_flow_is_a_state_error(self):
        g = load_edge_list(bundled_graph_path())
        flow = build_flow(g, DiffusivityConfig(scheme="global"), 8, K1)

        def with_nan_row(points, t):
            points = points.copy()
            points[5] = np.nan
            return flow(points, t)

        z0 = initial_state(g.n, 8, K1, seed=3)
        with pytest.raises(NonFiniteStateError) as err:
            solve(z0.points, with_nan_row, SolverSpec(method="hrk4"), K1)
        assert err.value.step_index == 0
        assert isinstance(err.value.__cause__, FloatingPointError)
        assert "non-finite tangent aggregate" in str(err.value.__cause__)


class TestEnergyMonotonicityStudy:
    def test_single_step_energy_study_logged(self, capsys):
        """One HEuler step with symmetric isotropic weights: energy should not
        increase.  Proven only for message passing in the literature, so
        violations are counted and reported, not asserted."""
        increases = 0
        for seed in range(100):
            g = erdos_renyi(12, 0.35, seed=200 + seed)
            if not len(g.edge_array):
                continue
            z0 = initial_state(12, 4, K1, seed=seed)
            dcfg = DiffusivityConfig(scheme="isotropic")
            spec = SolverSpec(method="heuler", tau=1.0, t_final=1.0)
            _, trace = run_diffusion(z0, g, dcfg, spec)
            assert all(np.isfinite(e) for _, e in trace)
            if trace[-1][1] > trace[0][1] * (1.0 + 1e-12):
                increases += 1
        with capsys.disabled():
            print(f"\n[energy study] single-step increases: {increases}/100 seeds")


@st.composite
def connected_graphs(draw):
    """A connected graph on 3 to 9 nodes: a random spanning tree plus extra
    edges."""
    n = draw(st.integers(3, 9))
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    return Graph(n, tree + [(u, v) for u, v in extra if u != v])


@st.composite
def relabeled_graphs(draw):
    """A connected graph and a permutation of its node ids."""
    g = draw(connected_graphs())
    return g, np.array(draw(st.permutations(range(g.n))))


class TestRelabeling:
    """A whole run does not depend on the node ids: giving node i the id
    perm[i], in the graph and in the rows of z0, moves row i of the output
    to row perm[i].  Only the order of the neighbour and attention sums
    changes, so the runs agree to rounding.  tau 0.05 keeps every method
    inside its stability interval (tau * rho < 0.158 for ham), where the
    rounding differences do not grow."""

    @pytest.mark.parametrize("method", solvers.METHODS)
    @pytest.mark.parametrize("scheme", dv.SCHEMES)
    @settings(deadline=None, max_examples=4)
    @given(case=relabeled_graphs(), residual=st.booleans())
    def test_permuting_node_ids_permutes_the_output(self, scheme, method, case, residual):
        g, perm = case
        z0 = initial_state(g.n, 4, K1, seed=g.n)
        moved = np.empty_like(z0.points)
        moved[perm] = z0.points
        dcfg = DiffusivityConfig(scheme=scheme, beta=0.5, heads=2, seed=1)
        spec = SolverSpec(method=method, tau=0.05, t_final=0.5)
        blend = ResidualSpec() if residual else None
        final, trace = run_diffusion(z0, g, dcfg, spec, blend)
        final_p, trace_p = run_diffusion(
            EmbeddingState(moved, K1), Graph(g.n, perm[g.edge_array]), dcfg, spec, blend)
        assert np.abs(final_p.points[perm] - final.points).max() <= 1e-12
        energy, energy_p = np.array(trace)[:, 1], np.array(trace_p)[:, 1]
        assert np.all(np.abs(energy_p - energy) <= 1e-12 * np.abs(energy))


def energies(trace):
    return np.array(trace)[:, 1]


class TestRotation:
    """For the isotropic scheme, rotating z0 by an orthogonal Q rotates a
    whole run's output by Q and keeps its energies: the scalar edge weights,
    the ball kernels and the residual blend are built from inner products
    and linear combinations of points.  The per-channel local weights and
    the global projections are not rotation-equivariant.  Steps as in
    TestRelabeling; at tau 0.05, T 1 on karate with d=8 the largest
    differences were |dz| 1.9e-16 and a relative energy difference of
    7.8e-16."""

    @pytest.mark.parametrize("method", solvers.METHODS)
    @settings(deadline=None, max_examples=4)
    @given(g=connected_graphs(), seed=st.integers(0, 2**32 - 1), residual=st.booleans())
    def test_rotating_z0_rotates_the_output(self, method, g, seed, residual):
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
        z0 = initial_state(g.n, 4, K1, seed=seed)
        dcfg = DiffusivityConfig(scheme="isotropic")
        spec = SolverSpec(method=method, tau=0.05, t_final=1.0)
        blend = ResidualSpec() if residual else None
        final, trace = run_diffusion(z0, g, dcfg, spec, blend)
        final_q, trace_q = run_diffusion(EmbeddingState(z0.points @ q.T, K1), g, dcfg, spec, blend)
        assert np.abs(final_q.points - final.points @ q.T).max() <= 1e-12
        energy = energies(trace)
        assert np.all(np.abs(energies(trace_q) - energy) <= 1e-12 * energy)


class TestCurvatureScaling:
    """z0 / sqrt(c) on the ball of curvature -c runs as z0 on the ball of
    curvature -1, scaled: the output is the kappa = -1 output divided by
    sqrt(c), and each energy is divided by c.  Every ball kernel, the
    residual blend included, is homogeneous in the radius, and so is the
    identity sigma; the isotropic and local weights do not depend on the
    points.  Where sqrt(c) is a power of two every operation scales exactly,
    so the runs agree bitwise.  On karate with d=8 at c = 3 the largest
    differences were |dz| 1.7e-16 and a relative energy difference of
    1.0e-15."""

    @pytest.mark.parametrize("method", solvers.METHODS)
    @pytest.mark.parametrize("scheme", ["isotropic", "local"])
    @settings(deadline=None, max_examples=3)
    @given(g=connected_graphs(), residual=st.booleans(),
           c=st.one_of(st.sampled_from([4.0, 0.25]), st.floats(0.2, 20.0)))
    @example(g=Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), residual=True, c=4.0)
    def test_scaling_the_ball_scales_the_output(self, scheme, method, g, residual, c):
        z0 = initial_state(g.n, 4, K1, seed=g.n)
        dcfg = DiffusivityConfig(scheme=scheme, seed=1)
        spec = SolverSpec(method=method, tau=0.05, t_final=1.0)
        blend = ResidualSpec() if residual else None
        root = np.sqrt(c)
        final, trace = run_diffusion(z0, g, dcfg, spec, blend)
        final_c, trace_c = run_diffusion(EmbeddingState(z0.points / root, -c), g, dcfg, spec, blend)
        assert np.abs(final_c.points * root - final.points).max() <= 1e-12
        energy = energies(trace)
        assert np.all(np.abs(energies(trace_c) * c - energy) <= 1e-12 * energy)
        if root == 2.0 ** np.round(np.log2(root)):
            assert_bitwise(final_c.points, final.points / root)
            assert_bitwise(energies(trace_c) * c, energy)
