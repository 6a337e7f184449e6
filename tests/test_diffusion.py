"""Diffusion flows, residual blending, Dirichlet energy, and full runs."""

import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hypdiff import ball, diffusion
from hypdiff.ball import Curvature
from hypdiff.diffusion import (
    EmbeddingState,
    ResidualSpec,
    build_flow,
    diffusion_flow,
    dirichlet_energy,
    features_to_state,
    gradient,
    initial_state,
    residual_flow,
    run_diffusion,
)
from hypdiff.diffusivity import DiffusivityConfig, DiffusivityMatrix, isotropic_weights
from hypdiff.graphs import Graph, erdos_renyi
from hypdiff.solvers import NonFiniteStateError, SolverSpec

from _oracles import assert_bitwise, dense_log_aggregate, flow_reference, rk38_step, scatter_add

K1 = Curvature(-1.0)
KSMALL = Curvature(-1e-6)


def two_point_state(kappa=K1):
    return np.array([[0.2, 0.1], [-0.3, 0.25]])


class TestEmbeddingState:
    def test_projects_rows(self):
        st = EmbeddingState(points=np.array([[5.0, 0.0]]), curvature=K1)
        assert np.linalg.norm(st.points[0]) < 1.0

    def test_shape_check(self):
        with pytest.raises(ValueError):
            EmbeddingState(points=np.zeros(3), curvature=K1)


class TestResidualSpec:
    def test_defaults(self):
        assert ResidualSpec().eta == (1.0, 0.6, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ResidualSpec(eta=(1.0, 2.0))
        with pytest.raises(ValueError):
            ResidualSpec(eta=(0.0, 0.0, 0.0))


class TestGradient:
    def test_zero_at_same_point(self):
        pts = two_point_state()
        out = gradient(pts, [(0, 0), (1, 1)], K1)
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_flat_limit(self):
        pts = two_point_state()
        out = gradient(pts, [(0, 1)], KSMALL)
        np.testing.assert_allclose(out[0], pts[1] - pts[0], atol=1e-6)

    def test_exp_inverts(self):
        pts = two_point_state()
        out = gradient(pts, [(0, 1)], K1)
        np.testing.assert_allclose(
            ball.exp_map(pts[0], out[0], K1), pts[1], atol=1e-12
        )

    def test_index_check(self):
        with pytest.raises(IndexError):
            gradient(two_point_state(), [(0, 5)], K1)


class TestDiffusionFlow:
    def test_zero_weights_identity(self):
        pts = two_point_state()
        dmat = DiffusivityMatrix(
            n=2, edge_index=[[0, 1], [1, 0]], edge_weights=[0.0, 0.0]
        )
        np.testing.assert_allclose(diffusion_flow(pts, dmat, K1), pts, atol=1e-15)

    def test_unit_weight_single_neighbor_swaps(self):
        pts = two_point_state()
        dmat = DiffusivityMatrix(
            n=2, edge_index=[[0, 1], [1, 0]], edge_weights=[1.0, 1.0]
        )
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
        for u, v in g.edges:
            w = 1.0 / np.sqrt(deg[u] * deg[v])
            expected[u] += w * (pts[v] - pts[u])
            expected[v] += w * (pts[u] - pts[v])
        np.testing.assert_allclose(out, expected, atol=1e-5)

    def test_tanh_activation(self):
        pts = two_point_state()
        dmat = DiffusivityMatrix(
            n=2, edge_index=[[0, 1], [1, 0]], edge_weights=[1.0, 1.0]
        )
        out = diffusion_flow(pts, dmat, K1, sigma="tanh")
        want = ball.exp_map(pts, np.tanh(ball.log_map(pts, pts[::-1], K1)), K1)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_unknown_sigma(self):
        pts = two_point_state()
        dmat = DiffusivityMatrix(n=2, edge_index=[[0], [1]], edge_weights=[1.0])
        with pytest.raises(ValueError):
            diffusion_flow(pts, dmat, K1, sigma="relu")

    def test_nonfinite_aggregate_names_node(self):
        pts = two_point_state()
        dmat = DiffusivityMatrix(
            n=2, edge_index=[[0, 1], [1, 0]], edge_weights=[np.inf, 1.0]
        )
        with pytest.raises(FloatingPointError, match="node 0"):
            diffusion_flow(pts, dmat, K1)


@st.composite
def flow_cases(draw):
    """A state of n points, a directed edge list that may leave nodes
    isolated, nonnegative scalar or per-channel weights, and maybe a dense
    nonnegative global part."""
    n = draw(st.integers(1, 9))
    dim = draw(st.integers(1, 4))
    m = draw(st.integers(0, 30))
    pairs = draw(hnp.arrays(np.int64, (2, m), elements=st.integers(0, n - 1)))
    coords = draw(hnp.arrays(np.float64, (n, dim), elements=st.floats(-0.6, 0.6)))
    wshape = draw(st.sampled_from([(m,), (m, dim)]))
    weights = draw(hnp.arrays(np.float64, wshape, elements=st.floats(0.0, 2.0)))
    dense = draw(st.booleans())
    glob = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(0.0, 1.0))) if dense else None
    return coords / np.sqrt(dim), pairs, weights, glob


class TestAggregation:
    """The blocked bincount edge pass and the row-blocked dense pass against
    the sequential np.add.at and one-shot references."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(flow_cases(), st.integers(1, 40))
    def test_flow_matches_reference(self, case, block_floats):
        pts, pairs, weights, glob = case
        dmat = DiffusivityMatrix(n=len(pts), edge_index=pairs, edge_weights=weights)
        want = flow_reference(pts, pairs[0], pairs[1], weights, glob, K1)
        assert_bitwise(diffusion_flow(pts, dmat, K1, global_part=glob), want)
        with mock.patch.object(diffusion, "_DENSE_BLOCK_FLOATS", block_floats):
            assert_bitwise(diffusion_flow(pts, dmat, K1, global_part=glob), want)

    @staticmethod
    def edge_sums(pts, dmat, block_floats):
        with mock.patch.object(diffusion, "_DENSE_BLOCK_FLOATS", block_floats):
            return diffusion._edge_aggregate(pts, dmat, -1.0, ball._sqnorm(pts))

    @staticmethod
    def weighted_log_rows(pts, src, dst, weights):
        tang = ball.log_map(pts[src], pts[dst], K1)
        return weights[:, None] * tang if weights.ndim == 1 else weights * tang

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        n=st.integers(1, 12),
        pairs=hnp.arrays(np.int64, st.integers(0, 40).map(lambda m: (2, m)),
                         elements=st.integers(0, 11)),
        dim=st.integers(1, 5),
        block_floats=st.integers(1, 50),
        data=st.data(),
    )
    def test_source_sums_equal_add_at(self, n, pairs, dim, block_floats, data):
        """Blocks of whole source nodes, in any source order, with zero
        weights that turn negative log maps into -0.0 rows."""
        src, dst = pairs % n
        pts = data.draw(hnp.arrays(np.float64, (n, dim), elements=st.floats(-0.5, 0.5)))
        pts = pts / np.sqrt(dim)  # inside the ball, where log_map does not project
        wshape = data.draw(st.sampled_from([(src.size,), (src.size, dim)]))
        weights = data.draw(hnp.arrays(np.float64, wshape, elements=st.one_of(
            st.floats(0.0, 1e3), st.just(0.0))))
        dmat = DiffusivityMatrix(n=n, edge_index=[src, dst], edge_weights=weights)
        want = scatter_add(n, src, self.weighted_log_rows(pts, src, dst, weights))
        assert_bitwise(self.edge_sums(pts, dmat, block_floats), want)

    def test_negative_zero_rows_sum_to_positive_zero(self):
        pts = np.array([[0.3, 0.2], [0.1, -0.4], [-0.2, 0.1]])
        src, dst = np.array([0, 0, 2]), np.array([1, 2, 0])
        weights = np.zeros(3)
        rows = self.weighted_log_rows(pts, src, dst, weights)
        assert np.signbit(rows).any()
        dmat = DiffusivityMatrix(n=3, edge_index=[src, dst], edge_weights=weights)
        for block_floats in (2, 1 << 16):
            out = self.edge_sums(pts, dmat, block_floats)
            assert_bitwise(out, scatter_add(3, src, rows))
            assert not np.signbit(out).any()

    def test_hub_spanning_several_blocks(self):
        """A hub with more edges than a block holds keeps them in one block;
        isolated nodes and a reversed edge order are summed as np.add.at does."""
        n, dim = 12, 3
        hub = [(0, j) for j in range(1, 9)] + [(5, 6), (6, 5), (9, 5)]
        src, dst = np.array(hub[::-1]).T  # sources in descending order
        rng = np.random.default_rng(4)
        pts = 0.8 * initial_state(n, dim, K1, seed=4, scale=0.6).points
        for weights in (rng.uniform(0, 2, src.size), rng.uniform(0, 2, (src.size, dim))):
            dmat = DiffusivityMatrix(n=n, edge_index=[src, dst], edge_weights=weights)
            want = scatter_add(n, src, self.weighted_log_rows(pts, src, dst, weights))
            blocks = dmat.edge_blocks(dim, 2 * dim)
            assert [(b.lo, b.hi) for b in blocks] == [(0, 1), (1, 9), (9, 12)]
            assert_bitwise(self.edge_sums(pts, dmat, 2 * dim), want)

    def test_source_index_built_once_per_dimension(self):
        dmat = isotropic_weights(erdos_renyi(12, 0.3, seed=2))
        blocks = dmat.edge_blocks(3, 64)
        assert dmat.edge_blocks(3, 64) is blocks
        assert dmat.edge_blocks(4, 64) is not blocks

    def test_blocks_cut_at_source_boundaries(self):
        dmat = isotropic_weights(erdos_renyi(40, 0.2, seed=9))
        src = dmat.edge_index[0]
        for dim, block_floats in [(1, 1), (3, 17), (16, 256), (16, 1 << 16)]:
            blocks = dmat.edge_blocks(dim, block_floats)
            covered = np.concatenate([np.arange(src.size)[b.edges] for b in blocks])
            assert_bitwise(covered, np.arange(src.size))
            for b in blocks:
                assert np.all((src[b.edges] >= b.lo) & (src[b.edges] < b.hi))
                counts = np.bincount(src[b.edges] - b.lo)
                assert len(b.flat) <= max(block_floats, dim * counts.max())
            assert all(p.hi <= q.lo for p, q in zip(blocks, blocks[1:]))

    def test_no_edges_no_blocks(self):
        dmat = DiffusivityMatrix(n=4, edge_index=np.zeros((2, 0)), edge_weights=[])
        assert dmat.edge_blocks(2, 64) == ()

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 7, 16])
    def test_blocked_dense_pass_matches_one_shot(self, rows):
        rng = np.random.default_rng(rows)
        n = 16 if rows != 16 else 23  # n is no multiple of the block size
        pts = 0.9 * initial_state(n, 3, K1, seed=rows, scale=0.6).points
        weights = rng.uniform(0.0, 1.0, size=(n, n))
        got = diffusion._global_aggregate(pts, weights, -1.0, ball._sqnorm(pts), rows)
        assert_bitwise(got, dense_log_aggregate(pts, weights, K1))

    def test_block_rows_stay_within_the_budget(self):
        for n, dim in [(1, 1), (800, 16), (5000, 16), (10**6, 64)]:
            rows = diffusion._block_rows(n, dim)
            assert rows >= 1
            assert rows == 1 or rows * n * dim <= diffusion._DENSE_BLOCK_FLOATS


class TestBlockPool:
    """The flow passes on pool threads: the same bits as in one thread, the
    caller's numpy error state, and no thread left behind by a run."""

    @staticmethod
    def pool(monkeypatch, threads):
        monkeypatch.setattr(diffusion.dv, "available_cpus", lambda: threads)
        monkeypatch.setattr(diffusion, "_DENSE_BLOCK_FLOATS", 48)
        return diffusion.BlockPool()

    @staticmethod
    def flow_case(seed, channels):
        g = erdos_renyi(30, 0.3, seed=seed)
        dmat = isotropic_weights(g)
        if channels:
            rng = np.random.default_rng(seed)
            dmat = DiffusivityMatrix(n=g.n, edge_index=dmat.edge_index,
                                     edge_weights=rng.uniform(0, 1, (dmat.edge_weights.size, 4)))
        pts = 0.9 * initial_state(g.n, 4, K1, seed=seed, scale=0.6).points
        glob = np.random.default_rng(seed + 1).uniform(0.0, 1.0, (g.n, g.n))
        return pts, dmat, glob

    @pytest.mark.parametrize("threads", [2, 3])
    def test_pooled_equals_serial(self, monkeypatch, threads):
        pool = self.pool(monkeypatch, threads)
        for seed, channels in [(1, False), (2, True)]:
            pts, dmat, glob = self.flow_case(seed, channels)
            want = diffusion_flow(pts, dmat, K1, global_part=glob)
            with pool:
                got = diffusion_flow(pts, dmat, K1, global_part=glob, pool=pool)
                names = [t.name for t in threading.enumerate()]
            assert any(name.startswith("hypdiff-flow") for name in names)
            assert_bitwise(got, want)

    def test_floating_point_error_in_a_block_reaches_caller(self, monkeypatch):
        pool = self.pool(monkeypatch, 2)
        pts, dmat, _ = self.flow_case(3, False)
        # self pairs have a zero log map, and inf * 0 is an invalid operation
        bad = DiffusivityMatrix(n=dmat.n, edge_index=[dmat.edge_index[0]] * 2,
                                edge_weights=np.full(dmat.edge_weights.size, np.inf))
        assert len(bad.edge_blocks(4, diffusion._DENSE_BLOCK_FLOATS)) >= 4
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

    def test_run_joins_its_threads(self, monkeypatch):
        self.pool(monkeypatch, 2)
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
        monkeypatch.setattr(diffusion.dv, "available_cpus", lambda: 1)
        _, serial = self.run_global()
        assert pooled == serial

    def test_failed_run_joins_its_threads(self, monkeypatch):
        self.pool(monkeypatch, 2)
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


class TestResidualFlow:
    def test_pure_dynamic(self):
        rng = np.random.default_rng(4)
        z_dot, z_t, z_0 = (0.3 * rng.standard_normal((5, 2)) for _ in range(3))
        out = residual_flow(z_dot, z_t, z_0, ResidualSpec(eta=(1.0, 0.0, 0.0)), K1)
        np.testing.assert_allclose(out, z_dot, atol=1e-12)

    def test_all_equal_states(self):
        z = two_point_state()
        out = residual_flow(z, z, z, ResidualSpec(), K1)
        np.testing.assert_allclose(out, z, atol=1e-12)

    def test_shape_mismatch(self):
        z = two_point_state()
        with pytest.raises(ValueError):
            residual_flow(z, z, z[:1], ResidualSpec(), K1)


class TestDirichletEnergy:
    def test_edgeless_graph(self):
        g = Graph.from_edges([], n=3)
        assert dirichlet_energy(np.zeros((3, 2)), g, K1) == 0.0

    def test_equal_points_regular_graph(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
        pts = np.tile(np.array([0.2, -0.1]), (4, 1))
        assert dirichlet_energy(pts, g, K1) == pytest.approx(0.0, abs=1e-25)

    def test_single_edge_hand_value(self):
        g = Graph.from_edges([(0, 1)])
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
        for u, v in g.edges:
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


class TestEnergyMonotonicityStudy:
    def test_single_step_energy_study_logged(self, capsys):
        """One HEuler step with symmetric isotropic weights: energy should not
        increase.  Proven only for message passing in the literature, so
        violations are counted and reported, not asserted."""
        increases = 0
        for seed in range(100):
            g = erdos_renyi(12, 0.35, seed=200 + seed)
            if not g.edges:
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
