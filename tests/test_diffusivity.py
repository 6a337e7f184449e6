"""Diffusivity schemes: degree weights, curvature transport LPs, attention."""

import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypdiff import ball, diffusivity as dv
from hypdiff.cli import bundled_graph_path
from hypdiff.diffusion import diffusion_flow
from hypdiff.diffusivity import (
    AttentionParams,
    DiffusivityConfig,
    DiffusivityMatrix,
    global_diffusivity,
    isotropic_weights,
    local_diffusivity,
    orc_curvatures,
    transport_cost,
)
from hypdiff.graphs import Graph, erdos_renyi

from hypdiff.graphio import load_edge_list

from _oracles import (
    all_graphs_up_to,
    connected_components,
    orc_enumerated,
    preferential_attachment,
    transport_enumerate,
)

K1 = -1.0

PATH3 = Graph.from_edges([(0, 1), (1, 2)])
TRIANGLE = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
STAR5 = Graph.from_edges([(0, 1), (0, 2), (0, 3), (0, 4)])
CYCLE4 = Graph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])


def weight_lookup(dmat: DiffusivityMatrix) -> dict:
    src, dst = dmat.edge_index
    return {(int(i), int(j)): w for i, j, w in zip(src, dst, dmat.edge_weights)}


def sampled_graphs(count, max_n=30, with_small=True):
    """Seeded random graphs free of isolated-edge components.

    An isolated edge makes the two endpoint measures identical (K = 1 on the
    open-interval boundary), so the sampler redraws those.
    """
    graphs = []
    seed = 0
    sizes_cycle = [5, 6, 8, 12, 20, 30] if with_small else [10, 20, 30]
    while len(graphs) < count:
        n = sizes_cycle[len(graphs) % len(sizes_cycle)]
        g = erdos_renyi(n, min(0.5, 2.5 / n + 0.08), seed=1000 + seed)
        seed += 1
        if not g.edges:
            continue
        comps = connected_components(g.n, g.edges)
        if any(len(c) == 2 for c in comps):
            continue
        graphs.append(g)
    return graphs


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiffusivityConfig(scheme="nope")
        with pytest.raises(ValueError):
            DiffusivityConfig(beta=1.5)
        with pytest.raises(ValueError):
            DiffusivityConfig(heads=0)
        with pytest.raises(ValueError):
            DiffusivityConfig(alpha=-0.2)
        with pytest.raises(ValueError):
            DiffusivityConfig(channel_mode="rows")


class TestIsotropic:
    def test_star_weights(self):
        # hub degree 4 against leaf degree 1
        w = weight_lookup(isotropic_weights(STAR5))
        assert w[(0, 1)] == pytest.approx(0.5)
        assert w[(1, 0)] == pytest.approx(0.5)

    def test_regular_graph(self):
        w = weight_lookup(isotropic_weights(CYCLE4))
        assert all(v == pytest.approx(0.5) for v in w.values())

    def test_symmetric(self):
        g = erdos_renyi(12, 0.3, seed=5)
        w = weight_lookup(isotropic_weights(g))
        for (i, j), val in w.items():
            assert val == w[(j, i)]

    def test_path_weights(self):
        w = weight_lookup(isotropic_weights(PATH3))
        assert w[(0, 1)] == pytest.approx(1.0 / np.sqrt(2.0))


class TestTransportCost:
    def test_point_masses(self):
        w, gap = transport_cost(np.array([1.0]), np.array([1.0]), np.array([[3.0]]))
        assert w == pytest.approx(3.0, abs=1e-12)
        assert gap <= 1e-9

    def test_known_two_by_two(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        w, gap = transport_cost(np.array([0.5, 0.5]), np.array([0.5, 0.5]), cost)
        assert w == pytest.approx(0.0, abs=1e-12)
        assert gap <= 1e-9


@st.composite
def integer_transport_problems(draw):
    """Integer supply and demand with equal totals, costs in {0, 1, 2, 3}."""
    supply = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(any))
    nd = draw(st.integers(1, 4))
    # each unit of supply goes to one demand atom
    dest = draw(st.lists(st.integers(0, nd - 1), min_size=sum(supply), max_size=sum(supply)))
    demand = np.bincount(dest, minlength=nd)
    cost = draw(st.lists(st.integers(0, 3), min_size=len(supply) * nd,
                         max_size=len(supply) * nd))
    return np.array(supply), demand, np.array(cost, dtype=np.float64).reshape(len(supply), nd)


class TestTransportProperty:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(integer_transport_problems())
    def test_matches_enumeration_with_certified_gap(self, problem):
        supply, demand, cost = problem
        w, gap = transport_cost(supply.astype(np.float64), demand.astype(np.float64), cost)
        assert abs(w - transport_enumerate(supply, demand, cost.tolist())) <= 1e-9
        assert gap <= 1e-9


def _pa_graph(n, k, seed):
    return Graph.from_edges(preferential_attachment(n, k, seed=seed))


class TestOrcPool:
    """The transport LPs of orc_curvatures in forked worker processes."""

    @staticmethod
    def force_workers(monkeypatch, count):
        monkeypatch.setattr(dv, "_worker_count", lambda n_edges: count)

    def test_bitwise_equal_to_in_process(self, monkeypatch):
        cases = [(_pa_graph(150, 4, 0), 0.5), (_pa_graph(90, 2, 5), 0.0),
                 (_pa_graph(90, 2, 5), 0.5), (_pa_graph(40, 1, 3), 0.5)]
        self.force_workers(monkeypatch, 1)
        serial = [orc_curvatures(g, alpha) for g, alpha in cases]
        for workers in (2, 3):
            self.force_workers(monkeypatch, workers)
            for (g, alpha), want in zip(cases, serial):
                got = orc_curvatures(g, alpha)
                assert got.edges == want.edges
                for name in ("curvature", "wasserstein", "dual_gap"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert multiprocessing.active_children() == []

    def test_default_worker_count(self):
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count()
        assert dv._worker_count(0) == 1
        assert dv._worker_count(86) == 1  # karate and the criterion-06 graphs
        assert dv._worker_count(2 * dv._MIN_EDGES_PER_WORKER - 1) == 1
        assert dv._worker_count(2 * dv._MIN_EDGES_PER_WORKER) == min(cpus, 2)
        assert dv._worker_count(10**9) == cpus

    @staticmethod
    def failure_message(monkeypatch, workers, g):
        TestOrcPool.force_workers(monkeypatch, workers)
        with pytest.raises(RuntimeError) as info:
            orc_curvatures(g, 0.5)
        assert multiprocessing.active_children() == []
        return str(info.value)

    def test_lp_failure_reaches_caller(self, monkeypatch):
        real = dv.linprog

        def failing(c, **kwargs):
            res = real(c, **kwargs)
            if len(c) > 30:  # fails on the hub edges only
                res.success, res.message = False, f"no plan for {len(c)} variables"
            return res

        g = _pa_graph(120, 3, 1)
        monkeypatch.setattr(dv, "linprog", failing)
        want = self.failure_message(monkeypatch, 1, g)
        assert want.startswith("transportation LP failed: no plan for")
        assert self.failure_message(monkeypatch, 2, g) == want

    def test_infeasible_dual_certificate_reaches_caller(self, monkeypatch):
        real = dv.linprog

        def shifted_duals(c, **kwargs):
            res = real(c, **kwargs)
            if len(c) > 30:
                res.eqlin.marginals = res.eqlin.marginals + 0.01 * len(c)
            return res

        g = _pa_graph(120, 3, 1)
        monkeypatch.setattr(dv, "linprog", shifted_duals)
        want = self.failure_message(monkeypatch, 1, g)
        assert want.startswith("infeasible dual certificate")
        assert self.failure_message(monkeypatch, 2, g) == want

    def test_dead_worker_fails_the_call(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        parent, real = os.getpid(), dv.linprog

        def dying(c, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return real(c, **kwargs)

        monkeypatch.setattr(dv, "linprog", dying)
        self.force_workers(monkeypatch, 2)
        with pytest.raises(BrokenProcessPool):
            orc_curvatures(_pa_graph(60, 2, 0), 0.5)
        assert multiprocessing.active_children() == []


class TestOrc:
    def test_two_node_graph_matches_enumeration(self):
        g = Graph.from_edges([(0, 1)])
        res = orc_curvatures(g, alpha=0.5)
        want = orc_enumerated(2, g.edges, 0.5)
        assert res.wasserstein[0] == pytest.approx(want[(0, 1)][1], abs=1e-9)
        assert res.curvature[0] == pytest.approx(want[(0, 1)][0], abs=1e-9)

    def test_triangle_symmetry(self):
        res = orc_curvatures(TRIANGLE, alpha=0.5)
        assert res.curvature.max() - res.curvature.min() < 1e-12

    def test_alpha_one_gives_zero_curvature(self):
        res = orc_curvatures(PATH3, alpha=1.0)
        np.testing.assert_allclose(res.curvature, 0.0, atol=1e-12)
        np.testing.assert_allclose(res.wasserstein, 1.0, atol=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            orc_curvatures(PATH3, alpha=1.2)

    def test_enumeration_agreement_all_small_graphs(self):
        # every labeled graph on up to 4 nodes, plus the n=5 wheel-ish ones
        for n, edges in all_graphs_up_to(4):
            g = Graph.from_edges(edges, n=n)
            res = orc_curvatures(g, alpha=0.5)
            want = orc_enumerated(n, g.edges, 0.5)
            for e, k, w in zip(res.edges, res.curvature, res.wasserstein):
                assert w == pytest.approx(want[e][1], abs=1e-9), (n, edges, e)
                assert k == pytest.approx(want[e][0], abs=1e-9)

    def test_dual_certificate_random_graphs(self):
        for g in sampled_graphs(10):
            res = orc_curvatures(g, alpha=0.5)
            assert res.dual_gap.max() <= 1e-9

    def test_curvature_range_random_graphs(self):
        for g in sampled_graphs(12):
            res = orc_curvatures(g, alpha=0.5)
            assert np.all(res.curvature > -2.0)
            assert np.all(res.curvature < 1.0)

    def test_relabeling_invariance(self):
        g = erdos_renyi(10, 0.35, seed=42)
        rng = np.random.default_rng(7)
        perm = rng.permutation(10)
        res = orc_curvatures(g, alpha=0.5)
        res_p = orc_curvatures(g.relabel(perm), alpha=0.5)
        k_p = res_p.curvature_by_edge()
        for (u, v), k in zip(res.edges, res.curvature):
            pu, pv = int(perm[u]), int(perm[v])
            assert k == pytest.approx(k_p[(min(pu, pv), max(pu, pv))], abs=1e-9)


class TestGroundCosts:
    """Costs from neighbour lists equal the BFS hop distances they replace."""

    @staticmethod
    def bfs_costs(g, su, sv):
        return np.array([[g.hop_distances(a, cutoff=3)[b] for b in sv] for a in su],
                        dtype=np.float64)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_match_hop_distances(self, alpha):
        graphs = [load_edge_list(bundled_graph_path())]
        graphs += [Graph.from_edges(preferential_attachment(60, k, seed=s))
                   for k, s in [(1, 0), (2, 1), (4, 2)]]
        for g in graphs:
            for u, v in g.edges:
                su, _ = dv._measure(g, u, alpha)
                sv, _ = dv._measure(g, v, alpha)
                got = dv._ground_costs(g, su, sv)
                assert got.tobytes() == self.bfs_costs(g, su, sv).tobytes(), (u, v)


class TestDirectedEdges:
    def test_sorted_by_source_then_target(self):
        for g in sampled_graphs(6) + [Graph.from_edges([], n=3)]:
            pairs = sorted([(u, v) for u, v in g.edges] + [(v, u) for u, v in g.edges])
            ei = dv._directed_edges(g)
            assert ei.dtype == np.int64 and ei.shape == (2, len(pairs))
            assert [tuple(p) for p in ei.T.tolist()] == pairs


class TestAttentionParams:
    def test_deterministic(self):
        a = AttentionParams.init(8, 2, seed=3)
        b = AttentionParams.init(8, 2, seed=3)
        for name in ("w_query", "w_key", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_bound(self):
        p = AttentionParams.init(16, 1, seed=0)
        assert np.abs(p.w_query).max() <= 1.0 / 4.0


class TestLocalDiffusivity:
    def test_equal_curvatures_give_uniform(self):
        # cycle graph: all edges share one curvature value by symmetry
        orc = orc_curvatures(CYCLE4, alpha=0.5)
        params = AttentionParams.init(4, 1, seed=0)
        w = weight_lookup(local_diffusivity(CYCLE4, orc, params, "per_channel"))
        for val in w.values():
            np.testing.assert_allclose(val, 0.5, atol=1e-12)

    def test_zero_mlp_gives_uniform(self):
        orc = orc_curvatures(STAR5, alpha=0.5)
        params = AttentionParams.init(3, 1, seed=0)
        zero = AttentionParams(
            w_query=params.w_query, w_key=params.w_key,
            mlp_w1=np.zeros(3), mlp_b1=np.zeros(3),
            mlp_w2=np.zeros((3, 3)), mlp_b2=np.zeros(3),
        )
        dmat = local_diffusivity(STAR5, orc, zero, "per_channel")
        w = weight_lookup(dmat)
        np.testing.assert_allclose(w[(0, 1)], 0.25, atol=1e-15)
        np.testing.assert_allclose(w[(1, 0)], 1.0, atol=1e-15)

    def test_matches_reference_recomputation_on_path(self):
        dim = 5
        orc = orc_curvatures(PATH3, alpha=0.5)
        params = AttentionParams.init(dim, 1, seed=11)
        dmat = local_diffusivity(PATH3, orc, params, "per_channel")
        w = weight_lookup(dmat)
        kmap = orc.curvature_by_edge()

        def mlp(kval):
            h = params.mlp_w1 * kval + params.mlp_b1
            h = np.where(h >= 0, h, 0.01 * h)
            return params.mlp_w2 @ h + params.mlp_b2

        # node 1 has neighbors 0 and 2; channel-wise softmax over the two
        s0, s2 = mlp(kmap[(0, 1)]), mlp(kmap[(1, 2)])
        expect_10 = np.exp(s0) / (np.exp(s0) + np.exp(s2))
        np.testing.assert_allclose(w[(1, 0)], expect_10, atol=1e-12)
        np.testing.assert_allclose(w[(1, 2)], 1.0 - expect_10, atol=1e-12)
        np.testing.assert_allclose(w[(0, 1)], np.ones(dim), atol=1e-12)

    def test_per_channel_rows_sum_to_one(self):
        g = erdos_renyi(15, 0.3, seed=9)
        orc = orc_curvatures(g, alpha=0.5)
        params = AttentionParams.init(6, 1, seed=2)
        dmat = local_diffusivity(g, orc, params, "per_channel")
        src = dmat.edge_index[0]
        for i in range(g.n):
            cols = np.nonzero(src == i)[0]
            if cols.size:
                np.testing.assert_allclose(
                    dmat.edge_weights[cols].sum(axis=0), 1.0, atol=1e-12
                )

    def test_scalar_mode_rows_sum_to_one(self):
        g = erdos_renyi(15, 0.3, seed=9)
        orc = orc_curvatures(g, alpha=0.5)
        params = AttentionParams.init(6, 1, seed=2)
        dmat = local_diffusivity(g, orc, params, "scalar")
        assert dmat.edge_weights.ndim == 1
        src = dmat.edge_index[0]
        for i in range(g.n):
            cols = np.nonzero(src == i)[0]
            if cols.size:
                assert dmat.edge_weights[cols].sum() == pytest.approx(1.0, abs=1e-12)

    def test_isolated_node_has_no_rows(self):
        g = Graph.from_edges([(0, 1)], n=3)
        orc = orc_curvatures(g, alpha=0.5)
        params = AttentionParams.init(2, 1, seed=0)
        dmat = local_diffusivity(g, orc, params, "per_channel")
        assert 2 not in set(dmat.edge_index[0].tolist())


class TestGlobalDiffusivity:
    def test_rows_stochastic_and_positive(self):
        rng = np.random.default_rng(12)
        pts = ball.project_to_ball(0.4 * rng.standard_normal((20, 6)), K1)
        params = AttentionParams.init(6, 2, seed=5)
        g = global_diffusivity(pts, params, heads=2, kappa=K1)
        np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-12)
        assert g.min() > 0.0

    def test_zero_projections_uniform(self):
        rng = np.random.default_rng(13)
        pts = ball.project_to_ball(0.4 * rng.standard_normal((7, 3)), K1)
        params = AttentionParams.init(3, 1, seed=5)
        zero = AttentionParams(
            w_query=np.zeros_like(params.w_query),
            w_key=np.zeros_like(params.w_key),
            mlp_w1=params.mlp_w1, mlp_b1=params.mlp_b1,
            mlp_w2=params.mlp_w2, mlp_b2=params.mlp_b2,
        )
        g = global_diffusivity(pts, zero, heads=1, kappa=K1)
        np.testing.assert_array_equal(g, np.full((7, 7), 1.0 / 7.0))

    def test_single_node(self):
        pts = np.array([[0.1, 0.2]])
        params = AttentionParams.init(2, 1, seed=0)
        np.testing.assert_array_equal(
            global_diffusivity(pts, params, heads=1, kappa=K1), [[1.0]]
        )

    def test_duplicated_heads_match_single_head(self):
        rng = np.random.default_rng(14)
        pts = ball.project_to_ball(0.4 * rng.standard_normal((9, 4)), K1)
        one = AttentionParams.init(4, 1, seed=8)
        two = AttentionParams(
            w_query=np.concatenate([one.w_query, one.w_query], axis=1),
            w_key=np.concatenate([one.w_key, one.w_key], axis=1),
            mlp_w1=one.mlp_w1, mlp_b1=one.mlp_b1,
            mlp_w2=one.mlp_w2, mlp_b2=one.mlp_b2,
        )
        g1 = global_diffusivity(pts, one, heads=1, kappa=K1)
        g2 = global_diffusivity(pts, two, heads=2, kappa=K1)
        np.testing.assert_allclose(g1, g2, atol=1e-15)


class TestMatrixValidation:
    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            DiffusivityMatrix(
                n=2, edge_index=[[0, 1], [1, 0]], edge_weights=[-0.1, 0.2]
            )

    def test_global_shape_checked(self):
        # the dense global part goes to the flow next to the edge weights
        dmat = DiffusivityMatrix(n=2, edge_index=[[0, 1], [1, 0]], edge_weights=[0.1, 0.2])
        with pytest.raises(ValueError, match="global part"):
            diffusion_flow(np.zeros((2, 2)), dmat, K1, global_part=np.zeros((3, 3)))

    @pytest.mark.parametrize("pairs", [[[0, 2], [1, 0]], [[0, 1], [-1, 0]]])
    def test_edge_index_out_of_range_rejected(self, pairs):
        with pytest.raises(ValueError, match="out of range"):
            DiffusivityMatrix(n=2, edge_index=pairs, edge_weights=[0.1, 0.2])
