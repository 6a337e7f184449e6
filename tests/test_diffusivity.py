"""Diffusivity schemes: degree weights, curvature transport LPs, attention."""

import builtins
import gc
import multiprocessing
import os
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypdiff import ball, blocks, diffusivity as dv
from hypdiff.cli import bundled_graph_path
from hypdiff.diffusion import diffusion_flow
from hypdiff.diffusivity import (
    AttentionParams,
    DiffusivityConfig,
    DiffusivityMatrix,
    GlobalAttention,
    OrcResult,
    isotropic_weights,
    local_diffusivity,
    orc_curvatures,
    transport_cost,
)
from hypdiff.graphs import Graph, erdos_renyi

from hypdiff.graphio import load_edge_list

from _oracles import (
    all_graphs_up_to,
    assert_bitwise,
    bfs_distances,
    connected_components,
    edge_pairs,
    global_attention_reference,
    local_diffusivity_reference,
    orc_enumerated,
    preferential_attachment,
    row_source,
    transport_enumerate,
    transport_linprog,
    transport_min_cost_flow,
)

K1 = -1.0

PATH3 = Graph(3, [(0, 1), (1, 2)])
TRIANGLE = Graph(3, [(0, 1), (1, 2), (0, 2)])
STAR5 = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
CYCLE4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def weight_lookup(dmat: DiffusivityMatrix) -> dict:
    src, dst = dmat.graph.directed_edges
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
        if not len(g.edge_array):
            continue
        comps = connected_components(g.n, edge_pairs(g))
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

    def test_global_weight_is_beta_of_the_global_schemes(self):
        weights = {s: DiffusivityConfig(scheme=s, beta=0.3).global_weight for s in dv.SCHEMES}
        assert weights == {"isotropic": 0.0, "local": 0.0, "global": 0.3, "local_global": 0.3}
        with pytest.raises(AttributeError):
            DiffusivityConfig().global_weight = 0.5


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
    @settings(deadline=None, max_examples=200)
    @given(integer_transport_problems())
    def test_matches_enumeration_with_certified_gap(self, problem):
        supply, demand, cost = problem
        w, gap = transport_cost(supply.astype(np.float64), demand.astype(np.float64), cost)
        assert abs(w - transport_enumerate(supply, demand, cost.tolist())) <= 1e-9
        assert gap <= 1e-9

    @settings(deadline=None, max_examples=200)
    @given(integer_transport_problems())
    def test_min_cost_flow_matches_enumeration(self, problem):
        # the exact oracle of orc_enumerated against exhaustive search
        supply, demand, cost = problem
        cost = cost.astype(np.int64).tolist()
        assert transport_min_cost_flow(supply, demand, cost) == transport_enumerate(
            supply, demand, cost)


@st.composite
def lazy_walk_transport_problems(draw):
    """Lazy-walk measures of two centres of degree 1..6, costs in {0, 1, 2, 3}.

    alpha 1 leaves one atom on each side and alpha 0 drops the centres, so
    1x1, 1xk and kx1 problems occur, including ones without demand rows."""
    alpha = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0))
    sides = []
    for _ in range(2):
        deg = draw(st.integers(1, 6))
        masses = np.array([alpha] + [(1.0 - alpha) / deg] * deg)
        sides.append(masses[masses > 0.0])
    supply, demand = sides
    cost = draw(st.lists(st.integers(0, 3), min_size=supply.size * demand.size,
                         max_size=supply.size * demand.size))
    return supply, demand, np.array(cost, dtype=np.float64).reshape(supply.size, demand.size)


def _reference_transport(supply, demand, cost):
    """(W, dual gap, row duals) from transport_linprog, with the gap formed as
    transport_cost forms it."""
    w, duals = transport_linprog(supply, demand, cost)
    phi, psi = duals[: len(supply)], np.append(duals[len(supply):], 0.0)
    return w, abs(w - float(phi @ supply + psi @ demand)), duals


def _edge_problems(g, alpha):
    for u, v in g.edge_array.tolist():
        su, mu = dv._measure(g, u, alpha)
        sv, mv = dv._measure(g, v, alpha)
        yield mu, mv, dv._ground_costs(g, su, sv)


class TestLinprogMatchesScipy:
    """dv.linprog against scipy.optimize.linprog(method="highs"), bit for bit."""

    @staticmethod
    def assert_same(supply, demand, cost):
        w, gap, duals = _reference_transport(supply, demand, cost)
        res = dv.linprog(cost, supply, demand)
        assert res.status == "Optimal"
        assert_bitwise(res.fun, w)
        assert_bitwise(res.row_dual, duals)
        assert_bitwise(transport_cost(supply, demand, cost), (w, gap))

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_karate_edges(self, alpha):
        g = load_edge_list(bundled_graph_path())
        for supply, demand, cost in _edge_problems(g, alpha):
            self.assert_same(supply, demand, cost)

    def test_preferential_attachment_through_the_pool(self, monkeypatch):
        g = _pa_graph(150, 4, 0)
        want = [_reference_transport(*p) for p in _edge_problems(g, 0.5)]
        monkeypatch.setattr(dv, "_worker_count", lambda n_edges: 2)
        got = orc_curvatures(g, 0.5)
        assert_bitwise(got.wasserstein, [w for w, _, _ in want])
        assert_bitwise(got.dual_gap, [gap for _, gap, _ in want])
        assert multiprocessing.active_children() == []
        for (supply, demand, cost), (_, _, duals) in zip(_edge_problems(g, 0.5), want):
            assert_bitwise(dv.linprog(cost, supply, demand).row_dual, duals)

    @settings(deadline=None, max_examples=300)
    @given(lazy_walk_transport_problems())
    @example((np.array([1.0]), np.array([1.0]), np.array([[2.0]])))
    @example((np.array([1.0]), np.full(3, 1 / 3), np.array([[0.0, 3.0, 1.0]])))
    @example((np.full(4, 0.25), np.array([1.0]), np.array([[1.0], [0.0], [3.0], [2.0]])))
    def test_lazy_walk_problems(self, problem):
        self.assert_same(*problem)

    def test_rejected_option_raises(self, monkeypatch):
        from scipy.optimize._highspy import _core as hs

        class Refusing(hs._Highs):
            def setOptionValue(self, name, value):
                return hs.HighsStatus.kError

        monkeypatch.setattr(hs, "_Highs", Refusing)
        with pytest.raises(RuntimeError, match="HiGHS rejected option output_flag=False"):
            transport_cost(np.array([1.0]), np.array([1.0]), np.array([[3.0]]))


class TestHighsImport:
    """dv._highs imports scipy's HiGHS binding with the cyclic collector
    paused and hands the collector back as it found it."""

    BINDING = "scipy.optimize._highspy._core"

    @pytest.fixture
    def collector(self):
        """set(enabled): the collector's state for the test; the state it
        had before is restored afterwards."""
        was = gc.isenabled()
        yield lambda enabled: gc.enable() if enabled else gc.disable()
        if was:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_paused_for_the_import_only(self, enabled, collector, monkeypatch):
        during = []
        real_import = builtins.__import__

        def watching_import(name, *args, **kwargs):
            if name.startswith("scipy"):
                during.append(gc.isenabled())
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", watching_import)
        collector(enabled)
        hs = dv._highs()
        assert gc.isenabled() is enabled
        assert during and not any(during)
        assert hs is sys.modules[self.BINDING]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_restored_when_the_import_fails(self, enabled, collector, monkeypatch):
        dv._highs()
        package = sys.modules[self.BINDING.rpartition(".")[0]]
        monkeypatch.delattr(package, "_core")
        monkeypatch.setitem(sys.modules, self.BINDING, None)
        collector(enabled)
        with pytest.raises(ImportError):
            dv._highs()
        assert gc.isenabled() is enabled

    def test_pool_loads_the_binding_before_forking(self, monkeypatch):
        """With two LP workers every linprog call runs in a worker, so the
        one call seen in this process is the import before the fork."""
        calls = []
        load = dv._highs

        def counting_load():
            calls.append(os.getpid())
            return load()

        monkeypatch.setattr(dv, "_highs", counting_load)
        monkeypatch.setattr(dv, "_worker_count", lambda n_edges: 2)
        orc_curvatures(erdos_renyi(12, 0.4, seed=3), 0.5)
        assert calls == [os.getpid()]


def _pa_graph(n, k, seed):
    return Graph(n, preferential_attachment(n, k, seed=seed))


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
                assert got.graph is g
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

        def failing(cost, supply, demand):
            res = real(cost, supply, demand)
            if cost.size > 30:  # fails on the hub edges only
                res = res._replace(status=f"no plan for {cost.size} variables")
            return res

        g = _pa_graph(120, 3, 1)
        monkeypatch.setattr(dv, "linprog", failing)
        want = self.failure_message(monkeypatch, 1, g)
        assert want.startswith("transportation LP failed: no plan for")
        assert self.failure_message(monkeypatch, 2, g) == want

    def test_infeasible_dual_certificate_reaches_caller(self, monkeypatch):
        real = dv.linprog

        def shifted_duals(cost, supply, demand):
            res = real(cost, supply, demand)
            if cost.size > 30:
                res = res._replace(row_dual=res.row_dual + 0.01 * cost.size)
            return res

        g = _pa_graph(120, 3, 1)
        monkeypatch.setattr(dv, "linprog", shifted_duals)
        want = self.failure_message(monkeypatch, 1, g)
        assert want.startswith("infeasible dual certificate")
        assert self.failure_message(monkeypatch, 2, g) == want

    def test_dead_worker_fails_the_call(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        parent, real = os.getpid(), dv.linprog

        def dying(cost, supply, demand):
            if os.getpid() != parent:
                os._exit(3)
            return real(cost, supply, demand)

        monkeypatch.setattr(dv, "linprog", dying)
        self.force_workers(monkeypatch, 2)
        with pytest.raises(BrokenProcessPool):
            orc_curvatures(_pa_graph(60, 2, 0), 0.5)
        assert multiprocessing.active_children() == []


class TestOrc:
    def test_two_node_graph_matches_enumeration(self):
        g = Graph(2, [(0, 1)])
        res = orc_curvatures(g, alpha=0.5)
        want = orc_enumerated(2, edge_pairs(g), 0.5)
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
            g = Graph(n, edges)
            res = orc_curvatures(g, alpha=0.5)
            want = orc_enumerated(n, edge_pairs(g), 0.5)
            for e, k, w in zip(edge_pairs(res.graph), res.curvature, res.wasserstein):
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
        def relabel(g, perm):
            """g with node i renamed to perm[i]."""
            return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edge_array.tolist()])

        g = erdos_renyi(10, 0.35, seed=42)
        rng = np.random.default_rng(7)
        perm = rng.permutation(10)
        res = orc_curvatures(g, alpha=0.5)
        res_p = orc_curvatures(relabel(g, perm), alpha=0.5)
        k_p = dict(zip(edge_pairs(res_p.graph), res_p.curvature))
        for (u, v), k in zip(edge_pairs(res.graph), res.curvature):
            pu, pv = int(perm[u]), int(perm[v])
            assert k == pytest.approx(k_p[(min(pu, pv), max(pu, pv))], abs=1e-9)


class TestGroundCosts:
    """Costs from neighbour lists equal the BFS hop distances they replace."""

    @staticmethod
    def bfs_costs(g, su, sv):
        adj = {i: [] for i in range(g.n)}
        for u, v in g.edge_array.tolist():
            adj[u].append(v)
            adj[v].append(u)
        return np.array([[bfs_distances(adj, a, 3)[b] for b in sv] for a in su],
                        dtype=np.float64)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_match_hop_distances(self, alpha):
        graphs = [load_edge_list(bundled_graph_path())]
        graphs += [Graph(60, preferential_attachment(60, k, seed=s))
                   for k, s in [(1, 0), (2, 1), (4, 2)]]
        for g in graphs:
            for u, v in g.edge_array.tolist():
                su, _ = dv._measure(g, u, alpha)
                sv, _ = dv._measure(g, v, alpha)
                got = dv._ground_costs(g, su, sv)
                assert got.tobytes() == self.bfs_costs(g, su, sv).tobytes(), (u, v)


class TestDirectedEdges:
    def test_sorted_by_source_then_target(self):
        for g in sampled_graphs(6) + [Graph(3, [])]:
            edges = edge_pairs(g)
            pairs = sorted([(u, v) for u, v in edges] + [(v, u) for u, v in edges])
            ei = g.directed_edges
            assert ei.dtype == np.int64 and ei.shape == (2, len(pairs))
            assert not ei.flags.writeable
            assert [tuple(p) for p in ei.T.tolist()] == pairs
            assert [tuple(sorted(p)) for p in pairs] == [edges[k] for k in g.edge_ids]
            assert g.offsets.tolist() == [0] + np.cumsum(g.degrees).tolist()


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
        w = weight_lookup(local_diffusivity(orc, params))
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
        dmat = local_diffusivity(orc, zero)
        w = weight_lookup(dmat)
        np.testing.assert_allclose(w[(0, 1)], 0.25, atol=1e-15)
        np.testing.assert_allclose(w[(1, 0)], 1.0, atol=1e-15)

    def test_matches_reference_recomputation_on_path(self):
        dim = 5
        orc = orc_curvatures(PATH3, alpha=0.5)
        params = AttentionParams.init(dim, 1, seed=11)
        dmat = local_diffusivity(orc, params)
        w = weight_lookup(dmat)
        kmap = dict(zip(edge_pairs(orc.graph), orc.curvature))

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
        dmat = local_diffusivity(orc, params)
        src = g.directed_edges[0]
        for i in range(g.n):
            cols = np.nonzero(src == i)[0]
            if cols.size:
                np.testing.assert_allclose(
                    dmat.edge_weights[cols].sum(axis=0), 1.0, atol=1e-12
                )

    def test_isolated_node_has_no_rows(self):
        g = Graph(3, [(0, 1)])
        orc = orc_curvatures(g, alpha=0.5)
        params = AttentionParams.init(2, 1, seed=0)
        dmat = local_diffusivity(orc, params)
        assert 2 not in set(dmat.graph.directed_edges[0].tolist())

    # the ids name the weights: one vector per edge, softmaxed per channel
    @pytest.mark.parametrize("dim", [1, 4, 16], ids=lambda dim: f"{dim}-per_channel")
    def test_bitwise_equal_to_per_edge_reference(self, dim):
        # a hub of degree 20, where a pairwise and a sequential sum of its
        # softmax terms part, random edges and the isolated nodes 27..29;
        # then the karate club
        rng = np.random.default_rng(dim)
        hub = [(0, j) for j in range(1, 21)]
        extra = [tuple(rng.choice(27, size=2, replace=False)) for _ in range(40)]
        graphs = [Graph(30, hub + extra), load_edge_list(bundled_graph_path())]
        assert graphs[0].degrees[0] >= 20 and not graphs[0].degrees[27:].any()
        params = AttentionParams.init(dim, 1, seed=dim)
        for g in graphs:
            m = len(g.edge_array)
            # curvatures 1 - W in (-1.5, 1]
            orc = OrcResult(g, wasserstein=rng.uniform(0.0, 2.5, m), dual_gap=np.zeros(m))
            dmat = local_diffusivity(orc, params)
            ei, want = local_diffusivity_reference(g, orc, params)
            assert dmat.graph.directed_edges.tobytes() == ei.tobytes()
            assert_bitwise(dmat.edge_weights, want)

    def test_weights_live_on_the_curvatures_graph(self):
        orc = orc_curvatures(PATH3, alpha=0.5)
        dmat = local_diffusivity(orc, AttentionParams.init(2, 1, seed=0))
        assert orc.graph is PATH3 and dmat.graph is PATH3


class TestArrayHolders:
    """Dataclasses that hold arrays compare by identity, without raising."""

    @pytest.mark.parametrize("make", [
        lambda: isotropic_weights(PATH3),
        lambda: AttentionParams.init(4, 1, 0),
        lambda: orc_curvatures(PATH3),
    ], ids=["DiffusivityMatrix", "AttentionParams", "OrcResult"])
    def test_equal_values_compare_unequal(self, make):
        a, b = make(), make()
        assert a == a
        assert (a == b) is False
        assert a != b

    def test_orc_curvature_is_one_minus_wasserstein(self):
        orc = orc_curvatures(CYCLE4, alpha=0.5)
        assert sorted(vars(orc)) == ["dual_gap", "graph", "wasserstein"]
        assert orc.curvature.tobytes() == (1.0 - orc.wasserstein).tobytes()
        assert "graph" not in repr(orc)


class TestGlobalDiffusivity:
    def test_rows_stochastic_and_positive(self):
        rng = np.random.default_rng(12)
        pts = ball.project_to_ball(0.4 * rng.standard_normal((20, 6)), K1)
        params = AttentionParams.init(6, 2, seed=5)
        g = GlobalAttention(pts, params, heads=2, kappa=K1).rows(0, 20)
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
        g = GlobalAttention(pts, zero, heads=1, kappa=K1).rows(0, 7)
        np.testing.assert_array_equal(g, np.full((7, 7), 1.0 / 7.0))

    def test_single_node(self):
        pts = np.array([[0.1, 0.2]])
        params = AttentionParams.init(2, 1, seed=0)
        np.testing.assert_array_equal(
            GlobalAttention(pts, params, heads=1, kappa=K1).rows(0, 1), [[1.0]]
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
        g1 = GlobalAttention(pts, one, heads=1, kappa=K1).rows(0, 9)
        g2 = GlobalAttention(pts, two, heads=2, kappa=K1).rows(0, 9)
        np.testing.assert_allclose(g1, g2, atol=1e-15)


def zero_projections(params):
    return AttentionParams(
        w_query=np.zeros_like(params.w_query), w_key=np.zeros_like(params.w_key),
        mlp_w1=params.mlp_w1, mlp_b1=params.mlp_b1,
        mlp_w2=params.mlp_w2, mlp_b2=params.mlp_b2,
    )


class TestGlobalAttention:
    """Rows made block by block against the dense attention, bitwise."""

    DIM = 16

    @classmethod
    def state(cls, n):
        rng = np.random.default_rng(n)
        return ball.project_to_ball(0.4 * rng.standard_normal((n, cls.DIM)), K1)

    @staticmethod
    def blocked(att, ranges):
        return np.concatenate([att.rows(a, b) for a, b in ranges])

    @pytest.mark.parametrize("n", [1, 2, 34, 193, 333, 800, 801])
    def test_rows_equal_scaled_dense_attention(self, n):
        pts = self.state(n)
        # 1-row blocks, blocks that leave a short tail, and the dense pass's
        # blocks in one and in two threads
        cuts = {tuple((a, min(a + rows, n)) for a in range(0, n, rows))
                for rows in (1, 7, max(1, n - 1))}
        cuts |= {tuple(blocks.row_ranges(n * self.DIM * np.arange(n + 1), threads,
                                         2 * blocks._DENSE_BLOCK_FLOATS)) for threads in (1, 2)}
        for heads in (1, 2, 3):
            seeded = AttentionParams.init(self.DIM, heads, seed=n + heads)
            for params in (seeded, zero_projections(seeded)):
                dense = global_attention_reference(pts, params, heads, K1)
                assert_bitwise(GlobalAttention(pts, params, heads, K1).rows(0, n), dense)
                for beta in (0.3, 0.5, 1.0):
                    att = GlobalAttention(pts, params, heads, K1, beta)
                    assert len(att.products) == heads
                    for ranges in cuts:
                        assert_bitwise(self.blocked(att, ranges), beta * dense)


class TestSigmoid:
    """dv._sigmoid against scipy.special.expit, bit for bit; NaN by NaN-ness."""

    SPECIAL = np.array([
        0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -1e-310,
        2.2250738585072014e-308, -2.2250738585072014e-308, 709.8, -709.8,
        745.0, -745.0, 746.0, -746.0, 36.7, -36.7, 1e308, -1e308,
    ])

    @staticmethod
    def assert_expit_bits(x):
        from scipy.special import expit

        got, want = dv._sigmoid(x), expit(x)
        assert got.shape == want.shape
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("shape", [
        (1, 1), (1, 333), (333, 1), (0, 5), (5, 0), (0,), (1,), (7,), (5, 800),
        (64, 64), (3, 4, 5),
    ])
    def test_random_blocks(self, shape):
        rng = np.random.default_rng(sum(shape) + len(shape))
        for scale in (1.0, 10.0, 40.0, 400.0):
            self.assert_expit_bits(scale * rng.standard_normal(shape))

    def test_special_values(self):
        self.assert_expit_bits(self.SPECIAL)
        self.assert_expit_bits(self.SPECIAL[::-1].reshape(3, 7))

    def test_silent_when_errors_raise(self):
        rng = np.random.default_rng(5)
        with np.errstate(all="raise"):
            self.assert_expit_bits(self.SPECIAL)
            self.assert_expit_bits(800.0 * rng.standard_normal((9, 50)))


class TestMatrixValidation:
    PAIR = Graph(2, [(0, 1)])  # directed edges (0, 1), (1, 0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            DiffusivityMatrix(self.PAIR, [-0.1, 0.2])

    def test_nan_weights_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DiffusivityMatrix(self.PAIR, [np.nan, 1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            DiffusivityMatrix(self.PAIR, [[0.5, 1.0], [1.0, np.nan]])

    def test_weight_count_checked(self):
        g = erdos_renyi(12, 0.3, seed=2)
        w = isotropic_weights(g).edge_weights
        for weights in (w, np.repeat(w[:, None], 3, axis=1)):  # scalar, per-channel
            with pytest.raises(ValueError, match="weight count"):
                DiffusivityMatrix(g, weights[:-1])

    @pytest.mark.parametrize("name", ["wasserstein", "dual_gap"])
    @pytest.mark.parametrize("bad", [np.zeros(5), np.zeros(1), np.zeros((2, 1))],
                             ids=["long", "short", "column"])
    def test_orc_result_has_one_entry_per_edge(self, name, bad):
        path = Graph(3, [(0, 1), (1, 2)])
        values = {"wasserstein": np.zeros(2), "dual_gap": np.zeros(2), name: bad}
        with pytest.raises(ValueError, match=r"shape \(2,\), one entry per edge"):
            OrcResult(path, **values)

    def test_repr_leaves_the_edge_tuple_unbuilt(self):
        g = erdos_renyi(12, 0.3, seed=2)
        text = repr(isotropic_weights(g))
        assert text.startswith("DiffusivityMatrix(edge_weights=") and "graph" not in text
        assert "edges" not in vars(g)

    def test_global_shape_checked(self):
        # the dense global part goes to the flow next to the edge weights
        dmat = DiffusivityMatrix(self.PAIR, [0.1, 0.2])
        with pytest.raises(ValueError, match="global part"):
            diffusion_flow(np.zeros((2, 2)), dmat, K1, global_part=row_source(np.zeros((3, 3))))

    def test_graph_size_checked_by_the_flow(self):
        dmat = DiffusivityMatrix(Graph(3, [(0, 1)]), [0.1, 0.2])
        with pytest.raises(ValueError, match="does not match state"):
            diffusion_flow(np.zeros((2, 2)), dmat, K1)
