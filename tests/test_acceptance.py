"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with plain ``pytest``; the criterion lines are emitted outside pytest's
capture so they always appear.
"""

import time

import numpy as np
import pytest

from hypdiff import ball, solvers
from hypdiff.cli import main as cli_main
from hypdiff.diffusion import ResidualSpec, initial_state, run_diffusion
from hypdiff.diffusivity import (
    AttentionParams,
    GlobalAttention,
    orc_curvatures,
)
from hypdiff.graphs import erdos_renyi
from hypdiff.solvers import SolverSpec, _hrk4_step, geodesic_interpolate, solve

from _oracles import connected_components, edge_pairs, orc_enumerated, rk38_step

KAPPAS = (-0.1, -1.0, -2.0)
DIMS = (2, 8, 64)
N_SAMPLES = 10_000


@pytest.fixture
def report(capfd):
    def _report(num, desc, ok):
        with capfd.disabled():
            print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}")
        assert ok, f"criterion {num} failed: {desc}"

    return _report


def sample_points(rng, count, dim, kappa, max_frac=0.7):
    radius = 1.0 / np.sqrt(-kappa)
    raw = rng.standard_normal((count, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return raw * rng.uniform(0.0, max_frac * radius, size=(count, 1))


def test_criterion_01_geometry_round_trips(report):
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_log, worst_exp = 0.0, 0.0
    for kappa in KAPPAS:
        for dim in DIMS:
            x = sample_points(rng, N_SAMPLES, dim, kappa)
            v = rng.standard_normal((N_SAMPLES, dim))
            v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1.0)
            back = ball.log_map(x, ball.exp_map(x, v, kappa), kappa)
            worst_log = max(worst_log, float(np.abs(back - v).max()))
            y = sample_points(rng, N_SAMPLES, dim, kappa)
            there = ball.exp_map(x, ball.log_map(x, y, kappa), kappa)
            worst_exp = max(worst_exp, float(np.abs(there - y).max()))
    elapsed = time.perf_counter() - started
    ok = worst_log <= 1e-9 and worst_exp <= 1e-9 and elapsed < 5.0
    report(
        1,
        f"round-trips: |log(exp(v))-v|<={worst_log:.2e}, "
        f"|exp(log(y))-y|<={worst_exp:.2e}, {elapsed:.2f}s",
        ok,
    )


def test_criterion_02_transport_metric_preservation(report):
    rng = np.random.default_rng(102)
    worst = 0.0
    for kappa in KAPPAS:
        x = sample_points(rng, N_SAMPLES, 6, kappa)
        y = sample_points(rng, N_SAMPLES, 6, kappa)
        v = rng.standard_normal((N_SAMPLES, 6))
        lhs = ball.conformal_factor(y, kappa) * np.linalg.norm(
            ball.parallel_transport(x, y, v, kappa), axis=-1
        )
        rhs = ball.conformal_factor(x, kappa) * np.linalg.norm(v, axis=-1)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    report(2, f"transport metric preservation: max defect {worst:.2e}", worst <= 1e-9)


def test_criterion_03_interpolation_ratio(report):
    rng = np.random.default_rng(103)
    x = sample_points(rng, N_SAMPLES, 4, -1.0)
    y = sample_points(rng, N_SAMPLES, 4, -1.0)
    ratio = rng.uniform(0.02, 0.98, size=N_SAMPLES)
    z = np.stack([
        geodesic_interpolate(xi, yi, ri, -1.0) for xi, yi, ri in zip(x, y, ratio)
    ])
    measured = ball.distance(x, z, -1.0) / ball.distance(x, y, -1.0)
    rel = float(np.max(np.abs(measured - ratio) / ratio))
    report(3, f"geodesic interpolation ratio: max relative error {rel:.2e}", rel <= 1e-8)


def test_criterion_04_solver_orders(report):
    started = time.perf_counter()
    rows = solvers.convergence_study(
        ["heuler", "hrk4", "ham"], [0.2, 0.1, 0.05, 0.025], kappa=-1.0, t_final=1.0
    )
    orders = {m: o for m, _, _, o in rows}
    elapsed = time.perf_counter() - started
    ok = (
        0.8 <= orders["heuler"] <= 1.2
        and 3.5 <= orders["hrk4"] <= 4.5
        and orders["ham"] >= 2.0
        and elapsed < 10.0
    )
    report(
        4,
        "orders: heuler {heuler:.2f}, hrk4 {hrk4:.2f}, ham {ham:.2f} ({t:.2f}s)".format(
            t=elapsed, **orders
        ),
        ok,
    )


def test_criterion_05_flat_limit_diffusion(report):
    from hypdiff.diffusivity import DiffusivityConfig

    curv = -1e-6
    g = erdos_renyi(50, 0.1, seed=3)
    z0 = initial_state(50, 8, curv, seed=3)
    spec = SolverSpec(method="hrk4", tau=1.0, t_final=4.0)
    final, _ = run_diffusion(z0, g, DiffusivityConfig(scheme="isotropic"), spec)
    deg = g.degrees
    w = np.zeros((50, 50))
    for u, v in g.edge_array.tolist():
        w[u, v] = w[v, u] = 1.0 / np.sqrt(deg[u] * deg[v])

    def field(z, t):
        return w @ z - w.sum(axis=1)[:, None] * z

    z = z0.points.copy()
    for i in range(4):
        z = rk38_step(z, float(i), 1.0, field)
    worst = float(np.abs(final.points - z).max())
    report(5, f"flat-limit run vs flat reference: max coord diff {worst:.2e}", worst <= 1e-3)


def _orc_sample_graphs():
    graphs = []
    seed = 0
    sizes = (5, 6, 6, 9, 12, 16, 22, 26, 30, 8)
    while len(graphs) < 100:
        n = sizes[len(graphs) % len(sizes)]
        g = erdos_renyi(n, min(0.5, 2.5 / n + 0.08), seed=9000 + seed)
        seed += 1
        if not len(g.edge_array):
            continue
        if any(len(c) == 2 for c in connected_components(g.n, edge_pairs(g))):
            continue  # an isolated edge pins K to the interval boundary
        graphs.append(g)
    return graphs


def test_criterion_06_orc_correctness(report):
    worst_gap = 0.0
    kmin, kmax = np.inf, -np.inf
    enum_checked = 0
    enum_worst = 0.0
    for g in _orc_sample_graphs():
        res = orc_curvatures(g, alpha=0.5)
        worst_gap = max(worst_gap, float(res.dual_gap.max()))
        kmin = min(kmin, float(res.curvature.min()))
        kmax = max(kmax, float(res.curvature.max()))
        if g.n <= 6:
            want = orc_enumerated(g.n, edge_pairs(g), 0.5)
            enum_checked += 1
            for e, wv in zip(edge_pairs(res.graph), res.wasserstein):
                enum_worst = max(enum_worst, abs(wv - want[e][1]))
    ok = (
        worst_gap <= 1e-9
        and enum_checked > 0
        and enum_worst <= 1e-9
        and kmin > -2.0
        and kmax < 1.0
    )
    report(
        6,
        f"orc: dual gap {worst_gap:.1e}, enumeration diff {enum_worst:.1e} "
        f"({enum_checked} small graphs), K in ({kmin:.3f}, {kmax:.3f})",
        ok,
    )


def test_criterion_07_global_attention_rows(report):
    rng = np.random.default_rng(107)
    worst = 0.0
    least = np.inf
    for n, dim, heads in ((1, 3, 1), (17, 4, 2), (60, 8, 3)):
        pts = ball.project_to_ball(0.4 * rng.standard_normal((n, dim)), -1.0)
        params = AttentionParams.init(dim, heads, seed=n)
        gmat = GlobalAttention(pts, params, heads, -1.0).rows(0, n)
        worst = max(worst, float(np.abs(gmat.sum(axis=1) - 1.0).max()))
        least = min(least, float(gmat.min()))
    pts = ball.project_to_ball(0.4 * rng.standard_normal((9, 5)), -1.0)
    zero = AttentionParams(
        w_query=np.zeros((5, 5)), w_key=np.zeros((5, 5)),
        mlp_w1=np.zeros(5), mlp_b1=np.zeros(5),
        mlp_w2=np.zeros((5, 5)), mlp_b2=np.zeros(5),
    )
    uniform = np.array_equal(
        GlobalAttention(pts, zero, 1, -1.0).rows(0, 9), np.full((9, 9), 1.0 / 9.0)
    )
    ok = worst <= 1e-12 and least > 0.0 and uniform
    report(
        7,
        f"global attention: max row-sum defect {worst:.1e}, min entry {least:.1e}, "
        f"zero-params uniform: {uniform}",
        ok,
    )


def test_criterion_08_energy_behavior(report):
    from hypdiff.diffusivity import DiffusivityConfig

    started = time.perf_counter()
    curv = -1.0
    g = erdos_renyi(50, 0.1, seed=3)
    z0 = initial_state(50, 8, curv, seed=3)
    dcfg = DiffusivityConfig(scheme="isotropic")
    spec = SolverSpec(method="hrk4", tau=1.0, t_final=16.0)
    _, plain = run_diffusion(z0, g, dcfg, spec)
    _, res = run_diffusion(z0, g, dcfg, spec, residual=ResidualSpec(eta=(1.0, 0.6, 0.1)))
    elapsed = time.perf_counter() - started
    e0, eT = plain[0][1], plain[-1][1]
    res_by_t = dict(res)
    decayed = eT < 0.05 * e0
    floored = res_by_t[16.0] > eT
    stabilized = abs(res_by_t[16.0] - res_by_t[12.0]) < 0.1 * res_by_t[12.0]
    ok = decayed and floored and stabilized and elapsed < 30.0
    report(
        8,
        f"energy: f(16)/f(0)={eT / e0:.1e} (<0.05), residual floor {res_by_t[16.0]:.3f}"
        f">{eT:.3f}, |f16-f12|/f12={abs(res_by_t[16.0] - res_by_t[12.0]) / res_by_t[12.0]:.3f}"
        f" ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_09_rk_coefficient_fidelity(report):
    kflat = -1e-8
    rng = np.random.default_rng(109)
    a = 0.6 * rng.standard_normal((5, 5))

    def field(y, t):
        return y @ a.T

    def flow(h, t):
        return ball.exp_map(h, field(h, t), kflat)

    y0 = 0.2 * rng.standard_normal((3, 5))
    got = _hrk4_step(y0, 0.0, 0.5, flow, kflat)
    want = rk38_step(y0, 0.0, 0.5, field)
    worst = float(np.abs(got - want).max())
    report(9, f"hrk4 vs classical 3/8 rule on a linear field: {worst:.2e}", worst <= 1e-6)


def test_criterion_10_ham_warmup_bitwise(report):
    rng = np.random.default_rng(110)
    a = 0.4 * rng.standard_normal((4, 4))

    def flow(h, t):
        return ball.exp_map(h, h @ a.T, -1.0)

    h0 = 0.3 * rng.standard_normal((6, 4))
    s_min = 2
    spec_ham = SolverSpec(method="ham", tau=0.5, t_final=3.0, s_min=s_min)
    spec_rk = SolverSpec(method="hrk4", tau=0.5, t_final=3.0)
    states_ham, states_rk = [], []
    solve(h0, flow, spec_ham, -1.0, observe=lambda t, state: states_ham.append(state))
    solve(h0, flow, spec_rk, -1.0, observe=lambda t, state: states_rk.append(state))
    same = all(np.array_equal(states_ham[i], states_rk[i]) for i in range(s_min + 1))
    report(10, f"ham warm-up states bitwise equal to hrk4 (first {s_min})", same)


def test_criterion_11_cli_determinism(report, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(
            ["diffuse", "--out", str(out), "--T", "4", "--seed", "11",
             "--scheme", "local_global", "--method", "hrk4"]
        )
        assert code == 0
        outs.append(out)
    same = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("embeddings.csv", "energy.csv")
    )
    report(11, "cmd diffuse twice with one seed: bitwise identical CSVs", same)
