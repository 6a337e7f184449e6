"""Command-line interface: diffusion runs, convergence studies, exports.

Subcommands: ``diffuse``, ``convergence``, ``orc``, ``knn``.  Options come
from an optional flat ``key=value`` config file plus flags; flags win.  Every
effective parameter (defaults included) is echoed to ``run.json`` so a run
can be reproduced exactly.  Exit codes: 0 success, 1 configuration error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import resources

import numpy as np

from . import diffusion, diffusivity as dv, graphio, solvers
from .ball import Curvature

DEFAULT_TAUS = "0.2,0.1,0.05,0.025"

# key -> (converter, default); None defaults mean "not set"
CONFIG_SCHEMA = {
    "graph": (str, None),
    "features": (str, None),
    "kappa": (float, -1.0),
    "dim": (int, 16),
    "scheme": (str, "isotropic"),
    "beta": (float, 0.5),
    "heads": (int, 1),
    "alpha": (float, 0.5),
    "sigma": (str, "identity"),
    "method": (str, "heuler"),
    "tau": (float, 1.0),
    "T": (float, 8.0),
    "s_min": (int, 2),
    "s_max": (int, 4),
    "eta1": (float, None),
    "eta2": (float, None),
    "eta3": (float, None),
    "seed": (int, 0),
    "out": (str, "out"),
}

RESIDUAL_DEFAULT = (1.0, 0.6, 0.1)


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); config errors are exit 1
        raise ConfigError(message)


def bundled_graph_path() -> str:
    """Path of the shipped karate-club demo edge list."""
    return str(resources.files("hypdiff").joinpath("data/karate.edges"))


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        lines = open(path, "r", encoding="utf-8").read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        conv, _ = CONFIG_SCHEMA[key]
        try:
            values[key] = conv(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {raw!r}") from exc
    return values


def _effective_config(args) -> dict:
    cfg = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    if getattr(args, "config", None):
        cfg.update(_read_config_file(args.config))
    for key in CONFIG_SCHEMA:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _residual_from(cfg: dict):
    etas = (cfg.get("eta1"), cfg.get("eta2"), cfg.get("eta3"))
    if all(e is None for e in etas):
        return None
    filled = tuple(
        default if given is None else given
        for given, default in zip(etas, RESIDUAL_DEFAULT)
    )
    return diffusion.ResidualSpec(eta=filled)


def _writeback(cfg: dict, residual, wall: float, out_dir: str, warnings=()):
    payload = dict(cfg)
    payload["residual_eta"] = list(residual.eta) if residual else None
    payload["wall_time_s"] = wall
    payload["warnings"] = list(warnings)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    graphio.atomic_write(os.path.join(out_dir, "run.json"), text)


# A diffusion dissipates the Dirichlet energy.  A rise on this many grid
# steps in a row is taken as a sign that the step size lies outside the
# solver's stability region; a single rise is not flagged.
_RISING_STEPS = 2


def _stability_warnings(trace) -> list:
    """One warning if the energy rose over _RISING_STEPS or more consecutive
    grid steps, describing the longest such run; else none."""
    best = (0, 0)  # (number of rises, index where the run starts)
    start = 0
    for i in range(1, len(trace)):
        if trace[i][1] <= trace[i - 1][1]:
            start = i
        elif i - start > best[0]:
            best = (i - start, start)
    steps, first = best
    if steps < _RISING_STEPS:
        return []
    (t0, e0), (t1, e1) = trace[first], trace[first + steps]
    return [{
        "kind": "energy_rising",
        "steps": steps,
        "t_start": t0,
        "t_end": t1,
        "message": (
            f"energy rose over {steps} consecutive grid steps, from {e0:.4g} at "
            f"t={t0:g} to {e1:.4g} at t={t1:g}; the step size is likely outside "
            "the solver's stability region (try a smaller --tau)"
        ),
    }]


def cmd_diffuse(args) -> int:
    cfg = _effective_config(args)
    started = time.perf_counter()
    curv = Curvature(cfg["kappa"])
    graph_path = cfg["graph"] or bundled_graph_path()
    g = graphio.load_edge_list(graph_path)
    if cfg["features"]:
        feats = graphio.load_features(cfg["features"])
        if feats.shape[0] != g.n:
            raise ConfigError(
                f"feature rows ({feats.shape[0]}) do not match graph nodes ({g.n})"
            )
        z0 = diffusion.features_to_state(feats, curv)
    else:
        z0 = diffusion.initial_state(g.n, cfg["dim"], curv, cfg["seed"])
    dcfg = dv.DiffusivityConfig(
        scheme=cfg["scheme"], beta=cfg["beta"], heads=cfg["heads"],
        alpha=cfg["alpha"], seed=cfg["seed"],
    )
    spec = solvers.SolverSpec(
        method=cfg["method"], tau=cfg["tau"], t_final=cfg["T"],
        s_min=cfg["s_min"], s_max=cfg["s_max"],
    )
    residual = _residual_from(cfg)
    final, trace = diffusion.run_diffusion(z0, g, dcfg, spec, residual, sigma=cfg["sigma"])
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    graphio.save_matrix_csv(os.path.join(out_dir, "embeddings.csv"), final.points)
    graphio.save_energy_csv(os.path.join(out_dir, "energy.csv"), trace)
    stability = _stability_warnings(trace)
    for warning in stability:
        print(f"warning: {warning['message']}", file=sys.stderr)
    _writeback(cfg, residual, time.perf_counter() - started, out_dir, stability)
    return 0


def cmd_convergence(args) -> int:
    cfg = _effective_config(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    taus = [float(t) for t in args.taus.split(",") if t.strip()]
    if len(taus) < 2:
        raise ConfigError("need at least two tau values to fit an order")
    for m in methods:
        if m not in solvers.METHODS:
            raise ConfigError(f"unknown method {m!r}")
    rows = solvers.convergence_study(methods, taus, kappa=cfg["kappa"])
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    lines = ["method,tau,error,fitted_order"]
    lines.extend(
        f"{m},{tau:.17g},{err:.17g},{order:.17g}" for m, tau, err, order in rows
    )
    graphio.atomic_write(os.path.join(out_dir, "convergence.csv"), "\n".join(lines) + "\n")
    return 0


def cmd_orc(args) -> int:
    cfg = _effective_config(args)
    if cfg["graph"] is None:
        raise ConfigError("orc requires --graph")
    if not 0.0 <= cfg["alpha"] <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {cfg['alpha']}")
    g = graphio.load_edge_list(cfg["graph"])
    result = dv.orc_curvatures(g, cfg["alpha"])
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    graphio.save_orc_csv(os.path.join(out_dir, "orc.csv"), result)
    return 0


def cmd_knn(args) -> int:
    cfg = _effective_config(args)
    if cfg["features"] is None:
        raise ConfigError("knn requires --features")
    feats = graphio.load_features(cfg["features"])
    if args.k >= feats.shape[0] or args.k <= 0:
        raise ConfigError(f"k must satisfy 0 < k < {feats.shape[0]}, got {args.k}")
    g = graphio.knn_graph(feats, args.k, args.metric)
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    graphio.save_edge_list(os.path.join(out_dir, "knn.edges"), g)
    return 0


def _add_shared(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out", help="output directory (default 'out')")
    p.add_argument("--seed", type=int)
    p.add_argument("--kappa", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hypdiff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diffuse", help="run graph diffusion, write embeddings + energy")
    _add_shared(p)
    p.add_argument("--graph", help="edge list path (default: bundled karate club)")
    p.add_argument("--features", help="initial features CSV (else seeded Gaussian)")
    p.add_argument("--dim", type=int)
    p.add_argument("--scheme", choices=dv.SCHEMES)
    p.add_argument("--beta", type=float)
    p.add_argument("--heads", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--sigma", choices=diffusion.SIGMAS)
    p.add_argument("--method", choices=solvers.METHODS)
    p.add_argument("--tau", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--s-min", dest="s_min", type=int)
    p.add_argument("--s-max", dest="s_max", type=int)
    p.add_argument("--eta1", type=float, help="residual weight for the dynamic state")
    p.add_argument("--eta2", type=float, help="residual weight for the current state")
    p.add_argument("--eta3", type=float, help="residual weight for the initial state")
    p.set_defaults(func=cmd_diffuse)

    p = sub.add_parser("convergence", help="fit solver convergence orders")
    _add_shared(p)
    p.add_argument("--methods", default=",".join(solvers.METHODS))
    p.add_argument("--taus", default=DEFAULT_TAUS)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("orc", help="export per-edge Ollivier-Ricci curvature")
    _add_shared(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--alpha", type=float)
    p.set_defaults(func=cmd_orc)

    p = sub.add_parser("knn", help="build a kNN graph from features")
    _add_shared(p)
    p.add_argument("--features", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--metric", choices=graphio.KNN_METRICS, default="euclidean")
    p.set_defaults(func=cmd_knn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, FloatingPointError) as exc:
        # the library's RuntimeErrors are numerical: NonFiniteStateError, a
        # failed or uncertified ORC transport LP, a dead LP worker process
        # (BrokenProcessPool)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
