"""Command-line interface: diffusion runs, convergence studies, exports.

Subcommands: ``diffuse``, ``convergence``, ``orc``, ``knn``.  Options come
from an optional flat ``key=value`` config file plus flags; flags win.  Every
effective parameter (defaults included) is echoed to ``run.json`` so a run
can be reproduced exactly.  Exit codes: 0 success, 1 configuration error,
2 numerical failure, 3 out of memory.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import json
import os
import sys
import time
from importlib import resources

import numpy as np

from . import diffusion, diffusivity as dv, graphio, solvers

DEFAULT_TAUS = "0.2,0.1,0.05,0.025"
DEFAULT_DIM = 16

# key -> (converter, default, help); None defaults mean "not set".  Each key
# is also the flag --key, with "_" written "-".
CONFIG_SCHEMA = {
    "graph": (str, None, "edge list path (diffuse: the bundled karate club if unset)"),
    "features": (str, None, "node features CSV (diffuse: seeded Gaussian if unset)"),
    "kappa": (float, -1.0, "curvature of the ball, negative"),
    "dim": (int, None, f"embedding dimension (default {DEFAULT_DIM}, or the feature columns)"),
    "scheme": (str, "isotropic", "diffusivity scheme"),
    "beta": (float, 0.5, "weight of the global attention in the global schemes"),
    "heads": (int, 1, "attention heads of the global part"),
    "alpha": (float, 0.5, "laziness of the random-walk measures of the curvature"),
    "sigma": (str, "identity", "activation of the tangent aggregate"),
    "method": (str, "heuler", "projective solver"),
    "tau": (float, 1.0, "step size"),
    "T": (float, 8.0, "final time"),
    "s_min": (int, 2, "ham: hrk4 warm-up steps"),
    "s_max": (int, 4, "ham: highest Adams order"),
    "eta1": (float, None, "residual weight for the dynamic state"),
    "eta2": (float, None, "residual weight for the current state"),
    "eta3": (float, None, "residual weight for the initial state"),
    "seed": (int, 0, "random seed"),
    "out": (str, "out", "output directory"),
}
_CHOICES = {"scheme": dv.SCHEMES, "sigma": diffusion.SIGMAS, "method": solvers.METHODS}


class ConfigError(ValueError):
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
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
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
        conv = CONFIG_SCHEMA[key][0]
        try:
            values[key] = conv(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {raw!r}") from exc
    return values


def _effective_config(args) -> dict:
    cfg = {key: default for key, (_, default, _) in CONFIG_SCHEMA.items()}
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
        for given, default in zip(etas, diffusion.ResidualSpec().eta)
    )
    return diffusion.ResidualSpec(eta=filled)


def _writeback(cfg: dict, residual, wall: float, out_dir: str, warnings=()):
    payload = dict(cfg)
    payload["residual_eta"] = list(residual.eta) if residual else None
    payload["wall_time_s"] = wall
    payload["warnings"] = list(warnings)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    graphio.atomic_write(os.path.join(out_dir, "run.json"), [text])


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


def _memory_message(exc: MemoryError, n: int, dcfg: dv.DiffusivityConfig) -> str:
    """What did not fit: numpy's message names the allocation that failed,
    and a run with a global part also holds its heads' n x n attention score
    products at every flow evaluation."""
    message = str(exc) or "an allocation failed"
    if dcfg.global_weight > 0.0:
        need = dcfg.heads * n * n * 8
        message += (f"; the global attention's {dcfg.heads} score products of "
                    f"{n}x{n} floats need {need:,} bytes")
    return message


def cmd_diffuse(args) -> int:
    cfg = _effective_config(args)
    started = time.perf_counter()
    graph_path = cfg["graph"] or bundled_graph_path()
    g = graphio.load_edge_list(graph_path)
    if cfg["features"]:
        feats = graphio.load_features(cfg["features"])
        if feats.shape[0] != g.n:
            raise ConfigError(
                f"feature rows ({feats.shape[0]}) do not match graph nodes ({g.n})"
            )
        if cfg["dim"] not in (None, feats.shape[1]):
            raise ConfigError(
                f"dim ({cfg['dim']}) does not match the feature columns ({feats.shape[1]})"
            )
        cfg["dim"] = feats.shape[1]
        z0 = diffusion.features_to_state(feats, cfg["kappa"])
    else:
        if cfg["dim"] is None:
            cfg["dim"] = DEFAULT_DIM
        z0 = diffusion.initial_state(g.n, cfg["dim"], cfg["kappa"], cfg["seed"])
    dcfg = dv.DiffusivityConfig(
        scheme=cfg["scheme"], beta=cfg["beta"], heads=cfg["heads"],
        alpha=cfg["alpha"], seed=cfg["seed"],
    )
    spec = solvers.SolverSpec(
        method=cfg["method"], tau=cfg["tau"], t_final=cfg["T"],
        s_min=cfg["s_min"], s_max=cfg["s_max"],
    )
    residual = _residual_from(cfg)
    # a diverging run is reported once, as a NonFiniteStateError, and not
    # also by numpy warnings from inside the kernels
    try:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            final, trace = diffusion.run_diffusion(z0, g, dcfg, spec, residual, sigma=cfg["sigma"])
    except MemoryError as exc:
        raise MemoryError(_memory_message(exc, g.n, dcfg)) from exc
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
    rows = solvers.convergence_study(methods, taus, kappa=cfg["kappa"])
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    graphio.save_convergence_csv(os.path.join(out_dir, "convergence.csv"), rows)
    return 0


def cmd_orc(args) -> int:
    cfg = _effective_config(args)
    g = graphio.load_edge_list(cfg["graph"])
    result = dv.orc_curvatures(g, cfg["alpha"])
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    graphio.save_orc_csv(os.path.join(out_dir, "orc.csv"), result)
    return 0


def cmd_knn(args) -> int:
    cfg = _effective_config(args)
    feats = graphio.load_features(cfg["features"])
    g = graphio.knn_graph(feats, args.k, args.metric)
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    graphio.save_edge_list(os.path.join(out_dir, "knn.edges"), g)
    return 0


def _add_flags(p: argparse.ArgumentParser, keys, required=()):
    """--config and the flags of the CONFIG_SCHEMA keys."""
    p.add_argument("--config", help="flat key=value config file")
    for key in keys:
        conv, default, text = CONFIG_SCHEMA[key]
        if default is not None:
            text += f" (default {default})"
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=conv, help=text,
                       choices=_CHOICES.get(key), required=key in required)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hypdiff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diffuse", help="run graph diffusion, write embeddings + energy")
    _add_flags(p, CONFIG_SCHEMA)
    p.set_defaults(func=cmd_diffuse)

    p = sub.add_parser("convergence", help="fit solver convergence orders")
    _add_flags(p, ("out", "kappa"))
    p.add_argument("--methods", default=",".join(solvers.METHODS))
    p.add_argument("--taus", default=DEFAULT_TAUS)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("orc", help="export per-edge Ollivier-Ricci curvature")
    _add_flags(p, ("out", "graph", "alpha"), required=("graph",))
    p.set_defaults(func=cmd_orc)

    p = sub.add_parser("knn", help="build a kNN graph from features")
    _add_flags(p, ("out", "features"), required=("features",))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--metric", choices=graphio.KNN_METRICS, default="euclidean")
    p.set_defaults(func=cmd_knn)
    return parser


@functools.cache
def _freeze_heap_at_exit():
    """Register gc.freeze to run at interpreter exit, once per process.

    CPython runs atexit handlers before the collections of its shutdown, and
    a collection skips frozen objects, so freezing the heap there spares the
    collector a walk over the whole module graph (about 50k tracked objects
    with scipy.optimize loaded, 23k without), about 80 ms of a local-orc-150
    exit.  Cyclic objects still alive at exit are then not finalized, which
    CPython does not guarantee anyway.  Nothing is frozen before exit, so a
    caller of main() in a longer-lived process keeps a collectable heap.
    """
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_heap_at_exit()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3
    except (RuntimeError, FloatingPointError) as exc:
        # the library's RuntimeErrors are numerical: NonFiniteStateError, a
        # failed or uncertified ORC transport LP, a dead LP worker process
        # (BrokenProcessPool)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
