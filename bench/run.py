"""hypdiff benchmark: seeded `hypdiff diffuse` workloads, timed or traced.

    python3 bench/run.py --workload iso-5k --seed 0 --seconds 40 --trace 0

Run it from the root of a source checkout.  hypdiff is pure Python and runs
from ``src/`` as it is; there is nothing to build.  Inputs are generated from
``--seed`` into ``.bench_work/`` (not timed).  Load comes from this single
process, one CLI process at a time, with the BLAS thread pool pinned to 1.

``--trace 0`` times whole CLI invocations in fresh interpreters for
``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced runs of ``hypdiff.cli.main`` and reports per-layer
metrics from the spans (see ``tracing.py``).  Every invocation's outputs are
checked; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
MIN_SAMPLES = 3
# Hard stop for the whole run, so it exits well inside 180 s even if a child hangs.
DEADLINE_S = 165.0
KAPPA = -1.0
DIM = 16

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    graph: tuple  # (kind, n, size) for inputs.edge_file
    flags: tuple  # `hypdiff diffuse` flags besides --graph/--seed/--out/--dim
    tau: float
    t_final: float
    why: str

    @property
    def n(self) -> int:
        return self.graph[1]

    def grid_times(self) -> list:
        steps = int(round(self.t_final / self.tau))
        return [i * self.tau for i in range(steps + 1)]


# Horizons are cut so one invocation takes 2-5 s on a 2-CPU machine: a
# 40 s run then holds enough invocations for a steady median.
WORKLOADS = {
    "iso-5k": Workload(
        graph=("uniform", 5000, 25000),
        flags=("--scheme", "isotropic", "--method", "hrk4", "--tau", "1", "--T", "4"),
        tau=1.0, t_final=4.0,
        why="sparse path only: ball kernels and edge aggregation over 50k directed "
            "edges, dlog, energy, 5000x16 CSV write; no ORC, no dense work",
    ),
    "local-orc-150": Workload(
        graph=("pa", 150, 4),
        flags=("--scheme", "local", "--method", "heuler", "--tau", "1", "--T", "4"),
        tau=1.0, t_final=4.0,
        why="ORC diffusivity: one transport LP and BFS per edge on a heavy-tailed "
            "preferential-attachment graph; ball and flow time is negligible",
    ),
    "global-800": Workload(
        graph=("uniform", 800, 4000),
        flags=("--scheme", "global", "--beta", "0.5", "--heads", "2", "--method", "ham",
               "--s-min", "1", "--tau", "1", "--T", "2", "--eta1", "1"),
        tau=1.0, t_final=2.0,
        why="dense n x n x d log maps, global attention, parallel transport (ham) "
            "and gyromidpoint (residual); the only workload whose memory is dense",
    ),
}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

_COUNTER_UNITS = {"bytes": "B", "max_dual_gap": "cost"}


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in tracing.SPAN_NAMES:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.total_s", "s", "lower"),
                 (f"{name}.self_s", "s", "lower")]
    for key in tracing.COUNTERS:
        if key != "ball.project_to_ball.changed":
            spec.append((key, _COUNTER_UNITS.get(key.rsplit(".", 1)[1], "count"), "lower"))
    spec += [
        ("ball.project_to_ball.changed_ratio", "ratio", "higher"),
        ("diffusivity.orc.bfs_use_ratio", "ratio", "higher"),
        ("solvers.steps", "count", "lower"),
        ("setup.import_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("repo.src_loc", "lines", "lower"),
    ]
    return spec


def environment() -> dict:
    """Versions and settings the outputs and timings depend on."""
    import numpy
    import scipy

    cfg = numpy.show_config(mode="dicts")
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": cfg["Build Dependencies"]["blas"].get("openblas configuration", ""),
        "simd": cfg.get("SIMD Extensions", {}).get("found", []),
        "child_env": CHILD_ENV,
    }


def _fingerprint(env: dict) -> dict:
    # what decides the float results; nproc does not, with one BLAS thread
    return {k: env[k] for k in ("machine", "python", "numpy", "scipy", "blas", "simd")}


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    error: str | None = None
    digests: dict | None = None
    steps: int = 0
    result: dict | None = None  # what child.py reported


class Bench:
    def __init__(self, root: Path, name: str, seed: int):
        self.root = root
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = root / ".bench_work"
        self.out_dir = self.work / "out" / name
        self.result_path = self.work / f"{name}.result.json"
        self.spans_path = self.work / f"{name}.spans.json"
        self.err_path = self.work / f"{name}.stderr"
        self.started = time.perf_counter()
        self.edges = inputs.edge_file(str(self.work / "inputs"), *self.wl.graph, seed)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **CHILD_ENV)

    def out_of_time(self) -> bool:
        return time.perf_counter() - self.started > DEADLINE_S

    def _spawn(self, cmd: list) -> tuple:
        """Run one child to completion; returns (exit code, wall s, peak RSS MB)."""
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - self.started))
        with open(self.err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6

    def _stderr_tail(self) -> str:
        lines = self.err_path.read_text(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""

    def setup_sample(self) -> dict:
        rc, _, _ = self._spawn([sys.executable, str(HERE / "child.py"), "setup",
                                self.edges, str(self.result_path)])
        if rc != 0:
            raise RuntimeError(f"setup child exited {rc}: {self._stderr_tail()}")
        return json.loads(self.result_path.read_text())

    def cli_args(self) -> list:
        return ["diffuse", "--graph", self.edges, "--seed", str(self.seed),
                "--out", str(self.out_dir), "--dim", str(DIM), *self.wl.flags]

    def invoke(self, mode: str = "cli") -> Invocation:
        """One CLI run in a fresh interpreter.  mode "cli" runs
        `python -m hypdiff.cli`; "main" and "traced" time `hypdiff.cli.main`
        under child.py, without and with tracing."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        for stale in (self.result_path, self.spans_path):
            stale.unlink(missing_ok=True)
        if mode == "cli":
            cmd = [sys.executable, "-m", "hypdiff.cli", *self.cli_args()]
        else:
            opts = ["--spans", str(self.spans_path)] if mode == "traced" else []
            cmd = [sys.executable, str(HERE / "child.py"), "main", str(self.result_path),
                   *opts, "--", *self.cli_args()]
        rc, wall, rss = self._spawn(cmd)
        inv = Invocation(wall_s=wall, rss_mb=rss)
        if rc != 0:
            inv.error = f"exit code {rc}: {self._stderr_tail()}"
            return inv
        try:
            inv.digests, inv.steps = check.check_outputs(
                str(self.out_dir), self.wl.n, DIM, KAPPA, self.wl.grid_times())
        except check.CheckError as exc:
            inv.error = str(exc)
        if mode != "cli":
            inv.result = json.loads(self.result_path.read_text())
        if mode == "traced":
            inv.result["trace"] = tracing.summarize(json.loads(self.spans_path.read_text()))
            gap = inv.result["trace"]["counters"]["diffusivity.orc.max_dual_gap"]
            if gap > check.DUAL_TOL:
                inv.error = inv.error or f"ORC dual gap {gap:.3g} above {check.DUAL_TOL}"
        return inv


def reference_digests(name: str, seed: int, env: dict):
    """Digests recorded at the seed commit, when they apply to this run."""
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return None, "no reference for this seed"
    ref = json.loads(REFERENCE.read_text())
    if _fingerprint(ref["environment"]) != _fingerprint(env):
        return None, "reference recorded on a different numerical environment"
    return ref["digests"].get(name), "reference digests"


def mark_mismatches(invs: list, expected: dict | None, source: str) -> tuple:
    """Fail every invocation whose outputs differ from `expected`, or from
    the first good invocation when there is no reference; returns the
    digests compared against and where they came from."""
    for inv in invs:
        if inv.error is None:
            if expected is None:
                expected, source = inv.digests, "the first good run"
            elif inv.digests != expected:
                inv.error = f"outputs differ from {source}"
    return expected, source


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def src_loc(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def repeat(step, seconds: float, minimum: int, bench: Bench) -> list:
    """Call step(i) while the next call should still end within `seconds`,
    judged by the mean duration so far, and at least `minimum` times."""
    out = []
    t0 = time.perf_counter()
    while not bench.out_of_time():
        elapsed = time.perf_counter() - t0
        if len(out) >= minimum and elapsed * (len(out) + 1) / len(out) > seconds:
            break
        out.append(step(len(out)))
    return out


# Each step takes one set-up sample too, so set-up time is sampled across
# the whole run rather than in one short burst.

def timed_run(bench: Bench, seconds: float) -> list:
    """Steps of (set-up sample, CLI invocation)."""
    return repeat(lambda i: (bench.setup_sample(), bench.invoke()), seconds, MIN_SAMPLES, bench)


def traced_run(bench: Bench, seconds: float) -> list:
    """Steps of (set-up sample, untraced, traced) with cli.main runs
    alternating which goes first."""

    def step(i):
        setup = bench.setup_sample()
        if i % 2 == 0:
            plain = bench.invoke("main")
            traced = bench.invoke("traced")
        else:
            traced = bench.invoke("traced")
            plain = bench.invoke("main")
        if traced.error is None and plain.error is None and traced.digests != plain.digests:
            traced.error = "traced outputs differ from untraced outputs"
        return setup, plain, traced

    return repeat(step, seconds, 1, bench)


def layer_metrics(pairs: list, setup: list, root: Path) -> dict:
    # pairs whose processes both exited 0; a failed output check still fails
    # the run, but its spans are as valid as any
    good = [(p, t) for p, t in pairs if p.result and t.result and "trace" in t.result]
    if not good:
        return {}
    traces = [t.result["trace"] for _, t in good]
    med = statistics.median
    values = {}
    for name in tracing.SPAN_NAMES:
        for stat in ("calls", "total_s", "self_s"):
            values[f"{name}.{stat}"] = med([tr["spans"][name][stat] for tr in traces])
    counters = {key: med([tr["counters"][key] for tr in traces]) for key in tracing.COUNTERS}
    values.update(counters)
    proj_rows = counters["ball.project_to_ball.rows"]
    visited = counters["graphs.hop_distances.visited"]
    values["ball.project_to_ball.changed_ratio"] = (
        counters["ball.project_to_ball.changed"] / proj_rows if proj_rows else 0.0)
    values["diffusivity.orc.bfs_use_ratio"] = (
        counters["diffusivity.lp_vars"] / visited if visited else 0.0)
    values["solvers.steps"] = good[0][1].steps
    values["setup.import_s"] = med([s["import_s"] for s in setup])
    values["trace.overhead_ratio"] = med(
        [t.result["cli_main_s"] / p.result["cli_main_s"] for p, t in good])
    values["repo.src_loc"] = src_loc(root)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "hypdiff" / "cli.py").is_file():
        print(f"error: no hypdiff sources under {root / 'src'}", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {env['nproc']}  {' '.join(f'{k}={v}' for k, v in CHILD_ENV.items())}")

    bench.setup_sample()  # warm-up: byte-code caches and the input file; not counted
    expected, source = reference_digests(args.workload, args.seed, env)
    if args.trace:
        steps = traced_run(bench, args.seconds)
        invs = [inv for _, *pair in steps for inv in pair]
    else:
        steps = timed_run(bench, args.seconds)
        invs = [inv for _, inv in steps]
    setup = [s for s, *_ in steps]
    expected, source = mark_mismatches(invs, expected, source)
    failed = [inv for inv in invs if inv.error is not None]
    for inv in failed:
        print(f"FAILED: {inv.error}")
    print(f"digests ({source}): {json.dumps(expected)}")

    if args.trace:
        metrics = layer_metrics([(p, t) for _, p, t in steps], setup, root)
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    else:
        samples = {
            "wall_s": [inv.wall_s for inv in invs],
            "setup_s": [s["import_s"] + s["load_s"] for s in setup],
            "peak_rss_mb": [inv.rss_mb for inv in invs],
        }
        metrics = {}
        for (name, unit), values in zip(END_TO_END, samples.values()):
            q1, q2, q3 = quartiles(values)
            metrics[name] = {"value": q2, "unit": unit}
            print(f"  {name:12s} median {q2:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"n={len(values)}")
        metrics["ok_ratio"] = {"value": 1.0 - len(failed) / len(invs), "unit": "ratio"}
        print(f"  fail_ratio   {len(failed) / len(invs):.4f}  ({len(failed)}/{len(invs)})")
    print(json.dumps({"correct": not failed, "attempted": len(invs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
