"""Golden outputs: the exit code, the sha256 of every output file and the
warning kinds of a fixed set of CLI runs.

The table in golden_outputs.json is recorded with

    PYTHONPATH=src python tests/test_golden.py

On the numerical environment it was recorded on (machine, python, numpy,
scipy, BLAS configuration and SIMD targets, the keys bench/run.py
fingerprints) every run must give exactly the recorded outcome.  Elsewhere
float results may differ in their last bits, so each run is made twice and
the two outcomes must agree.  run.json is not hashed: it holds the wall time.
"""

import hashlib
import json
import platform
import sys
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from hypdiff.cli import bundled_graph_path, main

TABLE = Path(__file__).with_name("golden_outputs.json")

_SCHEMES = ("isotropic", "local", "global", "local_global")
_METHODS = ("heuler", "hrk4", "ham")
_VARIANTS = {
    "defaults": (),
    "short": ("--tau", "0.25", "--T", "3.3"),
    "tanh-residual": ("--sigma", "tanh", "--eta1", "1", "--tau", "0.5", "--T", "4"),
}


def _runs() -> dict:
    """name -> argv without --out; "{karate}" and "{features}" stand for
    the bundled graph and the features CSV written by _features."""
    runs = {
        f"diffuse-{scheme}-{method}-{variant}":
            ("diffuse", "--scheme", scheme, "--method", method) + flags
        for scheme in _SCHEMES for method in _METHODS for variant, flags in _VARIANTS.items()
    }
    runs["orc-karate"] = ("orc", "--graph", "{karate}")
    runs["knn-k3"] = ("knn", "--features", "{features}", "--k", "3")
    runs["convergence"] = ("convergence",)
    return runs


RUNS = _runs()


def _features(path: Path):
    """A seeded 24 x 3 features CSV."""
    rows = np.random.default_rng(0).standard_normal((24, 3))
    path.write_text("".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in rows))


def environment() -> dict:
    """What the output bits depend on, as bench/run.py fingerprints it."""
    import scipy

    try:
        cfg = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 only prints its config
        cfg = {}
    return {
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": cfg.get("Build Dependencies", {}).get("blas", {}).get("openblas configuration", ""),
        "simd": cfg.get("SIMD Extensions", {}).get("found", []),
    }


def outcome(name: str, work: Path) -> dict:
    """Run `name` with its outputs in a new directory under work."""
    work.mkdir(parents=True)
    features = work / "features.csv"
    _features(features)
    out = work / "out"
    argv = [a.format(karate=bundled_graph_path(), features=features) for a in RUNS[name]]
    code = main(argv + ["--out", str(out)])
    files = sorted(out.iterdir()) if out.exists() else []
    kinds = None
    if (out / "run.json").exists():
        kinds = [w["kind"] for w in json.loads((out / "run.json").read_text())["warnings"]]
    return {
        "exit": code,
        "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in files if p.name != "run.json"},
        "warnings": kinds,
    }


@lru_cache(maxsize=None)
def _table() -> dict:
    return json.loads(TABLE.read_text())


@lru_cache(maxsize=None)
def _differing_keys() -> tuple:
    recorded, here = _table()["environment"], environment()
    return tuple(k for k in recorded if recorded[k] != here.get(k))


def test_table_lists_every_run():
    assert sorted(_table()["runs"]) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_outcome(name, tmp_path):
    got = outcome(name, tmp_path / "first")
    differing = _differing_keys()
    if not differing:
        assert got == _table()["runs"][name]
        return
    warnings.warn(f"golden table recorded on another environment (differs in: "
                  f"{', '.join(differing)}); checking that two runs agree instead")
    assert got == outcome(name, tmp_path / "second")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {"environment": environment(),
                 "runs": {name: outcome(name, Path(tmp) / name) for name in sorted(RUNS)}}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table['runs'])} runs to {TABLE}", file=sys.stderr)
