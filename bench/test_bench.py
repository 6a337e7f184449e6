"""Tests of the benchmark's own machinery (not of hypdiff).

    PYTHONPATH=src python -m pytest bench -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def span(name, start, end, parent, done=None):
    return (name, start, end, end if done is None else done, parent)


class TestSelfTimes:
    def test_nested_spans(self):
        spans = [
            span(0, 0.0, 10.0, -1),
            span(1, 1.0, 3.0, 0, done=3.5),  # 0.5 s of tracer bookkeeping after the call
            span(2, 1.5, 2.0, 1),
            span(1, 4.0, 6.0, 0),
        ]
        assert tracing.self_times(spans) == pytest.approx([5.5, 1.5, 0.5, 2.0])

    def test_overlapping_children_count_once(self):
        spans = [span(0, 0.0, 4.0, -1), span(1, 1.0, 3.0, 0), span(1, 2.0, 3.5, 0)]
        assert tracing.self_times(spans)[0] == pytest.approx(1.5)

    def test_summary_aggregates_by_name(self):
        names = list(tracing.SPAN_NAMES[:2])
        trace = {
            "names": names,
            "spans": [span(0, 0.0, 2.0, -1), span(1, 0.5, 1.0, 0), span(1, 1.0, 1.25, 0)],
            "counters": {"solvers.flow_evals": 3.0},
        }
        out = tracing.summarize(trace)
        assert out["spans"][names[0]] == pytest.approx(
            {"calls": 1, "total_s": 2.0, "self_s": 1.25})
        assert out["spans"][names[1]] == pytest.approx(
            {"calls": 2, "total_s": 0.75, "self_s": 0.75})
        assert out["counters"]["solvers.flow_evals"] == 3.0
        assert out["counters"]["diffusivity.lp_vars"] == 0.0


class TestInputs:
    def test_uniform_is_seeded_simple_and_sized(self):
        a = inputs.uniform_edges(300, 1200, seed=5)
        assert np.array_equal(a, inputs.uniform_edges(300, 1200, seed=5))
        assert not np.array_equal(a, inputs.uniform_edges(300, 1200, seed=6))
        assert a.shape == (1200, 2)
        assert np.all(a[:, 0] < a[:, 1])
        assert len({tuple(e) for e in a.tolist()}) == 1200

    def test_preferential_is_seeded_and_heavy_tailed(self):
        a = inputs.preferential_edges(150, 4, seed=1)
        assert np.array_equal(a, inputs.preferential_edges(150, 4, seed=1))
        assert a.shape == (4 * (150 - 4), 2)
        assert len({tuple(e) for e in a.tolist()}) == len(a)
        deg = np.bincount(a.ravel(), minlength=150)
        assert deg[4:].min() >= 4 and deg.max() > 5 * 4  # every new node brings 4 edges

    def test_edge_file_bytes_repeat(self, tmp_path):
        p1 = inputs.edge_file(str(tmp_path / "a"), "pa", 60, 3, 7)
        p2 = inputs.edge_file(str(tmp_path / "b"), "pa", 60, 3, 7)
        text = Path(p1).read_text()
        assert text == Path(p2).read_text()
        assert text.startswith("# nodes=60\n")


def write_outputs(out_dir, z, energies):
    os.makedirs(out_dir, exist_ok=True)
    np.savetxt(out_dir / "embeddings.csv", z, delimiter=",", fmt="%.17g")
    lines = ["t,energy"] + [f"{t},{e}" for t, e in enumerate(energies)]
    (out_dir / "energy.csv").write_text("\n".join(lines) + "\n")


class TestCheck:
    times = [0.0, 1.0, 2.0]

    def good(self, tmp_path):
        z = np.random.default_rng(0).uniform(-0.2, 0.2, size=(10, 4))
        write_outputs(tmp_path, z, [3.0, 2.0, 1.0])
        return z

    def test_accepts_valid_outputs(self, tmp_path):
        self.good(tmp_path)
        digests, steps = check.check_outputs(str(tmp_path), 10, 4, -1.0, self.times)
        assert steps == 2 and set(digests) == set(check.OUTPUT_FILES)

    @pytest.mark.parametrize("corrupt", ["outside", "nan", "rows"])
    def test_rejects_corrupted_embeddings(self, tmp_path, corrupt):
        z = self.good(tmp_path)
        if corrupt == "outside":
            z[3] = [1.0, 0.0, 0.0, 0.0]
        elif corrupt == "nan":
            z[3, 1] = np.nan
        else:
            z = z[:-1]
        np.savetxt(tmp_path / "embeddings.csv", z, delimiter=",", fmt="%.17g")
        with pytest.raises(check.CheckError):
            check.check_outputs(str(tmp_path), 10, 4, -1.0, self.times)

    def test_rejects_rising_energy_and_missing_rows(self, tmp_path):
        self.good(tmp_path)
        write_outputs(tmp_path, np.zeros((10, 4)), [1.0, 2.0, 3.0])
        with pytest.raises(check.CheckError, match="decay"):
            check.check_outputs(str(tmp_path), 10, 4, -1.0, self.times)
        write_outputs(tmp_path, np.zeros((10, 4)), [3.0, 2.0])
        with pytest.raises(check.CheckError, match="times"):
            check.check_outputs(str(tmp_path), 10, 4, -1.0, self.times)

    def test_digest_mismatch_fails_the_invocation(self):
        a = run.Invocation(1.0, 1.0, digests={"x": "1"})
        b = run.Invocation(1.0, 1.0, digests={"x": "2"})
        run.mark_mismatches([a, b], None, "")
        assert a.error is None and "differ" in b.error


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in run.per_layer_spec()]


def test_traced_cli_matches_untraced(tmp_path):
    """Tracing wraps the layers from outside and must not change any output."""
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"), OPENBLAS_NUM_THREADS="1")
    digests = []
    for traced in (False, True):
        out = tmp_path / f"out{int(traced)}"
        opts = ["--spans", str(tmp_path / "spans.json")] if traced else []
        cmd = [sys.executable, str(HERE / "child.py"), "main", str(tmp_path / "r.json"),
               *opts, "--", "diffuse", "--scheme", "local", "--method", "hrk4",
               "--tau", "0.25", "--T", "0.5", "--out", str(out)]
        subprocess.run(cmd, env=env, check=True, timeout=120)
        digests.append(check.digests(str(out)))
    assert digests[0] == digests[1]
    summary = tracing.summarize(json.loads((tmp_path / "spans.json").read_text()))
    assert summary["spans"]["cli.main"]["calls"] == 1
    assert summary["spans"]["diffusivity.linprog"]["calls"] == 78  # one LP per karate edge
    assert summary["counters"]["solvers.flow_evals"] == 2 * 4
    assert 0.0 <= summary["counters"]["diffusivity.orc.max_dual_gap"] <= check.DUAL_TOL
