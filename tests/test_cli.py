"""Command-line interface: outputs, exit codes, determinism, config handling."""

import json
import os

import numpy as np
import pytest

from hypdiff.cli import bundled_graph_path, main


def run(*argv):
    return main(list(argv))


class TestBundledGraph:
    def test_karate_club_ships(self):
        from hypdiff.graphio import load_edge_list

        g = load_edge_list(bundled_graph_path())
        assert g.n == 34
        assert len(g.edges) == 78


class TestDiffuse:
    def test_minimal_run_writes_outputs(self, tmp_path):
        out = tmp_path / "run"
        assert run("diffuse", "--out", str(out), "--T", "2") == 0
        assert (out / "embeddings.csv").exists()
        assert (out / "energy.csv").exists()
        assert (out / "run.json").exists()

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("taau=1\n")
        assert run("diffuse", "--config", str(cfg)) == 1
        assert "taau" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("T=2\nmethod=heuler\nseed=4\n")
        out = tmp_path / "run"
        assert run("diffuse", "--config", str(cfg), "--out", str(out), "--T", "3") == 0
        payload = json.loads((out / "run.json").read_text())
        assert payload["T"] == 3.0  # flag wins
        assert payload["method"] == "heuler"
        assert payload["seed"] == 4

    def test_run_json_echoes_defaults(self, tmp_path):
        out = tmp_path / "run"
        assert run("diffuse", "--out", str(out), "--T", "1") == 0
        payload = json.loads((out / "run.json").read_text())
        for key in ("kappa", "scheme", "beta", "heads", "alpha", "sigma",
                    "method", "tau", "s_min", "s_max", "seed", "dim"):
            assert key in payload
        assert "wall_time_s" in payload
        assert payload["residual_eta"] is None

    def test_same_seed_bitwise_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run("diffuse", "--out", str(out), "--T", "3", "--seed", "7") == 0
        for name in ("embeddings.csv", "energy.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_residual_flags_enable_residual(self, tmp_path):
        out = tmp_path / "run"
        assert run("diffuse", "--out", str(out), "--T", "2", "--eta1", "1.0") == 0
        payload = json.loads((out / "run.json").read_text())
        assert payload["residual_eta"] == [1.0, 0.6, 0.1]

    def test_feature_row_mismatch_exits_1(self, tmp_path, capsys):
        feats = tmp_path / "f.csv"
        feats.write_text("0.1,0.2\n0.3,0.4\n")
        assert run("diffuse", "--features", str(feats)) == 1
        assert "match" in capsys.readouterr().err

    def test_bad_method_exits_1(self):
        assert run("diffuse", "--method", "rk45") == 1

    def test_numerical_abort_exits_2(self, monkeypatch, tmp_path, capsys):
        from hypdiff import cli
        from hypdiff.solvers import NonFiniteStateError

        def boom(*args, **kwargs):
            raise NonFiniteStateError(step_index=3, t=3.0)

        monkeypatch.setattr(cli.diffusion, "run_diffusion", boom)
        assert run("diffuse", "--out", str(tmp_path), "--T", "4") == 2
        assert "step 3" in capsys.readouterr().err

    def test_run_json_write_failure_keeps_previous_file(self, tmp_path):
        from hypdiff import cli

        out = tmp_path / "run"
        assert run("diffuse", "--out", str(out), "--T", "1") == 0
        before = (out / "run.json").read_bytes()
        cfg = json.loads(before)
        cfg["zz_unserializable"] = object()  # sorts last, fails mid-document
        with pytest.raises(TypeError):
            cli._writeback(cfg, None, 0.0, str(out))
        assert (out / "run.json").read_bytes() == before
        assert not list(out.glob("*.tmp"))

    def test_features_drive_dimension(self, tmp_path):
        feats = tmp_path / "f.csv"
        rows = "\n".join("0.01,0.02,0.03" for _ in range(34))
        feats.write_text(rows + "\n")
        out = tmp_path / "run"
        assert run("diffuse", "--out", str(out), "--T", "1", "--features", str(feats)) == 0
        emb = np.loadtxt(out / "embeddings.csv", delimiter=",")
        assert emb.shape == (34, 3)


class TestConvergence:
    def test_single_tau_exits_1(self, tmp_path, capsys):
        assert run("convergence", "--taus", "0.1", "--out", str(tmp_path)) == 1
        assert "tau" in capsys.readouterr().err

    def test_writes_orders(self, tmp_path):
        out = tmp_path / "conv"
        assert run(
            "convergence", "--methods", "heuler,hrk4", "--taus", "0.2,0.1,0.05,0.025",
            "--out", str(out),
        ) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "method,tau,error,fitted_order"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 8
        orders = {r[0]: float(r[3]) for r in rows}
        assert 0.8 <= orders["heuler"] <= 1.2
        assert 3.5 <= orders["hrk4"] <= 4.5

    def test_unknown_method_exits_1(self, tmp_path):
        assert run("convergence", "--methods", "magic", "--out", str(tmp_path)) == 1


class TestOrc:
    def test_path_graph_two_rows(self, tmp_path):
        g = tmp_path / "g.edges"
        g.write_text("0 1\n1 2\n")
        out = tmp_path / "orc"
        assert run("orc", "--graph", str(g), "--out", str(out)) == 0
        lines = (out / "orc.csv").read_text().splitlines()
        assert lines[0] == "u,v,curvature,wasserstein"
        assert len(lines) == 3

    def test_alpha_one_zero_curvature(self, tmp_path):
        g = tmp_path / "g.edges"
        g.write_text("0 1\n1 2\n")
        out = tmp_path / "orc"
        assert run("orc", "--graph", str(g), "--alpha", "1.0", "--out", str(out)) == 0
        rows = (out / "orc.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[2]) == 0.0 for r in rows)

    def test_alpha_out_of_range_exits_1(self, tmp_path, capsys):
        g = tmp_path / "g.edges"
        g.write_text("0 1\n")
        assert run("orc", "--graph", str(g), "--alpha", "1.5") == 1
        assert "alpha" in capsys.readouterr().err

    def test_missing_graph_file_exits_1(self, tmp_path):
        assert run("orc", "--graph", str(tmp_path / "nope.edges")) == 1


class TestKnn:
    def write_features(self, tmp_path):
        feats = tmp_path / "f.csv"
        feats.write_text("0,0\n1,0\n2,0\n10,0\n11,0\n")
        return feats

    def test_writes_symmetric_edge_list(self, tmp_path):
        feats = self.write_features(tmp_path)
        out = tmp_path / "knn"
        assert run("knn", "--features", str(feats), "--k", "2", "--out", str(out)) == 0
        from hypdiff.graphio import load_edge_list

        g = load_edge_list(str(out / "knn.edges"))
        assert g.n == 5
        assert (0, 1) in g.edges

    def test_k_too_large_exits_1(self, tmp_path, capsys):
        feats = self.write_features(tmp_path)
        assert run("knn", "--features", str(feats), "--k", "5") == 1
        assert "k" in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        feats = self.write_features(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run("knn", "--features", str(feats), "--k", "2", "--out", str(out)) == 0
        assert (out1 / "knn.edges").read_bytes() == (out2 / "knn.edges").read_bytes()


def test_cli_import_loads_no_scipy():
    """scipy is imported by the ORC LP and the global attention only."""
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, hypdiff.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
