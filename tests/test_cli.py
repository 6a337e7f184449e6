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

    def test_default_run_warns_of_rising_energy(self, tmp_path, capsys):
        # karate, heuler, tau=1: the energy falls once, then climbs to t=8
        out = tmp_path / "run"
        assert run("diffuse", "--out", str(out)) == 0
        (warning,) = json.loads((out / "run.json").read_text())["warnings"]
        assert warning["kind"] == "energy_rising"
        assert (warning["steps"], warning["t_start"], warning["t_end"]) == (7, 1.0, 8.0)
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert warning["message"] in err

    def test_decaying_run_has_no_warning(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("diffuse", "--out", str(out), "--tau", "0.25") == 0
        assert json.loads((out / "run.json").read_text())["warnings"] == []
        assert "warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("energies, steps", [
        ([], 0), ([1.0], 0), ([3.0, 2.0, 1.0], 0), ([1.0, 1.0, 1.0], 0),
        ([1.0, 2.0, 1.0, 2.0], 0),  # single rises are not flagged
        ([1.0, 2.0, 3.0], 2), ([5.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 4.0], 3),
    ])
    def test_stability_warning_reports_longest_rise(self, energies, steps):
        from hypdiff.cli import _stability_warnings

        warnings = _stability_warnings([(float(i), e) for i, e in enumerate(energies)])
        assert [w["steps"] for w in warnings] == ([steps] if steps else [])

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


class TestLpFailures:
    """A failed or uncertified transport LP, or a dead LP worker process, is a
    numerical failure: one line on stderr and exit 2, not a traceback."""

    @staticmethod
    def patch_linprog(monkeypatch, change):
        from hypdiff import diffusivity as dv

        real = dv.linprog

        def patched(c, **kwargs):
            return change(real(c, **kwargs))

        monkeypatch.setattr(dv, "linprog", patched)

    @staticmethod
    def failed(res):
        res.success, res.message = False, "no plan"
        return res

    @staticmethod
    def shifted_duals(res):
        res.eqlin.marginals = res.eqlin.marginals + 1.0
        return res

    @pytest.mark.parametrize("command", [
        ("orc", "--graph", bundled_graph_path()),
        ("diffuse", "--scheme", "local", "--T", "1"),
    ])
    @pytest.mark.parametrize("change, message", [
        ("failed", "transportation LP failed: no plan"),
        ("shifted_duals", "infeasible dual certificate"),
    ])
    def test_exits_2(self, monkeypatch, tmp_path, capsys, command, change, message):
        self.patch_linprog(monkeypatch, getattr(self, change))
        assert run(*command, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {message}")
        assert "Traceback" not in err

    def test_dead_worker_exits_2(self, monkeypatch, tmp_path, capsys):
        from hypdiff import diffusivity as dv

        parent, real = os.getpid(), dv.linprog

        def dying(c, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return real(c, **kwargs)

        monkeypatch.setattr(dv, "linprog", dying)
        monkeypatch.setattr(dv, "_worker_count", lambda n_edges: 2)
        assert run("orc", "--graph", bundled_graph_path(), "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("numerical failure: ")


class TestFlowEvaluations:
    def test_default_ham_run(self, monkeypatch, tmp_path):
        """Karate, tau=1, T=8, s_min=2: 1 (queue) + 2 x (3 warm-up + 1
        queue) + 6 PEC steps; the warm-up takes its first stage from the
        queue instead of evaluating the flow again."""
        from hypdiff import diffusion

        calls = []
        build = diffusion.build_flow

        def counting_build(*args, **kwargs):
            flow = build(*args, **kwargs)

            def counted(points, t):
                calls.append(t)
                return flow(points, t)

            return counted

        monkeypatch.setattr(diffusion, "build_flow", counting_build)
        assert run("diffuse", "--method", "ham", "--out", str(tmp_path)) == 0
        assert len(calls) == 15


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
    """scipy is imported by the ORC LP and the global attention only,
    multiprocessing by the ORC LP pool only, and concurrent.futures by the
    LP pool and the flow's thread pool only, when they start."""
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, hypdiff.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
