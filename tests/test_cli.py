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
        assert len(g.edge_array) == 78


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

    def test_config_file_is_closed(self, tmp_path, monkeypatch):
        import gc
        import sys
        import warnings

        cfg = tmp_path / "c.cfg"
        cfg.write_text("T=1\n")
        # a ResourceWarning raised as an error inside a finalizer goes here
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            assert run("diffuse", "--config", str(cfg), "--out", str(tmp_path / "run")) == 0
            gc.collect()
        assert [repr(u.exc_value) for u in unraisable] == []

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

    def test_overflowing_curvature_exits_1(self, tmp_path, capsys):
        assert run("diffuse", "--kappa=-1.4e154", "--out", str(tmp_path)) == 1
        assert "9.48e153" in capsys.readouterr().err

    def test_zero_curvature_exits_1_before_the_run(self, tmp_path, monkeypatch, capsys):
        from hypdiff import diffusivity as dv

        def no_lp(*args, **kwargs):
            raise AssertionError("ORC LPs solved for an invalid curvature")

        monkeypatch.setattr(dv, "orc_curvatures", no_lp)
        out = tmp_path / "run"
        assert run("diffuse", "--kappa", "0", "--scheme", "local", "--out", str(out)) == 1
        assert "curvature must be a negative real" in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_residual_weights_match_unit_weights(self, tmp_path):
        # the gyromidpoint blend does not depend on the scale of eta
        runs = {}
        for eta in ("1", "1e-20"):
            out = tmp_path / eta
            flags = [f"--eta{i}={eta}" for i in (1, 2, 3)]
            assert run("diffuse", "--out", str(out), "--tau", "0.25", "--T", "2", *flags) == 0
            runs[eta] = np.loadtxt(out / "embeddings.csv", delimiter=",")
        np.testing.assert_allclose(runs["1e-20"], runs["1"], rtol=0, atol=1e-15)

    def test_overflowing_residual_weights_match_unit_weights(self, tmp_path, capsys):
        # sum |eta| overflows, but the blend scales the weights exactly first
        runs = {}
        for eta in ("1", "1e308"):
            out = tmp_path / eta
            flags = [f"--eta{i}={eta}" for i in (1, 2, 3)]
            assert run("diffuse", "--out", str(out), "--tau", "0.25", "--T", "2", *flags) == 0
            assert capsys.readouterr().err == ""
            runs[eta] = np.loadtxt(out / "embeddings.csv", delimiter=",")
        np.testing.assert_allclose(runs["1e308"], runs["1"], rtol=0, atol=1e-15)

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

    @pytest.mark.parametrize("raised, named", [
        (MemoryError(), "an allocation failed"),
        (MemoryError("Unable to allocate 18.1 KiB for an array with shape (34, 34)"),
         "Unable to allocate 18.1 KiB for an array with shape (34, 34)"),
    ], ids=["bare", "numpy-message"])
    def test_out_of_memory_exits_3(self, monkeypatch, tmp_path, capsys, raised, named):
        """One error line naming what did not fit, not a traceback; the
        attention is made to fail without allocating anything large."""
        from hypdiff import diffusivity as dv

        def no_room(*args, **kwargs):
            raise raised

        monkeypatch.setattr(dv, "GlobalAttention", no_room)
        rc = run("diffuse", "--scheme", "global", "--heads", "2", "--T", "1",
                 "--out", str(tmp_path))
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: out of memory: {named}; the global attention's 2 score products "
            "of 34x34 floats need 18,496 bytes\n"
        )
        assert not (tmp_path / "embeddings.csv").exists()

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
        assert json.loads((out / "run.json").read_text())["dim"] == 3

    def test_features_dim_mismatch_exits_1(self, tmp_path, capsys):
        feats = tmp_path / "f.csv"
        feats.write_text("\n".join("0.01,0.02,0.03" for _ in range(34)) + "\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("dim=4\n")
        out = tmp_path / "run"
        assert run("diffuse", "--out", str(out), "--features", str(feats), "--dim", "16") == 1
        assert "dim (16) does not match the feature columns (3)" in capsys.readouterr().err
        assert run("diffuse", "--out", str(out), "--features", str(feats),
                   "--config", str(cfg)) == 1
        assert "dim (4) does not match the feature columns (3)" in capsys.readouterr().err
        assert not out.exists()
        assert run("diffuse", "--out", str(out), "--T", "1", "--features", str(feats),
                   "--dim", "3") == 0

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_outputs_take_the_umask(self, tmp_path, umask, mode):
        out = tmp_path / "run"
        old = os.umask(umask)
        try:
            assert run("diffuse", "--out", str(out), "--T", "1") == 0
        finally:
            os.umask(old)
        for name in ("embeddings.csv", "energy.csv", "run.json"):
            assert (out / name).stat().st_mode & 0o777 == mode, name


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

        def patched(cost, supply, demand):
            return change(real(cost, supply, demand))

        monkeypatch.setattr(dv, "linprog", patched)

    @staticmethod
    def failed(res):
        return res._replace(status="no plan")

    @staticmethod
    def shifted_duals(res):
        return res._replace(row_dual=res.row_dual + 1.0)

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

        def dying(cost, supply, demand):
            if os.getpid() != parent:
                os._exit(3)
            return real(cost, supply, demand)

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
        assert [0, 1] in g.edge_array.tolist()

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


class TestFlagsPerCommand:
    """Each subcommand has the flags of the keys it reads, so a flag that
    would change nothing is a configuration error; a config file may still
    set any key, since one file may serve every subcommand."""

    @pytest.fixture
    def inputs(self, tmp_path):
        g = tmp_path / "g.edges"
        g.write_text("0 1\n1 2\n")
        feats = tmp_path / "f.csv"
        feats.write_text("0,0\n1,0\n0,1\n")
        return {"orc": ["--graph", str(g)], "knn": ["--features", str(feats), "--k", "1"],
                "convergence": []}

    @pytest.mark.parametrize("command, flag, value", [
        ("orc", "--seed", "1"), ("orc", "--kappa", "-2"), ("knn", "--seed", "1"),
        ("knn", "--kappa", "-2"), ("convergence", "--seed", "1"),
    ], ids=["orc-seed", "orc-kappa", "knn-seed", "knn-kappa", "convergence-seed"])
    def test_unread_flag_exits_1(self, tmp_path, capsys, inputs, command, flag, value):
        out = tmp_path / "out"
        assert run(command, *inputs[command], flag, value, "--out", str(out)) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_keys_of_other_commands_accepted(self, tmp_path, inputs):
        cfg = tmp_path / "cfg"
        cfg.write_text("seed=9\nkappa=-7\n")
        plain, configured = tmp_path / "plain", tmp_path / "configured"
        assert run("orc", *inputs["orc"], "--out", str(plain)) == 0
        assert run("orc", *inputs["orc"], "--config", str(cfg), "--out", str(configured)) == 0
        assert (configured / "orc.csv").read_bytes() == (plain / "orc.csv").read_bytes()


def python_with_src(code):
    """Run code in a fresh interpreter that imports hypdiff from src."""
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_scipy():
    """scipy is imported by the ORC LP only, multiprocessing by the ORC LP
    pool only, and concurrent.futures by the LP pool and the flow's thread
    pool only, when they start."""
    out = python_with_src(
        "import sys, hypdiff.cli; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_global_run_loads_no_scipy(tmp_path):
    out = python_with_src(
        "import sys; from hypdiff.cli import main; "
        f"rc = main(['diffuse', '--scheme', 'global', '--T', '2', '--out', {str(tmp_path)!r}]); "
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0 []"


def test_diverging_run_prints_one_line(tmp_path):
    """karate, global attention, ham at tau=1 leaves the ball at step 7: one
    line on stderr, no numpy warnings, exit 2."""
    out = python_with_src(
        "import sys; from hypdiff.cli import main; "
        "sys.exit(main(['diffuse', '--scheme', 'global', '--method', 'ham', "
        f"'--out', {str(tmp_path)!r}]))")
    assert out.returncode == 2
    assert out.stderr == "numerical failure: non-finite state at step 7 (t=7)\n"


class TestExitFreeze:
    """main() has the process freeze its heap at exit, so the collections of
    the interpreter's shutdown skip the module graph; before exit the heap
    stays collectable."""

    def test_heap_frozen_at_exit_once(self, tmp_path):
        """The handler registered here, before main(), runs after hypdiff's
        (atexit runs last-in first-out) and sees the frozen heap; gc.freeze
        runs once for two main() calls, and nothing is frozen before exit."""
        out = python_with_src(
            "import atexit, gc, sys\n"
            "freezes = []\n"
            "freeze = gc.freeze\n"
            "def counted():\n"
            "    freezes.append(1)\n"
            "    freeze()\n"
            "gc.freeze = counted\n"
            "atexit.register(lambda: print(len(freezes), gc.get_freeze_count() > 0))\n"
            "from hypdiff.cli import main\n"
            "for out in ('a', 'b'):\n"
            f"    rc = main(['diffuse', '--T', '1', '--out', {str(tmp_path)!r} + '/' + out])\n"
            "    print(rc, gc.get_freeze_count())\n")
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""
        assert out.stdout.splitlines() == ["0 0", "0 0", "1 True"]

    def test_heap_not_frozen_when_main_returns(self, tmp_path):
        import gc

        assert run("diffuse", "--T", "1", "--out", str(tmp_path)) == 0
        assert gc.get_freeze_count() == 0

    def test_two_calls_register_one_handler(self, tmp_path, monkeypatch):
        import atexit
        import gc

        from hypdiff import cli

        registered = []
        monkeypatch.setattr(atexit, "register", registered.append)
        cli._freeze_heap_at_exit.cache_clear()
        for out in ("a", "b"):
            assert run("diffuse", "--T", "1", "--out", str(tmp_path / out)) == 0
        assert registered == [gc.freeze]
