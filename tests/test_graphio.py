"""File formats, kNN construction, encoder and decoder maps."""

import numpy as np
import pytest

from hypdiff import ball
from hypdiff.ball import Curvature
from hypdiff.graphio import (
    EncoderParams,
    encode,
    fermi_dirac,
    knn_graph,
    load_edge_list,
    load_features,
    save_edge_list,
    save_energy_csv,
    save_matrix_csv,
    save_orc_csv,
)
from hypdiff.diffusivity import OrcResult
from hypdiff.graphs import Graph

K1 = Curvature(-1.0)


class TestEdgeList:
    def test_path_graph(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\n1 2\n")
        g = load_edge_list(str(p))
        assert g.n == 3
        np.testing.assert_array_equal(g.degrees, [1, 2, 1])

    def test_duplicates_collapse(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\n1 0\n")
        g = load_edge_list(str(p))
        assert g.edges == ((0, 1),)

    def test_self_loop_rejected(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\n0 0\n")
        with pytest.raises(ValueError, match=":2"):
            load_edge_list(str(p))

    def test_negative_id_rejected(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("-1 2\n")
        with pytest.raises(ValueError, match="negative"):
            load_edge_list(str(p))

    def test_parse_error_names_line(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\n0 1 2\n")
        with pytest.raises(ValueError, match=":2"):
            load_edge_list(str(p))

    def test_nodes_override(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# nodes=5\n0 1\n")
        assert load_edge_list(str(p)).n == 5

    def test_round_trip(self, tmp_path):
        g = Graph.from_edges([(0, 3), (1, 2), (0, 1)], n=6)
        p = tmp_path / "g.edges"
        save_edge_list(str(p), g)
        loaded = load_edge_list(str(p))
        assert loaded.n == g.n
        assert loaded.edges == g.edges


class TestFeatures:
    def test_basic_csv(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n5.5,6.25\n")
        out = load_features(str(p))
        assert out.shape == (3, 2)
        assert out[2, 1] == 6.25

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_features(str(p))

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            load_features(str(p))

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2\n3,x\n")
        with pytest.raises(ValueError, match=":2"):
            load_features(str(p))

    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 3))
        p = tmp_path / "m.csv"
        save_matrix_csv(str(p), m)
        np.testing.assert_array_equal(load_features(str(p)), m)


class TestCsvBytes:
    """The writers produce the bytes of one f-string per cell."""

    EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 3.0, -17.0, 1e16,
                   0.1, 1.0 / 3.0, 2.0 ** -1074 * 3, float.fromhex("0x1.fffffffffffffp+1023")]

    @staticmethod
    def fstring_matrix(matrix):
        matrix = np.atleast_2d(np.asarray(matrix))
        return "\n".join(",".join(f"{x:.17g}" for x in row) for row in matrix) + "\n"

    @pytest.mark.parametrize("shape", [(13, 1), (1, 13), (1, 1), (0, 4), (3, 0)])
    def test_matrix_edge_values(self, tmp_path, shape):
        size = shape[0] * shape[1]
        values = (self.EDGE_VALUES * (size // len(self.EDGE_VALUES) + 1))[:size]
        m = np.array(values, dtype=np.float64).reshape(shape)
        p = tmp_path / "m.csv"
        save_matrix_csv(str(p), m)
        assert p.read_bytes() == self.fstring_matrix(m).encode()

    def test_matrix_random_and_vector(self, tmp_path):
        rng = np.random.default_rng(3)
        p = tmp_path / "m.csv"
        for m in (rng.standard_normal((50, 16)) * 10.0 ** rng.integers(-300, 300, (50, 16)),
                  rng.standard_normal(7)):
            save_matrix_csv(str(p), m)
            assert p.read_bytes() == self.fstring_matrix(m).encode()

    @pytest.mark.parametrize("rows", [0, 1, 5])
    def test_energy_and_orc(self, tmp_path, rows):
        vals = self.EDGE_VALUES[:rows]
        trace = [(float(i), np.float64(v)) for i, v in enumerate(vals)]
        p = tmp_path / "energy.csv"
        save_energy_csv(str(p), trace)
        want = "\n".join(["t,energy"] + [f"{t:.17g},{e:.17g}" for t, e in trace]) + "\n"
        assert p.read_bytes() == want.encode()

        edges = tuple((i, i + 1) for i in range(rows))
        orc = OrcResult(edges=edges, curvature=1.0 - np.array(vals, dtype=np.float64),
                        wasserstein=np.array(vals, dtype=np.float64),
                        dual_gap=np.zeros(rows))
        p = tmp_path / "orc.csv"
        save_orc_csv(str(p), orc)
        want = "\n".join(["u,v,curvature,wasserstein"] + [
            f"{u},{v},{k:.17g},{w:.17g}"
            for (u, v), k, w in zip(orc.edges, orc.curvature, orc.wasserstein)]) + "\n"
        assert p.read_bytes() == want.encode()


class TestKnn:
    def test_collinear_points(self):
        x = np.array([[0.0], [1.0], [10.0]])
        g = knn_graph(x, k=1)
        assert g.edges == ((0, 1), (1, 2))

    def test_complete_graph(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 2))
        g = knn_graph(x, k=5)
        assert len(g.edges) == 15

    def test_no_self_edges(self):
        rng = np.random.default_rng(2)
        g = knn_graph(rng.standard_normal((10, 3)), k=3)
        assert all(u != v for u, v in g.edges)

    def test_k_validation(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError):
            knn_graph(x, k=4)
        with pytest.raises(ValueError):
            knn_graph(x, k=0)

    def test_tie_breaks_to_lower_index(self):
        # nodes 1 and 2 are equidistant from 0 but pair up with their own
        # buddies, so only node 0's tie-break decides between (0,1) and (0,2)
        x = np.array([[0.0, 0.0], [10.0, 0.0], [-10.0, 0.0], [10.5, 0.0], [-10.5, 0.0]])
        g = knn_graph(x, k=1)
        assert g.edges == ((0, 1), (1, 3), (2, 4))

    def test_cosine_metric(self):
        x = np.array([[1.0, 0.0], [2.0, 0.1], [-1.0, 0.0]])
        g = knn_graph(x, k=1, metric="cosine")
        assert (0, 1) in g.edges

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            knn_graph(np.zeros((3, 2)), k=1, metric="manhattan")

    def test_permutation_equivariance(self):
        # row i of the shuffled matrix is x[perm[i]], so edge (i, j) there
        # must correspond to edge (perm[i], perm[j]) on the original rows
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 4))
        g = knn_graph(x, k=3)
        perm = rng.permutation(20)
        g_p = knn_graph(x[perm], k=3)
        mapped = {
            (min(int(perm[u]), int(perm[v])), max(int(perm[u]), int(perm[v])))
            for u, v in g_p.edges
        }
        assert mapped == set(g.edges)


class TestEncoder:
    def test_identity_composition(self):
        x = np.array([[0.2, -0.1], [0.05, 0.3]])
        params = EncoderParams(
            weight=np.eye(2), bias=np.zeros(2), kappa_src=K1, kappa_dst=K1
        )
        st = encode(x, params)
        np.testing.assert_allclose(
            st.points, ball.exp_map(np.zeros(2), x, K1), atol=1e-12
        )

    def test_zero_features_zero_bias(self):
        params = EncoderParams(
            weight=np.eye(3), bias=np.zeros(3), kappa_src=K1, kappa_dst=K1
        )
        st = encode(np.zeros((4, 3)), params)
        np.testing.assert_array_equal(st.points, np.zeros((4, 3)))

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(4)
        ks, kt = Curvature(-1.0), Curvature(-0.5)
        f, d = 5, 3
        w = 0.4 * rng.standard_normal((f, d))
        b = ball.project_to_ball(0.3 * rng.standard_normal(d), ks)
        x = 0.3 * rng.standard_normal((6, f))
        st = encode(x, EncoderParams(weight=w, bias=b, kappa_src=ks, kappa_dst=kt))
        # independent step-by-step recomputation through the kernel
        of, od = np.zeros(f), np.zeros(d)
        lifted = ball.exp_map(of, x, ks)
        z_lin = ball.exp_map(od, ball.log_map(of, lifted, ks) @ w, ks)
        z_b = ball.exp_map(
            z_lin, ball.parallel_transport(od, z_lin, ball.log_map(od, b, ks), ks), ks
        )
        want = ball.exp_map(od, ball.log_map(od, z_b, ks), kt)
        np.testing.assert_allclose(st.points, want, atol=1e-12)
        assert st.curvature == kt

    def test_bias_outside_ball_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            EncoderParams(
                weight=np.eye(2), bias=np.array([2.0, 0.0]), kappa_src=K1, kappa_dst=K1
            )

    def test_feature_width_checked(self):
        params = EncoderParams(
            weight=np.eye(2), bias=np.zeros(2), kappa_src=K1, kappa_dst=K1
        )
        with pytest.raises(ValueError):
            encode(np.zeros((3, 5)), params)


class TestFermiDirac:
    def test_half_probability_at_r(self):
        # d(o, y) ^ 2 == r  =>  probability exactly 1/2
        y = ball.exp_map(np.zeros(2), np.array([0.5, 0.0]), K1)
        d2 = float(ball.distance(np.zeros(2), y, K1)) ** 2
        assert fermi_dirac(np.zeros(2), y, r=d2, t_fd=1.0, kappa=K1) == pytest.approx(0.5)

    def test_zero_distance_value(self):
        x = np.array([0.1, 0.2])
        want = 1.0 / (np.exp(-2.0) + 1.0)
        assert fermi_dirac(x, x, r=2.0, t_fd=1.0, kappa=K1) == pytest.approx(want, rel=1e-12)

    def test_monotone_decreasing(self):
        o = np.zeros(2)
        probs = [
            fermi_dirac(o, np.array([r, 0.0]), r=1.0, t_fd=0.5, kappa=K1)
            for r in (0.0, 0.3, 0.6, 0.9)
        ]
        assert all(a > b for a, b in zip(probs, probs[1:]))
        assert all(0.0 < p < 1.0 for p in probs)

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            fermi_dirac(np.zeros(2), np.zeros(2), r=1.0, t_fd=0.0, kappa=K1)


class TestGraphArrays:
    def test_edge_array_is_read_only_canonical_edges(self):
        g = Graph.from_edges([(3, 1), (0, 2), (1, 3), (2, 1)], n=5)
        arr = g.edge_array
        assert arr.dtype == np.int64 and arr.shape == (3, 2)
        assert [tuple(e) for e in arr.tolist()] == list(g.edges)
        assert not arr.flags.writeable
        assert g.edge_array is arr

    def test_degrees_count_edge_endpoints(self):
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (2, 3)], n=6)
        assert g.degrees.dtype == np.int64
        assert g.degrees.tolist() == [3, 1, 2, 2, 0, 0]
        assert not g.degrees.flags.writeable
        empty = Graph.from_edges([], n=2)
        assert empty.edge_array.shape == (0, 2) and empty.degrees.tolist() == [0, 0]
