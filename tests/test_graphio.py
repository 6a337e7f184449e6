"""File formats and kNN construction."""

import hashlib
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hypdiff import graphio
from hypdiff.graphio import (
    knn_graph,
    load_edge_list,
    load_features,
    save_edge_list,
    save_energy_csv,
    save_matrix_csv,
    save_orc_csv,
)
from hypdiff.diffusivity import OrcResult
from hypdiff.graphs import Graph, erdos_renyi

from _oracles import canonical_edges, edge_pairs, knn_edges_reference, load_edge_list_reference


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
        assert edge_pairs(g) == ((0, 1),)

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

    @pytest.mark.parametrize("count", ["abc", "-3", ""])
    def test_bad_node_count_names_line(self, tmp_path, count):
        p = tmp_path / "g.edges"
        p.write_text(f"0 1\n# nodes={count}\n1 2\n")
        with pytest.raises(ValueError) as err:
            load_edge_list(str(p))
        assert str(err.value).startswith(f"{p}:2: invalid node count '{count}'")

    def test_nodes_override(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# nodes=5\n0 1\n")
        assert load_edge_list(str(p)).n == 5

    def test_round_trip(self, tmp_path):
        g = Graph(6, [(0, 3), (1, 2), (0, 1)])
        p = tmp_path / "g.edges"
        save_edge_list(str(p), g)
        loaded = load_edge_list(str(p))
        assert loaded.n == g.n
        assert edge_pairs(loaded) == edge_pairs(g)

    # no graph, an edgeless one, a path, and more edges than two chunks hold
    @pytest.mark.parametrize("n, m", [(0, 0), (5, 0), (3, 2), (20000, (1 << 14) + 5)])
    def test_written_in_chunks_as_one_text(self, tmp_path, monkeypatch, n, m):
        """The file is the `# nodes=N` line and one `u v` line per edge, as
        one joined text would give, written at most _CSV_CHUNK_VALUES ids at
        a time."""
        g = Graph(n, [(i, i + 1) for i in range(m)])
        chunks = []
        real = graphio.atomic_write
        monkeypatch.setattr(graphio, "atomic_write", lambda path, parts: real(
            path, (chunks.append(c) or c for c in parts)))
        p = tmp_path / "g.edges"
        save_edge_list(str(p), g)
        want = "".join([f"# nodes={n}\n"] + [f"{u} {v}\n" for u, v in g.edge_array.tolist()])
        assert p.read_bytes() == want.encode()
        rows = graphio._CSV_CHUNK_VALUES // 2
        assert len(chunks) == 1 + -(-m // rows)
        assert max(c.count("\n") for c in chunks) <= rows


# Node-id tokens: mostly plain ASCII ids, and the forms Python's int()
# accepts or rejects that a byte-level parser could get wrong.
ID_TOKENS = st.one_of(
    st.integers(0, 12).map(str),
    st.integers(0, 12).map(str),
    st.integers(0, 12).map(str),
    st.sampled_from([
        "+3", "1_0", "-1", "-0", "007", "0" * 20 + "5", "\u0663", "\u0967\u0968", "\uff13",
        "x", "1.5", "", str(2**63 - 1), str(2**63), "9" * 20, "1" * 18, "1" * 19,
    ]),
)
GAPS = st.sampled_from([" ", "\t", "  ", " \t ", "\u3000", "\x1f", "\x0c", "\u2028", "\x85"])
PADDING = st.sampled_from(["", "", " ", "\t", "\u3000", "\x0c"])


@st.composite
def edge_list_texts(draw):
    """Edge-list files of edge lines, blank lines, comments, node-count
    directives and lines with a wrong field count, with any line ending."""
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["edge"] * 6 + ["blank", "comment", "nodes", "fields"]))
        if kind == "edge":
            body = draw(ID_TOKENS) + draw(GAPS) + draw(ID_TOKENS)
        elif kind == "fields":
            body = draw(GAPS).join(draw(st.lists(ID_TOKENS, min_size=1, max_size=3)))
        elif kind == "comment":
            body = "#" + draw(st.text(st.characters(codec="utf-8", exclude_characters="\r\n"),
                                      max_size=8))
        elif kind == "nodes":
            body = "#" + draw(st.sampled_from(["", " "])) + "nodes" + draw(
                st.sampled_from(["=", " = "])) + draw(ID_TOKENS)
        else:
            body = ""
        lines.append(draw(PADDING) + body + draw(PADDING))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


class TestEdgeListParser:
    """The array parser against the line-by-line reader it replaced."""

    @settings(deadline=None, max_examples=500)
    @given(text=edge_list_texts())
    @example(text="# nodes=12\n1\t2\n+3 1_0\n")  # tabs, a sign, an underscore
    @example(text="\u0663 \u0661\n0 1\n")  # non-ASCII digits
    @example(text="0 1\n1 99999999999999999999\n")  # an id beyond int64
    @example(text="0 1\n1 9223372036854775808\n")  # 19 digits, beyond int64
    @example(text="0 9223372036854775807\n")  # 19 digits, the largest int64
    @example(text="# nodes=3\n0 1\n1 99999999999999999999\n")
    @example(text="2 3\n4 4\n+5 5\n")  # a plain self-loop before a signed one
    @example(text="+5 5\n4 4\n")  # and after it
    @example(text="0 1\n# nodes=x\n2 2\n")  # a bad directive before a self-loop
    @example(text="0 1\n# nodes=2\n5 3\n# nodes=9\n")  # the last directive counts
    @example(text="# nodes=2\n0 1\n5 3\n")  # an edge beyond the node count
    @example(text="")
    def test_matches_line_by_line_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "property.edges"
        path.write_bytes(text.encode("utf-8"))

        def graph(load):
            g = load(str(path))
            return g.n, edge_pairs(g)

        want = outcome(lambda: graph(load_edge_list_reference))
        assert outcome(lambda: graph(load_edge_list)) == want


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

    CHUNK_ROWS = graphio._CSV_CHUNK_VALUES // 16  # rows of one chunk at d=16

    @pytest.mark.parametrize("shape", [
        (13, 1), (1, 13), (1, 1), (0, 4), (3, 0), (CHUNK_ROWS - 1, 16), (CHUNK_ROWS, 16),
        (CHUNK_ROWS + 1, 16), (graphio._CSV_CHUNK_VALUES + 1, 1), (2 * CHUNK_ROWS + 1, 0),
    ])
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

    def test_matrix_write_streams_chunks(self, tmp_path):
        """A (20000, 16) matrix is formatted a chunk of rows at a time: the
        whole text and its 320k Python floats took about 20 MB."""
        m = np.random.default_rng(5).standard_normal((20000, 16))
        p = tmp_path / "m.csv"
        tracemalloc.start()
        try:
            save_matrix_csv(str(p), m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20, peak
        assert p.read_bytes() == self.fstring_matrix(m).encode()

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        """A write that fails after the first chunk leaves the destination
        as it was and no temporary file behind."""
        p = tmp_path / "m.csv"
        p.write_bytes(b"old\n")
        writes = []

        class FailingFile:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, text):
                writes.append(len(text))
                if len(writes) > 1:
                    raise OSError(28, "No space left on device")
                return self.f.write(text)

        fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda *args, **kw: FailingFile(fdopen(*args, **kw)))
        with pytest.raises(OSError, match="No space"):
            save_matrix_csv(str(p), np.ones((3 * self.CHUNK_ROWS, 16)))
        assert len(writes) == 2 and writes[0] > 0
        assert p.read_bytes() == b"old\n"
        assert sorted(os.listdir(tmp_path)) == ["m.csv"]

    @pytest.mark.parametrize("rows", [0, 1, 5])
    def test_energy_and_orc(self, tmp_path, rows):
        vals = self.EDGE_VALUES[:rows]
        trace = [(float(i), np.float64(v)) for i, v in enumerate(vals)]
        p = tmp_path / "energy.csv"
        save_energy_csv(str(p), trace)
        want = "\n".join(["t,energy"] + [f"{t:.17g},{e:.17g}" for t, e in trace]) + "\n"
        assert p.read_bytes() == want.encode()

        path = Graph(rows + 1, [(i, i + 1) for i in range(rows)])
        orc = OrcResult(path, wasserstein=np.array(vals, dtype=np.float64), dual_gap=np.zeros(rows))
        p = tmp_path / "orc.csv"
        save_orc_csv(str(p), orc)
        want = "\n".join(["u,v,curvature,wasserstein"] + [
            f"{u},{v},{1.0 - w:.17g},{w:.17g}" for (u, v), w in zip(edge_pairs(path), vals)]) + "\n"
        assert p.read_bytes() == want.encode()


class TestKnn:
    def test_collinear_points(self):
        x = np.array([[0.0], [1.0], [10.0]])
        g = knn_graph(x, k=1)
        assert edge_pairs(g) == ((0, 1), (1, 2))

    def test_complete_graph(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 2))
        g = knn_graph(x, k=5)
        assert len(g.edge_array) == 15

    def test_no_self_edges(self):
        rng = np.random.default_rng(2)
        g = knn_graph(rng.standard_normal((10, 3)), k=3)
        assert all(u != v for u, v in edge_pairs(g))

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
        assert edge_pairs(g) == ((0, 1), (1, 3), (2, 4))

    def test_cosine_metric(self):
        x = np.array([[1.0, 0.0], [2.0, 0.1], [-1.0, 0.0]])
        g = knn_graph(x, k=1, metric="cosine")
        assert (0, 1) in edge_pairs(g)

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
            for u, v in edge_pairs(g_p)
        }
        assert mapped == set(edge_pairs(g))

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_matches_per_row_reference_on_ties(self, data):
        # small integer coordinates make many equal distances, so the
        # index tie-break decides most of the neighbour lists
        n = data.draw(st.integers(2, 12))
        dim = data.draw(st.integers(1, 3))
        x = data.draw(hnp.arrays(np.float64, (n, dim), elements=st.integers(-2, 2)))
        k = data.draw(st.integers(1, n - 1))
        metric = data.draw(st.sampled_from(graphio.KNN_METRICS))
        want = canonical_edges(n, knn_edges_reference(x, k, metric))
        assert edge_pairs(knn_graph(x, k, metric)) == want


class TestGraphArrays:
    def test_edge_array_is_read_only_canonical_edges(self):
        edges = [(3, 1), (0, 2), (1, 3), (2, 1)]
        g = Graph(5, edges)
        arr = g.edge_array
        assert arr.dtype == np.int64 and arr.shape == (3, 2)
        assert [tuple(e) for e in arr.tolist()] == list(canonical_edges(5, edges))
        assert not arr.flags.writeable
        assert g.edge_array is arr

    def test_degrees_count_edge_endpoints(self):
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (2, 3)])
        assert g.degrees.dtype == np.int64
        assert g.degrees.tolist() == [3, 1, 2, 2, 0, 0]
        assert not g.degrees.flags.writeable
        empty = Graph(2, [])
        assert empty.edge_array.shape == (0, 2) and empty.degrees.tolist() == [0, 0]

    def test_repr_gives_node_and_edge_counts(self):
        assert repr(Graph(5, [(3, 1), (0, 2), (1, 3)])) == "Graph(n=5, m=2)"
        assert repr(Graph(0, [])) == "Graph(n=0, m=0)"

    def test_erdos_renyi_edges_unchanged(self):
        """The edge arrays of 20 seeded draws keep their recorded digest;
        p = 0 gives an edgeless graph on all n nodes."""
        digest = hashlib.sha256()
        for seed in range(20):
            digest.update(erdos_renyi(5 + seed, 0.3, seed).edge_array.tobytes() + b"|")
        assert digest.hexdigest() == (
            "add0ddff80b1b87c092e66c5d379b4ae69bb71834ca2be7ac08eba7ea71c1544")
        empty = erdos_renyi(6, 0.0, 3)
        assert empty.n == 6 and empty.edge_array.shape == (0, 2)


def outcome(build):
    """("ok", value) or the exception's type and message."""
    try:
        return "ok", build()
    except ValueError as exc:
        return type(exc), str(exc)


class TestGraphCanonicalisation:
    """The numpy canonicalisation against the per-edge Python loop."""

    @settings(deadline=None, max_examples=300)
    @given(
        edges=st.lists(st.tuples(st.integers(-2, 9), st.integers(-2, 9)), max_size=25),
        n=st.none() | st.integers(-1, 9),
    )
    @example(edges=[(0, 1), (2, 2), (5, 0)], n=3)  # self-loop before range error
    @example(edges=[(3, 3)], n=2)  # both: the self-loop is reported
    @example(edges=[(-3, -2)], n=None)  # negative node count
    def test_matches_python_loop(self, edges, n):
        n_oracle = 1 + max((max(u, v) for u, v in edges), default=-1) if n is None else n
        got = outcome(lambda: edge_pairs(Graph(n_oracle, edges)))
        assert got == outcome(lambda: canonical_edges(n_oracle, edges))

    @pytest.mark.parametrize("n", [3, None])
    def test_id_beyond_int64_rejected(self, tmp_path, n):
        """n None: the count that the largest id gives, and an edge list
        without a node-count line."""
        with pytest.raises(ValueError, match="int64 range"):
            Graph(1 + 2**63 if n is None else n, [(0, 1), (1, 2**63)])
        p = tmp_path / "g.edges"
        p.write_text(("" if n is None else f"# nodes={n}\n") + "0 1\n1 99999999999999999999\n")
        with pytest.raises(ValueError, match="int64 range"):
            load_edge_list(str(p))

    def test_non_integer_id_rejected(self):
        with pytest.raises(ValueError, match=r"non-integer node id in edge \(0.0, 1.5\)"):
            Graph(3, [(0, 1), (0, 1.5), (1, 2.5)])
        with pytest.raises(ValueError, match=r"non-integer node id in edge \(0.0, 1.7\)"):
            Graph(2, [(0, 1.7)])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-integer"):
                Graph(3, np.array([[0.0, bad]]))
            with pytest.raises(ValueError, match="non-integer"):
                Graph(3, [(0, bad)])
        with pytest.raises(ValueError, match="int64 range"):
            Graph(3, np.array([[0.0, 2.0**63]]))

    def test_integral_floats_and_numpy_ints_accepted(self):
        want = Graph(3, [(0, 2), (1, 2)])
        assert Graph(3, [(0, 2.0), (1.0, 2)]) == want
        assert Graph(3, [(np.int32(0), np.int64(2)), (1.0, 2.0)]) == want
        assert Graph(3, np.array([[0.0, 2.0], [1.0, 2.0]])) == want

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40))
    def test_neighbors_match_dict_adjacency(self, pairs):
        g = Graph(12, [(u, v) for u, v in pairs if u != v])
        adj = {i: set() for i in range(g.n)}
        for u, v in g.edge_array.tolist():
            adj[u].add(v)
            adj[v].add(u)
        for i in range(g.n):
            nbrs = g.neighbors(i)
            assert nbrs.dtype == np.int64 and not nbrs.flags.writeable
            assert nbrs.tolist() == sorted(adj[i])
