"""Round-trip tests for graph serialization."""

import re

import pytest

from repro.graph import (
    GraphError,
    erdos_renyi_graph,
    load_adjacency_list,
    load_edge_list,
    load_keywords,
    save_adjacency_list,
    save_edge_list,
    save_keywords,
)


def _graphs_equal(g1, g2, check_labels=True):
    if g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges:
        return False
    for v in g1.vertices():
        if g1.neighbors(v) != g2.neighbors(v):
            return False
        if check_labels and g1.vertex_label(v) != g2.vertex_label(v):
            return False
    return True


class TestAdjacencyListFormat:
    def test_round_trip(self, tmp_path):
        graph = erdos_renyi_graph(20, 40, n_labels=4, seed=1)
        path = str(tmp_path / "graph.adj")
        save_adjacency_list(graph, path)
        loaded = load_adjacency_list(path)
        assert _graphs_equal(graph, loaded)

    def test_isolated_vertex(self, tmp_path):
        path = tmp_path / "iso.adj"
        path.write_text("0 5\n1 6 2\n2 7 1\n")
        graph = load_adjacency_list(str(path))
        assert graph.n_vertices == 3
        assert graph.n_edges == 1
        assert graph.degree(0) == 0
        assert graph.vertex_label(0) == 5

    def test_duplicate_directions_merged(self, tmp_path):
        path = tmp_path / "dup.adj"
        path.write_text("0 0 1\n1 0 0\n")
        graph = load_adjacency_list(str(path))
        assert graph.n_edges == 1

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.adj"
        path.write_text("# header\n\n0 1 1\n1 1 0\n")
        graph = load_adjacency_list(str(path))
        assert graph.n_vertices == 2

    def test_non_sequential_ids_rejected(self, tmp_path):
        path = tmp_path / "bad.adj"
        path.write_text("0 0\n2 0\n")
        with pytest.raises(GraphError):
            load_adjacency_list(str(path))

    def test_short_line_rejected(self, tmp_path):
        path = tmp_path / "short.adj"
        path.write_text("0\n")
        with pytest.raises(GraphError):
            load_adjacency_list(str(path))


class TestEdgeListFormat:
    def test_round_trip_with_labels(self, tmp_path, labeled_graph):
        path = str(tmp_path / "graph.el")
        save_edge_list(labeled_graph, path)
        loaded = load_edge_list(path)
        assert _graphs_equal(labeled_graph, loaded)
        for e in labeled_graph.edges():
            u, v = labeled_graph.edge(e)
            assert loaded.edge_label(loaded.edge_between(u, v)) == \
                labeled_graph.edge_label(e)

    def test_bare_pairs(self, tmp_path):
        path = tmp_path / "bare.el"
        path.write_text("0 1\n1 2\n0 1\n")
        graph = load_edge_list(str(path))
        assert graph.n_vertices == 3
        assert graph.n_edges == 2  # duplicate merged

    def test_non_sequential_vertex_rejected(self, tmp_path):
        path = tmp_path / "bad.el"
        path.write_text("v 0 1\nv 2 1\n")
        with pytest.raises(GraphError):
            load_edge_list(str(path))


class TestKeywordSidecar:
    def test_round_trip(self, tmp_path, labeled_graph):
        edge_path = str(tmp_path / "g.el")
        kw_path = str(tmp_path / "g.keywords")
        save_edge_list(labeled_graph, edge_path)
        save_keywords(labeled_graph, kw_path)
        bare = load_edge_list(edge_path)
        restored = load_keywords(bare, kw_path)
        for v in labeled_graph.vertices():
            assert restored.vertex_keywords(v) == labeled_graph.vertex_keywords(v)
        for e in labeled_graph.edges():
            assert restored.edge_keywords(e) == labeled_graph.edge_keywords(e)

    def test_bad_line_rejected(self, tmp_path, labeled_graph):
        path = tmp_path / "bad.keywords"
        path.write_text("x 0 word\n")
        with pytest.raises(GraphError):
            load_keywords(labeled_graph, str(path))


class TestMalformedLines:
    """Every malformed line raises a GraphError naming ``path:lineno``."""

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("v 1\n", 1),  # vertex line without a label
            ("e 0\n", 1),  # edge line without a target
            ("v 0 1\nv 1 x\n", 2),
            ("v 0 1\nv 1 1\ne 0 x\n", 3),
            ("v 0 1\nv 1 1\ne 0 5\n", 3),  # endpoint out of range
            ("v 0 1\nv 1 1\ne 0 1 2 3\n", 3),
            ("0 1\n1 1\n", 2),  # self-loop
            ("0 1\n0\n", 2),
            ("0 1 2\n", 1),
        ],
    )
    def test_edge_list(self, tmp_path, text, lineno):
        path = tmp_path / "bad.el"
        path.write_text(text)
        with pytest.raises(GraphError, match="^" + re.escape(f"{path}:{lineno}: ")):
            load_edge_list(str(path))

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("0 1 x\n", 1),  # non-integer neighbor
            ("0 x\n", 1),  # non-integer label
            ("0 1 1\n1 1 7\n", 2),  # neighbor id out of range
            ("0 1 1\n1 1 -1\n", 2),
            ("# header\n0 1 0\n", 2),  # self-loop
        ],
    )
    def test_adjacency_list(self, tmp_path, text, lineno):
        path = tmp_path / "bad.adj"
        path.write_text(text)
        with pytest.raises(GraphError, match="^" + re.escape(f"{path}:{lineno}: ")):
            load_adjacency_list(str(path))

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("v\n", 1),
            ("v 0 red\nv x blue\n", 2),
            ("e 999 word\n", 1),  # edge id out of range
            ("v -1 word\n", 1),
        ],
    )
    def test_keywords(self, tmp_path, labeled_graph, text, lineno):
        path = tmp_path / "bad.keywords"
        path.write_text(text)
        with pytest.raises(GraphError, match="^" + re.escape(f"{path}:{lineno}: ")):
            load_keywords(labeled_graph, str(path))


class TestRoundTripInvariants:
    """Cross-format invariants: isolated vertices, direction, CSR shape."""

    def _csr_equal(self, g1, g2):
        return (
            [g1.neighbors(v) for v in g1.vertices()]
            == [g2.neighbors(v) for v in g2.vertices()]
        )

    def test_isolated_vertices_survive_adjacency_round_trip(self, tmp_path):
        from repro.graph import GraphBuilder

        builder = GraphBuilder()
        builder.add_vertex(label=3)  # isolated
        builder.add_vertex(label=1)
        builder.add_vertex(label=2)
        builder.add_edge(1, 2)
        graph = builder.build()
        path = str(tmp_path / "iso_rt.adj")
        save_adjacency_list(graph, path)
        loaded = load_adjacency_list(path)
        assert loaded.n_vertices == 3
        assert loaded.degree(0) == 0
        assert loaded.vertex_label(0) == 3
        assert _graphs_equal(graph, loaded)

    def test_isolated_vertices_survive_edge_list_round_trip(self, tmp_path):
        from repro.graph import GraphBuilder

        builder = GraphBuilder()
        builder.add_vertex(label=5)  # isolated
        builder.add_vertex(label=0)
        builder.add_vertex(label=0)
        builder.add_edge(1, 2, label=4)
        graph = builder.build()
        path = str(tmp_path / "iso_rt.el")
        save_edge_list(graph, path)
        loaded = load_edge_list(path)
        assert loaded.n_vertices == 3
        assert loaded.degree(0) == 0
        assert loaded.vertex_label(0) == 5
        assert loaded.edge_label(0) == 4

    def test_direction_of_writing_is_immaterial(self, tmp_path):
        # The storage is undirected: an edge written u->v or v->u loads
        # to the same adjacency structure.
        fwd, rev = tmp_path / "fwd.el", tmp_path / "rev.el"
        fwd.write_text("v 0 1\nv 1 2\ne 0 1 7\n")
        rev.write_text("v 0 1\nv 1 2\ne 1 0 7\n")
        g_fwd = load_edge_list(str(fwd))
        g_rev = load_edge_list(str(rev))
        assert self._csr_equal(g_fwd, g_rev)
        assert g_rev.edge_label(g_rev.edge_between(0, 1)) == 7

    def test_csr_identical_after_round_trip(self, tmp_path):
        graph = erdos_renyi_graph(25, 60, n_labels=3, seed=2)
        path = str(tmp_path / "csr.adj")
        save_adjacency_list(graph, path)
        loaded = load_adjacency_list(path)
        assert self._csr_equal(graph, loaded)
        # Edge ids renumber by load order; degrees must still agree.
        assert [graph.degree(v) for v in graph.vertices()] == [
            loaded.degree(v) for v in loaded.vertices()
        ]
