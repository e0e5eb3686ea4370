"""Graph serialization.

Two on-disk formats are supported:

* **Arabesque adjacency-list format** — the format Fractal itself consumes
  (one line per vertex: ``<vertex id> <vertex label> [<neighbor id> ...]``).
  Edge labels default to 0 since the format does not carry them.
* **Labeled edge-list format** — one line per edge:
  ``<u> <v> <edge label>``, preceded by ``v <id> <label>`` vertex lines.
  This format round-trips vertex and edge labels.

Keyword annotations round-trip through a side-car ``.keywords`` file written
by :func:`save_keywords` (one line per annotated element).
"""

from __future__ import annotations

import os
from typing import Dict, List

from .graph import Graph, GraphBuilder, GraphError

__all__ = [
    "load_adjacency_list",
    "save_adjacency_list",
    "load_edge_list",
    "save_edge_list",
    "load_keywords",
    "save_keywords",
]


def _ints(tokens: List[str], where: str) -> List[int]:
    """Parse integer fields of the line at ``where`` (``path:lineno``)."""
    try:
        return [int(token) for token in tokens]
    except ValueError:
        raise GraphError(
            f"{where}: expected integers, got {' '.join(tokens)!r}"
        ) from None


def _add_edge(
    builder: GraphBuilder, where: str, u: int, v: int, label: int = 0
) -> None:
    """``builder.add_edge`` with any rejection located at ``where``."""
    try:
        builder.add_edge(u, v, label=label)
    except GraphError as exc:
        raise GraphError(f"{where}: {exc}") from None


def load_adjacency_list(path: str, name: str = "") -> Graph:
    """Load a graph in Arabesque/Fractal adjacency-list format.

    Each non-empty, non-comment line reads
    ``<vertex id> <vertex label> <neighbor> <neighbor> ...``.
    Vertex ids must be ``0..n-1`` in order.  Each undirected edge may appear
    in one or both directions; duplicates are merged.
    """
    builder = GraphBuilder(name=name or os.path.basename(path))
    pending_edges: List[tuple] = []
    expected = 0
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            parts = line.split()
            if len(parts) < 2:
                raise GraphError(f"{where}: expected '<id> <label> ...'")
            vid, label, *neighbors = _ints(parts, where)
            if vid != expected:
                raise GraphError(
                    f"{where}: vertex ids must be sequential "
                    f"(saw {vid}, expected {expected})"
                )
            expected += 1
            builder.add_vertex(label=label)
            pending_edges.extend((where, vid, u) for u in neighbors)
    for where, u, v in pending_edges:
        if not builder.has_edge(u, v):
            _add_edge(builder, where, u, v)
    return builder.build()


def save_adjacency_list(graph: Graph, path: str) -> None:
    """Write ``graph`` in Arabesque/Fractal adjacency-list format."""
    with open(path, "w") as handle:
        for v in graph.vertices():
            neighbors = " ".join(str(u) for u in graph.neighbors(v))
            line = f"{v} {graph.vertex_label(v)}"
            if neighbors:
                line += " " + neighbors
            handle.write(line + "\n")


def load_edge_list(path: str, name: str = "") -> Graph:
    """Load a graph in labeled edge-list format.

    Lines are either ``v <id> <label>`` (vertices, sequential ids) or
    ``e <u> <v> <label>`` (edges).  Bare ``<u> <v>`` lines are accepted as
    unlabeled edges over implicitly created unlabeled vertices.
    """
    builder = GraphBuilder(name=name or os.path.basename(path))
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            parts = line.split()
            if parts[0] == "v":
                if len(parts) != 3:
                    raise GraphError(f"{where}: expected 'v <id> <label>'")
                vid, label = _ints(parts[1:], where)
                if vid != builder.n_vertices:
                    raise GraphError(f"{where}: non-sequential vertex id {vid}")
                builder.add_vertex(label=label)
            elif parts[0] == "e":
                if len(parts) not in (3, 4):
                    raise GraphError(f"{where}: expected 'e <u> <v> [<label>]'")
                u, v, *label = _ints(parts[1:], where)
                _add_edge(builder, where, u, v, label=label[0] if label else 0)
            else:
                if len(parts) != 2:
                    raise GraphError(f"{where}: expected '<u> <v>'")
                u, v = _ints(parts, where)
                while builder.n_vertices <= max(u, v):
                    builder.add_vertex()
                if not builder.has_edge(u, v):
                    _add_edge(builder, where, u, v)
    return builder.build()


def save_edge_list(graph: Graph, path: str) -> None:
    """Write ``graph`` in labeled edge-list format (round-trips labels)."""
    with open(path, "w") as handle:
        for v in graph.vertices():
            handle.write(f"v {v} {graph.vertex_label(v)}\n")
        for e in graph.edges():
            u, v = graph.edge(e)
            handle.write(f"e {u} {v} {graph.edge_label(e)}\n")


def save_keywords(graph: Graph, path: str) -> None:
    """Write keyword annotations to a side-car file.

    Lines read ``v <id> <word> <word> ...`` or ``e <id> <word> ...``;
    unannotated elements are omitted.
    """
    with open(path, "w") as handle:
        for v in graph.vertices():
            words = sorted(graph.vertex_keywords(v))
            if words:
                handle.write("v " + str(v) + " " + " ".join(words) + "\n")
        for e in graph.edges():
            words = sorted(graph.edge_keywords(e))
            if words:
                handle.write("e " + str(e) + " " + " ".join(words) + "\n")


def load_keywords(graph: Graph, path: str) -> Graph:
    """Return a copy of ``graph`` with keyword annotations from ``path``."""
    vertex_words: Dict[int, List[str]] = {}
    edge_words: Dict[int, List[str]] = {}
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            parts = line.split()
            if parts[0] not in ("v", "e") or len(parts) < 2:
                raise GraphError(f"{where}: expected 'v' or 'e' line")
            (element,) = _ints(parts[1:2], where)
            if parts[0] == "v":
                words, count, kind = vertex_words, graph.n_vertices, "vertex"
            else:
                words, count, kind = edge_words, graph.n_edges, "edge"
            if not 0 <= element < count:
                raise GraphError(
                    f"{where}: {kind} {element} out of range (graph has {count})"
                )
            words[element] = parts[2:]
    builder = GraphBuilder(name=graph.name)
    for v in graph.vertices():
        builder.add_vertex(
            label=graph.vertex_label(v), keywords=vertex_words.get(v, ())
        )
    for e in graph.edges():
        u, v = graph.edge(e)
        builder.add_edge(
            u, v, label=graph.edge_label(e), keywords=edge_words.get(e, ())
        )
    return builder.build()
