"""The benchmark's inputs, job lists and output normal forms.

Every graph is one of the library's seeded stand-in datasets, built by
its generator with the generator's default seed and then relabeled: the
workload seed draws, per round, a random permutation of the vertex ids
and of the edge insertion order.  A relabeled graph is isomorphic to the
dataset, so every count, census and support is the same for every seed
and round, while the layout the engine walks (vertex order, edge ids,
symmetry-breaking ties) changes.  Passing the workload seed to the
generators instead changes the work itself: across ten generator seeds
the interquartile range of the enumeration counters was 24% of the median
for FSM and 31-38% for the query jobs, more than any regression bound
the benchmark could hold.

Outputs are reduced to normal forms that do not depend on the relabeling
(counts, pattern keys computed here by brute force, and results mapped
back to the dataset's own ids), so one recorded expectation checks every
seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from typing import Callable, Dict, List, NamedTuple

from repro import ClusterConfig, FractalContext, GraphBuilder, MultiprocessConfig
from repro.apps import (
    QUERY_PATTERNS,
    count_cliques,
    count_query_matches,
    fsm,
    keyword_search,
    motifs,
    query_subgraphs,
)
from repro.graph import mico_like, patents_like, wikidata_like
from repro.graph.generators import powerlaw_graph

KEYWORDS = ("paris", "revolution", "author")
QUERIES = tuple(QUERY_PATTERNS)
LISTED_QUERIES = ("q2", "q6")
# On the patents graph the kernel chooser keeps every query on
# enumeration; on mico it picks the core-fringe decomposition for these.
DECOMPOSED_QUERIES = ("q3", "q7")

# name -> generator call.  Each generator keeps its own default seed.
DATASETS: Dict[str, Callable] = {
    "mico": lambda: mico_like(1.0),
    "mico_sl": lambda: mico_like(1.0, labeled=False),
    "mico3": lambda: mico_like(3.0),
    "patents_sl": lambda: patents_like(0.6, labeled=False),
    "wikidata": lambda: wikidata_like(3.0),
    # Compressed-alphabet stand-in for the paper's mico-fsm input.
    "fsm": lambda: powerlaw_graph(n=140, attach=4, n_labels=4),
}


class Relabeled(NamedTuple):
    """A relabeled dataset and the map back to the dataset's edge ids."""

    graph: object
    edge_origin: List[int]


def relabel(graph, rng: random.Random) -> Relabeled:
    """An isomorphic copy of ``graph`` with shuffled vertex and edge ids."""
    vertex_origin = list(range(graph.n_vertices))
    rng.shuffle(vertex_origin)
    new_id = [0] * graph.n_vertices
    for new, old in enumerate(vertex_origin):
        new_id[old] = new
    builder = GraphBuilder(graph.name)
    for old in vertex_origin:
        builder.add_vertex(graph.vertex_label(old), graph.vertex_keywords(old))
    edge_origin = list(graph.edges())
    rng.shuffle(edge_origin)
    for e in edge_origin:
        u, v = graph.edge(e)
        builder.add_edge(
            new_id[u], new_id[v], graph.edge_label(e), graph.edge_keywords(e)
        )
    return Relabeled(builder.build(), edge_origin)


class Job(NamedTuple):
    """One user job: ``run(graph)`` calls the public API on the dataset's
    relabeled graph; ``normal(output, graphs)`` reduces the output to the
    seed-independent form recorded in ``expected.json``."""

    name: str
    metric: str  # the end-to-end job-class metric this job's time adds to
    dataset: str
    run: Callable
    normal: Callable


def _ctx(graph):
    return FractalContext().from_graph(graph)


MP = MultiprocessConfig(num_procs=2)


# ----------------------------------------------------------------------
# Normal forms
# ----------------------------------------------------------------------
def pattern_key(pattern) -> str:
    """Canonical key of a small labeled pattern, by brute force over all
    vertex permutations (independent of the engine's DFS codes)."""
    n = pattern.n_vertices
    labels = pattern.vertex_labels
    best = None
    for perm in itertools.permutations(range(n)):
        key = (
            tuple(labels[perm.index(i)] for i in range(n)),
            tuple(
                sorted(
                    (min(perm[a], perm[b]), max(perm[a], perm[b]), label)
                    for a, b, label in pattern.edges
                )
            ),
        )
        if best is None or key < best:
            best = key
    return json.dumps(best, separators=(",", ":"))


def digest(items) -> str:
    """Short hash of a JSON-serializable, already sorted structure."""
    blob = json.dumps(items, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def census_form(counts: Dict[str, int]) -> Dict[str, object]:
    """Normal form of a pattern-key -> value mapping."""
    items = sorted(counts.items())
    return {
        "patterns": len(items),
        "total": sum(counts.values()),
        "digest": digest(items),
    }


def _motif_form(result, graphs) -> Dict[str, object]:
    return census_form({pattern_key(p): c for p, c in result.items()})


def _fsm_form(result, graphs) -> Dict[str, object]:
    return census_form(
        {pattern_key(p): s.support for p, s in result.frequent.items()}
    )


def _count_form(result, graphs) -> int:
    return result


def edge_sets_form(edge_sets) -> Dict[str, object]:
    """Normal form of a collection of subgraphs given as base edge ids."""
    items = sorted(sorted(s) for s in edge_sets)
    return {"count": len(items), "digest": digest(items)}


def _listing_form(dataset):
    def form(result, graphs):
        rel = graphs[dataset]
        origin = rel.edge_origin
        return edge_sets_form([origin[e] for e in s.edges] for s in result)

    return form


def _keyword_form(result, graphs) -> Dict[str, object]:
    origin = graphs["wikidata"].edge_origin
    sets = []
    for s in result.subgraphs:
        edges = s.edges
        if result.reduction is not None:
            edges = result.reduction.original_edges(edges)
        sets.append([origin[e] for e in edges])
    return edge_sets_form(sets)


# ----------------------------------------------------------------------
# Job lists
# ----------------------------------------------------------------------
def _census_jobs() -> List[Job]:
    return [
        Job("motifs_k3", "motifs_s", "mico",
            lambda g: motifs(_ctx(g), 3), _motif_form),
        Job("fsm_s20_e3", "fsm_s", "fsm",
            lambda g: fsm(_ctx(g), min_support=20, max_edges=3), _fsm_form),
        Job("keyword", "keyword_s", "wikidata",
            lambda g: keyword_search(_ctx(g), KEYWORDS), _keyword_form),
        Job("keyword_reduced", "keyword_s", "wikidata",
            lambda g: keyword_search(_ctx(g), KEYWORDS, use_graph_reduction=True),
            _keyword_form),
    ]


def _query_count_jobs(queries, dataset, kernel, engine=None, suffix="") -> List[Job]:
    def make(q):
        pattern = QUERY_PATTERNS[q]
        return lambda g: count_query_matches(
            _ctx(g), pattern, engine=engine, kernel=kernel
        )

    return [
        Job(f"{q}_count{suffix}", "query_count_s", dataset, make(q), _count_form)
        for q in queries
    ]


def _match_jobs() -> List[Job]:
    def lister(q):
        pattern = QUERY_PATTERNS[q]
        return lambda g: query_subgraphs(_ctx(g), pattern)

    def cliques(k):
        return lambda g: count_cliques(_ctx(g), k)

    return (
        _query_count_jobs(QUERIES, "patents_sl", None)
        + _query_count_jobs(QUERIES, "patents_sl", "decomposed", suffix="_decomposed")
        + _query_count_jobs(DECOMPOSED_QUERIES, "mico_sl", "decomposed",
                            suffix="_decomposed_mico")
        + [
            Job(f"{q}_list", "query_list_s", "patents_sl", lister(q),
                _listing_form("patents_sl"))
            for q in LISTED_QUERIES
        ]
        + [
            Job(f"cliques_k{k}", "cliques_s", "mico_sl", cliques(k),
                _count_form)
            for k in (4, 5)
        ]
    )


def _cluster_jobs() -> List[Job]:
    paper_shape = ClusterConfig(workers=10, cores_per_worker=28)
    adaptive = ClusterConfig(workers=2, cores_per_worker=4, steal_policy="adaptive")
    small = ClusterConfig(workers=2, cores_per_worker=4)
    return [
        Job("cliques_k4_10x28", "cliques_s", "mico",
            lambda g: count_cliques(_ctx(g), 4, engine=paper_shape), _count_form),
        Job("cliques_k4_2x4_adaptive", "cliques_s", "mico",
            lambda g: count_cliques(_ctx(g), 4, engine=adaptive), _count_form),
        Job("motifs_k3_2x4", "motifs_s", "mico",
            lambda g: motifs(_ctx(g), 3, engine=small), _motif_form),
    ]


def _procs_jobs() -> List[Job]:
    return [
        Job("cliques_k4_mp2", "cliques_s", "mico3",
            lambda g: count_cliques(_ctx(g), 4, engine=MP), _count_form),
        Job("motifs_k3_mp2", "motifs_s", "mico",
            lambda g: motifs(_ctx(g), 3, engine=MP), _motif_form),
    ] + _query_count_jobs(
        QUERIES, "patents_sl", "decomposed", MP, "_decomposed_mp2"
    ) + _query_count_jobs(
        DECOMPOSED_QUERIES, "mico_sl", "decomposed", MP, "_decomposed_mico_mp2"
    )


WORKLOADS: Dict[str, Callable[[], List[Job]]] = {
    "census": _census_jobs,
    "match": _match_jobs,
    "cluster": _cluster_jobs,
    "procs": _procs_jobs,
}


def datasets_of(jobs: List[Job]) -> List[str]:
    """The datasets a job list reads, in first-use order."""
    return list(dict.fromkeys(job.dataset for job in jobs))


def round_rng(seed: int, round_index: int) -> random.Random:
    """The relabeling stream of one round: fixed by (seed, round)."""
    return random.Random(seed * 1_000_003 + round_index)


def build_graphs(names, rng: random.Random, span) -> Dict[str, Relabeled]:
    """Generate, relabel and index every named dataset.

    The relabeling builds each graph a second time, through the public
    ``GraphBuilder``; it is timed in a span of its own.  ``span(name)`` is
    a context-manager factory timing each phase in the traced run, and
    doing nothing otherwise.
    """
    graphs: Dict[str, Relabeled] = {}
    for name in names:
        with span("graph.generate"):
            base = DATASETS[name]()
        with span("graph.relabel"):
            rel = relabel(base, rng)
        with span("graph.csr"):
            rel.graph.csr()
        with span("graph.index"):
            rel.graph.labeled_adjacency()
        graphs[name] = rel
    return graphs
