#!/usr/bin/env python3
"""Record ``expected.json``: every job's output, confirmed by oracles.

Run from the repository root:

    python3 perfbench/record_expected.py

For every job of every workload this runs the job on relabeled copies of
its dataset (three relabelings, to confirm that the normal form does not
depend on the seed), and confirms the value against an oracle outside
the engine:

* 3-motif census and FSM supports: brute-force enumeration of vertex and
  edge sets here, classified by brute-force pattern keys;
* keyword search: brute-force search for minimal connected covers over
  the keyword-bearing edges;
* query counts and listings: ``repro.pattern.isomorphism`` backtracking
  matcher (``count_pattern_matches`` / ``match_pattern``); q3 and q7
  counts by their closed form over common neighbours;
* clique counts: networkx ``enumerate_all_cliques``.

Every simulator and multiprocess job is also run with its sequential
counterpart on the same graph, and the two must agree.  The script
exits non-zero and writes nothing when any check fails.
"""

from __future__ import annotations

import itertools
import math
import json
import random
import sys
from collections import namedtuple
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import networkx as nx  # noqa: E402

from repro import FractalContext  # noqa: E402
from repro.apps import (  # noqa: E402
    QUERY_PATTERNS,
    count_cliques,
    count_query_matches,
    motifs,
)
from repro.pattern.isomorphism import count_pattern_matches, match_pattern  # noqa: E402
from workloads import (  # noqa: E402
    DATASETS,
    KEYWORDS,
    WORKLOADS,
    census_form,
    edge_sets_form,
    pattern_key,
    relabel,
)

RELABEL_SEEDS = (0, 1, 2)
COMMON_NEIGHBOUR_FRINGE = {"q3": 2, "q7": 4}
SmallPattern = namedtuple("SmallPattern", "n_vertices vertex_labels edges")


def _sub_pattern(graph, vertices, edge_ids):
    local = {v: i for i, v in enumerate(vertices)}
    edges = []
    for e in edge_ids:
        u, v = graph.edge(e)
        edges.append((local[u], local[v], graph.edge_label(e)))
    labels = tuple(graph.vertex_label(v) for v in vertices)
    return SmallPattern(len(vertices), labels, tuple(edges))


def oracle_motifs3(graph):
    """Induced connected 3-vertex census by brute force."""
    seen = set()
    counts = {}
    for c in graph.vertices():
        for a, b in itertools.combinations(graph.neighbors(c), 2):
            trio = tuple(sorted((a, b, c)))
            if trio in seen:
                continue
            seen.add(trio)
            eids = [graph.edge_between(x, y) for x, y in itertools.combinations(trio, 2)]
            key = pattern_key(_sub_pattern(graph, trio, [e for e in eids if e >= 0]))
            counts[key] = counts.get(key, 0) + 1
    return census_form(counts)


def _connected_edge_sets(graph, max_edges, allowed=None):
    """Every connected edge set of size 1..max_edges (edge-id frozensets)."""
    edges = [e for e in graph.edges() if allowed is None or e in allowed]
    frontier = {frozenset([e]) for e in edges}
    found = set(frontier)
    for _ in range(max_edges - 1):
        grown = set()
        for s in frontier:
            touched = {v for e in s for v in graph.edge(e)}
            for v in touched:
                for e in graph.incident_edges(v):
                    if e not in s and (allowed is None or e in allowed):
                        grown.add(s | {e})
        found |= grown
        frontier = grown
    return found


def oracle_fsm(graph, min_support, max_edges):
    """MNI support of every pattern with up to ``max_edges`` edges.

    Every embedding of a pattern is mapped onto its key's positions by
    every permutation that yields the key, which merges automorphic
    positions as MNI support requires.
    """
    domains = {}
    for s in _connected_edge_sets(graph, max_edges):
        vertices = sorted({v for e in s for v in graph.edge(e)})
        p = _sub_pattern(graph, vertices, sorted(s))
        key = pattern_key(p)
        best = json.loads(key)
        slots = domains.setdefault(key, [set() for _ in vertices])
        for perm in itertools.permutations(range(len(vertices))):
            candidate = [
                [p.vertex_labels[perm.index(i)] for i in range(len(vertices))],
                sorted([min(perm[a], perm[b]), max(perm[a], perm[b]), lab]
                       for a, b, lab in p.edges),
            ]
            if candidate == best:
                for local, v in enumerate(vertices):
                    slots[perm[local]].add(v)
    support = {k: min(len(d) for d in slots) for k, slots in domains.items()}
    return census_form({k: s for k, s in support.items() if s >= min_support})


def oracle_keyword(graph, keywords):
    """Connected minimal keyword covers with at most |K| edges."""
    postings = []
    for word in keywords:
        postings.append({
            e for e in graph.edges()
            if word in graph.edge_keywords(e)
            or any(word in graph.vertex_keywords(v) for v in graph.edge(e))
        })
    allowed = set().union(*postings)
    covers = []
    for s in _connected_edge_sets(graph, len(keywords), allowed):
        counts = [len(s & p) for p in postings]
        if 0 in counts:
            continue
        unique = [p for p, c in zip(postings, counts) if c == 1]
        if all(any(e in p for p in unique) for e in s):
            covers.append(sorted(s))
    return edge_sets_form(covers)


def oracle_listing(graph, pattern):
    sets = []
    for m in match_pattern(pattern, graph):
        sets.append([graph.edge_between(m[a], m[b]) for a, b, _ in pattern.edges])
    return edge_sets_form(sets)


def oracle_common_neighbour(graph, fringe):
    """Instances of an edge plus ``fringe`` common neighbours of its ends:
    the sum over edges of C(common neighbours, fringe).  q3 (diamond) is
    fringe 2 and q7 (double diamond) fringe 4; the backtracking matcher
    would need hours for q7's 333k instances on mico."""
    nbrs = [set(graph.neighbors(v)) for v in graph.vertices()]
    return sum(
        math.comb(len(nbrs[u] & nbrs[v]), fringe)
        for u, v in (graph.edge(e) for e in graph.edges())
    )


def oracle_cliques(graph, k):
    g = nx.Graph()
    g.add_nodes_from(graph.vertices())
    g.add_edges_from(graph.edge(e) for e in graph.edges())
    return sum(1 for c in nx.enumerate_all_cliques(g) if len(c) == k)


def oracle_spec(job):
    """Which oracle checks ``job``: a hashable (kind, argument) pair."""
    name = job.name
    if name.startswith("motifs_k3"):
        return ("motifs3", None)
    if name.startswith("fsm"):
        return ("fsm", None)
    if name.startswith("keyword"):
        return ("keyword", None)
    if name.startswith("cliques_k"):
        return ("cliques", int(name[len("cliques_k")]))
    q = name.split("_")[0]
    return ("listing" if name.endswith("_list") else "count", q)


def run_oracle(spec, base):
    kind, arg = spec
    if kind == "motifs3":
        return oracle_motifs3(base)
    if kind == "fsm":
        return oracle_fsm(base, 20, 3)
    if kind == "keyword":
        return oracle_keyword(base, KEYWORDS)
    if kind == "cliques":
        return oracle_cliques(base, arg)
    if kind == "listing":
        return oracle_listing(base, QUERY_PATTERNS[arg])
    if arg in COMMON_NEIGHBOUR_FRINGE:
        return oracle_common_neighbour(base, COMMON_NEIGHBOUR_FRINGE[arg])
    return count_pattern_matches(QUERY_PATTERNS[arg], base)


def sequential_twin(job):
    """The sequential job a simulator or multiprocess job must agree with."""
    name = job.name
    ctx = lambda g: FractalContext().from_graph(g)  # noqa: E731
    if name.startswith("cliques_k4_"):
        return lambda g: count_cliques(ctx(g), 4)
    if name.startswith("motifs_k3_"):
        return lambda g: motifs(ctx(g), 3)
    if name.endswith("_mp2"):
        pattern = QUERY_PATTERNS[name.split("_")[0]]
        return lambda g: count_query_matches(ctx(g), pattern, kernel="decomposed")
    return None


def main() -> int:
    bases = {name: make() for name, make in DATASETS.items()}
    oracle_cache = {}
    expected = {}
    problems = []
    for workload, make_jobs in WORKLOADS.items():
        expected[workload] = {}
        for job in make_jobs():
            key = (job.dataset, oracle_spec(job))
            if key not in oracle_cache:
                oracle_cache[key] = run_oracle(key[1], bases[job.dataset])
            want = oracle_cache[key]
            for seed in RELABEL_SEEDS:
                graphs = {job.dataset: relabel(bases[job.dataset], random.Random(seed))}
                graph = graphs[job.dataset].graph
                got = job.normal(job.run(graph), graphs)
                if got != want:
                    problems.append(f"{workload}/{job.name} relabel {seed}: "
                                    f"engine {got!r} != oracle {want!r}")
                twin = sequential_twin(job) if workload in ("cluster", "procs") else None
                if twin is not None:
                    seq = job.normal(twin(graph), graphs)
                    if seq != got:
                        problems.append(f"{workload}/{job.name} relabel {seed}: "
                                        f"backend {got!r} != sequential {seq!r}")
            expected[workload][job.name] = want
            print(f"{workload}/{job.name}: {want}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    (BENCH_DIR / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {BENCH_DIR / 'expected.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
