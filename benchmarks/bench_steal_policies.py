"""Steal-policy benchmark.

``steal_traffic`` (headline, 3x message-reduction target)
    A straggler-skewed clique workload on an external-stealing cluster.
    Slow cores hold work that fast cores must repeatedly steal; under the
    seed's single-extension protocol every stolen extension costs a
    request/response message pair, while ``"half"`` drains a straggler's
    frame in a few large chunks.  Steal messages, steals and makespan are
    *simulated* quantities — deterministic, so the targets are asserted
    exactly in every mode.

Correctness checks recorded for the CI smoke job: result multisets and
finalized aggregation views identical across policies (with and without
faults).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import ClusterConfig, FractalContext  # noqa: E402
from repro.graph import powerlaw_graph  # noqa: E402

from bench_schema import make_header  # noqa: E402
from dlb_scenarios import clique_fractoid, straggler_plan  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_steal_policies.json"

# ----------------------------------------------------------------------
# Workload 1: steal traffic under the chunking policies
# ----------------------------------------------------------------------
def run_steal_traffic(graph, workers, cores, plan, policies) -> Dict[str, dict]:
    records: Dict[str, dict] = {}
    counts = set()
    for policy in policies:
        config = ClusterConfig(
            workers=workers,
            cores_per_worker=cores,
            ws_internal=False,
            ws_external=True,
            steal_policy=policy,
            fault_plan=plan,
        )
        report = clique_fractoid(graph, config).execute(collect="count")
        m = report.metrics
        steals = m.steals_internal + m.steals_external
        records[policy] = {
            "steal_messages": m.steal_messages,
            "steals": steals,
            "steal_chunk_extensions": m.steal_chunk_extensions,
            "mean_chunk": round(m.steal_chunk_extensions / steals, 3)
            if steals
            else 0.0,
            "makespan_s": round(report.simulated_seconds, 6),
            "result_count": report.result_count,
            "scheduler_events": m.scheduler_events,
        }
        counts.add(report.result_count)
        print(
            f"  {policy:10s} messages {m.steal_messages:6d}  steals {steals:6d}  "
            f"mean chunk {records[policy]['mean_chunk']:6.2f}  "
            f"makespan {report.simulated_seconds:.4f}s"
        )
    if len(counts) != 1:
        raise AssertionError(f"result counts diverged across policies: {counts}")
    return records


# ----------------------------------------------------------------------
# Correctness checks recorded in the payload (used by the CI smoke job)
# ----------------------------------------------------------------------
def check_policy_transparency(graph, plan) -> Dict[str, object]:
    def multiset(policy, fault_plan):
        config = ClusterConfig(
            workers=2,
            cores_per_worker=3,
            ws_internal=True,
            ws_external=True,
            steal_policy=policy,
            fault_plan=fault_plan,
        )
        report = clique_fractoid(graph, config).execute(collect="subgraphs")
        return Counter((s.vertices, s.edges) for s in report.subgraphs)

    def census(policy):
        config = ClusterConfig(
            workers=2, cores_per_worker=3, steal_policy=policy
        )
        fg = FractalContext(engine=config).from_graph(graph)
        view = (
            fg.vfractoid()
            .expand(3)
            .aggregate(
                "motifs",
                key_fn=lambda s, c: s.pattern(),
                value_fn=lambda s, c: 1,
                reduce_fn=lambda a, b: a + b,
            )
            .aggregation("motifs")
        )
        return {k.canonical_code(): v for k, v in view.items()}

    base = multiset("one", None)
    base_view = census("one")
    return {
        "multisets_identical": all(
            multiset(policy, fault_plan) == base
            for policy in ("half", "chunk:3")
            for fault_plan in (None, plan)
        ),
        "aggregation_views_identical": all(
            census(policy) == base_view for policy in ("half", "chunk:3")
        ),
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized workload; skips the message-reduction target",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload, correctness checks only",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.smoke:
        mode = "smoke"
    elif args.quick:
        mode = "quick"
    else:
        mode = "full"

    if mode == "full":
        traffic_graph = powerlaw_graph(400, attach=6, seed=3)
        traffic_shape = (4, 8)
        plan = straggler_plan(12, 12.0)
    elif mode == "quick":
        traffic_graph = powerlaw_graph(250, attach=6, seed=3)
        traffic_shape = (4, 4)
        plan = straggler_plan(6, 12.0)
    else:
        traffic_graph = powerlaw_graph(120, attach=5, seed=3)
        traffic_shape = (2, 4)
        plan = straggler_plan(3, 12.0)
    policies = ("one", "half", "chunk:16")

    print(
        f"steal traffic: {traffic_graph.n_vertices}v/{traffic_graph.n_edges}e, "
        f"{traffic_shape[0]}x{traffic_shape[1]} cores, "
        f"{len(plan.stragglers)} stragglers, external stealing only"
    )
    traffic = run_steal_traffic(traffic_graph, *traffic_shape, plan, policies)
    message_reduction = (
        traffic["one"]["steal_messages"] / traffic["half"]["steal_messages"]
        if traffic["half"]["steal_messages"]
        else float("inf")
    )
    makespan_lower = traffic["half"]["makespan_s"] < traffic["one"]["makespan_s"]

    print("correctness checks:")
    checks = check_policy_transparency(
        powerlaw_graph(70, attach=4, seed=5), straggler_plan(2, 6.0)
    )
    for key, value in checks.items():
        print(f"  {key}: {value}")
        if not value:
            print(f"FAIL: check {key} did not hold")
            return 1

    targets = {
        "message_reduction": {
            "required": 3.0,
            "achieved": round(message_reduction, 3),
            "enforced": mode == "full",
            "met": message_reduction >= 3.0,
        },
        "half_makespan_lower": {
            "required": True,
            "achieved": makespan_lower,
            "enforced": True,
            "met": makespan_lower,
        },
    }
    payload = {
        **make_header(
            "steal_policies",
            {"mode": mode},
            f"chunked stealing cuts steal messages "
            f"{message_reduction:.2f}x",
        ),
        "generated_by": "benchmarks/bench_steal_policies.py",
        "mode": mode,
        "workloads": {
            "steal_traffic": {
                "graph": {
                    "vertices": traffic_graph.n_vertices,
                    "edges": traffic_graph.n_edges,
                },
                "cluster": {
                    "workers": traffic_shape[0],
                    "cores_per_worker": traffic_shape[1],
                    "ws": "external-only",
                    "stragglers": len(plan.stragglers),
                    "straggler_factor": 12.0,
                },
                "policies": traffic,
                "message_reduction_half_vs_one": round(message_reduction, 3),
            },
        },
        "checks": checks,
        "targets": targets,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    failed = [
        name
        for name, t in targets.items()
        if t["enforced"] and not t["met"]
    ]
    if failed:
        for name in failed:
            t = targets[name]
            print(f"FAIL: {name} achieved {t['achieved']} < {t['required']}")
        return 1
    print(f"message reduction {message_reduction:.2f}x (target 3x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
