"""Which program functions the traced run wraps, and the per-layer metrics.

Every public function the workloads reach is wrapped where its caller binds
it: a ``from x import f`` in module ``m`` is patched as ``m.f``; calls through
a module object (``graph6.encode``) are patched on that module;
``Graph.np_adjacency`` on the class; the harness's own calls in its
namespace. The layers are the package modules graphs, graph6, canon, trees,
embed, spectral (with the audit), search and cli.

PREDICTIONS records, for each per-layer metric group, which end-to-end metric
it should move and on which workload.
"""

from __future__ import annotations

import statistics

PREDICTIONS = {
    "canon.test_*": "wall_s on spex and census",
    "canon.form_*": "wall_s on census",
    "embed.membership_*, embed.contains_*": "wall_s on spex (contains nested under membership) and extremal",
    "embed.constructive_*": "wall_s on extremal",
    "trees.*": "wall_s on extremal",
    "spectral.solve_*, spectral.max_residual": "wall_s on census (small graphs) and extremal (large graphs)",
    "spectral.audit_*": "wall_s on extremal",
    "graphs.adjacency_*": "wall_s and peak_rss_mb on extremal",
    "graph6.*": "wall_s on census; about 1% of the pass, so no visible end-to-end effect",
    "search.classes_examined, search.in_family, search.solves_skipped, search.skip_ratio, search.self_s": "wall_s on spex",
    "search.enumerate_s": "wall_s on census",
    "search.wall_2w_s, search.speedup_2w": "diagnostic on spex only; not gated",
    "cli.self_s": "wall_s on all three workloads",
}

# span kind -> metric holding its self time
SELF_TIME_METRICS = {
    "cli": "cli.self_s",
    "search": "search.self_s",
    "search.enumerate": "search.enumerate_s",
    "canon.test": "canon.test_s",
    "canon.form": "canon.form_s",
    "embed.membership": "embed.membership_s",
    "embed.contains": "embed.contains_s",
    "embed.constructive": "embed.constructive_s",
    "trees.generate": "trees.generate_s",
    "spectral.solve": "spectral.solve_s",
    "spectral.audit": "spectral.audit_s",
    "graphs.adjacency": "graphs.adjacency_s",
    "graph6.codec": "graph6.codec_s",
}


def instrument(tracer, api) -> dict:
    """Wrap every layer boundary; return the counters the observers fill."""
    from spexlab import cli, embed, graph6, graphs, search, spectral

    patches = [
        # the harness's own calls
        (api, "cli_main", "cli"),
        (api, "decode", "graph6.codec"),
        (api, "encode", "graph6.codec"),
        (api, "canonical_graph", "canon.form"),
        (api, "spectral_radius", "spectral.solve"),
        (api, "generate_trees", "trees.generate"),
        (api, "constructive_with_case", "embed.constructive"),
        (api, "contains_tree", "embed.contains"),
        (api, "family_membership", "embed.membership"),
        # cli
        (cli, "spex_search", "search"),
        (cli, "spectral_radius", "spectral.solve"),
        (cli, "audit_extremal_lemmas", "spectral.audit"),
        # search
        (search, "is_canonically_labeled", "canon.test"),
        (search, "canonical_g6", "canon.form"),
        (search, "family_membership", "embed.membership"),
        (search, "contains_tree", "embed.contains"),
        (search, "spectral_radius", "spectral.solve"),
        (search, "audit_extremal_lemmas", "spectral.audit"),
        (search, "generate_trees", "trees.generate"),
        # calls inside a layer to its own public functions
        (embed, "contains_tree", "embed.contains"),
        (spectral, "spectral_radius", "spectral.solve"),
        # module-object bindings and methods
        (graph6, "encode", "graph6.codec"),
        (graph6, "decode", "graph6.codec"),
        (graphs.Graph, "np_adjacency", "graphs.adjacency"),
    ]
    for owner, attr, kind in patches:
        tracer.patch(owner, attr, kind)
    tracer.patch(cli, "enumerate_graphs", "search.enumerate", generator=True)

    c = {
        "canon.test_accepted": 0,
        "embed.membership_missing": 0,
        "embed.contains_found": 0,
        "solve_ms": [],
        "spectral.max_residual": 0.0,
        "graphs.adjacency_bytes": 0,
        "graph6.encode_calls": 0,
        "graph6.decode_calls": 0,
        "graph6.bytes": 0,
        "families": {},
        "reports": [],
    }

    def canon_test(args, accepted, _):
        c["canon.test_accepted"] += bool(accepted)

    def membership(args, m, _):
        c["embed.membership_missing"] += bool(m.in_family)

    def contains(args, emb, _):
        c["embed.contains_found"] += emb is not None

    def solve(args, p, seconds):
        c["solve_ms"].append(seconds * 1e3)
        c["spectral.max_residual"] = max(c["spectral.max_residual"], p.residual)

    def adjacency(args, _, __):
        c["graphs.adjacency_bytes"] += args[0].n ** 2 * 8

    def codec(args, result, _):
        if isinstance(result, str):
            c["graph6.encode_calls"] += 1
            c["graph6.bytes"] += len(result)
        else:
            c["graph6.decode_calls"] += 1
            c["graph6.bytes"] += len(args[0].strip())

    def generate(args, family, _):
        c["families"][family.t] = len(family)

    def report(args, rep, _):
        c["reports"].append(rep)

    for kind, fn in (
        ("canon.test", canon_test), ("embed.membership", membership),
        ("embed.contains", contains), ("spectral.solve", solve),
        ("graphs.adjacency", adjacency), ("graph6.codec", codec),
        ("trees.generate", generate), ("search", report),
    ):
        tracer.observe(kind, fn)
    return c


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _percentile(values, q) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(tracer, counters, pass_id: int, wall: float, untraced_median: float) -> dict:
    """Per-layer metrics of one traced pass. Idle layers read 0."""
    from spexlab import trees

    summary = tracer.summary(pass_id, wall)
    kinds = summary["kinds"]

    def calls(kind):
        return kinds.get(kind, {}).get("calls", 0)

    m = {name: kinds.get(kind, {}).get("self_s", 0.0) for kind, name in SELF_TIME_METRICS.items()}
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = summary["unattributed_s"]
    m["trace.overhead_s"] = wall - untraced_median

    m["canon.test_calls"] = calls("canon.test")
    m["canon.test_accepted"] = counters["canon.test_accepted"]
    m["canon.accept_ratio"] = _ratio(m["canon.test_accepted"], m["canon.test_calls"])
    m["canon.form_calls"] = calls("canon.form")

    m["embed.membership_calls"] = calls("embed.membership")
    m["embed.membership_missing"] = counters["embed.membership_missing"]
    m["embed.contains_calls"] = calls("embed.contains")
    m["embed.contains_found"] = counters["embed.contains_found"]
    m["embed.constructive_calls"] = calls("embed.constructive")

    # the cache is cleared before every pass, so each miss is one cold build
    m["trees.generate_calls"] = trees.generate_trees.cache_info().misses
    m["trees.trees_out"] = sum(counters["families"].values())
    m["trees.trees_per_s"] = _ratio(m["trees.trees_out"], m["trees.generate_s"])

    m["spectral.solve_calls"] = calls("spectral.solve")
    m["spectral.solve_p50_ms"] = _percentile(counters["solve_ms"], 50)
    m["spectral.solve_p99_ms"] = _percentile(counters["solve_ms"], 99)
    m["spectral.max_residual"] = counters["spectral.max_residual"]
    m["spectral.audit_calls"] = calls("spectral.audit")

    m["graphs.adjacency_calls"] = calls("graphs.adjacency")
    m["graphs.adjacency_bytes"] = counters["graphs.adjacency_bytes"]
    for key in ("graph6.encode_calls", "graph6.decode_calls", "graph6.bytes"):
        m[key] = counters[key]

    examined = in_family = skipped = 0
    for rep in counters["reports"]:
        examined += rep.candidates_examined
        in_family += rep.in_family_count
    if counters["reports"]:
        # spex_search solves, with the search span as parent, every in-family
        # class the radius bound keeps, then the reference graph, then each winner
        search_spans = {i for i, s in enumerate(tracer.spans) if s[0] == "search" and s[4] == pass_id}
        direct = sum(1 for s in tracer.spans if s[0] == "spectral.solve" and s[3] in search_spans)
        post_scan = sum(1 + len(rep.argmax) for rep in counters["reports"])
        skipped = in_family - (direct - post_scan)
    m["search.classes_examined"] = examined
    m["search.in_family"] = in_family
    m["search.solves_skipped"] = skipped
    m["search.skip_ratio"] = _ratio(skipped, in_family)
    return m
