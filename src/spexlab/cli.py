"""Command line front end.

One subcommand per operation group: construct, trees, spectral, classify,
contains, membership, embed-lemma, spex, ex, audit, enumerate. Parsing
never computes anything: it checks only the command line's shape; every
range is checked once, by the library, before it computes. A family
parameter that the graph input does not read is refused.
Execution buffers its entire output and emits it only on success, so failed
invocations never print partial results.

Exit codes: 0 success, 2 usage, input or I/O error, 3 convergence failure.
Numeric output uses 12 significant digits and repeated invocations are
byte-identical. Output format defaults: a subcommand prints a table on a
terminal when it offers one, and otherwise its first declared format
(graph6 lines for the graph-emitting subcommands, JSON or JSON lines for
the reports); --format (alias --out) forces one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import graph6
from .errors import (
    ConvergenceError,
    ParameterError,
    SpexlabError,
    UsageError,
)
from .graphs import FAMILIES, Graph, construct, family_parameters
from .schemas import _round_floats, dump_json
from .search import ex_search, spex_search, enumerate_graphs
from .spectral import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOL,
    audit_extremal_lemmas,
    classify_vertices,
    constants_with,
    spectral_radius,
)
from .trees import bipartition, check_order, generate_trees, tree_from_graph
from .embed import _TARGETS, constructive_with_case, contains_tree, family_membership

__all__ = ["execute", "main", "dump_json"]


def fmt_num(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="spexlab", description=__doc__, add_help=True)
    sub = parser.add_subparsers(required=True)

    def command(name, run, description):
        p = sub.add_parser(name, description=description)
        p.set_defaults(run=run)
        return p

    def fmt_arg(p, choices):
        default = "table" if "table" in choices and sys.stdout.isatty() else choices[0]
        p.add_argument("--format", "--out", dest="fmt", choices=choices, default=default)
        p.add_argument("--output", dest="out_path", default=None, metavar="PATH")

    def graph_args(p, own=(), with_graph=True):
        # ``own`` names the subcommand's own flags among the family parameters
        source = p.add_mutually_exclusive_group(required=True)
        if with_graph:
            source.add_argument("--graph", help="graph6 text, a file of graph6, or - for stdin")
        source.add_argument("--family", choices=tuple(FAMILIES))
        params = tuple(name for name in ("n", "k", "a", "b", "t") if name not in own)
        for name in params:
            p.add_argument(f"--{name}", type=int)
        p.set_defaults(graph_params=params)

    def search_args(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--ground-truth", action="store_true", help="disable all pruning")
        p.add_argument("--workers", type=int, default=None)
        fmt_arg(p, ("json", "table", "csv", "g6"))

    def constants_args(p):
        p.add_argument("--eta", type=float)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--no-chain-check", action="store_true",
                       help="accept constant overrides that violate the recommended chain")

    p = command("construct", _exec_construct, "emit a named construction")
    graph_args(p, with_graph=False)
    fmt_arg(p, ("g6", "json"))

    p = command("trees", _exec_trees, "all non-isomorphic trees on t vertices")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--count", action="store_true")
    fmt_arg(p, ("g6", "json"))

    p = command("spectral", _exec_spectral, "spectral radius and Perron vector")
    graph_args(p)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iterations", type=int, default=DEFAULT_MAX_ITERATIONS)
    p.add_argument("--with-vector", action="store_true")
    fmt_arg(p, ("json", "table"))

    p = command("classify", _exec_classify, "weight classes of the Perron vector")
    graph_args(p, own=("k",))
    p.add_argument("--k", type=int, required=True,
                   help="weight-class parameter; doubles as the family k for --family")
    constants_args(p)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    fmt_arg(p, ("json", "table"))

    p = command("contains", _exec_contains, "decide tree containment")
    graph_args(p)
    p.add_argument("--tree", required=True, help="graph6 of the tree (or file / -)")
    fmt_arg(p, ("json", "table"))

    p = command("membership", _exec_membership, "does the graph miss a tree of the family")
    graph_args(p, own=("t",))
    p.add_argument("--t", type=int, required=True, help="tree order of the family")
    fmt_arg(p, ("json", "table"))

    p = command("embed-lemma", _exec_embed_lemma, "constructive embedding into a bipartite host")
    p.add_argument("--tree", required=True)
    p.add_argument("--target", required=True, choices=_TARGETS)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    fmt_arg(p, ("json", "table"))

    p = command("spex", _exec_spex, "brute-force spectral Turan search")
    search_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--prime", action="store_true")
    p.add_argument("--connected-only", action="store_true")

    p = command("ex", _exec_ex, "brute-force edge Turan search")
    search_args(p)
    p.add_argument("--tree", required=True)

    p = command("audit", _exec_audit, "recompute the structural inequalities")
    graph_args(p, own=("k",))
    p.add_argument("--k", type=int, required=True,
                   help="class parameter; doubles as the family k for --family")
    constants_args(p)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    fmt_arg(p, ("jsonl", "table"))

    p = command("enumerate", _exec_enumerate, "one graph per isomorphism class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--connected-only", action="store_true")
    p.add_argument("--count", action="store_true")
    fmt_arg(p, ("g6", "json"))

    return parser


def _read_graph_arg(value: str) -> Graph:
    try:
        if value == "-":
            text = sys.stdin.read()
        elif os.path.isfile(value):
            with open(value, "r", encoding="ascii") as fh:
                text = fh.read()
        else:
            text = value
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read {value}: {exc}") from None
    g = next(graph6.read_lines(text), None)
    if g is None:
        raise ParameterError("no graph6 data found in input")
    return g


def _resolve_graph(ns) -> Graph:
    """The input graph; a family-parameter flag it does not read is refused.

    ``construct`` refuses one the family does not take; the subcommand's
    own --k or --t is passed on only when the family reads it.
    """
    if ns.family is None:
        extra = [f"--{name}" for name in ns.graph_params if getattr(ns, name) is not None]
        if extra:
            raise UsageError(f"--graph does not take {', '.join(extra)}")
        return _read_graph_arg(ns.graph)
    names = (*ns.graph_params, *family_parameters(ns.family))
    return construct(ns.family, **{name: getattr(ns, name) for name in names})


def _resolve_constants(ns):
    c = constants_with(ns.k, eta=ns.eta, epsilon=ns.epsilon, alpha=ns.alpha)
    if not c.satisfies_chain and not ns.no_chain_check:
        raise UsageError(
            "constant overrides violate the recommended chain; pass --no-chain-check to proceed"
        )
    return c


def _table(payload: dict, indent: str = "") -> str:
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_table(value, indent + "  "))
        elif isinstance(value, (list, tuple)):
            shown = " ".join(fmt_num(v) for v in value) if all(
                not isinstance(v, (dict, list, tuple)) for v in value
            ) else json.dumps(_round_floats(value))
            lines.append(f"{indent}{key}: {shown}")
        else:
            lines.append(f"{indent}{key}: {fmt_num(value)}")
    return "\n".join(lines)


def _emit(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return dump_json(payload)
    return _table(payload) + "\n"


def execute(argv: list[str], out=None) -> int:
    """Parse and run argv; prints nothing until the computation fully succeeded."""
    ns = _build_parser().parse_args(argv)
    text = ns.run(ns)
    if ns.out_path:
        try:
            with open(ns.out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"cannot write {ns.out_path}: {exc.strerror}") from None
    else:
        (out or sys.stdout).write(text)
    return 0


def _exec_construct(ns) -> str:
    g = _resolve_graph(ns)
    if ns.fmt == "g6":
        return graph6.encode(g) + "\n"
    payload = {
        "family": ns.family,
        "graph6": graph6.encode(g),
        "n": g.n,
        "edges": g.edge_count,
        "degrees": list(g.degrees()),
    }
    return dump_json(payload)


def _exec_trees(ns) -> str:
    fam = generate_trees(ns.t)
    if ns.count:
        return f"{len(fam)}\n"
    if ns.fmt == "g6":
        return graph6.write_lines(t.graph for t in fam)
    payload = {
        "t": fam.t,
        "count": len(fam),
        "graphs": [graph6.encode(t.graph) for t in fam],
        "bipartitions": [list(bipartition(t)) for t in fam],
    }
    return dump_json(payload)


def _exec_spectral(ns) -> str:
    g = _resolve_graph(ns)
    p = spectral_radius(g, tol=ns.tol, max_iterations=ns.max_iterations)
    payload = {
        "n": g.n,
        "radius": p.radius,
        "residual": p.residual,
        "z": p.z,
        "vector": list(p.vector) if ns.with_vector else None,
    }
    return _emit(payload, ns.fmt)


def _exec_classify(ns) -> str:
    c = _resolve_constants(ns)
    g = _resolve_graph(ns)
    p = spectral_radius(g, tol=ns.tol)
    part = asdict(classify_vertices(g, p, c))
    sizes = {name: len(members) for name, members in part.items()}
    payload = {"constants": asdict(c), "sizes": sizes, **part}
    return _emit(payload, ns.fmt)


def _read_tree_arg(value: str):
    return tree_from_graph(_read_graph_arg(value))


def _exec_contains(ns) -> str:
    g = _resolve_graph(ns)
    tree = _read_tree_arg(ns.tree)
    emb = contains_tree(g, tree)
    payload = {
        "contained": emb is not None,
        "embedding": list(emb.mapping) if emb else None,
    }
    return _emit(payload, ns.fmt)


def _exec_membership(ns) -> str:
    if ns.family is not None and "t" in family_parameters(ns.family):
        raise UsageError(f"--t is the tree order, not the size of {ns.family}; "
                         "pass the host with --graph")
    check_order(ns.t)
    g = _resolve_graph(ns)
    fam = generate_trees(ns.t)
    m = family_membership(g, fam)
    payload = {
        "t": fam.t,
        "family_size": len(fam),
        "in_family": m.in_family,
        "witness_index": m.witness_index,
        "witness_graph6": graph6.encode(m.witness.graph) if m.witness else None,
    }
    return _emit(payload, ns.fmt)


def _exec_embed_lemma(ns) -> str:
    tree = _read_tree_arg(ns.tree)
    emb, case = constructive_with_case(tree, ns.target, ns.a, ns.b)
    payload = {
        "target": ns.target,
        "a": ns.a,
        "b": ns.b,
        "case": case,
        "embedding": list(emb.mapping),
    }
    return _emit(payload, ns.fmt)


def _report_text(report, fmt: str) -> str:
    if fmt == "csv":
        cmp = report.comparison
        row = (report.n, report.k, report.best_value,
               cmp.get("closed_form"), cmp.get("argmax_is_reference"))
        return "n,k,best_value,closed_form,isomorphic_to_reference\n" + ",".join(
            fmt_num(v) for v in row) + "\n"
    if fmt == "g6":
        return "".join(s + "\n" for s in report.argmax)
    return _emit(report.to_dict(), fmt)


def _exec_spex(ns) -> str:
    report = spex_search(
        ns.n, ns.k, ns.prime,
        connected_only=ns.connected_only,
        prune=not ns.ground_truth,
        workers=ns.workers,
    )
    return _report_text(report, ns.fmt)


def _exec_ex(ns) -> str:
    tree = _read_tree_arg(ns.tree)
    report = ex_search(
        ns.n, tree,
        prune=not ns.ground_truth,
        workers=ns.workers,
    )
    return _report_text(report, ns.fmt)


def _exec_audit(ns) -> str:
    c = _resolve_constants(ns)
    g = _resolve_graph(ns)
    p = spectral_radius(g, tol=ns.tol)
    report = audit_extremal_lemmas(g, c, p, tol=ns.tol)
    if ns.fmt == "jsonl":
        return "".join(
            json.dumps(_round_floats(e), sort_keys=True) + "\n" for e in report.to_dicts()
        )
    width = max(len(e.lemma) for e in report.entries)
    lines = [
        f"{e.lemma:<{width}}  {'pass' if e.passed else 'FAIL'}  "
        f"margin={'-' if e.margin is None else fmt_num(e.margin)}  {e.inequality}"
        for e in report.entries
    ]
    return "\n".join(lines) + "\n"


def _exec_enumerate(ns) -> str:
    stream = enumerate_graphs(ns.n, ns.connected_only)
    if ns.count:
        return f"{sum(1 for _ in stream)}\n"
    codes = [graph6.encode(g) for g in stream]
    if ns.fmt == "g6":
        return "".join(s + "\n" for s in codes)
    payload = {
        "n": ns.n,
        "connected_only": ns.connected_only,
        "count": len(codes),
        "graphs": codes,
    }
    return dump_json(payload)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return execute(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except SpexlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
