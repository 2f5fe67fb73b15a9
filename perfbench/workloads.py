"""The three benchmark workloads, their sizes, and their pinned outputs.

Each workload builds its inputs in ``setup`` (imports of the program included,
since every command-line user pays for them), runs one pass through the
program's public entry points in ``run_pass``, and judges a pass's output in
``check`` against values pinned here. ``setup`` is the only place the
program is imported, so the harness can time it.

Why these workloads (each stresses different layers, so a change to one
layer has a workload that exercises it and one that bypasses it):

* ``spex`` is search-bound: canonical accept tests and tree containment
  dominate, and the radius bound skips almost every eigensolve, so a
  spectral change should show no change here.
* ``census`` labels scrambled inputs canonically next to the orderly accept
  test and solves one small eigenproblem per class; it contains no tree
  containment, so an embed change should show nothing here.
* ``extremal`` builds tree families cold, embeds them constructively and by
  backtracking, and audits large structured hosts by dense power iteration;
  canon is idle, so a canon change should show nothing here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import types

# OEIS A000055: free trees on t vertices.
FREE_TREES = {6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551, 13: 1301, 14: 3159, 15: 7741}

# Residual ceiling promised by the default solver tolerance.
RESIDUAL_MAX = 1e-12

SIZES = {
    "bench": {
        "spex": {"n": 8, "k": 2},
        "census": {"n": 7},
        "extremal": {
            "ks": (2, 3, 4, 5),
            "audits": (
                ("S", {"n": 1000, "k": 2}),
                ("S_plus", {"n": 400, "k": 2}),
                ("K_plus", {"a": 2, "b": 400}),
                ("K_path", {"a": 2, "b": 400}),
                ("K_matching", {"a": 2, "b": 400}),
            ),
        },
    },
    "tiny": {
        "spex": {"n": 6, "k": 2},
        "census": {"n": 5},
        "extremal": {
            "ks": (2,),
            "audits": (
                ("S", {"n": 30, "k": 2}),
                ("S_plus", {"n": 20, "k": 2}),
                ("K_plus", {"a": 2, "b": 20}),
                ("K_path", {"a": 2, "b": 20}),
                ("K_matching", {"a": 2, "b": 20}),
            ),
        },
    },
}

# Outputs of the parent program, pinned so that any change in them fails the run.
_AUDIT_S = "PPPPFFFFFPPPPPPPFP"   # S and S_plus hosts: 18 audit entries, pass/fail
_AUDIT_K = "PPPPFFFFFPPPPPPFFP"   # K_plus, K_path, K_matching hosts
PINS = {
    "bench": {
        "spex": {
            "examined": 2863,
            "in_family": 2682,
            "best_value": 4.0,
            "reference_g6": "G}rEE?",
            "argmax": [
                "Gs`zro", "G}`Hxw", "G}hHg{", "G}hPW{", "G}hXw?", "G}lw??", "G}lw?C", "G}opW{",
                "G}oxw?", "G}rEE?", "G~`HW{", "G~{???", "G~{?G?", "G~{?GG", "G~{?GK",
            ],
        },
        "census": {
            "classes": 1044,
            "stream_sha256": "a871a6bf63ae3b4d20da7262c21133a636ab9bf80dbb46f985b934ed9d9c2fb1",
        },
        "extremal": {
            "audit_passes": {
                "S(1000,2)": _AUDIT_S, "S_plus(400,2)": _AUDIT_S, "K_plus(2,400)": _AUDIT_K,
                "K_path(2,400)": _AUDIT_K, "K_matching(2,400)": _AUDIT_K,
            },
        },
    },
    "tiny": {
        "spex": {
            "examined": 137,
            "in_family": 129,
            "best_value": 4.0,
            "reference_g6": "E}r?",
            "argmax": ["E}lw", "E~{?"],
        },
        "census": {
            "classes": 34,
            "stream_sha256": "76982d69432521ef6849d2bc13501ff53d36ac2d5cb02e4d4316ecec253d6e6a",
        },
        "extremal": {
            "audit_passes": {
                "S(30,2)": _AUDIT_S, "S_plus(20,2)": _AUDIT_S, "K_plus(2,20)": _AUDIT_K,
                "K_path(2,20)": _AUDIT_K, "K_matching(2,20)": _AUDIT_K,
            },
        },
    },
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    """Call the program's ``cli.main(argv)`` in process and capture its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def _import_program():
    """Import the program and collect the public functions the harness calls.

    The harness calls the program only through this namespace, so the tracer
    can wrap each function where the harness binds it.
    """
    from spexlab import canon, cli, embed, graph6, graphs, spectral, trees

    return types.SimpleNamespace(
        cli_main=cli.main,
        decode=graph6.decode,
        encode=graph6.encode,
        canonical_graph=canon.canonical_graph,
        spectral_radius=spectral.spectral_radius,
        generate_trees=trees.generate_trees,
        constructive_with_case=embed.constructive_with_case,
        contains_tree=embed.contains_tree,
        family_membership=embed.family_membership,
        construct=graphs.construct,
    )


def _embedding_ok(host, pattern, mapping) -> bool:
    """Independent check: injective, in range, and every pattern edge is a host edge."""
    if len(mapping) != pattern.n or len(set(mapping)) != pattern.n:
        return False
    if not all(0 <= v < host.n for v in mapping):
        return False
    return all(host.has_edge(mapping[u], mapping[v]) for u, v in pattern.edges())


class Workload:
    name = ""
    why = ""

    def __init__(self, size: str):
        self.size = size
        self.params = SIZES[size][self.name]
        self.pins = PINS[size][self.name]
        self.api = None

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self):
        raise NotImplementedError

    def items(self, out) -> int:
        raise NotImplementedError

    def hashes(self, out) -> dict:
        """sha256 of every command-line output of the pass, by label."""
        raise NotImplementedError

    def check(self, out) -> list[tuple[str, bool]]:
        raise NotImplementedError


class Spex(Workload):
    name = "spex"
    why = "search-bound: canonical accept tests and tree containment dominate; radius bound skips nearly every eigensolve"

    def setup(self, seed: int) -> None:
        self.api = _import_program()
        self.argv = self.argv_for(workers=1)

    def argv_for(self, workers: int) -> list[str]:
        p = self.params
        return ["spex", "--n", str(p["n"]), "--k", str(p["k"]), "--workers", str(workers), "--format", "json"]

    def run_pass(self):
        rc, text = run_cli(self.api.cli_main, self.argv)
        return {"rc": rc, "text": text}

    def items(self, out) -> int:
        return self.pins["examined"]

    def hashes(self, out) -> dict:
        return {"spex": sha256(out["text"])}

    def check(self, out) -> list[tuple[str, bool]]:
        pins = self.pins
        if out["rc"] != 0:
            return [("spex exit code", False)]
        report = json.loads(out["text"])
        cmp = report["comparison"]
        argmax = report["argmax"]
        return [
            ("spex exit code", True),
            ("spex classes examined", report["candidates_examined"] == pins["examined"]),
            ("spex classes in family", report["in_family_count"] == pins["in_family"]),
            ("spex argmax", argmax == pins["argmax"]),
            ("spex best value", abs(report["best_value"] - pins["best_value"]) <= 1e-9),
            ("spex reference g6", cmp["reference_g6"] == pins["reference_g6"]),
            ("spex argmax contains reference",
             cmp["argmax_contains_reference"] == (pins["reference_g6"] in pins["argmax"])),
            ("spex dominates closed form", cmp["dominates_closed_form"] is True),
        ]


class Census(Workload):
    name = "census"
    why = "canonical labelling of scrambled classes beside the orderly accept test, and one small eigensolve per class; no tree containment"

    def setup(self, seed: int) -> None:
        self.api = _import_program()
        n = self.params["n"]
        rng = random.Random(seed)
        self.perms = [tuple(rng.sample(range(n), n)) for _ in range(self.pins["classes"])]
        self.argv = ["enumerate", "--n", str(n)]

    def run_pass(self):
        api = self.api
        rc, text = run_cli(api.cli_main, self.argv)
        lines = text.split()
        graphs = [api.decode(line) for line in lines]
        perms = self.perms
        relabelled = [
            api.encode(api.canonical_graph(g.relabel(perms[i % len(perms)])))
            for i, g in enumerate(graphs)
        ]
        solves = [api.spectral_radius(g) for g in graphs]
        return {"rc": rc, "text": text, "lines": lines, "graphs": graphs,
                "relabelled": relabelled, "solves": solves}

    def items(self, out) -> int:
        return len(out["lines"])

    def hashes(self, out) -> dict:
        return {"enumerate": sha256(out["text"])}

    def check(self, out) -> list[tuple[str, bool]]:
        import numpy as np

        pins = self.pins
        checks = [
            ("census exit code", out["rc"] == 0),
            ("census class count", len(out["lines"]) == pins["classes"]),
            ("census stream hash", sha256(out["text"]) == pins["stream_sha256"]),
        ]
        for line, again in zip(out["lines"], out["relabelled"]):
            checks.append(("census relabelled class is canonical again", again == line))
        # oracle: LAPACK symmetric eigensolve of an adjacency matrix built here
        for g, solve in zip(out["graphs"], out["solves"]):
            adj = np.zeros((g.n, g.n))
            for u, v in g.edges():
                adj[u, v] = adj[v, u] = 1.0
            top = float(np.linalg.eigvalsh(adj)[-1])
            ok = solve.residual <= RESIDUAL_MAX and abs(solve.radius - top) <= 1e-9
            checks.append(("census radius and residual", ok))
        return checks


class Extremal(Workload):
    name = "extremal"
    why = "the paper's objects at scale: cold tree families, constructive and backtracking embeddings, dense power iteration in audits"

    def setup(self, seed: int) -> None:
        api = self.api = _import_program()
        self.ts = []
        self.embed_jobs = []   # (t, target, a, b, host)
        self.member_jobs = []  # (label, t, host)
        for k in self.params["ks"]:
            t, t_plus = 2 * k + 2, 2 * k + 3
            self.ts += [t, t_plus]
            self.embed_jobs.append((t, "K_plus", k, 2 * k + 1, api.construct("K_plus", a=k, b=2 * k + 1)))
            for target in ("K_path", "K_matching"):
                self.embed_jobs.append((t_plus, target, k, 2 * k + 2, api.construct(target, a=k, b=2 * k + 2)))
            self.member_jobs.append((f"S({4 * t},{k})", t, api.construct("S", n=4 * t, k=k)))
            self.member_jobs.append((f"S_plus({4 * t_plus},{k})", t_plus, api.construct("S_plus", n=4 * t_plus, k=k)))
        self.audits = []
        for family, params in self.params["audits"]:
            argv = ["audit", "--family", family]
            for key, value in params.items():
                argv += [f"--{key}", str(value)]
            if "k" not in params:
                argv += ["--k", "2"]
            label = f"{family}({','.join(str(v) for v in params.values())})"
            self.audits.append((label, argv))

    def run_pass(self):
        api = self.api
        families = {t: api.generate_trees(t) for t in self.ts}
        embeddings = []
        for t, target, a, b, host in self.embed_jobs:
            for tree in families[t]:
                emb, _ = api.constructive_with_case(tree, target, a, b)
                found = api.contains_tree(host, tree)
                embeddings.append((host, tree, emb.mapping, None if found is None else found.mapping))
        members = [(label, api.family_membership(host, families[t])) for label, t, host in self.member_jobs]
        audits = [(label,) + run_cli(api.cli_main, argv) for label, argv in self.audits]
        return {"families": families, "embeddings": embeddings, "members": members, "audits": audits}

    def items(self, out) -> int:
        return len(out["embeddings"]) + len(out["audits"])

    def hashes(self, out) -> dict:
        return {f"audit {label}": sha256(text) for label, _, text in out["audits"]}

    def check(self, out) -> list[tuple[str, bool]]:
        checks = [(f"extremal family size t={t}", len(fam) == FREE_TREES[t]) for t, fam in out["families"].items()]
        for host, tree, constructive, found in out["embeddings"]:
            checks.append(("extremal constructive embedding valid", _embedding_ok(host, tree.graph, constructive)))
            checks.append(("extremal contains_tree confirms", found is not None and _embedding_ok(host, tree.graph, found)))
        for label, m in out["members"]:
            checks.append((f"extremal {label} misses the path", m.in_family and m.witness_index == 0))
        for label, rc, text in out["audits"]:
            entries = [json.loads(line) for line in text.splitlines()] if rc == 0 else []
            passes = "".join("P" if e["pass"] else "F" for e in entries)
            checks.append((f"extremal audit {label}", rc == 0 and passes == self.pins["audit_passes"].get(label)))
            if label.startswith("S("):
                lower = next((e for e in entries if e["lemma"] == "radius-lower"), None)
                checks.append((f"extremal {label} radius is the closed form",
                               lower is not None and abs(lower["margin"]) <= 1e-9))
        return checks


WORKLOADS = {w.name: w for w in (Spex, Census, Extremal)}
