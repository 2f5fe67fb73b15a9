import argparse
import hashlib
import io
import json
import random
import re
import shlex
import string
import sys
from pathlib import Path

import pytest

from spexlab import cli
from spexlab.cli import _build_parser, dump_json, execute, main
from spexlab.errors import UsageError
from spexlab.graph6 import encode
from spexlab.graphs import complete_split, cycle, path_graph
from spexlab.schemas import validate_output
from spexlab.spectral import DENSE_LIMIT


def run_cli(argv):
    out = io.StringIO()
    code = execute(argv, out=out)
    return code, out.getvalue()


def test_construct_plan_example():
    ns = _build_parser().parse_args(
        ["construct", "--family", "S", "--n", "5", "--k", "2", "--out", "g6"])
    assert ns.run is cli._exec_construct
    assert ns.fmt == "g6"
    assert ns.family == "S"


def test_construct_emits_one_graph6_line():
    code, text = run_cli(["construct", "--family", "S", "--n", "5", "--k", "2", "--out", "g6"])
    assert code == 0
    assert text == encode(complete_split(5, 2)) + "\n"


def test_construct_json_schema():
    _, text = run_cli(["construct", "--family", "K_matching", "--a", "2", "--b", "6", "--format", "json"])
    payload = json.loads(text)
    validate_output("construct", payload)
    assert payload["edges"] == 14


def test_spex_plan_and_usage_error(capsys):
    ns = _build_parser().parse_args(["spex", "--n", "9", "--k", "2"])
    assert ns.run is cli._exec_spex and ns.n == 9
    assert main(["spex", "--n", "9", "--k", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs n >= 12" in captured.err


def test_trees_count():
    code, text = run_cli(["trees", "--t", "6", "--count"])
    assert code == 0 and text == "6\n"


def test_trees_json_schema():
    _, text = run_cli(["trees", "--t", "5", "--format", "json"])
    payload = json.loads(text)
    validate_output("trees", payload)
    assert payload["count"] == 3


def test_spectral_json():
    g6 = encode(complete_split(12, 2))
    code, text = run_cli(["spectral", "--graph", g6, "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    validate_output("spectral", payload)
    assert payload["radius"] == pytest.approx(5.0, abs=1e-9)
    assert payload["vector"] is None
    _, text = run_cli(["spectral", "--graph", g6, "--with-vector", "--format", "json"])
    payload = json.loads(text)
    validate_output("spectral", payload)
    assert len(payload["vector"]) == 12


def test_spectral_accepts_family_flags():
    _, a = run_cli(["spectral", "--graph", encode(complete_split(30, 2)), "--format", "json"])
    _, b = run_cli(["spectral", "--family", "S", "--n", "30", "--k", "2", "--format", "json"])
    assert a == b
    assert json.loads(a)["radius"] == pytest.approx(8.0, abs=1e-9)


def test_classify_json_schema():
    _, text = run_cli([
        "classify", "--family", "S", "--n", "12", "--k", "2",
        "--eta", "0.5", "--no-chain-check", "--format", "json",
    ])
    payload = json.loads(text)
    validate_output("classify", payload)
    assert payload["top"] == [0, 1]
    assert payload["sizes"]["exceptional"] == 0
    assert not payload["constants"]["satisfies_chain"]


def test_chain_violating_overrides_need_flag():
    with pytest.raises(UsageError):
        run_cli(["classify", "--family", "S", "--n", "12", "--k", "2", "--eta", "0.5"])


def test_contains_json():
    host = encode(complete_split(30, 2))
    p6 = encode(path_graph(6))
    _, text = run_cli(["contains", "--graph", host, "--tree", p6, "--format", "json"])
    payload = json.loads(text)
    validate_output("contains", payload)
    assert payload == {"contained": False, "embedding": None}
    p5 = encode(path_graph(5))
    _, text = run_cli(["contains", "--graph", host, "--tree", p5, "--format", "json"])
    payload = json.loads(text)
    validate_output("contains", payload)
    assert payload["contained"] and len(payload["embedding"]) == 5


def test_membership_json():
    _, text = run_cli([
        "membership", "--family", "S", "--n", "9", "--k", "2", "--t", "6", "--format", "json",
    ])
    payload = json.loads(text)
    validate_output("membership", payload)
    assert payload["in_family"] and payload["witness_index"] == 0


def test_embed_lemma_json():
    p6 = encode(path_graph(6))
    _, text = run_cli([
        "embed-lemma", "--tree", p6, "--target", "K_plus", "--a", "2", "--b", "5",
        "--format", "json",
    ])
    payload = json.loads(text)
    validate_output("embed-lemma", payload)
    assert payload["case"] == "leaf"
    assert len(payload["embedding"]) == 6


def test_embed_lemma_targets_are_the_embed_targets(capsys):
    from spexlab import embed

    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (target,) = [a for a in sub.choices["embed-lemma"]._actions if a.dest == "target"]
    assert tuple(target.choices) == embed._TARGETS
    p6 = encode(path_graph(6))
    assert main(["embed-lemma", "--tree", p6, "--target", "K_star", "--a", "2", "--b", "5"]) == 2
    assert capsys.readouterr().err == (
        "usage error: argument --target: invalid choice: 'K_star' "
        "(choose from 'K', 'K_plus', 'K_path', 'K_matching')\n"
    )


def test_ex_json_schema_and_csv():
    p4 = encode(path_graph(4))
    _, text = run_cli(["ex", "--n", "6", "--tree", p4, "--format", "json"])
    payload = json.loads(text)
    validate_output("ex", payload)
    assert payload["best_value"] == 6
    _, csv = run_cli(["ex", "--n", "6", "--tree", p4, "--format", "csv"])
    assert csv.splitlines()[0] == "n,k,best_value,closed_form,isomorphic_to_reference"


def test_spex_json_schema_and_g6():
    _, text = run_cli(["spex", "--n", "6", "--k", "2", "--format", "json"])
    payload = json.loads(text)
    validate_output("spex", payload)
    assert payload["best_value"] == pytest.approx(4.0, abs=1e-9)
    _, g6 = run_cli(["spex", "--n", "6", "--k", "2", "--format", "g6"])
    assert g6.splitlines() == list(payload["argmax"])


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["spex", "--n", "8", "--k", "2", "--format", "csv"],
         "aff0a3df1e2c5a7b910a2b1dccec54eb7fdd8f4f8cfb77710a659c389c0dff06"),
        (["spex", "--n", "8", "--k", "2", "--format", "table"],
         "2cc9df86ca28412d915a57e50c04d43f301639d9e5c002b2e7c6f8a6a5c692ff"),
        (["ex", "--n", "8", "--tree", "DhG", "--format", "csv"],
         "50bb0fd2d86b1bbe449539818aeb4ba5954441cdd78eee83bd362a4ed9f5098e"),
        (["ex", "--n", "8", "--tree", "DhG", "--format", "table"],
         "54e12b28cd9d73c195b5db3cc2dd2d13ec22d1608d35d8aee2108f94cb1deb66"),
    ],
)
def test_search_text_formats_pinned(argv, digest):
    _, text = run_cli(argv + ["--workers", "1"])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_audit_json_lines():
    _, text = run_cli(["audit", "--family", "S", "--n", "40", "--k", "2", "--format", "jsonl"])
    lines = text.splitlines()
    assert len(lines) == 18
    for line in lines:
        validate_output("audit-entry", json.loads(line))
    by_lemma = {json.loads(line)["lemma"]: json.loads(line) for line in lines}
    assert by_lemma["exceptional-empty"]["pass"]
    assert by_lemma["common-neighborhood-edges"]["pass"]
    assert by_lemma["neighborhood-weight-floor"]["pass"]
    # with default constants the very-large threshold only separates the
    # clique from the independent part for n in the thousands; at n = 40
    # every vertex clears it and the size check reports the miss as data
    assert by_lemma["top-weight-size"]["margin"] == 38.0
    assert not by_lemma["top-weight-size"]["pass"]


# sha256 of the audit at large n, where the weight classes are long masks
@pytest.mark.parametrize(
    "argv,digest",
    [
        (["--family", "S", "--n", "100000", "--k", "2", "--format", "jsonl"],
         "9d551a07060d215864d974a3a455b0077bdf38467d1d8eaf9c26e44016ea4aa6"),
        (["--family", "S_plus", "--n", "100000", "--k", "2", "--format", "jsonl"],
         "15f8d070c9df53b1458a1289769ad31e3e69d311e1aa453ed78b0de7cf7a0b10"),
        (["--family", "K_plus", "--a", "2", "--b", "400", "--k", "2", "--format", "table"],
         "ec8e095125a9ab0009b70a5e6c6cbc3e5811b711a4b8f11d67b06c8bfd0ab70d"),
    ],
)
def test_audit_at_large_n_pinned(argv, digest):
    _, text = run_cli(["audit"] + argv)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_enumerate_count_and_json():
    code, text = run_cli(["enumerate", "--n", "6", "--count"])
    assert code == 0 and text == "156\n"
    _, text = run_cli(["enumerate", "--n", "4", "--format", "json"])
    payload = json.loads(text)
    validate_output("enumerate", payload)
    assert payload["count"] == 11 and len(payload["graphs"]) == 11


def test_exit_codes(capsys):
    assert main(["spex", "--n", "9", "--k", "5"]) == 2
    # tolerances and budgets that cannot be met are refused before any step
    for bad in (["--tol", "nan"], ["--tol", "inf"], ["--tol", "0"],
                ["--max-iterations", "0"], ["--max-iterations", "-5"]):
        capsys.readouterr()
        assert main(["spectral", "--family", "S", "--n", "6", "--k", "2"] + bad) == 2
        assert capsys.readouterr().out == ""
    assert main(["nonsense"]) == 2
    assert main([]) == 2
    assert main(["spectral", "--graph", "Bw", "--max-iterations", "3",
                 "--format", "json"]) in (0, 3)
    # a twin-free path above the dense limit starts from all ones and needs
    # many more than 2 iterations at tol 1e-12
    assert main(["spectral", "--family", "path", "--t", str(DENSE_LIMIT + 1),
                 "--max-iterations", "2", "--format", "json"]) == 3
    assert main(["contains", "--graph", "Bw", "--tree", "Bw"]) == 2  # not a tree


def test_negative_workers_is_a_usage_error(capsys):
    assert main(["spex", "--n", "6", "--k", "2", "--workers", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "workers must be at least 1" in captured.err


P4 = encode(path_graph(4))


# the second column, when given, is the text fed to standard input
@pytest.mark.parametrize(
    "argv,stdin",
    [
        (["trees", "--t", "0"], None),
        (["trees", "--t", "17", "--count"], None),
        (["membership", "--family", "S", "--n", "9", "--k", "2", "--t", "17"], None),
        (["enumerate", "--n", "0"], None),
        (["enumerate", "--n", "11", "--count"], None),
        (["spex", "--n", "6", "--k", "1"], None),
        (["spex", "--n", "9", "--k", "5"], None),
        (["spex", "--n", "11", "--k", "2"], None),
        (["spex", "--n", "11", "--k", "2", "--prime"], None),
        (["ex", "--n", "1", "--tree", P4], None),
        (["ex", "--n", "11", "--tree", P4], None),
        (["spex", "--n", "6", "--k", "2", "--workers", "-1"], None),
        (["ex", "--n", "6", "--tree", P4, "--workers", "-1"], None),
        (["spex", "--n", "6", "--k", "2", "--split-depth", "2"], None),
        (["construct", "--graph", "D~{", "--family", "S", "--n", "5", "--k", "2",
          "--format", "json"], None),
        (["spectral", "--graph", "-"], "abc"),
        (["ex", "--n", "6", "--tree", "-"], "0"),
        (["classify", "--family", "S", "--n", "12", "--k", "1"], None),
        (["audit", "--family", "S", "--n", "12", "--k", "1"], None),
        (["embed-lemma", "--tree", "@", "--target", "K", "--a", "0", "--b", "0"], None),
        # I/O failures; {tmp} is a directory holding a non-ASCII file latin1.g6
        (["construct", "--family", "S", "--n", "5", "--k", "2", "--output", "{tmp}"], None),
        (["construct", "--family", "S", "--n", "5", "--k", "2",
          "--output", "{tmp}/missing/out.g6"], None),
        (["spectral", "--graph", "{tmp}/latin1.g6"], None),
        (["ex", "--n", "6", "--tree", "{tmp}/latin1.g6"], None),
        # non-finite constant overrides
        (["classify", "--family", "S", "--n", "10", "--k", "2", "--eta", "nan",
          "--no-chain-check"], None),
        (["audit", "--family", "S", "--n", "10", "--k", "2", "--alpha", "inf",
          "--no-chain-check"], None),
        # family parameters that the input does not read
        (["construct", "--family", "K", "--a", "2", "--b", "3", "--n", "5"], None),
        (["spectral", "--family", "path", "--t", "5", "--n", "9"], None),
        (["spectral", "--graph", "A_", "--n", "7"], None),
        (["membership", "--family", "cycle", "--t", "6"], None),
    ],
)
def test_out_of_range_inputs_are_refused(argv, stdin, monkeypatch, capsys, tmp_path):
    (tmp_path / "latin1.g6").write_bytes("Bw \u00e9\n".encode("latin-1"))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert "Traceback" not in captured.err


def test_membership_refuses_a_bad_graph_before_building_the_family(monkeypatch, capsys):
    def no_family(t):
        raise AssertionError("the tree family was built")

    monkeypatch.setattr(cli, "generate_trees", no_family)
    assert main(["membership", "--graph", "???", "--t", "16"]) == 2
    assert capsys.readouterr().out == ""


class _Terminal(io.StringIO):
    def isatty(self):
        return True


# each subcommand's default format (piped, on a terminal)
@pytest.mark.parametrize(
    "argv,piped,terminal",
    [
        (["construct", "--family", "S", "--n", "5", "--k", "2"], "g6", "g6"),
        (["trees", "--t", "5"], "g6", "g6"),
        (["spectral", "--family", "S", "--n", "6", "--k", "2"], "json", "table"),
        (["classify", "--family", "S", "--n", "6", "--k", "2"], "json", "table"),
        (["contains", "--family", "S", "--n", "6", "--k", "2", "--tree", P4], "json", "table"),
        (["membership", "--family", "S", "--n", "6", "--k", "2", "--t", "5"], "json", "table"),
        (["embed-lemma", "--tree", P4, "--target", "K", "--a", "2", "--b", "3"], "json", "table"),
        (["spex", "--n", "6", "--k", "2", "--workers", "1"], "json", "table"),
        (["ex", "--n", "5", "--tree", P4, "--workers", "1"], "json", "table"),
        (["audit", "--family", "S", "--n", "6", "--k", "2"], "jsonl", "table"),
        (["enumerate", "--n", "3"], "g6", "g6"),
    ],
)
def test_default_formats(argv, piped, terminal, monkeypatch):
    def output(args, stdout):
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(args) == 0
        return stdout.getvalue()

    assert output(argv, io.StringIO()) == output(argv + ["--format", piped], io.StringIO())
    assert output(argv, _Terminal()) == output(argv + ["--format", terminal], io.StringIO())


@pytest.mark.parametrize(
    "graph,digests",
    [
        (["--family", "S", "--n", "12", "--k", "2"],
         ("1d6b92db9e49d4ab5a6c1602cf7bea6c09a93a22f039f984b929446a78ea0850",
          "2a33a16fec9af5f2388fdc7c0dbabc848e0206664d02a6a745a889602d14e46f")),
        (["--family", "S_plus", "--n", "400", "--k", "3"],
         ("b882b89de3ba600cb30aef3ee8b877fd3e81335434ab866a384547e3c6698c52",
          "cb3dbfcfcf8b0de951ef8bfb5430afd0f392de9913057b6f83d23ea07e62e641")),
        (["--family", "cycle", "--t", "9", "--k", "2"],
         ("88fb54489548c6d91b4a59166e606142454719764871862b4262a19a89a2d481",
          "766c35e18ee18db7d561a117081011c47e90b97cd9322ed59031e384b2bd40c9")),
        (["--family", "K_plus", "--a", "2", "--b", "40", "--k", "2"],
         ("6756e486f150c7a101ceafedcdbbddf3c05dde942a98444388b60ad18e9bee75",
          "33f7b916eb6e26b15f133ab8793eb159a449ec4bf4aa80508b8c9769a8c2375c")),
    ],
)
def test_classify_output_pinned(graph, digests):
    argv = ["classify"] + graph + ["--eta", "0.5", "--no-chain-check", "--format"]
    for fmt, digest in zip(("json", "table"), digests):
        _, text = run_cli(argv + [fmt])
        assert hashlib.sha256(text.encode()).hexdigest() == digest


P5, P6, P7 = (encode(path_graph(t)) for t in (5, 6, 7))
EMPTY = hashlib.sha256(b"").hexdigest()


# exit code and stdout sha256 of each subcommand in each declared format,
# and of inputs the command line refuses
@pytest.mark.parametrize(
    "argv,code,digest",
    [
        (["construct", "--family", "S_plus", "--n", "9", "--k", "2", "--format", "g6"], 0,
         "c6dd177169bbcbebde28d7dd0c76f30731daec9047d8b690f2f54973d071b44f"),
        (["construct", "--family", "S_plus", "--n", "9", "--k", "2", "--format", "json"], 0,
         "fcf71a311754efd5a91a64436d1ec11651037bea891d0f08c8b4d3c3f9efd082"),
        (["construct", "--family", "K_path", "--a", "2", "--b", "6", "--format", "json"], 0,
         "af94f9b685cb107fabe794361f8af8541b6ebac813afc761720418cf6ba87f12"),
        (["trees", "--t", "7", "--format", "g6"], 0,
         "664030d1d264fc55b580533577cff21abf27014d4189c318d520818e57d72290"),
        (["trees", "--t", "7", "--format", "json"], 0,
         "b027c225ea819130829ac224af51aed6a46ac07ae9468f68967185b803afd3d3"),
        (["trees", "--t", "10", "--count"], 0,
         "79f0cdc11a64b21e76816c25cc0d066a873134770fba891b54e01445c2620c4c"),
        (["spectral", "--family", "S_plus", "--n", "20", "--k", "3", "--with-vector",
          "--format", "json"], 0,
         "04de397cd13a960e97919648a1f17e6e74ac54fa38cc4204fc20888b81795b77"),
        (["spectral", "--family", "S_plus", "--n", "20", "--k", "3", "--format", "table"], 0,
         "a59da413003825fd78216f27d0f9b60a14dc40fb2fc82d3964f52794e8394ee3"),
        (["spectral", "--graph", encode(cycle(7)), "--format", "json"], 0,
         "d241ea3ef6f7a95834e9678d0d458618f9c19cebdfe290cde63deddf06d3fc88"),
        (["contains", "--family", "S", "--n", "12", "--k", "2", "--tree", P5, "--format", "json"], 0,
         "77dcde0a7d92f9f1614cf7407027a085bba07e514485bf24bb10246f1b6e070d"),
        (["contains", "--family", "S", "--n", "12", "--k", "2", "--tree", P5, "--format", "table"], 0,
         "60349d15a3656cd59a86279c4ca705248bbd17a42c19b086a8d83176e629a53f"),
        (["contains", "--family", "S", "--n", "12", "--k", "2", "--tree", P6, "--format", "json"], 0,
         "74292afc0f9d5c7231c5317b5c6e15d4d6ed706529ce26172e36afac6cc0dc6b"),
        (["membership", "--family", "S_plus", "--n", "11", "--k", "2", "--t", "7",
          "--format", "json"], 0,
         "b43e1f47e598d41a0a0dc2094a984615097b9045b44f133d718ef3fa2f663bac"),
        (["membership", "--family", "S_plus", "--n", "11", "--k", "2", "--t", "7",
          "--format", "table"], 0,
         "100d445e4725289b07ddc976ab8e92489f8816f9a788f395456f13c5e67e0351"),
        (["membership", "--graph", encode(complete_split(9, 2)), "--t", "5", "--format", "json"], 0,
         "63f7ac393a62f0e11b85dd0cda8a97a08eec443088c307992eb162eb4fe740e2"),
        (["embed-lemma", "--tree", P6, "--target", "K_plus", "--a", "2", "--b", "5",
          "--format", "json"], 0,
         "d19482395ed98667df949d75d0d730d82b66d50eba628be9c8003693ea0c7aa8"),
        (["embed-lemma", "--tree", P6, "--target", "K_plus", "--a", "2", "--b", "5",
          "--format", "table"], 0,
         "aa6e8c143cd67ded32030bdae73bbd653dee05a205a173a962e88fa066c05aac"),
        (["embed-lemma", "--tree", P7, "--target", "K_path", "--a", "2", "--b", "6",
          "--format", "json"], 0,
         "c8e7d482a904f01e09b0732ebfc726eba4eb92ae332e6961311cd66dbdebaba2"),
        (["embed-lemma", "--tree", P7, "--target", "K_matching", "--a", "2", "--b", "6",
          "--format", "json"], 0,
         "d51e85e26abb906e90d1bf62e47e8f208cc4663d72bb2ad56bb2d91e03aef68e"),
        (["embed-lemma", "--tree", P7, "--target", "K", "--a", "3", "--b", "6",
          "--format", "json"], 0,
         "946ed0cc2c78826302f904c474cdc5287e3ea61786743416cfeb68b1295695e9"),
        (["enumerate", "--n", "5", "--format", "g6"], 0,
         "76982d69432521ef6849d2bc13501ff53d36ac2d5cb02e4d4316ecec253d6e6a"),
        (["enumerate", "--n", "5", "--format", "json"], 0,
         "0a7759eb1ef1c755f00d037b6eb0d441bf05d54b82d2ab0c86dcb5f2725c521e"),
        (["enumerate", "--n", "6", "--connected-only", "--count"], 0,
         "f7dbab4769334b25f2b4c0606fef276da29bc7477cc15f51f0967a6e477e7c94"),
        ([], 2, EMPTY),
        (["nonsense"], 2, EMPTY),
        (["spectral", "--format", "json"], 2, EMPTY),
        (["spectral", "--graph", "Bw", "--family", "S", "--n", "5", "--k", "2"], 2, EMPTY),
        (["construct", "--n", "5", "--k", "2"], 2, EMPTY),
        (["construct", "--graph", "Bw"], 2, EMPTY),
        (["embed-lemma", "--tree", "@", "--target", "K", "--a", "0", "--b", "0"], 2, EMPTY),
        (["contains", "--graph", "Bw", "--tree", "Bw"], 2, EMPTY),
        (["spectral", "--graph", "???"], 2, EMPTY),
        (["trees", "--t", "x"], 2, EMPTY),
        (["enumerate", "--n", "5", "--format", "csv"], 2, EMPTY),
        (["membership", "--graph", "Bw"], 2, EMPTY),
    ],
)
def test_cli_output_pinned(argv, code, digest, capsys):
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("spexlab ")]
    assert len(lines) == 11
    for line in lines:
        line = re.sub(r"<g6[^>]*>", P6, line)
        _build_parser().parse_args(shlex.split(line)[1:])


def test_parse_args_is_total():
    rng = random.Random(1)
    vocabulary = [
        "construct", "spex", "--n", "--k", "--graph", "--format", "json", "g6",
        "trees", "--t", "oops", "-5", "--", "audit", "enumerate", "--workers",
    ]
    for _ in range(300):
        argv = [rng.choice(vocabulary) for _ in range(rng.randint(0, 6))]
        argv += ["".join(rng.choice(string.printable[:70]) for _ in range(rng.randint(0, 8)))]
        try:
            _build_parser().parse_args(argv)
        except UsageError:
            pass


def test_byte_identical_reruns():
    argv = ["spex", "--n", "6", "--k", "2", "--format", "json"]
    assert run_cli(argv)[1] == run_cli(argv)[1]
    argv = ["audit", "--family", "S", "--n", "30", "--k", "3", "--format", "jsonl"]
    assert run_cli(argv)[1] == run_cli(argv)[1]


def test_twelve_significant_digits():
    _, text = run_cli(["spectral", "--graph", encode(complete_split(6, 2)), "--format", "json"])
    payload = json.loads(text)
    # (1 + sqrt(33)) / 2 to 12 significant digits
    assert abs(payload["radius"] - 3.37228132327) < 5e-12


def test_output_to_file(tmp_path):
    target = tmp_path / "out.g6"
    code, text = run_cli([
        "construct", "--family", "S", "--n", "5", "--k", "2", "--output", str(target)
    ])
    assert code == 0 and text == ""
    assert target.read_text() == encode(complete_split(5, 2)) + "\n"


def test_graph_argument_from_file(tmp_path):
    target = tmp_path / "in.g6"
    target.write_text(encode(complete_split(12, 2)) + "\n")
    _, text = run_cli(["spectral", "--graph", str(target), "--format", "json"])
    assert json.loads(text)["radius"] == pytest.approx(5.0, abs=1e-9)


def test_dump_json_rounds_floats():
    text = dump_json({"x": 3.3722813232690143, "y": [1.0, 0.5]})
    assert '"x": 3.37228132327' in text


def test_table_format():
    _, text = run_cli(["spectral", "--family", "S", "--n", "12", "--k", "2", "--format", "table"])
    assert "radius: 5" in text
    assert "residual:" in text
    _, text = run_cli(["audit", "--family", "S", "--n", "30", "--k", "2", "--format", "table"])
    assert "top-weight-size" in text and ("pass" in text or "FAIL" in text)


def test_trees_g6_lines_parse_back():
    _, text = run_cli(["trees", "--t", "6"])
    from spexlab.graph6 import decode as g6decode

    graphs = [g6decode(line) for line in text.splitlines()]
    assert len(graphs) == 6
    assert all(g.n == 6 and g.edge_count == 5 for g in graphs)


def test_spex_csv_row():
    _, text = run_cli(["spex", "--n", "6", "--k", "2", "--format", "csv"])
    header, row = text.splitlines()
    fields = row.split(",")
    assert fields[0] == "6" and fields[1] == "2"
    assert abs(float(fields[2]) - 4.0) < 1e-9
    assert fields[4] == "False"
