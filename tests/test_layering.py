"""Imports inside the package run one way, down the module layers."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import spexlab

PACKAGE = Path(spexlab.__file__).parent

# errors/schemas -> graphs -> graph6 -> canon/trees -> embed/spectral ->
# search -> cli -> __init__; a module may import only from a lower layer
LAYERS = (
    ("errors", "schemas"),
    ("graphs",),
    ("graph6",),
    ("canon", "trees"),
    ("embed", "spectral"),
    ("search",),
    ("cli",),
    ("__init__",),
)
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}


def _relative_imports(path: Path):
    """Modules a source file imports relatively, function-level imports included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(RANK)


def test_relative_imports_point_down():
    checked = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for target in _relative_imports(path):
            assert RANK[target] < RANK[path.stem], f"{path.stem} imports {target}"
            checked += 1
    assert checked >= 30


def test_importing_the_cli_leaves_jsonschema_unloaded():
    # jsonschema is imported only when an output is validated
    code = "import sys, spexlab.cli; print('jsonschema' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"
