"""The runtime stays stdlib-only: every import in `src/recat` names the standard
library or `recat` itself, function-level imports included.  Today they are
argparse, dataclasses, fractions, functools, itertools, json, math, operator,
random, sys and typing."""

import ast
import sys
from pathlib import Path

import recat

SOURCES = sorted(Path(recat.__file__).parent.glob("*.py"))


def _top_level_imports(path):
    """The top-level module of every absolute import in the file; relative imports are recat's."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_import_is_stdlib_or_recat():
    assert SOURCES
    allowed = set(sys.stdlib_module_names) | {"recat"}
    foreign = {(p.name, m) for p in SOURCES for m in _top_level_imports(p) if m not in allowed}
    assert not foreign, f"imports outside the standard library: {sorted(foreign)}"

