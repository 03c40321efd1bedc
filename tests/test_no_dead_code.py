"""Every top-level function and class in src/dyk3 is named somewhere else.

A name counts as used when it appears as a word in any .py file under
src/, tests/ or perfbench/ outside the lines of its own definition.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "perfbench")


def _word_sites():
    """word -> [(path, line)] over every searched .py file."""
    sites = {}
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for m in re.finditer(r"\w+", line):
                    sites.setdefault(m.group(), []).append((path, lineno))
    return sites


def _unused_definitions():
    sites = _word_sites()
    unused = []
    for path in sorted((ROOT / "src" / "dyk3").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = range(first, node.end_lineno + 1)
            if all(p == path and line in own for p, line in sites[node.name]):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def test_every_top_level_definition_is_used():
    assert _unused_definitions() == []
