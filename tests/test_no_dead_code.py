"""Every top-level function, class and constant in src/dyk3, and every
method of a top-level class other than a dunder method, is named somewhere
else.  Dunder names such as __all__ are exempt.

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


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, qualified name, node) for top-level definitions and constants,
    and the non-dunder methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _dunder(name.id):
                        yield name.id, name.id, node
        if not isinstance(node, _DEFS):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, _DEFS) and not _dunder(sub.name):
                    yield sub.name, f"{node.name}.{sub.name}", sub


def _unused_definitions():
    sites = _word_sites()
    unused = []
    for path in sorted((ROOT / "src" / "dyk3").glob("*.py")):
        for name, qualname, node in _definitions(ast.parse(path.read_text())):
            decorators = getattr(node, "decorator_list", [])
            first = min([node.lineno] + [d.lineno for d in decorators])
            own = range(first, node.end_lineno + 1)
            if all(p == path and line in own for p, line in sites[name]):
                unused.append(f"{path.name}:{node.lineno} {qualname}")
    return unused


def test_every_top_level_definition_is_used():
    assert _unused_definitions() == []
