"""Every top-level function, class and constant in src/dyk3, and every
method of a top-level class other than a dunder method, is named somewhere
else.  Dunder names such as __all__ are exempt.

A top-level name N of module M counts as used only where it is resolved to
M: as a word in M outside the lines of its own definition, in
`from .M import N` or `from dyk3.M import N` anywhere under src/, tests/ or
perfbench/, as `M.N` (M imported by `from dyk3 import M`, `from . import M`
or `import dyk3.M`, under any alias), or as a word in perfbench/, whose
workloads reach dyk3 through their own module objects.  A method counts as
used when its name appears as a word in any of those files outside the
lines of its own definition.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "perfbench")
PACKAGE = "src/dyk3/"


def _sources():
    """{path relative to the repository: text} of every searched .py file."""
    return {path.relative_to(ROOT).as_posix(): path.read_text()
            for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))}


def _words(text):
    """word -> [line] in one text."""
    sites = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        for m in re.finditer(r"\w+", line):
            sites.setdefault(m.group(), []).append(lineno)
    return sites


def _module_of(path):
    """The dyk3 module name of a source path, or None outside the package."""
    if path.startswith(PACKAGE) and "/" not in path[len(PACKAGE):]:
        return Path(path).stem
    return None


def _resolved_uses(tree, path):
    """(module, name) pairs that one file names through an import of the
    name from the module or an attribute of the imported module."""
    own_package = _module_of(path) is not None
    uses, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and own_package:
                module = node.module
            elif node.level == 0 and (node.module or "").startswith("dyk3."):
                module = node.module[len("dyk3."):]
            elif node.level == 0 and node.module == "dyk3":
                module = None
            else:
                continue
            for alias in node.names:
                if module is None:          # from dyk3 import M / from . import M
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    uses.add((module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("dyk3.") and alias.asname:
                    aliases[alias.asname] = alias.name[len("dyk3."):]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in aliases:
                uses.add((aliases[base.id], node.attr))
            elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
                  and base.value.id == "dyk3"):   # import dyk3.M; dyk3.M.N
                uses.add((base.attr, node.attr))
    return uses


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


def _unused_definitions(sources):
    """'file:line qualname' of every definition in the package part of
    sources ({path: text}) that nothing names."""
    words = {path: _words(text) for path, text in sources.items()}
    trees = {path: ast.parse(text) for path, text in sources.items()}
    resolved = set().union(*(_resolved_uses(tree, path) for path, tree in trees.items()))
    in_perfbench = set().union(*(w for path, w in words.items()
                                 if path.startswith("perfbench/")))
    unused = []
    for path in sorted(sources):
        module = _module_of(path)
        if module is None:
            continue
        for name, qualname, node in _definitions(trees[path]):
            decorators = getattr(node, "decorator_list", [])
            first = min([node.lineno] + [d.lineno for d in decorators])
            own = range(first, node.end_lineno + 1)
            inside = any(line not in own for line in words[path].get(name, []))
            if "." in qualname:
                used = inside or any(name in w for p, w in words.items() if p != path)
            else:
                used = inside or (module, name) in resolved or name in in_perfbench
            if not used:
                unused.append(f"{Path(path).name}:{node.lineno} {qualname}")
    return unused


def test_every_top_level_definition_is_used():
    assert _unused_definitions(_sources()) == []


def test_a_name_used_only_by_another_module_is_flagged():
    # a definition in one module whose name only another module uses, for
    # a name of its own, passed the word match (siverify.predicted_count)
    sources = {
        "src/dyk3/siverify.py": "def predicted_count(p):\n    return p\n",
        "src/dyk3/weil.py": "def count(p):\n    predicted_count = p\n    return predicted_count\n",
        "tests/test_weil.py": "from dyk3.weil import count\n\ncount(1)\n",
    }
    assert _unused_definitions(sources) == ["siverify.py:1 predicted_count"]
    uses = [
        ("tests/test_siverify.py", "from dyk3.siverify import predicted_count\n"),
        ("src/dyk3/cli.py", "from .siverify import (kronecker,\n    predicted_count)\n"),
        ("src/dyk3/cli.py", "from . import siverify\n\nsiverify.predicted_count(3)\n"),
        ("tests/test_siverify.py", "from dyk3 import siverify as sv\n\nsv.predicted_count(3)\n"),
        ("tests/test_siverify.py", "import dyk3.siverify\n\ndyk3.siverify.predicted_count(3)\n"),
        ("perfbench/workloads.py", "dy.siverify.predicted_count(3)\n"),
    ]
    for path, text in uses:
        assert _unused_definitions({**sources, path: text}) == [], text
    # a relative import outside the package, or of another module, is no use
    for path, text in [("tests/test_siverify.py", "from .siverify import predicted_count\n"),
                       ("src/dyk3/cli.py", "from .weil import predicted_count\n")]:
        assert _unused_definitions({**sources, path: text}) \
            == ["siverify.py:1 predicted_count"], text
