"""Every module-level constant of the lab is read somewhere.

A constant that nothing reads is a setting that moves nothing: each one in
``src/mmlab`` must be loaded, as a name or as an attribute, by the lab or its
tests somewhere other than where it is assigned.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONSTANT = re.compile(r"^[A-Z][A-Z0-9_]*$")


def _module_constants(path: Path) -> list:
    names = []
    for node in ast.parse(path.read_text()).body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        names += [t.id for t in targets if isinstance(t, ast.Name) and CONSTANT.match(t.id)]
    return names


def _loaded_names(paths) -> set:
    seen = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                seen.add(node.attr)
    return seen


def test_every_module_constant_is_read():
    modules = sorted((ROOT / "src" / "mmlab").glob("*.py"))
    loaded = _loaded_names(modules + sorted((ROOT / "tests").glob("*.py")))
    constants = {"%s.%s" % (path.stem, name) for path in modules
                 for name in _module_constants(path)}
    assert constants, "no constants found: the scan reads the wrong files"
    assert sorted(c for c in constants if c.split(".", 1)[1] not in loaded) == []
