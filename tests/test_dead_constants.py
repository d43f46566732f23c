"""Every module-level constant of the lab is read somewhere.

A constant that nothing reads is a setting that moves nothing: each public
one in ``src/mmlab`` must be loaded, as a name or as an attribute, by the lab
or its tests somewhere other than where it is assigned.  A private one (name
starting with ``_``) that only tests read is a setting the lab carries for
nothing, so it must be loaded by ``src/mmlab`` itself.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONSTANT = re.compile(r"^[A-Z][A-Z0-9_]*$")
PRIVATE_CONSTANT = re.compile(r"^_[A-Z][A-Z0-9_]*$")


def _module_constants(path: Path, pattern=CONSTANT) -> list:
    names = []
    for node in ast.parse(path.read_text()).body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        names += [t.id for t in targets if isinstance(t, ast.Name) and pattern.match(t.id)]
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


def _unread(modules, pattern, loaded) -> list:
    constants = {"%s.%s" % (path.stem, name) for path in modules
                 for name in _module_constants(path, pattern)}
    assert constants, "no constants found: the scan reads the wrong files"
    return sorted(c for c in constants if c.split(".", 1)[1] not in loaded)


def test_every_module_constant_is_read():
    modules = sorted((ROOT / "src" / "mmlab").glob("*.py"))
    loaded = _loaded_names(modules + sorted((ROOT / "tests").glob("*.py")))
    assert _unread(modules, CONSTANT, loaded) == []


def test_every_private_constant_is_read_by_the_lab():
    modules = sorted((ROOT / "src" / "mmlab").glob("*.py"))
    assert _unread(modules, PRIVATE_CONSTANT, _loaded_names(modules)) == []
