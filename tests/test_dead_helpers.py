"""Every private module-level helper of the lab is used by the lab.

A private function or class (name starting with ``_``) that only tests call
is code the lab carries for nothing: each one defined at the top level of a
module in ``src/mmlab`` must be loaded, as a name or as an attribute, by
``src/mmlab`` itself.
"""

import ast
from pathlib import Path

from test_dead_constants import _loaded_names

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private_definitions(path: Path) -> list:
    return [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, DEFINITIONS) and node.name.startswith("_")]


def test_every_private_helper_is_used_by_the_lab():
    modules = sorted((ROOT / "src" / "mmlab").glob("*.py"))
    loaded = _loaded_names(modules)
    helpers = {"%s.%s" % (path.stem, name) for path in modules
               for name in _private_definitions(path)}
    assert helpers, "no private helpers found: the scan reads the wrong files"
    assert sorted(h for h in helpers if h.split(".", 1)[1] not in loaded) == []
