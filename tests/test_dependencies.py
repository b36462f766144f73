"""Every third-party module ``repro`` imports is a declared dependency.

An import the install line does not name works on a machine that
happens to have the package and fails everywhere else.  This scans the
source for absolute imports and checks each non-stdlib top-level module
against ``pyproject.toml``'s ``[project] dependencies``.
"""

from __future__ import annotations

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imported_modules() -> dict[str, set[str]]:
    """Top-level module -> the source files importing it."""
    found: dict[str, set[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                found.setdefault(top, set()).add(
                    str(path.relative_to(ROOT))
                )
    return found


def _declared() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    # "numpy>=1.23" -> "numpy"; distribution names use - where modules use _
    return {
        re.split(r"[<>=!~\[; ]", spec, maxsplit=1)[0].lower().replace("-", "_")
        for spec in project["dependencies"]
    }


def test_every_third_party_import_is_declared():
    declared = _declared()
    undeclared = {
        module: sorted(files)
        for module, files in _imported_modules().items()
        if module != "repro"
        and module not in sys.stdlib_module_names
        and module.lower() not in declared
    }
    assert undeclared == {}, (
        "imported by repro but missing from pyproject.toml dependencies"
    )
