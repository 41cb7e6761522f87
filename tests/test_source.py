"""Source hygiene that a grep cannot check: every name a module imports is used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mccwe"


def unused_imports(source: str) -> list[str]:
    """The names a module's imports bind but its code never reads.

    `from __future__` imports are directives, not names.  A name counts as
    read wherever it appears in the code, annotations included.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from .bits import bits_of, items_of as listed\n"
        "def f(x: listed) -> int:\n"
        "    return json.dumps(x)\n"
    )
    assert unused_imports(source) == ["bits_of", "os"]


# The package's __init__ imports names only to export them.
@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_every_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
