"""Source hygiene: every imported name in src/ and tests/ is used, and
every private module-level helper in src/ is referenced in src/."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# __init__.py modules import names to re-export them, not to use them.
FILES = sorted(
    p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_scan_flags_and_exempts():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom a import b, c\nnp.log(b)\n"
    assert unused_imports(source) == ["line 4: c", "line 2: os"]


SRC_FILES = sorted((ROOT / "src").rglob("*.py"))


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and classes that no source refers to.

    A reference is a name or an attribute anywhere in ``sources`` (a name
    -> source text map); the definition itself is not one.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [
        f"{name}: {node.name}"
        for name, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in used
    ]


def test_no_dead_private_helpers():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in SRC_FILES}
    assert dead_helpers(sources) == []


def test_dead_helper_scan_flags_and_exempts():
    sources = {
        "a.py": "def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\n"
                "def __getattr__(name): pass\ndef public(): return _used() + b._attr() + _listed\n",
        "b.py": "def _attr(): pass\ndef _listed(): pass\n",
    }
    assert dead_helpers(sources) == ["a.py: _dead", "a.py: _Gone"]
