"""Every third-party module ``src/repro`` imports is declared in ``setup.py``."""

import ast
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]


def _setup_keyword(name):
    tree = ast.parse((_REPO / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == name:
            return ast.literal_eval(node.value)
    raise AssertionError(f"setup.py declares no {name}")


def _imported_top_level_modules(root):
    found = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], path.relative_to(_REPO))
    return found


def test_src_imports_only_declared_third_party_modules():
    declared = {req.replace("-", "_").lower() for req in _setup_keyword("install_requires")}
    imported = _imported_top_level_modules(_REPO / "src" / "repro")
    undeclared = {
        module: str(where)
        for module, where in imported.items()
        if module != "repro"
        and module not in sys.stdlib_module_names
        and module.lower() not in declared
    }
    assert not undeclared, f"imported but not in install_requires: {undeclared}"


def test_scan_sees_the_known_third_party_imports():
    imported = _imported_top_level_modules(_REPO / "src" / "repro")
    assert {"numpy", "scipy"} <= set(imported)
    assert {"numpy", "scipy"} <= set(_setup_keyword("install_requires"))
