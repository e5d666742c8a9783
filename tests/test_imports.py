"""Every name a longctx module imports is used in that module."""

import ast
from pathlib import Path

import longctx

SRC = Path(longctx.__file__).resolve().parent

# (module, name) pairs imported on purpose without a use. perfbench/tracer.py
# patches encoder.se_remap_deltas by name, so the name must exist there.
ALLOWED = {("encoder", "se_remap_deltas")}


def unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export; that is its whole use.
    found = {(path.stem, name) for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for name in unused_imports(path)}
    assert found == ALLOWED
