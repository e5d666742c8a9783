"""Every name a longctx module imports is used in that module, and every public
name it defines has a user outside the tests."""

import ast
import re
from pathlib import Path

import longctx

SRC = Path(longctx.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

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

# Public names with no user in src, perfbench or the README: references that
# the tests hold the library's code against.
REFERENCES = {
    "attention_score": "the one-pair RoPE logit that C02 and the SelfExtend tile tests use",
    "ndcg_at_10": "the mean nDCG@10 that C07 compares with its all-orderings oracle",
}


def _defined_names(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_public_name_has_a_user():
    """A public top-level name of src/longctx is used by another top-level statement in src,
    or named in perfbench/*.py or README.md; else it is dead code or a test-only helper."""
    nodes = [node for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for node in ast.parse(path.read_text(encoding="utf-8")).body]
    uses = [{n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
             if isinstance(n, (ast.Name, ast.Attribute))} for node in nodes]
    text = "\n".join(p.read_text(encoding="utf-8")
                     for p in [ROOT / "README.md", *sorted((ROOT / "perfbench").glob("*.py"))])
    unused = {name for i, node in enumerate(nodes) for name in _defined_names(node)
              if not name.startswith("_")
              and not any(name in used for j, used in enumerate(uses) if j != i)
              and not re.search(rf"\b{name}\b", text)}
    assert unused == set(REFERENCES), f"no user: {sorted(unused - set(REFERENCES))}"
