"""Every ``raise`` in src/longctx raises a typed toolkit error, so the CLI can map
each failure onto its exit code."""

import ast
import inspect
from pathlib import Path

import longctx
from longctx import errors

SRC = Path(longctx.__file__).resolve().parent

TYPED = {name for name, obj in vars(errors).items()
         if inspect.isclass(obj) and issubclass(obj, errors.LongCtxError)}


def untyped_raises(source: str, module: str) -> list[str]:
    """``module:line`` of each raise that is not a call of a LongCtxError subclass by
    name; in ``errors.read_text``, a call of its ``error`` parameter counts as one."""
    tree = ast.parse(source)
    read_text = [range(n.lineno, n.end_lineno + 1) for n in ast.walk(tree)
                 if module == "errors" and isinstance(n, ast.FunctionDef)
                 and n.name == "read_text"]
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise):
            continue
        call = node.exc
        name = call.func.id if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) \
            else None
        if name in TYPED or (name == "error" and any(node.lineno in r for r in read_text)):
            continue
        found.append(f"{module}:{node.lineno}")
    return found


def test_every_raise_in_src_is_a_typed_error():
    found = [where for path in sorted(SRC.glob("*.py"))
             for where in untyped_raises(path.read_text(encoding="utf-8"), path.stem)]
    assert found == []


def test_the_guard_finds_an_untyped_raise():
    source = ("def f(error):\n    raise ValueError('x')\n"
              "def read_text(error):\n    raise error('y')\n"
              "def g():\n    raise\n")
    assert untyped_raises(source, "m") == ["m:2", "m:4", "m:6"]
    assert untyped_raises(source, "errors") == ["errors:2", "errors:6"]
    assert untyped_raises("raise ConfigurationError('z') from None\n", "m") == []
