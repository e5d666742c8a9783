"""The benchmark's tracer patches longctx functions by name; every name must exist."""

import importlib
from pathlib import Path

from longctx import encoder

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    originals = {}
    for module_name, attr, _ in tracer.PATCHES:
        owner = importlib.import_module(f"longctx.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        originals[(owner, leaf)] = owner.__dict__.get(leaf)
    t = tracer.Tracer()
    try:
        t.install()  # KeyError when a patched name is gone
        encoder.init_model(encoder.ModelConfig(hidden_size=8, n_layers=1, n_heads=2,
                                               vocab_size=8, original_context=4))
    finally:
        t.uninstall()
    assert [span[0] for span in t.spans] == ["encoder.init_model"]
    for (owner, leaf), original in originals.items():
        assert owner.__dict__[leaf] is original, leaf
