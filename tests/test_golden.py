"""Today's outputs against the recorded golden ones (``tests/golden/make_golden.py``).

Embeddings must agree within 1e-12 a component and training losses within
1e-10 relative, so a refactor that means to keep results can move them only
by rounding. The ``longctx eval`` report (without its timestamp), the
``longctx inspect`` output and every file ``longctx gen`` writes must be equal.
"""

import functools
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
RECORDED = json.loads((GOLDEN / "outputs.json").read_text(encoding="utf-8"))
CLI_RECORDED = json.loads((GOLDEN / "cli_outputs.json").read_text(encoding="utf-8"))
GEN_RECORDED = json.loads((GOLDEN / "gen_outputs.json").read_text(encoding="utf-8"))


@functools.lru_cache(maxsize=1)
def make_golden():
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=1)
def current() -> dict:
    return make_golden().compute()


def test_the_same_outputs_are_recorded_and_computed():
    now = current()
    assert {kind: sorted(now[kind]) for kind in now} == \
        {kind: sorted(RECORDED[kind]) for kind in RECORDED}


@pytest.mark.parametrize("key", sorted(RECORDED["embeddings"]))
def test_embeddings_match_the_golden_ones(key):
    got, want = np.array(current()["embeddings"][key]), np.array(RECORDED["embeddings"][key])
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12, key


@pytest.mark.parametrize("key", sorted(RECORDED["losses"]))
def test_losses_match_the_golden_ones(key):
    got, want = np.array(current()["losses"][key]), np.array(RECORDED["losses"][key])
    assert got.shape == want.shape == (10,)
    assert (np.abs(got - want) <= 1e-10 * np.abs(want)).all(), key


def test_cli_outputs_match_the_golden_ones(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative paths keep the report's run_config.model stable
    assert make_golden().cli_outputs() == CLI_RECORDED


def test_generated_tasks_match_the_golden_ones(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert make_golden().gen_outputs() == GEN_RECORDED
