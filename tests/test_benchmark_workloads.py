"""Each benchmark workload runs one round at seed 0 and matches its recorded outputs.

The benchmark reports a workload whose outputs differ from
``perfbench/references.json`` as failed operations; this runs the same
set-up, round, probe and checks in process, so such a change fails here first.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["eval_sweep", "eval_se", "train_tune"])
def test_workload_round_matches_its_references(tmp_path, monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    before = set(PERFBENCH.rglob("*"))
    workloads = importlib.import_module("workloads")
    refs = json.loads((PERFBENCH / "references.json").read_text(encoding="utf-8"))

    wl = workloads.make_workload(name, 0)
    wl.setup(tmp_path)
    wl.prepare_checks()
    rounds = [wl.run_round()]
    checks = wl.check(rounds, wl.probe(), refs[name]["0"])

    assert checks.attempted > 0
    assert checks.failed == 0, checks.problems
    assert set(PERFBENCH.rglob("*")) == before
