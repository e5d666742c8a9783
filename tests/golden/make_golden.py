"""Golden outputs: embeddings and training losses of two tiny seeded models.

``compute()`` builds one absolute and one rotary model (d=16, 2 layers, 2
heads, vocab 64, l_orig 8, l_target 32) and returns, as plain JSON data:

- ``embeddings``: for every strategy each mode allows, one ``encode_many``
  call over sequences of lengths {1, 7, 8, 9, 19, 32} (``none`` takes the
  ones within l_orig), plus an off-table NTK lambda, an off-table SelfExtend
  (g, w), ``pi`` with attention scaling off, and ``tuned_pi``/``tuned_rp``
  after a 5-step seeded ``tune``;
- ``losses``: the 10 per-step losses of ``train_model`` on each model and of
  ``tune`` under each extension mode.

``cli_outputs()`` runs the command line in the current directory and returns:

- ``eval_se_report``: the report of ``longctx eval --strategy se`` of a tiny
  rotary checkpoint on a generated passkey+needle set at lengths 32 and 64,
  without its ``created_utc`` timestamp (``run_config.model`` is the relative
  path ``model.ckpt``);
- ``inspect_pi`` and ``inspect_se``: what ``longctx inspect`` prints for a
  rotary ``pi`` and ``se`` extension of 8 to 32 tokens.

``gen_outputs()`` runs ``longctx gen`` in the current directory and returns the
sha256 of every file it writes, by path under its output directory: both
kinds at seeds 0 and 7 and lengths 32, 64 and 512 with the default query and
candidate counts, and one needle bucket (64 tokens) cut from an ``--essay``
file it writes itself.

``tests/test_golden.py`` holds every later run to these figures. Rewrite
``outputs.json``, ``cli_outputs.json`` and ``gen_outputs.json`` only with a
change that means to alter outputs:

    PYTHONPATH=src python tests/golden/make_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from longctx import (
    ExtensionSpec,
    ModelConfig,
    TrainingPair,
    TuneConfig,
    encode_many,
    extend_for_tuning,
    init_model,
    train_model,
    tune,
)
from longctx.cli import main

OUTPUTS = Path(__file__).with_name("outputs.json")
CLI_OUTPUTS = Path(__file__).with_name("cli_outputs.json")
GEN_OUTPUTS = Path(__file__).with_name("gen_outputs.json")

L_ORIG, L_TARGET, VOCAB = 8, 32, 64
LENGTHS = (1, 7, 8, 9, 19, 32)
STRATEGIES = {
    "absolute": ("none", "pcw", "gp", "rp", "pi"),
    "rotary": ("none", "pcw", "gp", "pi", "ntk", "se"),
}


def _model(mode: str):
    return init_model(ModelConfig(hidden_size=16, n_layers=2, n_heads=2, vocab_size=VOCAB,
                                  original_context=L_ORIG, position_mode=mode, init_seed=5))


def _pairs(seed: int, n: int = 8) -> list[TrainingPair]:
    rng = np.random.default_rng(seed)

    def seq():
        return rng.integers(0, VOCAB, int(rng.integers(1, L_ORIG + 1)))

    return [TrainingPair(query=seq(), positive=seq(), negatives=[seq(), seq()])
            for _ in range(n)]


def _config(mode: str, steps: int) -> TuneConfig:
    return TuneConfig(mode=mode, l_orig=L_ORIG, l_target=L_TARGET, learning_rate=0.05,
                      batch_size=3, epochs=100, warmup_steps=2, temperature=0.5,
                      n_negatives=2, seed=1, max_steps=steps)


def compute() -> dict:
    rng = np.random.default_rng(0)
    seqs = [rng.integers(0, VOCAB, n) for n in LENGTHS]
    short = [s for s in seqs if s.size <= L_ORIG]
    embeddings: dict[str, list] = {}
    losses: dict[str, list[float]] = {}
    for mode, strategies in STRATEGIES.items():
        model = _model(mode)
        for strategy in strategies:
            spec = (ExtensionSpec.none(L_ORIG) if strategy == "none"
                    else ExtensionSpec(strategy, L_ORIG, L_TARGET))
            embeddings[f"{mode}/{strategy}"] = encode_many(
                model, short if strategy == "none" else seqs, spec).tolist()
        embeddings[f"{mode}/pi_unscaled"] = encode_many(
            model, seqs, ExtensionSpec("pi", L_ORIG, L_TARGET), attn_scaling=False).tolist()
        config = _config("pi_anchored", 10)  # train_model reads no geometry from it
        losses[f"train_model/{mode}"] = train_model(model, _pairs(2), config).losses
    rotary = _model("rotary")
    embeddings["rotary/ntk_lambda_6.5"] = encode_many(
        rotary, seqs, ExtensionSpec("ntk", L_ORIG, L_TARGET, ntk_lambda=6.5)).tolist()
    embeddings["rotary/se_g6_w2"] = encode_many(
        rotary, seqs, ExtensionSpec("se", L_ORIG, L_TARGET, group_size=6, window=2)).tolist()
    absolute = _model("absolute")
    for ext_mode, strategy in (("pi_anchored", "tuned_pi"), ("rp_suffix", "tuned_rp")):
        ext = extend_for_tuning(absolute, _config(ext_mode, 10))
        losses[f"tune/{ext_mode}"] = tune(ext, _pairs(3), _config(ext_mode, 10)).losses
        tuned = tune(ext, _pairs(4), _config(ext_mode, 5)).model
        embeddings[f"absolute/{strategy}"] = encode_many(
            tuned, seqs, ExtensionSpec(strategy, L_ORIG, L_TARGET)).tolist()
    return {"embeddings": embeddings, "losses": losses}


def _stdout(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"longctx {argv[0]} exited with {code}")
    return out.getvalue()


def cli_outputs() -> dict:
    _stdout("gen", "--kind", "both", "--lengths", "32,64", "--queries", 4, "--candidates", 8,
            "--seed", 7, "--out", "tasks")
    _stdout("init", "--hidden-size", 16, "--layers", 2, "--heads", 2, "--vocab-size", 64,
            "--l-orig", 16, "--mode", "rotary", "--seed", 3, "--out", "model.ckpt")
    _stdout("eval", "--model", "model.ckpt", "--strategy", "se", "--l-target", 64,
            "--synthetic", "tasks/passkey", "tasks/needle", "--out", "report.json")
    report = json.loads(Path("report.json").read_text(encoding="utf-8"))
    del report["created_utc"]
    inspect = {f"inspect_{strategy}": _stdout(
        "inspect", "--strategy", strategy, "--mode", "rotary", "--l-orig", 8, "--l-target", 32,
        "--input-len", 20, "--d-head", 8) for strategy in ("pi", "se")}
    return {"eval_se_report": report, **inspect}


ESSAY = " ".join(f"Entry {i} of the ledger was copied out by hand." for i in range(40))


def gen_outputs() -> dict[str, str]:
    for seed in (0, 7):
        _stdout("gen", "--kind", "both", "--lengths", "32,64,512", "--seed", seed,
                "--out", f"gen/seed{seed}")
    Path("essay.txt").write_text(ESSAY, encoding="utf-8")
    _stdout("gen", "--kind", "needle", "--lengths", 64, "--queries", 4, "--candidates", 8,
            "--essay", "essay.txt", "--out", "gen/essay")
    return {path.relative_to("gen").as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path("gen").rglob("*")) if path.is_file()}


if __name__ == "__main__":
    OUTPUTS.write_text(json.dumps(compute(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUTPUTS}")
    here = os.getcwd()
    for path, make in ((CLI_OUTPUTS, cli_outputs), (GEN_OUTPUTS, gen_outputs)):
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                outputs = make()
            finally:
                os.chdir(here)
        path.write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")
