"""The benchmark's workloads: set-up, one timed round, and the output checks.

Every model has the acceptance-suite toy shape (d=64, 2 layers, 4 heads,
ffn_multiplier=2, vocab 4096, l_orig=128, target 512). The workload seed fixes
the synthetic buckets, the model init seeds and the training-pair sampling;
longctx only ever sees the generated inputs. longctx is driven through its
public entry points: ``longctx.cli.main`` for evaluation and the ``tuning``
API for training. Modules are called through their attributes
(``cli.main(...)``, ``synth.build_bucket(...)``) so the traced run's patches apply.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import time
import traceback
from pathlib import Path

import numpy as np

from longctx import cli, encoder, evaluation, serialization, synth, tuning
from longctx.positions import ExtensionSpec
from longctx.tokenizer import tokenize

L_ORIG = 128
L_TARGET = 512
VOCAB = 4096
BATCH_PAIRS = 8
EMB_TOL = 1e-10
LOSS_TOL = 1e-9
NORM_TOL = 1e-9


def model_config(mode: str, seed: int) -> encoder.ModelConfig:
    return encoder.ModelConfig(
        hidden_size=64, n_layers=2, n_heads=4, vocab_size=VOCAB,
        original_context=L_ORIG, position_mode=mode, ffn_multiplier=2,
        init_seed=(1000 if mode == "absolute" else 2000) + seed,
    )


def build_buckets(kinds, lengths, queries, candidates, seed) -> dict[str, synth.RetrievalTask]:
    """Buckets keyed "kind/length"; candidates are shared by a bucket's queries."""
    out = {}
    for kind in kinds:
        config = synth.SyntheticTaskConfig(
            kind=kind, length_grid=tuple(lengths), queries_per_length=queries,
            candidates_per_length=candidates, seed=seed,
        )
        for length in lengths:
            out[f"{kind}/{length}"] = synth.build_bucket(config, length)
    return out


def oracle_check(tasks: dict[str, synth.RetrievalTask]) -> dict[str, bool]:
    """synth.OracleEmbedder must score acc@1 = 1.0 on every generated bucket."""
    bench = [
        evaluation.BenchmarkTask(task=t, metric="acc@1", group=key.split("/")[0],
                                 length=int(key.split("/")[1]))
        for key, t in tasks.items()
    ]
    report = evaluation.run_benchmark(synth.OracleEmbedder(), None, bench)
    return {key: report.synthetic.get(key.split("/")[0], {}).get(int(key.split("/")[1])) == 1.0
            for key in tasks}


def _close(a, b, tol) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


@dataclasses.dataclass
class Round:
    """One timed pass over a workload's fixed work."""

    wall_s: float  # sum of the timed entry-point calls
    tokens: int  # real, unpadded input tokens those calls processed
    phase_s: dict[str, float]  # wall time per entry-point call
    outputs: dict  # what the output checks read


class Checks:
    """Tallies attempted and failed operations and keeps the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


# ---------------------------------------------------------------------------
# evaluation workloads


@dataclasses.dataclass(frozen=True)
class Invocation:
    strategy: str
    mode: str  # checkpoint position mode
    buckets: tuple[str, ...]  # "kind/length" keys it scores


class EvalWorkload:
    """``longctx eval`` invocations over synthetic buckets written to disk."""

    queries = 8
    candidates = 16

    def __init__(self, seed: int, invocations: tuple[Invocation, ...]):
        self.seed = seed
        self.invocations = invocations
        keys = sorted({b for inv in invocations for b in inv.buckets})
        self.kinds = sorted({k.split("/")[0] for k in keys})
        self.lengths = sorted({int(k.split("/")[1]) for k in keys})
        self.keys = keys
        self.root: Path | None = None
        self.tasks: dict[str, synth.RetrievalTask] = {}

    def _argv(self, inv: Invocation, buckets) -> list[str]:
        return [
            "eval", "--model", str(self.root / f"{inv.mode}.ckpt"),
            "--strategy", inv.strategy, "--l-target", str(L_TARGET),
            "--seed", str(self.seed),
            "--synthetic", *(str(self.root / "tasks" / b) for b in buckets),
            "--out", str(self.root / f"report-{inv.strategy}.json"),
        ]

    def setup(self, root: Path) -> None:
        """Write task dirs and checkpoints, then warm up each invocation on one bucket."""
        self.root = root
        tasks = build_buckets(self.kinds, self.lengths, self.queries, self.candidates, self.seed)
        self.tasks = {k: tasks[k] for k in self.keys}
        for key, task in self.tasks.items():
            serialization.write_task(task, root / "tasks" / key)
        for mode in sorted({inv.mode for inv in self.invocations}):
            serialization.save_checkpoint(
                encoder.init_model(model_config(mode, self.seed)), root / f"{mode}.ckpt")
        for inv in self.invocations:
            rc, _ = _call_cli(self._argv(inv, inv.buckets[:1]))
            if rc != 0:
                raise RuntimeError(f"warm-up of {inv.strategy} exited with {rc}")

    def prepare_checks(self) -> None:
        self.oracle = oracle_check(self.tasks)
        self.bucket_tokens = {
            key: sum(len(tokenize(t, VOCAB)) for t in (*task.docs.values(), *task.queries.values()))
            for key, task in self.tasks.items()
        }

    def run_round(self) -> Round:
        phase, outputs, tokens = {}, {}, 0
        for inv in self.invocations:
            argv = self._argv(inv, inv.buckets)
            t0 = time.perf_counter()
            rc, err = _call_cli(argv)
            phase[inv.strategy] = time.perf_counter() - t0
            tokens += sum(self.bucket_tokens[b] for b in inv.buckets)
            outputs[inv.strategy] = _read_scores(argv[-1]) if rc == 0 else {"error": err}
        return Round(sum(phase.values()), tokens, phase, outputs)

    def probe(self) -> dict[str, list[list[float]]]:
        """Embeddings of one long document and one query per strategy, via the Python API."""
        task = self.tasks[max(self.keys, key=lambda k: int(k.split("/")[1]))]
        texts = [task.docs[sorted(task.docs)[0]], task.queries[sorted(task.queries)[0]]]
        out = {}
        for inv in self.invocations:
            model = serialization.load_checkpoint(self.root / f"{inv.mode}.ckpt")
            spec = ExtensionSpec(strategy=inv.strategy, l_orig=L_ORIG, l_target=L_TARGET)
            embs = encoder.encode_many(model, [tokenize(t, VOCAB) for t in texts], spec)
            out[inv.strategy] = embs.tolist()
        return out

    def observed(self, rounds: list[Round], probe: dict) -> dict:
        return {"acc": rounds[0].outputs, "probe": probe}

    def check(self, rounds: list[Round], probe: dict, ref: dict | None) -> Checks:
        checks = Checks()
        probe_ok = {}
        for inv in self.invocations:
            vecs = np.asarray(probe[inv.strategy])
            ok = bool(np.isfinite(vecs).all()) and bool(
                np.all(np.abs(np.linalg.norm(vecs, axis=1) - 1.0) <= NORM_TOL))
            if ref is not None:
                ok = ok and all(_close(v, r, EMB_TOL)
                                for v, r in zip(probe[inv.strategy], ref["probe"][inv.strategy]))
            probe_ok[inv.strategy] = ok
        first = rounds[0].outputs
        for i, rnd in enumerate(rounds):
            for inv in self.invocations:
                got = rnd.outputs[inv.strategy]
                for key in inv.buckets:
                    acc = got.get(key)
                    ok = (acc is not None and 0.0 <= acc <= 1.0 and acc == first[inv.strategy].get(key)
                          and self.oracle[key] and probe_ok[inv.strategy])
                    if ref is not None:
                        ok = ok and acc == ref["acc"][inv.strategy][key]
                    checks.op(ok, f"round {i} {inv.strategy} {key}: acc={acc} "
                                  f"oracle={self.oracle[key]} probe={probe_ok[inv.strategy]} "
                                  f"{got.get('error', '')}".rstrip())
        return checks


def _call_cli(argv: list[str]) -> tuple[int | None, str]:
    """Run ``longctx.cli.main`` in process with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            return None, traceback.format_exc()
    return rc, err.getvalue()


def _read_scores(report_path: str) -> dict[str, float]:
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    return {f"{group}/{length}": acc
            for group, buckets in report["synthetic"].items()
            for length, acc in buckets.items()}


# ---------------------------------------------------------------------------
# training workload


class TrainTuneWorkload:
    """``train_model`` on a rotary model, then ``tune`` (pi_anchored) on an extended absolute one.

    Settings are the directional fixture's: batches of 8 pairs, 3 negatives,
    train lengths {32, 64, 96} from passkey and needle, lr 0.003, warmup 20,
    temperature 0.05. Each call runs whole epochs over all pairs, so the real
    tokens it processes are known whatever order the pairs are shuffled in.
    """

    kinds = ("passkey", "needle")
    lengths = (32, 64, 96)
    queries = 8  # 2 kinds x 3 lengths x 8 = 48 pairs = 6 steps per epoch
    candidates = 16
    epochs = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.config = tuning.TuneConfig(
            mode="pi_anchored", l_orig=L_ORIG, l_target=L_TARGET, learning_rate=0.003,
            batch_size=BATCH_PAIRS, epochs=self.epochs, warmup_steps=20, temperature=0.05,
            n_negatives=3, seed=seed,
        )

    def setup(self, root: Path) -> None:
        """Build buckets and pairs, init both models, then warm up with one step each."""
        self.tasks = build_buckets(self.kinds, self.lengths, self.queries, self.candidates, self.seed)
        rng = np.random.default_rng([self.seed, 3])
        self.pairs = [
            pair for key in sorted(self.tasks)
            for pair in tuning.training_pairs_from_task(
                self.tasks[key], VOCAB, self.config.n_negatives, rng, max_len=L_ORIG)
        ]
        self.rotary = encoder.init_model(model_config("rotary", self.seed))
        self.extended = tuning.extend_for_tuning(
            encoder.init_model(model_config("absolute", self.seed)), self.config)
        warm = dataclasses.replace(self.config, max_steps=1)
        tuning.train_model(self.rotary, self.pairs, warm)
        tuning.tune(self.extended, self.pairs, warm)

    def prepare_checks(self) -> None:
        self.oracle = oracle_check(self.tasks)
        self.epoch_tokens = sum(s.size for p in self.pairs for s in p.sequences())
        self.steps = self.epochs * math.ceil(len(self.pairs) / BATCH_PAIRS)

    def run_round(self) -> Round:
        t0 = time.perf_counter()
        trained = tuning.train_model(self.rotary, self.pairs, self.config)
        t1 = time.perf_counter()
        tuned = tuning.tune(self.extended, self.pairs, self.config)
        t2 = time.perf_counter()
        outputs = {
            "train": {"losses": trained.losses, "diverged": trained.diverged},
            "tune": {"losses": tuned.losses, "diverged": tuned.diverged},
        }
        return Round(t2 - t0, 2 * self.epochs * self.epoch_tokens,
                     {"train": t1 - t0, "tune": t2 - t1}, outputs)

    def probe(self) -> dict:
        return {}

    def observed(self, rounds: list[Round], probe: dict) -> dict:
        return {phase: rounds[0].outputs[phase]["losses"] for phase in ("train", "tune")}

    def check(self, rounds: list[Round], probe: dict, ref: dict | None) -> Checks:
        checks = Checks()
        oracle_ok = all(self.oracle.values())
        for i, rnd in enumerate(rounds):
            for phase in ("train", "tune"):
                got = rnd.outputs[phase]
                first = rounds[0].outputs[phase]["losses"]
                for step in range(self.steps):
                    loss = got["losses"][step] if step < len(got["losses"]) else None
                    ok = (loss is not None and math.isfinite(loss) and not got["diverged"]
                          and step < len(first) and abs(loss - first[step]) <= LOSS_TOL
                          and oracle_ok)
                    if ref is not None:
                        ok = ok and step < len(ref[phase]) and abs(loss - ref[phase][step]) <= LOSS_TOL
                    checks.op(ok, f"round {i} {phase} step {step + 1}: loss={loss} "
                                  f"diverged={got['diverged']} oracle={oracle_ok}")
        return checks


def make_workload(name: str, seed: int):
    sweep_buckets = tuple(f"{k}/{n}" for k in ("passkey", "needle") for n in (128, 256, 512))
    if name == "eval_sweep":
        return EvalWorkload(seed, (
            Invocation("pi", "absolute", sweep_buckets),
            Invocation("ntk", "rotary", sweep_buckets),
            Invocation("pcw", "rotary", sweep_buckets),
        ))
    if name == "eval_se":
        return EvalWorkload(seed, (Invocation("se", "rotary", ("passkey/256", "passkey/512")),))
    if name == "train_tune":
        return TrainTuneWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")

