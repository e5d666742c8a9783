"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's side: each traced function is replaced
under the name its *caller* looks it up by. longctx modules bind each other's
functions with from-imports (``from .encoder import encode_many``), so patching
``encoder.encode_many`` alone would miss the call ``evaluation`` makes; the
table below therefore patches ``evaluation.encode_many``, ``chunking.encode_many``,
``tuning.forward_batch``, ``cli.load_checkpoint`` and so on.

A span is ``[name, start, end, parent index]``. Self time is a span's duration
minus the durations of its direct children. Counts are computed from call
arguments only, so they are exact and repeat for a given workload seed.
"""

from __future__ import annotations

import functools
import importlib
import time

# (longctx module, attribute looked up by the caller, span name). Where two
# entries wrap the same function under different span names (tuning.forward_batch
# and encoder.forward_batch), the later one wraps the earlier wrapper, so both
# spans are recorded, nested. Entries sharing a span name wrap the original once.
PATCHES = (
    ("cli", "main", "cli.main"),
    ("cli", "load_checkpoint", "serialization.load_checkpoint"),
    ("cli", "load_task_dir", "serialization.load_task_dir"),
    ("cli", "write_report", "serialization.write_report"),
    ("cli", "run_benchmark", "evaluation.run_benchmark"),
    ("cli", "resolve_extension", "positions.resolve_extension"),
    ("evaluation", "resolve_extension", "positions.resolve_extension"),
    ("evaluation", "encode_many", "evaluation.encode_many"),
    ("evaluation", "search", "evaluation.search"),
    ("evaluation", "tokenize", "tokenizer.tokenize"),
    ("encoder", "resolve_extension", "positions.resolve_extension"),
    ("encoder", "se_remap_deltas", "positions.se_remap_deltas"),
    ("encoder", "forward_batch", "encoder.forward_batch"),
    ("encoder", "_relative_scores", "encoder._relative_scores"),
    ("encoder", "_rotate_batch", "encoder._rotate_batch"),
    ("encoder", "_layer_norm", "encoder._layer_norm"),
    ("encoder", "_gelu", "encoder._gelu"),
    ("encoder", "pool_and_normalize", "encoder.pool_and_normalize"),
    ("encoder", "init_model", "encoder.init_model"),
    ("chunking", "pcw_encode", "chunking.pcw_encode"),
    ("chunking", "encode_many", "chunking.encode_many"),
    ("tuning", "train_model", "tuning.train_model"),
    ("tuning", "tune", "tuning.tune"),
    ("tuning", "_run_training", "tuning._run_training"),
    ("tuning", "_batch_loss_and_grads", "tuning._batch_loss_and_grads"),
    ("tuning", "forward_batch", "tuning.forward_batch"),
    ("tuning", "backward_batch", "tuning.backward_batch"),
    ("tuning", "pool_and_normalize", "encoder.pool_and_normalize"),
    ("tuning", "pool_and_normalize_backward", "tuning.pool_and_normalize_backward"),
    ("tuning", "_contrastive_loss_grads", "tuning._contrastive_loss_grads"),
    ("tuning", "Adagrad.step", "tuning.Adagrad.step"),
    ("tuning", "tokenize", "tokenizer.tokenize"),
    ("tuning", "extend_for_tuning", "tuning.extend_for_tuning"),
    ("tuning", "training_pairs_from_task", "tuning.training_pairs_from_task"),
    ("synth", "build_bucket", "synth.build_bucket"),
    ("serialization", "write_task", "serialization.write_task"),
    ("serialization", "save_checkpoint", "serialization.save_checkpoint"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_forward(args, kwargs, add):
    model, mask = args[0], _arg(args, kwargs, 2, "mask")
    batch, length = mask.shape
    add("encoder.real_tokens", int(mask.sum()))
    add("encoder.padded_slots", batch * length)
    add("encoder.attn_cells",
        model.config.n_layers * model.config.n_heads * batch * length * length)


def _count_relative(args, kwargs, add):
    q, k = args[0], args[1]
    add("encoder._relative_scores.cells", q.shape[0] * q.shape[1] * q.shape[2] * k.shape[2])


# span name -> function(args, kwargs, add) recording counts from the call arguments
COUNTERS = {
    "encoder.forward_batch": _count_forward,
    "encoder._relative_scores": _count_relative,
    "chunking.pcw_encode": lambda a, k, add: add(
        "chunking.input_tokens", len(_arg(a, k, 1, "token_ids"))),
    "chunking.encode_many": lambda a, k, add: add(
        "chunking.chunk_tokens", sum(len(s) for s in _arg(a, k, 1, "sequences"))),
    "tokenizer.tokenize": lambda a, k, add: add(
        "tokenizer.tokenize.words", len(_arg(a, k, 0, "text").split())),
}


class Tracer:
    """Records spans and counts while installed; restores every patch on uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, fn, name: str):
        spans, stack, counter, add = self.spans, self._stack, COUNTERS.get(name), self._add

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(args, kwargs, add)
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        wrapped: dict[int, tuple[object, str]] = {}  # id(original) -> (wrapper, span name)
        for module_name, attr, name in PATCHES:
            owner = importlib.import_module(f"longctx.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            prior = wrapped.get(id(original))
            if prior is not None and prior[1] == name:
                traced = prior[0]
            else:
                traced = self._wrap(prior[0] if prior else original, name)
                wrapped.setdefault(id(original), (traced, name))
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, traced)

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def mark(self) -> int:
        """Index of the next span, and a fresh count table; brackets one unit of work."""
        self.counts = {}
        return len(self.spans)


def aggregate(spans: list[list], start: int) -> dict[str, dict[str, float]]:
    """busy_s, self_s and calls per span name over spans[start:]."""
    child = [0.0] * (len(spans) - start)
    for name, t0, t1, parent in spans[start:]:
        if parent >= start:
            child[parent - start] += t1 - t0
    out: dict[str, dict[str, float]] = {}
    for i, (name, t0, t1, parent) in enumerate(spans[start:]):
        agg = out.setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "top_s": 0.0})
        agg["busy_s"] += t1 - t0
        agg["self_s"] += t1 - t0 - child[i]
        agg["calls"] += 1
        if parent < start:
            agg["top_s"] += t1 - t0
    return out
