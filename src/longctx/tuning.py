"""Frozen-anchor fine-tuning of absolute-position models over simulated long positions.

The position table is extended by interpolation (anchors frozen, interleaved
rows learnable) or by recurrent suffix copies (original prefix frozen), and
only the learnable rows receive gradient updates. Long positions are simulated
by shifting every training sequence's ids with a per-sequence skipping bias
drawn uniformly from {0, ..., l_target - l_orig}, so short contrastive triples
cover the whole target window. Because everything except the new rows is
frozen, behavior on short inputs is preserved exactly.

The same machinery trains toy base models from scratch (all parameters
learnable, no position shifting); both paths share one InfoNCE objective and
one Adagrad-with-warmup optimizer, and the analytic gradients are validated
against central finite differences by grad_check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoder import (
    Model,
    PosExtension,
    backward_batch,
    forward_batch,
    padded_batches,
    param_layout,
    pool_and_normalize,
    pool_and_normalize_backward,
)
from .errors import ConfigurationError, NumericError, ValidationError, check_types
from .synth import RetrievalTask
from .tokenizer import tokenize


@dataclass(frozen=True)
class TuneConfig:
    mode: str
    l_orig: int
    l_target: int
    learning_rate: float = 5e-4
    batch_size: int = 512
    epochs: int = 3
    warmup_steps: int = 100
    temperature: float = 0.01
    n_negatives: int = 7
    seed: int = 0
    max_steps: int | None = None

    def __post_init__(self):
        check_types(vars(self), self.__annotations__)
        self.extension  # constructing it checks the mode and 1 <= l_orig < l_target
        for name in ("learning_rate", "temperature"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be finite and positive, got {value}")
        if self.batch_size < 1 or self.epochs < 0 or self.warmup_steps < 0:
            raise ConfigurationError("batch_size >= 1, epochs >= 0, warmup_steps >= 0 required")
        if self.max_steps is not None and self.max_steps < 0:
            raise ConfigurationError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.n_negatives < 1:
            raise ConfigurationError("need at least one negative per example")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    @property
    def extension(self) -> PosExtension:
        """The extended table this config tunes."""
        return PosExtension(self.mode, self.l_orig, self.l_target)


@dataclass
class TrainingPair:
    """One contrastive triple: query, positive document, hard negatives."""

    query: np.ndarray
    positive: np.ndarray
    negatives: list[np.ndarray]

    def __post_init__(self):
        if not self.negatives:
            raise ValidationError("a training pair needs at least one negative")

    def sequences(self) -> list[np.ndarray]:
        return [self.query, self.positive, *self.negatives]


def sample_skip_bias(l_target: int, l_orig: int, rng: np.random.Generator) -> int:
    """Uniform skipping bias u over {0, ..., l_target - l_orig}.

    Shifting a sequence's position ids from {0..len-1} to {u..u+len-1} makes
    short training data exercise the full target position range.
    """
    check_types(locals(), sample_skip_bias.__annotations__)
    if l_target < l_orig:
        raise ConfigurationError(f"l_target {l_target} must be >= l_orig {l_orig}")
    return int(rng.integers(0, l_target - l_orig + 1))


def _training_positions(model: Model, pairs: list[TrainingPair],
                        rng: np.random.Generator) -> list[np.ndarray]:
    """Identity positions 0..n-1 for every sequence of ``pairs``, in pair order.

    On a model extended for tuning, each sequence is shifted by its own skip
    bias over the extension's window, drawn from ``rng`` in that order.
    """
    ext = model.extension
    return [np.arange(seq.size) + (0 if ext is None else
                                   sample_skip_bias(ext.l_target, ext.l_orig, rng))
            for pair in pairs for seq in pair.sequences()]


# InfoNCE over cosine logits, -log p(positive | query), of one pair's embeddings
# (query, positive, negatives...), and its gradient at each of them, in that order.
# ``temperature`` is a TuneConfig's, which that config has checked.
def _contrastive_loss_grads(embs, temperature):
    q, cands = embs[0], embs[1:]
    logits = np.array([float(q @ c) for c in cands]) / temperature
    m = logits.max()
    exps = np.exp(logits - m)
    z = exps.sum()
    loss = float(math.log(z) + m - logits[0])
    d_logits = exps / z
    d_logits[0] -= 1.0
    d_q = sum(d_logits[i] * cands[i] for i in range(len(cands))) / temperature
    return loss, [d_q, *(d * q / temperature for d in d_logits)]


# ---------------------------------------------------------------------------
# table extension


def extend_for_tuning(model: Model, config: TuneConfig) -> Model:
    """A copy of ``model`` carrying ``config.extension`` and its untuned table."""
    if model.extension is not None:
        raise ConfigurationError("model already carries an extended position table")
    ext = config.extension
    param_layout(model.config, ext)  # refuses a rotary model or another original window
    params = {name: arr.copy() for name, arr in model.params.items()}
    params["pos_table"] = ext.table(params["pos_table"])
    return Model(model.config, params, ext)


# ---------------------------------------------------------------------------
# optimizer and training loop

_ADAGRAD_EPS = 1e-10


class Adagrad:
    """Momentum-free adaptive optimizer with linear warmup."""

    def __init__(self, learning_rate: float, warmup_steps: int):
        self.learning_rate = learning_rate
        self.warmup_steps = warmup_steps
        self.t = 0
        self.accum: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        lr = self.learning_rate
        if self.warmup_steps > 0:
            lr *= min(1.0, self.t / self.warmup_steps)
        for name, g in grads.items():
            if name not in self.accum:
                self.accum[name] = np.zeros_like(g)
            self.accum[name] += g * g
            params[name] -= lr * g / (np.sqrt(self.accum[name]) + _ADAGRAD_EPS)


@dataclass
class TrainResult:
    model: Model
    log: list[tuple[int, float]] = field(default_factory=list)
    diverged: bool = False

    @property
    def losses(self) -> list[float]:
        return [loss for _, loss in self.log]


def _batch_loss_and_grads(model: Model, pairs: list[TrainingPair],
                          positions: list[np.ndarray], temperature: float):
    """Mean InfoNCE over the batch plus ``backward_batch``'s gradients of what learns
    on ``model``: every tensor, or an extended table's free rows.

    ``positions`` carries one position array per flattened sequence, in pair
    order (query, positive, negatives...).

    The sequences run through the encoder in the batches that
    ``padded_batches`` cuts, as at inference, and each batch is pooled and
    un-pooled by one call. Embeddings do not depend on their batch
    neighbours, the loss is per pair and gradients add, so the batching
    changes only float rounding against one block padded to the longest
    sequence.
    """
    seqs = [s for pair in pairs for s in pair.sequences()]
    embs = np.empty((len(seqs), model.config.hidden_size))
    batches = []
    for rows, tokens, mask, pos in padded_batches(seqs, positions):
        hidden, cache = forward_batch(model, tokens, mask, positions=pos, want_cache=True)
        embs[rows] = pool_and_normalize(hidden, mask)
        batches.append((rows, hidden, mask, cache))

    total, d_embs = 0.0, np.empty_like(embs)
    inv_b = 1.0 / len(pairs)
    bounds = np.cumsum([0, *(len(pair.negatives) + 2 for pair in pairs)])
    for a, b in zip(bounds, bounds[1:]):  # one pair's sequences
        loss, d_embs[a:b] = _contrastive_loss_grads(embs[a:b], temperature)
        total += loss * inv_b
    d_embs *= inv_b

    grads = None  # the first batch allocates the gradient set, the others add into it
    for rows, hidden, mask, cache in batches:
        d_hidden = pool_and_normalize_backward(hidden, mask, d_embs[rows])
        grads = backward_batch(model, cache, d_hidden, grads=grads)
    return total, grads


def _run_training(model: Model, pairs: list[TrainingPair], config: TuneConfig) -> TrainResult:
    """Shared loop: shuffle, batch, shift, step, watch for NaN.

    What trains follows from the model through ``backward_batch``, and every
    sequence must fit its original context, checked before any step. On an
    extended model, sequences are shifted by a per-sequence skip bias. A
    non-finite loss or gradient stops the run with the parameters of the last
    logged step, restored from a copy of the trained tensors taken before
    each optimizer step.
    """
    max_len = model.config.original_context
    for seq in (s for pair in pairs for s in pair.sequences()):
        if seq.size > max_len:
            raise ValidationError(f"training sequence of {seq.size} tokens exceeds the "
                                  f"model's original context {max_len}")
    work = model.copy()
    rng = np.random.default_rng(config.seed)
    opt = Adagrad(config.learning_rate, config.warmup_steps)
    log: list[tuple[int, float]] = []
    good: dict[str, np.ndarray] = {}
    for _epoch in range(config.epochs):
        order = rng.permutation(len(pairs))
        for start in range(0, len(pairs), config.batch_size):
            if config.max_steps is not None and len(log) >= config.max_steps:
                return TrainResult(model=work, log=log)
            batch = [pairs[i] for i in order[start:start + config.batch_size]]
            positions = _training_positions(work, batch, rng)
            try:
                loss, grads = _batch_loss_and_grads(work, batch, positions, config.temperature)
            except NumericError:
                loss = math.nan
            if not (math.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())):
                work.params.update(good)
                return TrainResult(model=work, log=log, diverged=True)
            good = {name: work.params[name].copy() for name in grads}
            opt.step(work.params, grads)
            log.append((len(log) + 1, loss))
    return TrainResult(model=work, log=log)


def tune(model: Model, pairs: list[TrainingPair], config: TuneConfig) -> TrainResult:
    """Train only the learnable rows of the extended position table.

    The model must already carry ``config.extension`` (see extend_for_tuning),
    which fixes the frozen rows. On such a model ``backward_batch`` returns
    ``pos_table``'s gradient alone, with the frozen rows exactly 0, so all
    transformer weights, token embeddings, and frozen rows are bit-identical
    before and after. Sequences longer than the original context raise
    ValidationError, even when no step would run. Attention scaling stays
    off during training. A non-finite loss or gradient aborts with the
    parameters of the last logged step.
    """
    if model.extension != config.extension:
        raise ConfigurationError(
            f"model must carry {config.extension}, not {model.extension}; "
            "call extend_for_tuning first"
        )
    return _run_training(model, pairs, config)


def train_model(model: Model, pairs: list[TrainingPair], config: TuneConfig) -> TrainResult:
    """Contrastive training of every parameter, with identity positions.

    Used to fit toy base encoders from scratch (either position mode); the
    tuning-specific position shift is off.
    """
    if model.extension is not None:
        raise ConfigurationError("base training expects an unextended model")
    return _run_training(model, pairs, config)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(
    model: Model,
    pair: TrainingPair,
    config: TuneConfig,
    *,
    eps: float = 1e-5,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Compares d(loss)/d(row) over the learnable position rows for one tuning
    batch with fixed position shifts. Intended for tiny models only.
    """
    cfg = model.config
    if cfg.hidden_size > 32 or cfg.n_layers > 2:
        raise ConfigurationError("grad_check is for tiny models (d <= 32, <= 2 layers)")
    if model.extension is None:
        raise ConfigurationError("grad_check needs a model extended for tuning")
    rng = np.random.default_rng(0) if rng is None else rng

    positions = _training_positions(model, [pair], rng)

    def loss_at(m: Model) -> float:
        loss, _ = _batch_loss_and_grads(m, [pair], positions, config.temperature)
        return loss

    _, grads = _batch_loss_and_grads(model, [pair], positions, config.temperature)
    analytic = grads["pos_table"]

    work = model.copy()
    table = work.params["pos_table"]
    learnable_rows = np.flatnonzero(~model.extension.frozen)
    worst = 0.0
    for r in learnable_rows:
        for c in range(cfg.hidden_size):
            orig = table[r, c]
            table[r, c] = orig + eps
            up = loss_at(work)
            table[r, c] = orig - eps
            down = loss_at(work)
            table[r, c] = orig
            fd = (up - down) / (2.0 * eps)
            err = abs(analytic[r, c] - fd) / max(abs(analytic[r, c]), abs(fd), 1e-6)
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# training data from retrieval tasks


def training_pairs_from_task(
    task: RetrievalTask,
    vocab_size: int,
    n_negatives: int,
    rng: np.random.Generator,
    *,
    max_len: int,
) -> list[TrainingPair]:
    """Contrastive triples from a retrieval task's judged pairs.

    A query's positive is its judged document with the highest score, the
    smallest id among equals; a query whose best score is not positive raises
    ValidationError naming the task and the query. Negatives are other
    candidate documents; when the pool runs short, the remainder are
    word-shuffled copies of the positive. Sequences are truncated to
    ``max_len`` tokens, the trained model's original context. A query,
    positive or chosen negative with no tokens raises ValidationError naming
    the task and its id.
    """
    doc_ids = sorted(task.docs)
    toks = {d: tokenize(task.docs[d], vocab_size) for d in doc_ids}

    pairs = []
    for qid in sorted(task.queries):
        rels = task.qrels[qid]
        gold = min(rels, key=lambda d: (-rels[d], d))
        if rels[gold] <= 0:
            raise ValidationError(f"task {task.name!r}: query {qid!r} has no document judged "
                                  f"relevant (best score {rels[gold]})")
        others = [d for d in doc_ids if d not in rels]
        take = min(n_negatives, len(others))
        chosen = [others[i] for i in rng.choice(len(others), size=take, replace=False)] if take else []
        query = tokenize(task.queries[qid], vocab_size)
        for role, rid, ids in (("query", qid, query), ("positive document", gold, toks[gold]),
                               *(("negative document", d, toks[d]) for d in chosen)):
            if ids.size == 0:
                raise ValidationError(f"task {task.name!r}: {role} {rid!r} has no tokens")
        positive = toks[gold][:max_len]
        negatives = [toks[d][:max_len] for d in chosen]
        while len(negatives) < n_negatives:
            negatives.append(rng.permutation(positive))
        pairs.append(TrainingPair(query=query[:max_len], positive=positive, negatives=negatives))
    return pairs
