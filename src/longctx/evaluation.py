"""Exact brute-force dense retrieval over candidate embeddings, plus metrics.

Search is full cosine ranking (dot products over unit vectors) with
deterministic ascending-id tie-breaking. Acc@1 scores the synthetic buckets,
nDCG@10 (gains 2^rel - 1, log2 discounts) the ingested datasets. The
benchmark runner embeds each task's shared candidates exactly once, records
documents that exceed the target window as unretrievable, and assembles a
serializable report whose average is the arithmetic mean of per-task scores.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .encoder import Model, encode_many
from .errors import (
    ConfigurationError,
    EmptyInputError,
    EvaluationError,
    LengthError,
    ValidationError,
    check_types,
)
from .positions import ExtensionSpec, ResolvedExtension, check_input_length, resolve_extension
from .synth import RetrievalTask
from .tokenizer import tokenize


def _unit_norm(vectors: np.ndarray) -> bool:
    """Whether every row (the last axis) has L2 norm 1 within 1e-6; NaN or inf never does."""
    return bool(np.allclose(np.linalg.norm(vectors, axis=-1), 1.0, atol=1e-6))


@dataclass(frozen=True)
class EmbeddingIndex:
    """Unit-norm document vectors with a parallel id list."""

    ids: tuple[str, ...]
    vectors: np.ndarray  # (N, d)

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.ids):
            raise ValidationError(
                f"index shape {self.vectors.shape} does not match {len(self.ids)} ids"
            )
        if len(self.ids) and not _unit_norm(self.vectors):
            raise ValidationError("index vectors must be unit-norm within 1e-6")

    def __len__(self) -> int:
        return len(self.ids)


def search(index: EmbeddingIndex, query: np.ndarray, k: int) -> list[str]:
    """Top-k ids by descending dot product; ties broken by ascending id.

    The query must be a finite 1-D vector of the index's dimension; the
    ranking does not change when it is scaled by a positive number.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if len(index) == 0:
        raise EmptyInputError("cannot search an empty index")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != index.vectors.shape[1:] or not np.isfinite(query).all():
        raise ValidationError(f"a query must be a finite vector of shape "
                              f"{index.vectors.shape[1:]}, got {query.shape}")
    scores = index.vectors @ query
    order = np.lexsort((np.asarray(index.ids), -scores))
    return [index.ids[i] for i in order[:k]]


def acc_at_1(rankings: dict[str, list[str]], qrels: dict[str, dict[str, int]]) -> float:
    """Fraction of queries whose top-ranked document is relevant."""
    if not rankings:
        raise EmptyInputError("no rankings to score")
    hits = 0
    for qid, ranked in rankings.items():
        if qid not in qrels:
            raise EvaluationError(f"no relevance judgments for query {qid!r}")
        if ranked and qrels[qid].get(ranked[0], 0) > 0:
            hits += 1
    return hits / len(rankings)


def _dcg(rels: list[int], k: int) -> float:
    return sum(
        (2 ** rel - 1) / math.log2(rank + 1)
        for rank, rel in enumerate(rels[:k], start=1)
    )


def ndcg_details(
    rankings: dict[str, list[str]],
    qrels: dict[str, dict[str, int]],
    k: int = 10,
) -> tuple[dict[str, float], list[str]]:
    """Per-query nDCG@k plus the ids excluded for having zero total relevance."""
    per_query: dict[str, float] = {}
    excluded: list[str] = []
    for qid, ranked in rankings.items():
        if qid not in qrels:
            raise EvaluationError(f"no relevance judgments for query {qid!r}")
        rels = qrels[qid]
        ideal = _dcg(sorted(rels.values(), reverse=True), k)
        if ideal <= 0.0:
            excluded.append(qid)
            continue
        got = _dcg([rels.get(did, 0) for did in ranked], k)
        per_query[qid] = got / ideal
    return per_query, excluded


def ndcg_at_10(rankings: dict[str, list[str]], qrels: dict[str, dict[str, int]]) -> float:
    """Mean per-query DCG@10 / ideal DCG@10 over queries with any relevance."""
    per_query, excluded = ndcg_details(rankings, qrels, k=10)
    if not per_query:
        raise EvaluationError(
            f"every query was excluded for zero total relevance ({len(excluded)} queries)"
        )
    return sum(per_query.values()) / len(per_query)


# ---------------------------------------------------------------------------
# embedders


class ModelEmbedder:
    """Tokenizes and encodes texts with a model under one resolved extension.

    Implements the embedder protocol that ``run_benchmark`` calls for both
    documents and queries: ``embed(texts)`` returns one unit vector or None
    per text, plus ``(index, reason)`` for every None. Texts that
    ``check_input_length`` refuses (empty, or longer than the target window)
    come back as None with its message, so benchmark runs can continue around
    unretrievable documents.
    """

    def __init__(self, model: Model, spec: ExtensionSpec, *, attn_scaling: bool = True):
        self.resolved = resolve_extension(spec, model.config.position_mode)  # fail fast
        self.model = model
        self.attn_scaling = attn_scaling

    def embed(self, texts: list[str]) -> tuple[list[np.ndarray | None], list[tuple[int, str]]]:
        vocab = self.model.config.vocab_size
        seqs, keep, errors = [], [], []
        for i, text in enumerate(texts):
            ids = tokenize(text, vocab)
            try:
                check_input_length(ids.size, self.resolved.l_target)
            except (EmptyInputError, LengthError) as exc:
                errors.append((i, str(exc)))
                continue
            seqs.append(ids)
            keep.append(i)
        out: list[np.ndarray | None] = [None] * len(texts)
        if seqs:
            vecs = encode_many(self.model, seqs, self.resolved, attn_scaling=self.attn_scaling)
            for j, i in enumerate(keep):
                out[i] = vecs[j]
        return out, errors


# ---------------------------------------------------------------------------
# benchmark runner and report


@dataclass(frozen=True)
class BenchmarkTask:
    """One scored unit: a synthetic bucket (acc@1) or a real dataset (ndcg@10)."""

    task: RetrievalTask
    metric: str  # "acc@1" | "ndcg@10"
    group: str  # "passkey" / "needle" / dataset name
    length: int | None = None  # bucket length of a synthetic task; None for a real one

    def __post_init__(self):
        check_types(vars(self), self.__annotations__)
        if self.metric not in ("acc@1", "ndcg@10"):
            raise ConfigurationError(f"unknown metric {self.metric!r}")
        if (self.length is None) != (self.metric == "ndcg@10"):
            raise ConfigurationError(f"an acc@1 task needs a bucket length and an ndcg@10 task "
                                     f"none; {self.group!r} has {self.metric} and length "
                                     f"{self.length!r}")


@dataclass
class EvalReport:
    """Per-bucket and per-dataset scores with their macro average."""

    tool_version: str
    created_utc: float
    seed: int | None
    spec: dict
    attn_scaling: bool
    synthetic: dict[str, dict[int, float]]
    real: dict[str, float]
    task_scores: dict[str, float]
    average: float
    skipped: dict[str, dict[str, int]]
    notes: list[str]
    run_config: dict | None = None

    def to_dict(self) -> dict:
        """The fields as JSON-ready data; bucket lengths become string keys."""
        out = asdict(self)
        out["synthetic"] = {g: {str(l): v for l, v in buckets.items()}
                            for g, buckets in self.synthetic.items()}
        return out


def _spec_metadata(resolved: ResolvedExtension | None, notes: list[str]) -> dict:
    """The strategy that ran, with the parameters it ran with."""
    if resolved is None:
        return {"strategy": "external-embedder"}
    return {
        "strategy": resolved.strategy.value,
        "l_orig": resolved.l_orig,
        "l_target": resolved.l_target,
        "scale": resolved.scale,
        "ntk_lambda": resolved.ntk_lambda,
        "group_size": resolved.group_size,
        "window": resolved.window,
        "resolution_notes": notes,
    }


def _embed(embedder, texts: list[str], task: str) -> tuple[list, list]:
    """``embedder.embed(texts)``, refused unless it returns one vector or None per
    text, every vector of one shape."""
    vecs, errors = embedder.embed(texts)
    shapes = sorted({np.shape(v) for v in vecs if v is not None})
    if len(vecs) != len(texts) or len(shapes) > 1:
        raise ValidationError(f"task {task!r}: the embedder returned {len(vecs)} vectors of "
                              f"shapes {shapes} for {len(texts)} texts")
    return vecs, errors


def run_benchmark(
    model,
    spec: ExtensionSpec | None,
    tasks: list[BenchmarkTask],
    *,
    attn_scaling: bool = True,
    seed: int | None = None,
    run_config: dict | None = None,
) -> EvalReport:
    """Encode, rank, and score every task; deterministic given its inputs.

    ``model`` is a Model (paired with ``spec``) or any object with an
    ``embed`` method following ModelEmbedder's protocol.
    Documents that cannot be encoded are recorded and scored unretrievable;
    the run continues.
    """
    embedder, resolved, notes = model, None, []
    if isinstance(model, Model):
        if spec is None:
            raise ConfigurationError("a Model needs an ExtensionSpec to run the benchmark")
        embedder = ModelEmbedder(model, spec, attn_scaling=attn_scaling)
        resolved = embedder.resolved
        notes.extend(resolved.notes)
        notes.append("attention scaling formula: max(1, log n / log l_orig) on logits")

    names, synthetic_groups = [], {b.group for b in tasks if b.length is not None}
    for bench in tasks:  # each score needs its own key in the report
        name = bench.group if bench.length is None else f"{bench.group}/{bench.length}"
        if name in names:
            raise ValidationError(f"task {name!r} is given twice")
        if bench.length is None and bench.group in synthetic_groups:
            raise ValidationError(f"group {name!r} is both a synthetic and a real task")
        names.append(name)

    synthetic: dict[str, dict[int, float]] = {}
    real: dict[str, float] = {}
    skipped: dict[str, dict[str, int]] = {}

    for name, bench in zip(names, tasks):
        task = bench.task
        doc_ids = sorted(task.docs)
        doc_vecs, doc_errors = _embed(embedder, [task.docs[d] for d in doc_ids], task.name)
        kept = [(doc_ids[i], v) for i, v in enumerate(doc_vecs) if v is not None]
        if not kept:
            index = None
        else:
            ids, vecs = zip(*kept)
            index = EmbeddingIndex(ids=tuple(ids), vectors=np.stack(vecs))

        qids = sorted(task.queries)
        q_vecs, q_errors = _embed(embedder, [task.queries[q] for q in qids], task.name)
        rankings: dict[str, list[str]] = {}
        for qid, vec in zip(qids, q_vecs):
            if vec is None or index is None:
                rankings[qid] = []
            elif not _unit_norm(vec):
                raise ValidationError(f"task {task.name!r}: query {qid!r} is not a unit-norm "
                                      "vector within 1e-6")
            else:
                rankings[qid] = search(index, vec, k=max(10, len(index)))

        if bench.metric == "acc@1":
            score = acc_at_1(rankings, task.qrels)
            synthetic.setdefault(bench.group, {})[bench.length] = score
        else:
            per_query, excluded = ndcg_details(rankings, task.qrels, k=10)
            score = sum(per_query.values()) / len(per_query) if per_query else 0.0
            real[bench.group] = score
            if excluded:
                skipped.setdefault(name, {})["zero_relevance_queries"] = len(excluded)
        if doc_errors:
            skipped.setdefault(name, {})["unretrievable_docs"] = len(doc_errors)
        if q_errors:
            skipped.setdefault(name, {})["failed_queries"] = len(q_errors)

    task_scores: dict[str, float] = {}
    for group, buckets in synthetic.items():
        task_scores[group] = sum(buckets.values()) / len(buckets)
    task_scores.update(real)
    average = sum(task_scores.values()) / len(task_scores) if task_scores else 0.0

    return EvalReport(
        tool_version=__version__,
        created_utc=time.time(),
        seed=seed,
        spec=_spec_metadata(resolved, notes),
        attn_scaling=attn_scaling,
        synthetic=synthetic,
        real=real,
        task_scores=task_scores,
        average=average,
        skipped=skipped,
        notes=notes,
        run_config=run_config,
    )
