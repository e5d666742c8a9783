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
    ValidationError,
    check_types,
)
from .positions import ExtensionSpec, resolve_extension
from .synth import RetrievalTask
from .tokenizer import tokenize


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
        if len(self.ids) and not np.allclose(
            np.linalg.norm(self.vectors, axis=1), 1.0, atol=1e-6
        ):
            raise ValidationError("index vectors must be unit-norm within 1e-6")

    def __len__(self) -> int:
        return len(self.ids)


def search(index: EmbeddingIndex, query: np.ndarray, k: int) -> list[str]:
    """Top-k ids by descending dot product; ties broken by ascending id."""
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if len(index) == 0:
        raise EmptyInputError("cannot search an empty index")
    scores = index.vectors @ np.asarray(query, dtype=np.float64)
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
    """Tokenizes and encodes texts with a model under one extension spec.

    Implements the embedder protocol that ``run_benchmark`` calls for both
    documents and queries: ``embed(texts)`` returns one unit vector or None
    per text, plus ``(index, reason)`` for every None. Texts that are empty or
    longer than the target window come back as None, so benchmark runs can
    continue around unretrievable documents.
    """

    def __init__(self, model: Model, spec: ExtensionSpec, *, attn_scaling: bool = True):
        resolve_extension(spec, model.config.position_mode)  # fail fast
        self.model = model
        self.spec = spec
        self.attn_scaling = attn_scaling

    def embed(self, texts: list[str]) -> tuple[list[np.ndarray | None], list[tuple[int, str]]]:
        vocab = self.model.config.vocab_size
        seqs, keep, errors = [], [], []
        for i, text in enumerate(texts):
            ids = tokenize(text, vocab)
            if ids.size == 0:
                errors.append((i, "empty text"))
            elif ids.size > self.spec.l_target:
                errors.append((i, f"{ids.size} tokens > target window {self.spec.l_target}"))
            else:
                seqs.append(ids)
                keep.append(i)
        out: list[np.ndarray | None] = [None] * len(texts)
        if seqs:
            vecs = encode_many(self.model, seqs, self.spec, attn_scaling=self.attn_scaling)
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


def _spec_metadata(spec: ExtensionSpec | None, notes: list[str]) -> dict:
    if spec is None:
        return {"strategy": "external-embedder"}
    return {
        "strategy": spec.strategy.value,
        "l_orig": spec.l_orig,
        "l_target": spec.l_target,
        "scale": spec.scale,
        "ntk_lambda": spec.ntk_lambda,
        "group_size": spec.group_size,
        "window": spec.window,
        "resolution_notes": notes,
    }


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
    embedder, notes = model, []
    if isinstance(model, Model):
        if spec is None:
            raise ConfigurationError("a Model needs an ExtensionSpec to run the benchmark")
        embedder = ModelEmbedder(model, spec, attn_scaling=attn_scaling)
        notes.extend(resolve_extension(spec, model.config.position_mode).notes)
        notes.append("attention scaling formula: max(1, log n / log l_orig) on logits")

    keys, synthetic_groups = set(), {b.group for b in tasks if b.length is not None}
    for bench in tasks:  # each score needs its own key in the report
        name = bench.group if bench.length is None else f"{bench.group}/{bench.length}"
        if (bench.group, bench.length) in keys:
            raise ValidationError(f"task {name!r} is given twice")
        if bench.length is None and bench.group in synthetic_groups:
            raise ValidationError(f"group {name!r} is both a synthetic and a real task")
        keys.add((bench.group, bench.length))

    synthetic: dict[str, dict[int, float]] = {}
    real: dict[str, float] = {}
    skipped: dict[str, dict[str, int]] = {}

    for bench in tasks:
        task = bench.task
        doc_ids = sorted(task.docs)
        doc_vecs, doc_errors = embedder.embed([task.docs[d] for d in doc_ids])
        kept = [(doc_ids[i], v) for i, v in enumerate(doc_vecs) if v is not None]
        if not kept:
            index = None
        else:
            ids, vecs = zip(*kept)
            index = EmbeddingIndex(ids=tuple(ids), vectors=np.stack(vecs))

        qids = sorted(task.queries)
        q_vecs, q_errors = embedder.embed([task.queries[q] for q in qids])
        rankings: dict[str, list[str]] = {}
        for i, qid in enumerate(qids):
            if q_vecs[i] is None or index is None:
                rankings[qid] = []
            else:
                rankings[qid] = search(index, q_vecs[i], k=max(10, len(index)))

        if bench.metric == "acc@1":
            score = acc_at_1(rankings, task.qrels)
            synthetic.setdefault(bench.group, {})[bench.length] = score
        else:
            per_query, excluded = ndcg_details(rankings, task.qrels, k=10)
            score = sum(per_query.values()) / len(per_query) if per_query else 0.0
            real[bench.group] = score
            if excluded:
                skipped.setdefault(task.name, {})["zero_relevance_queries"] = len(excluded)
        if doc_errors:
            skipped.setdefault(task.name, {})["unretrievable_docs"] = len(doc_errors)
        if q_errors:
            skipped.setdefault(task.name, {})["failed_queries"] = len(q_errors)

    task_scores: dict[str, float] = {}
    for group, buckets in synthetic.items():
        task_scores[group] = sum(buckets.values()) / len(buckets)
    task_scores.update(real)
    average = sum(task_scores.values()) / len(task_scores) if task_scores else 0.0

    return EvalReport(
        tool_version=__version__,
        created_utc=time.time(),
        seed=seed,
        spec=_spec_metadata(spec, notes),
        attn_scaling=attn_scaling,
        synthetic=synthetic,
        real=real,
        task_scores=task_scores,
        average=average,
        skipped=skipped,
        notes=notes,
        run_config=run_config,
    )
