import itertools
import math

import numpy as np
import pytest

from longctx import (
    EmbeddingIndex,
    ExtensionSpec,
    acc_at_1,
    encode_many,
    ndcg_at_10,
    run_benchmark,
    search,
)
from longctx.errors import ConfigurationError, EmptyInputError, EvaluationError, ValidationError
from longctx.evaluation import BenchmarkTask, ModelEmbedder, ndcg_details
from longctx.positions import resolve_extension
from longctx.synth import OracleEmbedder, SyntheticTaskConfig, build_bucket


def unit_rows(rng, n, d=8):
    v = rng.normal(size=(n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# --- search -------------------------------------------------------------------


def test_self_retrieval_is_top_one(rng):
    vecs = unit_rows(rng, 5)
    index = EmbeddingIndex(ids=tuple(f"d{i}" for i in range(5)), vectors=vecs)
    assert search(index, vecs[3], k=1) == ["d3"]


def test_k_larger_than_index_returns_full_ranking(rng):
    vecs = unit_rows(rng, 4)
    index = EmbeddingIndex(ids=("a", "b", "c", "d"), vectors=vecs)
    assert len(search(index, vecs[0], k=50)) == 4


def test_ties_break_by_ascending_id(rng):
    v = unit_rows(rng, 1)[0]
    index = EmbeddingIndex(ids=("z", "a"), vectors=np.stack([v, v]))
    assert search(index, v, k=2) == ["a", "z"]


def test_empty_index_rejected():
    index = EmbeddingIndex(ids=(), vectors=np.zeros((0, 4)))
    with pytest.raises(EmptyInputError):
        search(index, np.zeros(4), k=1)


def test_index_requires_unit_norm(rng):
    with pytest.raises(Exception):
        EmbeddingIndex(ids=("a",), vectors=np.array([[2.0, 0.0]]))


def test_rankings_invariant_under_positive_scaling(rng):
    vecs = unit_rows(rng, 12)
    index = EmbeddingIndex(ids=tuple(f"{i:02d}" for i in range(12)), vectors=vecs)
    q = unit_rows(rng, 1)[0]
    base = search(index, q, k=12)
    assert base == search(index, 7.3 * q, k=12)


# --- acc@1 ----------------------------------------------------------------------


def test_acc_examples():
    qrels = {"q1": {"d1": 1}, "q2": {"d2": 1}}
    assert acc_at_1({"q1": ["d1"], "q2": ["d2"]}, qrels) == 1.0
    assert acc_at_1({"q1": ["d2"], "q2": ["d1"]}, qrels) == 0.0
    assert acc_at_1({"q1": ["d1"], "q2": ["d9"]}, qrels) == 0.5


def test_acc_missing_qrel_names_query():
    with pytest.raises(EvaluationError, match="q2"):
        acc_at_1({"q2": ["d1"]}, {"q1": {"d1": 1}})


# --- ndcg@10 ---------------------------------------------------------------------


def brute_force_ndcg(ranked, rels, k=10):
    """Independent oracle: naive DCG; ideal found by exhausting all orderings."""
    def dcg(order):
        return sum((2 ** rels.get(d, 0) - 1) / math.log2(r + 1)
                   for r, d in enumerate(order[:k], start=1))
    best = max(dcg(list(p)) for p in itertools.permutations(rels))
    return dcg(ranked) / best


def test_single_relevant_at_rank_one_is_perfect():
    assert ndcg_at_10({"q": ["d1", "d2"]}, {"q": {"d1": 1}}) == 1.0


def test_single_relevant_at_rank_three_is_half():
    ranking = {"q": ["x", "y", "gold", "z"]}
    assert math.isclose(ndcg_at_10(ranking, {"q": {"gold": 1}}), 0.5, rel_tol=0, abs_tol=1e-12)


def test_matches_exhaustive_oracle(rng):
    for trial in range(40):
        n = int(rng.integers(2, 8))
        docs = [f"d{i}" for i in range(n)]
        rels = {d: int(rng.integers(0, 4)) for d in docs}
        if sum(rels.values()) == 0:
            rels[docs[0]] = 1
        ranked = list(rng.permutation(docs))
        ours = ndcg_at_10({"q": ranked}, {"q": rels})
        oracle = brute_force_ndcg(ranked, rels)
        assert abs(ours - oracle) < 1e-9


def test_zero_relevance_queries_are_excluded_and_counted():
    rankings = {"q1": ["d1"], "q2": ["d1"]}
    qrels = {"q1": {"d1": 1}, "q2": {"d1": 0}}
    per_query, excluded = ndcg_details(rankings, qrels)
    assert set(per_query) == {"q1"}
    assert excluded == ["q2"]
    assert ndcg_at_10(rankings, qrels) == 1.0


def test_graded_gains_use_two_power_rel(rng):
    # rel=2 at rank 1 vs rel=1 at rank 1: gains 3 vs 1
    rels = {"a": 2, "b": 1}
    got = ndcg_at_10({"q": ["b", "a"]}, {"q": rels})
    ideal = 3 / math.log2(2) + 1 / math.log2(3)
    dcg = 1 / math.log2(2) + 3 / math.log2(3)
    assert math.isclose(got, dcg / ideal, rel_tol=1e-12)


# --- benchmark runner --------------------------------------------------------------


def _bucket_tasks(kind, lengths, seed=5):
    cfg = SyntheticTaskConfig(kind=kind, length_grid=lengths, queries_per_length=5,
                              candidates_per_length=10, seed=seed)
    return [BenchmarkTask(task=build_bucket(cfg, l), metric="acc@1", group=kind, length=l)
            for l in lengths]


def test_oracle_embedder_scores_perfectly_on_small_grid():
    tasks = _bucket_tasks("passkey", (64, 128)) + _bucket_tasks("needle", (64, 128))
    report = run_benchmark(OracleEmbedder(), None, tasks)
    assert report.synthetic == {"passkey": {64: 1.0, 128: 1.0}, "needle": {64: 1.0, 128: 1.0}}
    assert report.average == 1.0


def test_average_is_mean_of_task_scores(tiny_absolute):
    tasks = _bucket_tasks("passkey", (64,))
    spec = ExtensionSpec(strategy="rp", l_orig=8, l_target=64)
    report = run_benchmark(tiny_absolute, spec, tasks)
    assert set(report.task_scores) == {"passkey"}
    expected = sum(report.synthetic["passkey"].values()) / len(report.synthetic["passkey"])
    assert math.isclose(report.average, sum(report.task_scores.values()) / len(report.task_scores))
    assert math.isclose(report.task_scores["passkey"], expected)
    assert 0.0 <= report.average <= 1.0


def test_too_long_documents_are_recorded_not_fatal(tiny_absolute):
    tasks = _bucket_tasks("passkey", (128,))
    spec = ExtensionSpec.none(8)  # window of 8 tokens: every doc is too long
    report = run_benchmark(tiny_absolute, spec, tasks)
    assert report.synthetic["passkey"][128] == 0.0
    assert report.skipped["passkey/128"]["unretrievable_docs"] == 10


@pytest.mark.parametrize("spec, ran", [
    (ExtensionSpec(strategy="ntk", l_orig=8, l_target=16),
     {"ntk_lambda": 3.0, "group_size": None, "window": None}),
    (ExtensionSpec(strategy="se", l_orig=8, l_target=16),
     {"ntk_lambda": None, "group_size": 3, "window": 1}),
    (ExtensionSpec(strategy="se", l_orig=8, l_target=16, group_size=4, window=2),
     {"ntk_lambda": None, "group_size": 4, "window": 2}),
], ids=["ntk-from-table", "se-from-fallback", "se-given"])
def test_report_spec_holds_the_parameters_that_ran(tiny_rotary, spec, ran):
    report = run_benchmark(tiny_rotary, spec, _bucket_tasks("passkey", (16,)))
    assert {key: report.spec[key] for key in ran} == ran


def test_model_embedder_flags_overlong_docs(tiny_absolute):
    emb = ModelEmbedder(tiny_absolute, ExtensionSpec.none(8))
    vecs, errors = emb.embed(["one two three", " ".join(["w"] * 50)])
    assert vecs[0] is not None and vecs[1] is None
    assert errors and errors[0][0] == 1


def test_benchmark_is_deterministic(tiny_absolute):
    tasks = _bucket_tasks("needle", (64, 128))
    spec = ExtensionSpec(strategy="gp", l_orig=8, l_target=128)
    a = run_benchmark(tiny_absolute, spec, tasks, seed=1)
    b = run_benchmark(tiny_absolute, spec, tasks, seed=1)
    assert a.synthetic == b.synthetic
    assert a.task_scores == b.task_scores
    assert a.average == b.average


def test_documents_embedded_once_per_task(tiny_absolute, monkeypatch):
    calls = []
    emb = ModelEmbedder(tiny_absolute, ExtensionSpec(strategy="rp", l_orig=8, l_target=64))
    original = emb.embed

    def counting(texts):
        calls.append(len(texts))
        return original(texts)

    emb.embed = counting
    tasks = _bucket_tasks("passkey", (64,))
    run_benchmark(emb, None, tasks)
    assert calls == [10, 5]  # one pass over the shared candidates, then one over the queries


class _RefusingEmbedder:
    def embed(self, texts):
        raise AssertionError("a text was encoded before the task keys were checked")


def _real(group):
    return BenchmarkTask(task=_bucket_tasks("needle", (64,))[0].task, metric="ndcg@10",
                         group=group)


@pytest.mark.parametrize("tasks, message", [
    (lambda: _bucket_tasks("passkey", (64,)) + _bucket_tasks("passkey", (64,), seed=6),
     "task 'passkey/64' is given twice"),
    (lambda: [_real("beir"), _real("beir")], "task 'beir' is given twice"),
    (lambda: _bucket_tasks("passkey", (64,)) + [_real("passkey")],
     "group 'passkey' is both a synthetic and a real task"),
], ids=["synthetic-bucket", "real-group", "synthetic-and-real"])
def test_two_tasks_with_one_report_key_are_refused_before_encoding(tasks, message):
    with pytest.raises(ValidationError, match=message):
        run_benchmark(_RefusingEmbedder(), None, tasks())


@pytest.mark.parametrize("metric, length, message", [
    ("acc@1", None, "an acc@1 task needs a bucket length"),
    ("acc@1", "64", "'length' must be int | None"),
    ("ndcg@10", 64, "and an ndcg@10 task none"),
], ids=["acc-without-length", "acc-with-str-length", "ndcg-with-length"])
def test_a_benchmark_task_length_matches_its_metric(metric, length, message):
    task = _bucket_tasks("passkey", (64,))[0].task
    with pytest.raises(ConfigurationError, match=message):
        BenchmarkTask(task=task, metric=metric, group="passkey", length=length)


# --- what an embedder returns --------------------------------------------------


def test_search_refuses_a_query_of_the_wrong_shape_or_not_finite(rng):
    index = EmbeddingIndex(ids=("a", "b"), vectors=unit_rows(rng, 2))
    for query in (unit_rows(rng, 1, d=4)[0], unit_rows(rng, 1), np.full(8, np.nan)):
        with pytest.raises(ValidationError, match=r"a query must be a finite vector of shape \(8,\)"):
            search(index, query, k=1)


class _FaultyOracle(OracleEmbedder):
    """An oracle whose result for every second embed call, a task's queries, is changed."""

    def __init__(self, fault, on_queries=True):
        self.fault, self.on_queries, self.calls = fault, on_queries, 0

    def embed(self, texts):
        vecs, errors = super().embed(texts)
        self.calls += 1
        if (self.calls % 2 == 0) == self.on_queries:
            vecs = self.fault(vecs)
        return vecs, errors


@pytest.mark.parametrize("fault, on_queries, message", [
    (lambda v: [x[:4] / np.linalg.norm(x[:4]) for x in v], True,
     r"a query must be a finite vector of shape \(128,\), got \(4,\)"),
    (lambda v: [np.full_like(x, np.nan) for x in v], True,
     "query 'q0000' is not a unit-norm vector"),
    (lambda v: [2 * x for x in v], True, "query 'q0000' is not a unit-norm vector"),
    (lambda v: v[:-2], True, r"the embedder returned 3 vectors of shapes \[\(128,\)\] for 5 "),
    (lambda v: v[:-2], False, r"the embedder returned 8 vectors of shapes \[\(128,\)\] for 10 "),
    (lambda v: [np.eye(4)[0], *v[1:]], False,
     r"the embedder returned 10 vectors of shapes \[\(4,\), \(128,\)\] for 10 texts"),
], ids=["4-d-query", "nan-query", "non-unit-query", "queries-short", "documents-short",
        "documents-of-two-shapes"])
def test_run_benchmark_refuses_what_an_embedder_should_not_return(fault, on_queries, message):
    tasks = _bucket_tasks("passkey", (64,))
    with pytest.raises(ValidationError, match=message) as info:
        run_benchmark(_FaultyOracle(fault, on_queries), None, tasks)
    if "a query must be" not in message:
        assert f"task {tasks[0].task.name!r}" in str(info.value)


# --- one resolution from the flag to the forward pass --------------------------


@pytest.mark.parametrize("model_name, spec", [
    ("tiny_rotary", ExtensionSpec(strategy="ntk", l_orig=8, l_target=64)),
    ("tiny_rotary", ExtensionSpec(strategy="se", l_orig=8, l_target=64)),
    ("tiny_rotary", ExtensionSpec(strategy="pcw", l_orig=8, l_target=64)),
    ("tiny_absolute", ExtensionSpec(strategy="pi", l_orig=8, l_target=64)),
    ("tiny_absolute", ExtensionSpec(strategy="rp", l_orig=8, l_target=64)),
], ids=["ntk", "se", "pcw", "pi-absolute", "rp"])
def test_a_resolution_runs_as_its_spec_does(request, model_name, spec):
    model = request.getfixturevalue(model_name)
    resolved = resolve_extension(spec, model.config.position_mode)
    seqs = [np.arange(n) % 64 for n in (3, 8, 9, 40, 64)]
    assert encode_many(model, seqs, resolved).tobytes() == encode_many(model, seqs, spec).tobytes()
    assert ModelEmbedder(model, resolved).resolved is resolved
    texts = ["one two three", " ".join(["w"] * 30)]
    a, b = ModelEmbedder(model, resolved).embed(texts), ModelEmbedder(model, spec).embed(texts)
    assert [v.tobytes() for v in a[0]] == [v.tobytes() for v in b[0]] and a[1] == b[1]
    tasks = _bucket_tasks("passkey", (16, 64))
    reports = [run_benchmark(model, s, tasks).to_dict() for s in (resolved, spec)]
    for report in reports:
        report.pop("created_utc")
    assert reports[0] == reports[1]


def test_an_absolute_resolution_runs_a_rotary_model_as_the_spec_does(tiny_rotary):
    spec = ExtensionSpec(strategy="pi", l_orig=8, l_target=64)
    absolute = resolve_extension(spec, "absolute")
    seqs = [np.arange(n) % 64 for n in (5, 8, 30, 64)]
    assert encode_many(tiny_rotary, seqs, absolute).tobytes() == \
        encode_many(tiny_rotary, seqs, spec).tobytes()
