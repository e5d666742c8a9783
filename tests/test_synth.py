import re

import numpy as np
import pytest

from longctx.errors import ConfigurationError, GenerationError, ValidationError
from longctx.synth import (
    FACTS,
    OracleEmbedder,
    RetrievalTask,
    SyntheticTaskConfig,
    build_bucket,
    default_essay_words,
    gen_needle,
    gen_passkey,
    word_budget,
)

KEY_RE = re.compile(r"[A-Z][a-z]+ [A-Z][a-z]+'s passkey is \d{6}\.")


def test_word_budget_values():
    assert word_budget(1024) == 768
    assert word_budget(256) == 192
    assert word_budget(32768) == 24576
    assert word_budget(1) == 8  # clamped so the key sentence always fits


def small_config(kind, **kw):
    defaults = dict(kind=kind, length_grid=(64, 128), queries_per_length=10,
                    candidates_per_length=20, seed=9)
    defaults.update(kw)
    return SyntheticTaskConfig(**defaults)


def test_passkey_documents_have_exactly_one_key_sentence():
    cfg = small_config("passkey")
    task = build_bucket(cfg, 128)
    for text in task.docs.values():
        assert len(KEY_RE.findall(text)) == 1


def test_passkey_respects_word_budget():
    cfg = small_config("passkey")
    for length in cfg.length_grid:
        task = build_bucket(cfg, length)
        budget = word_budget(length)
        assert all(len(t.split()) <= budget for t in task.docs.values())


def test_passkey_names_and_keys_unique_within_bucket():
    task = build_bucket(small_config("passkey", candidates_per_length=100), 128)
    keys = [KEY_RE.search(t).group(0) for t in task.docs.values()]
    names = [k.split("'s passkey")[0] for k in keys]
    digits = [k[-7:-1] for k in keys]
    assert len(set(names)) == len(names)
    assert len(set(digits)) == len(digits)


def test_queries_share_the_candidate_set():
    cfg = small_config("passkey")
    task = build_bucket(cfg, 64)
    assert len(task.docs) == cfg.candidates_per_length
    assert len(task.queries) == cfg.queries_per_length
    for rels in task.qrels.values():
        assert set(rels) <= set(task.docs)


def test_generation_is_deterministic():
    cfg = small_config("needle")
    a, b = build_bucket(cfg, 128), build_bucket(cfg, 128)
    assert a.queries == b.queries and a.docs == b.docs and a.qrels == b.qrels


def test_buckets_differ_across_lengths_and_kinds():
    cfg = small_config("passkey")
    suite = {n: build_bucket(cfg, n) for n in cfg.length_grid}
    assert set(suite) == {64, 128}
    assert suite[64].docs != suite[128].docs


def test_needle_fact_appears_verbatim_exactly_once():
    cfg = small_config("needle")
    task = build_bucket(cfg, 128)
    for qid, rels in task.qrels.items():
        question = task.queries[qid]
        fact = next(f for f in FACTS if f.question == question)
        hits = [did for did, text in task.docs.items() if fact.statement in text]
        assert hits == sorted(rels)


def test_needle_respects_word_budget():
    cfg = small_config("needle")
    for length in cfg.length_grid:
        task = build_bucket(cfg, length)
        budget = word_budget(length)
        assert all(len(t.split()) <= budget for t in task.docs.values())


def test_needle_facts_unique_within_bucket():
    task = build_bucket(small_config("needle", candidates_per_length=100), 128)
    markers = [OracleEmbedder()._key(t) for t in task.docs.values()]
    assert len(set(markers)) == len(markers)


def test_short_essay_raises_with_required_count(tmp_path):
    essay = tmp_path / "essay.txt"
    essay.write_text("too short. " * 5)
    cfg = small_config("needle", essay_path=str(essay))
    with pytest.raises(GenerationError, match=r"\d+ words"):
        gen_needle(128, cfg, np.random.default_rng(0))


def test_candidate_count_beyond_fact_catalog_raises():
    cfg = SyntheticTaskConfig(kind="needle", length_grid=(128,), queries_per_length=10,
                              candidates_per_length=101, seed=1)
    with pytest.raises(GenerationError):
        gen_needle(128, cfg, np.random.default_rng(0))


def test_passkey_name_pool_exhaustion_raises():
    cfg = SyntheticTaskConfig(kind="passkey", length_grid=(128,), queries_per_length=10,
                              candidates_per_length=5000, seed=1)
    with pytest.raises(GenerationError):
        gen_passkey(128, cfg, np.random.default_rng(0))


def test_config_invariants():
    with pytest.raises(ConfigurationError):
        SyntheticTaskConfig(kind="passkey", queries_per_length=50, candidates_per_length=10)
    with pytest.raises(ConfigurationError):
        SyntheticTaskConfig(kind="unknown")


@pytest.mark.parametrize("field, value, named", [
    ("seed", "1", "'seed' must be int"),
    ("queries_per_length", 2.5, "'queries_per_length' must be int"),
    ("candidates_per_length", True, "'candidates_per_length' must be int"),
    ("length_grid", (64.0,), "'length_grid entry' must be int, got 64.0"),
    ("length_grid", 64, "'length_grid' must be a tuple of int, got 64"),
    ("essay_path", 3, "'essay_path' must be str | None"),
], ids=["seed", "queries_per_length", "candidates_per_length", "length_grid-entry",
        "length_grid", "essay_path"])
def test_config_field_types_are_checked(field, value, named):
    with pytest.raises(ConfigurationError, match=re.escape(named)):
        SyntheticTaskConfig(kind="passkey", **{field: value})


def test_essay_is_prefix_stable_and_sentence_structured():
    short = default_essay_words(200)
    long = default_essay_words(1000)
    assert long[:200] == short
    assert any(w.endswith(".") for w in short)


def test_fact_catalog_unique_markers():
    markers = [f.marker for f in FACTS]
    assert len(FACTS) == 100
    assert len(set(markers)) == 100
    for f in FACTS:
        assert f.marker in f.statement and f.marker in f.question


def test_oracle_embedder_links_queries_to_gold_docs():
    for kind in ("passkey", "needle"):
        task = build_bucket(small_config(kind), 128)
        oracle = OracleEmbedder()
        doc_ids = sorted(task.docs)
        doc_vecs = oracle.embed([task.docs[d] for d in doc_ids])
        assert len(doc_vecs) == len(doc_ids)
        for qid, text in task.queries.items():
            qv = oracle.embed([text])[0]
            scores = np.stack(doc_vecs) @ qv
            top = doc_ids[int(np.argmax(scores))]
            assert task.qrels[qid].get(top) == 1


def test_oracle_rejects_keyless_text():
    with pytest.raises(ValidationError):
        OracleEmbedder().embed(["no key here at all"])


@pytest.mark.parametrize("qrels, message", [
    ({"q1": {"d1": 1, "dX": 1}, "q2": {"d1": 1}, "qX": {"d1": 0}},
     r"task 'mine': qrels reference unknown ids: \['dX', 'qX'\]"),
    ({"q1": {"d1": 1}, **{f"x{i:02d}": {"d1": 1} for i in range(12)}, "q2": {"d1": 1}},
     r"unknown ids: \['x00', 'x01', 'x02', 'x03', 'x04', 'x05', 'x06', 'x07', 'x08', 'x09'\]$"),
    ({"q1": {"d1": 1}}, r"task 'mine': queries without a judgment: \['q2'\]"),
    ({"q1": {"d1": 1}, "q2": {}}, r"task 'mine': queries without a judgment: \['q2'\]"),
], ids=["dangling-doc-and-query", "first-ten-sorted", "unjudged-query", "empty-judgments"])
def test_a_task_is_checked_where_it_is_made(qrels, message):
    with pytest.raises(ValidationError, match=message):
        RetrievalTask(name="mine", queries={"q1": "a", "q2": "b"}, docs={"d1": "x"}, qrels=qrels)
