import json

import numpy as np
import pytest

from longctx import (
    ModelConfig,
    extend_for_tuning,
    init_model,
    load_checkpoint,
    load_task,
    load_task_dir,
    model_checksum,
    save_checkpoint,
    task_stats,
    write_task,
)
from longctx.encoder import param_layout
from longctx.errors import ParseError, ValidationError
from longctx.synth import SyntheticTaskConfig, build_bucket
from longctx.tuning import TuneConfig


def small_task():
    cfg = SyntheticTaskConfig(kind="passkey", length_grid=(64,), queries_per_length=4,
                              candidates_per_length=8, seed=2)
    return build_bucket(cfg, 64)


def test_task_round_trip_equals_in_memory(tmp_path):
    task = small_task()
    write_task(task, tmp_path)
    loaded = load_task_dir(tmp_path, name=task.name)
    assert loaded.queries == task.queries
    assert loaded.docs == task.docs
    assert loaded.qrels == task.qrels


def test_task_files_are_byte_deterministic(tmp_path):
    task = small_task()
    write_task(task, tmp_path / "a")
    write_task(task, tmp_path / "b")
    for name in ("queries.jsonl", "corpus.jsonl", "qrels.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_title_is_prepended_to_text(tmp_path):
    (tmp_path / "queries.jsonl").write_text('{"_id": "q1", "text": "who?"}\n')
    (tmp_path / "corpus.jsonl").write_text('{"_id": "d1", "title": "A Title", "text": "body"}\n')
    (tmp_path / "qrels.tsv").write_text("query-id\tdoc-id\tscore\nq1\td1\t1\n")
    task = load_task_dir(tmp_path)
    assert task.docs["d1"] == "A Title body"


def test_malformed_jsonl_reports_line_number(tmp_path):
    (tmp_path / "queries.jsonl").write_text('{"_id": "q1", "text": "ok"}\nnot json\n')
    (tmp_path / "corpus.jsonl").write_text('{"_id": "d1", "title": "", "text": "x"}\n')
    (tmp_path / "qrels.tsv").write_text("query-id\tdoc-id\tscore\nq1\td1\t1\n")
    with pytest.raises(ParseError, match=":2"):
        load_task_dir(tmp_path)


@pytest.mark.parametrize("file, line, part", [
    ("queries.jsonl", "5", "expected a JSON object"),
    ("queries.jsonl", "null", "expected a JSON object"),
    ("queries.jsonl", "[]", "expected a JSON object"),
    ("queries.jsonl", '{"_id": "q2", "text": null}', "field 'text' must be a string"),
    ("corpus.jsonl", '{"_id": "d2", "text": ["x"]}', "field 'text' must be a string"),
    ("corpus.jsonl", '{"_id": "d2", "title": 7, "text": "x"}', "field 'title' must be a string"),
], ids=["number", "null", "list", "null-text", "list-text", "number-title"])
def test_a_task_line_of_the_wrong_shape_is_a_parse_error_naming_it(tmp_path, file, line, part):
    (tmp_path / "queries.jsonl").write_text('{"_id": "q1", "text": "ok"}\n')
    (tmp_path / "corpus.jsonl").write_text('{"_id": "d1", "title": "", "text": "x"}\n')
    (tmp_path / "qrels.tsv").write_text("query-id\tdoc-id\tscore\nq1\td1\t1\n")
    with open(tmp_path / file, "a") as fh:
        fh.write(line + "\n")
    with pytest.raises(ParseError, match=f"{file}:2: {part}"):
        load_task_dir(tmp_path)


def test_dangling_qrel_ids_listed(tmp_path):
    (tmp_path / "queries.jsonl").write_text('{"_id": "q1", "text": "ok"}\n')
    (tmp_path / "corpus.jsonl").write_text('{"_id": "d1", "title": "", "text": "x"}\n')
    (tmp_path / "qrels.tsv").write_text("query-id\tdoc-id\tscore\nq1\tdMISSING\t1\n")
    with pytest.raises(ValidationError, match="dMISSING"):
        load_task_dir(tmp_path)


def test_stats_match_hand_counts(tmp_path):
    (tmp_path / "queries.jsonl").write_text(
        '{"_id": "q1", "text": "one two three"}\n{"_id": "q2", "text": "four"}\n'
    )
    (tmp_path / "corpus.jsonl").write_text(
        '{"_id": "d1", "title": "", "text": "a b"}\n{"_id": "d2", "title": "", "text": "c d e f"}\n'
    )
    (tmp_path / "qrels.tsv").write_text("query-id\tdoc-id\tscore\nq1\td1\t1\nq2\td2\t1\n")
    stats = task_stats(load_task_dir(tmp_path))
    assert stats["n_queries"] == 2 and stats["n_docs"] == 2
    assert stats["mean_query_words"] == 2.0
    assert stats["mean_doc_words"] == 3.0


def test_stats_on_a_multihop_sized_fixture(tmp_path):
    # a 300-query / 300-document fixture shaped like the ingested QA datasets
    with open(tmp_path / "queries.jsonl", "w") as fh:
        for i in range(300):
            fh.write('{"_id": "q%03d", "text": "who wrote entry %d?"}\n' % (i, i))
    with open(tmp_path / "corpus.jsonl", "w") as fh:
        for i in range(300):
            fh.write('{"_id": "d%03d", "title": "", "text": "entry %d body text"}\n' % (i, i))
    with open(tmp_path / "qrels.tsv", "w") as fh:
        fh.write("query-id\tdoc-id\tscore\n")
        for i in range(300):
            fh.write(f"q{i:03d}\td{i:03d}\t1\n")
    stats = task_stats(load_task_dir(tmp_path))
    assert stats["n_queries"] == 300 and stats["n_docs"] == 300


def test_ingest_accepts_separate_paths(tmp_path):
    task = small_task()
    write_task(task, tmp_path)
    loaded = load_task(tmp_path / "queries.jsonl", tmp_path / "corpus.jsonl",
                       tmp_path / "qrels.tsv", name="renamed")
    assert loaded.name == "renamed"
    assert loaded.queries == task.queries


# --- checkpoints ----------------------------------------------------------------


def make_model(mode="absolute"):
    cfg = ModelConfig(hidden_size=16, n_layers=2, n_heads=2, vocab_size=32,
                      original_context=8, position_mode=mode, init_seed=21)
    return init_model(cfg)


def test_checkpoint_round_trip_is_exact(tmp_path):
    model = make_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert model_checksum(loaded) == model_checksum(model)
    assert loaded.extension is None and loaded.pos_frozen is None


def test_checkpoint_bytes_stable_across_save_load_save(tmp_path):
    model = make_model()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_preserves_extension_and_frozen_flags(tmp_path):
    config = TuneConfig(mode="pi_anchored", l_orig=8, l_target=16, epochs=0)
    ext = extend_for_tuning(make_model(), config)
    path = tmp_path / "ext.ckpt"
    save_checkpoint(ext, path)
    loaded = load_checkpoint(path)
    assert loaded.extension == ext.extension
    assert np.array_equal(loaded.pos_frozen, ext.pos_frozen)
    assert np.array_equal(loaded.params["pos_table"], ext.params["pos_table"])


def test_rotary_checkpoint_round_trips(tmp_path):
    model = make_model("rotary")
    path = tmp_path / "r.ckpt"
    save_checkpoint(model, path)
    assert model_checksum(load_checkpoint(path)) == model_checksum(model)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ParseError):
        load_checkpoint(path)


def _cut_file_header(data):
    return data[:10]


def _cut_json_header(data):
    return data[:16 + int.from_bytes(data[8:16], "little") // 2]


def _cut_tensors(data):
    return data[:-3]


def _garble_json_header(data):
    return data[:16] + b"\xff" + data[17:]


def _huge_json_length(data):
    return data[:8] + (1 << 62).to_bytes(8, "little") + data[16:]


def _edit_header(edit):
    """A corruption that rewrites the JSON header, keeping the file well framed."""
    def corrupt(data):
        end = 16 + int.from_bytes(data[8:16], "little")
        header = json.loads(data[16:end])
        edit(header)
        blob = json.dumps(header).encode("utf-8")
        return data[:8] + len(blob).to_bytes(8, "little") + blob + data[end:]
    return corrupt


def _set_tensor(field, value):
    return lambda header: header["tensors"][0].update({field: value})


@pytest.mark.parametrize("corrupt, part", [
    (_cut_file_header, "file header"),
    (_cut_json_header, "JSON header"),
    (_cut_tensors, "tensor tok_emb"),  # the last tensor in name order
    (_garble_json_header, "JSON header"),
    (_huge_json_length, "JSON header"),
    (_edit_header(_set_tensor("dtype", "float99")), "unknown dtype 'float99'"),
    (_edit_header(lambda h: h["config"].update(hidden_size="16")), "'hidden_size' must be int"),
    (_edit_header(lambda h: h["config"].update(colour="blue")), "unknown checkpoint config key"),
    (_edit_header(lambda h: h.pop("extension")), r"lacks \['extension'\]"),
    (_edit_header(lambda h: h.pop("tensors")), r"lacks \['tensors'\]"),
    (_edit_header(_set_tensor("shape", [-2, -16])), "bad checkpoint tensor entry"),
], ids=["cut-file-header", "cut-json-header", "cut-tensors", "garbled-json-header",
        "huge-json-length", "unknown-dtype", "string-hidden-size", "unknown-config-key",
        "missing-extension", "missing-tensors", "negative-shape"])
def test_corrupt_checkpoint_raises_parse_error_naming_the_path(tmp_path, corrupt, part):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_model(), path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ParseError, match=part) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def _pi_extended():
    return extend_for_tuning(make_model(), TuneConfig(mode="pi_anchored", l_orig=8, l_target=16))


@pytest.mark.parametrize("edit, part", [
    (lambda m: m.params.pop("layers.0.attn.wq"), r"lacks tensors \['layers.0.attn.wq'\]"),
    (lambda m: m.params.update(tok_emb=m.params["tok_emb"][:-1]),
     r"tensor tok_emb has shape \[31, 16\], the config and extension need \[32, 16\]"),
    (lambda m: m.params.update(extra=np.zeros(2)), "unknown or repeated checkpoint tensor extra"),
    (lambda m: setattr(m, "pos_frozen", m.pos_frozen[:-1]),
     r"tensor __pos_frozen__ has shape \[15\], the config and extension need \[16\]"),
    (lambda m: m.params.update(pos_table=m.params["pos_table"][:8]),
     r"tensor pos_table has shape \[8, 16\], the config and extension need \[16, 16\]"),
], ids=["missing-wq", "short-tok-emb", "unknown-name", "short-frozen-flags",
        "unextended-table"])
def test_checkpoint_tensors_must_match_the_config_and_extension(tmp_path, edit, part):
    model = _pi_extended()
    edit(model)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(ParseError, match=part) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("mode, rows", [("pi_anchored", 16), ("rp_suffix", 13)])
def test_an_extended_table_has_the_rows_the_layout_expects(tmp_path, mode, rows):
    ext = extend_for_tuning(make_model(), TuneConfig(mode=mode, l_orig=8, l_target=13))
    assert ext.params["pos_table"].shape == param_layout(ext.config, ext.extension)[
        "pos_table"][0] == (rows, 16)
    assert ext.pos_frozen.shape == (rows,)
    save_checkpoint(ext, tmp_path / "ext.ckpt")
    assert model_checksum(load_checkpoint(tmp_path / "ext.ckpt")) == model_checksum(ext)
