import json
import math
from unittest import mock

import numpy as np
import pytest

from longctx import (
    ModelConfig,
    extend_for_tuning,
    init_model,
    load_checkpoint,
    load_task,
    load_task_dir,
    save_checkpoint,
    task_stats,
    tune,
    write_task,
)
from longctx import encoder
from longctx.encoder import Model, PosExtension, param_layout
from longctx.errors import ConfigurationError, ParseError, ValidationError
from longctx.synth import SyntheticTaskConfig, build_bucket
from longctx.tuning import TrainingPair, TuneConfig


def small_task():
    cfg = SyntheticTaskConfig(kind="passkey", length_grid=(64,), queries_per_length=4,
                              candidates_per_length=8, seed=2)
    return build_bucket(cfg, 64)


def test_task_round_trip_equals_in_memory(tmp_path):
    task = small_task()
    write_task(task, tmp_path)
    loaded = load_task_dir(tmp_path)
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
    ("queries.jsonl", '{"_id": "q1", "text": "again"}', "repeated _id 'q1'"),
    ("corpus.jsonl", '{"_id": "d1", "title": "", "text": "second doc"}', "repeated _id 'd1'"),
], ids=["number", "null", "list", "null-text", "list-text", "number-title", "repeated-query-id",
        "repeated-doc-id"])
def test_a_task_line_of_the_wrong_shape_is_a_parse_error_naming_it(tmp_path, file, line, part):
    (tmp_path / "queries.jsonl").write_text('{"_id": "q1", "text": "ok"}\n')
    (tmp_path / "corpus.jsonl").write_text('{"_id": "d1", "title": "", "text": "x"}\n')
    (tmp_path / "qrels.tsv").write_text("query-id\tdoc-id\tscore\nq1\td1\t1\n")
    with open(tmp_path / file, "a") as fh:
        fh.write(line + "\n")
    with pytest.raises(ParseError, match=f"{file}:2: {part}"):
        load_task_dir(tmp_path)


def test_a_repeated_qrels_pair_is_a_parse_error_naming_it(tmp_path):
    (tmp_path / "queries.jsonl").write_text('{"_id": "q1", "text": "ok"}\n')
    (tmp_path / "corpus.jsonl").write_text('{"_id": "d1", "title": "", "text": "x"}\n')
    (tmp_path / "qrels.tsv").write_text("query-id\tdoc-id\tscore\nq1\td1\t1\nq1\td1\t0\n")
    with pytest.raises(ParseError, match="qrels.tsv:3: repeated judgment for 'q1' 'd1'"):
        load_task_dir(tmp_path)


@pytest.mark.parametrize("qrels", ["q1\td1\t1\nq1\td2\t0\nq2\td2\t1\n", "",
                                   "query-id\tdoc-id\n"], ids=["no-header", "empty", "short"])
def test_a_qrels_file_must_open_with_its_header(tmp_path, qrels):
    """A header-less file would lose its first judgment: q1 would keep only d2 at score 0."""
    (tmp_path / "queries.jsonl").write_text(
        '{"_id": "q1", "text": "a"}\n{"_id": "q2", "text": "b"}\n')
    (tmp_path / "corpus.jsonl").write_text(
        '{"_id": "d1", "title": "", "text": "x"}\n{"_id": "d2", "title": "", "text": "y"}\n')
    (tmp_path / "qrels.tsv").write_text(qrels)
    with pytest.raises(ParseError, match="qrels.tsv:1: expected the header"):
        load_task_dir(tmp_path)


def test_a_beir_qrels_header_loads(tmp_path):
    """BEIR spells the second column ``corpus-id``; such files load as they are."""
    (tmp_path / "queries.jsonl").write_text('{"_id": "q1", "text": "a"}\n')
    (tmp_path / "corpus.jsonl").write_text(
        '{"_id": "d1", "title": "", "text": "x"}\n{"_id": "d2", "title": "", "text": "y"}\n')
    (tmp_path / "qrels.tsv").write_text("query-id\tcorpus-id\tscore\nq1\td1\t1\nq1\td2\t0\n")
    assert load_task_dir(tmp_path).qrels == {"q1": {"d1": 1, "d2": 0}}


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
    save_checkpoint(loaded, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
    assert loaded.extension is None


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
    assert np.array_equal(loaded.extension.frozen, ext.extension.frozen)
    assert np.array_equal(loaded.params["pos_table"], ext.params["pos_table"])


def test_rotary_checkpoint_round_trips(tmp_path):
    model = make_model("rotary")
    path = tmp_path / "r.ckpt"
    save_checkpoint(model, path)
    save_checkpoint(load_checkpoint(path), tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


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


def _retype_tensor(index, dtype):
    """A well-framed file whose manifest tensor ``index`` is stored as ``dtype``."""
    def corrupt(data):
        end = 16 + int.from_bytes(data[8:16], "little")
        header = json.loads(data[16:end])
        entries = header["tensors"]
        sizes = [math.prod(e["shape"]) * np.dtype(e["dtype"]).itemsize for e in entries]
        i = range(len(entries))[index]
        a = end + sum(sizes[:i])
        b = a + sizes[i]
        values = np.frombuffer(data[a:b], dtype=entries[i]["dtype"]).astype(dtype)
        entries[i]["dtype"] = str(values.dtype)
        blob = json.dumps(header).encode("utf-8")
        return (data[:8] + len(blob).to_bytes(8, "little") + blob + data[end:a]
                + values.tobytes() + data[b:])
    return corrupt


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
    (_retype_tensor(-1, np.float32), "tensor tok_emb has dtype float32, expected float64"),
    (_retype_tensor(-1, np.int64), "tensor tok_emb has dtype int64, expected float64"),
    (_retype_tensor(-1, bool), "tensor tok_emb has dtype bool, expected float64"),
    (_retype_tensor(-1, ">f8"), "tensor tok_emb has dtype >f8, expected float64"),
], ids=["cut-file-header", "cut-json-header", "cut-tensors", "garbled-json-header",
        "huge-json-length", "unknown-dtype", "string-hidden-size", "unknown-config-key",
        "missing-extension", "missing-tensors", "negative-shape", "float32-weights",
        "int64-weights", "bool-weights", "big-endian-weights"])
def test_corrupt_checkpoint_raises_parse_error_naming_the_path(tmp_path, corrupt, part):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_model(), path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ParseError, match=part) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def _pi_extended(**kw):
    config = TuneConfig(mode="pi_anchored", l_orig=8, l_target=16, **kw)
    return extend_for_tuning(make_model(), config), config


def _rewrite_frozen_flags(change):
    """A corruption that replaces the trailing ``__pos_frozen__`` tensor by ``change(flags)``.

    Where ``change`` returns None, the tensor is dropped from the file.
    """
    def corrupt(data):
        end = 16 + int.from_bytes(data[8:16], "little")
        header = json.loads(data[16:end])
        entry = header["tensors"][-1]
        assert entry["name"] == "__pos_frozen__"
        n = entry["shape"][0]
        flags = change(np.frombuffer(data[len(data) - n:], dtype=np.uint8))
        if flags is None:
            header["tensors"].pop()
        else:
            entry["shape"] = list(flags.shape)
        tail = b"" if flags is None else flags.astype(np.uint8).tobytes()
        blob = json.dumps(header).encode("utf-8")
        return data[:8] + len(blob).to_bytes(8, "little") + blob + data[end:len(data) - n] + tail
    return corrupt


@pytest.mark.parametrize("edit, corrupt, part", [
    (lambda m: m.params.pop("layers.0.attn.wq"), None, r"lacks tensors \['layers.0.attn.wq'\]"),
    (lambda m: m.params.update(tok_emb=m.params["tok_emb"][:-1]), None,
     r"tensor tok_emb has shape \[31, 16\], the config and extension need \[32, 16\]"),
    (lambda m: m.params.update(extra=np.zeros(2)), None,
     "unknown or repeated checkpoint tensor extra"),
    (None, _rewrite_frozen_flags(lambda flags: flags[:-1]),
     r"tensor __pos_frozen__ has shape \[15\], the config and extension need \[16\]"),
    (None, _rewrite_frozen_flags(lambda flags: 1 - flags),
     r"__pos_frozen__ differs from the frozen rows of PosExtension\(mode='pi_anchored'"),
    (lambda m: m.params.update(pos_table=m.params["pos_table"][:8]), None,
     r"tensor pos_table has shape \[8, 16\], the config and extension need \[16, 16\]"),
    (None, _retype_tensor(-1, bool), "tensor __pos_frozen__ has dtype bool, expected uint8"),
], ids=["missing-wq", "short-tok-emb", "unknown-name", "short-frozen-flags",
        "wrong-frozen-flags", "unextended-table", "bool-frozen-flags"])
def test_checkpoint_tensors_must_match_the_config_and_extension(tmp_path, edit, corrupt, part):
    model, _ = _pi_extended()
    path = tmp_path / "model.ckpt"
    if edit is None:
        save_checkpoint(model, path)
    else:  # save_checkpoint refuses the edited model, so write its file past that check
        edit(model)
        layout = {name: (arr.shape, "uniform") for name, arr in model.params.items()}
        with mock.patch.object(encoder, "param_layout", lambda config, ext: layout):
            save_checkpoint(model, path)
    if corrupt is not None:
        path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ParseError, match=part) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("edit, message", [
    (lambda p: p.update({k: v.astype(np.float32) for k, v in p.items()}),
     r"tensor tok_emb is float32 of shape \[32, 16\]; the model's config and extension "
     r"need float64"),
    (lambda p: p.update(tok_emb=p["tok_emb"][:10]),
     r"tensor tok_emb is float64 of shape \[10, 16\]; the model's config and extension "
     r"need float64 of shape \[32, 16\]"),
    (lambda p: p.update(extra=np.zeros(2)), "tensor extra is not in the layout"),
    (lambda p: p.pop("final_ln.g"), "tensor final_ln.g is missing"),
], ids=["float32-params", "short-tok-emb", "extra-tensor", "missing-tensor"])
def test_save_checkpoint_refuses_a_model_its_loader_would_refuse(tmp_path, edit, message):
    model = make_model()
    edit(model.params)
    path = tmp_path / "out" / "model.ckpt"
    with pytest.raises(ConfigurationError, match=message):
        save_checkpoint(model, path)
    assert not path.parent.exists()  # refused before a directory or file is made


def test_an_extended_checkpoint_without_frozen_flags_loads_and_tunes_around_its_anchors(
        tmp_path):
    ext, config = _pi_extended(learning_rate=0.01, batch_size=2, max_steps=5, warmup_steps=1,
                               temperature=0.5, n_negatives=2)
    path = tmp_path / "ext.ckpt"
    save_checkpoint(ext, path)
    path.write_bytes(_rewrite_frozen_flags(lambda flags: None)(path.read_bytes()))
    loaded = load_checkpoint(path)
    anchors = np.arange(8) * 2
    assert np.array_equal(np.flatnonzero(loaded.extension.frozen), anchors)

    rng = np.random.default_rng(3)
    pairs = [TrainingPair(query=rng.integers(0, 32, 5), positive=rng.integers(0, 32, 7),
                          negatives=[rng.integers(0, 32, 6) for _ in range(2)])
             for _ in range(4)]
    result = tune(loaded, pairs, config)
    before, after = ext.params["pos_table"], result.model.params["pos_table"]
    assert len(result.log) == 5 and not np.array_equal(before, after)
    assert np.array_equal(before[anchors], after[anchors])


@pytest.mark.parametrize("mode, rows", [("pi_anchored", 16), ("rp_suffix", 13)])
def test_an_extended_table_has_the_rows_the_layout_expects(tmp_path, mode, rows):
    ext = extend_for_tuning(make_model(), TuneConfig(mode=mode, l_orig=8, l_target=13))
    assert ext.params["pos_table"].shape == param_layout(ext.config, ext.extension)[
        "pos_table"][0] == (rows, 16)
    assert ext.extension.frozen.shape == (rows,)
    save_checkpoint(ext, tmp_path / "ext.ckpt")
    save_checkpoint(load_checkpoint(tmp_path / "ext.ckpt"), tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == (tmp_path / "ext.ckpt").read_bytes()


def _mismatched_extension():
    """An rp_suffix model whose extension repeats 4 original rows on an 8-row config."""
    model = make_model()
    table = model.params["pos_table"][np.arange(16) % 4]
    return Model(model.config, {**model.params, "pos_table": table},
                 PosExtension("rp_suffix", 4, 16))


def test_save_refuses_an_extension_of_another_original_window(tmp_path):
    path = tmp_path / "out" / "ext.ckpt"
    with pytest.raises(ConfigurationError, match="does not extend the model's original "
                                                 "context 8"):
        save_checkpoint(_mismatched_extension(), path)
    assert not path.parent.exists()  # refused before a directory or file is made


def test_load_refuses_an_extension_of_another_original_window(tmp_path):
    path = tmp_path / "ext.ckpt"
    save_checkpoint(extend_for_tuning(make_model(), TuneConfig(mode="rp_suffix", l_orig=8,
                                                               l_target=16)), path)
    data = path.read_bytes()
    end = 16 + int.from_bytes(data[8:16], "little")
    header = json.loads(data[16:end])
    header["extension"]["l_orig"] = 4  # the table keeps its 16 rows
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:8] + len(blob).to_bytes(8, "little") + blob + data[end:])
    with pytest.raises(ParseError, match="does not extend the model's original context 8") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_a_rotary_model_has_no_position_table_to_extend(tmp_path):
    """Refused by the layout: before save_checkpoint writes a byte, and at load naming the file."""
    model, extension = make_model("rotary"), PosExtension("pi_anchored", 8, 16)
    with pytest.raises(ConfigurationError, match="rotary model has no position table"):
        param_layout(model.config, extension)
    with pytest.raises(ConfigurationError, match="rotary model has no position table"):
        save_checkpoint(Model(model.config, model.params, extension), tmp_path / "ext.ckpt")
    assert not (tmp_path / "ext.ckpt").exists()

    path = tmp_path / "rotary.ckpt"
    save_checkpoint(model, path)
    data = path.read_bytes()
    end = 16 + int.from_bytes(data[8:16], "little")
    header = json.loads(data[16:end])
    header["extension"] = {"mode": "pi_anchored", "l_orig": 8, "l_target": 16}
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:8] + len(blob).to_bytes(8, "little") + blob + data[end:])
    with pytest.raises(ParseError, match="rotary model has no position table") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
