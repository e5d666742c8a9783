import ctypes
import json
import math
import os
import platform
import subprocess
import sys

import pytest

from longctx import cli
from longctx.cli import build_parser, main
from longctx.serialization import load_checkpoint, load_task_dir
from longctx.tuning import TuneConfig


def run(*argv):
    return main([str(a) for a in argv])


def gen_small(tmp_path, kind="passkey", lengths="16,32", seed=7, queries=3, candidates=6):
    out = tmp_path / "tasks"
    code = run("gen", "--kind", kind, "--lengths", lengths, "--queries", queries,
               "--candidates", candidates, "--seed", seed, "--out", out)
    assert code == 0
    return out


def test_gen_writes_bucket_triplets(tmp_path):
    out = gen_small(tmp_path)
    for length in (16, 32):
        bucket = out / "passkey" / str(length)
        for name in ("queries.jsonl", "corpus.jsonl", "qrels.tsv"):
            assert (bucket / name).exists()
    task = load_task_dir(out / "passkey" / "16")
    assert len(task.queries) == 3 and len(task.docs) == 6


def test_gen_same_seed_identical_bytes(tmp_path):
    a = gen_small(tmp_path / "a")
    b = gen_small(tmp_path / "b")
    for length in (16, 32):
        for name in ("queries.jsonl", "corpus.jsonl", "qrels.tsv"):
            assert (a / "passkey" / str(length) / name).read_bytes() == \
                   (b / "passkey" / str(length) / name).read_bytes()


def test_gen_single_length_single_bucket(tmp_path):
    out = gen_small(tmp_path, lengths="16")
    assert [p.name for p in (out / "passkey").iterdir()] == ["16"]


def init_small(tmp_path, mode="absolute", l_orig=8):
    ckpt = tmp_path / f"model-{mode}.ckpt"
    code = run("init", "--hidden-size", 16, "--layers", 1, "--heads", 2,
               "--vocab-size", 64, "--l-orig", l_orig, "--mode", mode,
               "--seed", 3, "--out", ckpt)
    assert code == 0
    return ckpt


def test_init_is_deterministic(tmp_path):
    a = init_small(tmp_path / "a")
    b = init_small(tmp_path / "b")
    assert a.read_bytes() == b.read_bytes()


def test_eval_writes_report_with_recomputable_average(tmp_path, capsys):
    tasks = gen_small(tmp_path)
    ckpt = init_small(tmp_path)
    report_path = tmp_path / "report.json"
    code = run("eval", "--model", ckpt, "--strategy", "rp", "--l-target", 64,
               "--synthetic", tasks / "passkey", "--out", report_path)
    assert code == 0
    report = json.loads(report_path.read_text())
    scores = list(report["task_scores"].values())
    assert report["average"] == pytest.approx(sum(scores) / len(scores))
    assert report["tool_version"]
    assert report["run_config"]["strategy"] == "rp"
    assert set(report["synthetic"]["passkey"]) == {"16", "32"}
    out = capsys.readouterr().out
    assert "Synthetic (Acc@1)" in out


def test_eval_infeasible_se_fails_fast_with_code_2(tmp_path):
    tasks = gen_small(tmp_path)
    ckpt = init_small(tmp_path, mode="rotary")
    code = run("eval", "--model", ckpt, "--strategy", "se", "--l-target", 64,
               "--g", 1, "--w", 0, "--synthetic", tasks / "passkey")
    assert code == 2


def test_eval_strategy_mode_mismatch_is_code_2(tmp_path):
    tasks = gen_small(tmp_path)
    ckpt = init_small(tmp_path)  # absolute
    code = run("eval", "--model", ckpt, "--strategy", "ntk", "--l-target", 64,
               "--synthetic", tasks / "passkey")
    assert code == 2


def test_eval_missing_task_dir_is_code_3(tmp_path):
    ckpt = init_small(tmp_path)
    code = run("eval", "--model", ckpt, "--strategy", "none",
               "--synthetic", tmp_path / "nope")
    assert code in (1, 3)  # unreadable directory


def test_eval_malformed_jsonl_is_code_3(tmp_path):
    ckpt = init_small(tmp_path)
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "queries.jsonl").write_text("not json\n")
    (bad / "corpus.jsonl").write_text('{"_id": "d", "title": "", "text": "x"}\n')
    (bad / "qrels.tsv").write_text("query-id\tdoc-id\tscore\n")
    assert run("eval", "--model", ckpt, "--strategy", "none", "--real", bad) == 3


@pytest.mark.parametrize("args, message", [
    ((), "no tasks given; pass --synthetic and/or --real directories"),
    (("--synthetic", "{tmp}/empty"), "{tmp}/empty holds no task files and no numeric bucket dirs"),
    (("--config", "{tmp}/cfg.json", "--synthetic", "{tmp}/empty/1"),
     "config file {tmp}/cfg.json must hold a JSON object"),
], ids=["no-tasks", "dir-without-buckets", "config-json-array"])
def test_eval_with_nothing_it_can_run_is_code_3(tmp_path, capsys, args, message):
    (tmp_path / "empty" / "notes").mkdir(parents=True)  # neither task files nor a bucket dir
    (tmp_path / "cfg.json").write_text('["gp", 9]\n')
    args = [a.format(tmp=tmp_path) for a in args]
    assert run("eval", "--model", init_small(tmp_path), *args) == 3
    assert message.format(tmp=tmp_path) in capsys.readouterr().err


def test_eval_of_a_real_dataset_scores_ndcg_and_counts_what_it_skipped(tmp_path, capsys):
    real = tmp_path / "beir"
    real.mkdir()
    docs = {"d1": "alpha beta gamma", "d2": "delta epsilon", "d3": " ".join(["long"] * 20)}
    queries = {"q1": "alpha beta", "q2": "delta", "q3": "!!!"}  # q3 has no tokens
    for name, rows in (("corpus.jsonl", docs), ("queries.jsonl", queries)):
        (real / name).write_text("".join(json.dumps({"_id": i, "title": "", "text": t}) + "\n"
                                         for i, t in rows.items()))
    # q2 is judged only 0, so nDCG@10 excludes it; d3 is longer than l_target 8
    (real / "qrels.tsv").write_text("query-id\tdoc-id\tscore\nq1\td1\t1\nq2\td2\t0\n"
                                    "q3\td1\t1\n")
    report_path = tmp_path / "r.json"
    assert run("eval", "--model", init_small(tmp_path), "--real", real,
               "--out", report_path) == 0
    report = json.loads(report_path.read_text())
    assert report["synthetic"] == {}
    # q1 ranks d1 first or second among the two retrievable docs; q3 ranks nothing
    assert report["real"]["beir"] in (pytest.approx(1 / 2), pytest.approx(1 / 2 / math.log2(3)))
    assert report["skipped"] == \
        {"beir": {"zero_relevance_queries": 1, "unretrievable_docs": 1, "failed_queries": 1}}
    out = capsys.readouterr().out
    assert "ingested beir: 3 queries / 3 docs, mean words q=1.3 d=8.3" in out
    assert "Real (nDCG@10)" in out
    assert "note [beir]: zero_relevance_queries=1, unretrievable_docs=1, failed_queries=1" in out


def test_eval_of_one_bucket_given_twice_is_code_3(tmp_path, capsys):
    a, b = gen_small(tmp_path / "a", lengths="16"), gen_small(tmp_path / "b", lengths="16")
    code = run("eval", "--model", init_small(tmp_path), "--synthetic", a / "passkey" / "16",
               b / "passkey" / "16", "--out", tmp_path / "r.json")
    assert code == 3
    assert "task 'passkey/16' is given twice" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("others", [(), ("a",)], ids=["alone", "after-a-bucket"])
def test_eval_of_a_bucket_dir_not_named_by_its_length_is_code_3(tmp_path, capsys, others):
    tasks = gen_small(tmp_path, lengths="16")
    named = tmp_path / "c" / "passkey"
    named.parent.mkdir()
    (tasks / "passkey" / "16").rename(named)
    buckets = [gen_small(tmp_path / o, lengths="16") / "passkey" / "16" for o in others]
    code = run("eval", "--model", init_small(tmp_path), "--synthetic", *buckets, named,
               "--out", tmp_path / "r.json")
    assert code == 3
    assert f"{named} holds task files but is not named by its bucket length" in \
        capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_eval_config_file_resolution_order(tmp_path):
    tasks = gen_small(tmp_path)
    ckpt = init_small(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"strategy": "gp", "l_target": 32, "seed": 9}))
    report_path = tmp_path / "r.json"
    # CLI flag overrides file value for l_target; file supplies strategy and seed
    code = run("eval", "--model", ckpt, "--config", cfg, "--l-target", 64,
               "--synthetic", tasks / "passkey", "--out", report_path)
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["run_config"]["strategy"] == "gp"
    assert report["run_config"]["l_target"] == 64
    assert report["run_config"]["seed"] == 9


def test_eval_malformed_config_file_is_code_3(tmp_path, capsys):
    tasks = gen_small(tmp_path)
    ckpt = init_small(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{\n  "strategy": "gp",\n  "seed": 9,,\n}\n')
    code = run("eval", "--model", ckpt, "--config", cfg, "--synthetic", tasks / "passkey")
    assert code == 3
    assert f"{cfg}:3: invalid JSON" in capsys.readouterr().err


def test_eval_truncated_checkpoint_is_code_3(tmp_path):
    tasks = gen_small(tmp_path)
    ckpt = init_small(tmp_path)
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    assert run("eval", "--model", ckpt, "--synthetic", tasks / "passkey") == 3


def test_eval_settings_table_matches_the_eval_flags():
    """Each eval setting flag has a config-file key with a default, and each key a flag."""
    args = vars(build_parser().parse_args(["eval", "--model", "m.ckpt"]))
    inputs = {"command", "func", "model", "config", "synthetic", "real", "out"}
    assert set(args) - inputs == set(cli._EVAL_SETTINGS)
    assert all(args[key] is None for key in cli._EVAL_SETTINGS)  # unset flags defer to the file


def test_tune_rejects_rotary_model_with_code_2(tmp_path):
    tasks = gen_small(tmp_path, lengths="8")
    ckpt = init_small(tmp_path, mode="rotary")
    code = run("tune", "--model", ckpt, "--l-target", 16, "--data",
               tasks / "passkey" / "8", "--out", tmp_path / "t.ckpt")
    assert code == 2


def test_tune_rejects_a_task_with_a_repeated_id_with_code_3(tmp_path, capsys):
    tasks = gen_small(tmp_path, lengths="8")
    corpus = tasks / "passkey" / "8" / "corpus.jsonl"
    lines = corpus.read_text().splitlines()
    corpus.write_text("\n".join([*lines, lines[0]]) + "\n")
    code = run("tune", "--model", init_small(tmp_path), "--l-target", 16, "--data",
               tasks / "passkey" / "8", "--out", tmp_path / "t.ckpt")
    assert code == 3
    assert f"corpus.jsonl:{len(lines) + 1}: repeated _id" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "tune"])
def test_a_header_less_qrels_file_is_code_3(tmp_path, capsys, command):
    tasks = gen_small(tmp_path, lengths="8")
    qrels = tasks / "passkey" / "8" / "qrels.tsv"
    qrels.write_text("".join(qrels.read_text().splitlines(keepends=True)[1:]))
    args = {"eval": ("--strategy", "none", "--synthetic", tasks / "passkey"),
            "tune": ("--l-target", 16, "--data", tasks / "passkey" / "8",
                     "--out", tmp_path / "t.ckpt")}[command]
    assert run(command, "--model", init_small(tmp_path), *args) == 3
    assert "qrels.tsv:1: expected the header" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["queries.jsonl", "corpus.jsonl", "qrels.tsv"])
def test_a_task_file_that_is_not_utf8_is_code_3(tmp_path, capsys, name):
    tasks = gen_small(tmp_path, lengths="8")
    path = tasks / "passkey" / "8" / name
    path.write_bytes(path.read_bytes() + b"\xff\n")
    code = run("eval", "--model", init_small(tmp_path), "--synthetic", tasks / "passkey")
    assert code == 3
    assert f"{path}: not UTF-8 text" in capsys.readouterr().err


def test_eval_config_file_that_is_not_utf8_is_code_3(tmp_path, capsys):
    tasks = gen_small(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"strategy": "gp", "seed": 9}\xff\n')
    code = run("eval", "--model", init_small(tmp_path), "--config", cfg,
               "--synthetic", tasks / "passkey")
    assert code == 3
    assert f"{cfg}: not UTF-8 text" in capsys.readouterr().err


def test_gen_with_an_essay_that_is_not_utf8_is_code_3_and_writes_nothing(tmp_path, capsys):
    essay, out = tmp_path / "essay.txt", tmp_path / "tasks"
    essay.write_bytes(b"All work and no play. " * 200 + b"\xff\n")
    assert run("gen", "--kind", "needle", "--lengths", 64, "--queries", 2, "--candidates", 4,
               "--essay", essay, "--out", out) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert f"{essay}: not UTF-8 text" in captured.err and "wrote" not in captured.out


@pytest.mark.parametrize("role", ["query", "positive document"])
def test_tune_on_a_text_without_tokens_is_code_3_naming_it(tmp_path, capsys, role):
    tasks = gen_small(tmp_path, lengths="8")
    bucket = tasks / "passkey" / "8"
    qid, gold, _ = (bucket / "qrels.tsv").read_text().splitlines()[1].split("\t")
    name, rid = ("queries.jsonl", qid) if role == "query" else ("corpus.jsonl", gold)
    path = bucket / name
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for row in rows:
        if row["_id"] == rid:
            row["text"] = "!!! ---"  # punctuation only: no word survives tokenizing
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    out = tmp_path / "t.ckpt"
    code = run("tune", "--model", init_small(tmp_path), "--l-target", 16, "--data", bucket,
               "--negatives", 2, "--out", out)
    assert code == 3 and not out.exists()
    assert f"task '8': {role} {rid!r} has no tokens" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "tune", "inspect"])
def test_an_output_path_in_a_missing_directory_is_written(tmp_path, command):
    target = tmp_path / "nodir" / "deeper" / "out"
    if command == "inspect":
        argv = ["inspect", "--strategy", "gp", "--l-orig", 8, "--l-target", 16, "--out", target]
    elif command == "eval":
        argv = ["eval", "--model", init_small(tmp_path), "--synthetic",
                gen_small(tmp_path, lengths="8") / "passkey", "--out", target]
    else:
        argv = ["tune", "--model", init_small(tmp_path), "--l-target", 16,
                "--data", gen_small(tmp_path, lengths="8") / "passkey" / "8", "--max-steps", 1,
                "--batch-size", 2, "--negatives", 2, "--temperature", 0.5, "--log", target,
                "--out", tmp_path / "t.ckpt"]
    assert run(*argv) == 0
    assert target.read_text()


def test_tune_writes_checkpoint_and_log(tmp_path):
    tasks = gen_small(tmp_path, lengths="8")
    ckpt = init_small(tmp_path)
    out = tmp_path / "tuned.ckpt"
    log = tmp_path / "log.tsv"
    code = run("tune", "--model", ckpt, "--mode", "pi_anchored", "--l-target", 16,
               "--data", tasks / "passkey" / "8", "--epochs", 2, "--max-steps", 3,
               "--batch-size", 2, "--negatives", 2, "--lr", 0.01,
               "--temperature", 0.5, "--warmup-steps", 1, "--log", log, "--out", out)
    assert code == 0
    tuned = load_checkpoint(out)
    assert tuned.extension is not None and tuned.extension.l_target == 16
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "step\tloss" and len(lines) == 4


def test_tune_zero_epochs_on_extended_model_is_identity(tmp_path):
    tasks = gen_small(tmp_path, lengths="8")
    ckpt = init_small(tmp_path)
    first = tmp_path / "extended.ckpt"
    run("tune", "--model", ckpt, "--l-target", 16, "--data", tasks / "passkey" / "8",
        "--epochs", 1, "--max-steps", 1, "--batch-size", 2, "--negatives", 2,
        "--temperature", 0.5, "--out", first)
    second = tmp_path / "retuned.ckpt"
    code = run("tune", "--model", first, "--l-target", 16, "--data",
               tasks / "passkey" / "8", "--epochs", 0, "--negatives", 2,
               "--temperature", 0.5, "--out", second)
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_tuned_checkpoint_frozen_count_matches_pi_rule(tmp_path):
    tasks = gen_small(tmp_path, lengths="8")
    ckpt = init_small(tmp_path)
    out = tmp_path / "tuned.ckpt"
    run("tune", "--model", ckpt, "--mode", "pi_anchored", "--l-target", 16,
        "--data", tasks / "passkey" / "8", "--epochs", 1, "--max-steps", 1,
        "--batch-size", 2, "--negatives", 2, "--temperature", 0.5, "--out", out)
    tuned = load_checkpoint(out)
    assert int(tuned.extension.frozen.sum()) == 8  # one frozen anchor per original row


def test_tune_replay_reproduces_loss_curve(tmp_path):
    tasks = gen_small(tmp_path, lengths="8")
    ckpt = init_small(tmp_path)
    logs = []
    for name in ("a", "b"):
        log = tmp_path / f"{name}.tsv"
        run("tune", "--model", ckpt, "--l-target", 16, "--data",
            tasks / "passkey" / "8", "--epochs", 1, "--max-steps", 3,
            "--batch-size", 2, "--negatives", 2, "--temperature", 0.5,
            "--seed", 5, "--log", log, "--out", tmp_path / f"{name}.ckpt")
        logs.append(log.read_text())
    assert logs[0] == logs[1]


def test_tune_cli_defaults_are_the_tune_config_defaults():
    args = build_parser().parse_args(["tune", "--model", "m.ckpt", "--l-target", "16",
                                      "--data", "tasks", "--out", "t.ckpt"])
    config = TuneConfig(mode=args.mode, l_orig=8, l_target=args.l_target)
    assert args.batch_size == config.batch_size == 512
    assert (args.lr, args.epochs, args.warmup_steps, args.temperature, args.negatives) == (
        config.learning_rate, config.epochs, config.warmup_steps, config.temperature,
        config.n_negatives)


@pytest.mark.parametrize("flag, value", [
    ("--max-steps", -1), ("--lr", "nan"), ("--lr", "inf"), ("--temperature", "nan"),
    ("--temperature", "inf"),
])
def test_tune_rejects_bad_settings_with_code_2(tmp_path, capsys, flag, value):
    tasks = gen_small(tmp_path, lengths="8")
    ckpt = init_small(tmp_path)
    out = tmp_path / "t.ckpt"
    code = run("tune", "--model", ckpt, "--l-target", 16, "--data", tasks / "passkey" / "8",
               "--batch-size", 2, "--negatives", 2, flag, value, "--out", out)
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


def test_tune_divergence_exits_4_after_writing_checkpoint(tmp_path):
    import numpy as np

    from longctx.serialization import save_checkpoint
    from longctx.tuning import TuneConfig, extend_for_tuning

    tasks = gen_small(tmp_path, lengths="8")
    ckpt = init_small(tmp_path)
    poisoned = load_checkpoint(ckpt)
    config = TuneConfig(mode="pi_anchored", l_orig=8, l_target=16, epochs=0)
    poisoned = extend_for_tuning(poisoned, config)
    poisoned.params["pos_table"][~poisoned.extension.frozen] = np.nan
    bad_ckpt = tmp_path / "poisoned.ckpt"
    save_checkpoint(poisoned, bad_ckpt)
    out = tmp_path / "t.ckpt"
    code = run("tune", "--model", bad_ckpt, "--l-target", 16, "--data",
               tasks / "passkey" / "8", "--epochs", 1, "--batch-size", 2,
               "--negatives", 2, "--temperature", 0.5, "--out", out)
    assert code == 4
    assert out.exists()  # last good state was still written


@pytest.mark.parametrize("command", ["init", "gen", "tune"])
def test_a_negative_seed_is_code_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = {
        "init": ["init", "--hidden-size", 16, "--layers", 1, "--heads", 2, "--vocab-size", 64,
                 "--l-orig", 8],
        "gen": ["gen", "--kind", "passkey", "--lengths", "16", "--queries", 1,
                "--candidates", 2],
        "tune": ["tune", "--model", init_small(tmp_path), "--l-target", 16,
                 "--data", gen_small(tmp_path, lengths="8") / "passkey" / "8"],
    }[command]
    assert run(*argv, "--seed", -1, "--out", out) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "inspect"])
def test_a_run_resolves_its_strategy_once(tmp_path, command):
    """An ntk run whose lambda is not above s warns once, not once per resolution."""
    if command == "eval":
        argv = ["eval", "--model", init_small(tmp_path, mode="rotary"),
                "--synthetic", gen_small(tmp_path) / "passkey"]
    else:
        argv = ["inspect", "--mode", "rotary", "--l-orig", 8]
    with pytest.warns(UserWarning, match="NTK multiplier 2 should be slightly greater") as caught:
        assert run(*argv, "--strategy", "ntk", "--l-target", 64, "--ntk-lambda", 2) == 0
    assert len(caught) == 1


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_inspect_rejects_a_non_finite_ntk_lambda_with_code_2(capsys, lam):
    assert run("inspect", "--strategy", "ntk", "--mode", "rotary", "--l-orig", 8,
               "--l-target", 16, "--ntk-lambda", lam) == 2
    assert capsys.readouterr().out == ""


def test_inspect_dumps_positions_and_frequencies(tmp_path, capsys):
    assert run("inspect", "--strategy", "gp", "--l-orig", 8, "--l-target", 32) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["positions"] == [i // 4 for i in range(32)]
    assert max(dump["positions"]) < 8

    assert run("inspect", "--strategy", "ntk", "--mode", "rotary", "--l-orig", 8,
               "--l-target", 32, "--d-head", 4) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["ntk_lambda"] == 5.0
    assert dump["theta"][0] == 1.0

    assert run("inspect", "--strategy", "se", "--mode", "rotary", "--l-orig", 8,
               "--l-target", 10, "--g", 2, "--w", 4, "--input-len", 10) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["relative_positions_x0"] == [0, 1, 2, 3, 4, 4, 5, 5, 6, 6]

    assert run("inspect", "--strategy", "pi", "--mode", "rotary", "--l-orig", 8,
               "--l-target", 32, "--input-len", 20) == 0
    positions = json.loads(capsys.readouterr().out)["positions"]
    assert positions == [i / 4 for i in range(20)]
    assert all(isinstance(p, float) for p in positions)  # rotary phases stay real

    for mode in ("absolute", "rotary"):
        assert run("inspect", "--strategy", "pcw", "--mode", mode, "--l-orig", 8,
                   "--l-target", 32, "--input-len", 20) == 0
        assert json.loads(capsys.readouterr().out)["chunks"] == [[0, 8], [8, 16], [12, 20]]

    # input lengths outside [1, l_target] are data errors for every strategy
    for strategy, mode in (("gp", "absolute"), ("pi", "rotary"), ("ntk", "rotary"),
                           ("se", "rotary"), ("pcw", "absolute")):
        for bad in (-3, 0, 100):
            assert run("inspect", "--strategy", strategy, "--mode", mode, "--l-orig", 8,
                       "--l-target", 32, "--input-len", bad) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error:")

    # log-n attention scaling divides by log l_orig, which is 0 for l_orig = 1
    assert run("inspect", "--strategy", "none", "--l-orig", 1) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("configuration error:")


@pytest.mark.parametrize("command, flags, named", [
    ("eval", ["--strategy", "se", "--g", 7], "group_size and window go together"),
    ("eval", ["--strategy", "ntk", "--g", 7, "--w", 2], "group_size applies only to strategy se"),
    ("inspect", ["--strategy", "pi", "--ntk-lambda", 3], "ntk_lambda applies only to strategy ntk"),
], ids=["se-g-without-w", "ntk-with-g-and-w", "pi-with-ntk-lambda"])
def test_a_strategy_parameter_that_never_runs_is_code_2(tmp_path, capsys, command, flags,
                                                        named):
    """Not run with the table's parameters under a report that names the given ones."""
    if command == "eval":
        argv = ["eval", "--model", init_small(tmp_path, mode="rotary"), "--l-target", 32,
                "--synthetic", gen_small(tmp_path) / "passkey", "--out", tmp_path / "r.json"]
    else:
        argv = ["inspect", "--mode", "rotary", "--l-orig", 8, "--l-target", 32]
    capsys.readouterr()
    assert run(*argv, *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("key, value", [
    ("strategy", "bogus"),
    ("strategy", "SE"),  # as --strategy SE: names are lower case
    ("seed", "x"),
    ("l_target", "abc"),
    ("g", "5"),
    ("attn_scaling", "no"),
])
def test_eval_config_value_of_the_wrong_type_is_code_2(tmp_path, capsys, key, value):
    tasks = gen_small(tmp_path)
    ckpt = init_small(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code = run("eval", "--model", ckpt, "--config", cfg, "--synthetic", tasks / "passkey")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert str(cfg) in err and repr(key) in err


def test_eval_unknown_config_key_is_code_2(tmp_path, capsys):
    tasks = gen_small(tmp_path)
    ckpt = init_small(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"batch_sise": 0}))
    code = run("eval", "--model", ckpt, "--config", cfg, "--synthetic", tasks / "passkey")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert str(cfg) in err and "'batch_sise'" in err


@pytest.mark.parametrize("argv, code", [
    (["--lengths", "3"], 3),  # passkey/3 builds; needle's 8-word budget cannot hold a fact
    (["--lengths", "64", "--essay", "/nonexistent/essay.txt"], 1),
], ids=["needle-budget", "missing-essay"])
def test_failed_gen_writes_nothing(tmp_path, capsys, argv, code):
    out = tmp_path / "tasks"
    assert run("gen", "--kind", "both", "--queries", 2, "--candidates", 4, *argv,
               "--out", out) == code
    assert not out.exists()
    assert "wrote" not in capsys.readouterr().out


@pytest.mark.parametrize("lengths", ["64,abc", "", "16,,32", "0"])
def test_gen_bad_lengths_is_code_2(tmp_path, capsys, lengths):
    code = run("gen", "--kind", "passkey", "--lengths", lengths, "--out", tmp_path / "tasks")
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not (tmp_path / "tasks").exists()


@pytest.mark.parametrize("argv, message", [
    (["--queries", 0], "queries_per_length must be >= 1"),
    (["--queries", 4, "--candidates", 2], "candidates_per_length must cover"),
], ids=["no-queries", "too-few-candidates"])
def test_gen_bad_counts_are_code_2(tmp_path, capsys, argv, message):
    code = run("gen", "--kind", "passkey", *argv, "--out", tmp_path / "tasks")
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "tasks").exists()


def test_eval_notes_each_bucket_of_one_length(tmp_path, capsys):
    passkey = gen_small(tmp_path / "p", lengths="64", candidates=8) / "passkey"
    needle = gen_small(tmp_path / "n", kind="needle", lengths="64", candidates=6) / "needle"
    ckpt = init_small(tmp_path, l_orig=16)
    report_path = tmp_path / "report.json"
    assert run("eval", "--model", ckpt, "--strategy", "none", "--synthetic", passkey, needle,
               "--out", report_path) == 0
    skipped = json.loads(report_path.read_text())["skipped"]
    assert {key: counts["unretrievable_docs"] for key, counts in skipped.items()} == \
        {"passkey/64": 8, "needle/64": 6}
    out = capsys.readouterr().out
    assert "note [passkey/64]: unretrievable_docs=8" in out
    assert "note [needle/64]: unretrievable_docs=6" in out


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the CLI pins glibc's allocator thresholds")
def test_repeated_eval_reuses_freed_activations(tmp_path):
    import resource

    tasks = gen_small(tmp_path, lengths="512", candidates=16)
    ckpt = tmp_path / "rotary.ckpt"
    assert run("init", "--mode", "rotary", "--hidden-size", 64, "--layers", 2, "--heads", 4,
               "--vocab-size", 4096, "--l-orig", 128, "--out", ckpt) == 0
    argv = ("eval", "--model", ckpt, "--strategy", "ntk", "--l-target", 512,
            "--synthetic", tasks / "passkey")
    assert run(*argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert run(*argv) == 0
    # ~16,000 with glibc's dynamic thresholds, which return each batch's activations
    # to the kernel
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


def _no_libc(name):
    raise OSError("no C library handle")


class _LibcWithoutMallopt:  # like macOS's libc
    def __init__(self, name):
        pass


@pytest.mark.parametrize("cdll", [_no_libc, _LibcWithoutMallopt],
                         ids=["no-libc", "no-mallopt"])
def test_cli_runs_where_mallopt_is_missing(tmp_path, monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert run("inspect", "--strategy", "gp", "--l-orig", 8, "--l-target", 32) == 0
    tasks = gen_small(tmp_path)
    ckpt = init_small(tmp_path)
    assert run("eval", "--model", ckpt, "--strategy", "rp", "--l-target", 64,
               "--synthetic", tasks / "passkey") == 0


def test_importing_longctx_leaves_the_allocator_alone():
    probe = ("import ctypes\n"
             "opened = []\n"
             "ctypes.CDLL = lambda *a, **k: opened.append(a)\n"
             "import longctx, longctx.cli\n"
             "assert opened == [], opened\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
