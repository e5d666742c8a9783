"""Command-line surface tying generation, encoding, tuning, and evaluation together.

Subcommands: gen (synthetic task files), init (fresh seeded checkpoint), eval
(benchmark a checkpoint under one extension strategy), tune (frozen-anchor
fine-tuning), inspect (dump position maps and frequencies for a strategy).

Configuration resolution order is CLI flag > config file (--config, JSON) >
built-in default; the resolved snapshot is embedded in every report. Exit
codes: 0 success, 2 configuration error, 3 data validation error, 4 runtime
numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .encoder import ModelConfig, init_model
from .errors import (
    ConfigurationError,
    LongCtxError,
    NumericError,
    ParseError,
    ValidationError,
    check_types,
    read_text,
)
from .evaluation import BenchmarkTask, run_benchmark
from .positions import (
    ROPE_BASE,
    ExtensionSpec,
    ResolvedExtension,
    Strategy,
    assign_positions,
    attention_scale,
    check_input_length,
    plan_chunks,
    resolve_extension,
    se_remap_deltas,
    standard_frequencies,
)
from .serialization import (
    load_checkpoint,
    load_task_dir,
    save_checkpoint,
    task_stats,
    write_report,
    write_task,
    write_training_log,
)
from .synth import DEFAULT_LENGTH_GRID, SyntheticTaskConfig, build_bucket
from .tuning import TuneConfig, extend_for_tuning, training_pairs_from_task, tune

# Each eval setting's default, and the type its flag parses, which a config
# file value must have too (null only where the default is null).
_EVAL_SETTINGS = {
    "strategy": ("str", "none"),
    "l_target": ("int | None", None),
    "ntk_lambda": ("float | None", None),
    "g": ("int | None", None),
    "w": ("int | None", None),
    "seed": ("int", 42),
    "attn_scaling": ("bool", True),
}


def _check_file_types(path: str, file_keys: dict) -> None:
    """Every key is an eval setting holding its flag's type, and a strategy is a strategy name."""
    unknown = [key for key in file_keys if key not in _EVAL_SETTINGS]
    if unknown:
        raise ConfigurationError(
            f"{path}: unknown key {unknown[0]!r}; expected one of " + ", ".join(_EVAL_SETTINGS)
        )
    try:
        check_types(file_keys, {key: kind for key, (kind, _) in _EVAL_SETTINGS.items()})
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    strategy = file_keys.get("strategy", _EVAL_SETTINGS["strategy"][1])
    if strategy not in {s.value for s in Strategy}:
        raise ConfigurationError(f"{path}: 'strategy' must be a strategy name, got {strategy!r}")


def _resolved_config(args: argparse.Namespace, file_keys: dict) -> dict:
    """CLI flag > config file > default, per eval setting."""
    out = {}
    for key, (_, default) in _EVAL_SETTINGS.items():
        cli_val = getattr(args, key)
        out[key] = cli_val if cli_val is not None else file_keys.get(key, default)
    return out


def _strategy_flags(p: argparse.ArgumentParser, required: bool) -> None:
    """The strategy flags that eval and inspect share; ``_resolution`` reads them."""
    p.add_argument("--strategy", required=required, choices=[s.value for s in Strategy])
    p.add_argument("--l-target", type=int, dest="l_target")
    p.add_argument("--ntk-lambda", type=float, dest="ntk_lambda")
    p.add_argument("--g", type=int, help="SelfExtend group size")
    p.add_argument("--w", type=int, help="SelfExtend neighbor window")


def _resolution(settings: dict, l_orig: int, mode: str) -> ResolvedExtension:
    """The ExtensionSpec of ``_strategy_flags``' settings, resolved once for the run's mode."""
    return resolve_extension(ExtensionSpec(
        strategy=settings["strategy"], l_orig=l_orig, l_target=settings["l_target"],
        ntk_lambda=settings["ntk_lambda"], group_size=settings["g"], window=settings["w"],
    ), mode)


def _load_file_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        cfg = json.loads(read_text(path, ParseError))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(cfg, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# gen


def _parse_lengths(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigurationError(
            f"--lengths must be comma-separated integers, got {text!r}"
        ) from exc


def cmd_gen(args) -> int:
    kinds = ["passkey", "needle"] if args.kind == "both" else [args.kind]
    lengths = DEFAULT_LENGTH_GRID if args.lengths is None else _parse_lengths(args.lengths)
    built = []  # every bucket is built before any is written, so a failed run writes nothing
    for kind in kinds:
        config = SyntheticTaskConfig(
            kind=kind,
            length_grid=lengths,
            queries_per_length=args.queries,
            candidates_per_length=args.candidates,
            seed=args.seed,
            essay_path=args.essay,
        )
        built += [(Path(args.out) / kind / str(length), build_bucket(config, length))
                  for length in lengths]
    for bucket_dir, task in built:
        write_task(task, bucket_dir)
        print(f"wrote {task.name}: {len(task.queries)} queries, "
              f"{len(task.docs)} docs -> {bucket_dir}")
    return 0


# ---------------------------------------------------------------------------
# init


def cmd_init(args) -> int:
    config = ModelConfig(
        hidden_size=args.hidden_size,
        n_layers=args.layers,
        n_heads=args.heads,
        vocab_size=args.vocab_size,
        original_context=args.l_orig,
        position_mode=args.mode,
        init_seed=args.seed,
    )
    model = init_model(config)
    save_checkpoint(model, args.out)
    print(f"wrote {args.mode} checkpoint (d={args.hidden_size}, "
          f"layers={args.layers}, l_orig={args.l_orig}) -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _discover_synthetic(root: Path) -> list[BenchmarkTask]:
    """A kind directory with numeric bucket subdirs, or one bucket directory named by
    its length."""
    if (root / "queries.jsonl").exists():
        if not root.name.isdigit():
            raise ValidationError(f"{root} holds task files but is not named by its bucket "
                                  "length in tokens")
        return [BenchmarkTask(task=load_task_dir(root), metric="acc@1",
                              group=root.parent.name, length=int(root.name))]
    buckets = sorted((d for d in root.iterdir() if d.is_dir() and d.name.isdigit()),
                     key=lambda d: int(d.name))
    if not buckets:
        raise ValidationError(f"{root} holds no task files and no numeric bucket dirs")
    return [
        BenchmarkTask(task=load_task_dir(d), metric="acc@1",
                      group=root.name, length=int(d.name))
        for d in buckets
    ]


def _print_summary(report) -> None:
    cols = list(report.synthetic) + list(report.real) + ["Avg."]
    vals = [report.task_scores[g] for g in report.synthetic]
    vals += [report.real[g] for g in report.real]
    vals += [report.average]
    width = max(10, max((len(c) for c in cols), default=10) + 2)
    acc_cols = len(report.synthetic)
    header_groups = []
    if acc_cols:
        header_groups.append(f"{'Synthetic (Acc@1)':<{width * acc_cols}}")
    if report.real:
        header_groups.append(f"{'Real (nDCG@10)':<{width * len(report.real)}}")
    print("".join(header_groups))
    print("".join(f"{c:<{width}}" for c in cols))
    print("".join(f"{100 * v:<{width}.1f}" for v in vals))
    for group, buckets in report.synthetic.items():
        detail = "  ".join(f"{l}: {100 * v:.1f}" for l, v in sorted(buckets.items()))
        print(f"  {group} by length: {detail}")
    for name, counts in report.skipped.items():
        print(f"  note [{name}]: " + ", ".join(f"{k}={v}" for k, v in counts.items()))


def cmd_eval(args) -> int:
    model = load_checkpoint(args.model)
    file_cfg = _load_file_config(args.config)
    _check_file_types(args.config, file_cfg)
    settings = _resolved_config(args, file_cfg)
    if settings["l_target"] is None:
        settings["l_target"] = (
            model.extension.l_target if model.extension else model.config.original_context
        )
    # fail fast before encoding; the one resolution runs every task
    resolved = _resolution(settings, model.config.original_context, model.config.position_mode)

    tasks: list[BenchmarkTask] = []
    for d in args.synthetic or []:
        tasks.extend(_discover_synthetic(Path(d)))
    for d in args.real or []:
        task = load_task_dir(Path(d))
        stats = task_stats(task)
        print(f"ingested {task.name}: {stats['n_queries']} queries / {stats['n_docs']} docs, "
              f"mean words q={stats['mean_query_words']:.1f} d={stats['mean_doc_words']:.1f}")
        tasks.append(BenchmarkTask(task=task, metric="ndcg@10", group=Path(d).name))
    if not tasks:
        raise ValidationError("no tasks given; pass --synthetic and/or --real directories")

    report = run_benchmark(
        model, resolved, tasks,
        attn_scaling=bool(settings["attn_scaling"]),
        seed=int(settings["seed"]),
        run_config={**settings, "model": str(args.model), "tool_version": __version__},
    )
    _print_summary(report)
    if args.out:
        write_report(report, args.out)
        print(f"report -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# tune


def cmd_tune(args) -> int:
    model = load_checkpoint(args.model)
    config = TuneConfig(
        mode=args.mode,
        l_orig=model.config.original_context,
        l_target=args.l_target,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        epochs=args.epochs,
        warmup_steps=args.warmup_steps,
        temperature=args.temperature,
        n_negatives=args.negatives,
        seed=args.seed,
        max_steps=args.max_steps,
    )
    task = load_task_dir(Path(args.data))
    rng = np.random.default_rng(config.seed)
    pairs = training_pairs_from_task(
        task, model.config.vocab_size, config.n_negatives, rng,
        max_len=model.config.original_context,
    )
    if model.extension is None:
        model = extend_for_tuning(model, config)
    result = tune(model, pairs, config)
    save_checkpoint(result.model, args.out)
    if args.log:
        write_training_log(result.log, args.log)
    last = result.log[-1][1] if result.log else float("nan")
    print(f"tuned {len(result.log)} steps (last loss {last:.4f}) -> {args.out}")
    if result.diverged:
        raise NumericError(
            f"loss went non-finite; checkpoint at {args.out} holds the last good state"
        )
    return 0


# ---------------------------------------------------------------------------
# inspect


def cmd_inspect(args) -> int:
    resolved = _resolution(vars(args), args.l_orig, args.mode)
    n = resolved.l_target if args.input_len is None else args.input_len
    check_input_length(n, resolved.l_target)
    dump: dict = {
        "strategy": resolved.strategy.value,
        "mode": args.mode,
        "l_orig": resolved.l_orig,
        "l_target": resolved.l_target,
        "scale": resolved.scale,
        "ntk_lambda": resolved.ntk_lambda,
        "group_size": resolved.group_size,
        "window": resolved.window,
        "notes": list(resolved.notes),
        "attention_scale": {
            str(length): attention_scale(length, resolved.l_orig)
            for length in sorted({resolved.l_orig, n, resolved.l_target})
        },
    }
    if args.mode == "rotary":
        dump["theta"] = standard_frequencies(args.d_head, resolved.rope_base(ROPE_BASE)).tolist()
    if resolved.strategy is Strategy.SE:
        deltas = np.arange(n)
        dump["relative_positions_x0"] = se_remap_deltas(
            deltas, resolved.group_size, resolved.window
        ).tolist()
    elif resolved.strategy is Strategy.PCW:
        dump["chunks"] = plan_chunks(n, resolved.l_orig)
    else:
        dump["positions"] = assign_positions(resolved, n).tolist()
    text = json.dumps(dump, indent=2)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"inspection -> {args.out}")
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="longctx", description=__doc__)
    parser.add_argument("--version", action="version", version=f"longctx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic task files")
    p.add_argument("--kind", choices=["passkey", "needle", "both"], default="both")
    p.add_argument("--lengths", help="comma-separated token lengths (default: full grid)")
    p.add_argument("--queries", type=int, default=50)
    p.add_argument("--candidates", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--essay", help="plain-text haystack source (default: builtin essay)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("init", help="write a fresh seeded model checkpoint")
    p.add_argument("--hidden-size", type=int, default=64)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--vocab-size", type=int, default=30522)
    p.add_argument("--l-orig", type=int, default=128)
    p.add_argument("--mode", choices=["absolute", "rotary"], default="absolute")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("eval", help="run the retrieval benchmark")
    p.add_argument("--model", required=True)
    p.add_argument("--config", help="JSON config file (flags override it)")
    _strategy_flags(p, required=False)
    p.add_argument("--seed", type=int)
    p.add_argument("--no-attn-scaling", dest="attn_scaling", action="store_false", default=None)
    p.add_argument("--synthetic", nargs="*", help="synthetic task dirs (kind or bucket)")
    p.add_argument("--real", nargs="*", help="ingested dataset dirs")
    p.add_argument("--out", help="report JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tune", help="frozen-anchor fine-tuning of an absolute-mode model")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=["pi_anchored", "rp_suffix"], default="pi_anchored")
    p.add_argument("--l-target", type=int, dest="l_target", required=True)
    p.add_argument("--data", required=True, help="task dir supplying contrastive triples")
    p.add_argument("--lr", type=float, default=TuneConfig.learning_rate)
    p.add_argument("--batch-size", type=int, dest="batch_size", default=TuneConfig.batch_size,
                   help="contrastive pairs per training step")
    p.add_argument("--epochs", type=int, default=TuneConfig.epochs)
    p.add_argument("--warmup-steps", type=int, dest="warmup_steps",
                   default=TuneConfig.warmup_steps)
    p.add_argument("--temperature", type=float, default=TuneConfig.temperature)
    p.add_argument("--negatives", type=int, default=TuneConfig.n_negatives)
    p.add_argument("--max-steps", type=int, dest="max_steps")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--log", help="training log TSV path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("inspect", help="dump position maps / frequencies for a strategy")
    _strategy_flags(p, required=True)
    p.add_argument("--mode", choices=["absolute", "rotary"], default="absolute")
    p.add_argument("--l-orig", type=int, dest="l_orig", required=True)
    p.add_argument("--input-len", type=int, dest="input_len")
    p.add_argument("--d-head", type=int, dest="d_head", default=16)
    p.add_argument("--out")
    p.set_defaults(func=cmd_inspect)
    return parser


# glibc's mallopt parameter numbers. 32 MiB is the largest mmap threshold it
# accepts on 64-bit (DEFAULT_MMAP_THRESHOLD_MAX), the ceiling its dynamic
# threshold climbs to; the trim threshold sits above an L=512, batch-16
# forward pass, whose freed top of heap exceeds 64 MiB.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 128 << 20


def _keep_freed_memory_resident() -> None:
    """Fix glibc's mmap and trim thresholds; a no-op where there is no mallopt.

    With its default dynamic thresholds glibc keeps handing each batch's
    multi-MB activations back to the kernel, which must fault in and zero the
    pages again for the next batch: one round of the benchmark's three evals
    over passkey+needle buckets 128-512 took ~100,900 minor page faults, all
    inside forward_batch, ~12% of its CPU time. With fixed thresholds freed
    activations stay in the heap and the same round takes under 100 faults.
    The arithmetic is untouched.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or no mallopt in it
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    On glibc, the first thing it does is fix the allocator's mmap and trim
    thresholds (``_keep_freed_memory_resident``). That policy persists for the
    rest of the calling process; ``import longctx`` alone leaves the
    allocator at glibc's defaults.
    """
    _keep_freed_memory_resident()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except LongCtxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
