"""longctx benchmark: one workload per run, or every workload with ``--workload all``.

    python3 perfbench/run.py --workload eval_se --seed 0 --seconds 35 --trace 0

Run from the repository root; longctx is imported from ``src/`` next to this
directory. Set-up is repeated SETUP_REPS times and its median reported as
``setup_s``; then whole rounds of the workload run until ``--seconds`` have
passed, and throughput is the median over rounds. With ``--trace 1`` rounds
alternate untraced and traced, and the run reports per-layer metrics from the
traced rounds plus the tracing overhead. The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPS = 5
# Pinned below nproc (2 on the reference box): at these toy shapes BLAS threads
# add scheduling noise and no speed.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("eval_sweep", "eval_se", "train_tune")

# spans whose per-layer metrics come from the set-up repetitions; the rest come from timed rounds
SETUP_SPANS = ("synth.build_bucket", "serialization.write_task", "serialization.save_checkpoint",
               "encoder.init_model", "tuning.extend_for_tuning", "tuning.training_pairs_from_task")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-references", action="store_true",
                   help="store this seed's outputs in references.json (only after a deliberate "
                        "change of the program's outputs)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# environment


def _blas_runtime_threads():
    """Thread count reported by the loaded OpenBLAS itself, or None when not found."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    if not (ROOT / ".git").exists():  # git would otherwise search the parent directories
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "longctx").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": _blas_runtime_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one workload


def _per_layer(setup_aggs, round_aggs, round_counts, rounds, traced) -> dict:
    from tracer import PATCHES

    def med(aggs, name, field):
        return statistics.median(a.get(name, {}).get(field, 0.0) for a in aggs)

    counts = round_counts[0]
    metrics = {}
    for name in sorted({n for _, _, n in PATCHES}):
        aggs = setup_aggs if name in SETUP_SPANS else round_aggs
        metrics[f"{name}.busy_s"] = (med(aggs, name, "busy_s"), "s")
        metrics[f"{name}.self_s"] = (med(aggs, name, "self_s"), "s")
        metrics[f"{name}.calls"] = (aggs[0].get(name, {}).get("calls", 0), "count")
    for key in ("encoder.real_tokens", "encoder.padded_slots", "encoder.attn_cells",
                "encoder._relative_scores.cells", "chunking.input_tokens",
                "chunking.chunk_tokens", "tokenizer.tokenize.words"):
        metrics[key] = (counts.get(key, 0), "count")
    padded, chunk_in = counts.get("encoder.padded_slots", 0), counts.get("chunking.input_tokens", 0)
    metrics["encoder.padding_eff"] = (
        counts.get("encoder.real_tokens", 0) / padded if padded else 0.0, "ratio")
    metrics["chunking.tokens_ratio"] = (
        counts.get("chunking.chunk_tokens", 0) / chunk_in if chunk_in else 0.0, "ratio")
    # each traced round against the untraced round just before it, so slow
    # host-speed drift cancels within a pair
    pairs = [(rounds[i - 1].wall_s, rounds[i].wall_s) for i in range(1, len(rounds))
             if traced[i] and not traced[i - 1]]
    metrics["trace.overhead_s"] = (statistics.median(t - u for u, t in pairs), "s")
    metrics["trace.overhead_frac"] = (statistics.median(t / u - 1.0 for u, t in pairs), "ratio")
    top = sum(a["top_s"] for agg in round_aggs for a in agg.values())
    metrics["trace.accounted_frac"] = (top / sum(r.wall_s for r, t in zip(rounds, traced) if t),
                                       "ratio")
    metrics["trace.rounds"] = (len(round_aggs), "count")
    metrics["trace.counts_repeat"] = (int(all(c == counts for c in round_counts)), "count")
    return metrics


def run_workload(args) -> dict:
    import workloads
    from hostspeed import HostSpeed, speed
    from tracer import Tracer, aggregate

    tracer = Tracer() if args.trace else None
    host = HostSpeed()
    work_root = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = workloads.make_workload(args.workload, args.seed)
    setup_s, setup_aggs, setup_host = [], [], host.sample()
    try:
        for rep in range(SETUP_REPS):
            if tracer:
                tracer.install()
                start = tracer.mark()
            t0 = time.perf_counter()
            wl.setup(work_root / f"setup{rep}")
            setup_s.append(time.perf_counter() - t0)
            if tracer:
                tracer.uninstall()
                setup_aggs.append(aggregate(tracer.spans, start))
            setup_host += host.sample()
        wl.prepare_checks()

        rounds, traced, round_aggs, round_counts, round_host = [], [], [], [], host.sample()
        began = time.perf_counter()
        while True:
            trace_this = bool(tracer) and 2 * sum(traced) < len(rounds)
            if trace_this:
                tracer.install()
                start = tracer.mark()
            rounds.append(wl.run_round())
            traced.append(trace_this)
            if trace_this:
                tracer.uninstall()
                round_aggs.append(aggregate(tracer.spans, start))
                round_counts.append(dict(tracer.counts))
            round_host += host.sample()
            if time.perf_counter() - began >= args.seconds and (not tracer or any(traced)):
                break

        probe = wl.probe()
        refs_path = BENCH_DIR / "references.json"
        refs = json.loads(refs_path.read_text(encoding="utf-8")) if refs_path.exists() else {}
        if args.record_references:
            refs.setdefault(args.workload, {})[str(args.seed)] = wl.observed(rounds, probe)
            refs_path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        checks = wl.check(rounds, probe, refs.get(args.workload, {}).get(str(args.seed)))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            work_root.parent.rmdir()

    rates = [r.tokens / r.wall_s for r in rounds]
    setup_speed, round_speed = speed(setup_host), speed(round_host)
    named = {  # raw wall-clock figures under their per-workload names, printed for people
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_ops_frac": (checks.failed / checks.attempted, "ratio"),
        "host_speed": (round_speed, "ratio"),
    }
    if args.workload == "train_tune":
        named["train_steps_per_s"] = (
            statistics.median(wl.steps / r.phase_s["train"] for r in rounds), "steps/s")
        named["tune_steps_per_s"] = (
            statistics.median(wl.steps / r.phase_s["tune"] for r in rounds), "steps/s")
    else:
        named["eval_tokens_per_s"] = (statistics.median(rates), "tokens/s")
    if tracer:
        metrics = _per_layer(setup_aggs, round_aggs, round_counts, rounds, traced)
    else:
        metrics = {
            "ref_tokens_per_s": (statistics.median(rates) / round_speed, "tokens/s"),
            "peak_rss_mb": named["peak_rss_mb"],
            "setup_s": (statistics.median(setup_s) * setup_speed, "s"),
        }
    env = environment(args.seed)
    detail = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds, "env": env,
        "setup_runs_s": setup_s, "setup_host_speed": setup_speed, "round_host_speed": round_speed,
        "rounds": [{"wall_s": r.wall_s, "tokens": r.tokens, "phase_s": r.phase_s, "traced": t}
                   for r, t in zip(rounds, traced)],
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": checks.problems,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if tracer:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n", encoding="utf-8")

    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in named.items():
        print(f"{args.workload} wall {name} = {value:.6g} {unit}")
    for problem in checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"{name}: exited with {done.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for key, metric in result["metrics"].items():
            print(f"{name} result {key} = {metric['value']:.6g} {metric['unit']}")
        print(f"{name} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "longctx" / "__init__.py").is_file():
        print(f"no longctx sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import longctx

    if Path(longctx.__file__).resolve().parent != SRC / "longctx":
        print(f"imported longctx from {longctx.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
