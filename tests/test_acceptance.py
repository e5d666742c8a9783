"""Acceptance suite: one test per shipped criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
live. The two directional criteria at the end train toy encoders end to end
and take the bulk of the runtime (a few minutes on a desktop CPU, bounded at
thirty). Criterion 12 reports its outcome as a finding rather than failing
the build, matching its contract.
"""

import itertools
import math
import time

import numpy as np
import pytest

import longctx as lc
from longctx.encoder import PI_ANCHORED, PosExtension
from longctx.evaluation import BenchmarkTask, ndcg_at_10, run_benchmark
from longctx.positions import (
    NTK_LAMBDA_TABLE,
    SE_PARAM_TABLE,
    ExtensionSpec,
    Strategy,
    assign_positions,
    build_interpolated_matrix,
    resolve_extension,
    resolve_ntk_lambda,
    resolve_se_params,
    se_remap_deltas,
    standard_frequencies,
)
from longctx.synth import OracleEmbedder, SyntheticTaskConfig, build_bucket, word_budget
from longctx.tuning import (
    TrainingPair,
    TuneConfig,
    extend_for_tuning,
    grad_check,
    train_model,
    training_pairs_from_task,
    tune,
)


class criterion:
    """Times a criterion body and prints its pass/fail line."""

    def __init__(self, number: int, description: str, budget_s: float | None = None):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[ACCEPTANCE] C{self.number:02d} {status} ({elapsed:.1f}s) {self.description}")
        if exc_type is None and self.budget_s is not None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s:.0f}s budget "
                f"({elapsed:.1f}s)"
            )
        return False


# --- 1: SelfExtend exactness ---------------------------------------------------


def test_c01_self_extend_worked_examples():
    with criterion(1, "SelfExtend reproduces the published worked examples", budget_s=1.0):
        x0 = se_remap_deltas(np.arange(10) - 0, g=2, w=4).tolist()
        x4 = se_remap_deltas(np.arange(10) - 4, g=2, w=4).tolist()
        assert x0 == [0, 1, 2, 3, 4, 4, 5, 5, 6, 6]
        assert x4 == [-4, -3, -2, -1, 0, 1, 2, 3, 4, 4]


# --- 2: rotary relative invariance ----------------------------------------------


def test_c02_rope_relative_invariance():
    with criterion(2, "attention score depends only on relative position (1000 trials)",
                   budget_s=5.0):
        rng = np.random.default_rng(2024)
        freq_cache = {}
        for _ in range(1000):
            d = 2 * int(rng.integers(1, 33))  # even d <= 64
            if d not in freq_cache:
                freq_cache[d] = standard_frequencies(d)
            q, k = rng.normal(size=d), rng.normal(size=d)
            m, n = rng.uniform(0, 5000), rng.uniform(0, 5000)
            delta = int(rng.integers(-1000, 1001))
            a = lc.attention_score(q, k, m, n, freq_cache[d])
            b = lc.attention_score(q, k, m + delta, n + delta, freq_cache[d])
            assert abs(a - b) < 1e-6


# --- 3: interpolation construction ------------------------------------------------


def test_c03_interpolated_table_construction():
    with criterion(3, "interpolated tables: bitwise anchors, convex rows, identity at s=1",
                   budget_s=10.0):
        rng = np.random.default_rng(7)
        for l_orig in (4, 512):
            rows = rng.normal(size=(l_orig, 8))
            for s in (1, 2, 4, 8):
                table = build_interpolated_matrix(rows, s)
                if s == 1:  # the table is the original; no extension, so no frozen rows
                    assert np.array_equal(table, rows)
                    with pytest.raises(lc.ConfigurationError):
                        PosExtension(PI_ANCHORED, l_orig, l_orig)
                    continue
                frozen = PosExtension(PI_ANCHORED, l_orig, l_orig * s).frozen
                idx = np.arange(l_orig * s)
                anchors = idx[idx % s == 0]
                assert np.array_equal(np.flatnonzero(frozen), anchors)
                assert np.array_equal(table[anchors], rows)
                non_anchor = idx[idx % s != 0]
                left_i = non_anchor // s
                tail = left_i >= l_orig - 1
                assert np.array_equal(
                    table[non_anchor[tail]],
                    np.broadcast_to(rows[l_orig - 1], (int(tail.sum()), 8)),
                )
                interior = non_anchor[~tail]
                left = rows[interior // s]
                right = rows[interior // s + 1]
                seg = right - left
                denom = (seg * seg).sum(axis=1)
                f = ((table[interior] - left) * seg).sum(axis=1) / denom
                assert (f >= -1e-12).all() and (f <= 1 + 1e-12).all()
                resid = table[interior] - (left + f[:, None] * seg)
                assert np.abs(resid).max() <= 1e-12


# --- 4: published hyperparameter table ----------------------------------------------


def test_c04_published_table_resolution():
    with criterion(4, "NTK multipliers and SelfExtend (g, w) match the published table"):
        assert {s: resolve_ntk_lambda(s) for s in (2, 4, 8)} == {2: 3.0, 4: 5.0, 8: 10.0}
        assert resolve_se_params(512, 4096) == (9, 64)
        assert resolve_se_params(4096, 32768) == (9, 512)
        assert resolve_se_params(512, 1024) == (3, 256)
        assert resolve_se_params(512, 2048) == (5, 128)
        assert resolve_se_params(4096, 8192) == (3, 2048)
        assert resolve_se_params(4096, 16384) == (5, 1024)


# --- 5: range safety -------------------------------------------------------------


def test_c05_range_safety_exhaustive():
    with criterion(5, "all remapped positions stay inside the trained range on the "
                      "published grid", budget_s=30.0):
        from longctx.positions import plan_chunks

        for l_orig, l_target in sorted(SE_PARAM_TABLE):
            s = math.ceil(l_target / l_orig)

            def positions(strategy, mode):
                spec = ExtensionSpec(strategy=strategy, l_orig=l_orig, l_target=l_target)
                return assign_positions(resolve_extension(spec, mode), l_target)

            for mode in ("absolute", "rotary"):
                grouped = positions(Strategy.GP, mode)
                assert grouped.min() >= 0 and grouped.max() < l_orig

            # interpolation maps pid to the continuous position pid / s
            phases = positions(Strategy.PI, "rotary")
            assert phases.min() >= 0 and phases.max() < l_orig

            recurrent = positions(Strategy.RP, "absolute")
            assert recurrent.min() >= 0 and recurrent.max() < l_orig

            # ... which in absolute mode is row pid of the s-times denser table
            rows = positions(Strategy.PI, "absolute")
            assert rows.min() >= 0 and rows.max() < l_orig * s

            for a, b in plan_chunks(l_target, l_orig):
                assert b - a == l_orig  # chunk-local ids are 0 .. l_orig-1

            g, w = SE_PARAM_TABLE[(l_orig, l_target)]
            deltas = np.arange(-(l_target - 1), l_target)
            remapped = se_remap_deltas(deltas, g, w)
            assert int(np.abs(remapped).max()) <= l_orig - 1

            # NTK leaves position ids untouched; its safety is in frequency space
            ntk = resolve_extension(ExtensionSpec(Strategy.NTK, l_orig, l_target), "rotary")
            assert ntk.ntk_lambda == resolve_ntk_lambda(s)
            base = standard_frequencies(16)
            scaled = standard_frequencies(16, ntk.rope_base(10000.0))
            assert scaled[0] == 1.0
            assert (np.diff(scaled) < 0).all()
            assert (scaled[1:] < base[1:]).all()


# --- 6: parallel context windows ------------------------------------------------------


def test_c06_pcw_plans_and_single_chunk_equivalence():
    with criterion(6, "chunk plans follow the overlap rule; single chunks match the "
                      "plain encoder bitwise"):
        from longctx.chunking import pcw_encode
        from longctx.positions import plan_chunks

        assert plan_chunks(1000, 512) == [(0, 512), (488, 1000)]
        for n in range(513, 4097):
            plan = plan_chunks(n, 512)
            assert len(plan) == math.ceil(n / 512)
            for i, (a, b) in enumerate(plan[:-1]):
                assert a == i * 512 and b == a + 512
            assert plan[-1] == (n - 512, n)

        cfg = lc.ModelConfig(hidden_size=16, n_layers=1, n_heads=2, vocab_size=64,
                             original_context=512, init_seed=9)
        model = lc.init_model(cfg)
        rng = np.random.default_rng(4)
        for n in (1, 100, 512):
            toks = rng.integers(0, 64, n)
            assert np.array_equal(
                pcw_encode(model, toks),
                lc.encode(model, toks, lc.ExtensionSpec.none(512)),
            )


# --- 7: metric oracle -------------------------------------------------------------


def _brute_force_ndcg(ranked, rels, k=10):
    def dcg(order):
        return sum((2 ** rels.get(d, 0) - 1) / math.log2(r + 1)
                   for r, d in enumerate(order[:k], start=1))
    ideal = max(dcg(list(p)) for p in itertools.permutations(rels))
    return dcg(ranked) / ideal


def test_c07_ndcg_matches_exhaustive_oracle():
    with criterion(7, "nDCG@10 equals the all-orderings oracle on <= 8 documents"):
        ranking = {"q": ["a", "b", "gold", "c"]}
        assert abs(ndcg_at_10(ranking, {"q": {"gold": 1}}) - 0.5) <= 1e-12

        rng = np.random.default_rng(11)
        sizes = [int(rng.integers(2, 7)) for _ in range(30)] + [8, 8, 8]
        for n in sizes:
            docs = [f"d{i}" for i in range(n)]
            rels = {d: int(rng.integers(0, 4)) for d in docs}
            if sum(rels.values()) == 0:
                rels[docs[-1]] = 2
            ranked = list(rng.permutation(docs))
            ours = ndcg_at_10({"q": ranked}, {"q": rels})
            assert abs(ours - _brute_force_ndcg(ranked, rels)) < 1e-9


# --- 8: generator contract ---------------------------------------------------------


def test_c08_generators_respect_budgets_and_oracle_scores_perfectly():
    with criterion(8, "full-grid generation honors word budgets; oracle embedder "
                      "scores Acc@1 = 1.0", budget_s=60.0):
        tasks = []
        for kind in ("passkey", "needle"):
            config = SyntheticTaskConfig(kind=kind)
            for length in config.length_grid:
                task = build_bucket(config, length)
                budget = word_budget(length)
                assert all(len(t.split()) <= budget for t in task.docs.values())
                assert len(task.docs) == 100 and len(task.queries) == 50
                tasks.append(BenchmarkTask(task=task, metric="acc@1",
                                           group=kind, length=length))
        report = run_benchmark(OracleEmbedder(), None, tasks)
        for group, buckets in report.synthetic.items():
            assert set(buckets) == {256, 512, 1024, 2048, 4096, 8192, 16384, 32768}
            assert all(v == 1.0 for v in buckets.values()), (group, buckets)


# --- 9: tuning preservation ---------------------------------------------------------


def test_c09_tuning_preserves_frozen_state_and_short_inputs():
    with criterion(9, "50 tuning steps leave frozen rows, other weights, and "
                      "short-input embeddings bit-identical"):
        rng = np.random.default_rng(31)
        cfg = lc.ModelConfig(hidden_size=32, n_layers=2, n_heads=4, vocab_size=256,
                             original_context=16, init_seed=17)
        base = lc.init_model(cfg)
        config = TuneConfig(mode="pi_anchored", l_orig=16, l_target=64,
                            learning_rate=0.01, batch_size=4, epochs=100,
                            warmup_steps=5, temperature=0.5, n_negatives=2,
                            seed=0, max_steps=50)
        pairs = [
            TrainingPair(
                query=rng.integers(0, 256, int(rng.integers(2, 17))),
                positive=rng.integers(0, 256, int(rng.integers(2, 17))),
                negatives=[rng.integers(0, 256, int(rng.integers(2, 17)))
                           for _ in range(2)],
            )
            for _ in range(12)
        ]
        ext = extend_for_tuning(base, config)
        result = tune(ext, pairs, config)
        assert len(result.log) == 50 and not result.diverged
        tuned = result.model

        frozen = np.flatnonzero(ext.extension.frozen)
        assert np.array_equal(tuned.params["pos_table"][frozen],
                              ext.params["pos_table"][frozen])
        for name in ext.params:
            if name != "pos_table":
                assert np.array_equal(tuned.params[name], ext.params[name])

        spec_tuned = lc.ExtensionSpec(strategy="tuned_pi", l_orig=16, l_target=64)
        spec_base = lc.ExtensionSpec.none(16)
        for n in (1, 7, 16):
            toks = rng.integers(0, 256, n)
            assert np.array_equal(
                lc.encode(tuned, toks, spec_tuned),
                lc.encode(base, toks, spec_base),
            )


# --- 10: gradient oracle --------------------------------------------------------------


def test_c10_gradients_match_finite_differences_ten_seeds():
    with criterion(10, "analytic position-row gradients match central differences "
                       "(10 seeds, < 1e-4)"):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            cfg = lc.ModelConfig(hidden_size=16, n_layers=2, n_heads=2, vocab_size=64,
                                 original_context=8, init_seed=seed)
            config = TuneConfig(mode="pi_anchored", l_orig=8, l_target=16,
                                temperature=0.5, seed=seed)
            ext = extend_for_tuning(lc.init_model(cfg), config)
            pair = TrainingPair(
                query=rng.integers(0, 64, 4),
                positive=rng.integers(0, 64, 6),
                negatives=[rng.integers(0, 64, 5), rng.integers(0, 64, 6)],
            )
            err = grad_check(ext, pair, config, eps=1e-5, rng=rng)
            assert err < 1e-4, f"seed {seed}: max relative error {err:.2e}"


# --- 11 / 12: directional training runs -------------------------------------------------

VOCAB = 4096
L_ORIG = 128
L_TARGET = 512
TRAIN_LENGTHS = (32, 64, 96)
EVAL_LENGTHS = (256, 512)
SEEDS = (0, 1, 2)


def _train_pairs(seed, rng):
    pairs = []
    for kind in ("passkey", "needle"):
        cfg = SyntheticTaskConfig(kind=kind, length_grid=TRAIN_LENGTHS,
                                  queries_per_length=50, candidates_per_length=100,
                                  seed=seed)
        for length in TRAIN_LENGTHS:
            pairs.extend(training_pairs_from_task(
                build_bucket(cfg, length), VOCAB, 3, rng, max_len=L_ORIG))
    return pairs


def _bench_tasks(seed, kinds, lengths):
    tasks = []
    for kind in kinds:
        cfg = SyntheticTaskConfig(kind=kind, length_grid=lengths, queries_per_length=50,
                                  candidates_per_length=100, seed=seed + 777)
        for length in lengths:
            tasks.append(BenchmarkTask(task=build_bucket(cfg, length), metric="acc@1",
                                       group=kind, length=length))
    return tasks


def _toy_config(seed, mode):
    return lc.ModelConfig(hidden_size=64, n_layers=2, n_heads=4, vocab_size=VOCAB,
                          original_context=L_ORIG, position_mode=mode,
                          init_seed=(1000 if mode == "absolute" else 2000) + seed,
                          ffn_multiplier=2)


def _base_tc(seed, **kw):
    defaults = dict(mode="pi_anchored", l_orig=L_ORIG, l_target=L_TARGET,
                    learning_rate=0.003, batch_size=8, epochs=6, warmup_steps=20,
                    temperature=0.05, n_negatives=3, seed=seed, max_steps=250)
    defaults.update(kw)
    return TuneConfig(**defaults)


@pytest.fixture(scope="module")
def directional_runs():
    started = time.time()
    runs = {}
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        pairs = _train_pairs(seed, rng)
        passkey_tasks = _bench_tasks(seed, ("passkey",), EVAL_LENGTHS)
        both_tasks = _bench_tasks(seed, ("passkey", "needle"), EVAL_LENGTHS)

        ape = train_model(lc.init_model(_toy_config(seed, "absolute")), pairs,
                          _base_tc(seed)).model
        ape_base = run_benchmark(ape, lc.ExtensionSpec.none(L_ORIG), passkey_tasks)

        tune_tc = _base_tc(seed, epochs=4, max_steps=150)
        pi_model = tune(extend_for_tuning(ape, tune_tc), pairs, tune_tc).model
        rp_tc = _base_tc(seed, mode="rp_suffix", epochs=4, max_steps=150)
        rp_model = tune(extend_for_tuning(ape, rp_tc), pairs, rp_tc).model
        pi_rep = run_benchmark(
            pi_model, lc.ExtensionSpec(strategy="tuned_pi", l_orig=L_ORIG, l_target=L_TARGET),
            both_tasks)
        rp_rep = run_benchmark(
            rp_model, lc.ExtensionSpec(strategy="tuned_rp", l_orig=L_ORIG, l_target=L_TARGET),
            both_tasks)

        rope = train_model(lc.init_model(_toy_config(seed, "rotary")), pairs,
                           _base_tc(seed)).model
        rope_base = run_benchmark(rope, lc.ExtensionSpec.none(L_ORIG), passkey_tasks)
        ntk_rep = run_benchmark(
            rope, lc.ExtensionSpec(strategy="ntk", l_orig=L_ORIG, l_target=L_TARGET),
            passkey_tasks)
        se_rep = run_benchmark(
            rope, lc.ExtensionSpec(strategy="se", l_orig=L_ORIG, l_target=L_TARGET),
            passkey_tasks)

        runs[seed] = {
            "ape_base": ape_base.synthetic["passkey"],
            "pi": pi_rep.synthetic["passkey"],
            "pi_avg": pi_rep.average,
            "rp_avg": rp_rep.average,
            "rope_base": rope_base.synthetic["passkey"],
            "ntk": ntk_rep.synthetic["passkey"],
            "se": se_rep.synthetic["passkey"],
        }
    return runs, time.time() - started


@pytest.mark.slow
def test_c11_extension_beats_unextended_baseline(directional_runs, request):
    runs, train_elapsed = directional_runs
    detail = f"  c11 detail (training+eval took {train_elapsed:.0f}s): " + str({
        seed: {"base": run["ape_base"], "pi": run["pi"], "ntk": run["ntk"], "se": run["se"]}
        for seed, run in runs.items()
    })
    # conftest.py prints it after the run, also under -q. Not the record_property fixture:
    # it warns under --junitxml (junit_family xunit2), and warnings are errors here.
    request.node.user_properties.append(("finding", detail))
    with criterion(11, "extended toy models beat the unextended baseline at lengths "
                       "past the trained window (3/3 seeds)"):
        assert train_elapsed < 1800.0, (
            f"directional runs took {train_elapsed:.0f}s, over the 30 min budget"
        )
        for seed, run in runs.items():
            for length in EVAL_LENGTHS:
                base_ape = run["ape_base"][length]
                base_rope = run["rope_base"][length]
                assert run["pi"][length] > base_ape, (
                    f"seed {seed}: tuned interpolation {run['pi'][length]:.2f} "
                    f"did not beat {base_ape:.2f} at {length}"
                )
                assert run["ntk"][length] > base_rope, (
                    f"seed {seed}: ntk {run['ntk'][length]:.2f} "
                    f"did not beat {base_rope:.2f} at {length}"
                )
                assert run["se"][length] > base_rope, (
                    f"seed {seed}: self-extend {run['se'][length]:.2f} "
                    f"did not beat {base_rope:.2f} at {length}"
                )
        print(detail)


@pytest.mark.slow
def test_c12_pi_versus_rp_direction_reported(directional_runs, request):
    runs, _ = directional_runs
    with criterion(12, "anchored-interpolation tuning vs suffix tuning direction "
                       "(finding, not a gate)"):
        wins = sum(run["pi_avg"] >= run["rp_avg"] for run in runs.values())
        detail = {seed: (round(run["pi_avg"], 3), round(run["rp_avg"], 3))
                  for seed, run in runs.items()}
        outcome = "holds" if wins >= 2 else "does NOT hold"
        finding = (f"  c12 finding: anchored tuning >= suffix tuning on {wins}/3 seeds "
                   f"(pi_avg, rp_avg) per seed = {detail}; published direction {outcome} "
                   "at toy scale")
        request.node.user_properties.append(("finding", finding))
        print(finding)
        assert len(runs) == 3  # the comparison itself must have run
