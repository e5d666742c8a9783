import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from longctx import (
    ExtensionSpec,
    ModelConfig,
    Strategy,
    encode,
    extend_for_tuning,
    grad_check,
    init_model,
    sample_skip_bias,
    train_model,
    training_pairs_from_task,
    tune,
)
from longctx import encoder, serialization, tuning
from longctx.encoder import (
    PI_ANCHORED,
    RP_SUFFIX,
    PosExtension,
    backward_batch,
    forward_batch,
    pad_batch,
    pool_and_normalize,
    pool_and_normalize_backward,
)
from longctx.errors import ConfigurationError, ValidationError
from longctx.synth import RetrievalTask, SyntheticTaskConfig, build_bucket
from longctx.tokenizer import tokenize
from longctx.tuning import (
    TrainingPair,
    TuneConfig,
)


def tiny_tune_config(**kw):
    defaults = dict(mode=PI_ANCHORED, l_orig=8, l_target=16, learning_rate=0.01,
                    batch_size=4, epochs=1, warmup_steps=2, temperature=0.5,
                    n_negatives=2, seed=0)
    defaults.update(kw)
    return TuneConfig(**defaults)


def tiny_model(**kw):
    defaults = dict(hidden_size=16, n_layers=2, n_heads=2, vocab_size=64,
                    original_context=8, position_mode="absolute", init_seed=5)
    defaults.update(kw)
    return init_model(ModelConfig(**defaults))


def random_pairs(rng, n, vocab=64, max_len=8, negatives=2):
    pairs = []
    for _ in range(n):
        pairs.append(TrainingPair(
            query=rng.integers(0, vocab, rng.integers(2, max_len + 1)),
            positive=rng.integers(0, vocab, rng.integers(2, max_len + 1)),
            negatives=[rng.integers(0, vocab, rng.integers(2, max_len + 1))
                       for _ in range(negatives)],
        ))
    return pairs


# --- freeze masks -------------------------------------------------------------


def test_freeze_mask_pi_interleaves_anchors():
    mask = PosExtension(PI_ANCHORED, 4, 8).frozen
    assert np.flatnonzero(mask).tolist() == [0, 2, 4, 6]
    assert np.flatnonzero(~mask).tolist() == [1, 3, 5, 7]


def test_freeze_mask_rp_freezes_prefix():
    mask = PosExtension(RP_SUFFIX, 4, 8).frozen
    assert np.flatnonzero(mask).tolist() == [0, 1, 2, 3]
    assert np.flatnonzero(~mask).tolist() == [4, 5, 6, 7]


@pytest.mark.parametrize("l_orig,s", [(4, 2), (8, 4), (16, 8)])
def test_pi_frozen_count_equals_l_orig(l_orig, s):
    mask = PosExtension(PI_ANCHORED, l_orig, l_orig * s).frozen
    assert int(mask.sum()) == l_orig


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from([PI_ANCHORED, RP_SUFFIX]), l_orig=st.integers(1, 12),
       extra=st.integers(1, 40))
def test_frozen_flags_are_the_rows_copied_from_the_original_table(mode, l_orig, extra):
    """The extension alone fixes the table's rows and which of them are frozen originals."""
    l_target = l_orig + extra
    model = tiny_model(hidden_size=4, n_layers=1, vocab_size=8, original_context=l_orig)
    ext = extend_for_tuning(model, tiny_tune_config(mode=mode, l_orig=l_orig, l_target=l_target))
    table, orig = ext.params["pos_table"], model.params["pos_table"]
    assert table.shape == encoder.param_layout(ext.config, ext.extension)["pos_table"][0]
    # anchor i*s holds row i under pi; row i holds row i under rp
    copies = np.arange(l_orig) * (math.ceil(l_target / l_orig) if mode == PI_ANCHORED else 1)
    assert np.array_equal(table[copies], orig)
    assert np.array_equal(np.flatnonzero(ext.extension.frozen), copies)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ext.ckpt"
        serialization.save_checkpoint(ext, path)
        loaded = serialization.load_checkpoint(path)
    assert loaded.extension == ext.extension
    assert np.array_equal(loaded.extension.frozen, ext.extension.frozen)


# --- skip bias ------------------------------------------------------------------


def test_skip_bias_singleton_support():
    rng = np.random.default_rng(0)
    assert all(sample_skip_bias(8, 8, rng) == 0 for _ in range(20))


def test_skip_bias_keeps_positions_in_window(rng):
    l_orig, l_target = 8, 64
    for _ in range(500):
        u = sample_skip_bias(l_target, l_orig, rng)
        assert 0 <= u <= l_target - l_orig
        assert u + l_orig - 1 <= l_target - 1


def test_skip_bias_is_uniform_chi_squared():
    l_orig, l_target = 8, 71  # support size 64
    rng = np.random.default_rng(20240401)
    draws = np.array([sample_skip_bias(l_target, l_orig, rng) for _ in range(100_000)])
    counts = np.bincount(draws, minlength=l_target - l_orig + 1)
    result = stats.chisquare(counts)
    assert result.pvalue > 0.01


# --- contrastive loss -------------------------------------------------------------


def test_loss_closed_form_orthogonal_negatives():
    d = 8
    q = np.zeros(d); q[0] = 1.0
    negatives = []
    for i in range(1, 4):
        v = np.zeros(d); v[i] = 1.0
        negatives.append(v)
    loss = tuning._contrastive_loss_grads(q, q.copy(), negatives, temperature=1.0)[0]
    expected = -math.log(math.e / (math.e + 3))
    assert math.isclose(loss, expected, rel_tol=1e-12)


def test_loss_nonnegative_and_permutation_invariant(rng):
    for _ in range(20):
        vecs = rng.normal(size=(5, 6))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        q, p, negs = vecs[0], vecs[1], [vecs[2], vecs[3], vecs[4]]
        loss = tuning._contrastive_loss_grads(q, p, negs, 0.1)[0]
        assert loss >= 0.0
        assert math.isclose(loss, tuning._contrastive_loss_grads(q, p, negs[::-1], 0.1)[0],
                            rel_tol=1e-12)


def test_tune_config_rejects_bad_temperature():
    for temperature in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="temperature must be finite and positive"):
            tiny_tune_config(temperature=temperature)


# --- table extension ---------------------------------------------------------------


def test_extend_pi_anchors_are_bitwise_originals():
    model = tiny_model()
    ext = extend_for_tuning(model, tiny_tune_config())
    table = ext.params["pos_table"]
    for i in range(8):
        assert np.array_equal(table[2 * i], model.params["pos_table"][i])
    assert ext.extension.mode == PI_ANCHORED
    assert int(ext.extension.frozen.sum()) == 8


def test_extend_rp_suffix_repeats_rows():
    model = tiny_model()
    ext = extend_for_tuning(model, tiny_tune_config(mode=RP_SUFFIX))
    table = ext.params["pos_table"]
    orig = model.params["pos_table"]
    assert np.array_equal(table[:8], orig)
    for k in range(8, 16):
        assert np.array_equal(table[k], orig[k % 8])


def test_extend_requires_absolute_mode():
    with pytest.raises(ConfigurationError, match="rotary model has no position table to extend"):
        extend_for_tuning(tiny_model(position_mode="rotary"), tiny_tune_config())


# --- tuning loop -------------------------------------------------------------------


def test_zero_epochs_leaves_model_unchanged(rng):
    ext = extend_for_tuning(tiny_model(), tiny_tune_config())
    result = tune(ext, random_pairs(rng, 4), tiny_tune_config(epochs=0))
    for name in ext.params:
        assert np.array_equal(result.model.params[name], ext.params[name])
    assert result.log == []


def test_fifty_steps_touch_only_learnable_rows(rng):
    config = tiny_tune_config(epochs=100, max_steps=50)
    ext = extend_for_tuning(tiny_model(), config)
    result = tune(ext, random_pairs(rng, 8), config)
    assert len(result.log) == 50
    frozen = np.flatnonzero(ext.extension.frozen)
    learnable = np.flatnonzero(~ext.extension.frozen)
    before, after = ext.params["pos_table"], result.model.params["pos_table"]
    assert np.array_equal(before[frozen], after[frozen])
    assert not np.array_equal(before[learnable], after[learnable])
    for name in ext.params:
        if name != "pos_table":
            assert np.array_equal(ext.params[name], result.model.params[name])


def test_short_inputs_preserved_exactly_after_tuning(rng):
    config = tiny_tune_config(epochs=100, max_steps=50)
    base = tiny_model()
    ext = extend_for_tuning(base, config)
    tuned = tune(ext, random_pairs(rng, 8), config).model
    spec_tuned = ExtensionSpec(strategy=Strategy.TUNED_PI, l_orig=8, l_target=16)
    spec_base = ExtensionSpec.none(8)
    for n in (1, 3, 8):
        toks = rng.integers(0, 64, n)
        assert np.array_equal(
            encode(tuned, toks, spec_tuned), encode(base, toks, spec_base)
        )


def test_tuned_model_differs_on_long_inputs(rng):
    config = tiny_tune_config(epochs=100, max_steps=50)
    base = tiny_model()
    ext = extend_for_tuning(base, config)
    tuned = tune(ext, random_pairs(rng, 8), config).model
    spec = ExtensionSpec(strategy=Strategy.TUNED_PI, l_orig=8, l_target=16)
    toks = rng.integers(0, 64, 12)
    before = encode(ext, toks, spec)
    after = encode(tuned, toks, spec)
    assert not np.array_equal(before, after)


def test_loss_curve_replays_deterministically(rng):
    config = tiny_tune_config(epochs=2)
    ext = extend_for_tuning(tiny_model(), config)
    pairs = random_pairs(rng, 8)
    first = tune(ext, pairs, config)
    second = tune(ext, pairs, config)
    assert first.log == second.log


def test_smoothed_loss_drops_after_one_epoch():
    rng = np.random.default_rng(7)
    cfg = SyntheticTaskConfig(kind="passkey", length_grid=(8,), queries_per_length=16,
                              candidates_per_length=24, seed=3)
    task = build_bucket(cfg, 8)
    pairs = training_pairs_from_task(task, 64, 2, rng, max_len=8)
    config = tiny_tune_config(epochs=1, batch_size=2, learning_rate=0.02,
                              warmup_steps=2, temperature=0.2)
    ext = extend_for_tuning(tiny_model(), config)
    result = tune(ext, pairs, config)
    losses = result.losses
    assert len(losses) >= 6
    assert np.mean(losses[-3:]) < losses[0]


def test_tune_rejects_sequences_longer_than_window(rng):
    config = tiny_tune_config()
    ext = extend_for_tuning(tiny_model(), config)
    bad = [TrainingPair(query=rng.integers(0, 64, 12), positive=rng.integers(0, 64, 4),
                        negatives=[rng.integers(0, 64, 4)])]
    with pytest.raises(ValidationError):
        tune(ext, bad, config)


@pytest.mark.parametrize("position_mode", ["absolute", "rotary"])
def test_train_model_bounds_sequences_by_the_models_window_not_the_configs(rng, position_mode):
    """An l_orig=32 config does not let an 8-token model train on 30-token pairs."""
    config = tiny_tune_config(l_orig=32, l_target=64)
    pair = TrainingPair(query=rng.integers(0, 64, 30), positive=rng.integers(0, 64, 4),
                        negatives=[rng.integers(0, 64, 4)])
    with pytest.raises(ValidationError, match="exceeds the model's original context 8"):
        train_model(tiny_model(position_mode=position_mode), [pair], config)


def test_training_positions_shift_exactly_on_an_extended_model(rng):
    """Identity positions, and no draws, for a base model; skip biases over the extension's
    window on an extended one."""
    pairs = random_pairs(rng, 3)
    for model in (tiny_model(), tiny_model(position_mode="rotary")):
        draws = np.random.default_rng(0)
        positions = tuning._training_positions(model, pairs, draws)
        assert all(np.array_equal(p, np.arange(p.size)) for p in positions)
        assert draws.bit_generator.state == np.random.default_rng(0).bit_generator.state
    ext = extend_for_tuning(tiny_model(), tiny_tune_config(mode=RP_SUFFIX, l_target=13))
    replay = np.random.default_rng(1)
    positions = tuning._training_positions(ext, pairs, np.random.default_rng(1))
    for p in positions:
        assert np.array_equal(p, sample_skip_bias(13, 8, replay) + np.arange(p.size))


def test_nan_loss_aborts_with_last_good_state(rng):
    config = tiny_tune_config(epochs=1)
    ext = extend_for_tuning(tiny_model(), config)
    ext.params["pos_table"][~ext.extension.frozen] = np.nan  # poison the learnable rows
    result = tune(ext, random_pairs(rng, 4), config)
    assert result.diverged
    assert result.log == []  # no finite-loss step ever completed
    assert np.array_equal(result.model.params["pos_table"], ext.params["pos_table"],
                          equal_nan=True)


@pytest.mark.parametrize("trainer", ["train_model", "tune"])
@pytest.mark.parametrize("fault", ["nan_table_after_step_3", "nan_grads_at_step_4"])
def test_mid_run_divergence_returns_last_logged_state(rng, monkeypatch, trainer, fault):
    calls = []
    batch_loss, adagrad_step = tuning._batch_loss_and_grads, tuning.Adagrad.step

    def recording(model, pairs, positions, temperature, needed=None):
        calls.append((pairs, positions))
        loss, grads = batch_loss(model, pairs, positions, temperature, needed=needed)
        if fault == "nan_grads_at_step_4" and len(calls) == 4:
            grads["pos_table"][:] = np.nan
        return loss, grads

    def poisoning(self, params, grads):
        adagrad_step(self, params, grads)
        if fault == "nan_table_after_step_3" and self.t == 3:
            params["pos_table"][:] = np.nan

    monkeypatch.setattr(tuning, "_batch_loss_and_grads", recording)
    monkeypatch.setattr(tuning.Adagrad, "step", poisoning)
    config = tiny_tune_config(epochs=100, max_steps=10)
    if trainer == "tune":
        result = tune(extend_for_tuning(tiny_model(), config), random_pairs(rng, 8), config)
    else:
        result = train_model(tiny_model(), random_pairs(rng, 8), config)
    assert result.diverged
    assert [step for step, _ in result.log] == [1, 2, 3]
    assert all(np.isfinite(v).all() for v in result.model.params.values())
    # the returned parameters are the ones that produced the last logged loss
    pairs, positions = calls[2]
    loss, _ = batch_loss(result.model, pairs, positions, config.temperature)
    assert loss == result.log[-1][1]


def test_tune_requires_matching_extension(rng):
    config = tiny_tune_config()
    with pytest.raises(ConfigurationError):
        tune(tiny_model(), random_pairs(rng, 2), config)
    ext = extend_for_tuning(tiny_model(), config)
    with pytest.raises(ConfigurationError):
        tune(ext, random_pairs(rng, 2), tiny_tune_config(mode=RP_SUFFIX))


def test_a_model_extending_another_window_is_refused_before_a_step(rng, monkeypatch):
    """An 8-token model with a 16-row table that repeats 4 rows: its tune config matches
    its extension, but the model is refused where it is made, so no step runs."""
    model = tiny_model()
    table = model.params["pos_table"][np.arange(16) % 4]
    steps = []
    monkeypatch.setattr(tuning, "_run_training", lambda *args: steps.append(args))
    with pytest.raises(ConfigurationError, match="does not extend the model's original "
                                                 "context 8"):
        tune(encoder.Model(model.config, {**model.params, "pos_table": table},
                           PosExtension(RP_SUFFIX, 4, 16)),
             random_pairs(rng, 2), tiny_tune_config(mode=RP_SUFFIX, l_orig=4, l_target=16))
    assert steps == []


# --- base training -----------------------------------------------------------------


def test_train_model_updates_all_parameters(rng):
    config = tiny_tune_config(epochs=100, max_steps=10)
    base = tiny_model()
    result = train_model(base, random_pairs(rng, 8), config)
    changed = [name for name in base.params
               if not np.array_equal(base.params[name], result.model.params[name])]
    assert "tok_emb" in changed and "pos_table" in changed
    assert any("attn.wq" in name for name in changed)


def test_train_model_supports_rotary(rng):
    config = tiny_tune_config(epochs=100, max_steps=5)
    base = tiny_model(position_mode="rotary")
    result = train_model(base, random_pairs(rng, 4), config)
    assert len(result.log) == 5
    assert all(math.isfinite(loss) for loss in result.losses)


# --- gradient oracle ---------------------------------------------------------------


def grad_check_setup(seed, temperature=0.5):
    rng = np.random.default_rng(seed)
    model = tiny_model(init_seed=seed)
    config = tiny_tune_config(temperature=temperature, seed=seed)
    ext = extend_for_tuning(model, config)
    pair = TrainingPair(
        query=rng.integers(0, 64, 4),
        positive=rng.integers(0, 64, 6),
        negatives=[rng.integers(0, 64, 5), rng.integers(0, 64, 6)],
    )
    return ext, pair, config, rng


@pytest.mark.parametrize("seed", range(10))
def test_gradient_matches_finite_differences(seed):
    ext, pair, config, rng = grad_check_setup(seed)
    err = grad_check(ext, pair, config, eps=1e-5, rng=rng)
    assert err < 1e-4


def test_gradient_check_survives_temperature_doubling():
    ext, pair, config, rng = grad_check_setup(123, temperature=1.0)
    assert grad_check(ext, pair, config, eps=1e-5, rng=rng) < 1e-4


def test_frozen_rows_gradient_masked_to_zero(rng):
    """One tune step moves exactly the unfrozen rows whose replayed gradient is nonzero."""
    pairs = random_pairs(rng, 2)
    for mode in (PI_ANCHORED, RP_SUFFIX):
        config = tiny_tune_config(mode=mode, max_steps=1)
        ext = extend_for_tuning(tiny_model(), config)
        tuned = tune(ext, pairs, config).model
        # replay the step's draws: the batch order, then the per-sequence skip biases
        replay = np.random.default_rng(config.seed)
        batch = [pairs[i] for i in replay.permutation(len(pairs))[:config.batch_size]]
        positions = tuning._training_positions(ext, batch, replay)
        _, grads = tuning._batch_loss_and_grads(ext, batch, positions, config.temperature,
                                                needed={"pos_table"})
        moved = (tuned.params["pos_table"] != ext.params["pos_table"]).any(axis=1)
        expected = ~ext.extension.frozen & grads["pos_table"].any(axis=1)
        assert expected.any() and grads["pos_table"][ext.extension.frozen].any(), mode
        assert np.array_equal(moved, expected), mode


def one_block_loss_and_grads(model, pairs, positions, temperature, needed):
    """Reference: every sequence in one block padded to the longest, one backward pass."""
    seqs = [s for pair in pairs for s in pair.sequences()]
    tokens, mask, pos = pad_batch(seqs, positions)
    hidden, cache = forward_batch(model, tokens, mask, positions=pos, want_cache=True)
    embs = [pool_and_normalize(hidden[i], mask[i]) for i in range(len(seqs))]
    d_hidden = np.zeros_like(hidden)
    inv_b = 1.0 / len(pairs)
    total, row = 0.0, 0
    for pair in pairs:
        n = len(pair.sequences())
        loss, (dq, dp, dnegs) = tuning._contrastive_loss_grads(
            embs[row], embs[row + 1], embs[row + 2:row + n], temperature)
        total += loss * inv_b
        for k, d_emb in enumerate([dq, dp, *dnegs]):
            i = row + k
            d_hidden[i] = pool_and_normalize_backward(hidden[i], mask[i], d_emb * inv_b)
        row += n
    return total, backward_batch(model, cache, d_hidden, needed=needed)


LENGTH_GROUP_MODELS = {
    "absolute": extend_for_tuning(tiny_model(), tiny_tune_config()),
    "rotary": tiny_model(position_mode="rotary"),
}


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(["absolute", "rotary"]), data=st.data())
def test_length_groups_match_one_padded_block(mode, data):
    """Cutting by the row budget changes only rounding, for the loss and every gradient."""
    model = LENGTH_GROUP_MODELS[mode]
    config = tiny_tune_config()
    needed = data.draw(st.sampled_from(
        [None, {"tok_emb"}] + ([{"pos_table"}] if mode == "absolute" else [])))
    lengths = st.integers(min_value=1, max_value=config.l_orig)
    negatives = st.lists(lengths, min_size=1, max_size=3)
    shapes = data.draw(st.lists(st.tuples(lengths, lengths, negatives), min_size=1, max_size=4))
    # at most 20 sequences of <= 8 tokens: a budget up to 40 rows cuts them into 1..20 groups
    budget = data.draw(st.integers(min_value=1, max_value=40))
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    pairs = [TrainingPair(query=rng.integers(0, 64, q), positive=rng.integers(0, 64, p),
                          negatives=[rng.integers(0, 64, n) for n in negs])
             for q, p, negs in shapes]
    positions = tuning._training_positions(model, pairs, np.random.default_rng(seed))

    with mock.patch.object(encoder, "_BATCH_ROWS", budget):
        loss, grads = tuning._batch_loss_and_grads(
            model, pairs, positions, config.temperature, needed)
    ref_loss, ref = one_block_loss_and_grads(model, pairs, positions, config.temperature, needed)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert set(grads) == set(ref)
    largest = max(np.abs(g).max() for g in ref.values())
    for name, want in ref.items():
        # In absolute mode a key bias shifts a whole softmax row, so its exact
        # gradient is zero and both sides hold only rounding noise.
        bound = largest if mode == "absolute" and name.endswith("attn.bk") else np.abs(want).max()
        assert np.abs(grads[name] - want).max() <= 1e-12 * bound, name


@pytest.mark.parametrize("trainer", ["train_model", "tune"])
def test_a_training_step_cuts_its_sequences_by_the_row_budget(rng, monkeypatch, trainer):
    budget, shapes = 12, []
    forward = tuning.forward_batch

    def recording(model, token_ids, mask, **kwargs):
        shapes.append(token_ids.shape)
        return forward(model, token_ids, mask, **kwargs)

    monkeypatch.setattr(encoder, "_BATCH_ROWS", budget)
    monkeypatch.setattr(tuning, "forward_batch", recording)
    config = tiny_tune_config(max_steps=1)
    model = tiny_model()
    if trainer == "tune":
        model = extend_for_tuning(model, config)
    result = getattr(tuning, trainer)(model, random_pairs(rng, 4), config)
    assert len(result.log) == 1
    assert sum(B for B, _ in shapes) == 4 * 4  # query, positive and two negatives a pair
    for B, L in shapes:
        assert B * L <= max(budget, L), (B, L)


def test_grad_check_rejects_large_models(rng):
    big = init_model(ModelConfig(hidden_size=64, n_layers=2, n_heads=4, vocab_size=64,
                                 original_context=8, init_seed=0))
    config = tiny_tune_config()
    ext = extend_for_tuning(big, config)
    pair = random_pairs(rng, 1)[0]
    with pytest.raises(ConfigurationError):
        grad_check(ext, pair, config)


# --- training data helper ------------------------------------------------------------


def test_training_pairs_structure(rng):
    cfg = SyntheticTaskConfig(kind="passkey", length_grid=(16,), queries_per_length=5,
                              candidates_per_length=10, seed=11)
    task = build_bucket(cfg, 16)
    pairs = training_pairs_from_task(task, 128, 3, rng, max_len=12)
    assert len(pairs) == 5
    for pair in pairs:
        assert len(pair.negatives) == 3
        assert pair.positive.size <= 12
        assert all(n.size <= 12 for n in pair.negatives)


def test_training_pairs_fall_back_to_shuffled_positives(rng):
    cfg = SyntheticTaskConfig(kind="passkey", length_grid=(16,), queries_per_length=2,
                              candidates_per_length=3, seed=11)
    task = build_bucket(cfg, 16)
    pairs = training_pairs_from_task(task, 128, 5, rng, max_len=16)
    for pair in pairs:
        assert len(pair.negatives) == 5
        shuffled = [n for n in pair.negatives
                    if sorted(n.tolist()) == sorted(pair.positive.tolist())]
        assert len(shuffled) >= 3  # only 2 other docs exist


def _judged_task(qrels):
    return RetrievalTask(name="judged", queries={"q1": "alpha beta", "q2": "gamma"},
                         docs={"d1": "one two", "d2": "three four five", "d3": "six"},
                         qrels=qrels)


def test_the_positive_is_the_best_judged_document(rng):
    """The highest score wins whatever the id order; equal scores go to the smallest id."""
    task = _judged_task({"q1": {"d1": 0, "d2": 1}, "q2": {"d3": 2, "d2": 1, "d1": 2}})
    pairs = training_pairs_from_task(task, 64, 1, rng, max_len=8)
    assert np.array_equal(pairs[0].positive, tokenize("three four five", 64))
    assert np.array_equal(pairs[1].positive, tokenize("one two", 64))


def test_a_query_without_a_relevant_judgment_names_the_task_and_query(rng):
    task = _judged_task({"q1": {"d1": 1}, "q2": {"d2": 0, "d3": -1}})
    with pytest.raises(ValidationError, match="task 'judged': query 'q2' has no document "
                                              "judged relevant"):
        training_pairs_from_task(task, 64, 1, rng, max_len=8)
