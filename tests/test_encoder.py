import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longctx import (
    ExtensionSpec,
    ModelConfig,
    Strategy,
    apply_rope,
    attention_score,
    encode,
    encode_many,
    init_model,
    plan_chunks,
    pool_and_normalize,
    standard_frequencies,
)
from longctx import encoder
from longctx.encoder import (
    _relative_scores,
    _rope_tables,
    _rotate_batch,
    backward_batch,
    forward_batch,
)
from longctx.errors import (
    ConfigurationError,
    DimensionError,
    EmptyInputError,
    LengthError,
    PositionError,
)
from longctx.encoder import PI_ANCHORED, RP_SUFFIX, PosExtension
from longctx.positions import (
    ABSOLUTE_STRATEGIES,
    ROTARY_STRATEGIES,
    build_interpolated_matrix,
    resolve_extension,
    se_remap_deltas,
)
from longctx.tuning import TuneConfig, extend_for_tuning

# --- init --------------------------------------------------------------------


def _same_params(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[n], b[n]) for n in a)


def test_equal_configs_give_identical_checksums():
    cfg = ModelConfig(hidden_size=32, n_layers=1, n_heads=4, vocab_size=50,
                      original_context=8, init_seed=7)
    assert _same_params(init_model(cfg).params, init_model(cfg).params)


def test_different_seed_changes_weights():
    kw = dict(hidden_size=32, n_layers=1, n_heads=4, vocab_size=50, original_context=8)
    a = init_model(ModelConfig(init_seed=1, **kw))
    b = init_model(ModelConfig(init_seed=2, **kw))
    assert not _same_params(a.params, b.params)


def test_invalid_dimensions_rejected():
    with pytest.raises(ConfigurationError):
        ModelConfig(hidden_size=33, n_layers=1, n_heads=4, vocab_size=10, original_context=4)
    with pytest.raises(ConfigurationError):
        # per-head dim 2 is even but heads must divide d
        ModelConfig(hidden_size=30, n_layers=1, n_heads=4, vocab_size=10, original_context=4)
    cfg = ModelConfig(hidden_size=64, n_layers=1, n_heads=4, vocab_size=10, original_context=4)
    assert cfg.head_dim == 16


@pytest.mark.parametrize("base", [0.0, -10000.0, math.nan, math.inf, -math.inf])
def test_rope_base_must_be_finite_and_positive(base):
    with pytest.raises(ConfigurationError):
        ModelConfig(hidden_size=8, n_layers=1, n_heads=2, vocab_size=10, original_context=4,
                    position_mode="rotary", rope_base=base)


TINY = dict(hidden_size=8, n_layers=1, n_heads=2, vocab_size=10, original_context=4)


@pytest.mark.parametrize("field, build", [
    ("n_layers", lambda: ModelConfig(**{**TINY, "n_layers": 1.5})),
    ("rope_base", lambda: ModelConfig(**TINY, rope_base="1e4")),
    ("n_layers", lambda: ModelConfig(**{**TINY, "n_layers": True})),
    ("l_target", lambda: PosExtension("pi_anchored", 4, 8.0)),
    ("l_orig", lambda: ExtensionSpec("pi", "128", 256)),
    ("ntk_lambda", lambda: ExtensionSpec("ntk", 128, 256, ntk_lambda="3")),
    ("l_target", lambda: TuneConfig(mode="pi_anchored", l_orig=4, l_target=8.5)),
    ("s", lambda: build_interpolated_matrix(np.zeros((4, 2)), 2.5)),
], ids=["float-int", "str-float", "bool-int", "pos-extension", "str-spec-int",
        "str-lambda", "float-tune-int", "float-scale"])
def test_a_field_of_the_wrong_type_raises_configuration_error_naming_it(field, build):
    with pytest.raises(ConfigurationError, match=f"'{field}' must be"):
        build()


def test_weights_within_init_bound():
    cfg = ModelConfig(hidden_size=16, n_layers=1, n_heads=2, vocab_size=30, original_context=4)
    model = init_model(cfg)
    bound = 1 / math.sqrt(16)
    assert abs(model.params["tok_emb"]).max() <= bound
    assert abs(model.params["pos_table"]).max() <= bound


# --- rope primitives ----------------------------------------------------------


def test_zero_rotation_is_identity(rng):
    f = standard_frequencies(8)
    h = rng.normal(size=8)
    assert np.allclose(apply_rope(h, 0.0, f), h, atol=0)


def test_two_dim_rotation_by_hand():
    f = standard_frequencies(2)
    out = apply_rope(np.array([1.0, 0.0]), math.pi / 2, f)
    assert np.allclose(out, [math.cos(math.pi / 2), math.sin(math.pi / 2)], atol=1e-15)


def test_odd_vector_rejected(tiny_absolute):
    with pytest.raises(DimensionError):
        apply_rope(np.ones(3), 1.0, standard_frequencies(4))
    with pytest.raises(DimensionError, match="token sequences must be 1-D"):
        encode_many(tiny_absolute, [np.zeros((2, 2), dtype=np.int64)], ExtensionSpec.none(8))


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 4, 8, 16, 32, 64]),
    m=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_rotation_is_an_isometry(d, m, seed):
    h = np.random.default_rng(seed).normal(size=d)
    out = apply_rope(h, m, standard_frequencies(d))
    assert abs(np.linalg.norm(out) - np.linalg.norm(h)) < 1e-9


@pytest.mark.parametrize("step", [1.0, 1 / 3, 0.7], ids=["integer", "pi-third", "fractional"])
@pytest.mark.parametrize("base", [1e4, 33e4], ids=["base", "ntk-base"])
def test_batched_rotation_matches_the_scalar_reference(rng, step, base):
    x = rng.normal(size=(2, 3, 12, 16))
    phases = (np.arange(12) + np.array([[0], [700]])) * step
    freqs = standard_frequencies(16, base=base)
    got = _rotate_batch(x, _rope_tables(phases, freqs))
    want = np.array([[[apply_rope(x[b, h, i], phases[b, i], freqs) for i in range(12)]
                      for h in range(3)] for b in range(2)])
    assert np.abs(got - want).max() <= 1e-14


def test_rotating_by_the_conjugate_table_undoes_the_rotation(rng):
    x = rng.uniform(-1, 1, size=(2, 3, 40, 16))  # unit scale: a few ulp of 1 per multiply
    z = _rope_tables(rng.uniform(0, 4096, (2, 40)), standard_frequencies(16))
    assert np.abs(_rotate_batch(_rotate_batch(x, z), z.conj()) - x).max() <= 1e-15


@pytest.mark.parametrize("base", [1e4, 33e4], ids=["base", "ntk-base"])
def test_every_batched_rotation_keeps_each_pair_norm(rng, base):
    """_attention skips the row max by |logit_ij| <= |q_i| |k_j|, which holds for rotated
    logits only if the rotations keep norms: RoPE phases up to 1e4, and SelfExtend's query
    rotations and its key table."""
    theta = standard_frequencies(16, base=base)
    se = encoder._self_extend_tables(1000, 37, 16, theta)
    tables = [_rope_tables(rng.uniform(0, 1e4, (2, 1000)), theta), se.queries,
              se.table[None, None]]
    for rot in tables:
        x = rng.normal(size=(2, 3, rot.shape[-2], 16))
        before = np.abs(x.view(np.complex128))
        after = np.abs(_rotate_batch(x, rot).view(np.complex128))
        assert np.abs(after / before - 1).max() <= 1e-15


def test_score_equals_dot_product_at_equal_positions(rng):
    q, k = rng.normal(size=6), rng.normal(size=6)
    f = standard_frequencies(6)
    assert math.isclose(attention_score(q, k, 5.0, 5.0, f), float(q @ k), rel_tol=1e-12)


def test_score_hand_value_cos_two():
    f = standard_frequencies(2)
    assert math.isclose(attention_score([1, 0], [1, 0], 3, 1, f), math.cos(2.0), rel_tol=1e-12)


def test_score_rejects_mismatched_lengths():
    with pytest.raises(DimensionError):
        attention_score(np.ones(4), np.ones(6), 0, 0)


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 8, 16, 64]),
    m=st.floats(min_value=0, max_value=5000, allow_nan=False),
    n=st.floats(min_value=0, max_value=5000, allow_nan=False),
    delta=st.integers(min_value=-1000, max_value=1000),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_score_depends_only_on_relative_position(d, m, n, delta, seed):
    g = np.random.default_rng(seed)
    q, k = g.normal(size=d), g.normal(size=d)
    f = standard_frequencies(d)
    a = attention_score(q, k, m, n, f)
    b = attention_score(q, k, m + delta, n + delta, f)
    assert abs(a - b) < 1e-6


# --- SelfExtend scores ---------------------------------------------------------


def _full_relative_scores(q, k, g, w, theta, *, rows):
    """(B, H, L, L) SelfExtend logits, filled from every residue-major tile of ``rows`` rows."""
    L = q.shape[2]
    fill = _relative_scores(q, k, encoder._self_extend_tables(L, g, w, theta))
    scores = np.empty(q.shape[:2] + (L, L))
    for tile in encoder._row_tiles(L, g, rows):
        out = np.full(q.shape[:2] + (len(range(L)[tile]), L), np.nan)  # unwritten cells fail
        fill(tile, out)
        scores[..., tile, :] = out
    return scores


@st.composite
def _length_and_tile_rows(draw):
    L = draw(st.integers(min_value=1, max_value=70))
    return L, draw(st.integers(min_value=1, max_value=L))


@settings(max_examples=40, deadline=None)
@given(
    L_rows=_length_and_tile_rows(),
    g=st.integers(min_value=1, max_value=9),
    w=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(L_rows=(12, 3), g=3, w=12, seed=0)  # L <= w: the band covers every pair
@example(L_rows=(4, 3), g=9, w=1, seed=0)  # L < g: some residue classes are empty
@example(L_rows=(1, 1), g=1, w=0, seed=0)
@example(L_rows=(70, 70), g=1, w=3, seed=0)  # a 70-row tile in three chunks, far keys both sides
@example(L_rows=(70, 1), g=2, w=2, seed=0)  # one-row tiles
def test_relative_scores_match_pairwise_remap(L_rows, g, w, seed):
    """Tiles of 1..L rows, so the far-left and far-right keys of a chunk and every clip of
    its near region meet the scalar oracle."""
    L, rows = L_rows
    rng = np.random.default_rng(seed)
    q, k = rng.normal(size=(2, 1, 1, L, 4))
    freqs = standard_frequencies(4)
    idx = np.arange(L)
    rel = se_remap_deltas(idx[:, None] - idx[None, :], g, w)
    ref = np.array([
        [attention_score(q[0, 0, i], k[0, 0, j], rel[i, j], 0, freqs) for j in range(L)]
        for i in range(L)
    ])
    got = _full_relative_scores(q, k, g, w, freqs, rows=rows)[0, 0]
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("w", [0, 3, 50])
def test_relative_scores_group_one_is_plain_rope(rng, w):
    q, k = rng.normal(size=(2, 2, 3, 37, 8))
    theta = standard_frequencies(8)
    phases = np.arange(37, dtype=np.float64)[None]
    rot = _rope_tables(phases, theta)
    qr, kr = _rotate_batch(q, rot), _rotate_batch(k, rot)
    plain = qr @ kr.swapaxes(-1, -2)
    got = _full_relative_scores(q, k, 1, w, theta, rows=5)
    assert np.abs(got - plain).max() <= 1e-12 * np.abs(plain).max()


@pytest.mark.parametrize("g, w", [(3, 2), (5, 16), (2, 0)])
def test_a_class_scored_in_reverse_tile_order_gives_the_same_logits(rng, g, w):
    """``fill`` keeps no state that ties a tile to the one before it: a class's tiles
    in reverse order, then the classes in reverse order, score as ``_row_tiles`` order."""
    q, k = rng.normal(size=(2, 2, 3, 70, 8))
    theta = standard_frequencies(8)
    want = _full_relative_scores(q, k, g, w, theta, rows=4)
    fill = _relative_scores(q, k, encoder._self_extend_tables(70, g, w, theta))
    got = np.full(want.shape, np.nan)
    for tile in reversed(list(encoder._row_tiles(70, g, 4))):
        out = np.empty(q.shape[:2] + (len(range(70)[tile]), 70))
        fill(tile, out)
        got[..., tile, :] = out
    assert np.array_equal(got, want)


class _MatmulRecorder:
    """numpy as the encoder sees it, with the layout of every ``np.matmul`` right operand
    recorded."""

    def __init__(self):
        self.right = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        self.right.append((b.shape, b.strides, b.itemsize))
        return np.matmul(a, b, **kwargs)


def test_every_matmul_of_attention_reads_keys_with_a_unit_stride_last_axis(monkeypatch):
    """A ``swapaxes`` view of (L, Dh) keys has stride Dh along L, and OpenBLAS scores
    against it about 1.6x slower than against a contiguous (Dh, L) block; no numeric
    test would notice one coming back."""
    recorder = _MatmulRecorder()
    monkeypatch.setattr(encoder, "np", recorder)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 64, (2, 40))
    mask = np.ones((2, 40), dtype=bool)
    mask[1, 30:] = False
    pos = np.tile(np.arange(40), (2, 1))
    forward_batch(TILE_MODELS[("absolute", 2)], tokens, mask, positions=pos)
    forward_batch(TILE_MODELS[("rotary", 2)], tokens, mask, positions=0.7 * pos)
    forward_batch(TILE_MODELS[("rotary", 2)], tokens, mask, self_extend=(3, 4))
    for mode in ("absolute", "rotary"):
        hidden, cache = forward_batch(TILE_MODELS[(mode, 2)], tokens, mask, positions=pos,
                                      want_cache=True)
        seen = len(recorder.right)
        backward_batch(TILE_MODELS[(mode, 2)], cache, rng.normal(size=hidden.shape))
        assert len(recorder.right) > seen  # d_w goes through np.matmul, where the guard sees it
    assert [layout for layout in recorder.right if layout[1][-1] != layout[2]] == []


def test_self_extend_forward_refuses_a_backward_cache(tiny_rotary):
    tokens = np.array([[3, 1, 60, 2]])
    mask = np.ones_like(tokens, dtype=bool)
    with pytest.raises(ConfigurationError):
        forward_batch(tiny_rotary, tokens, mask, self_extend=(5, 1), want_cache=True)
    hidden = forward_batch(tiny_rotary, tokens, mask, self_extend=(5, 1))
    assert hidden.shape == (1, 4, 16)


# --- tiled attention -----------------------------------------------------------


def _pairwise_se_logits(q, k, g, w, theta):
    """(B, H, L, L) SelfExtend logits, each pair's built from se_remap_deltas(i - j, g, w) alone.

    As complex numbers (x[2f] + i x[2f+1]) a RoPE logit at relative position m is
    Re(sum_f q_f conj(k_f) e^{i m theta_f}); O(L^2 Dh), shared with no encoder code.
    """
    L = q.shape[2]
    idx = np.arange(L)
    rel = se_remap_deltas(idx[:, None] - idx[None, :], g, w)
    qc, kc = q.view(np.complex128), k.view(np.complex128).conj()
    logits = np.zeros(q.shape[:2] + (L, L))
    for f, th in enumerate(theta):
        logits += (qc[..., :, None, f] * kc[..., None, :, f] * np.exp(1j * th * rel)).real
    return logits


def _untiled_attention(q, k, v, mask, *, self_extend=None, keep=False):
    """Reference for encoder._attention: one softmax over the full (B, H, L, L) scores."""
    if self_extend is None:
        scores = q @ k.swapaxes(-1, -2)
    else:
        theta = standard_frequencies(q.shape[-1])  # TILE_MODELS keep the default base
        scores = _pairwise_se_logits(q, k, self_extend.g, self_extend.w, theta)
    scores = scores + np.where(mask, 0.0, -np.inf)[:, None, None, :]
    scores = np.exp(scores - scores.max(-1, keepdims=True))
    weights = scores / scores.sum(-1, keepdims=True)
    return weights @ v, weights


TILE_MODELS = {
    (mode, heads): init_model(ModelConfig(hidden_size=16, n_layers=2, n_heads=heads,
                                          vocab_size=64, original_context=400,
                                          position_mode=mode, init_seed=5))
    for mode in ("absolute", "rotary") for heads in (1, 2, 4, 8)
}


@settings(max_examples=40, deadline=None)
@given(
    path=st.sampled_from(["absolute", "rotary", "se"]),
    heads=st.sampled_from([1, 2, 4, 8]),
    L=st.integers(min_value=1, max_value=400),
    B=st.integers(min_value=1, max_value=3),
    padded=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
    se=st.just(None),  # SelfExtend's (g, w) come from the seed unless an example pins them
)
@example(path="rotary", heads=2, L=256, B=3, padded=False, seed=0, se=None)  # H*L*L at budget
@example(path="absolute", heads=8, L=128, B=2, padded=True, seed=1, se=None)  # at the budget
@example(path="absolute", heads=4, L=300, B=3, padded=True, seed=2, se=None)  # slabs of 109 rows
@example(path="se", heads=2, L=301, B=2, padded=True, seed=3, se=None)  # g=2: a slab a residue
# g=4: residues in 40, 40, 20 rows
@example(path="se", heads=8, L=400, B=2, padded=True, seed=7, se=None)
@example(path="rotary", heads=1, L=40, B=3, padded=True, seed=4, se=None)  # sequences share a tile
# g=5, w=4: three sequences of 40, 39 and 11 tokens in each tile
@example(path="se", heads=1, L=40, B=3, padded=True, seed=10, se=None)
# one 20-row chunk a residue, its near region [i - 10, i + 10] clipped at both ends
@example(path="se", heads=2, L=40, B=1, padded=False, seed=11, se=(2, 10))
@example(path="se", heads=4, L=12, B=2, padded=True, seed=12, se=(3, 15))  # w >= L: all band
@example(path="se", heads=2, L=4, B=2, padded=True, seed=13, se=(5, 1))  # g >= L
@example(path="se", heads=2, L=7, B=1, padded=False, seed=14, se=(5, 1))  # one-row tiles
def test_tiled_attention_matches_one_untiled_softmax(path, heads, L, B, padded, seed, se):
    rng = np.random.default_rng(seed)
    model = TILE_MODELS[("absolute" if path == "absolute" else "rotary", heads)]
    lengths = rng.integers(1, L + 1, B) if padded else np.full(B, L)
    lengths[rng.integers(B)] = L
    tokens, mask, _ = encoder.pad_batch([rng.integers(0, 64, n) for n in lengths], None)
    kwargs = {"attn_scale": rng.uniform(0.5, 2.0, B)}
    if path == "absolute":
        kwargs["positions"] = np.tile(np.arange(L), (B, 1))
    elif path == "rotary":
        kwargs["positions"] = np.tile(np.arange(L) * 0.7, (B, 1))
    else:
        kwargs["self_extend"] = se or (int(rng.integers(1, 6)), int(rng.integers(0, 20)))

    def run(want_cache):
        return forward_batch(model, tokens, mask, want_cache=want_cache, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(encoder, "_attention", _untiled_attention)
        ref = run(False)
        ref_cache = None if path == "se" else run(True)[1]
    assert np.abs(run(False) - ref).max() <= 1e-12
    if ref_cache is not None:
        for got, want in zip(run(True)[1]["layers"], ref_cache["layers"]):
            assert np.abs(got["w"] - want["w"]).max() <= 1e-12


@pytest.mark.parametrize("path", ["absolute", "rotary", "se"])
@pytest.mark.parametrize("padded", [False, True], ids=["unpadded", "padded"])
@pytest.mark.parametrize("scale", [(1.0, 1e3), (1e3, 1.0)], ids=["large-last", "large-first"])
def test_a_slice_with_one_unbounded_sequence_subtracts_the_row_max(path, padded, scale):
    """Both sequences share one batch slice; at attn_scale 1e3 one of them bounds its logits
    above _EXP_BOUND, where exp without the row max overflows to inf and NaN."""
    model = TILE_MODELS[("absolute" if path == "absolute" else "rotary", 2)]
    tokens = np.random.default_rng(3).integers(0, 64, (2, 12))
    mask = np.ones((2, 12), dtype=bool)
    mask[1, 9:] = not padded
    kwargs = {"attn_scale": np.array(scale)}
    if path == "se":
        kwargs["self_extend"] = (3, 2)
    else:
        kwargs["positions"] = np.tile(np.arange(12), (2, 1))

    def run(want_cache):
        return forward_batch(model, tokens, mask, want_cache=want_cache, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(encoder, "_attention", _untiled_attention)
        ref = run(False)
        ref_cache = None if path == "se" else run(True)
    assert np.abs(run(False) - ref).max() <= 1e-12
    if ref_cache is not None:
        hidden, cache = run(True)
        assert np.abs(hidden - ref_cache[0]).max() <= 1e-12
        for got, want in zip(cache["layers"], ref_cache[1]["layers"]):
            assert np.abs(got["w"] - want["w"]).max() <= 1e-12


def test_self_extend_builds_its_rotation_tables_once_per_forward(monkeypatch):
    """As many cos/sin tables with 3 layers as with 1, and with 3 batch slices as with 1."""
    builds, scored = [], []
    rope_tables, relative_scores = encoder._rope_tables, encoder._relative_scores
    monkeypatch.setattr(encoder, "_rope_tables", lambda *a: builds.append(1) or rope_tables(*a))
    monkeypatch.setattr(encoder, "_relative_scores",
                        lambda *a: scored.append(1) or relative_scores(*a))

    def count(n_layers, B):
        model = init_model(ModelConfig(hidden_size=16, n_layers=n_layers, n_heads=2,
                                       vocab_size=32, original_context=64, position_mode="rotary"))
        tokens = np.random.default_rng(0).integers(0, 32, (B, 256))
        builds.clear(), scored.clear()
        forward_batch(model, tokens, np.ones((B, 256), dtype=bool), self_extend=(2, 4))
        return len(builds), len(scored)

    one, _ = count(1, 1)
    assert count(3, 1) == (one, 3)
    assert count(1, 5) == (one, 3)  # two sequences of 2 * 128 * 256 cells a slice
    assert count(3, 5) == (one, 9)


@pytest.mark.parametrize("path", ["absolute", "rotary", "se"])
def test_inference_forward_never_holds_a_full_score_tensor(path):
    B, H, L = 16, 4, 384
    mode = "absolute" if path == "absolute" else "rotary"
    model = init_model(ModelConfig(hidden_size=64, n_layers=2, n_heads=H, vocab_size=64,
                                   original_context=L, position_mode=mode, ffn_multiplier=2))
    tokens = np.random.default_rng(0).integers(0, 64, (B, L))
    mask = np.ones((B, L), dtype=bool)
    mask[5, 300:] = False
    pos = np.tile(np.arange(L), (B, 1))
    kwargs = {"se": {"self_extend": (5, 16)}}.get(path, {"positions": pos})
    full_scores = B * H * L * L * 8  # 75.5 MB
    tracemalloc.start()
    try:
        forward_batch(model, tokens, mask, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * full_scores, f"{peak / 1e6:.1f} MB"


@pytest.mark.parametrize("mode, strategy", [
    *(("absolute", st) for st in ("pcw", "gp", "rp", "pi")),
    *(("rotary", st) for st in ("pcw", "gp", "pi", "ntk", "se")),
])
def test_a_long_input_never_builds_a_full_score_tensor(mode, strategy):
    """L = 4096 at s = 32 runs on the off-table fallbacks and stays far below one
    (1, H, L, L) score tensor (512 MiB)."""
    l_orig, L = 128, 4096
    model = init_model(ModelConfig(hidden_size=64, n_layers=2, n_heads=4, vocab_size=4096,
                                   original_context=l_orig, position_mode=mode))
    spec = ExtensionSpec(strategy, l_orig, L)
    notes = resolve_extension(spec, mode).notes
    assert notes == {"ntk": ("ntk lambda 33 resolved via fallback s+1",),
                     "se": ("se params (g=37, w=16) resolved via fallback w=l_orig/8",),
                     }.get(strategy, ())
    tokens = np.random.default_rng(0).integers(0, 4096, L)
    tracemalloc.start()
    try:
        emb = encode_many(model, [tokens], spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(np.linalg.norm(emb[0]) - 1.0) < 1e-12
    assert peak < 128 << 20, f"{peak / (1 << 20):.1f} MiB"


@pytest.mark.parametrize("mode, extension", [
    ("absolute", None), ("rotary", None), ("absolute", PI_ANCHORED), ("absolute", RP_SUFFIX)])
def test_backward_returns_the_gradients_of_what_learns(mode, extension, rng):
    """An unextended model gets every tensor; an extended one gets ``pos_table`` alone, equal
    to the full table's gradient on its free rows and exactly 0 on its frozen ones."""
    model = init_model(ModelConfig(hidden_size=8, n_layers=2, n_heads=2, vocab_size=32,
                                   original_context=6, position_mode=mode, init_seed=1))
    rows = 6
    if extension is not None:
        ext = PosExtension(extension, 6, 12)
        rows = ext.rows
        model = encoder.Model(model.config, {**model.params,
                                             "pos_table": ext.table(model.params["pos_table"])},
                              ext)
    tokens = rng.integers(0, 32, (2, 6))
    mask = np.ones((2, 6), dtype=bool)
    mask[1, 4:] = False
    # the first sequence sits on rows 0..5, which hold the anchors 0, 2 and 4 under
    # pi_anchored and all six originals under rp_suffix
    pos = np.stack([np.arange(6), np.arange(rows - 6, rows)])
    hidden, cache = forward_batch(model, tokens, mask, positions=pos, want_cache=True)
    d_out = rng.normal(size=hidden.shape)
    grads = backward_batch(model, cache, d_out)
    if extension is None:
        assert list(grads) == list(model.params)
        return
    # the same tensors as an unextended model with a table this long, whose every row learns
    plain = encoder.Model(replace(model.config, original_context=rows), model.params)
    full = backward_batch(plain, cache, d_out)["pos_table"]
    frozen = model.extension.frozen
    assert list(grads) == ["pos_table"]
    assert full[frozen].any(axis=1).sum() >= 3  # tokens sat on frozen rows
    assert (grads["pos_table"][frozen] == 0).all()
    assert np.array_equal(grads["pos_table"][~frozen], full[~frozen])


@pytest.mark.parametrize("mode", ["absolute", "rotary"])
def test_every_parameter_gradient_matches_finite_differences(mode):
    """Central differences of sum(hidden * R) agree with backward_batch on every tensor."""
    model = init_model(ModelConfig(hidden_size=16, n_layers=2, n_heads=2, vocab_size=16,
                                   original_context=8, position_mode=mode, init_seed=7))
    rng = np.random.default_rng(11)
    lengths = (8, 5, 3)
    tokens, mask, pos = encoder.pad_batch([rng.integers(0, 16, n) for n in lengths],
                                          [np.arange(n) for n in lengths])
    scale = np.array([1.3, 0.7, 1.1])
    r = rng.normal(size=(len(lengths), max(lengths), 16))

    def loss():
        hidden = forward_batch(model, tokens, mask, positions=pos, attn_scale=scale)
        return float(np.sum(hidden * r))

    _, cache = forward_batch(model, tokens, mask, positions=pos, attn_scale=scale, want_cache=True)
    grads = backward_batch(model, cache, r)
    # One bound for all tensors: in absolute mode attn.bk has an exact gradient
    # of zero, so a per-tensor bound would compare rounding noise.
    bound = 1e-7 * max(np.abs(g).max() for g in grads.values())
    eps = 1e-6
    for name, param in model.params.items():
        for flat in rng.choice(param.size, 4, replace=False):
            idx = np.unravel_index(flat, param.shape)
            orig = param[idx]
            param[idx] = orig + eps
            up = loss()
            param[idx] = orig - eps
            down = loss()
            param[idx] = orig
            assert abs((up - down) / (2 * eps) - grads[name][idx]) <= bound, (name, idx)


# --- forward / pooling ---------------------------------------------------------


def forward_one(model, token_ids, positions, attn_scale=1.0):
    """Hidden states (L, d) of one sequence: ``forward_batch`` on a one-row batch."""
    mask = np.ones((1, token_ids.size), dtype=bool)
    return forward_batch(model, token_ids[None], mask, positions=positions[None],
                         attn_scale=np.array([attn_scale]))[0]


def test_absolute_position_out_of_table_raises(tiny_absolute):
    toks = np.arange(4)
    # the message names the offending id, not the in-range maximum 2
    for positions, named in (([0, 1, 2, 8], 8), ([-1, 0, 1, 2], -1)):  # table length is 8
        with pytest.raises(PositionError, match=f"position id {named} outside table of length 8"):
            forward_one(tiny_absolute, toks, np.array(positions))


def test_absolute_positions_must_be_whole_numbers(tiny_absolute):
    toks = np.arange(4)
    with pytest.raises(PositionError, match="position id 1.7 is not a whole number"):
        forward_one(tiny_absolute, toks, np.array([0, 1.7, 2, 3]))
    whole = forward_one(tiny_absolute, toks, np.array([0.0, 1.0, 2.0, 3.0]))
    assert whole.tobytes() == forward_one(tiny_absolute, toks, np.arange(4)).tobytes()


@pytest.mark.parametrize("mode", ["absolute", "rotary"])
@pytest.mark.parametrize("name, value", [
    ("mask", np.ones((2, 4), dtype=bool)),  # an unpadded slice would never read it
    ("attn_scale", np.ones(3)),
    ("attn_scale", np.ones(1)),  # would broadcast
    ("attn_scale", np.ones((2, 1))),
    ("positions", np.arange(5)),
    ("positions", np.zeros((2, 3))),
], ids=["mask-2x4", "scale-3", "scale-1", "scale-2x1", "positions-1d", "positions-2x3"])
def test_forward_batch_refuses_arrays_that_disagree_with_the_tokens(
        tiny_absolute, tiny_rotary, mode, name, value):
    model = tiny_absolute if mode == "absolute" else tiny_rotary
    kwargs = {"mask": np.ones((2, 5), dtype=bool), "positions": np.tile(np.arange(5), (2, 1)),
              "attn_scale": np.ones(2), name: value}
    with pytest.raises(DimensionError, match=name):
        forward_batch(model, np.zeros((2, 5), dtype=np.int64), **kwargs)


@pytest.mark.parametrize("mode", ["absolute", "rotary"])
@pytest.mark.parametrize("name, value, error, message", [
    ("attn_scale", np.array([np.nan, 1.0]), ConfigurationError, "attn_scale must be finite"),
    ("attn_scale", np.array([1.0, np.inf]), ConfigurationError, "attn_scale must be finite"),
    ("positions", np.array([[0, 1, np.nan, 3, 4], [0, 1, 2, 3, 4]]), PositionError,
     "positions must be finite"),
    ("positions", np.array([[0, 1, 2, 3, 4], [0, 1, 2, 3, -np.inf]]), PositionError,
     "positions must be finite"),
    ("token_ids", np.array([[1.7, 2.2, 3.9, 0, 0], [0, 0, 0, 0, 0]]), ConfigurationError,
     "token ids must be whole numbers"),  # a cast would truncate them to 1, 2, 3
    ("token_ids", np.array([[np.nan] * 5] * 2), ConfigurationError,
     "token ids must be whole numbers"),
    ("token_ids", np.array([["a"] * 5] * 2), ConfigurationError, "token ids must be whole numbers"),
    *(("self_extend", g_w, ConfigurationError, message) for g_w, message in (
        ((0, 2), r"g >= 1 and window w >= 0, got \(g, w\) = \(0, 2\)"),
        ((-1, 2), r"got \(g, w\) = \(-1, 2\)"),
        ((2, -1), r"got \(g, w\) = \(2, -1\)"),
        ((2.5, 2), "'g' must be int, got 2.5"),
        ((2, 1.0), "'w' must be int, got 1.0"),
        ((3,), r"self_extend must be a pair \(g, w\), got \(3,\)"),
    )),
], ids=["scale-nan", "scale-inf", "position-nan", "position-inf", "token-fractional",
        "token-nan", "token-string", "se-g-0", "se-g-negative", "se-w-negative",
        "se-g-fractional", "se-w-float", "se-not-a-pair"])
def test_forward_batch_refuses_values_it_cannot_run(tiny_absolute, tiny_rotary, mode, name,
                                                    value, error, message):
    model = tiny_absolute if mode == "absolute" else tiny_rotary
    kwargs = {"token_ids": np.zeros((2, 5), dtype=np.int64),
              "positions": np.tile(np.arange(5.0), (2, 1)), "attn_scale": np.ones(2),
              name: value}
    with pytest.raises(error, match=message):
        forward_batch(model, mask=np.ones((2, 5), dtype=bool), **kwargs)


@pytest.mark.parametrize("ids", [[1.7, 2.2, 3.9], ["1", "2", "3"]], ids=["fractional", "string"])
def test_encode_many_refuses_token_ids_that_are_not_whole_numbers(tiny_absolute, ids):
    with pytest.raises(ConfigurationError, match="token ids must be whole numbers"):
        encode_many(tiny_absolute, [np.arange(3), ids], ExtensionSpec.none(8))
    whole = encode_many(tiny_absolute, [[1.0, 2.0, 3.0]], ExtensionSpec.none(8))
    assert np.array_equal(whole, encode_many(tiny_absolute, [[1, 2, 3]], ExtensionSpec.none(8)))


def test_forward_is_deterministic(tiny_absolute):
    toks = np.array([5, 9, 2, 40])
    pos = np.arange(4)
    a = forward_one(tiny_absolute, toks, pos, attn_scale=1.3)
    b = forward_one(tiny_absolute, toks, pos, attn_scale=1.3)
    assert np.array_equal(a, b)


def test_rotary_paired_permutation_symmetry(tiny_rotary):
    # swapping two tokens together with their positions permutes the outputs
    toks = np.array([5, 9, 2, 40])
    pos = np.array([0.0, 1.0, 2.0, 3.0])
    base = forward_one(tiny_rotary, toks, pos)
    perm = [2, 1, 0, 3]
    swapped = forward_one(tiny_rotary, toks[perm], pos[perm])
    assert np.allclose(swapped, base[perm], atol=1e-9)


def test_pool_single_token_is_normalized_row(tiny_absolute):
    h = forward_one(tiny_absolute, np.array([7]), np.array([0]))
    pooled = pool_and_normalize(h)
    assert np.allclose(pooled, h[0] / np.linalg.norm(h[0]), atol=0)


def test_pool_mean_idempotent_on_duplicates(rng):
    row = rng.normal(size=6)
    two = pool_and_normalize(np.stack([row, row]))
    one = pool_and_normalize(row[None, :])
    assert np.allclose(two, one, atol=1e-15)


def test_pool_requires_active_tokens(rng):
    with pytest.raises(EmptyInputError):
        pool_and_normalize(rng.normal(size=(3, 4)), np.zeros(3, dtype=bool))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), n=st.integers(min_value=1, max_value=12))
def test_pool_output_unit_norm(seed, n):
    h = np.random.default_rng(seed).normal(size=(n, 8))
    assert abs(np.linalg.norm(pool_and_normalize(h)) - 1.0) < 1e-6


# --- encode dispatch ------------------------------------------------------------


def test_encode_none_equals_forward_pool_bitwise(tiny_absolute):
    toks = np.array([3, 1, 60, 2, 11])
    via_encode = encode(tiny_absolute, toks, ExtensionSpec.none(8))
    manual = pool_and_normalize(forward_one(tiny_absolute, toks, np.arange(5)))
    assert np.array_equal(via_encode, manual)


def test_encode_rejects_overlong_input(tiny_absolute):
    with pytest.raises(LengthError):
        encode(tiny_absolute, np.arange(9), ExtensionSpec.none(8))


def test_encode_pi_short_input_matches_none_bitwise(tiny_absolute):
    toks = np.array([4, 4, 9, 30])
    none = encode(tiny_absolute, toks, ExtensionSpec.none(8))
    pi = encode(tiny_absolute, toks, ExtensionSpec(strategy=Strategy.PI, l_orig=8, l_target=32))
    assert np.array_equal(none, pi)


def test_encode_pi_short_input_matches_none_rotary(tiny_rotary):
    toks = np.array([4, 4, 9, 30])
    none = encode(tiny_rotary, toks, ExtensionSpec.none(8))
    pi = encode(tiny_rotary, toks, ExtensionSpec(strategy=Strategy.PI, l_orig=8, l_target=32))
    assert np.array_equal(none, pi)


def test_encode_gp_rp_long_inputs_absolute(tiny_absolute):
    toks = np.arange(20) % 64
    for strategy in (Strategy.GP, Strategy.RP):
        spec = ExtensionSpec(strategy=strategy, l_orig=8, l_target=32)
        emb = encode(tiny_absolute, toks, spec)
        assert abs(np.linalg.norm(emb) - 1.0) < 1e-6


def test_encode_rotary_strategies_long_inputs(tiny_rotary):
    toks = np.arange(20) % 64
    for strategy in (Strategy.GP, Strategy.PI, Strategy.NTK, Strategy.SE):
        spec = ExtensionSpec(strategy=strategy, l_orig=8, l_target=32)
        emb = encode(tiny_rotary, toks, spec)
        assert abs(np.linalg.norm(emb) - 1.0) < 1e-6


def test_encode_spec_must_match_model_window(tiny_absolute):
    with pytest.raises(ConfigurationError):
        encode(tiny_absolute, np.arange(4), ExtensionSpec.none(16))


def test_tuned_strategies_need_installed_extension(tiny_absolute):
    spec = ExtensionSpec(strategy=Strategy.TUNED_PI, l_orig=8, l_target=32)
    with pytest.raises(ConfigurationError):
        encode(tiny_absolute, np.arange(4), spec)


def test_tuned_pi_needs_the_table_scale_so_short_inputs_keep_their_anchors():
    model = init_model(ModelConfig(hidden_size=16, n_layers=1, n_heads=2, vocab_size=64,
                                   original_context=8))
    ext = extend_for_tuning(model, TuneConfig(mode="pi_anchored", l_orig=8, l_target=32))
    ext.params["pos_table"][~ext.extension.frozen] += 1.0  # stand-in for tuned rows
    x = np.arange(6)
    base = encode(model, x, ExtensionSpec.none(8))
    for l_target in (25, 32):  # scale 4, the table's
        spec = ExtensionSpec(strategy=Strategy.TUNED_PI, l_orig=8, l_target=l_target)
        assert np.array_equal(encode(ext, x, spec), base)
    spec = ExtensionSpec(strategy=Strategy.TUNED_PI, l_orig=8, l_target=16)  # scale 2
    with pytest.raises(ConfigurationError, match="at scale 2"):
        encode(ext, x, spec)


def test_tuned_rp_refuses_an_extension_of_another_original_window(tiny_absolute):
    """A hand-built model whose rp_suffix table repeats 4 rows, not its own 8, is refused
    where it is made, so no strategy ever encodes with it."""
    table = tiny_absolute.params["pos_table"][np.arange(16) % 4]
    with pytest.raises(ConfigurationError, match="does not extend the model's original "
                                                 "context 8"):
        encoder.Model(tiny_absolute.config, {**tiny_absolute.params, "pos_table": table},
                      PosExtension("rp_suffix", 4, 16))


@pytest.mark.parametrize("build, message", [
    (lambda a, r: encoder.Model(a.config, {k: v for k, v in a.params.items()
                                           if k != "final_ln.g"}),
     "tensor final_ln.g is missing"),
    (lambda a, r: encoder.Model(a.config, {**a.params,
                                           "tok_emb": a.params["tok_emb"].astype(np.float32)}),
     r"tensor tok_emb is float32 of shape \[64, 16\]; the model's config and extension "
     r"need float64"),
    (lambda a, r: encoder.Model(r.config, r.params, PosExtension("pi_anchored", 8, 16)),
     "rotary model has no position table"),
], ids=["missing-tensor", "float32-tensor", "rotary-extension"])
def test_a_model_is_checked_where_it_is_made(tiny_absolute, tiny_rotary, build, message):
    """An extension of another original window is the case of
    test_tuned_rp_refuses_an_extension_of_another_original_window."""
    with pytest.raises(ConfigurationError, match=message):
        build(tiny_absolute, tiny_rotary)


def test_se_on_absolute_model_rejected(tiny_absolute):
    spec = ExtensionSpec(strategy=Strategy.SE, l_orig=8, l_target=32)
    with pytest.raises(ConfigurationError):
        encode(tiny_absolute, np.arange(4), spec)
    with pytest.raises(ConfigurationError):  # not plain attention with SelfExtend dropped
        forward_batch(tiny_absolute, np.zeros((1, 4)), np.ones((1, 4), dtype=bool),
                      positions=np.zeros((1, 4)), self_extend=(2, 1))


def test_encode_many_matches_single_calls(tiny_absolute, tiny_rotary):
    seqs = [np.arange(5), np.arange(23) % 64, np.array([1, 2])]
    cases = [(tiny_absolute, st) for st in (Strategy.GP, Strategy.RP, Strategy.PI, Strategy.PCW)]
    cases += [(tiny_rotary, st) for st in (Strategy.NTK, Strategy.SE, Strategy.GP, Strategy.PI,
                                          Strategy.PCW)]
    for model, strategy in cases:
        spec = ExtensionSpec(strategy=strategy, l_orig=8, l_target=32)
        if strategy is Strategy.SE:
            # a padded length off the group grid shifts every residue class
            assert 23 % resolve_extension(spec, "rotary").group_size != 0
        batch = encode_many(model, seqs, spec)
        for i, s in enumerate(seqs):
            solo = encode(model, s, spec)
            assert np.allclose(batch[i], solo, atol=1e-12)


def _invariance_model(mode, strategy):
    model = init_model(ModelConfig(hidden_size=16, n_layers=2, n_heads=2, vocab_size=64,
                                   original_context=8, position_mode=mode, init_seed=3))
    if strategy in (Strategy.TUNED_PI, Strategy.TUNED_RP):
        tune_mode = "pi_anchored" if strategy is Strategy.TUNED_PI else "rp_suffix"
        model = extend_for_tuning(model, TuneConfig(mode=tune_mode, l_orig=8, l_target=32))
    return model


INVARIANCE_CASES = {
    (mode, strategy): _invariance_model(mode, strategy)
    for mode, allowed in (("absolute", ABSOLUTE_STRATEGIES), ("rotary", ROTARY_STRATEGIES))
    for strategy in sorted(allowed, key=lambda s: s.value)
}


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(sorted(INVARIANCE_CASES, key=lambda c: (c[0], c[1].value))),
       data=st.data())
def test_embedding_ignores_batch_neighbours_and_batch_size(case, data):
    mode, strategy = case
    model = INVARIANCE_CASES[case]
    l_target = 8 if strategy is Strategy.NONE else 32
    spec = ExtensionSpec(strategy=strategy, l_orig=8, l_target=l_target)
    lengths = data.draw(st.lists(st.integers(min_value=1, max_value=l_target),
                                 min_size=1, max_size=7))
    budget = data.draw(st.integers(min_value=1, max_value=l_target * (len(lengths) + 1)))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**31)))
    seqs = [rng.integers(0, 64, n) for n in lengths]
    with mock.patch.object(encoder, "_BATCH_ROWS", budget):
        batch = encode_many(model, seqs, spec)
    for s, row in zip(seqs, batch):
        assert np.abs(row - encode(model, s, spec)).max() <= 1e-12


@pytest.mark.parametrize("lengths", [(6, 6, 6), (7, 3, 5)], ids=["unpadded", "padded"])
@pytest.mark.parametrize("shift", [0.5, 17.0, 1000.0])
def test_rotary_hidden_states_ignore_a_common_phase_shift(tiny_rotary, rng, lengths, shift):
    """RoPE scores see phase differences only, so shifting every phase by c changes nothing."""
    seqs = [rng.integers(0, 64, n) for n in lengths]
    tokens, mask, pos = encoder.pad_batch(seqs, [np.arange(n, dtype=np.float64) for n in lengths])
    scale = rng.uniform(0.5, 3.0, len(lengths))
    base = forward_batch(tiny_rotary, tokens, mask, positions=pos, attn_scale=scale)
    moved = forward_batch(tiny_rotary, tokens, mask, positions=pos + shift, attn_scale=scale)
    assert np.abs(moved - base)[mask].max() <= 1e-12


@pytest.mark.parametrize("mode, strategy", [
    ("absolute", Strategy.PI), ("rotary", Strategy.PI), ("absolute", Strategy.RP),
    ("absolute", Strategy.PCW), ("rotary", Strategy.PCW), ("absolute", Strategy.TUNED_PI),
    ("absolute", Strategy.TUNED_RP),
], ids=lambda v: getattr(v, "value", v))
def test_inputs_within_the_original_window_embed_as_under_none(mode, strategy):
    """At every length 1..l_orig these strategies read the original positions, bit for bit;
    the tuned models' learnable rows are moved first, so reading one would show."""
    model = INVARIANCE_CASES[(mode, strategy)].copy()
    if model.extension is not None:
        model.params["pos_table"][~model.extension.frozen] += 1.0
    seqs = [np.random.default_rng(n).integers(0, 64, n) for n in range(1, 9)]
    base = encode_many(INVARIANCE_CASES[(mode, Strategy.NONE)], seqs, ExtensionSpec.none(8))
    spec = ExtensionSpec(strategy=strategy, l_orig=8, l_target=32)
    assert np.array_equal(encode_many(model, seqs, spec), base)


@pytest.mark.parametrize("mode", ["absolute", "rotary"])
def test_pcw_chunks_of_every_input_share_batches(mode, monkeypatch):
    model = INVARIANCE_CASES[(mode, Strategy.PCW)]
    spec = ExtensionSpec(strategy=Strategy.PCW, l_orig=8, l_target=32)
    rng = np.random.default_rng(5)
    seqs = [rng.integers(0, 64, n) for n in (1, 9, 16, 20, 30)]
    n_chunks = sum(len(plan_chunks(s.size, 8)) for s in seqs)  # 1 + 2 + 2 + 3 + 4
    batches = []
    real = encoder.forward_batch

    def counting(model, token_ids, mask, **kwargs):
        batches.append(len(token_ids))
        return real(model, token_ids, mask, **kwargs)

    monkeypatch.setattr(encoder, "forward_batch", counting)
    monkeypatch.setattr(encoder, "_BATCH_ROWS", 4 * 8)  # four full chunks
    encode_many(model, seqs, spec)
    assert sum(batches) == n_chunks == 12
    assert len(batches) == math.ceil(n_chunks / 4)


@pytest.mark.parametrize("case", sorted(INVARIANCE_CASES, key=lambda c: (c[0], c[1].value)),
                         ids=lambda c: f"{c[0]}-{c[1].value}")
def test_a_batch_holds_at_most_batch_size_spans_and_the_row_budget(case, monkeypatch):
    mode, strategy = case
    model = INVARIANCE_CASES[case]
    l_target = 8 if strategy is Strategy.NONE else 32
    spec = ExtensionSpec(strategy=strategy, l_orig=8, l_target=l_target)
    rng = np.random.default_rng(9)
    # the 1- and 3-token spans fill a 7 x 3 batch, 25..32 exceed the budget alone
    lengths = [n for n in (1, 1, 1, 1, 1, 1, 3, 5, 6, 8, 8, 13, 20, 25, 32) if n <= l_target]
    seqs = [rng.integers(0, 64, n) for n in lengths]
    budget, shapes = 24, []
    real = encoder.forward_batch

    def recording(model, token_ids, mask, **kwargs):
        shapes.append(token_ids.shape)
        return real(model, token_ids, mask, **kwargs)

    monkeypatch.setattr(encoder, "_BATCH_ROWS", budget)
    monkeypatch.setattr(encoder, "forward_batch", recording)
    batch = encode_many(model, seqs, spec)
    assert shapes
    for B, L in shapes:
        assert B * L <= max(budget, L), (B, L)
    for s, row in zip(seqs, batch):
        assert np.abs(row - encode(model, s, spec)).max() <= 1e-12


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=600), max_size=40))
@example(sizes=[])
@example(sizes=[512, 1, 513, 256, 256, 2])
def test_plan_batches_cuts_length_sorted_spans_by_the_row_budget(sizes):
    batches = encoder.plan_batches(sizes)
    order = [j for rows in batches for j in rows]
    # every index once, lengths non-decreasing within and across batches, ties in input order
    assert order == sorted(range(len(sizes)), key=lambda j: sizes[j])
    budget = encoder._BATCH_ROWS
    for rows in batches:
        assert len(rows) == 1 or len(rows) * sizes[rows[-1]] <= budget, rows
    for prev, nxt in zip(batches, batches[1:]):  # a batch closes only when the next span won't fit
        assert (len(prev) + 1) * sizes[nxt[0]] > budget


@pytest.mark.parametrize("strategy", ["ntk", "se"])
def test_long_inputs_at_the_default_batch_size_stay_under_a_memory_ceiling(strategy):
    """Four L=2048 inputs, each alone in its batch under the row budget, peak near
    19 MiB; cut by a count of 16 spans, one batch held 4 x 2048 rows of every
    activation and peaked near 70 MiB."""
    l_orig, L = 128, 2048
    model = init_model(ModelConfig(hidden_size=64, n_layers=2, n_heads=4, vocab_size=4096,
                                   original_context=l_orig, position_mode="rotary"))
    seqs = list(np.random.default_rng(1).integers(0, 4096, (4, L)))
    tracemalloc.start()
    try:
        embs = encode_many(model, seqs, ExtensionSpec(strategy, l_orig, L))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.allclose(np.linalg.norm(embs, axis=1), 1.0, atol=1e-12)
    assert peak < 32 << 20, f"{peak / (1 << 20):.1f} MiB"


def test_attn_scaling_needs_an_original_context_of_two():
    one = init_model(ModelConfig(hidden_size=8, n_layers=1, n_heads=2, vocab_size=16,
                                 original_context=1, init_seed=0))
    with pytest.raises(ConfigurationError):
        encode_many(one, [np.array([3])], ExtensionSpec.none(1))
    unscaled = encode_many(one, [np.array([3])], ExtensionSpec.none(1), attn_scaling=False)
    assert np.isfinite(unscaled).all()


def test_attn_scale_one_is_neutral(tiny_absolute):
    toks = np.array([3, 1, 60])
    h1 = forward_one(tiny_absolute, toks, np.arange(3), attn_scale=1.0)
    h2 = forward_one(tiny_absolute, toks, np.arange(3))
    assert np.array_equal(h1, h2)


def test_attn_scale_reaches_the_logits(tiny_absolute):
    toks = np.array([3, 1, 60])
    neutral = forward_one(tiny_absolute, toks, np.arange(3))
    scaled = forward_one(tiny_absolute, toks, np.arange(3), attn_scale=3.0)
    assert not np.array_equal(neutral, scaled)
    # a single token attends only to itself, so scaling cannot matter
    one = np.array([3])
    assert np.array_equal(
        forward_one(tiny_absolute, one, np.arange(1)),
        forward_one(tiny_absolute, one, np.arange(1), attn_scale=3.0),
    )
