import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import longctx as lc
from longctx.errors import ConfigurationError, EmptyInputError, LengthError
from longctx.positions import (
    ExtensionSpec,
    SE_PARAM_TABLE,
    ResolvedExtension,
    Strategy,
    assign_positions,
    attention_scale,
    build_interpolated_matrix,
    check_input_length,
    max_se_relpos,
    resolve_extension,
    resolve_ntk_lambda,
    resolve_se_params,
    se_remap_deltas,
    standard_frequencies,
)
from longctx.tokenizer import tokenize
from longctx.encoder import PI_ANCHORED, PosExtension

# --- per-token position assignment ---------------------------------------------


def positions(strategy, l_orig, l_target, n, mode="absolute"):
    spec = ExtensionSpec(strategy=strategy, l_orig=l_orig, l_target=l_target)
    return assign_positions(resolve_extension(spec, mode), n)


def test_grouped_examples():
    for mode in ("absolute", "rotary"):
        assert positions(Strategy.GP, 4, 32, 1, mode)[0] == 0  # s = 8
        assert positions(Strategy.GP, 4, 8, 8, mode)[7] == 3  # s = 2


def test_grouped_exhaustive_range_512_to_4096():
    # independent oracle: every remapped pid must land inside the trained range
    l_orig, l_target = 512, 4096
    for mode in ("absolute", "rotary"):
        out = positions(Strategy.GP, l_orig, l_target, l_target, mode)
        assert out.max() < l_orig
        assert out.min() == 0


def test_recurrent_examples():
    out = positions(Strategy.RP, 512, 2048, 1026)
    assert out[512] == 0
    assert out[511] == 511
    assert out[1025] == 1


@given(pid=st.integers(min_value=0, max_value=10**6), s=st.integers(min_value=1, max_value=64))
def test_grouped_never_exceeds_pid(pid, s):
    l_orig = pid // s + 1  # smallest window whose l_orig * s covers pid
    out = positions(Strategy.GP, l_orig, l_orig * s, pid + 1)
    assert 0 <= out[pid] <= pid


def test_assignment_dtypes_and_identity_strategies():
    for strategy in (Strategy.NONE, Strategy.TUNED_RP):
        out = positions(strategy, 8, 8 if strategy is Strategy.NONE else 32, 8)
        assert out.dtype == np.int64 and out.tolist() == list(range(8))
    for strategy in (Strategy.NONE, Strategy.NTK):
        out = positions(strategy, 8, 8 if strategy is Strategy.NONE else 32, 8, "rotary")
        assert out.dtype == np.float64 and out.tolist() == list(range(8))
    assert positions(Strategy.GP, 8, 32, 9, "rotary").dtype == np.float64


def test_assignment_rejects_lengths_outside_the_window_and_pairwise_strategies():
    for mode in ("absolute", "rotary"):
        for n, error in ((0, EmptyInputError), (-3, EmptyInputError), (33, LengthError)):
            with pytest.raises(error):
                positions(Strategy.GP, 8, 32, n, mode)
        with pytest.raises(ConfigurationError):
            positions(Strategy.PCW, 8, 32, 5, mode)
    with pytest.raises(ConfigurationError):
        positions(Strategy.SE, 8, 32, 5, "rotary")


# --- interpolation -----------------------------------------------------------


def test_interpolation_hand_case():
    a, b = np.array([1.0, -2.0, 0.5]), np.array([3.0, 4.0, -1.5])
    table = build_interpolated_matrix(np.stack([a, b]), 2)
    expected = np.stack([a, (a + b) / 2, b, b])
    assert np.allclose(table, expected, atol=0, rtol=0)
    assert PosExtension(PI_ANCHORED, 2, 4).frozen.tolist() == [True, False, True, False]


def test_interpolation_identity_at_s1(rng):
    rows = rng.normal(size=(5, 4))
    assert np.array_equal(build_interpolated_matrix(rows, 1), rows)
    with pytest.raises(ConfigurationError):  # s = 1 is no extension, so nothing to freeze
        PosExtension(PI_ANCHORED, 5, 5)


def test_anchor_rows_are_bitwise_copies(rng):
    rows = rng.normal(size=(16, 8))
    table = build_interpolated_matrix(rows, 8)
    for i in range(16):
        assert np.array_equal(table[i * 8], rows[i])


def test_interpolated_rows_are_convex_combinations(rng):
    # oracle: project each non-anchor row onto the segment between its anchors
    rows = rng.normal(size=(6, 8))
    s = 4
    table = build_interpolated_matrix(rows, s)
    frozen = PosExtension(PI_ANCHORED, rows.shape[0], rows.shape[0] * s).frozen
    for k in range(len(table)):
        if frozen[k]:
            continue
        i = k // s
        left = table[i * s]
        right = table[min((i + 1) * s, (rows.shape[0] - 1) * s)]
        seg = right - left
        denom = float(seg @ seg)
        f = 0.0 if denom == 0.0 else float((table[k] - left) @ seg) / denom
        assert -1e-12 <= f <= 1 + 1e-12
        assert np.linalg.norm(table[k] - (left + f * seg)) < 1e-12


def test_tail_rows_repeat_last_anchor(rng):
    rows = rng.normal(size=(3, 4))
    table = build_interpolated_matrix(rows, 4)
    for k in range(2 * 4 + 1, 12):
        assert np.array_equal(table[k], rows[2])


def test_pi_assignment_examples():
    # short inputs keep their original positions, long ones are compressed
    assert positions(Strategy.PI, 512, 4096, 100)[5] == 40  # anchor row 5 * s
    assert positions(Strategy.PI, 512, 4096, 1000)[5] == 5
    assert positions(Strategy.PI, 512, 4096, 100)[0] == 0
    assert positions(Strategy.PI, 512, 4096, 1000)[0] == 0
    assert positions(Strategy.PI, 512, 4096, 100, "rotary")[5] == 5.0
    assert positions(Strategy.PI, 512, 4096, 1000, "rotary")[5] == 5 / 8
    assert positions(Strategy.PI, 512, 4096, 4096).max() == 4095  # last interpolated row
    with pytest.raises(LengthError):
        positions(Strategy.PI, 512, 4096, 4097)


# --- frequencies -------------------------------------------------------------


def test_standard_frequencies_shape_and_order():
    f = standard_frequencies(16)
    assert f[0] == 1.0
    assert (np.diff(f) < 0).all()


def ntk_freqs(dim, lam):
    """Frequencies of the rotary base that ``ntk`` with multiplier ``lam`` encodes with."""
    spec = ExtensionSpec(Strategy.NTK, l_orig=8, l_target=8, ntk_lambda=lam)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # lam <= s warns; s = 1 here
        resolved = resolve_extension(spec, "rotary")
    return standard_frequencies(dim, resolved.rope_base(10000.0))


def test_ntk_hand_value():
    f = ntk_freqs(4, 3.0)
    assert f[0] == 1.0
    assert math.isclose(f[1], 30000.0 ** -0.5, rel_tol=1e-12)
    assert math.isclose(f[1], 5.7735e-3, rel_tol=1e-4)


def test_ntk_lambda_one_is_identity():
    assert np.array_equal(ntk_freqs(8, 1.0), standard_frequencies(8))


@pytest.mark.parametrize("lam", [1.5, 3.0, 10.0])
def test_ntk_compresses_low_frequencies_only(lam):
    base = standard_frequencies(16)
    scaled = ntk_freqs(16, lam)
    assert scaled[0] == base[0] == 1.0
    assert (scaled[1:] < base[1:]).all()


def test_ntk_rejects_nonpositive_lambda():
    with pytest.raises(ConfigurationError):
        ntk_freqs(8, 0.0)


def test_rope_base_changes_only_under_ntk():
    for st in (Strategy.NONE, Strategy.PI, Strategy.SE):
        resolved = resolve_extension(ExtensionSpec(st, 8, 8 if st is Strategy.NONE else 32),
                                     "rotary")
        assert resolved.rope_base(10000.0) == 10000.0
    resolved = resolve_extension(ExtensionSpec(Strategy.NTK, 8, 32), "rotary")
    assert resolved.rope_base(10000.0) == 10000.0 * 5.0  # published lambda for s = 4


def test_resolve_ntk_lambda_table_and_fallback():
    assert resolve_ntk_lambda(2) == 3.0
    assert resolve_ntk_lambda(4) == 5.0
    assert resolve_ntk_lambda(8) == 10.0
    assert resolve_ntk_lambda(3) == 4.0


# --- self-extend -------------------------------------------------------------


@given(
    i=st.integers(min_value=0, max_value=500),
    j=st.integers(min_value=0, max_value=500),
    w=st.integers(min_value=0, max_value=50),
)
def test_group_size_one_is_identity(i, j, w):
    assert se_remap_deltas(i - j, g=1, w=w) == i - j


@given(
    i=st.integers(min_value=0, max_value=100),
    j=st.integers(min_value=0, max_value=100),
    g=st.integers(min_value=1, max_value=16),
)
def test_wide_window_is_identity(i, j, g):
    assert se_remap_deltas(i - j, g=g, w=100) == i - j


def test_vectorized_matches_scalar(rng):
    def remap(delta, g, w):  # the SelfExtend rule, written out for one delta
        if abs(delta) <= w:
            return delta
        return (1 if delta > 0 else -1) * (w + (abs(delta) - w) // g)

    deltas = rng.integers(-2000, 2000, size=200)
    vec = se_remap_deltas(deltas, g=5, w=64)
    ref = [remap(int(d), 5, 64) for d in deltas]
    assert vec.tolist() == ref
    assert [int(se_remap_deltas(int(d) - 0, g=5, w=64)) for d in deltas] == ref


def test_resolve_se_params_published_values():
    assert resolve_se_params(512, 1024) == (3, 256)
    assert resolve_se_params(512, 2048) == (5, 128)
    assert resolve_se_params(512, 4096) == (9, 64)
    assert resolve_se_params(4096, 8192) == (3, 2048)
    assert resolve_se_params(4096, 16384) == (5, 1024)
    assert resolve_se_params(4096, 32768) == (9, 512)


def test_resolve_se_params_degenerate_and_fallback():
    g, w = resolve_se_params(512, 512)
    assert g == 1
    g, w = resolve_se_params(128, 512)
    assert w == 16
    assert max_se_relpos(512, g, w) <= 127
    assert not (127, 512) in SE_PARAM_TABLE


def test_fallback_se_params_are_the_smallest_feasible_group():
    def linear_search(l_orig, l_target):  # the rule the closed form must reproduce
        w = l_orig // 8
        for g in range(1, max(l_target, 2)):
            if max_se_relpos(l_target, g, w) <= l_orig - 1:
                return g, w
        return None

    for l_orig in range(1, 40):
        for l_target in range(1, 200):
            if (l_orig, l_target) in SE_PARAM_TABLE:
                continue
            want = linear_search(l_orig, l_target)
            if want is None:
                with pytest.raises(ConfigurationError, match="no feasible"):
                    resolve_se_params(l_orig, l_target)
            else:
                assert resolve_se_params(l_orig, l_target) == want, (l_orig, l_target)
    with pytest.raises(ConfigurationError):
        resolve_se_params(0, 16)


def test_published_se_params_saturate_the_trained_range():
    for (l_orig, l_target), (g, w) in SE_PARAM_TABLE.items():
        assert max_se_relpos(l_target, g, w) == l_orig - 1


# --- attention scaling -------------------------------------------------------


def test_attention_scale_examples():
    assert attention_scale(512, 512) == 1.0
    assert attention_scale(100, 512) == 1.0
    assert math.isclose(attention_scale(512 * 512, 512), 2.0, rel_tol=1e-12)


@given(st.integers(min_value=1, max_value=10**6))
def test_attention_scale_at_least_one(n):
    assert attention_scale(n, 512) >= 1.0


def test_attention_scale_rejects_short_windows_with_a_typed_error():
    for n, l_orig in ((0, 8), (-1, 8), (5, 1), (1, 1), (5, 0)):
        with pytest.raises(ConfigurationError):
            attention_scale(n, l_orig)


def test_scaling_preserves_argmax(rng):
    logits = rng.normal(size=40)
    weights = np.exp(logits - logits.max())
    weights /= weights.sum()
    for kappa in (1.3, 2.0, 7.5):
        scaled = np.exp(kappa * logits - (kappa * logits).max())
        scaled /= scaled.sum()
        assert scaled.argmax() == weights.argmax()


# --- ExtensionSpec -----------------------------------------------------------


def test_scale_is_recomputed():
    spec = ExtensionSpec(strategy=Strategy.GP, l_orig=512, l_target=4096)
    assert spec.scale == 8
    spec = ExtensionSpec(strategy=Strategy.GP, l_orig=512, l_target=1000)
    assert spec.scale == 2  # ceil, not floor


def test_scale_is_the_integer_ceiling_at_any_size():
    """Float division takes 3 * 2**53 + 1 over 3 to 2**53; the integer ceiling, which
    ``PosExtension.scale`` takes too, is 2**53 + 1."""
    l_target = 3 * 2**53 + 1
    spec = ExtensionSpec(strategy=Strategy.GP, l_orig=3, l_target=l_target)
    assert spec.scale == PosExtension(PI_ANCHORED, 3, l_target).scale == 2**53 + 1


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_ntk_lambda_must_be_finite_and_positive(lam):
    with pytest.raises(ConfigurationError, match="NTK multiplier must be finite and positive"):
        ExtensionSpec(strategy=Strategy.NTK, l_orig=8, l_target=16, ntk_lambda=lam)


def test_none_cannot_extend():
    with pytest.raises(ConfigurationError):
        ExtensionSpec(strategy=Strategy.NONE, l_orig=512, l_target=1024)


@pytest.mark.parametrize("strategy, params, named", [
    ("pi", {"ntk_lambda": 3.0}, "ntk_lambda applies only to strategy ntk, not pi"),
    ("se", {"ntk_lambda": 3.0}, "ntk_lambda applies only to strategy ntk, not se"),
    ("ntk", {"group_size": 7, "window": 2}, "group_size applies only to strategy se, not ntk"),
    ("gp", {"window": 2}, "window applies only to strategy se, not gp"),
    ("se", {"group_size": 7}, "group_size and window go together"),
    ("se", {"window": 2}, "group_size and window go together"),
], ids=["pi-ntk-lambda", "se-ntk-lambda", "ntk-g-w", "gp-w", "se-g-only", "se-w-only"])
def test_a_spec_refuses_parameters_its_strategy_does_not_run(strategy, params, named):
    with pytest.raises(ConfigurationError, match=named):
        ExtensionSpec(strategy=strategy, l_orig=8, l_target=32, **params)


def test_a_checked_spec_cannot_be_changed():
    spec = ExtensionSpec(strategy="pi", l_orig=8, l_target=32)
    for name, value in (("l_target", 4), ("strategy", "se"), ("ntk_lambda", 3.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, value)
    assert (spec.strategy, spec.l_target, spec.scale) == (Strategy.PI, 32, 4)


def test_a_resolution_assigns_positions_for_the_mode_it_was_checked_against():
    spec = ExtensionSpec(strategy="pi", l_orig=8, l_target=32)
    absolute, rotary = resolve_extension(spec, "absolute"), resolve_extension(spec, "rotary")
    assert (absolute.mode, rotary.mode) == ("absolute", "rotary")
    assert assign_positions(absolute, 20).tolist() == list(range(20))
    assert assign_positions(rotary, 20).tolist() == [i / 4 for i in range(20)]


def test_mode_strategy_compatibility():
    se = ExtensionSpec(strategy=Strategy.SE, l_orig=512, l_target=2048)
    resolve_extension(se, "rotary")
    with pytest.raises(ConfigurationError):
        resolve_extension(se, "absolute")
    rp = ExtensionSpec(strategy=Strategy.RP, l_orig=512, l_target=2048)
    resolve_extension(rp, "absolute")
    with pytest.raises(ConfigurationError):
        resolve_extension(rp, "rotary")


def test_infeasible_se_params_fail_fast():
    spec = ExtensionSpec(strategy=Strategy.SE, l_orig=512, l_target=4096,
                         group_size=2, window=64)
    with pytest.raises(ConfigurationError):
        resolve_extension(spec, "rotary")


def test_small_ntk_lambda_warns():
    spec = ExtensionSpec(strategy=Strategy.NTK, l_orig=512, l_target=4096, ntk_lambda=2.0)
    with pytest.warns(UserWarning):
        resolve_extension(spec, "rotary")


def test_resolution_fills_table_values():
    spec = ExtensionSpec(strategy=Strategy.SE, l_orig=512, l_target=4096)
    resolved = resolve_extension(spec, "rotary")
    assert (resolved.group_size, resolved.window) == (9, 64)
    spec = ExtensionSpec(strategy=Strategy.NTK, l_orig=4096, l_target=32768)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        resolved = resolve_extension(spec, "rotary")
    assert resolved.ntk_lambda == 10.0


def test_a_resolution_is_its_spec_with_the_parameters_filled_in():
    spec = ExtensionSpec(strategy=Strategy.SE, l_orig=512, l_target=4096)
    resolved = resolve_extension(spec, "rotary")
    assert isinstance(resolved, ExtensionSpec) and not hasattr(resolved, "spec")
    own = [f.name for f in dataclasses.fields(ResolvedExtension)]
    assert own == [f.name for f in dataclasses.fields(ExtensionSpec)] + ["mode", "notes"]
    assert (resolved.strategy, resolved.l_orig, resolved.l_target, resolved.scale) == \
        (spec.strategy, spec.l_orig, spec.l_target, spec.scale)
    assert resolved.mode == "rotary"


def test_a_resolution_for_its_own_mode_is_returned_as_it_is():
    spec = ExtensionSpec(strategy=Strategy.NTK, l_orig=512, l_target=4096, ntk_lambda=2.0)
    with pytest.warns(UserWarning) as caught:
        resolved = resolve_extension(spec, "rotary")
        assert resolve_extension(resolved, "rotary") is resolved
    assert len(caught) == 1  # the second call resolves nothing, so it warns nothing


def test_a_resolution_for_the_other_mode_is_resolved_afresh():
    spec = ExtensionSpec(strategy=Strategy.PI, l_orig=8, l_target=32)
    absolute = resolve_extension(spec, "absolute")
    rotary = resolve_extension(absolute, "rotary")
    assert rotary == resolve_extension(spec, "rotary")
    assert assign_positions(rotary, 20).dtype == np.float64
    se = resolve_extension(ExtensionSpec(strategy=Strategy.SE, l_orig=512, l_target=4096),
                           "rotary")
    with pytest.raises(ConfigurationError, match="does not apply to absolute-mode"):
        resolve_extension(se, "absolute")


_NTK = dict(strategy="ntk", l_orig=8, l_target=32, ntk_lambda=5.0, mode="rotary")
_SE = dict(strategy="se", l_orig=8, l_target=32, group_size=4, window=2, mode="rotary")


@pytest.mark.parametrize("fields, message", [
    ({**_NTK, "mode": 3}, "'mode' must be str"),
    ({**_NTK, "l_target": "64"}, r"'l_target' must be int \| None"),
    ({**_NTK, "ntk_lambda": "3"}, r"'ntk_lambda' must be float \| None"),
    ({**_SE, "group_size": 2.0}, r"'group_size' must be int \| None"),
    ({**_NTK, "mode": "absolute"}, "strategy ntk does not apply to absolute-mode models"),
    ({**_NTK, "ntk_lambda": None}, "a resolved ntk extension needs its parameters"),
    ({**_SE, "group_size": None, "window": None}, "a resolved se extension needs its parameters"),
    ({**_SE, "group_size": 1, "window": 0}, r"max remapped relative position 31 exceeds 7"),
    ({**_NTK, "mode": "Rotary"}, "unknown position mode 'Rotary'"),
], ids=["mode", "l_target", "ntk_lambda", "group_size", "mode-mismatch", "ntk-without-lambda",
        "se-without-params", "se-infeasible", "unknown-mode"])
def test_a_resolution_is_checked_where_it_is_made(fields, message):
    """``resolve_extension`` returns a resolution for its own mode as it is, so a
    hand-made one must not run a strategy its mode, parameters or window refuse."""
    with pytest.raises(ConfigurationError, match=message):
        ResolvedExtension(**fields)


def test_resolving_for_a_mode_no_model_has_is_refused():
    """A mode outside ModelConfig's was once resolved as rotary, and ``assign_positions``
    then gave float64 phases for an "Absolute" model's table rows."""
    with pytest.raises(ConfigurationError, match="unknown position mode 'Absolute'"):
        resolve_extension(ExtensionSpec("gp", 8, 16), "Absolute")


# --- typed errors for out-of-range public arguments ------------------------------


@pytest.mark.parametrize("call, bad", [
    (lambda: ExtensionSpec(strategy="bogus", l_orig=8), "'bogus'; expected one of none, pcw,"),
    (lambda: lc.plan_chunks(10, l_orig=0), "got 0"),
    (lambda: max_se_relpos(0, 2, 4), "got 0"),
    (lambda: lc.search(lc.EmbeddingIndex(ids=("a",), vectors=np.eye(1)), np.ones(1), k=0),
     "got 0"),
    (lambda: tokenize("a b", vocab_size=0), "got 0"),
    (lambda: lc.word_budget(0), "got 0"),
    (lambda: lc.plan_chunks(10.5, 4), "'input_len' must be int, got 10.5"),
    (lambda: lc.search(lc.EmbeddingIndex(ids=("a",), vectors=np.eye(1)), np.ones(1), k=1.5),
     "'k' must be int, got 1.5"),
    (lambda: lc.standard_frequencies(4, base=-1.0), "rope base must be a finite number > 0"),
    (lambda: lc.pool_and_normalize(np.ones((3, 4)), np.ones(2, dtype=bool)),
     r"mask must have shape \(3,\) for hidden states of shape \(3, 4\), got \(2,\)"),
    (lambda: tokenize(123, 64), "'text' must be str, got 123"),
    (lambda: tokenize("a b", 2.5), "'vocab_size' must be int, got 2.5"),
    (lambda: check_input_length(2.5, 8), "'n' must be int, got 2.5"),
    (lambda: lc.attention_scale(math.nan, 8), "'n' must be int, got nan"),
    (lambda: lc.attention_scale(3.5, 8), "'n' must be int, got 3.5"),
    (lambda: lc.resolve_se_params(8.5, 32), "'l_orig' must be int, got 8.5"),
    (lambda: max_se_relpos(10.5, 2, 1), "'l_target' must be int, got 10.5"),
    (lambda: lc.word_budget(2.5), "'length_tokens' must be int, got 2.5"),
    (lambda: lc.sample_skip_bias(16.5, 8, np.random.default_rng(0)),
     "'l_target' must be int, got 16.5"),
    (lambda: ExtensionSpec(strategy="pi", l_orig=0, l_target=8), "l_orig must be >= 1, got 0"),
    (lambda: ExtensionSpec(strategy="pi", l_orig=16, l_target=8),
     "l_target 8 must be >= l_orig 16"),
    (lambda: ExtensionSpec(strategy="se", l_orig=8, l_target=32, group_size=0, window=2),
     "group size must be >= 1, got 0"),
    (lambda: ExtensionSpec(strategy="se", l_orig=8, l_target=32, group_size=2, window=-1),
     "neighbor window must be >= 0, got -1"),
    (lambda: se_remap_deltas(np.arange(4), 0, 2), "group size must be >= 1, got 0"),
    (lambda: se_remap_deltas(np.arange(4), 2, -1), "neighbor window must be >= 0, got -1"),
    (lambda: build_interpolated_matrix(np.zeros(4), 2),
     r"position table must be 2-D, got shape \(4,\)"),
    (lambda: build_interpolated_matrix(np.zeros((4, 2)), 0), "scaling factor must be >= 1, got 0"),
    (lambda: standard_frequencies(3), "head dimension must be positive and even, got 3"),
    (lambda: lc.apply_rope(np.ones(6), 1.0, standard_frequencies(4)),
     "vector length 6 does not match 2 frequencies"),
    (lambda: lc.attention_score(np.ones(3), np.ones(3), 0, 0),
     r"expected even-length vectors, got shape \(3,\)"),
], ids=["strategy", "plan_chunks", "max_se_relpos", "search", "tokenize", "word_budget",
        "plan_chunks-fractional", "search-fractional-k", "standard_frequencies-negative-base",
        "pool_and_normalize-mask-length", "tokenize-not-text", "tokenize-fractional-vocab",
        "check_input_length-fractional", "attention_scale-nan", "attention_scale-fractional",
        "resolve_se_params-fractional", "max_se_relpos-fractional", "word_budget-fractional",
        "sample_skip_bias-fractional", "spec-l_orig-0", "spec-l_target-below-l_orig",
        "spec-group_size-0", "spec-window-negative", "se_remap_deltas-g-0",
        "se_remap_deltas-w-negative", "interpolated-1d-table", "interpolated-s-0",
        "standard_frequencies-odd", "apply_rope-theta-mismatch", "attention_score-odd-length"])
def test_out_of_range_public_arguments_raise_configuration_errors(call, bad):
    with pytest.raises(ConfigurationError, match=bad):
        call()
