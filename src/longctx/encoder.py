"""Minimal bidirectional transformer encoder producing unit-norm mean-pooled embeddings.

Position information enters either through a learned absolute table added to
token embeddings, or through rotary rotation of per-head query/key vectors at
every layer. Architecture constants: pre-norm blocks, tanh-approximated GELU,
bidirectional (full) attention, all tensors float64. Weight matrices (including
the position table) are drawn uniform in [-1/sqrt(d), 1/sqrt(d)] from a seeded
generator; biases start at zero and layer norms at identity, so two models
built from equal configs are bit-identical.

The forward pass can record a cache from which ``backward_batch`` produces
exact analytic gradients for what learns on the model: every parameter, or
an extended table's free rows (checked against finite differences in the
test suite). Models are immutable during inference; encode
and forward_batch are pure in the model.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionError,
    EmptyInputError,
    NumericError,
    PositionError,
    check_types,
)
from .positions import (
    ABSOLUTE,
    ROPE_BASE,
    ROTARY,
    ExtensionSpec,
    ResolvedExtension,
    Strategy,
    assign_positions,
    attention_scale,
    build_interpolated_matrix,
    check_input_length,
    plan_chunks,
    resolve_extension,
    standard_frequencies,
)
# Not called here. perfbench/tracer.py patches the name encoder.se_remap_deltas
# and fails if it is missing; drop this import together with that patch entry.
from .positions import se_remap_deltas  # noqa: F401

PI_ANCHORED = "pi_anchored"
RP_SUFFIX = "rp_suffix"

_LN_EPS = 1e-12
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and initialization seed for one encoder."""

    hidden_size: int
    n_layers: int
    n_heads: int
    vocab_size: int
    original_context: int
    position_mode: str = ABSOLUTE
    ffn_multiplier: int = 4
    init_seed: int = 0
    rope_base: float = ROPE_BASE

    def __post_init__(self):
        check_types(vars(self), self.__annotations__)
        if self.hidden_size < 2 or self.hidden_size % 2 != 0:
            raise ConfigurationError(
                f"hidden_size must be a positive even integer, got {self.hidden_size}"
            )
        if self.n_layers < 1:
            raise ConfigurationError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.n_heads < 1 or self.hidden_size % self.n_heads != 0:
            raise ConfigurationError(
                f"n_heads {self.n_heads} must divide hidden_size {self.hidden_size}"
            )
        if (self.hidden_size // self.n_heads) % 2 != 0:
            raise ConfigurationError(
                f"per-head dimension {self.hidden_size // self.n_heads} must be even "
                "(rotary rotation pairs dimensions)"
            )
        if self.vocab_size < 1:
            raise ConfigurationError(f"vocab_size must be >= 1, got {self.vocab_size}")
        if self.original_context < 1:
            raise ConfigurationError(
                f"original_context must be >= 1, got {self.original_context}"
            )
        if self.position_mode not in (ABSOLUTE, ROTARY):
            raise ConfigurationError(f"unknown position mode {self.position_mode!r}")
        if self.ffn_multiplier < 1:
            raise ConfigurationError(f"ffn_multiplier must be >= 1, got {self.ffn_multiplier}")
        if self.init_seed < 0:
            raise ConfigurationError(f"init_seed must be >= 0, got {self.init_seed}")
        if not (math.isfinite(self.rope_base) and self.rope_base > 0):
            raise ConfigurationError(f"rope_base must be a finite number > 0, got {self.rope_base}")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.n_heads

    @property
    def ffn_size(self) -> int:
        return self.hidden_size * self.ffn_multiplier


@dataclass(frozen=True)
class PosExtension:
    """An extended position table; the one owner of its geometry, untuned rows and frozen rows.

    pi_anchored interpolates the l_orig original rows by ``scale`` to
    ``rows = l_orig * scale`` and freezes the anchors i * scale that
    ``build_interpolated_matrix`` copies; rp_suffix repeats them to
    ``rows = l_target`` and freezes the original l_orig rows.
    """

    mode: str  # PI_ANCHORED | RP_SUFFIX
    l_orig: int
    l_target: int

    def __post_init__(self):
        check_types(vars(self), self.__annotations__)
        if self.mode not in (PI_ANCHORED, RP_SUFFIX) or not 1 <= self.l_orig < self.l_target:
            raise ConfigurationError(f"{self} needs a known mode and 1 <= l_orig < l_target")

    @property
    def scale(self) -> int:
        return -(-self.l_target // self.l_orig)

    @property
    def rows(self) -> int:
        return self.l_orig * self.scale if self.mode == PI_ANCHORED else self.l_target

    @property
    def frozen(self) -> np.ndarray:
        """Frozen flags (True = not trainable) per row of the table."""
        idx = np.arange(self.rows)
        return idx % self.scale == 0 if self.mode == PI_ANCHORED else idx < self.l_orig

    def table(self, original: np.ndarray) -> np.ndarray:
        """The untuned ``rows``-row table of an (l_orig, d) ``original``: interpolated by
        ``scale`` under pi_anchored, the original rows then recurrent copies under rp_suffix."""
        if self.mode == PI_ANCHORED:
            return build_interpolated_matrix(original, self.scale)
        return original[np.arange(self.rows) % self.l_orig]


@dataclass(frozen=True)
class Model:
    """Parameter store plus config, checked where it is made; immutable during inference."""

    config: ModelConfig
    params: dict[str, np.ndarray]
    extension: PosExtension | None = None

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        """Raise ConfigurationError unless ``params`` are exactly the tensors of
        ``param_layout(config, extension)``, in float64."""
        layout = param_layout(self.config, self.extension)
        extra = sorted(self.params.keys() - layout.keys())
        if extra:
            raise ConfigurationError(f"tensor {extra[0]} is not in the layout of the model's "
                                     "config and extension")
        for name, (shape, _) in layout.items():
            arr = self.params.get(name)
            if arr is None or arr.dtype != np.dtype("<f8") or arr.shape != shape:
                got = "missing" if arr is None else f"{arr.dtype} of shape {list(arr.shape)}"
                raise ConfigurationError(f"tensor {name} is {got}; the model's config and "
                                         f"extension need float64 of shape {list(shape)}")

    def copy(self) -> "Model":
        return replace(self, params={k: v.copy() for k, v in self.params.items()})


def param_layout(config: ModelConfig, extension: PosExtension | None = None) -> dict:
    """Every parameter tensor's ``name -> (shape, init)``, in ``init_model``'s draw order.

    ``init`` is "uniform", "zeros" or "ones". An ``extension`` sets the
    position table's rows (``PosExtension.rows``), so only an absolute-mode
    config, which has that table, takes one, and only from its own original context.
    """
    if extension is not None and config.position_mode != ABSOLUTE:
        raise ConfigurationError(f"a {config.position_mode} model has no position table "
                                 f"to extend, got {extension}")
    if extension is not None and extension.l_orig != config.original_context:
        raise ConfigurationError(f"{extension} does not extend the model's original "
                                 f"context {config.original_context}")
    d, f = config.hidden_size, config.ffn_size
    layout = {"tok_emb": ((config.vocab_size, d), "uniform")}
    if config.position_mode == ABSOLUTE:
        rows = config.original_context if extension is None else extension.rows
        layout["pos_table"] = ((rows, d), "uniform")
    for i in range(config.n_layers):
        for name, shape, init in (
            *((w, (d, d), "uniform") for w in ("attn.wq", "attn.wk", "attn.wv", "attn.wo")),
            ("ffn.w1", (d, f), "uniform"), ("ffn.w2", (f, d), "uniform"),
            *((b, (d,), "zeros") for b in ("attn.bq", "attn.bk", "attn.bv", "attn.bo")),
            ("ffn.b1", (f,), "zeros"), ("ffn.b2", (d,), "zeros"),
            ("ln1.g", (d,), "ones"), ("ln1.b", (d,), "zeros"),
            ("ln2.g", (d,), "ones"), ("ln2.b", (d,), "zeros"),
        ):
            layout[f"layers.{i}.{name}"] = (shape, init)
    layout["final_ln.g"], layout["final_ln.b"] = ((d,), "ones"), ((d,), "zeros")
    return layout


def init_model(config: ModelConfig) -> Model:
    """Build a model with seeded deterministic weights.

    Two calls with equal configs produce bit-identical parameter tensors.
    """
    rng = np.random.default_rng(config.init_seed)
    bound = 1.0 / math.sqrt(config.hidden_size)
    fill = {"uniform": lambda shape: rng.uniform(-bound, bound, size=shape),
            "zeros": np.zeros, "ones": np.ones}
    params = {name: fill[init](shape) for name, (shape, init) in param_layout(config).items()}
    return Model(config=config, params=params)


# ---------------------------------------------------------------------------
# rotary rotation and the attention-score primitive


def apply_rope(h: np.ndarray, m: float, theta: np.ndarray) -> np.ndarray:
    """Rotate consecutive pairs of ``h`` by angles m * theta_j. Norm-preserving."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1 or h.size % 2 != 0:
        raise DimensionError(f"expected an even-length vector, got shape {h.shape}")
    if h.size != 2 * theta.size:
        raise DimensionError(f"vector length {h.size} does not match {theta.size} frequencies")
    ang = m * theta
    c, s = np.cos(ang), np.sin(ang)
    out = np.empty_like(h)
    h1, h2 = h[0::2], h[1::2]
    out[0::2] = h1 * c - h2 * s
    out[1::2] = h1 * s + h2 * c
    return out


def attention_score(
    q: np.ndarray, k: np.ndarray, m: float, n: float,
    theta: np.ndarray | None = None,
) -> float:
    """Rotary attention logit between q at position m and k at position n.

    Equals the dot product of the rotated vectors and depends on positions
    only through m - n.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.shape != k.shape:
        raise DimensionError(f"q and k must have equal shapes, got {q.shape} vs {k.shape}")
    if q.ndim != 1 or q.size % 2 != 0:
        raise DimensionError(f"expected even-length vectors, got shape {q.shape}")
    if theta is None:
        theta = standard_frequencies(q.size)
    return float(apply_rope(q, m, theta) @ apply_rope(k, n, theta))


def _rope_tables(phases: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Unit complex table e^{i m theta_j} (B, 1, L, Dh/2) for rotating (B, H, L, Dh) vectors
    by phases m (B, L)."""
    ang = phases[:, None, :, None] * theta[None, None, None, :]
    rot = np.empty(ang.shape, dtype=np.complex128)
    np.cos(ang, out=rot.real)
    np.sin(ang, out=rot.imag)
    return rot


def _rotate_batch(x: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Rotate (B,H,L,Dh) queries/keys by the ``_rope_tables`` table ``rot``.

    Each pair (x[2j], x[2j+1]) is the complex number x[2j] + i x[2j+1], so the
    rotation is one complex multiply (RoFormer's form of RoPE). ``x``'s last
    axis must be contiguous. ``rot.conj()`` rotates by the opposite angles,
    which is the transpose of the rotation: the backward pass of RoPE.
    """
    return (x.view(np.complex128) * rot).view(np.float64)


def _transposed(x: np.ndarray) -> np.ndarray:
    """A C-contiguous (..., Dh, L) copy of (..., L, Dh) keys (or values, for the backward
    pass's ``d_w``), the right operand of a score matmul. OpenBLAS reads it about 1.5x faster than the ``swapaxes`` view: one layer's five
    QK tiles at B=1, H=4, L=381, Dh=16 took 403 us against 612 us, for a 17 us copy (2-vCPU
    Xeon, OpenBLAS at 1 thread)."""
    return np.ascontiguousarray(x.swapaxes(-1, -2))


@dataclass(frozen=True)
class _SelfExtend:
    """SelfExtend's state for one ``forward_batch`` of L-token rows: (g, w) and the
    rotation tables and masks that every layer and batch slice share.

    ``queries`` (2, 1, 1, L, Dh/2) rotates query i by w + (i - w)//g (below)
    and by i (plain). Residue class r's below and above keys turn key j by
    ``table[turns[r, 0, j]]`` and ``table[turns[r, 1, j]]``; ``table`` holds
    e^{i p theta} for every p these rotations need. ``above_mask`` and
    ``band_mask`` flag, at row t of a chunk of at most ``_SE_CHUNK_ROWS`` rows
    and column j - i_0 + min(w, L - 1) (i_0 the chunk's first query), the
    pairs with j > i + w and with |i - j| <= w.
    """

    g: int
    w: int
    queries: np.ndarray
    turns: np.ndarray
    table: np.ndarray
    above_mask: np.ndarray
    band_mask: np.ndarray


def _self_extend_tables(L: int, g: int, w: int, theta: np.ndarray) -> _SelfExtend:
    """The ``_SelfExtend`` of L-token rows, from one table of e^{i p theta}.

    Query i = g*I + r of residue class r scores key j < i - w at relative
    position w + (i - j - w)//g = below_i - (j + o_b)//g, with
    o_b = g - 1 - (r - w) mod g. Its score at j > i + w,
    -(w + (j - i - w)//g) = below_i + D_r - (j + s)//g with s = (-r - w) mod g,
    differs from below_i by D_r = ceil((r + w)/g) - floor((r - w)/g) - 2w for the
    whole class, so it too is a dot with the below query: against key j turned
    by (j + o_a)//g, o_a = s - g*D_r. ``turns`` holds each class's two
    (j + o)//g as rows of ``table``.
    """
    i, r = np.arange(L), np.arange(min(g, L))
    wc = min(w, L - 1)  # at w >= L - 1 every pair is in the band and no class key is read
    o_b = g - 1 - (r - wc) % g
    o_a = (-r - wc) % g - g * ((r + wc + g - 1) // g - (r - wc) // g - 2 * wc)
    turns = (i + np.stack([o_b, o_a], axis=1)[..., None]) // g  # (classes, 2, L)
    p0 = min(0, int(turns.min()))
    p1 = max(L - 1, int(turns.max()))
    table = _rope_tables(np.arange(p0, p1 + 1.0)[None], theta)[0, 0]
    queries = table[np.stack([wc + (i - wc) // g, i]) - p0][:, None, None]
    rows = min(-(-L // g), _SE_CHUNK_ROWS)
    width = wc + min(g * (rows - 1) + w, L - 1) + 1
    x = np.arange(-wc, width - wc) - g * np.arange(rows)[:, None]  # j - i per chunk cell
    return _SelfExtend(g, w, queries, turns - p0, table, x > w, np.abs(x) <= w)


def _relative_scores(q: np.ndarray, k: np.ndarray, se: _SelfExtend):
    """SelfExtend score source ``fill(rows, out)``: the logits of query rows ``rows``.

    Logit (i, j) is q_i rotated by se_remap_deltas(i - j, g, w), dotted with
    k_j: the plain RoPE score i - j in the band |i - j| <= w, and outside it the
    below-rotated q_i dotted with key j turned by one of residue class r's two
    key rotations (``_self_extend_tables``): "below" for j < i - w, "above"
    for j > i + w. ``rows`` is a residue-major tile ``i_0:i_1:g`` (see
    ``_row_tiles``), so its rows share r. It is scored in chunks of at most
    ``_SE_CHUNK_ROWS`` rows, which keeps each chunk's near region
    [i_first - w, i_last + w], about g*rows + 2w keys, a small share of L. Per
    chunk, one matmul scores the keys left of i_last - w against the class's
    below-turned keys and one the rest against its above-turned keys, which is
    exact outside the near region. Then the band's plain RoPE scores and the
    above scores of the first rows' keys left of i_last - w are merged in under
    the masks of ``se``, each through one matmul over its columns only.

    Every key operand is a ``_transposed`` (B, H, Dh, L) block: the plain keys
    made once per call, a class's two turned key sets once each time ``fill``
    meets a tile of another class. Tiles may come in any order; ``_attention``
    takes them in ``_row_tiles`` order, so each class is turned once.
    """
    B, H, L, Dh = q.shape
    g, w = se.g, se.w
    q_below, q_plain = _rotate_batch(q, se.queries)
    k_plain = _transposed(_rotate_batch(k, se.queries[1]))
    cap, off = se.band_mask.shape[0], min(w, L - 1)
    buf = np.empty((B, H, cap, min(L, g * (cap - 1) + 2 * w + 1)))

    @functools.lru_cache(maxsize=1)  # one class's keys at a time
    def class_keys(r):  # class r's below- and above-turned keys
        return [_transposed(_rotate_batch(k, se.table[t])) for t in se.turns[r]]

    def fill(tile, out):
        n = len(range(L)[tile])
        chunk = -(-n // -(-n // cap))
        for t0 in range(0, n, chunk):  # chunks of equal size, at most _SE_CHUNK_ROWS rows
            m, lo = min(chunk, n - t0), tile.start + g * t0
            hi = lo + g * (m - 1)
            rows, o = slice(lo, hi + 1, g), out[..., t0:t0 + m, :]
            if hi <= w and lo + w >= L - 1:  # every key in the band
                np.matmul(q_plain[:, :, rows], k_plain, out=o)
                continue
            below, above = class_keys(lo % g)
            s, a0 = max(0, hi - w), lo + w + 1  # no j < i - w right of s, no j > i + w left of a0
            q_rows = q_below[:, :, rows]
            np.matmul(q_rows, below[..., :s], out=o[..., :s])
            np.matmul(q_rows, above[..., s:], out=o[..., s:])
            fixed = min(m, -(-(s - a0) // g))  # rows with keys j > i + w left of s
            if fixed > 0:
                fix = buf[:, :, :fixed, :s - a0]
                np.matmul(q_rows[:, :, :fixed], above[..., a0:s], out=fix)
                np.copyto(o[..., :fixed, a0:s], fix,
                          where=se.above_mask[:fixed, a0 - lo + off:s - lo + off])
            c0, c1 = max(0, lo - w), min(L, hi + w + 1)
            band = buf[:, :, :m, :c1 - c0]
            np.matmul(q_plain[:, :, rows], k_plain[..., c0:c1], out=band)
            np.copyto(o[..., c0:c1], band, where=se.band_mask[:m, c0 - lo + off:c1 - lo + off])

    return fill


# Score-tile budget in cells: 1 MiB of float64, which stays in L2 while a tile
# goes through exp and the context matmul. On a Xeon with 2 MiB of L2 a core,
# one layer's attention at B=16, H=4, L=384 took a median 45.3 ms of CPU with
# this budget, 45.9 ms with 1 << 16 and 47.1 ms with 1 << 18 (30 runs each,
# OpenBLAS at 1 thread).
_SCORE_TILE = 1 << 17

# Row cap of a SelfExtend score chunk (``_relative_scores``). A chunk's near
# region, scored twice more through the masked band and above merges, spans
# g*(rows - 1) + 2w + 1 keys, while each chunk pays for four matmuls and two
# copies. On a Xeon with 2 MiB of L2 a core, one layer's SelfExtend attention
# on the eval_se benchmark's shapes (g=5, w=16, H=4: B=1 at L=381, B=2 at
# L=191) took a median 5.77 / 3.96 ms with 16 rows, 5.72 / 3.92 ms with 24,
# 5.76 / 3.95 ms with 32, 5.85 / 4.24 ms with 40 and 5.92 / 4.17 ms with 64
# (200 runs each, the caps interleaved in one process, OpenBLAS at 1 thread).
_SE_CHUNK_ROWS = 32

# Largest |q_i| |k_j| bound on a batch slice's logits at which ``_attention``
# exponentiates them without subtracting the row max: e^300 ~ 2e130, so a
# row of any length sums far inside float64 (exp overflows past 709), and
# e^-300 ~ 5e-131 stays a normal number.
_EXP_BOUND = 300.0

# Padded-row budget of one ``padded_batches`` batch (sequences x longest one), the
# activation-side twin of _SCORE_TILE: at d=64 a batch's (rows, d) arrays take
# 256 KiB each and stay in L2. On a Xeon with 2 MiB of L2 a core, encoding the
# benchmark's eval_sweep inputs (pi, ntk, pcw over 128-512 tokens) took a
# median 1.88 s of CPU with 256 rows, 1.58 s with 512, 1.68 s with 1024 and
# 1.97 s with 2048; peak RSS of that workload read 69.9, 69.9, 72.2 and
# 78.8 MB (102.8 MB with batches cut by a count of 16 spans alone). Training
# uses it too: on the train_tune inputs a step runs 4.4 groups of <= 504 rows
# at padding efficiency 0.881 (power-of-two length buckets: 4.9 of <= 1,440 at
# 0.985), and peak RSS fell from 131.3 to 125.0 MB at equal throughput (median
# 24.0k vs 24.1k tokens/s over 10 alternating runs, OpenBLAS at 1 thread).
_BATCH_ROWS = 512


def _row_tiles(L: int, g: int, rows: int):
    """Query-row tiles ``start:stop:g`` of at most ``rows`` rows, one residue i mod g each."""
    for r in range(min(g, L)):
        for r0 in range(r, L, g * rows):
            yield slice(r0, min(L, r0 + g * rows), g)


def _attention(q, k, v, mask, *, self_extend=None, keep=False):
    """Softmax attention context (B, H, L, Dh), one score tile at a time.

    ``q`` already carries the per-sequence logit scale. Tiles hold the query
    rows of one residue class i mod g (``_row_tiles``; g = 1 unless
    ``self_extend``, the forward pass's ``_SelfExtend``, sets it): a batch
    slice of whole classes while H*ceil(L/g)*L fits ``_SCORE_TILE`` cells,
    else up to that many cells of one sequence's class. A tile always spans
    every key, so each softmax row is exact. Its scores are ``q @ k^T``
    against one ``_transposed`` (B, H, Dh, L) key block made per call and
    sliced per batch slice, or the SelfExtend logits of ``_relative_scores``,
    which scores a tile in chunks of at most ``_SE_CHUNK_ROWS`` rows against
    rotation tables built once per forward pass. -inf on padded keys is added
    only to tiles whose sequences have any. Then each score cell takes one
    pass, its ``exp``:

    - Rotations keep norms, so every plain, rotary or SelfExtend logit obeys
      |logit_ij| <= |q_i| |k_j|. A batch slice whose sequences all bound
      their logits by ``_EXP_BOUND`` this way exponentiates them as they
      are; any other slice, and any one-key row (whose weight must come out
      exactly 1), subtracts the row max first.
    - ``v`` carries a ones column, so one ``@ v`` matmul returns each row's
      context and its softmax row sum; the contexts of all tiles are divided
      by their sums at the end (Dh divisions a row instead of L).

    With ``keep`` the normalized weights (B, H, L, L) that the backward pass
    reads are returned too; otherwise one tile buffer is reused and None is
    returned in their place.
    """
    B, H, L, Dh = v.shape
    g = 1 if self_extend is None else self_extend.g
    per_class = -(-L // g)  # rows of the largest residue class
    scores = np.empty((B, H, L, L)) if keep else None
    seqs = max(1, _SCORE_TILE // (H * per_class * L))
    rows = min(per_class, max(1, _SCORE_TILE // (H * L)))
    buf = None if keep else np.empty(seqs * H * rows * L)
    key_bias = np.where(mask, 0.0, -np.inf)[:, None, None, :]
    padded = ~mask.all(axis=1)
    q2, k2 = (np.einsum("bhld,bhld->bhl", x, x).max(axis=(1, 2)) for x in (q, k))
    bounded = np.sqrt(q2 * k2) <= _EXP_BOUND  # per sequence; False on NaN or inf
    v1 = np.empty((B, H, L, Dh + 1))
    v1[..., :Dh], v1[..., Dh] = v, 1.0
    ctx = np.empty(v1.shape)  # each row's context, then its row sum
    kt = _transposed(k) if self_extend is None else None
    for b0 in range(0, B, seqs):
        b1 = min(B, b0 + seqs)
        bias = key_bias[b0:b1] if padded[b0:b1].any() else None
        shift = L == 1 or not bounded[b0:b1].all()
        if self_extend is None:
            qb, kb = q[b0:b1], kt[b0:b1]
            fill = lambda tile, out: np.matmul(qb[:, :, tile], kb, out=out)  # noqa: E731
        else:
            fill = _relative_scores(q[b0:b1], k[b0:b1], self_extend)
        for tile in _row_tiles(L, g, rows):
            n = len(range(L)[tile])
            s = scores[b0:b1, :, tile] if keep else (
                buf[:(b1 - b0) * H * n * L].reshape(b1 - b0, H, n, L))
            fill(tile, s)
            if bias is not None:
                s += bias
            if shift:
                s -= s.max(-1, keepdims=True)
            np.exp(s, out=s)
            tile_ctx = ctx[b0:b1, :, tile]
            np.matmul(s, v1[b0:b1], out=tile_ctx)
            if keep:
                s /= tile_ctx[..., Dh:]
    return ctx[..., :Dh] / ctx[..., Dh:], scores


# ---------------------------------------------------------------------------
# layer pieces


def _layer_norm(x, g, b):
    # Row mean as a matmul and variance as an einsum row dot: both skip the
    # reduction machinery of .mean() and the (xc * xc) temporary.
    d = x.shape[-1]
    xc = x - x @ np.full((d, 1), 1.0 / d)
    var = np.einsum("...i,...i->...", xc, xc)[..., None]
    var /= d
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv)

def _layer_norm_backward(dy, ctx, g):
    xhat, inv = ctx
    axes = tuple(range(dy.ndim - 1))
    dg = (dy * xhat).sum(axis=axes)
    db = dy.sum(axis=axes)
    dxh = dy * g
    dx = inv * (dxh - dxh.mean(-1, keepdims=True) - xhat * (dxh * xhat).mean(-1, keepdims=True))
    return dx, dg, db


def _gelu(x):
    t = np.multiply(x, x)
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5
    return out, t

def _gelu_backward(dy, x, t):
    du = np.multiply(x, x)
    du *= 3.0 * _GELU_A
    du += 1.0
    du *= _GELU_C
    dx = np.multiply(t, t)
    np.subtract(1.0, dx, out=dx)
    dx *= du
    dx *= x
    dx += 1.0
    dx += t
    dx *= 0.5
    dx *= dy
    return dx


def _split_heads(x, n_heads):
    B, L, D = x.shape
    return x.reshape(B, L, n_heads, D // n_heads).transpose(0, 2, 1, 3)

def _merge_heads(x):
    B, H, L, Dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, L, H * Dh)


# ---------------------------------------------------------------------------
# forward / backward over a padded batch


def _token_ids(ids) -> np.ndarray:
    """``ids`` as int64; ConfigurationError unless each is a whole number, which a cast
    alone would not check (it truncates 1.7 to 1 and fails on strings)."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iuf" or not (np.isfinite(ids) & (ids == np.trunc(ids))).all():
        raise ConfigurationError(f"token ids must be whole numbers, got {ids.ravel()[:4]}")
    return ids.astype(np.int64, copy=False)


def padded_batches(seqs: list[np.ndarray], positions: list[np.ndarray] | None = None):
    """Yield ``(rows, tokens, mask, pos)``: token sequences of mixed length in padded batches.

    Sequences are stably sorted by length, and a batch takes the next one while
    its count x longest (its padded rows) stays within ``_BATCH_ROWS``; a longer
    one runs alone. ``rows`` indexes the batch's sequences in ``seqs``, and the
    (len(rows), longest) arrays are right-padded with token 0, False and
    position 0. ``pos`` (float64, cast by ``forward_batch``) is None when
    ``positions`` is.
    """
    batches: list[list[int]] = []
    for j in sorted(range(len(seqs)), key=lambda j: seqs[j].size):
        if not batches or (len(batches[-1]) + 1) * seqs[j].size > _BATCH_ROWS:
            batches.append([])
        batches[-1].append(j)
    for rows in batches:
        shape = (len(rows), seqs[rows[-1]].size)
        tokens, mask = np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=bool)
        pos = None if positions is None else np.zeros(shape)
        for i, j in enumerate(rows):
            n = seqs[j].size
            tokens[i, :n], mask[i, :n] = seqs[j], True
            if pos is not None:
                pos[i, :n] = positions[j]
        yield rows, tokens, mask, pos


def forward_batch(
    model: Model,
    token_ids: np.ndarray,
    mask: np.ndarray,
    *,
    positions: np.ndarray | None = None,
    self_extend: tuple[int, int] | None = None,
    attn_scale: np.ndarray | None = None,
    want_cache: bool = False,
):
    """Hidden states (B, L, d) for a padded batch.

    ``positions`` are ``padded_batches``': table rows in absolute mode (whole
    numbers, cast to int64), phases in rotary mode (cast to float64), where
    SelfExtend's ``self_extend=(g, w)`` may replace them: every query/key pair (i, j) is
    then scored at relative position ``se_remap_deltas(i - j, g, w)``.
    ``attn_scale`` multiplies pre-softmax logits per sequence. ``mask`` and
    ``positions`` must have the tokens' shape (B, L) and ``attn_scale`` the
    shape (B,); any other shape raises DimensionError. Token ids that are not
    whole numbers in the vocabulary, a (g, w) other than integers g >= 1 and
    w >= 0, and a non-finite scale raise ConfigurationError, and a
    non-finite, fractional (absolute mode) or out-of-table position
    PositionError.
    Every weight, the position table and the RoPE base included, comes from ``model``.
    Padded key positions are masked out of attention; padded rows still carry
    (ignored) values.
    ``want_cache`` is rejected with ``self_extend``: there is no SelfExtend
    backward pass.

    Attention runs through ``_attention`` one score tile of about
    ``_SCORE_TILE`` cells at a time, so inference holds one tile, never the
    (B, H, L, L) scores; with ``want_cache`` the tiles are written into the
    full softmax weights that ``backward_batch`` needs.
    """
    cfg = model.config
    token_ids = _token_ids(token_ids)
    if token_ids.ndim != 2:
        raise DimensionError(f"token batch must be 2-D, got shape {token_ids.shape}")
    B, L = token_ids.shape
    mask = np.asarray(mask, dtype=bool)
    attn_scale = np.ones(B) if attn_scale is None else np.asarray(attn_scale, dtype=np.float64)
    for name, array, shape in (("mask", mask, (B, L)), ("positions", positions, (B, L)),
                               ("attn_scale", attn_scale, (B,))):
        if array is not None and np.shape(array) != shape:
            raise DimensionError(f"{name} must have shape {shape} for a {B}x{L} token batch, "
                                 f"got {np.shape(array)}")
    if not mask.any(axis=1).all():
        raise EmptyInputError("each sequence needs at least one active token")
    if np.min(token_ids) < 0 or np.max(token_ids) >= cfg.vocab_size:
        raise ConfigurationError("token ids outside the vocabulary")
    if self_extend is not None:
        if np.shape(self_extend) != (2,):
            raise ConfigurationError(f"self_extend must be a pair (g, w), got {self_extend!r}")
        check_types(dict(zip("gw", self_extend)), {"g": "int", "w": "int"})
        if self_extend[0] < 1 or self_extend[1] < 0:
            raise ConfigurationError("SelfExtend needs group size g >= 1 and window w >= 0, "
                                     f"got (g, w) = {tuple(self_extend)}")
    if self_extend is not None and want_cache:
        raise ConfigurationError("SelfExtend has no backward pass; it cannot record a cache")
    if not np.isfinite(attn_scale).all():
        raise ConfigurationError(f"attn_scale must be finite, got {attn_scale}")
    if positions is not None and not np.isfinite(positions).all():
        raise PositionError("positions must be finite")

    h = model.params["tok_emb"][token_ids]
    rot = se = None
    if cfg.position_mode == ABSOLUTE:
        if positions is None or self_extend is not None:
            raise ConfigurationError("absolute-mode forward takes positions, not SelfExtend")
        table = model.params["pos_table"]
        active = np.asarray(positions)[mask]
        fractional = active[active % 1 != 0]
        if fractional.size:
            raise PositionError(f"position id {fractional[0]} is not a whole number")
        outside = active[(active < 0) | (active >= table.shape[0])]
        if outside.size:
            raise PositionError(
                f"position id {int(outside[0])} outside table of length {table.shape[0]}"
            )
        positions = np.asarray(positions, dtype=np.int64)
        h = h + table[positions]
    else:
        theta = standard_frequencies(cfg.head_dim, base=cfg.rope_base)
        if self_extend is not None:
            se = _self_extend_tables(L, *self_extend, theta)
        elif positions is None:
            raise ConfigurationError("rotary-mode forward needs positions or SelfExtend's (g, w)")
        else:
            rot = _rope_tables(np.asarray(positions, dtype=np.float64), theta)

    inv_sqrt = 1.0 / math.sqrt(cfg.head_dim)
    scale_b = (attn_scale * inv_sqrt)[:, None, None, None]
    p = model.params

    # Each half-block returns its new h and, with want_cache, the activations
    # backward_batch reads; at inference its locals die on return, so only h
    # lives between half-blocks.
    def attention_half(pre, h):
        a, ln1 = _layer_norm(h, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
        q = _split_heads(a @ p[f"{pre}.attn.wq"] + p[f"{pre}.attn.bq"], cfg.n_heads)
        k = _split_heads(a @ p[f"{pre}.attn.wk"] + p[f"{pre}.attn.bk"], cfg.n_heads)
        v = _split_heads(a @ p[f"{pre}.attn.wv"] + p[f"{pre}.attn.bv"], cfg.n_heads)
        qr, kr = (q, k) if rot is None else (_rotate_batch(q, rot), _rotate_batch(k, rot))
        ctx, w = _attention(qr * scale_b, kr, v, mask, self_extend=se, keep=want_cache)
        merged = _merge_heads(ctx)
        h = h + merged @ p[f"{pre}.attn.wo"] + p[f"{pre}.attn.bo"]
        if not want_cache:
            return h, None
        return h, {"a": a, "ln1": ln1, "v": v, "qr": qr, "kr": kr, "w": w, "merged": merged}

    def ffn_half(pre, h):
        a2, ln2 = _layer_norm(h, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
        f = a2 @ p[f"{pre}.ffn.w1"] + p[f"{pre}.ffn.b1"]
        gact, tanh_u = _gelu(f)
        h = h + gact @ p[f"{pre}.ffn.w2"] + p[f"{pre}.ffn.b2"]
        if not want_cache:
            return h, None
        return h, {"a2": a2, "ln2": ln2, "f": f, "tanh_u": tanh_u, "gact": gact}

    layers_cache = []
    for i in range(cfg.n_layers):
        h, attn_cache = attention_half(f"layers.{i}", h)
        h, ffn_cache = ffn_half(f"layers.{i}", h)
        if want_cache:
            layers_cache.append({**attn_cache, **ffn_cache})

    out, final_ln = _layer_norm(h, model.params["final_ln.g"], model.params["final_ln.b"])
    if not want_cache:
        return out
    cache = {
        "token_ids": token_ids, "positions": positions, "rot": rot,
        "layers": layers_cache, "final_ln": final_ln, "scale_b": scale_b,
    }
    return out, cache


def backward_batch(
    model: Model,
    cache: dict,
    d_out: np.ndarray,
    *,
    grads: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Analytic gradients of a scalar loss w.r.t. what learns on ``model``.

    An unextended model learns every tensor. An extended one learns only the
    ``pos_table`` rows its ``extension.frozen`` flags leave free, so it gets
    ``pos_table``'s gradient alone, with the frozen rows exactly 0 (the
    backward chain itself always runs in full). ``d_out`` is the loss
    gradient at the final hidden states. Token and position gradients are
    scatter-added over the ids that produced them. The gradients are added
    into ``grads`` when given, a set an earlier call on the same model
    returned, so several batches can share one; otherwise into fresh zeros.
    Only per-token positions are supported: ``forward_batch`` records no
    cache for SelfExtend, which has no backward pass.
    """
    cfg = model.config
    p = model.params
    ext = model.extension
    if grads is None:
        grads = {name: np.zeros_like(arr) for name, arr in p.items()
                 if ext is None or name == "pos_table"}

    def linear(dy, x, w, b):  # y = x @ p[w] + p[b]; returns dL/dx
        if ext is None:
            grads[w] += x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])
            grads[b] += dy.sum(axis=(0, 1))
        return dy @ p[w].T

    def norm(dy, ln, prefix):  # layer norm with gain {prefix}.g and bias {prefix}.b
        dx, dg, db = _layer_norm_backward(dy, ln, p[f"{prefix}.g"])
        if ext is None:
            grads[f"{prefix}.g"] += dg
            grads[f"{prefix}.b"] += db
        return dx

    rot = cache["rot"]
    unrotate = None if rot is None else rot.conj()
    scale_b = cache["scale_b"]
    dh = norm(d_out, cache["final_ln"], "final_ln")
    for i in reversed(range(cfg.n_layers)):
        pre = f"layers.{i}"
        c = cache["layers"][i]

        d_gact = linear(dh, c["gact"], f"{pre}.ffn.w2", f"{pre}.ffn.b2")
        d_f = _gelu_backward(d_gact, c["f"], c["tanh_u"])
        d_a2 = linear(d_f, c["a2"], f"{pre}.ffn.w1", f"{pre}.ffn.b1")
        dh = dh + norm(d_a2, c["ln2"], f"{pre}.ln2")  # residual + layer-norm path into h_mid

        d_merged = linear(dh, c["merged"], f"{pre}.attn.wo", f"{pre}.attn.bo")
        d_ctx = _split_heads(d_merged, cfg.n_heads)
        w = c["w"]
        d_w = np.matmul(d_ctx, _transposed(c["v"]))
        d_v = w.swapaxes(-1, -2) @ d_ctx
        d_w -= (d_w * w).sum(-1, keepdims=True)
        d_w *= w
        d_w *= scale_b
        d_q = d_w @ c["kr"]
        d_k = d_w.swapaxes(-1, -2) @ c["qr"]
        if unrotate is not None:
            d_q, d_k = _rotate_batch(d_q, unrotate), _rotate_batch(d_k, unrotate)
        d_q = linear(_merge_heads(d_q), c["a"], f"{pre}.attn.wq", f"{pre}.attn.bq")
        d_k = linear(_merge_heads(d_k), c["a"], f"{pre}.attn.wk", f"{pre}.attn.bk")
        d_v = linear(_merge_heads(d_v), c["a"], f"{pre}.attn.wv", f"{pre}.attn.bv")
        dh = dh + norm(d_q + d_k + d_v, c["ln1"], f"{pre}.ln1")

    if ext is None:
        np.add.at(grads["tok_emb"], cache["token_ids"], dh)
    if cfg.position_mode == ABSOLUTE:
        np.add.at(grads["pos_table"], cache["positions"], dh)
    if ext is not None:
        grads["pos_table"][ext.frozen] = 0.0
    return grads


# ---------------------------------------------------------------------------
# pooling


def _mean_and_norm(hidden: np.ndarray, mask: np.ndarray):
    """Masked means (..., d) of (..., L, d) ``hidden`` and their L2 norms (...), bit for bit
    those of one row's ``hidden[mask].mean(axis=0)`` and ``np.linalg.norm``."""
    v = np.where(mask[..., None], hidden, 0.0).sum(axis=-2) / mask.sum(axis=-1)[..., None]
    return v, np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0, 0]


def pool_and_normalize(hidden: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Unit-norm embeddings (..., d) of a padded batch: each sequence's mean over the rows
    of (..., L, d) ``hidden`` that the (..., L) ``mask`` flags (all when None), L2-normalized.
    A mask of another shape raises DimensionError, a sequence with no active row
    EmptyInputError, and a mean of zero or non-finite norm NumericError."""
    hidden = np.asarray(hidden, dtype=np.float64)
    if hidden.ndim < 2:
        raise DimensionError(f"hidden states must be at least 2-D, got shape {hidden.shape}")
    mask = np.ones(hidden.shape[:-1], bool) if mask is None else np.asarray(mask, dtype=bool)
    if mask.shape != hidden.shape[:-1]:
        raise DimensionError(f"mask must have shape {hidden.shape[:-1]} for hidden states of "
                             f"shape {hidden.shape}, got {mask.shape}")
    if not mask.any(axis=-1).all():
        raise EmptyInputError("cannot pool an empty sequence")
    v, norm = _mean_and_norm(hidden, mask)
    if not (np.isfinite(norm) & (norm != 0.0)).all():
        raise NumericError("pooled vector cannot be normalized")
    return v / norm[..., None]


def pool_and_normalize_backward(hidden, mask, d_emb):
    """Gradient (..., L, d) of pool_and_normalize back to a padded batch's hidden rows, from
    the gradients ``d_emb`` (..., d) at its embeddings; masked-out rows get zeros."""
    v, norm = _mean_and_norm(hidden, mask)
    e = v / norm[..., None]
    dot = (e[..., None, :] @ d_emb[..., :, None])[..., 0]
    d_v = (d_emb - e * dot) / norm[..., None]
    d_v /= mask.sum(axis=-1)[..., None]
    return np.where(mask[..., None], d_v[..., None, :], 0.0)


# ---------------------------------------------------------------------------
# strategy dispatch


def _check_extension_compat(model: Model, spec: ResolvedExtension) -> None:
    if spec.l_orig != model.config.original_context:
        raise ConfigurationError(
            f"spec l_orig {spec.l_orig} does not match the model's original "
            f"context {model.config.original_context}"
        )
    if spec.strategy in (Strategy.TUNED_PI, Strategy.TUNED_RP):
        # tuned_pi reads short inputs off the anchors i * spec.scale, so the scales must agree
        e, pi = model.extension, spec.strategy is Strategy.TUNED_PI
        mode, at_scale = (PI_ANCHORED, f" at scale {spec.scale}") if pi else (RP_SUFFIX, "")
        if (e is None or e.mode != mode or e.l_target < spec.l_target
                or (pi and e.scale != spec.scale)):
            raise ConfigurationError(f"strategy {spec.strategy.value} to {spec.l_target} needs "
                                     f"a {mode} extension of l_orig {spec.l_orig} that long"
                                     f"{at_scale}, got {e}")
    elif model.extension is not None:
        raise ConfigurationError(
            "model carries an extended position table; evaluate it with "
            "tuned_pi/tuned_rp or use the base checkpoint"
        )


def encode_many(
    model: Model,
    sequences: list[np.ndarray],
    spec: ExtensionSpec,
    *,
    attn_scaling: bool = True,
) -> np.ndarray:
    """Embeddings (N, d) for a list of token sequences under one strategy.

    Each sequence is one span, or under PCW its ``plan_chunks`` chunks at
    their original positions. ``padded_batches`` cuts all spans into batches
    of at most ``_BATCH_ROWS`` padded rows, which one ``pool_and_normalize``
    call pools. A sequence gets the renormalized mean of its span embeddings
    (one span is returned as is), in input order. An embedding does not
    depend on its batch neighbours (padding is masked out), so the batching
    only changes float rounding. Raises LengthError as soon as any sequence
    exceeds the target window. ``spec`` may be a ``ResolvedExtension`` for
    the model's mode, which is used as it is.
    """
    cfg = model.config
    resolved = resolve_extension(spec, cfg.position_mode)
    _check_extension_compat(model, resolved)
    seqs = [_token_ids(s) for s in sequences]
    for s in seqs:
        if s.ndim != 1:
            raise DimensionError(f"token sequences must be 1-D, got shape {s.shape}")
        check_input_length(s.size, spec.l_target)
    if not seqs:
        return np.zeros((0, cfg.hidden_size))

    plans = [[(0, s.size)] for s in seqs]
    if resolved.strategy is Strategy.PCW:
        resolved = resolve_extension(ExtensionSpec.none(spec.l_orig), cfg.position_mode)
        plans = [plan_chunks(s.size, spec.l_orig) for s in seqs]
    spans = [s[a:b] for s, plan in zip(seqs, plans) for a, b in plan]

    # NTK is the same RoPE model with an inflated base; plug-and-play PI the
    # same absolute model with an interpolated table.
    if resolved.strategy is Strategy.NTK:
        model = Model(replace(cfg, rope_base=resolved.rope_base(cfg.rope_base)), model.params)
    elif resolved.strategy is Strategy.PI and cfg.position_mode == ABSOLUTE and spec.scale > 1:
        view = PosExtension(PI_ANCHORED, spec.l_orig, spec.l_target)
        model = Model(cfg, {**model.params, "pos_table": view.table(model.params["pos_table"])},
                      view)
    se = resolved.strategy is Strategy.SE
    self_extend = (resolved.group_size, resolved.window) if se else None
    positions = None if se else [assign_positions(resolved, s.size) for s in spans]
    scales = np.array([attention_scale(s.size, spec.l_orig) if attn_scaling else 1.0
                       for s in spans])

    span_embs = np.empty((len(spans), cfg.hidden_size))
    for rows, tokens, mask, pos in padded_batches(spans, positions):
        hidden = forward_batch(model, tokens, mask, positions=pos, self_extend=self_extend,
                               attn_scale=scales[rows])
        span_embs[rows] = pool_and_normalize(hidden, mask)

    groups = np.split(span_embs, np.cumsum([len(plan) for plan in plans])[:-1])
    return np.stack([g[0] if len(g) == 1 else pool_and_normalize(g) for g in groups])


def encode(
    model: Model,
    token_ids: np.ndarray,
    spec: ExtensionSpec,
    *,
    attn_scaling: bool = True,
) -> np.ndarray:
    """Embedding for a single token sequence under ``spec``."""
    return encode_many(model, [token_ids], spec, attn_scaling=attn_scaling)[0]
