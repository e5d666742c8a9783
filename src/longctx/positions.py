"""Context-window extension strategies that reorganize or interpolate positions.

Grouped/recurrent position reuse, linear interpolation of learned position
tables, NTK frequency rescaling, SelfExtend relative-position remapping, and
the inference-time attention-logit scaling applied alongside them. Every
function here is pure; ``assign_positions`` is the one per-token position
rule that encoding, tuning and ``longctx inspect`` share, and ``plan_chunks``
the one way PCW cuts an input into original-context chunks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import ConfigurationError, DimensionError, EmptyInputError, LengthError, check_types

ROPE_BASE = 10000.0

# lambda per scaling factor, as published for the plug-and-play runs
NTK_LAMBDA_TABLE = {2: 3.0, 4: 5.0, 8: 10.0}

# (l_orig, l_target) -> (group size g, neighbor window w)
SE_PARAM_TABLE = {
    (512, 1024): (3, 256),
    (512, 2048): (5, 128),
    (512, 4096): (9, 64),
    (4096, 8192): (3, 2048),
    (4096, 16384): (5, 1024),
    (4096, 32768): (9, 512),
}


class Strategy(str, Enum):
    NONE = "none"
    PCW = "pcw"
    GP = "gp"
    RP = "rp"
    PI = "pi"
    NTK = "ntk"
    SE = "se"
    TUNED_PI = "tuned_pi"
    TUNED_RP = "tuned_rp"


# which strategies apply to which position mode
ABSOLUTE_STRATEGIES = frozenset(
    {Strategy.NONE, Strategy.PCW, Strategy.GP, Strategy.RP, Strategy.PI,
     Strategy.TUNED_PI, Strategy.TUNED_RP}
)
ROTARY_STRATEGIES = frozenset(
    {Strategy.NONE, Strategy.PCW, Strategy.GP, Strategy.PI, Strategy.NTK, Strategy.SE}
)


def standard_frequencies(dim: int, base: float = ROPE_BASE) -> np.ndarray:
    """RoPE's theta_j = base^(-2j/dim), j in [0, dim/2): float64, decreasing from 1."""
    if dim < 2 or dim % 2 != 0:
        raise DimensionError(f"head dimension must be positive and even, got {dim}")
    if not (math.isfinite(base) and base > 0):
        raise ConfigurationError(f"rope base must be a finite number > 0, got {base}")
    j = np.arange(dim // 2, dtype=np.float64)
    return np.power(base, -2.0 * j / dim)


def resolve_ntk_lambda(s: int) -> float:
    """Published multiplier for scaling factor s; falls back to s+1 off-table."""
    return NTK_LAMBDA_TABLE.get(s, float(s + 1))


def build_interpolated_matrix(table, s: int) -> np.ndarray:
    """Extend an (l_orig, d) position table to l_orig*s rows by linear interpolation.

    Row i*s is the original row i, copied bitwise (the anchors that
    ``encoder.PosExtension.frozen`` freezes). Rows between anchors i*s and (i+1)*s are
    the convex combination of the two anchors; rows past the last anchor
    repeat it (there is no right anchor to interpolate toward).
    """
    rows = np.asarray(table, dtype=np.float64)
    if rows.ndim != 2:
        raise DimensionError(f"position table must be 2-D, got shape {rows.shape}")
    check_types({"s": s}, {"s": "int"})
    if s < 1:
        raise ConfigurationError(f"scaling factor must be >= 1, got {s}")
    l_orig = rows.shape[0]
    l_target = l_orig * s

    idx = np.arange(l_target)
    left = idx // s
    frac = (idx % s).astype(np.float64) / s
    right = np.minimum(left + 1, l_orig - 1)
    out = (1.0 - frac)[:, None] * rows[left] + frac[:, None] * rows[right]

    anchor = idx % s == 0
    out[anchor] = rows  # exact copies, not recomputed blends
    tail = left >= l_orig - 1
    out[tail & ~anchor] = rows[l_orig - 1]
    return out


def se_remap_deltas(delta: np.ndarray, g: int, w: int) -> np.ndarray:
    """SelfExtend's remap of query-key deltas i - j, elementwise.

    Exact within the neighbor window w; outside it, the excess distance is
    floor-grouped by g so the result never leaves the trained range.
    """
    if g < 1:
        raise ConfigurationError(f"group size must be >= 1, got {g}")
    if w < 0:
        raise ConfigurationError(f"neighbor window must be >= 0, got {w}")
    delta = np.asarray(delta, dtype=np.int64)
    mag = np.abs(delta)
    grouped = w + (mag - w) // g
    return np.where(mag <= w, delta, np.sign(delta) * grouped)


def max_se_relpos(l_target: int, g: int, w: int) -> int:
    """Largest remapped |relative position| reachable in an l_target window."""
    if l_target < 1:
        raise ConfigurationError(f"l_target must be >= 1, got {l_target}")
    return int(se_remap_deltas(l_target - 1, g, w))


def resolve_se_params(l_orig: int, l_target: int) -> tuple[int, int]:
    """Published (g, w) when available, else the smallest feasible g with w = l_orig/8.

    The farthest remapped position, w + (l_target - 1 - w) // g past the
    window, stays within l_orig - 1 exactly when g > (l_target - 1 - w) / (l_orig - w);
    g must also stay below max(l_target, 2).
    """
    key = (l_orig, l_target)
    if key in SE_PARAM_TABLE:
        return SE_PARAM_TABLE[key]
    if l_orig < 1 or l_target < 1:
        raise ConfigurationError(f"l_orig and l_target must be >= 1, got {l_orig} and {l_target}")
    w = l_orig // 8
    g = max(1, (l_target - 1 - w) // (l_orig - w) + 1)
    if g >= max(l_target, 2):
        raise ConfigurationError(
            f"no feasible SelfExtend parameters for {l_orig} -> {l_target} with window {w}"
        )
    return g, w


def attention_scale(n: int, l_orig: int) -> float:
    """Length-dependent multiplier for pre-softmax attention logits.

    max(1, log n / log l_orig): identity within the trained window, growing
    logarithmically beyond it to keep attention entropy roughly stable.
    """
    if n < 1:
        raise ConfigurationError(f"sequence length must be >= 1, got {n}")
    if l_orig < 2:
        raise ConfigurationError(
            f"attention scaling needs an original context >= 2, got {l_orig}")
    return max(1.0, math.log(n) / math.log(l_orig))


@dataclass(frozen=True)
class ExtensionSpec:
    """One extension strategy plus its parameters; the switchboard for encode().

    The scaling factor is always recomputed from (l_orig, l_target), never
    trusted from input. A spec takes only the parameters its strategy runs:
    ``ntk_lambda`` under ntk, ``group_size`` and ``window`` together under se.
    Those left as None are filled in from the published table (or its
    documented fallback) by ``resolve_extension``.
    """

    strategy: Strategy
    l_orig: int
    l_target: int | None = None
    ntk_lambda: float | None = None
    group_size: int | None = None
    window: int | None = None

    def __post_init__(self):
        check_types(vars(self), {f.name: f.type for f in fields(self)})
        try:
            object.__setattr__(self, "strategy", Strategy(self.strategy))
        except ValueError:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; expected one of "
                + ", ".join(st.value for st in Strategy)
            ) from None
        for name, owner in (("ntk_lambda", Strategy.NTK), ("group_size", Strategy.SE),
                            ("window", Strategy.SE)):
            if getattr(self, name) is not None and self.strategy is not owner:
                raise ConfigurationError(f"{name} applies only to strategy {owner.value}, "
                                         f"not {self.strategy.value}")
        if (self.group_size is None) != (self.window is None):
            raise ConfigurationError("group_size and window go together: give both or neither")
        if self.l_orig < 1:
            raise ConfigurationError(f"l_orig must be >= 1, got {self.l_orig}")
        if self.l_target is None:
            object.__setattr__(self, "l_target", self.l_orig)
        if self.strategy is Strategy.NONE and self.l_target != self.l_orig:
            raise ConfigurationError("strategy 'none' cannot change the context window")
        if self.l_target < self.l_orig:
            raise ConfigurationError(
                f"l_target {self.l_target} must be >= l_orig {self.l_orig}"
            )
        lam = self.ntk_lambda
        if lam is not None and not (math.isfinite(lam) and lam > 0):
            raise ConfigurationError(f"NTK multiplier must be finite and positive, got {lam}")
        if self.group_size is not None and self.group_size < 1:
            raise ConfigurationError(f"group size must be >= 1, got {self.group_size}")
        if self.window is not None and self.window < 0:
            raise ConfigurationError(f"neighbor window must be >= 0, got {self.window}")

    @property
    def scale(self) -> int:
        return math.ceil(self.l_target / self.l_orig)

    @classmethod
    def none(cls, l_orig: int) -> "ExtensionSpec":
        return cls(strategy=Strategy.NONE, l_orig=l_orig)


@dataclass(frozen=True, kw_only=True)
class ResolvedExtension(ExtensionSpec):
    """An ExtensionSpec for position ``mode`` with every parameter its strategy runs filled in.

    ``resolve_extension`` makes one; it is accepted wherever a spec is, and
    used as it is for its own mode. So it is checked where it is made: its
    strategy must apply to ``mode``, ntk needs its lambda and se its (g, w),
    whose farthest remapped position must stay within l_orig - 1.
    """

    mode: str
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        allowed = ABSOLUTE_STRATEGIES if self.mode == "absolute" else ROTARY_STRATEGIES
        if self.strategy not in allowed:
            raise ConfigurationError(
                f"strategy {self.strategy.value} does not apply to {self.mode}-mode models")
        if (self.strategy is Strategy.NTK and self.ntk_lambda is None
                or self.strategy is Strategy.SE and self.group_size is None):
            raise ConfigurationError(f"a resolved {self.strategy.value} extension needs its "
                                     "parameters filled in")
        if self.strategy is Strategy.SE:
            farthest = max_se_relpos(self.l_target, self.group_size, self.window)
            if farthest > self.l_orig - 1:  # every remapped position must stay within l_orig - 1
                raise ConfigurationError(
                    f"SelfExtend (g={self.group_size}, w={self.window}) infeasible for "
                    f"{self.l_orig} -> {self.l_target}: max remapped relative position "
                    f"{farthest} exceeds {self.l_orig - 1}"
                )

    def describe(self) -> dict:
        """The strategy and what it runs with, as a report's ``spec`` and ``inspect`` show it."""
        return {
            "strategy": self.strategy.value,
            "l_orig": self.l_orig,
            "l_target": self.l_target,
            "scale": self.scale,
            "ntk_lambda": self.ntk_lambda,
            "group_size": self.group_size,
            "window": self.window,
        }

    def rope_base(self, base: float) -> float:
        """The rotary base this strategy encodes with: base * lambda under ntk, else base.

        Inflating the base compresses low frequencies (large j) more than high
        ones, spreading the interpolation pressure across dimensions.
        """
        return base * self.ntk_lambda if self.strategy is Strategy.NTK else base


def resolve_extension(spec: ExtensionSpec, position_mode: str) -> ResolvedExtension:
    """Fill in a spec's strategy parameters for a position mode, failing fast as
    ``ResolvedExtension`` checks itself. A resolution for ``position_mode`` is
    returned as it is; one for the other mode is resolved afresh as a spec.
    """
    if isinstance(spec, ResolvedExtension) and spec.mode == position_mode:
        return spec
    s = spec.scale
    notes: list[str] = []
    ntk_lambda, group_size, window = spec.ntk_lambda, spec.group_size, spec.window
    if spec.strategy is Strategy.NTK and ntk_lambda is None:
        ntk_lambda = resolve_ntk_lambda(s)
        source = "table" if s in NTK_LAMBDA_TABLE else "fallback s+1"
        notes.append(f"ntk lambda {ntk_lambda:g} resolved via {source}")
    if spec.strategy is Strategy.SE and group_size is None:
        group_size, window = resolve_se_params(spec.l_orig, spec.l_target)
        source = "table" if (spec.l_orig, spec.l_target) in SE_PARAM_TABLE else "fallback w=l_orig/8"
        notes.append(f"se params (g={group_size}, w={window}) resolved via {source}")
    resolved = ResolvedExtension(spec.strategy, spec.l_orig, spec.l_target, ntk_lambda,
                                 group_size, window, mode=position_mode, notes=tuple(notes))
    if resolved.strategy is Strategy.NTK and ntk_lambda <= s:
        warnings.warn(
            f"NTK multiplier {ntk_lambda:g} should be slightly greater than "
            f"the scaling factor {s}",
            stacklevel=2,
        )
    return resolved


def check_input_length(n: int, l_target: int) -> None:
    """Reject an input length outside [1, l_target]."""
    if n < 1:
        raise EmptyInputError(f"input length must be >= 1, got {n}")
    if n > l_target:
        raise LengthError(f"sequence of {n} tokens exceeds the target window {l_target}")


def plan_chunks(input_len: int, l_orig: int) -> list[tuple[int, int]]:
    """PCW's (start, end) token ranges covering an input; every chunk is full-length.

    ceil(input_len / l_orig) chunks; all but the last start at multiples of
    l_orig, the last is the final l_orig tokens (so it may overlap its
    predecessor). An input within l_orig is one chunk.
    """
    check_types({"input_len": input_len, "l_orig": l_orig}, {"input_len": "int", "l_orig": "int"})
    if input_len < 1:
        raise EmptyInputError("cannot chunk an empty input")
    if l_orig < 1:
        raise ConfigurationError(f"l_orig must be >= 1, got {l_orig}")
    if input_len <= l_orig:
        return [(0, input_len)]
    n_chunks = -(-input_len // l_orig)
    plan = [(i * l_orig, (i + 1) * l_orig) for i in range(n_chunks - 1)]
    plan.append((input_len - l_orig, input_len))
    return plan


def assign_positions(resolved: ResolvedExtension, n: int) -> np.ndarray:
    """Positions of the n tokens of one input under a resolved strategy, for its mode.

    Absolute mode returns int64 rows into the strategy's position table (the
    interpolated table for pi, the extended one for tuned_pi/tuned_rp); rotary
    mode returns float64 phases. Grouping gives idx // s and recurrence
    idx mod l_orig. Interpolation keeps inputs within l_orig on their original
    positions (anchor rows idx * s, phases idx) and compresses longer ones
    (dense rows idx, phases idx / s). pcw and se assign no per-token positions:
    pcw encodes chunks at the original ones, se remaps i - j inside attention.
    """
    check_input_length(n, resolved.l_target)
    st, s = resolved.strategy, resolved.scale
    if st in (Strategy.PCW, Strategy.SE):
        raise ConfigurationError(f"strategy {st.value} has no per-token position assignment")
    absolute = resolved.mode == "absolute"
    idx = np.arange(n, dtype=np.int64 if absolute else np.float64)
    if st is Strategy.GP:
        return idx // s
    if st is Strategy.RP:
        return idx % resolved.l_orig
    if st in (Strategy.PI, Strategy.TUNED_PI):
        short = n <= resolved.l_orig
        if absolute:
            return idx * s if short else idx
        return idx if short else idx / s
    return idx
