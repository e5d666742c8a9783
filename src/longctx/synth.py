"""Deterministic generators for the synthetic long-context retrieval tasks.

Two task families over a grid of context lengths: personalized passkey
retrieval (a named person's passkey hidden in repeated filler sentences) and
needle-in-a-haystack retrieval (a templated fact inserted into a window of a
long essay). Documents never exceed 0.75 words per token of the bucket
length, all queries in a bucket share one candidate set, and generation is a
pure function of (config, seed).

The needle facts are rendered from a fixed catalog of subject/relation/object
triples, and the default haystack essay is synthesized deterministically, so
task files are reproducible byte for byte without any external assets.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GenerationError, ValidationError, check_types, read_text

DEFAULT_LENGTH_GRID = (256, 512, 1024, 2048, 4096, 8192, 16384, 32768)

PASSKEY_FILLER_SENTENCES = (
    "The grass is green.",
    "The sky is blue.",
    "The sun is yellow.",
    "Here we go.",
    "There and back again.",
)

_FIRST_NAMES = (
    "Alice", "Bruno", "Clara", "Derek", "Elena", "Felix", "Greta", "Hamid",
    "Irene", "Jonas", "Katya", "Liam", "Marta", "Nadia", "Oscar", "Priya",
    "Quinn", "Rosa", "Stefan", "Tara", "Ulrich", "Vera", "Wendel", "Ximena",
    "Yusuf", "Zelda", "Anders", "Bianca", "Carlos", "Dalia", "Edgar", "Farah",
    "Gustav", "Hanna", "Igor", "Jasmin", "Kenji", "Leona", "Mikel", "Noor",
    "Otto", "Paloma", "Rafael", "Selma", "Tobias", "Uma", "Viktor", "Wanda",
    "Yara", "Amara", "Boris", "Celine", "Dmitri", "Esther", "Fabian", "Gilda",
    "Henrik", "Ines", "Javier", "Karin", "Lorenz", "Mireille", "Nikolai", "Odette",
)

_LAST_NAMES = (
    "Reyes", "Okafor", "Lindqvist", "Marchetti", "Novak", "Tanaka", "Oyelaran", "Petrov",
    "Silva", "Khoury", "Bergman", "Castillo", "Drummond", "Eriksen", "Fontaine", "Gallagher",
    "Herrera", "Ivanova", "Jansen", "Kovacs", "Larsson", "Moreau", "Nielsen", "Ortega",
    "Pavlova", "Quintero", "Rahman", "Sandoval", "Takahashi", "Ucello", "Valdez", "Weiss",
    "Xiong", "Yamada", "Zapata", "Abramov", "Bellini", "Cormack", "Duarte", "Emerson",
    "Farkas", "Giordano", "Hallberg", "Ibarra", "Jokinen", "Kaminski", "Lombardi", "Mendes",
    "Nakamura", "Obrecht", "Paulsen", "Quispe", "Rousseau", "Sorensen", "Tremblay", "Ulloa",
    "Vasquez", "Wojcik", "Yilmaz", "Zimmermann", "Andrade", "Bakker", "Cisneros", "Dvorak",
)

# invented single-token proper names; one unique marker per needle fact
_MARKER_PREFIXES = ("Vel", "Mor", "Quil", "Zar", "Bren", "Thal", "Osk", "Fen", "Gral", "Nym")
_MARKER_SUFFIXES = ("drane", "vath", "lorn", "mira", "dock", "wick", "berg", "holt", "stow", "mere")

_RELATIONS = (
    ("Bridge", "The {m} Bridge was built in the year {o}.",
     "In which year was the {m} Bridge built?", lambda i: str(1402 + 7 * i)),
    ("Tower", "The {m} Tower is painted {o}.",
     "What color is the {m} Tower painted?",
     lambda i: ("crimson", "turquoise", "ochre", "violet", "silver",
                "emerald", "amber", "indigo", "coral", "slate")[i % 10]),
    ("Causeway", "The {m} Causeway measures {o} meters in length.",
     "How many meters long is the {m} Causeway?", lambda i: str(310 + 13 * i)),
    ("Archive", "The {m} Archive was founded by the {o} guild.",
     "Which guild founded the {m} Archive?",
     lambda i: ("mapmakers", "glassblowers", "weavers", "printers", "masons",
                "coopers", "tanners", "chandlers", "saddlers", "dyers")[i % 10]),
    ("Garden", "The {m} Garden cultivates {o} plant species.",
     "How many plant species does the {m} Garden cultivate?", lambda i: str(58 + 9 * i)),
    ("Observatory", "The {m} Observatory sits {o} meters above sea level.",
     "How many meters above sea level does the {m} Observatory sit?", lambda i: str(840 + 21 * i)),
    ("Canal", "The {m} Canal opened to boat traffic in {o}.",
     "In what year did the {m} Canal open to boat traffic?", lambda i: str(1511 + 11 * i)),
    ("Library", "The {m} Library preserves {o} bound manuscripts.",
     "How many bound manuscripts does the {m} Library preserve?", lambda i: str(1200 + 37 * i)),
    ("Theatre", "The {m} Theatre seats {o} spectators.",
     "How many spectators does the {m} Theatre seat?", lambda i: str(240 + 17 * i)),
    ("Museum", "The {m} Museum exhibits {o} oil paintings.",
     "How many oil paintings does the {m} Museum exhibit?", lambda i: str(96 + 5 * i)),
)


@dataclass(frozen=True)
class Fact:
    marker: str
    statement: str
    question: str


def _build_fact_catalog() -> tuple[Fact, ...]:
    facts = []
    markers = [p + s for p in _MARKER_PREFIXES for s in _MARKER_SUFFIXES]
    for i, marker in enumerate(markers):
        _, stmt, quest, obj_fn = _RELATIONS[i % len(_RELATIONS)]
        obj = obj_fn(i // len(_RELATIONS))
        facts.append(Fact(
            marker=marker,
            statement=stmt.format(m=marker, o=obj),
            question=quest.format(m=marker),
        ))
    return tuple(facts)


FACTS: tuple[Fact, ...] = _build_fact_catalog()
FACT_MARKERS: frozenset[str] = frozenset(f.marker for f in FACTS)


@dataclass(frozen=True)
class SyntheticTaskConfig:
    kind: str  # a key of _KINDS
    length_grid: tuple[int, ...] = DEFAULT_LENGTH_GRID
    queries_per_length: int = 50
    candidates_per_length: int = 100
    seed: int = 42
    essay_path: str | None = None

    def __post_init__(self):
        check_types(vars(self), self.__annotations__)
        if not isinstance(self.length_grid, tuple):
            raise ConfigurationError(
                f"'length_grid' must be a tuple of int, got {self.length_grid!r}")
        for length in self.length_grid:
            check_types({"length_grid entry": length}, {"length_grid entry": "int"})
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown synthetic task kind {self.kind!r}")
        if self.queries_per_length < 1:
            raise ConfigurationError("queries_per_length must be >= 1")
        if self.candidates_per_length < self.queries_per_length:
            raise ConfigurationError(
                "candidates_per_length must cover every query's gold document"
            )
        if not self.length_grid or any(l < 1 for l in self.length_grid):
            raise ConfigurationError("length grid must contain positive token counts")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RetrievalTask:
    """Queries, shared candidate documents, and relevance judgments.

    Checked where it is made: every judged id must be a query or document of
    the task and every query must have a judgment, else ValidationError names
    the task and up to 10 offenders in sorted order.
    """

    name: str
    queries: dict[str, str]
    docs: dict[str, str]
    qrels: dict[str, dict[str, int]]

    def __post_init__(self):
        dangling = sorted({q for q in self.qrels if q not in self.queries}
                          | {d for rels in self.qrels.values() for d in rels if d not in self.docs})
        if dangling:
            raise ValidationError(f"task {self.name!r}: qrels reference unknown ids: "
                                  f"{dangling[:10]}")
        unjudged = sorted(q for q in self.queries if not self.qrels.get(q))
        if unjudged:
            raise ValidationError(f"task {self.name!r}: queries without a judgment: "
                                  f"{unjudged[:10]}")


def word_budget(length_tokens: int) -> int:
    """Word cap for one document of a given token bucket: floor(0.75 * tokens).

    Clamped to a minimum of 8 words so a document always fits its key sentence.
    """
    check_types(locals(), word_budget.__annotations__)
    if length_tokens < 1:
        raise ConfigurationError(f"length must be >= 1, got {length_tokens}")
    return max(8, (3 * length_tokens) // 4)


def _fill_sentences(filler_budget: int) -> list[str]:
    """Cycle through the filler block, adding whole sentences while they fit."""
    lengths = [len(s.split()) for s in PASSKEY_FILLER_SENTENCES]
    out: list[str] = []
    used = i = 0
    while used + lengths[i % len(lengths)] <= filler_budget:
        out.append(PASSKEY_FILLER_SENTENCES[i % len(lengths)])
        used += lengths[i % len(lengths)]
        i += 1
    return out


def _passkey_documents(budget: int, config: SyntheticTaskConfig,
                       rng: np.random.Generator) -> tuple[list[str], list[str]]:
    """Candidate docs with unique (name, passkey) pairs, and each doc's question."""
    n_docs = config.candidates_per_length
    n_names = len(_FIRST_NAMES) * len(_LAST_NAMES)
    if n_docs > n_names:
        raise GenerationError(
            f"cannot create {n_docs} unique names from a pool of {n_names}"
        )
    key_words = 5  # "<First> <Last>'s passkey is <digits>."
    filler = _fill_sentences(budget - key_words)

    name_idx = np.sort(rng.choice(n_names, size=n_docs, replace=False))
    passkeys = rng.choice(1_000_000, size=n_docs, replace=False)
    docs: list[str] = []
    questions: list[str] = []
    for j in range(n_docs):
        first = _FIRST_NAMES[name_idx[j] // len(_LAST_NAMES)]
        last = _LAST_NAMES[name_idx[j] % len(_LAST_NAMES)]
        name = f"{first} {last}"
        key = f"{name}'s passkey is {passkeys[j]:06d}."
        cut = int(rng.integers(0, len(filler) + 1))
        docs.append(" ".join(filler[:cut] + [key] + filler[cut:]))
        questions.append(f"What is {name}'s passkey?")
    return docs, questions


# --- haystack essay -------------------------------------------------------

_ESSAY_SEED = 97251  # the essay is one fixed artifact, independent of task seeds

_ESSAY_OPENERS = (
    "the harbor", "a narrow lane", "the old mill", "the market square", "a stone bridge",
    "the orchard", "the ferry landing", "a quiet courtyard", "the grain exchange",
    "the northern road", "a timber warehouse", "the tide pool", "the signal hill",
    "a brick kiln", "the rope walk", "the salt flat", "a drover's inn", "the mill race",
)
_ESSAY_VERBS = (
    "kept its shape through", "grew slowly during", "fell quiet before", "changed hands after",
    "drew travelers in", "stood apart from", "carried trade across", "marked the edge of",
    "held the weather off", "outlasted the plans of", "gave its name to", "bordered the fields of",
)
_ESSAY_TAILS = (
    "the long winter", "the spring floods", "the harvest weeks", "the quiet years",
    "the coastal fog", "the midsummer fair", "the slow decades", "the early frosts",
    "the trading season", "the lamp lit evenings", "the dry months", "the morning crowds",
)


def default_essay_words(n_words: int) -> list[str]:
    """Deterministic filler essay of at least n_words words, truncated to n_words."""
    rng = np.random.default_rng(_ESSAY_SEED)
    words: list[str] = []
    while len(words) < n_words:
        sent = (
            f"{_ESSAY_OPENERS[rng.integers(len(_ESSAY_OPENERS))]} "
            f"{_ESSAY_VERBS[rng.integers(len(_ESSAY_VERBS))]} "
            f"{_ESSAY_TAILS[rng.integers(len(_ESSAY_TAILS))]}."
        )
        words.extend(sent.split())
    return words[:n_words]


def _needle_documents(budget: int, config: SyntheticTaskConfig,
                      rng: np.random.Generator) -> tuple[list[str], list[str]]:
    """Essay windows with one templated fact each, and each fact's question.

    An essay file must hold the longest window, the budget less the shortest
    fact; the default essay is always long enough.
    """
    n_docs = config.candidates_per_length
    if n_docs > len(FACTS):
        raise GenerationError(
            f"cannot build {n_docs} documents from a catalog of {len(FACTS)} facts"
        )
    facts = [FACTS[i] for i in np.sort(rng.choice(len(FACTS), size=n_docs, replace=False))]
    fact_words = [fact.statement.split() for fact in facts]
    windows = [budget - len(words) for words in fact_words]
    if min(windows) < 0:
        raise GenerationError(
            f"word budget {budget} cannot hold the fact sentence "
            f"({budget - min(windows)} words)"
        )
    if config.essay_path is None:
        essay = default_essay_words(max(min(windows), 1) + 256)
    else:
        essay = read_text(config.essay_path, GenerationError).split()
        if len(essay) < max(windows):
            raise GenerationError(
                f"essay at {config.essay_path} has {len(essay)} words; "
                f"need at least {max(windows)}"
            )
    ends_sentence = np.array([w.endswith((".", "!", "?")) for w in essay], dtype=bool)

    docs: list[str] = []
    for words, window_len in zip(fact_words, windows):
        offset = int(rng.integers(0, len(essay) - window_len + 1))
        window = essay[offset:offset + window_len]
        boundaries = [0] + [
            int(p) + 1 for p in np.flatnonzero(ends_sentence[offset:offset + window_len])
        ]
        cut = boundaries[int(rng.integers(0, len(boundaries)))]
        docs.append(" ".join(window[:cut] + words + window[cut:]))
    return docs, [fact.question for fact in facts]


# kind -> (its code in the bucket's RNG seed, its documents function)
_KINDS = {"passkey": (1, _passkey_documents), "needle": (2, _needle_documents)}


def build_bucket(config: SyntheticTaskConfig, length_tokens: int) -> RetrievalTask:
    """One bucket of ``config.kind`` at ``length_tokens`` tokens.

    Each bucket draws from its own (seed, kind, length) stream: first the
    kind's documents, ids ``d0000``..., then the sorted subset of them whose
    questions become the queries ``q0000``..., one gold document each.
    """
    budget = word_budget(length_tokens)
    code, documents = _KINDS[config.kind]
    rng = np.random.default_rng([config.seed, code, length_tokens])
    docs, questions = documents(budget, config, rng)
    chosen = np.sort(rng.choice(len(docs), size=config.queries_per_length, replace=False))
    return RetrievalTask(
        name=f"{config.kind}-{length_tokens}",
        queries={f"q{i:04d}": questions[j] for i, j in enumerate(chosen)},
        docs={f"d{j:04d}": text for j, text in enumerate(docs)},
        qrels={f"q{i:04d}": {f"d{j:04d}": 1} for i, j in enumerate(chosen)},
    )


# --- exact-match oracle ----------------------------------------------------

_PASSKEY_NAME_RE = re.compile(r"([A-Z][a-z]+ [A-Z][a-z]+)'s passkey")


class OracleEmbedder:
    """Exact-match embedder keyed on each task's discriminative span.

    Passkey texts are keyed by the person name, needle texts by the unique
    fact marker; each key maps to a fixed pseudo-random unit vector, so a
    query and its gold document land on the same direction. This validates
    benchmark wiring end to end, not model quality.
    """

    dim = 128

    def _key(self, text: str) -> str:
        m = _PASSKEY_NAME_RE.search(text)
        if m:
            return m.group(1)
        hits = FACT_MARKERS.intersection(text.split())
        if len(hits) != 1:
            raise ValidationError(
                f"expected exactly one oracle key in text, found {sorted(hits)!r}"
            )
        return next(iter(hits))

    def _vector(self, key: str) -> np.ndarray:
        seed = int.from_bytes(
            hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "little"
        )
        v = np.random.default_rng(seed).standard_normal(self.dim)
        return v / np.linalg.norm(v)

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        """ModelEmbedder's protocol; a text without exactly one key is a ValidationError."""
        return [self._vector(self._key(t)) for t in texts]
