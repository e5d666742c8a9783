"""Deterministic whitespace tokenizer with a hashed vocabulary.

Words are split on whitespace, stripped of leading/trailing punctuation,
lowercased, and hashed into a fixed-size id space with blake2b. Token
counts therefore stay word-proportional and no vocabulary file is used;
the same text always produces the same ids, across processes and runs.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .errors import ConfigurationError, check_types

DEFAULT_VOCAB_SIZE = 30522

_EDGE_PUNCT = ".,;:!?\"'()[]{}<>`-*_"


@functools.lru_cache(maxsize=1 << 16)
def hash_word(word: str, vocab_size: int) -> int:
    """Stable hash of a normalized word into [0, vocab_size).

    Memoized: corpora repeat a small set of words many times, and the result
    is a pure function of both arguments.
    """
    digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % vocab_size


def normalize_word(word: str) -> str:
    return word.strip(_EDGE_PUNCT).lower()


def tokenize(text: str, vocab_size: int = DEFAULT_VOCAB_SIZE) -> np.ndarray:
    """Token ids for ``text``; one id per whitespace word (empty words dropped)."""
    check_types(locals(), tokenize.__annotations__)
    if vocab_size < 1:
        raise ConfigurationError(f"vocab_size must be positive, got {vocab_size}")
    ids = [hash_word(w, vocab_size) for w in map(normalize_word, text.split()) if w]
    return np.asarray(ids, dtype=np.int64)
