import hashlib

import numpy as np

from longctx.tokenizer import hash_word, normalize_word, tokenize


def test_ids_are_stable_and_in_range():
    text = "What is Alice Reyes's passkey?"
    a = tokenize(text, 1000)
    b = tokenize(text, 1000)
    assert np.array_equal(a, b)
    assert a.dtype == np.int64
    assert (a >= 0).all() and (a < 1000).all()
    assert a.size == len(text.split())


def test_punctuation_stripping_aligns_query_and_doc_tokens():
    assert normalize_word("passkey?") == "passkey"
    assert normalize_word("483920.") == "483920"
    assert normalize_word("Reyes's") == "reyes's"  # internal apostrophe survives
    doc = tokenize("Alice Reyes's passkey is 483920.", 30522)
    query = tokenize("What is Alice Reyes's passkey?", 30522)
    assert len(set(doc.tolist()) & set(query.tolist())) >= 3  # alice, reyes's, passkey


def test_pure_punctuation_words_are_dropped():
    assert tokenize("- hello -", 100).size == 1


def test_hash_depends_on_vocab_size():
    word = "observatory"
    assert hash_word(word, 10) < 10
    assert hash_word(word, 30522) == hash_word(word, 30522)


def test_memoized_ids_match_the_hash_rule_across_calls_and_vocab_sizes():
    words = [f"word{i}" for i in range(40)] * 3
    for vocab in (97, 30522):
        want = [int.from_bytes(hashlib.blake2b(w.encode(), digest_size=8).digest(), "little")
                % vocab for w in words]
        assert [hash_word(w, vocab) for w in words] == want
        assert [hash_word(w, vocab) for w in words] == want
        assert tokenize(" ".join(words), vocab).tolist() == want
