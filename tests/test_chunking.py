import math

import numpy as np
import pytest

from longctx import ExtensionSpec, Strategy, encode, pcw_encode, plan_chunks
from longctx.errors import EmptyInputError


def test_single_chunk_plan():
    assert plan_chunks(512, 512) == [(0, 512)]
    assert plan_chunks(3, 512) == [(0, 3)]


def test_overlap_rule_hand_case():
    assert plan_chunks(1000, 512) == [(0, 512), (488, 1000)]


def test_exact_multiple_has_zero_overlap():
    assert plan_chunks(1024, 512) == [(0, 512), (512, 1024)]


def test_chunk_count_matches_ceiling_exhaustively():
    for n in range(513, 4097):
        plan = plan_chunks(n, 512)
        assert len(plan) == math.ceil(n / 512)
        # all but the last start at multiples of the window; last is full-length
        for i, (a, b) in enumerate(plan[:-1]):
            assert a == i * 512 and b - a == 512
        assert plan[-1] == (n - 512, n)


def test_chunks_cover_input_and_non_final_disjoint():
    for n in (700, 1025, 2048, 3000):
        plan = plan_chunks(n, 512)
        covered = np.zeros(n, dtype=int)
        for a, b in plan:
            covered[a:b] += 1
        assert (covered >= 1).all()
        non_final = np.zeros(n, dtype=int)
        for a, b in plan[:-1]:
            non_final[a:b] += 1
        assert (non_final <= 1).all()


def test_empty_input_rejected():
    with pytest.raises(EmptyInputError):
        plan_chunks(0, 512)


def test_single_chunk_equivalence_bitwise(tiny_absolute):
    for n in (1, 4, 8):
        toks = (np.arange(n) * 7) % 64
        via_pcw = pcw_encode(tiny_absolute, toks)
        plain = encode(tiny_absolute, toks, ExtensionSpec.none(8))
        assert np.array_equal(via_pcw, plain)


def test_duplicated_halves_match_single_half(tiny_absolute):
    half = (np.arange(8) * 3) % 64
    double = np.concatenate([half, half])
    one = pcw_encode(tiny_absolute, half)
    two = pcw_encode(tiny_absolute, double)
    assert np.allclose(one, two, atol=1e-12)


def test_pcw_output_unit_norm(tiny_rotary):
    toks = np.arange(30) % 64
    emb = pcw_encode(tiny_rotary, toks)
    assert abs(np.linalg.norm(emb) - 1.0) < 1e-6


def test_encode_dispatches_pcw(tiny_absolute):
    toks = np.arange(20) % 64
    spec = ExtensionSpec(strategy=Strategy.PCW, l_orig=8, l_target=32)
    via_spec = encode(tiny_absolute, toks, spec)
    direct = pcw_encode(tiny_absolute, toks)
    assert np.array_equal(via_spec, direct)
