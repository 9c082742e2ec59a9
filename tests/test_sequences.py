import numpy as np
import pytest

import oracles as O
import vectors as V
from stitchpolar.sequences import (CouplingSequence, bit_reversal_index,
                                   brs_pattern, make_regular_sequence,
                                   qup_pattern, regular_stage_pairs, validate)


def test_sequence_basics():
    seq = CouplingSequence(5, V.EX5_PAIRS)
    assert seq.n_code == 5
    assert len(seq) == 5
    assert [tuple(p) for p in seq.pairs] == V.EX5_PAIRS


def test_sequence_rejects_bad_pairs():
    with pytest.raises(ValueError):
        CouplingSequence(4, [(2, 2)])
    with pytest.raises(ValueError):
        CouplingSequence(4, [(3, 2)])
    with pytest.raises(ValueError):
        CouplingSequence(4, [(1, 5)])
    with pytest.raises(ValueError):
        CouplingSequence(4, [(0, 1)])


def test_regular_sequence_structure():
    for m in range(1, 7):
        n = 1 << m
        seq = make_regular_sequence(m)
        assert seq.n_code == n
        assert seq.pairs.shape[0] == (n // 2) * m
        # stages span n/2 down to 1, each pairing every position once
        spans = (seq.pairs[:, 1] - seq.pairs[:, 0]).reshape(m, n // 2)
        assert list(spans[:, 0]) == [n >> (t + 1) for t in range(m)]
        assert (spans == spans[:, :1]).all()


def test_regular_stage_pairs_partition():
    pairs = regular_stage_pairs(8, 2)
    assert sorted(map(tuple, pairs)) == [(1, 3), (2, 4), (5, 7), (6, 8)]


def test_regular_matches_kronecker_generator():
    """Encoding a regular sequence is multiplication by the Kronecker power."""
    f = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    for m in range(1, 6):
        g = np.array([[1]], dtype=np.uint8)
        for _ in range(m):
            g = np.kron(g, f)
        seq = make_regular_sequence(m)
        assert (O.matrix_ref(seq.pairs, 1 << m) == g).all()


def test_bit_reversal_index():
    assert tuple(bit_reversal_index(i, 3) for i in V.QPRIME_8) == tuple(range(1, 9))
    for m in range(1, 7):
        n = 1 << m
        img = [bit_reversal_index(i, m) for i in range(1, n + 1)]
        assert sorted(img) == list(range(1, n + 1))
        assert all(bit_reversal_index(j, m) == i for i, j in enumerate(img, 1))


def test_rate_match_patterns():
    assert tuple(sorted(qup_pattern(8, 3))) == V.QUP_PATTERN_8_3
    assert tuple(sorted(brs_pattern(8, 2))) == V.BRS_PATTERN_8_2
    assert tuple(sorted(brs_pattern(8, 3))) == V.BRS_PATTERN_8_3
    assert tuple(sorted(brs_pattern(16, 4))) == V.BRS_PATTERN_16_4
    with pytest.raises(ValueError):
        qup_pattern(8, 8)
    with pytest.raises(ValueError):
        qup_pattern(6, 2)  # mother length must be a power of two
    with pytest.raises(ValueError):
        brs_pattern(8, -1)
    with pytest.raises(ValueError):
        brs_pattern(6, 2)  # mother length must be a power of two


def test_validate_known_sequences():
    res = validate(CouplingSequence(3, V.INVALID_SEQ))
    assert not res.valid and res.first_bad is not None
    for (n, _), d in V.SHORT_CODES.items():
        assert validate(CouplingSequence(n, d["pairs"])).valid
    assert not validate(CouplingSequence(2, [(1, 2), (1, 2)])).valid
    assert not validate(CouplingSequence(4, [(1, 2), (3, 4), (1, 3), (2, 3)])).valid
    assert validate(CouplingSequence(1, [])).valid


def test_validate_regular_sequences():
    for m in range(1, 11):
        assert validate(make_regular_sequence(m)).valid


def test_validate_random_compositions(rng):
    for _ in range(40):
        n = int(rng.integers(2, 21))
        pairs = O.random_valid_pairs(rng, n)
        assert validate(CouplingSequence(n, pairs)).valid
