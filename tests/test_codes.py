import numpy as np
import pytest

import oracles as O
import vectors as V
from stitchpolar.codes import (CRC11, CodeSpec, CrcConfig, RateMatch,
                               StructuralError, crc_append, crc_check,
                               crc_remainder, encode, generator_matrix,
                               rm_encode, spec_from_json, spec_to_json)
from stitchpolar.reliability import ChannelModel, build_baseline
from stitchpolar.sequences import CouplingSequence, make_regular_sequence


def _rows(g):
    return ["".join(str(int(v)) for v in r) for r in g]


def test_generator_short_codes():
    for (n, _), d in V.SHORT_CODES.items():
        g = generator_matrix(CouplingSequence(n, d["pairs"]))
        assert _rows(g) == d["rows"]


def test_generator_matches_reference_on_random_codes(rng):
    for _ in range(25):
        n = int(rng.integers(2, 16))
        pairs = O.random_valid_pairs(rng, n)
        g = generator_matrix(CouplingSequence(n, pairs))
        assert (g == O.matrix_ref(pairs, n)).all()


def test_stray_published_pairs_give_a_different_code():
    """The stray (8,2) pair list encodes a d=4 code, not the d=5 one kept."""
    g = generator_matrix(CouplingSequence(8, V.STRAY_82_PAIRS))
    assert _rows(g) != V.SHORT_CODES[(8, 2)]["rows"]
    assert O.min_distance_ref(g, (7, 8)) == 4
    assert O.min_distance_ref(
        np.array([[int(c) for c in r] for r in V.SHORT_CODES[(8, 2)]["rows"]]),
        (7, 8)) == 5


def test_encode_worked_example():
    spec = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    x = encode(spec, np.array(V.EX5_MESSAGE, dtype=np.uint8))
    assert tuple(int(b) for b in x) == V.EX5_CODEWORD


def test_encode_is_matrix_product(rng):
    d = V.SHORT_CODES[(8, 3)]
    spec = CodeSpec(CouplingSequence(8, d["pairs"]), d["info"])
    g = np.array([[int(c) for c in r] for r in d["rows"]])
    for _ in range(20):
        msg = rng.integers(0, 2, size=3).astype(np.uint8)
        u = np.zeros(8, dtype=np.uint8)
        u[np.array(d["info"]) - 1] = msg
        assert (encode(spec, msg) == u @ g % 2).all()


def test_encode_batch_agrees_with_single(rng):
    spec = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    msgs = rng.integers(0, 2, size=(8, 2)).astype(np.uint8)
    batch = encode(spec, msgs)
    for row, msg in zip(batch, msgs):
        assert (row == encode(spec, msg)).all()


def test_encode_checks_message_length():
    spec = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    with pytest.raises(ValueError):
        encode(spec, np.zeros(3, dtype=np.uint8))


def test_crc11_properties(rng):
    assert CRC11.length == 11
    assert CRC11.polynomial == (1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1)
    for _ in range(10):
        msg = rng.integers(0, 2, size=16).astype(np.uint8)
        word = crc_append(msg, CRC11)
        assert word.shape == (27,)
        assert crc_check(word, CRC11)
        bad = word.copy()
        bad[int(rng.integers(0, 27))] ^= 1
        assert not crc_check(bad, CRC11)


def test_crc_remainder_matches_long_division(rng):
    crc3 = CrcConfig((1, 0, 1, 1))
    for crc in (CRC11, crc3):
        for k in (0, 1, 2, 5, 16, 40, 171, 300):
            batch = rng.integers(0, 2, size=(7, k)).astype(np.uint8)
            ref = O.crc_remainder_ref(batch, crc.polynomial)
            assert (crc_remainder(batch, crc) == ref).all()
            assert crc_remainder(batch, crc).shape == (7, crc.length)
            assert (crc_remainder(batch[0], crc) == ref[0]).all()
            assert crc_remainder(batch[0], crc).shape == (crc.length,)
            cube = batch[:6].reshape(2, 3, k)
            assert (crc_remainder(cube, crc) == ref[:6].reshape(2, 3, -1)).all()
            words = crc_append(batch, crc)
            assert crc_check(words, crc).all()
            assert crc_check(words[0], crc)


def test_crc_rejects_bad_polynomial():
    with pytest.raises(ValueError):
        CrcConfig((1, 1, 0))
    with pytest.raises(ValueError):
        CrcConfig((0, 1, 1))


def test_crc_spec_message_length():
    seq = make_regular_sequence(5)
    info = tuple(range(1, 17))
    spec = CodeSpec(seq, info, crc=CRC11)
    assert spec.message_length == 5
    with pytest.raises(ValueError):
        CodeSpec(seq, (1, 2, 3), crc=CRC11)


def test_rate_match_shapes():
    bec = ChannelModel("bec", 0.5)
    q = build_baseline("qup", 5, 2, bec)
    b = build_baseline("brs", 5, 2, bec)
    assert q.outer_length == 5 and b.outer_length == 5
    assert q.n_code == 8 and b.n_code == 8
    x = rm_encode(q, np.array([1, 0], dtype=np.uint8))
    assert x.shape == (5,)
    x = rm_encode(b, np.array([1, 1], dtype=np.uint8))
    assert x.shape == (5,)


def test_shorten_pattern_positions_encode_to_zero(rng):
    bec = ChannelModel("bec", 0.5)
    spec = build_baseline("brs", 11, 4, bec)
    pat = np.asarray(sorted(spec.rate_match.pattern)) - 1
    msgs = rng.integers(0, 2, size=(16, 4)).astype(np.uint8)
    mother = encode(spec, msgs)
    assert not mother[:, pat].any()
    kept = spec.kept_positions() - 1
    assert (rm_encode(spec, msgs) == mother[:, kept]).all()


def test_shorten_pattern_without_the_property_raises():
    """Pair (1, 2) makes x1 = u1 ^ u2: shortening the frozen position 1 with
    u2 carrying a message bit lacks the shortening property.  The check runs
    over the information rows of the generator, so even the all-zero message,
    which encodes to zero there, is refused."""
    spec = CodeSpec(CouplingSequence(2, [(1, 2)]), (2,),
                    rate_match=RateMatch("shorten", frozenset({1})))
    for msg in ([1], [0], [[0], [1]]):
        with pytest.raises(StructuralError, match="not zero"):
            rm_encode(spec, np.asarray(msg, dtype=np.uint8))
    ok = CodeSpec(CouplingSequence(2, [(1, 2)]), (1,),
                  rate_match=RateMatch("shorten", frozenset({2})))
    assert rm_encode(ok, np.asarray([[0], [1]], dtype=np.uint8)).tolist() == [[0], [1]]


def test_shorten_misuse_raises():
    seq = make_regular_sequence(2)
    with pytest.raises(StructuralError, match="frozen"):
        CodeSpec(seq, (1, 2, 3), rate_match=RateMatch("shorten", frozenset({1})))


def test_spec_json_round_trip():
    bec = ChannelModel("bec", 0.5)
    specs = [
        CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO),
        build_baseline("qup", 5, 2, bec),
        build_baseline("brs", 5, 2, bec),
        CodeSpec(make_regular_sequence(5), tuple(range(1, 17)), crc=CRC11),
    ]
    for spec in specs:
        back = spec_from_json(spec_to_json(spec))
        assert back.info == spec.info
        assert (back.sequence.pairs == spec.sequence.pairs).all()
        assert back.rate_match == spec.rate_match
        assert (back.crc is None) == (spec.crc is None)
        if spec.crc is not None:
            assert back.crc.polynomial == spec.crc.polynomial


def test_spec_json_rejects_bad_partition():
    spec = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    d = spec_to_json(spec)
    d["frozen"] = [1, 2]
    with pytest.raises(ValueError):
        spec_from_json(d)


def test_spec_json_rejects_frozen_overlapping_info():
    d = {"n": 2, "pairs": [[1, 2]], "info": [1, 2], "frozen": [1]}
    with pytest.raises(ValueError, match="partition"):
        spec_from_json(d)
    d["frozen"] = []
    assert spec_from_json(d).info == (1, 2)
    del d["frozen"]
    assert spec_from_json(d).info == (1, 2)
