import hashlib
import json

import numpy as np
import pytest

import oracles as O
import vectors as V
from stitchpolar.codes import CodeSpec, encode, generator_matrix, spec_to_json
from stitchpolar.decoding import sc_decode
from stitchpolar.reliability import ChannelModel, channel_from_snr_db, profile_for
from stitchpolar.analysis import count_unpolarized
from stitchpolar.sequences import CouplingSequence, make_regular_sequence, validate
from stitchpolar.stitching import (CodeFamily, allocate_rates, build_family,
                                   load_family, partially_stitched, save_family,
                                   stitch_left, stitch_right,
                                   stitched_polarization_count, transform_count)


def _rows(seq):
    g = generator_matrix(seq)
    return ["".join(str(int(v)) for v in row) for row in g]


def _spectrum(seq):
    return O.spectrum_ref(O.matrix_ref([tuple(p) for p in seq.pairs], seq.n_code))


def _random_pair(rng, lo, hi):
    n = int(rng.integers(lo, hi))
    return CouplingSequence(n, O.random_valid_pairs(rng, n))


def test_left_stitch_worked_example():
    ex = V.LEFT_EXAMPLE
    comp = stitch_left(CouplingSequence(ex["upper_n"], ex["upper_pairs"]),
                       CouplingSequence(ex["lower_n"], ex["lower_pairs"]),
                       ex["positions"])
    assert [tuple(p) for p in comp.pairs] == ex["pairs"]
    assert _rows(comp) == list(ex["rows"])
    assert validate(comp).valid


def test_right_stitch_worked_examples():
    for ex in V.RIGHT_EXAMPLES:
        comp = stitch_right(CouplingSequence(ex["upper_n"], ex["upper_pairs"]),
                            CouplingSequence(ex["lower_n"], ex["lower_pairs"]),
                            ex["positions"])
        assert [tuple(p) for p in comp.pairs] == ex["pairs"]
        assert _rows(comp) == list(ex["rows"])
        assert validate(comp).valid


def test_stitch_argument_checks():
    c2 = make_regular_sequence(1)
    c4 = make_regular_sequence(2)
    with pytest.raises(ValueError):
        stitch_left(c4, c2, (1, 2, 3, 4))  # upper longer than lower
    with pytest.raises(ValueError):
        stitch_left(c2, c4, (1,))          # wrong position count
    with pytest.raises(ValueError):
        stitch_left(c2, c4, (1, 1))        # repeated position
    with pytest.raises(ValueError):
        stitch_left(c2, c4, (1, 5))        # out of range
    with pytest.raises(ValueError):
        stitch_right(c2, c4, (0, 3))


def test_compositions_stay_valid(rng):
    for _ in range(25):
        up = _random_pair(rng, 1, 7)
        lo = _random_pair(rng, up.n_code, 9)
        gamma = sorted(rng.choice(np.arange(1, lo.n_code + 1), size=up.n_code,
                                  replace=False).tolist())
        left = stitch_left(up, lo, gamma)
        assert validate(left).valid
        assert len(left) == up.n_code + len(up) + len(lo)

        a = _random_pair(rng, 1, 9)
        b = _random_pair(rng, 1, 9)
        t = min(a.n_code, b.n_code)
        pos = sorted(rng.choice(np.arange(1, max(a.n_code, b.n_code) + 1),
                                size=t, replace=False).tolist())
        right = stitch_right(a, b, pos)
        assert validate(right).valid
        assert len(right) == t + len(a) + len(b)


def test_left_stitch_spectrum_composition(rng):
    """Composite coset distances follow the min / sum / copy rule."""
    for _ in range(12):
        up = _random_pair(rng, 1, 6)
        lo = _random_pair(rng, up.n_code, 8)
        nu, nl = up.n_code, lo.n_code
        gamma = sorted(rng.choice(np.arange(1, nl + 1), size=nu,
                                  replace=False).tolist())
        comp = stitch_left(up, lo, gamma)
        D = _spectrum(comp)
        Du, Dl = _spectrum(up), _spectrum(lo)
        landing = [g + t for t, g in enumerate(gamma)]
        for i in range(1, nu + nl + 1):
            if i in landing:
                t = landing.index(i)
                assert D[i - 1] == min(Du[t], Dl[gamma[t] - 1])
            elif i - 1 in landing:
                t = landing.index(i - 1)
                assert D[i - 1] == Du[t] + Dl[gamma[t] - 1]
            else:
                j = i - sum(1 for g in landing if g < i)
                assert D[i - 1] == Dl[j - 1]


def test_right_stitch_spectrum_composition(rng):
    """Upper distances persist; lower ones double (or are sandwiched when the
    copy into the upper half is partial)."""
    for _ in range(12):
        a = _random_pair(rng, 1, 8)
        b = _random_pair(rng, 1, 8)
        nu, nl = a.n_code, b.n_code
        t = min(nu, nl)
        pos = sorted(rng.choice(np.arange(1, max(nu, nl) + 1), size=t,
                                replace=False).tolist())
        comp = stitch_right(a, b, pos)
        D = _spectrum(comp)
        Du, Dl = _spectrum(a), _spectrum(b)
        assert D[:nu] == Du
        for i in range(nu + 1, nu + nl + 1):
            dpp = Dl[i - nu - 1]
            if nu >= nl:
                assert D[i - 1] == 2 * dpp
            else:
                assert dpp <= D[i - 1] <= min(dpp + nu, 2 * dpp)


def test_transform_count_helper(fam8):
    seq = make_regular_sequence(3)
    assert transform_count(seq) == 12
    assert transform_count(CodeSpec(seq, (8,))) == 12
    for n in range(1, 9):
        for k in range(n + 1):
            bound = n * max(1, (n - 1).bit_length()) / 2
            assert transform_count(fam8.spec(n, k)) <= bound


def test_family_structure(fam8):
    assert fam8.max_length == 8
    assert fam8.channel.kind == "bec"
    for n in range(1, 9):
        for k in range(n + 1):
            assert (n, k) in fam8
            spec = fam8.spec(n, k)
            assert spec.n_code == n
            assert len(spec.info) == k
            assert validate(spec.sequence).valid
            assert 0.0 <= fam8.error(n, k) <= 1.0
        # more data can only hurt the product-form block error
        errs = [fam8.error(n, k) for k in range(n + 1)]
        assert errs[0] == 0.0
        assert all(a <= b + 1e-12 for a, b in zip(errs, errs[1:]))
    assert (9, 1) not in fam8
    with pytest.raises(KeyError):
        fam8.spec(9, 1)


def test_family_known_values(fam8):
    # one info bit rides the fully stitched chain: erasure only if every
    # output is erased
    for n in range(1, 9):
        assert fam8.error(n, 1) == pytest.approx(0.5 ** n)
    assert fam8.error(2, 1) == pytest.approx(0.25)
    assert fam8.error(2, 2) == pytest.approx(0.8125)


def test_family_round_trip(fam8, tmp_path):
    path = tmp_path / "fam.json"
    save_family(fam8, path)
    back = load_family(path)
    assert back.max_length == fam8.max_length
    assert back.channel.kind == fam8.channel.kind
    assert back.channel.param == fam8.channel.param
    assert set(back.entries) == set(fam8.entries)
    for key, ent in fam8.entries.items():
        other = back.entries[key]
        assert (other.spec.sequence.pairs == ent.spec.sequence.pairs).all()
        assert (other.spec.sequence.batch_breaks == ent.spec.sequence.batch_breaks).all()
        assert other.spec.info == ent.spec.info
        assert other.error == pytest.approx(ent.error)
    # the breaks fix how partially_stitched interleaves the block codes
    fam = build_family(16)
    path = tmp_path / "fam16.json"
    save_family(fam, path)
    got = [spec_to_json(partially_stitched(100, 50, 4, f)[0])
           for f in (fam, load_family(path))]
    assert got[0] == got[1]


def test_family_json_batch_breaks_checked():
    d = build_family(4).to_json()
    old = json.loads(json.dumps(d))
    for cd in old["codes"].values():
        del cd["batch_breaks"]
    # files written before the breaks were stored still load
    assert (CodeFamily.from_json(old).spec(4, 2).sequence.pairs
            == CodeFamily.from_json(d).spec(4, 2).sequence.pairs).all()
    pairs = d["codes"]["4,2"]["pairs"]
    p = len(pairs)
    for bad in ([], [1, p], [0, p - 1], [0, 2, 2, p], [0, p, p], [p]):
        d["codes"]["4,2"]["batch_breaks"] = bad
        with pytest.raises(ValueError, match="batch breaks"):
            CodeFamily.from_json(d)
    # one run holding every pair touches some index twice
    d["codes"]["4,2"]["batch_breaks"] = [0, p]
    with pytest.raises(ValueError, match="touches an index twice"):
        CodeFamily.from_json(d)


def test_family_deterministic():
    a = build_family(5)
    b = build_family(5, ChannelModel("bec", 0.5))
    assert a.to_json() == b.to_json()


# sha256 of json.dumps(build_family(16, channel).to_json(), sort_keys=True):
# (codes without their batch breaks, as the per-code search gave them before
# construction was batched; the whole JSON, batch breaks included)
FAMILY16_SHA256 = {
    "bec 0.5": ("961834d2c06e07ed0b9bab788a4292887038ff476bc19f6b6b41cf052e502bcb",
                "34403c2d740c65cc6a1904b1de9ef9f2f1a6efd4003a6411495d8bff66414570"),
    "awgn 1dB": ("3f0743012335f84cf8c107151066063531d325af34c7ccb9bbbb71f3e13947f3",
                 "abd23eb52923c14ccd1e05d7c5e1e1d62529646a14d388cc07d52bd76f11030d"),
    # every split of every K >= 1 has error 1: all take the fallback split
    "bec 1.0": ("1daf90703cadc4afcb1fdbd0d58426d15d5c8dfc6d88ef0dbf0f2f323c1fa4ec",
                "d4ef7c1f8f4adfb537f5648437f20bc5f5cc67576066ca9ee5db65d0e0eaff13"),
}


@pytest.mark.parametrize("name, channel", [
    ("bec 0.5", ChannelModel("bec", 0.5)),
    ("awgn 1dB", channel_from_snr_db(1.0)),
    ("bec 1.0", ChannelModel("bec", 1.0)),
])
def test_family_pinned(name, channel):
    d = build_family(16, channel).to_json()
    whole = hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
    for cd in d["codes"].values():
        del cd["batch_breaks"]
    codes = hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
    assert (codes, whole) == FAMILY16_SHA256[name]


def test_build_family_rejects_bad_length():
    with pytest.raises(ValueError):
        build_family(0)


def test_allocate_rates_matches_naive_greedy(fam8, rng):
    def naive(profiles, lengths, k):
        import math
        tables = []
        for seed, ni in zip(profiles, lengths):
            row = [0.0]
            for ki in range(1, ni + 1):
                spec = fam8.spec(ni, ki)
                from stitchpolar.reliability import de_bec
                pe = de_bec(spec.sequence, np.asarray(seed, dtype=float)).pe
                q = 1.0
                for i in spec.info:
                    q *= 1.0 - pe[i - 1]
                row.append(math.log(q) if q > 0 else -math.inf)
            tables.append(row)
        dims = [0] * len(lengths)
        for _ in range(k):
            best, arg = None, None
            for j, row in enumerate(tables):
                if dims[j] >= lengths[j]:
                    continue
                gain = row[dims[j] + 1] - row[dims[j]]
                if best is None or gain > best + 1e-12:
                    best, arg = gain, j
            dims[arg] += 1
        return dims

    lengths = [2, 2]
    flat = [np.full(2, 0.5), np.full(2, 0.5)]
    for k in range(5):
        assert allocate_rates(flat, lengths, k, fam8) == naive(flat, lengths, k)
    # identical blocks: ties go to the first block
    assert allocate_rates(flat, lengths, 1, fam8) == [1, 0]
    assert allocate_rates(flat, lengths, 3, fam8) == [2, 1]

    lengths = [3, 5, 4]
    profiles = [rng.uniform(0.1, 0.9, size=ni) for ni in lengths]
    for k in (0, 3, 7, 12):
        assert allocate_rates(profiles, lengths, k, fam8) == naive(profiles, lengths, k)


def test_allocate_rates_checks(fam8):
    with pytest.raises(ValueError):
        allocate_rates([np.full(2, 0.5)], [2, 2], 1, fam8)
    with pytest.raises(ValueError):
        allocate_rates([np.full(3, 0.5)], [2], 1, fam8)
    with pytest.raises(ValueError):
        allocate_rates([np.full(2, 0.5)], [2], 3, fam8)


def test_partially_stitched_small(fam8, rng):
    spec, layout = partially_stitched(11, 4, 2, fam8)
    assert spec.n_code == 11
    assert len(spec.info) == 4
    assert validate(spec.sequence).valid
    assert layout.n_mother == 16
    assert layout.block_size == 4
    assert sum(layout.block_lengths) == 11
    assert sum(layout.block_dims) == 4
    assert len(layout.pattern) == 5
    assert all(kb <= nb for nb, kb in zip(layout.block_lengths, layout.block_dims))
    msg = rng.integers(0, 2, size=4).astype(np.uint8)
    x = encode(spec, msg)
    info, _ = sc_decode(spec, (1.0 - 2.0 * x.astype(float)) * 100.0)
    assert (info == msg).all()
    assert layout.to_json()["block_dims"] == list(layout.block_dims)


def test_partially_stitched_large(fam64, rng):
    spec, layout = partially_stitched(320, 160, 6, fam64)
    assert spec.n_code == 320
    assert len(spec.info) == 160
    assert layout.n_mother == 512
    assert layout.block_size == 64
    assert sum(layout.block_lengths) == 320
    assert sum(layout.block_dims) == 160
    assert len(layout.pattern) == 192
    assert validate(spec.sequence).valid
    assert transform_count(spec) <= 512 // 2 * 9
    msg = rng.integers(0, 2, size=160).astype(np.uint8)
    x = encode(spec, msg)
    info, _ = sc_decode(spec, (1.0 - 2.0 * x.astype(float)) * 100.0)
    assert (info == msg).all()


# sha256 of json.dumps(spec_to_json(spec) | {"layout": layout.to_json()},
# sort_keys=True) for partially_stitched(320, 160, 5) over a GA family of 32
# at 1 dB, as the construction gave it before its layout had one definition
STC320_SHA256 = "4808b52eca3368688d9e610aadebe3a05ffbf38448ad6afd746d8396463b1033"


def test_partially_stitched_pinned():
    spec, layout = partially_stitched(320, 160, 5,
                                      build_family(32, channel_from_snr_db(1.0)))
    d = spec_to_json(spec)
    d["layout"] = layout.to_json()
    text = json.dumps(d, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == STC320_SHA256


def test_partially_stitched_power_of_two(fam8):
    spec, layout = partially_stitched(8, 3, 2, fam8)
    assert layout.n_mother == 8
    assert layout.pattern == ()
    assert layout.block_lengths == (4, 4)
    assert sum(layout.block_dims) == 3


def test_partially_stitched_checks(fam8):
    with pytest.raises(ValueError):
        partially_stitched(0, 0, 2, fam8)
    with pytest.raises(ValueError):
        partially_stitched(8, 9, 2, fam8)
    with pytest.raises(ValueError):
        partially_stitched(8, 2, 4, fam8)  # 2^4 exceeds the family
    with pytest.raises(ValueError):
        partially_stitched(8, 2, -1, fam8)


def test_polarization_count(fam8):
    count, frac = stitched_polarization_count(8, 2, fam8)
    assert frac == pytest.approx(count / 8)
    reg = CodeSpec(make_regular_sequence(3), ())
    reg_count, _ = count_unpolarized(profile_for(reg, fam8.channel))
    assert count <= reg_count
    count16, frac16 = stitched_polarization_count(16, 3, fam8)
    assert 0 <= count16 <= 16
    assert frac16 == pytest.approx(count16 / 16)


@pytest.mark.parametrize("n, s, count", [(11, 2, 9), (27, 3, 17), (100, 2, 46)])
def test_polarization_count_pinned(fam8, n, s, count):
    assert stitched_polarization_count(n, s, fam8) == (count, count / n)


def test_polarization_count_checks(fam8):
    with pytest.raises(ValueError):
        stitched_polarization_count(8, 2, fam8, channel_from_snr_db(1.0))
    with pytest.raises(ValueError):
        stitched_polarization_count(8, 2, fam8, band=(0.5, 0.5))
    with pytest.raises(ValueError):
        stitched_polarization_count(8, 4, fam8)
