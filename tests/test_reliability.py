import hashlib
import json

import numpy as np
import pytest

import oracles as O
import vectors as V
from stitchpolar.codes import spec_to_json
from stitchpolar.reliability import (SATURATION_MEAN, ChannelModel,
                                     build_baseline, channel_from_snr_db,
                                     de_bec, ga_awgn, initial_values,
                                     profile_for)
from stitchpolar.sequences import (CouplingSequence, brs_pattern,
                                   make_regular_sequence, qup_pattern)


def test_channel_model_accessors():
    bec = ChannelModel("bec", 0.4)
    assert bec.erasure_prob == 0.4
    awgn = ChannelModel("biawgn", 0.5)
    assert awgn.sigma == 0.5
    assert awgn.mean_llr == pytest.approx(8.0)
    with pytest.raises(AttributeError):
        bec.sigma
    with pytest.raises(AttributeError):
        awgn.erasure_prob


def test_channel_model_rejects_bad_params():
    with pytest.raises(ValueError):
        ChannelModel("bec", 1.5)
    with pytest.raises(ValueError):
        ChannelModel("biawgn", 0.0)
    with pytest.raises(ValueError):
        ChannelModel("bsc", 0.1)


def test_channel_from_snr_db():
    # sigma^2 = 1 / (2 * 10^(dB/10)); mean LLR = 2/sigma^2
    ch = channel_from_snr_db(0.0)
    assert ch.kind == "biawgn"
    assert ch.sigma == pytest.approx(1.0 / np.sqrt(2.0))
    assert ch.mean_llr == pytest.approx(4.0)
    assert channel_from_snr_db(3.0103).sigma == pytest.approx(0.5, rel=1e-4)
    assert channel_from_snr_db(-3.0).sigma > channel_from_snr_db(3.0).sigma


def test_initial_values_patterns():
    bec = ChannelModel("bec", 0.5)
    assert (initial_values(bec, 4) == 0.5).all()
    z = initial_values(bec, 4, {1, 3}, "puncture")
    assert list(z) == [1.0, 0.5, 1.0, 0.5]
    z = initial_values(bec, 4, {4}, "shorten")
    assert list(z) == [0.5, 0.5, 0.5, 0.0]
    awgn = ChannelModel("biawgn", 1.0)
    mu = initial_values(awgn, 3, {2}, "puncture")
    assert list(mu) == [2.0, 0.0, 2.0]
    mu = initial_values(awgn, 3, {2}, "shorten")
    assert mu[1] == SATURATION_MEAN


def test_de_known_vectors():
    assert np.allclose(de_bec(make_regular_sequence(2), np.full(4, 0.5)).values,
                       V.DE_REGULAR4)
    seq5 = CouplingSequence(5, V.EX5_PAIRS)
    assert np.allclose(de_bec(seq5, np.full(5, 0.5)).values, V.DE_EX5)


def test_de_matches_scalar_reference(rng):
    for _ in range(20):
        n = int(rng.integers(2, 17))
        pairs = O.random_valid_pairs(rng, n)
        eps = float(rng.uniform(0.05, 0.95))
        z = de_bec(CouplingSequence(n, pairs), np.full(n, eps)).values
        assert np.allclose(z, O.de_bec_ref(pairs, n, eps))


def test_de_batched_seeds(rng):
    seq = make_regular_sequence(3)
    seeds = rng.uniform(0.1, 0.9, size=(5, 8))
    batch = de_bec(seq, seeds).values
    for row_in, row_out in zip(seeds, batch):
        assert np.allclose(de_bec(seq, row_in).values, row_out)


def test_de_input_checks():
    seq = make_regular_sequence(2)
    with pytest.raises(ValueError):
        de_bec(seq, np.full(3, 0.5))
    with pytest.raises(ValueError):
        de_bec(seq, np.full(4, 1.5))
    bad = CouplingSequence(3, V.INVALID_SEQ)
    with pytest.raises(ValueError):
        de_bec(bad, np.full(3, 0.5))
    # check=False skips the validity gate
    de_bec(bad, np.full(3, 0.5), check=False)


def test_de_conserves_mean_erasure():
    """Each transform step preserves z_a + z_b, so the profile mean is eps."""
    for m in (2, 3, 4):
        z = de_bec(make_regular_sequence(m), np.full(1 << m, 0.37)).values
        assert np.mean(z) == pytest.approx(0.37)


def test_ga_structure():
    seq = make_regular_sequence(3)
    prof = ga_awgn(seq, np.full(8, 8.0))
    assert prof.metric == "mean_llr"
    # the all-variable branch doubles every stage
    assert prof.values[-1] == pytest.approx(64.0)
    assert prof.values[0] < 8.0
    assert (prof.pe >= 0).all() and (prof.pe <= 0.5 + 1e-12).all()
    # per-pair ordering: check branch below, variable branch above the input
    assert prof.values[0] == np.min(prof.values)
    assert prof.values[-1] == np.max(prof.values)


def test_ga_monotone_in_snr():
    seq = make_regular_sequence(4)
    lo = ga_awgn(seq, np.full(16, 4.0)).values
    hi = ga_awgn(seq, np.full(16, 10.0)).values
    assert (hi >= lo - 1e-9).all()


def test_ga_rejects_negative_means():
    with pytest.raises(ValueError):
        ga_awgn(make_regular_sequence(2), np.array([1.0, -0.1, 1.0, 1.0]))


def test_profile_for_baselines():
    bec = ChannelModel("bec", 0.5)
    q = build_baseline("qup", 5, 2, bec)
    prof = profile_for(q, bec)
    assert prof.metric == "erasure_prob"
    assert np.allclose(prof.values, V.DE_QUP5)
    awgn = channel_from_snr_db(1.0)
    q2 = build_baseline("qup", 5, 2, awgn)
    assert profile_for(q2, awgn).metric == "mean_llr"


def test_build_baseline_ties_go_low():
    # regular m=2 at BEC 0.5: pe = (0.9375, 0.4375, 0.5625, 0.0625)
    assert build_baseline("qup", 4, 2, ChannelModel("bec", 0.5)).info == (2, 4)
    # a flat design: every unblocked pe is 0, so the lowest indices win
    flat = ChannelModel("bec", 0.0)
    for kind in ("qup", "brs"):
        for k in (0, 1, 17, 40, 64):
            assert build_baseline(kind, 64, k, flat).info == tuple(range(1, k + 1))
    # shortening keeps the design flat: the lowest unshortened indices win
    live = [i for i in range(1, 65) if i not in brs_pattern(64, 24)]
    assert build_baseline("brs", 40, 20, flat).info == tuple(live[:20])


def test_build_baseline_k0_is_all_frozen():
    bec = ChannelModel("bec", 0.5)
    for kind in ("qup", "brs"):
        for n in (5, 8):
            spec = build_baseline(kind, n, 0, bec)
            assert spec.info == ()
            assert spec.message_length == 0


def test_build_baseline_punctures_qup_pattern():
    bec = ChannelModel("bec", 0.5)
    for n in range(2, 41):
        n0 = 1 << (n - 1).bit_length()
        spec = build_baseline("qup", n, n // 2, bec)
        pattern = spec.rate_match.pattern if spec.rate_match else frozenset()
        assert pattern == qup_pattern(n0, n0 - n)


# sha256 of json.dumps(spec_to_json(build_baseline(kind, n, k, 1 dB)),
# sort_keys=True), as the loop over the sorted profile built them
BASELINE_SHA256 = {
    ("qup", 320, 160): "4ab138ec46d32cd83df3d420f25622d6671543d8dc977b1c2814298eff74a1a1",
    ("qup", 40, 20): "d77fb03474643dbf0d2c1b3237d087d596990c5662ef39c3fcab582f931e257a",
    ("brs", 320, 160): "ea6a67eef44a29a32f4d9213cd7a00f404898850bf365bf326d4dd4c9c2a6417",
    ("brs", 40, 20): "5864fc9090deac9dbb054f1176527d1f2cfc0cb630f4b8f7d3732f31f807d3f6",
}


@pytest.mark.parametrize("kind, n, k", sorted(BASELINE_SHA256))
def test_build_baseline_pinned(kind, n, k):
    spec = build_baseline(kind, n, k, channel_from_snr_db(1.0))
    text = json.dumps(spec_to_json(spec), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BASELINE_SHA256[(kind, n, k)]


def test_build_baseline_structure():
    bec = ChannelModel("bec", 0.5)
    q = build_baseline("qup", 5, 2, bec)
    assert q.rate_match.mode == "puncture"
    assert tuple(sorted(q.rate_match.pattern)) == V.QUP_PATTERN_8_3
    assert tuple(sorted(q.info)) == V.DE_QUP5_INFO
    b = build_baseline("brs", 5, 2, bec)
    assert b.rate_match.mode == "shorten"
    assert tuple(sorted(b.rate_match.pattern)) == V.BRS_PATTERN_8_3
    assert tuple(sorted(b.info)) == V.BRS5_K2_INFO
    # info never sits on a shortened position
    assert not (set(b.info) & b.rate_match.pattern)


def test_build_baseline_power_of_two_has_no_pattern():
    bec = ChannelModel("bec", 0.5)
    spec = build_baseline("qup", 8, 4, bec)
    assert spec.rate_match is None or not spec.rate_match.pattern
    assert spec.outer_length == 8


def test_build_baseline_input_checks():
    bec = ChannelModel("bec", 0.5)
    with pytest.raises(ValueError):
        build_baseline("qup", 5, 6, bec)
    with pytest.raises(ValueError):
        build_baseline("qup", 0, 0, bec)
    for n in (5, 8):  # a power of two has no pattern, but the kind still counts
        with pytest.raises(ValueError):
            build_baseline("other", n, 2, bec)
