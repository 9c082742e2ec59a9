import math

import numpy as np
import pytest

import oracles as O
import vectors as V
from stitchpolar.analysis import (ScalingEstimate, coset_spectrum, count_unpolarized,
                                  min_distance, reduced_generator, scaling_fit)
from stitchpolar.codes import CodeSpec, generator_matrix
from stitchpolar.reliability import ChannelModel, profile_for
from stitchpolar.sequences import CouplingSequence, make_regular_sequence


def test_coset_spectrum_known_codes():
    spec = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    assert tuple(coset_spectrum(generator_matrix(spec.sequence))) == V.SPECTRUM_EX5
    for (n, _), d in V.SHORT_CODES.items():
        g = generator_matrix(CouplingSequence(n, d["pairs"]))
        assert tuple(coset_spectrum(g)) == O.spectrum_ref(g)


def test_coset_spectrum_random(rng):
    for _ in range(15):
        n = int(rng.integers(2, 13))
        pairs = O.random_valid_pairs(rng, n)
        g = O.matrix_ref(pairs, n)
        assert tuple(coset_spectrum(g)) == O.spectrum_ref(g)
    # also arbitrary binary matrices, not only coupling generators
    m = rng.integers(0, 2, size=(6, 9)).astype(np.uint8)
    assert tuple(coset_spectrum(m)) == O.spectrum_ref(m)


def test_coset_spectrum_checks():
    with pytest.raises(ValueError):
        coset_spectrum(np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        coset_spectrum(np.zeros((21, 21), dtype=np.uint8))


def test_reduced_generator(bec):
    from stitchpolar.reliability import build_baseline
    plain = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    assert (reduced_generator(plain) == generator_matrix(plain.sequence)).all()
    for kind in ("qup", "brs"):
        spec = build_baseline(kind, 5, 2, bec)
        g0 = O.matrix_ref([tuple(p) for p in spec.sequence.pairs], 8)
        keep = [i - 1 for i in range(1, 9) if i not in set(spec.rate_match.pattern)]
        want = g0[np.ix_(keep, keep)]
        got = reduced_generator(spec)
        assert got.shape == (5, 5)
        assert (got == want).all()


def test_reduced_spectra_of_baselines(bec):
    from stitchpolar.reliability import build_baseline
    qup = build_baseline("qup", 5, 2, bec)
    brs = build_baseline("brs", 5, 2, bec)
    assert tuple(coset_spectrum(reduced_generator(qup))) == V.SPECTRUM_QUP5_NATURAL
    assert tuple(coset_spectrum(reduced_generator(brs))) == V.SPECTRUM_BRS5


def test_min_distance_known(bec):
    from stitchpolar.reliability import build_baseline
    stc = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    assert min_distance(stc) == V.MIN_DIST_EX5_K2
    qup = build_baseline("qup", 5, 2, bec)
    brs = build_baseline("brs", 5, 2, bec)
    assert qup.info == V.QUP5_K2_INFO
    assert brs.info == V.BRS5_K2_INFO
    assert min_distance(qup) == V.MIN_DIST_QUP5_K2
    assert min_distance(brs) == V.MIN_DIST_BRS5_K2


def test_min_distance_random(rng):
    for _ in range(12):
        n = int(rng.integers(2, 11))
        pairs = O.random_valid_pairs(rng, n)
        k = int(rng.integers(1, n + 1))
        info = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k,
                                       replace=False).tolist()))
        spec = CodeSpec(CouplingSequence(n, pairs), info)
        ref = O.min_distance_ref(O.matrix_ref(pairs, n), info)
        assert min_distance(spec) == ref
    # rate-matched baselines: the weight counts the kept columns only
    from stitchpolar.reliability import build_baseline
    for _ in range(12):
        kind = ("qup", "brs")[int(rng.integers(2))]
        n = int(rng.integers(2, 20))
        k = int(rng.integers(1, min(n, 10) + 1))
        spec = build_baseline(kind, n, k, ChannelModel("bec", 0.5))
        full = O.matrix_ref([tuple(p) for p in spec.sequence.pairs], spec.n_code)
        kept = spec.kept_positions() - 1
        assert min_distance(spec) == O.min_distance_ref(full[:, kept], spec.info)


def test_min_distance_edge_cases():
    seq = make_regular_sequence(2)
    assert min_distance(CodeSpec(seq, ())) == math.inf
    big = make_regular_sequence(5)
    with pytest.raises(ValueError):
        min_distance(CodeSpec(big, tuple(range(1, 22))))


def test_count_unpolarized_known(bec):
    spec = CodeSpec(make_regular_sequence(2), ())
    prof = profile_for(spec, bec)
    assert tuple(prof.values) == V.DE_REGULAR4
    assert count_unpolarized(prof) == (4, 1.0)
    assert count_unpolarized(prof, band=(0.1, 0.9)) == (2, 0.5)
    m12 = CodeSpec(make_regular_sequence(12), ())
    count, frac = count_unpolarized(profile_for(m12, bec))
    assert count == V.COUNT_REGULAR[12]
    assert frac == pytest.approx(count / 4096)


def test_count_unpolarized_checks(bec):
    spec = CodeSpec(make_regular_sequence(2), ())
    prof = profile_for(spec, bec)
    with pytest.raises(ValueError):
        count_unpolarized(prof, band=(0.0, 0.99))
    with pytest.raises(ValueError):
        count_unpolarized(prof, band=(0.9, 0.1))
    awgn = profile_for(spec, ChannelModel("biawgn", 2.0))
    with pytest.raises(ValueError):
        count_unpolarized(awgn)


def test_scaling_fit_recovers_exponent():
    mu = 3.6
    pts = [(m, 2.0 ** (-m / mu)) for m in range(10, 16)]
    est = scaling_fit(pts)
    assert isinstance(est, ScalingEstimate)
    assert est.mu == pytest.approx(mu, abs=1e-9)
    assert est.lam == pytest.approx(1.0 - 1.0 / mu, abs=1e-9)
    assert est.slope == pytest.approx(-1.0 / mu, abs=1e-12)
    assert est.points == tuple((float(m), float(a)) for m, a in pts)


def test_scaling_fit_checks():
    with pytest.raises(ValueError):
        scaling_fit([(10, 0.5), (11, 0.4)])
    with pytest.raises(ValueError):
        scaling_fit([(10, 0.5), (10, 0.4), (10, 0.3)])
    with pytest.raises(ValueError):
        scaling_fit([(10, 0.5), (11, 0.0), (12, 0.1)])
