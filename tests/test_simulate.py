import io

import numpy as np
import pytest
from scipy.stats import beta

import oracles as O
import vectors as V
from stitchpolar import simulate as simulate_module
from stitchpolar.codes import CodeSpec, CrcConfig, encode, rm_encode
from stitchpolar.decoding import LLR_SAT, compile_schedule, sc_decode_batch
from stitchpolar.reliability import (ChannelModel, build_baseline,
                                     channel_from_snr_db)
from stitchpolar.sequences import CouplingSequence, make_regular_sequence
from stitchpolar.simulate import (SimConfig, channel_transmit, clopper_pearson,
                                  simulate_bler, snr_search, sweep_lengths,
                                  write_sweep_csv)
from stitchpolar.stitching import partially_stitched


def _ex5_spec():
    return CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)


def test_channel_transmit_bec(rng):
    chan = ChannelModel("bec", 0.4)
    x = rng.integers(0, 2, size=(500, 40)).astype(np.uint8)
    llr = channel_transmit(x, chan, rng)
    erased = llr == 0.0
    assert abs(erased.mean() - 0.4) < 0.02
    lit = ~erased
    assert ((llr[lit] == LLR_SAT) == (x[lit] == 0)).all()
    assert ((llr[lit] == -LLR_SAT) == (x[lit] == 1)).all()


def test_channel_transmit_biawgn(rng):
    chan = channel_from_snr_db(0.0)
    assert chan.sigma == pytest.approx(1.0 / np.sqrt(2.0))
    x = np.zeros((400, 500), dtype=np.uint8)
    llr = channel_transmit(x, chan, rng)
    mean = llr.mean()
    var = llr.var()
    assert mean == pytest.approx(chan.mean_llr, rel=0.02)
    assert var == pytest.approx(2.0 * chan.mean_llr, rel=0.05)
    ones = channel_transmit(np.ones_like(x), chan, rng)
    assert ones.mean() == pytest.approx(-chan.mean_llr, rel=0.02)


def test_clopper_pearson():
    lo, hi = clopper_pearson(0, 10)
    assert lo == 0.0
    assert hi == pytest.approx(1.0 - 0.025 ** (1.0 / 10.0))
    lo, hi = clopper_pearson(10, 10)
    assert hi == 1.0
    assert lo == pytest.approx(0.025 ** (1.0 / 10.0))
    lo, hi = clopper_pearson(5, 100)
    assert lo < 0.05 < hi
    lo2, hi2 = clopper_pearson(50, 1000)
    assert hi2 - lo2 < hi - lo
    with pytest.raises(ValueError):
        clopper_pearson(0, 0)


def test_clopper_pearson_matches_beta_quantiles():
    for trials in (1, 2, 3, 10, 97, 1000, 65536, 10 ** 6):
        for errors in sorted({0, 1, trials // 3, trials - 1, trials}):
            for confidence in (0.9, 0.95, 0.99):
                a = (1.0 - confidence) / 2.0
                lo = 0.0 if errors == 0 else float(
                    beta.ppf(a, errors, trials - errors + 1))
                hi = 1.0 if errors == trials else float(
                    beta.ppf(1.0 - a, errors + 1, trials - errors))
                assert clopper_pearson(errors, trials, confidence) == (lo, hi)


def test_simulate_matches_exact_enumeration():
    """Monte-Carlo interval covers the exhaustive block error rate."""
    spec = _ex5_spec()
    ops = compile_schedule(spec.sequence, spec.frozen).as_tuples()
    order = [op[0] for op in ops if len(op) == 2]
    for eps in (0.3, 0.5):
        exact = O.bec_exact_bler(V.EX5_PAIRS, 5, V.EX5_INFO, order, eps)
        cfg = SimConfig(spec, ChannelModel("bec", eps), seed=5, trials=120_000)
        res = simulate_bler(cfg)
        assert res.trials == 120_000
        assert res.ci_low <= exact <= res.ci_high
        assert res.bler == pytest.approx(exact, abs=0.01)
        assert res.errors == round(res.bler * res.trials)


def test_simulate_worker_invariance():
    spec = _ex5_spec()
    cfg = SimConfig(spec, ChannelModel("bec", 0.5), seed=11, trials=10_000,
                    chunk=512)
    base = simulate_bler(cfg, workers=1)
    for w in (2, 3):
        other = simulate_bler(cfg, workers=w)
        assert (other.trials, other.errors, other.bit_errors) == \
            (base.trials, base.errors, base.bit_errors)

    awgn = SimConfig(CodeSpec(make_regular_sequence(3), (4, 6, 7, 8)),
                     channel_from_snr_db(0.0), seed=3, trials=5_000, chunk=256)
    base = simulate_bler(awgn, workers=1)
    for w in (2, 4):
        other = simulate_bler(awgn, workers=w)
        assert (other.trials, other.errors, other.bit_errors) == \
            (base.trials, base.errors, base.bit_errors)


def test_simulate_adaptive_stopping_invariant():
    spec = _ex5_spec()
    cfg = SimConfig(spec, ChannelModel("bec", 0.5), seed=2, trials=None,
                    max_trials=50_000, min_errors=40, chunk=256)
    base = simulate_bler(cfg, workers=1)
    assert base.errors >= 40
    assert base.trials % 256 == 0
    assert base.trials < 50_000
    for w in (2, 3):
        other = simulate_bler(cfg, workers=w)
        assert (other.trials, other.errors) == (base.trials, base.errors)


def test_simulate_reports_and_checks():
    spec = _ex5_spec()
    res = simulate_bler(SimConfig(spec, ChannelModel("bec", 0.5), trials=4096))
    assert res.ci_low <= res.bler <= res.ci_high
    assert res.seconds >= 0.0
    assert res.to_json()["trials"] == 4096
    with pytest.raises(ValueError):
        simulate_bler(SimConfig(spec, ChannelModel("bec", 0.5), trials=0))
    with pytest.raises(ValueError):
        simulate_bler(SimConfig(spec, ChannelModel("bec", 0.5), chunk=0))
    cfg = SimConfig(spec, ChannelModel("bec", 0.5), trials=64, chunk=64)
    for workers in (0, -1, 1.5, 2.0, "2"):
        with pytest.raises(ValueError, match="workers"):
            simulate_bler(cfg, workers=workers)
    assert simulate_bler(cfg, workers=np.int64(2)).trials == 64


def test_simulate_with_list_decoding():
    spec = CodeSpec(make_regular_sequence(3), (4, 6, 7, 8))
    chan = channel_from_snr_db(-1.0)
    sc = simulate_bler(SimConfig(spec, chan, seed=9, trials=20_000))
    scl = simulate_bler(SimConfig(spec, chan, seed=9, trials=20_000, list_size=4))
    assert scl.bler <= sc.bler


def test_crc_scl_fixed_seed_counts(fam8):
    """Seeded CRC-aided SCL counts on a small stitched code stay pinned."""
    base, _ = partially_stitched(40, 20, 3, fam8)
    spec = CodeSpec(base.sequence, base.info, crc=CrcConfig((1, 0, 1, 1)))
    res = simulate_bler(SimConfig(spec, channel_from_snr_db(-1.0), seed=3,
                                  trials=2048, chunk=256, list_size=8))
    assert (res.errors, res.bit_errors) == (39, 227)


@pytest.mark.parametrize("f_mode", ["exact", "minsum"])
def test_sc_fixed_seed_counts(fam8, f_mode):
    """Seeded SC counts on stitched, QUP and BRS codes, pinned to the values
    of the (batch, register) SC interpreter that preceded the shared
    executor, so the executor stays tied to an independent decoder."""
    design = channel_from_snr_db(1.0)
    pins = {"stc": {"exact": (111, 536), "minsum": (110, 530)},
            "qup": {"exact": (175, 895), "minsum": (171, 876)},
            "brs": {"exact": (143, 864), "minsum": (143, 844)}}
    codes = {"stc": partially_stitched(40, 20, 3, fam8)[0],
             "qup": build_baseline("qup", 40, 20, design),
             "brs": build_baseline("brs", 40, 20, design)}
    for name, spec in codes.items():
        res = simulate_bler(SimConfig(spec, channel_from_snr_db(0.0), seed=6,
                                      trials=3000, chunk=1024, f_mode=f_mode))
        assert res.trials == 3000
        assert (res.errors, res.bit_errors) == pins[name][f_mode], name


def test_snr_search_bec():
    spec = _ex5_spec()
    sr = snr_search(spec, 0.13, (0.2, 0.8), channel_kind="bec", seed=1,
                    tol=0.05, max_trials=20_000, min_errors=50)
    assert 0.2 <= sr.param <= 0.8
    # the exact curve passes 0.13 near eps = 0.5
    assert sr.param == pytest.approx(0.5, abs=0.1)
    assert len(sr.evals) >= 3
    params = [p for p, _ in sr.evals]
    assert params[0] == 0.2 and params[1] == 0.8


def test_snr_search_biawgn_direction():
    spec = CodeSpec(make_regular_sequence(3), (4, 6, 7, 8))
    sr = snr_search(spec, 0.1, (-2.0, 8.0), seed=4, tol=0.5,
                    max_trials=20_000, min_errors=50)
    assert -2.0 <= sr.param <= 8.0
    blers = {round(p, 6): r.bler for p, r in sr.evals}
    assert blers[-2.0] >= 0.1 >= blers[8.0]


def test_snr_search_bracket_failure():
    spec = _ex5_spec()
    with pytest.raises(ValueError, match="not bracketed"):
        snr_search(spec, 0.9, (0.05, 0.2), channel_kind="bec",
                   max_trials=5_000, min_errors=20)


@pytest.mark.parametrize("tol", [0.0, -0.1, float("nan"), float("inf")])
def test_snr_search_rejects_bad_tol(tol):
    # tol=0 used to bisect forever, since the gap stalls above 0, and NaN
    # returned the whole bracket after two evaluations
    spec = _ex5_spec()
    with pytest.raises(ValueError, match="tol"):
        snr_search(spec, 0.13, (0.2, 0.8), channel_kind="bec", tol=tol,
                   max_trials=100, min_errors=1)


def test_sweep_lengths_smoke(fam8):
    res = sweep_lengths(0.5, [8], ["qup", "stc"], 0.13, (0.1, 0.9),
                        family=fam8, s=2, channel_kind="bec", seed=1,
                        tol=0.2, max_trials=10_000, min_errors=40)
    assert {r["scheme"] for r in res.rows} == {"qup", "stc"}
    assert all(r["n"] == 8 and r["k"] == 4 for r in res.rows)
    buf = io.StringIO()
    write_sweep_csv(res, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "n,k,scheme,param,bracket_lo,bracket_hi"
    assert len(lines) == 3
    with pytest.raises(ValueError):
        sweep_lengths(0.5, [8], ["stc"], 0.13, (0.1, 0.9), family=None,
                      channel_kind="bec")
    with pytest.raises(ValueError):
        sweep_lengths(0.5, [8], ["nope"], 0.13, (0.1, 0.9), family=fam8,
                      channel_kind="bec")


def test_simulate_rejects_bad_decoder_config(monkeypatch):
    """An unknown f rule or a non-integer list size fails before any chunk."""
    def no_chunk(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(simulate_module, "_chunk_counts", no_chunk)
    spec = _ex5_spec()
    chan = ChannelModel("bec", 0.5)
    for kw in ({"f_mode": "exactt"}, {"list_size": 2.5}, {"list_size": 1.0}):
        with pytest.raises(ValueError, match="f_mode|list size"):
            simulate_bler(SimConfig(spec, chan, trials=64, chunk=64, **kw))


def test_simulate_starts_no_wave_after_stop(monkeypatch):
    """With several workers the run ends with the wave that holds the stop."""
    calls = []
    counts = simulate_module._chunk_counts

    def counted(cfg, index, take):
        calls.append(index)
        return counts(cfg, index, take)

    monkeypatch.setattr(simulate_module, "_chunk_counts", counted)
    cfg = SimConfig(_ex5_spec(), ChannelModel("bec", 0.5), seed=2,
                    max_trials=50_000, min_errors=40, chunk=256)
    base = simulate_bler(cfg, workers=1)
    used = base.trials // 256
    assert base.trials < 50_000 and sorted(calls) == list(range(used))
    for w in (2, 3):
        calls.clear()
        other = simulate_bler(cfg, workers=w)
        assert (other.trials, other.errors, other.bit_errors) == \
            (base.trials, base.errors, base.bit_errors)
        # the stop's wave may finish (or cancel) its other chunks; no later wave starts
        assert set(range(used)) <= set(calls)
        assert max(calls) < -(-used // w) * w


def test_simulate_threads_bounded_by_chunks_and_cpus(monkeypatch):
    """A huge worker count starts no more threads than there are chunks or
    CPUs (the executor is a stand-in, so no thread starts), and the counts
    stay those of one worker."""
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(simulate_module, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(simulate_module.os, "cpu_count", lambda: 4)
    for trials, threads in ((3 * 64, 3), (10 * 64, 4)):
        cfg = SimConfig(_ex5_spec(), ChannelModel("bec", 0.5), seed=5, trials=trials,
                        chunk=64)
        one = simulate_bler(cfg)
        many = simulate_bler(cfg, workers=10 ** 9)
        assert sizes == [threads]
        assert (many.errors, many.bit_errors) == (one.errors, one.bit_errors)
        sizes.clear()
    monkeypatch.setattr(simulate_module.os, "cpu_count", lambda: None)
    simulate_bler(cfg, workers=10 ** 9)
    assert sizes == []  # no CPU count: the chunks run in this thread


def test_last_chunk_decodes_only_its_words(monkeypatch):
    """A fixed-trial run decodes only the words it counts: the last chunk
    still draws all its words, so the stream and the counts are those of
    decoding the whole chunk and counting the first ``take``."""
    spec = build_baseline("qup", 40, 20, channel_from_snr_db(1.0))
    chan = channel_from_snr_db(0.0)
    sizes = []
    decode = simulate_module.sc_decode_batch

    def recorded(spec, llrs, *args, **kw):
        sizes.append(len(llrs))
        return decode(spec, llrs, *args, **kw)

    monkeypatch.setattr(simulate_module, "sc_decode_batch", recorded)
    res = simulate_bler(SimConfig(spec, chan, seed=3, trials=5000))
    assert sizes == [4096, 904]
    errors = bit_errors = 0
    for index, take in ((0, 4096), (1, 904)):
        rng = np.random.Generator(np.random.Philox(key=3).jumped(index))
        msg = rng.integers(0, 2, size=(4096, spec.message_length), dtype=np.uint8)
        llrs = channel_transmit(rm_encode(spec, msg), chan, rng)
        wrong = (decode(spec, llrs, decision_llrs=False).info_bits != msg)[:take]
        errors += int(wrong.any(axis=1).sum())
        bit_errors += int(wrong.sum())
    assert (res.trials, res.errors, res.bit_errors) == (5000, errors, bit_errors)
    assert errors > 0
