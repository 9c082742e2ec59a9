import numpy as np
import pytest

import oracles as O
import vectors as V
from stitchpolar.codes import (CRC11, CodeSpec, CrcConfig, RateMatch, encode,
                               rm_encode)
from stitchpolar.decoding import (LLR_SAT, compile_schedule, f_exact, f_minsum,
                                  rm_llrs, sc_decode, sc_decode_batch,
                                  sc_trace, scl_decode, scl_decode_batch,
                                  schedule_for)
from stitchpolar.reliability import (ChannelModel, build_baseline,
                                     channel_from_snr_db)
from stitchpolar.sequences import CouplingSequence, make_regular_sequence
from stitchpolar.stitching import build_family, partially_stitched


def _hard_llrs(x, scale=LLR_SAT):
    return (1.0 - 2.0 * np.asarray(x, dtype=float)) * scale


def test_schedule_worked_example():
    seq = CouplingSequence(5, V.EX5_PAIRS)
    sched = compile_schedule(seq, frozenset({1, 2, 3}))
    assert sched.as_tuples() == V.EX5_SCHEDULE


def test_schedule_op_accounting(rng):
    for _ in range(15):
        n = int(rng.integers(2, 13))
        pairs = O.random_valid_pairs(rng, n)
        seq = CouplingSequence(n, pairs)
        ops = compile_schedule(seq, frozenset()).as_tuples()
        assert len(ops) == 3 * len(pairs) + n
        per_kind = {}
        for op in ops:
            if len(op) == 2:
                per_kind.setdefault("d", []).append(op[0])
            else:
                per_kind.setdefault(op[2], []).append((op[0], op[1]))
        # every bit is decided exactly once; the order may deviate from the
        # natural one when a late bit's inputs resolve early
        assert sorted(per_kind["d"]) == list(range(1, n + 1))
        for kind in ("f", "g", "xor"):
            assert sorted(per_kind[kind]) == sorted(map(tuple, pairs))


@pytest.fixture(scope="module")
def stc320():
    """The partially stitched (320,160) code over a GA family of 32 at 1 dB."""
    spec, _ = partially_stitched(320, 160, 5, build_family(32, channel_from_snr_db(1.0)))
    return spec


def _la_lb_rows(sched):
    return sched.n_soft - sched.n_code


def test_register_rows_pinned(stc320):
    """Linear-scan row counts: la | lb rows after the N decision buffers, and
    ua | ub rows, against 2P of each with a row per register."""
    awgn = channel_from_snr_db(1.0)
    cases = [(stc320, 1044, 620, 320)]
    cases += [(build_baseline(kind, 320, 160, awgn), 2304, 1022, 512)
              for kind in ("qup", "brs")]
    for spec, pairs, soft, hard in cases:
        sched = schedule_for(spec)
        assert len(spec.sequence) == pairs
        assert len(sched) == 3 * pairs + spec.n_code
        assert (_la_lb_rows(sched), sched.n_hard) == (soft, hard)


def test_register_rows_regular():
    """A regular code of length N = 2^m needs the 2N - 1 LLRs of semi-parallel
    SC (2N - 2 la | lb rows besides the decision buffers) and N hard rows."""
    for m in range(1, 11):
        n = 1 << m
        sched = compile_schedule(make_regular_sequence(m), frozenset(range(1, n // 2 + 1)))
        assert _la_lb_rows(sched) <= 2 * n - 2, m
        assert sched.n_hard <= n, m
        assert sched.channel_sinks.tolist() == sorted(set(sched.channel_sinks.tolist()))


def _copy_lists_vs_oracle(spec):
    sched = compile_schedule(spec.sequence, spec.frozen)
    pairs = spec.sequence.pairs.tolist()
    p = len(pairs)
    names = [op[-1] for op in sched.as_tuples()]
    steps = [(name, op[1]) for name, op in zip(names, sched.ops)]
    want = O.live_registers_ref(pairs, spec.n_code, steps, set(spec.info))
    # each register's row, read off the ops that read it: f reads la e and
    # lb e, xor reads ua e and ub e; decision buffer j is soft row j
    soft_row = {2 * p + j: j for j in range(spec.n_code)}
    hard_row = {}
    for name, (_, e, la, lb, ua, ub, _, _) in zip(names, sched.ops):
        if name == "f":
            soft_row[e], soft_row[p + e] = la, lb
        elif name == "xor":
            hard_row[e], hard_row[p + e] = ua, ub
    assert want.keys() == sched.live.keys()
    for e, (soft_regs, hard_regs) in want.items():
        soft = [soft_row[r] for r in soft_regs]
        hard = [hard_row[r] for r in hard_regs]
        # registers live together hold distinct rows
        assert len(set(soft)) == len(soft) and len(set(hard)) == len(hard)
        got_soft, got_hard = sched.live[e]
        assert got_soft.tolist() == sorted(soft) and got_hard.tolist() == sorted(hard)


def test_copy_lists_match_liveness_oracle(rng, stc320):
    """The allocator's rows at each information decision are the registers
    live there, mapped through the allocation."""
    for _ in range(25):
        n = int(rng.integers(2, 30))
        pairs = O.random_valid_pairs(rng, n)
        k = int(rng.integers(1, n + 1))
        info = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k,
                                       replace=False).tolist()))
        _copy_lists_vs_oracle(CodeSpec(CouplingSequence(n, pairs), info))
    _copy_lists_vs_oracle(stc320)


def test_f_rules(rng):
    la = rng.normal(size=200) * 3
    lb = rng.normal(size=200) * 3
    ms = f_minsum(la, lb)
    ex = f_exact(la, lb)
    ref = 2.0 * np.arctanh(np.tanh(la / 2.0) * np.tanh(lb / 2.0))
    assert np.allclose(ex, ref, atol=1e-9)
    assert (np.abs(ex) <= np.abs(ms) + 1e-12).all()
    nz = np.abs(ms) > 1e-9
    assert (np.sign(ex[nz]) == np.sign(ms[nz])).all()
    assert f_minsum(3.0, -2.0) == -2.0
    assert f_exact(5.0, 0.0) == pytest.approx(0.0)


def test_trace_worked_example():
    spec = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    res, outs = sc_trace(spec, list(V.EX5_LLRS), f_mode="minsum")
    got = dict(outs)
    for op, val in V.EX5_TRACE.items():
        assert got[op] == pytest.approx(val)
    assert tuple(res.info_bits[0]) == V.EX5_DECISIONS
    assert tuple(res.x_hat[0]) == V.EX5_CODEWORD


def test_sc_noiseless_round_trip(rng):
    cases = [CodeSpec(CouplingSequence(n, d["pairs"]), d["info"])
             for (n, _), d in V.SHORT_CODES.items()]
    for _ in range(10):
        n = int(rng.integers(2, 13))
        pairs = O.random_valid_pairs(rng, n)
        k = int(rng.integers(1, n + 1))
        info = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k,
                                       replace=False).tolist()))
        cases.append(CodeSpec(CouplingSequence(n, pairs), info))
    for spec in cases:
        for mode in ("exact", "minsum"):
            msg = rng.integers(0, 2, size=spec.message_length).astype(np.uint8)
            x = encode(spec, msg)
            info, x_hat = sc_decode(spec, _hard_llrs(x), f_mode=mode)
            assert (info == msg).all()
            assert (x_hat == x).all()


def test_sc_noiseless_with_crc_and_rate_match(rng):
    spec = CodeSpec(make_regular_sequence(5), tuple(range(17, 33)), crc=CRC11)
    msg = rng.integers(0, 2, size=spec.message_length).astype(np.uint8)
    x = encode(spec, msg)
    info, _ = sc_decode(spec, _hard_llrs(x))
    assert (info[:spec.message_length] == msg).all()

    bec = ChannelModel("bec", 0.5)
    for kind in ("qup", "brs"):
        spec = build_baseline(kind, 11, 4, bec)
        msg = rng.integers(0, 2, size=4).astype(np.uint8)
        tx = rm_encode(spec, msg)
        llrs = rm_llrs(spec, _hard_llrs(tx))
        info, _ = sc_decode(spec, llrs)
        assert (info == msg).all()


def test_sc_batch_matches_single(rng):
    spec = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    llrs = rng.normal(size=(12, 5)) * 4
    res = sc_decode_batch(spec, llrs)
    for i in range(12):
        info, x_hat = sc_decode(spec, llrs[i])
        assert (res.info_bits[i] == info).all()
        assert (res.x_hat[i] == x_hat).all()


def test_sc_matches_bec_posterior(rng):
    """Non-tied sequential posteriors pin the SC information decisions."""
    for _ in range(15):
        n = int(rng.integers(2, 11))
        pairs = O.random_valid_pairs(rng, n)
        k = int(rng.integers(1, n + 1))
        info = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k,
                                       replace=False).tolist()))
        spec = CodeSpec(CouplingSequence(n, pairs), info)
        msg = rng.integers(0, 2, size=k).astype(np.uint8)
        x = encode(spec, msg)
        erased = rng.random(n) < 0.5
        y = [None if e else int(b) for e, b in zip(erased, x)]
        llrs = np.where(erased, 0.0, _hard_llrs(x))
        res = sc_decode_batch(spec, llrs[None], f_mode="exact")
        ops = compile_schedule(spec.sequence, spec.frozen).as_tuples()
        order = [op[0] for op in ops if len(op) == 2]
        dec = [int(b) for b in res.u_hat[0]]
        c0, c1, tie = O.bec_posterior_walk(pairs, n, info, y, order, dec)
        for i in info:
            if not tie[i - 1]:
                want = 1 if c1[i - 1] > c0[i - 1] else 0
                assert dec[i - 1] == want, (pairs, info, y, i)


def test_genie_decisions_follow_forced_bits(rng):
    spec = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    u = np.zeros(5, dtype=np.uint8)
    u[3] = 1
    res = sc_decode_batch(spec, rng.normal(size=(1, 5)), forced_u=u[None])
    assert (res.u_hat[0] == u).all()


def test_scl_list1_equals_sc(rng):
    specs = [CodeSpec(CouplingSequence(n, d["pairs"]), d["info"])
             for (n, _), d in list(V.SHORT_CODES.items())[:5]]
    specs.append(build_baseline("qup", 11, 4, ChannelModel("bec", 0.5)))
    for spec in specs:
        n = spec.n_code
        llrs = rng.normal(size=(6, n)) * 2
        # exact zeros tie both decisions, as punctured positions do
        llrs[rng.random(llrs.shape) < 0.3] = 0.0
        if spec.rate_match is not None:
            llrs = rm_llrs(spec, llrs[:, :spec.outer_length])
        sc = sc_decode_batch(spec, llrs)
        scl = scl_decode_batch(spec, llrs, list_size=1)
        assert (scl.chosen_bits == sc.info_bits).all()


def test_scl_batch_matches_single(rng, fam8):
    """Batched list decoding is word-for-word the single-word decode."""
    base, _ = partially_stitched(24, 12, 3, fam8)
    spec = CodeSpec(base.sequence, base.info, crc=CrcConfig((1, 0, 1, 1)))
    ops = compile_schedule(spec.sequence, spec.frozen).as_tuples()
    fired = [op[0] for op in ops if len(op) == 2 and op[0] in spec.info]
    assert fired != sorted(fired)
    msg = rng.integers(0, 2, size=(20, spec.message_length)).astype(np.uint8)
    x = np.array([encode(spec, m) for m in msg])
    llrs = _hard_llrs(x, scale=1.0) + rng.normal(size=x.shape) * 1.2
    llrs[rng.random(llrs.shape) < 0.1] = 0.0
    res = scl_decode_batch(spec, llrs, list_size=8)
    for i in range(llrs.shape[0]):
        one = scl_decode_batch(spec, llrs[i:i + 1], list_size=8)
        assert (res.info_bits[i] == one.info_bits[0]).all()
        assert (res.metrics[i] == one.metrics[0]).all()
        assert res.selected[i] == one.selected[0]
        assert res.crc_ok[i] == one.crc_ok[0]
    assert not res.crc_ok.all()


def test_decoders_reject_nan_and_saturate_inf(rng):
    spec = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    llrs = rng.normal(size=(3, 5))
    bad = llrs.copy()
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        sc_decode_batch(spec, bad)
    with pytest.raises(ValueError, match="NaN"):
        scl_decode_batch(spec, bad, list_size=2)
    inf = llrs.copy()
    inf[0, 1], inf[2, 4] = np.inf, -np.inf
    sat = np.where(np.isinf(inf), np.copysign(LLR_SAT, inf), inf)
    got, want = sc_decode_batch(spec, inf), sc_decode_batch(spec, sat)
    assert (got.u_hat == want.u_hat).all()
    assert np.array_equal(got.decision_llrs, want.decision_llrs)
    assert np.isfinite(got.decision_llrs).all()
    got, want = scl_decode_batch(spec, inf, 2), scl_decode_batch(spec, sat, 2)
    assert (got.info_bits == want.info_bits).all()
    assert np.array_equal(got.metrics, want.metrics)
    assert np.isfinite(got.metrics).all()
    assert np.isposinf(inf[0, 1])  # the caller's array is left as it was


def test_scl_full_list_is_metric_ml(rng):
    """With list size 2^K the kept path attains the exhaustive minimum."""
    for _ in range(10):
        n = int(rng.integers(2, 10))
        pairs = O.random_valid_pairs(rng, n)
        k = int(rng.integers(1, min(n, 6) + 1))
        info = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k,
                                       replace=False).tolist()))
        spec = CodeSpec(CouplingSequence(n, pairs), info)
        llrs = rng.normal(size=n) * 2
        u_all = O.all_messages(info, n)
        genie = sc_decode_batch(spec, np.tile(llrs, (u_all.shape[0], 1)),
                                forced_u=u_all)
        table = O.path_metric_table(genie.decision_llrs, u_all)
        scl = scl_decode_batch(spec, llrs[None], list_size=1 << k)
        best = float(scl.metrics[0, scl.selected[0]])
        assert best == pytest.approx(float(table.min()), abs=1e-9)


def test_scl_metrics_sorted_and_grow_with_noise(rng):
    spec = CodeSpec(CouplingSequence(8, V.SHORT_CODES[(8, 3)]["pairs"]),
                    V.SHORT_CODES[(8, 3)]["info"])
    llrs = rng.normal(size=(4, 8)) * 2
    res = scl_decode_batch(spec, llrs, list_size=4)
    assert (np.diff(res.metrics, axis=1) >= -1e-12).all()
    assert (res.metrics >= -1e-12).all()


def test_scl_crc_selects_checking_path(rng):
    crc3 = CrcConfig((1, 0, 1, 1))
    spec = CodeSpec(make_regular_sequence(3), (4, 6, 7, 8), crc=crc3)
    assert spec.message_length == 1
    hits = 0
    for _ in range(40):
        msg = rng.integers(0, 2, size=1).astype(np.uint8)
        x = encode(spec, msg)
        llrs = _hard_llrs(x, scale=2.0) + rng.normal(size=8) * 2.5
        res = scl_decode_batch(spec, llrs[None], list_size=4)
        sel = int(res.selected[0])
        if res.crc_ok[0]:
            # the selected path itself passes the check
            from stitchpolar.codes import crc_check
            assert crc_check(res.info_bits[0, sel], crc3)
            # and no better-metric path passes
            for p in range(sel):
                assert not crc_check(res.info_bits[0, p], crc3)
            hits += 1
    assert hits > 0


def test_scl_rejects_bad_list_size():
    spec = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    with pytest.raises(ValueError):
        scl_decode_batch(spec, np.zeros((1, 5)), list_size=0)


def test_scl_single_word_wrapper(rng):
    spec = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    llrs = rng.normal(size=5)
    ranked, sel, ok = scl_decode(spec, llrs, 2)
    assert len(ranked) == 2
    assert ranked[0][1] <= ranked[1][1]
    assert sel in (0, 1)
    assert ok is False or ok is True


def test_rm_llrs_fills():
    bec = ChannelModel("bec", 0.5)
    q = build_baseline("qup", 5, 2, bec)
    out = rm_llrs(q, np.arange(1.0, 6.0))
    pat = sorted(q.rate_match.pattern)
    assert all(out[i - 1] == 0.0 for i in pat)
    b = build_baseline("brs", 5, 2, bec)
    out = rm_llrs(b, np.arange(1.0, 6.0))
    assert all(out[i - 1] == LLR_SAT for i in sorted(b.rate_match.pattern))
    plain = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    x = np.arange(5.0)
    assert (rm_llrs(plain, x) == x).all()
    with pytest.raises(ValueError):
        rm_llrs(q, np.zeros(8))


def test_decoder_checks_llr_length():
    spec = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    with pytest.raises(ValueError):
        sc_decode(spec, np.zeros(4))
    with pytest.raises(ValueError):
        scl_decode_batch(spec, np.zeros((1, 4)), list_size=2)


def test_decision_llrs_match_posterior_oracle(rng):
    """Exact-f decision LLRs are the successive posteriors over the AWGN."""
    checked = 0
    for _ in range(12):
        n = int(rng.integers(2, 9))
        pairs = O.random_valid_pairs(rng, n)
        k = int(rng.integers(1, n + 1))
        info = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k,
                                       replace=False).tolist()))
        spec = CodeSpec(CouplingSequence(n, pairs), info)
        x = encode(spec, rng.integers(0, 2, size=k).astype(np.uint8))
        llrs = 2.0 * (1.0 - 2.0 * x + rng.normal(size=n) * 0.9) / 0.81
        ops = compile_schedule(spec.sequence, spec.frozen).as_tuples()
        order = [op[0] for op in ops if len(op) == 2]
        forced = rng.integers(0, 2, size=n).astype(np.uint8)
        for genie in (None, forced[None]):
            res = sc_decode_batch(spec, llrs[None], forced_u=genie)
            want = O.decision_llr_walk(pairs, n, llrs, order, res.u_hat[0])
            assert res.decision_llrs[0] == pytest.approx(want, rel=1e-9), (pairs, info)
            checked += n
    assert checked > 100
