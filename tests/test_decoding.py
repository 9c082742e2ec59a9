import tracemalloc

import numpy as np
import pytest

import oracles as O
import vectors as V
from stitchpolar.codes import (CRC11, CodeSpec, CrcConfig, RateMatch, encode,
                               rm_encode)
from stitchpolar.decoding import (_ADD, _DEC, _F, _G, _XOR, LLR_SAT, _execute,
                                  compile_schedule, f_exact, f_minsum,
                                  rm_llrs, sc_decode, sc_decode_batch,
                                  sc_trace, scl_decode, scl_decode_batch,
                                  schedule_for)
from stitchpolar.reliability import (ChannelModel, build_baseline,
                                     channel_from_snr_db)
from stitchpolar.sequences import CouplingSequence, make_regular_sequence
from stitchpolar.simulate import channel_transmit
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


def _per_kind(sched):
    return [sum(op[0] == kind for op in sched.ops) for kind in (_F, _G, _XOR, _DEC, _ADD)]


def test_pruned_op_counts_pinned(stc320):
    """The constant and dead-op pass keeps the information decisions on LLRs
    that are not structural zeros and only the f/g/xor/add whose value
    reaches one of them: kept f/g/xor/decision/add counts, and the la | lb
    and ua | ub rows (620/320 and 1022/512 in the full schedules), for
    full-length LLRs and, on the rate-matched codes, for transmitted-length
    LLRs, whose punctured zeros fold too."""
    awgn = channel_from_snr_db(1.0)
    qup, brs = (build_baseline(kind, 320, 160, awgn) for kind in ("qup", "brs"))
    cases = [(stc320, None, [789, 789, 470, 160, 160], 560, 95),
             (qup, None, [1105, 1105, 594, 160, 352], 768, 128),
             (qup, qup.rate_match, [913, 913, 594, 160, 160], 448, 128),
             (brs, None, [1291, 1099, 780, 160, 160], 960, 256),
             (brs, brs.rate_match, [1291, 1099, 780, 160, 160], 769, 256)]
    for spec, rm, kept, soft, hard in cases:
        full = compile_schedule(spec.sequence, spec.frozen, rate_match=rm)
        pruned = compile_schedule(spec.sequence, spec.frozen, pruned=True, rate_match=rm)
        assert _per_kind(full) == [len(spec.sequence)] * 3 + [spec.n_code, 0]
        assert _per_kind(pruned) == kept
        assert (_la_lb_rows(pruned), pruned.n_hard) == (soft, hard)
        assert pruned.pruned and not full.pruned


def test_pruned_equals_full_at_320(rng, stc320):
    """4096 noisy words: the pruned schedule decides the same bits as the
    full one, on the stitched code and the rate-matched baselines."""
    awgn = channel_from_snr_db(1.0)
    specs = [stc320] + [build_baseline(kind, 320, 160, awgn) for kind in ("qup", "brs")]
    for spec in specs:
        for snr_db, f_mode in ((-1.0, "exact"), (0.5, "minsum")):
            msg = rng.integers(0, 2, size=(4096, spec.message_length), dtype=np.uint8)
            y = channel_transmit(rm_encode(spec, msg), channel_from_snr_db(snr_db), rng)
            llrs = rm_llrs(spec, y)
            full = sc_decode_batch(spec, llrs, f_mode)
            pruned = sc_decode_batch(spec, llrs, f_mode, decision_llrs=False)
            assert np.array_equal(pruned.u_hat, full.u_hat), (spec.n_code, snr_db)
            assert pruned.decision_llrs is None
            assert 0 < (full.info_bits != msg).any(axis=1).sum() < 4096


def test_pruned_schedule_has_no_llrs_to_give(rng):
    """Genie mode and list decoding read LLRs the pruned schedule never
    computes, so neither runs on it."""
    spec = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    with pytest.raises(ValueError, match="forced_u"):
        sc_decode_batch(spec, rng.normal(size=(1, 5)), forced_u=np.zeros((1, 5)),
                        decision_llrs=False)
    pruned = compile_schedule(spec.sequence, spec.frozen, pruned=True)
    with pytest.raises(ValueError, match="full schedule"):
        pruned.live


def _schedule_steps(sched):
    """The row-level ops in the oracle's format."""
    names = {_F: "f", _G: "g", _ADD: "add", _XOR: "xor"}
    steps = []
    for kind, e, la, lb, ua, ub, dst, dst_b in sched.ops:
        if kind == _DEC:
            steps.append(("d", la, dst, bool(sched.frozen_mask[e])))
        elif kind == _XOR:
            steps.append(("xor", ua, ub, dst, dst_b))
        elif kind == _G:
            steps.append(("g", la, lb, ua, dst))
        else:
            steps.append((names[kind], la, lb, dst))
    return steps


def _random_rate_matched(rng, n_max):
    """A random valid code, punctured, shortened or neither."""
    n = int(rng.integers(2, n_max))
    k = int(rng.integers(1, n + 1))
    info = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()))
    spec = CodeSpec(CouplingSequence(n, O.random_valid_pairs(rng, n)), info)
    mode = ("puncture", "shorten", None)[int(rng.integers(0, 3))]
    if mode is None:
        return spec
    # a shortened pattern must be frozen; the decoder needs nothing more
    pool = np.asarray(spec.frozen if mode == "shorten" else range(1, n + 1), dtype=np.int64)
    pattern = rng.choice(pool, size=int(rng.integers(0, pool.size + 1)), replace=False)
    return CodeSpec(spec.sequence, info, rate_match=RateMatch(mode, frozenset(pattern.tolist())))


def test_pruned_schedules_hold_no_structural_constants(rng, stc320):
    """A forward constant scan finds no op left in a pruned schedule whose
    output the code fixes, and none left to fold; in the full schedule it
    finds some (the frozen decisions at least)."""
    awgn = channel_from_snr_db(1.0)
    specs = [stc320] + [build_baseline(kind, n, n // 2, awgn)
                        for kind in ("qup", "brs") for n in (40, 320)]
    specs += [_random_rate_matched(rng, 40) for _ in range(60)]
    for spec in specs:
        for rm in {None, spec.rate_match}:
            for pruned in (False, True):
                sched = compile_schedule(spec.sequence, spec.frozen, pruned, rm)
                rows, vals = sched.const_sinks
                constant, foldable = O.structural_constants(
                    _schedule_steps(sched), rows[vals == 0].tolist())
                if pruned:
                    assert (constant, foldable) == ([], []), spec
                elif spec.frozen:
                    assert constant


def _peak_live_rows(sched):
    """The most la | lb and ua | ub values held at once, read off the
    row-level ops.  A value is held from its write to its last read before
    its row is written again; every channel LLR and rate-matched constant is
    held before the first op."""
    n = sched.n_code
    sinks = [int(r) for r in np.append(sched.channel_sinks, sched.const_sinks[0]) if r >= n]
    events = ([], [])  # per file: (op index, is a write, row)
    for i, (kind, e, la, lb, ua, ub, dst, dst_b) in enumerate(sched.ops):
        if kind in (_F, _G, _ADD):
            events[0].extend([(i, 0, la), (i, 0, lb), (i, 1, dst)])
        if kind == _DEC:
            events[0].append((i, 0, la))
        if kind in (_G, _XOR):
            events[1].append((i, 0, ua))
        if kind == _XOR:
            events[1].append((i, 0, ub))
        if kind in (_XOR, _DEC) and dst >= 0:
            events[1].append((i, 1, dst))
    peaks = []
    for f, low in ((0, n), (1, 0)):
        written = {r: -1 for r in sinks} if f == 0 else {}
        last_read = {}  # (row, write index) -> index of its last read
        for i, is_write, r in sorted(events[f]):
            if r < low:
                continue
            if is_write:
                written[r] = i
            else:
                last_read[(r, written[r])] = i
        held = np.zeros(len(sched.ops) + 1, dtype=np.int64)  # after op t, at t + 1
        for (r, w), end in last_read.items():
            held[w + 1:end + 1] += 1
        held[0] = len(sinks) if f == 0 else 0
        peaks.append(int(held.max()))
    return peaks


def test_rows_equal_peak_live_values(rng, stc320):
    """Linear scan wastes no row: each file has as many rows as values are
    ever held at once, in the full and in the pruned schedule, for full-length
    and for transmitted-length LLRs."""
    awgn = channel_from_snr_db(1.0)
    baselines = [build_baseline(kind, 320, 160, awgn) for kind in ("qup", "brs")]
    specs = [stc320] + baselines
    for _ in range(40):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(0, n + 1))
        info = rng.choice(np.arange(1, n + 1), size=k, replace=False)
        specs.append(CodeSpec(CouplingSequence(n, O.random_valid_pairs(rng, n)),
                              tuple(sorted(info.tolist()))))
    for spec in specs:
        for pruned in (False, True):
            sched = compile_schedule(spec.sequence, spec.frozen, pruned=pruned)
            assert _peak_live_rows(sched) == [_la_lb_rows(sched), sched.n_hard]
    for spec in baselines:
        for pruned in (False, True):
            sched = compile_schedule(spec.sequence, spec.frozen, pruned, spec.rate_match)
            assert _peak_live_rows(sched) == [_la_lb_rows(sched), sched.n_hard]


def test_doubly_shortened_pairs_free_their_row_once(rng):
    """Regular codes shortened at a tail: the last pairs read the pruned
    schedule's one shortened register at both ends, and an op that reads it
    twice frees its row once.  No live value is overwritten, so the
    information decisions' LLRs equal those of the full schedule on the
    lifted LLRs, and each file has as many rows as values held at once."""
    for m in (2, 3, 4):
        n = 1 << m
        seq = make_regular_sequence(m)
        for s in range(2, n):
            info = tuple(range(1, n - s + 1))
            tail = RateMatch("shorten", frozenset(range(n - s + 1, n + 1)))
            spec = CodeSpec(seq, info, rate_match=tail)
            rm_encode(spec, np.zeros(len(info), dtype=np.uint8))  # the tail encodes to zero
            sched = compile_schedule(seq, spec.frozen, pruned=True, rate_match=spec.rate_match)
            assert _peak_live_rows(sched) == [_la_lb_rows(sched), sched.n_hard]
            y = rng.normal(size=(32, spec.outer_length)) * 2
            u, _, dec, _ = _execute(sched, y, "minsum")
            want_u, _, want, _ = _execute(schedule_for(spec), rm_llrs(spec, y), "minsum")
            assert np.array_equal(u, want_u), (n, s)
            assert np.array_equal(dec[:len(info)], want[:len(info)]), (n, s)


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


def test_minsum_copysign_equals_sign_product():
    """Min-sum's one copysign gives the values of the two sign factors, on
    zeros, +/-LLR_SAT, subnormals and products that underflow."""
    vals = np.array([0.0, -0.0, 1e-320, -1e-320, 5e-324, 1e-200, -1e-200, 1e-160,
                     0.5, -2.0, 3.0, LLR_SAT, -LLR_SAT, 7 * LLR_SAT, -1e150])
    la, lb = (a.ravel() for a in np.meshgrid(vals, vals))
    ref = np.sign(la) * np.sign(lb) * np.minimum(np.abs(la), np.abs(lb))
    got = f_minsum(la, lb)
    assert (got == ref).all()
    assert (np.signbit(got) == np.signbit(ref))[ref != 0].all()
    assert f_minsum(1e-200, -1e-200) == -1e-200  # the product underflows to -0.0


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


def _rate_matched_llrs(rng, spec, bsz, bec):
    """(B, N_kept) LLRs of the transmitted positions, with exact zeros."""
    shape = (bsz, spec.outer_length)
    if bec:
        llrs = np.where(rng.random(shape) < 0.5, LLR_SAT, -LLR_SAT)
        llrs[rng.random(shape) < 0.4] = 0.0
    else:
        llrs = rng.normal(size=shape) * 2
        llrs[rng.random(shape) < 0.05] = 0.0
    return llrs


def test_transmitted_llrs_decode_like_lifted_ones(rng):
    """Transmitted-length LLRs, seeded through the rate-matched sink map,
    decode like the same LLRs lifted to full length by ``rm_llrs``: pruned
    SC decides the same bits, full SC also gives equal decision LLRs, and
    SCL with L = 4 the same paths and metrics."""
    awgn = channel_from_snr_db(1.0)
    specs = [build_baseline(kind, n, n // 2, awgn) for kind in ("qup", "brs") for n in (40, 320)]
    specs += [_random_rate_matched(rng, 30) for _ in range(40)]
    for spec in specs:
        big = spec.n_code > 64
        for bec in (False, True):
            y = _rate_matched_llrs(rng, spec, 256 if big else 24, bec)
            lifted = rm_llrs(spec, y)
            for f_mode in ("exact", "minsum"):
                full = sc_decode_batch(spec, lifted, f_mode)
                got = sc_decode_batch(spec, y, f_mode)
                assert np.array_equal(got.u_hat, full.u_hat)
                assert np.array_equal(got.decision_llrs, full.decision_llrs)
                pruned = sc_decode_batch(spec, y, f_mode, decision_llrs=False)
                assert np.array_equal(pruned.u_hat, full.u_hat), (spec, bec, f_mode)
            part = slice(0, 16) if big else slice(None)
            want = scl_decode_batch(spec, lifted[part], 4)
            got = scl_decode_batch(spec, y[part], 4)
            assert np.array_equal(got.info_bits, want.info_bits)
            assert np.array_equal(got.metrics, want.metrics)
            assert np.array_equal(got.selected, want.selected)


def test_transmitted_llrs_reject_nan_and_saturate_inf(rng):
    spec = build_baseline("qup", 40, 20, channel_from_snr_db(1.0))
    y = rng.normal(size=(3, spec.outer_length))
    bad = y.copy()
    bad[1, 2] = np.nan
    for call in (lambda v: sc_decode_batch(spec, v, decision_llrs=False),
                 lambda v: sc_decode_batch(spec, v), lambda v: scl_decode_batch(spec, v, 2)):
        with pytest.raises(ValueError, match="NaN"):
            call(bad)
    inf = y.copy()
    inf[0, 1], inf[2, 4] = np.inf, -np.inf
    sat = np.where(np.isinf(inf), np.copysign(LLR_SAT, inf), inf)
    for decision_llrs in (True, False):
        got = sc_decode_batch(spec, inf, decision_llrs=decision_llrs)
        want = sc_decode_batch(spec, sat, decision_llrs=decision_llrs)
        assert np.array_equal(got.u_hat, want.u_hat)
    assert np.isfinite(sc_decode_batch(spec, inf).decision_llrs).all()
    with pytest.raises(ValueError, match="expected 40 or 64 LLRs"):
        sc_decode_batch(spec, np.zeros((1, 41)))


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


def test_decoders_reject_unknown_f_rule(rng):
    spec = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    llrs = rng.normal(size=(2, 5))
    for call in (lambda: sc_decode_batch(spec, llrs, f_mode="exactt"),
                 lambda: scl_decode_batch(spec, llrs, 4, f_mode="exactt"),
                 lambda: sc_trace(spec, llrs[0], f_mode="exactt")):
        with pytest.raises(ValueError, match="'exact' or 'minsum'"):
            call()


def test_list_size_must_be_integer(rng):
    spec = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    llrs = rng.normal(size=(3, 5))
    for size in (2.0, 2.5, "2", 0, -1):
        with pytest.raises(ValueError, match="list size"):
            scl_decode_batch(spec, llrs, size)
    got, want = scl_decode_batch(spec, llrs, np.int64(2)), scl_decode_batch(spec, llrs, 2)
    assert (got.info_bits == want.info_bits).all()
    assert np.array_equal(got.metrics, want.metrics)


def test_forced_u_must_be_bits(rng):
    spec = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    llrs = rng.normal(size=(1, 5))
    for bad in ([[2, 2, 2, 2, 2]], [[0, 1, 0.5, 1, 0]], [[0, 1, 0, 1]],
                np.zeros((2, 5), dtype=np.uint8)):
        with pytest.raises(ValueError, match="forced_u"):
            sc_decode_batch(spec, llrs, forced_u=bad)
    u = np.array([1, 0, 1, 1, 0])
    assert (sc_decode_batch(spec, llrs, forced_u=u).u_hat == u).all()


def test_scl_path_slots_capped_at_two_to_k(rng):
    """A list above 2^K decodes as the full list, in 2^K path slots."""
    spec = CodeSpec(CouplingSequence(5, V.EX5_PAIRS), V.EX5_INFO)
    llrs = rng.normal(size=(4, 5)) * 2
    want = scl_decode_batch(spec, llrs, 4)
    scl_decode_batch(spec, llrs, 1 << 16)  # compiles and caches the schedule
    tracemalloc.start()
    try:
        got = scl_decode_batch(spec, llrs, 1 << 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got.info_bits == want.info_bits).all()
    assert np.array_equal(got.metrics, want.metrics)
    assert (got.selected == want.selected).all()
    assert peak < 64 * 1024


def test_scl_on_codes_without_pairs(rng):
    """With no pairs there are no hard rows, and list decoding still runs."""
    for n, info in ((1, (1,)), (3, (1, 3))):
        spec = CodeSpec(CouplingSequence(n, np.zeros((0, 2), dtype=np.int64)), info)
        llrs = rng.normal(size=(4, n))
        res = scl_decode_batch(spec, llrs, 4)
        # uncoded bits: the best path is the hard decision on each info bit
        assert (res.chosen_bits == (llrs[:, np.asarray(info) - 1] < 0)).all()
