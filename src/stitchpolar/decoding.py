"""Successive-cancellation decoding over compiled schedules.

The decoder is message passing on the sequence's factor graph.  Every pair
element owns two LLR registers (a side, b side) and two hard registers.  A
schedule is the event-driven firing order: channel LLRs enter at each index's
last element, f results travel toward the decision end of the a chain, g
results toward the decision end of the b chain, decisions and partial sums
travel back toward the channel.  The order is computed once per code and
reused; executing it is a flat loop of vectorized ops over a batch of words
(SC) or over a batch times a path list (SCL).

SCL path state is register-major: a soft file with rows la | lb | dec and a
hard file with rows ua | ub, each (rows, B, L), so a register is one
contiguous (B, L) block and ops act on its first npath path slots.  Ranked
paths map to slots through a (B, npath) table, and metrics are kept in slot
order.  At an information decision a source slot keeps its first surviving
extension in place and each further one is copied into a free slot, moving
only the registers the liveness pass marks live; nothing is zeroed, since
every other register is written before it is read.  Each information decision
records (bit index, source rank, bit), and one backward traceback from the
final ranking rebuilds the information bits (frozen bits are 0 on all paths).
Per chunk SCL holds about B * L * (18 P + 8 N + 9 K) bytes for P pairs,
N positions and K information bits: 0.18 MB per word at (320,160) with
P = 1044 and L = 8, so the SC-sized default chunk of 4096 needs 750 MB.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .codes import CodeSpec, crc_check
from .sequences import CouplingSequence, validate

LLR_SAT = float(2 ** 20)

_F, _G, _XOR, _DEC = 0, 1, 2, 3
_TO_LA, _TO_LB, _TO_UA, _TO_UB, _TO_DEC, _TO_X = 0, 1, 2, 3, 4, 5


@dataclass(frozen=True)
class _Op:
    kind: int
    elem: int            # pair element for f/g/xor, bit index (0-based) for dec
    dst: tuple           # (route, idx) for f/g and dec; unused for xor
    dst_b: tuple = None  # second output of xor, (route, idx)
    live: tuple = None   # for dec ops: (soft, hard) register rows to move


class DecodeSchedule:
    """Compiled op order for one coupling sequence and frozen set."""

    def __init__(self, seq, frozen_mask, ops, channel_sinks):
        self.seq = seq
        self.n_code = seq.n_code
        self.frozen_mask = frozen_mask
        self.ops = ops
        # channel_sinks[j]: the (route, idx) register where index j's channel
        # LLR enters, its last element or its decision buffer when untouched
        self.channel_sinks = channel_sinks

    def __len__(self):
        return len(self.ops)

    def as_tuples(self):
        """Human-readable op list: (a, b, 'f'|'g'|'xor') and (i, 'd'), 1-based."""
        names = {_F: "f", _G: "g", _XOR: "xor"}
        out = []
        pairs = self.seq.pairs
        for op in self.ops:
            if op.kind == _DEC:
                out.append((op.elem + 1, "d"))
            else:
                a, b = pairs[op.elem]
                out.append((int(a), int(b), names[op.kind]))
        return out


def compile_schedule(seq: CouplingSequence, frozen) -> DecodeSchedule:
    """Event-driven decode order for a valid sequence.

    Channel LLRs are delivered in index order; each message fires at most one
    op, and ready ops run first come first served.  The result interleaves
    the per-index chains exactly as the serial decoder must: 3n + N ops, each
    f/g/xor once per element and one decision per index.
    """
    res = validate(seq)
    if not res.valid:
        raise ValueError(f"sequence not decodable (pair {res.first_bad})")
    n_code = seq.n_code
    pairs = seq.pairs
    n_elem = pairs.shape[0]

    frozen_mask = np.zeros(n_code, dtype=bool)
    for i in frozen:
        frozen_mask[i - 1] = True

    # chains[j] = [(elem, 0 for a side | 1 for b side), ...] in listed order
    chains = [[] for _ in range(n_code)]
    for e in range(n_elem):
        chains[pairs[e, 0] - 1].append((e, 0))
        chains[pairs[e, 1] - 1].append((e, 1))

    pos_a = np.zeros(n_elem, dtype=np.int64)
    pos_b = np.zeros(n_elem, dtype=np.int64)
    for j, ch in enumerate(chains):
        for p, (e, side) in enumerate(ch):
            (pos_a if side == 0 else pos_b)[e] = p

    def up_route(j, p):
        # toward the decision end of index j's chain
        if p == 0:
            return (_TO_DEC, j)
        e, side = chains[j][p - 1]
        return (_TO_LA if side == 0 else _TO_LB, e)

    def down_route(j, p):
        # toward the channel end of index j's chain
        if p == len(chains[j]) - 1:
            return (_TO_X, j)
        e, side = chains[j][p + 1]
        return (_TO_UA if side == 0 else _TO_UB, e)

    sinks = [(_TO_DEC, j) if not ch else
             (_TO_LA if ch[-1][1] == 0 else _TO_LB, ch[-1][0])
             for j, ch in enumerate(chains)]

    have = np.zeros((n_elem, 4), dtype=bool)  # la, lb, ua, ub
    queue = deque()
    ops = []

    def deliver_llr(route, idx):
        if route == _TO_DEC:
            queue.append((_DEC, idx))
            return
        slot = 0 if route == _TO_LA else 1
        have[idx, slot] = True
        if have[idx, 0] and have[idx, 1]:
            queue.append((_F, idx))

    def deliver_u(route, idx):
        if route == _TO_X:
            return
        slot = 2 if route == _TO_UA else 3
        have[idx, slot] = True
        if route == _TO_UA:
            queue.append((_G, idx))
        elif have[idx, 2] and have[idx, 3]:
            queue.append((_XOR, idx))

    for route, idx in sinks:
        deliver_llr(route, idx)

    while queue:
        kind, idx = queue.popleft()
        if kind == _F:
            j = int(pairs[idx, 0]) - 1
            dst = up_route(j, pos_a[idx])
            ops.append(_Op(_F, idx, dst))
            deliver_llr(*dst)
        elif kind == _G:
            j = int(pairs[idx, 1]) - 1
            dst = up_route(j, pos_b[idx])
            ops.append(_Op(_G, idx, dst))
            deliver_llr(*dst)
        elif kind == _DEC:
            ch = chains[idx]
            if ch:
                e, side = ch[0]
                dst = (_TO_UA if side == 0 else _TO_UB, e)
            else:
                dst = (_TO_X, idx)
            ops.append(_Op(_DEC, idx, dst))
            deliver_u(*dst)
        else:
            ja = int(pairs[idx, 0]) - 1
            jb = int(pairs[idx, 1]) - 1
            dst_a = down_route(ja, pos_a[idx])
            dst_b = down_route(jb, pos_b[idx])
            ops.append(_Op(_XOR, idx, dst_a, dst_b))
            deliver_u(*dst_a)
            deliver_u(*dst_b)

    if len(ops) != 3 * n_elem + n_code:
        raise ValueError("schedule stalled; sequence has a dependency cycle")
    ops = _attach_liveness(ops, n_elem, n_code)
    return DecodeSchedule(seq, frozen_mask, ops, sinks)


def _attach_liveness(ops, n_elem, n_code):
    """Record, at each decision, which registers a path copy must move.

    Rows number the SCL register files, soft la | lb | dec and hard ua | ub
    (la e -> e, lb e -> P + e, dec j -> 2P + j; ua e -> e, ub e -> P + e).
    A register is live at time t when an op wrote it before t and it is read
    after t: La/Lb die at their g, Ua/Ub at their xor, a decision buffer at
    its decision.  Channel-seeded registers are never rewritten and hold the
    same value on every path, so they are never moved.
    """
    rows = {_TO_LA: 0, _TO_LB: n_elem, _TO_DEC: 2 * n_elem,
            _TO_UA: 0, _TO_UB: n_elem}
    soft_w = np.full(2 * n_elem + n_code, -1)    # op write time, -1 for none
    hard_w = np.full(2 * n_elem, -1)
    soft_end = np.full(2 * n_elem + n_code, -1)  # time of the last read
    hard_end = np.full(2 * n_elem, -1)
    for t, op in enumerate(ops):
        e = op.elem
        if op.kind == _G:
            soft_end[[e, n_elem + e]] = t
        elif op.kind == _XOR:
            hard_end[[e, n_elem + e]] = t
        elif op.kind == _DEC:
            soft_end[2 * n_elem + e] = t
        for route, idx in (op.dst, op.dst_b) if op.kind == _XOR else (op.dst,):
            if route != _TO_X:
                w = hard_w if route in (_TO_UA, _TO_UB) else soft_w
                w[rows[route] + idx] = t
    out = []
    for t, op in enumerate(ops):
        if op.kind == _DEC:
            live = tuple(np.nonzero((w >= 0) & (w < t) & (end > t))[0]
                         for w, end in ((soft_w, soft_end), (hard_w, hard_end)))
            op = _Op(_DEC, op.elem, op.dst, None, live)
        out.append(op)
    return out


@lru_cache(maxsize=128)
def _cached_schedule(seq: CouplingSequence, frozen: tuple) -> DecodeSchedule:
    return compile_schedule(seq, frozen)


def schedule_for(spec: CodeSpec) -> DecodeSchedule:
    return _cached_schedule(spec.sequence, spec.frozen)


def f_exact(la, lb):
    """2 atanh(tanh(la/2) tanh(lb/2)), in the stable max-log-plus-correction form."""
    aa = np.abs(la)
    ab = np.abs(lb)
    mag = (np.minimum(aa, ab) + np.log1p(np.exp(-(aa + ab)))
           - np.log1p(np.exp(-np.abs(aa - ab))))
    return np.sign(la) * np.sign(lb) * mag


def f_minsum(la, lb):
    return np.sign(la) * np.sign(lb) * np.minimum(np.abs(la), np.abs(lb))


_F_RULES = {"exact": f_exact, "minsum": f_minsum}


def _decoder_llrs(spec: CodeSpec, llrs):
    """(B, N) float LLRs; NaN is rejected and +/-inf saturates to +/-LLR_SAT."""
    llrs = np.atleast_2d(np.asarray(llrs, dtype=float))
    if llrs.shape[-1] != spec.n_code:
        raise ValueError(f"expected {spec.n_code} LLRs, got {llrs.shape[-1]}")
    if not np.isfinite(llrs).all():
        if np.isnan(llrs).any():
            raise ValueError("LLRs contain NaN")
        llrs = np.where(np.isinf(llrs), np.copysign(LLR_SAT, llrs), llrs)
    return llrs


@dataclass
class ScBatchResult:
    u_hat: np.ndarray          # (B, N) input-word estimates
    x_hat: np.ndarray          # (B, N) re-encoded codewords
    decision_llrs: np.ndarray  # (B, N)
    info_positions: np.ndarray
    op_outputs: Optional[list] = None

    @property
    def info_bits(self):
        return self.u_hat[:, self.info_positions - 1]


def sc_decode_batch(spec: CodeSpec, llrs, f_mode="exact", forced_u=None,
                    capture=False) -> ScBatchResult:
    """Run SC over a (B, N) LLR batch.

    ``forced_u`` pins every decision to the given bits instead of thresholding
    (genie mode); decision LLRs are still recorded.  ``capture`` keeps each
    op's numeric output for tracing.
    """
    f_rule = _F_RULES[f_mode]
    sched = schedule_for(spec)
    llrs = _decoder_llrs(spec, llrs)
    bsz, n = llrs.shape
    n_elem = len(sched.seq)
    la = np.zeros((bsz, n_elem))
    lb = np.zeros((bsz, n_elem))
    ua = np.zeros((bsz, n_elem), dtype=np.uint8)
    ub = np.zeros((bsz, n_elem), dtype=np.uint8)
    dec = np.zeros((bsz, n))
    u_hat = np.zeros((bsz, n), dtype=np.uint8)
    x_hat = np.zeros((bsz, n), dtype=np.uint8)
    if forced_u is not None:
        forced_u = np.atleast_2d(np.asarray(forced_u, dtype=np.uint8))
    frozen = sched.frozen_mask
    pairs = sched.seq.pairs
    trace = [] if capture else None

    llr_sinks = {_TO_LA: la, _TO_LB: lb, _TO_DEC: dec}
    hard_sinks = {_TO_UA: ua, _TO_UB: ub, _TO_X: x_hat}

    for j, (route, idx) in enumerate(sched.channel_sinks):
        llr_sinks[route][:, idx] = llrs[:, j]

    for op in sched.ops:
        e = op.elem
        if op.kind == _F:
            val = f_rule(la[:, e], lb[:, e])
            route, idx = op.dst
            llr_sinks[route][:, idx] = val
        elif op.kind == _G:
            val = np.where(ua[:, e] == 1, -la[:, e], la[:, e]) + lb[:, e]
            route, idx = op.dst
            llr_sinks[route][:, idx] = val
        elif op.kind == _DEC:
            l_i = dec[:, e]
            if forced_u is not None:
                bits = forced_u[:, e]
            elif frozen[e]:
                bits = np.zeros(bsz, dtype=np.uint8)
            else:
                bits = (l_i < 0).astype(np.uint8)
            u_hat[:, e] = bits
            val = bits
            route, idx = op.dst
            hard_sinks[route][:, idx] = bits
        else:
            va = ua[:, e] ^ ub[:, e]
            vb = ub[:, e]
            route, idx = op.dst
            hard_sinks[route][:, idx] = va
            route_b, idx_b = op.dst_b
            hard_sinks[route_b][:, idx_b] = vb
            val = va
        if capture:
            trace.append(np.array(val, copy=True))

    info_pos = np.asarray(spec.info, dtype=np.int64)
    return ScBatchResult(u_hat, x_hat, dec, info_pos, trace)


def sc_decode(spec: CodeSpec, llrs, f_mode="exact"):
    """Decode one word; returns (info-bit estimates, re-encoded codeword)."""
    res = sc_decode_batch(spec, llrs, f_mode=f_mode)
    return res.info_bits[0], res.x_hat[0]


def sc_trace(spec: CodeSpec, llrs, f_mode="exact"):
    """Single-word decode keeping every op output, for inspection."""
    res = sc_decode_batch(spec, llrs, f_mode=f_mode, capture=True)
    ops = schedule_for(spec).as_tuples()
    outputs = [(op, float(v[0])) for op, v in zip(ops, res.op_outputs)]
    return res, outputs


@dataclass
class SclBatchResult:
    info_bits: np.ndarray   # (B, S, |I|) ranked by path metric
    metrics: np.ndarray     # (B, S)
    selected: np.ndarray    # (B,) index of the returned path
    crc_ok: np.ndarray      # (B,) whether the selected path passed the CRC

    @property
    def chosen_bits(self):
        b = np.arange(self.info_bits.shape[0])
        return self.info_bits[b, self.selected]


def scl_decode_batch(spec: CodeSpec, llrs, list_size, f_mode="exact") -> SclBatchResult:
    """CRC-aided successive cancellation list decoding over a batch.

    Paths duplicate at information bits: candidates are all current paths
    deciding 0 followed by all deciding 1, stable-sorted by path metric, best
    ``list_size`` kept.  The metric grows by |L| whenever a decision opposes
    the LLR sign.  With a CRC configured the best checking path is selected,
    else the metric-best.  The state layout and its memory are described in
    the module docstring.
    """
    if list_size < 1:
        raise ValueError("list size must be at least 1")
    f_rule = _F_RULES[f_mode]
    sched = schedule_for(spec)
    llrs = _decoder_llrs(spec, llrs)
    bsz, n = llrs.shape
    n_elem = len(sched.seq)
    frozen = sched.frozen_mask

    # register-major state: soft rows la | lb | dec, hard rows ua | ub
    soft = np.empty((2 * n_elem + n, bsz, list_size))
    hard = np.empty((2 * n_elem, bsz, list_size), dtype=np.uint8)

    def registers(width):
        s, h = soft[:, :, :width], hard[:, :, :width]
        regs = (s[:n_elem], s[n_elem:2 * n_elem], s[2 * n_elem:], h[:n_elem], h[n_elem:])
        return regs + (dict(zip((_TO_LA, _TO_LB, _TO_DEC, _TO_UA, _TO_UB), regs)),)

    la, lb, dec, ua, ub, to = registers(list_size)
    for j, (route, idx) in enumerate(sched.channel_sinks):
        to[route][idx] = llrs[:, j, None]
    npath = 1
    la, lb, dec, ua, ub, to = registers(npath)
    batch = np.arange(bsz)[:, None]
    slot = np.zeros((bsz, 1), dtype=np.int64)  # path slot of each ranked path
    pm = np.zeros((bsz, 1))                    # path metrics in slot order
    trail = []   # (bit index, source rank, bit) per information decision

    for op in sched.ops:
        e = op.elem
        route, idx = op.dst
        if op.kind == _F:
            to[route][idx] = f_rule(la[e], lb[e])
        elif op.kind == _G:
            to[route][idx] = np.where(ua[e] == 1, -la[e], la[e]) + lb[e]
        elif op.kind == _XOR:
            if route != _TO_X:
                to[route][idx] = ua[e] ^ ub[e]
            route_b, idx_b = op.dst_b
            if route_b != _TO_X:
                to[route_b][idx_b] = ub[e]
        elif frozen[e]:
            l_i = dec[e]
            pm = pm + np.where(l_i < 0, -l_i, 0.0)
            if route != _TO_X:
                to[route][idx] = 0
        else:
            # duplicate in rank order: candidate p decides 0, npath+p decides 1
            l_i = dec[e]
            pen0 = np.where(l_i < 0, -l_i, 0.0)
            pen1 = np.where(l_i > 0, l_i, 0.0)
            cand_pm = np.concatenate([pm + pen0, pm + pen1], axis=1)[
                batch, np.concatenate([slot, slot + npath], axis=1)]
            keep = min(2 * npath, list_size)
            order = np.argsort(cand_pm, axis=1, kind="stable")[:, :keep]
            src = order % npath
            bits = (order >= npath).astype(np.uint8)
            # a source slot keeps its first survivor in place; each further
            # survivor is copied into a slot freed by a dropped path or opened
            phys = slot[batch, src]
            by_slot = np.argsort(phys, axis=1, kind="stable")
            old = phys[batch, by_slot]
            dup = np.zeros(old.shape, dtype=bool)
            dup[:, 1:] = old[:, 1:] == old[:, :-1]
            taken = np.zeros(old.shape, dtype=bool)
            taken[batch, old] = True
            free = np.argsort(taken, axis=1, kind="stable")
            new = old.copy()
            new[dup] = free[batch, np.cumsum(dup, axis=1) - 1][dup]
            base = np.nonzero(dup)[0] * list_size
            for regs, rows in zip((soft, hard), op.live):
                flat = regs.reshape(len(regs), -1)
                flat[rows[:, None], base + new[dup]] = flat[rows[:, None], base + old[dup]]
            slot = np.empty_like(new)
            slot[batch, by_slot] = new
            pm = np.empty((bsz, keep))
            pm[batch, slot] = cand_pm[batch, order]
            trail.append((e, src, bits))
            if keep != npath:
                npath = keep
                la, lb, dec, ua, ub, to = registers(npath)
            if route != _TO_X:
                to[route][idx][batch, slot] = bits

    # frozen-bit penalties after the last duplication can reorder paths
    pm = pm[batch, slot]
    order = np.argsort(pm, axis=1, kind="stable")
    pm = pm[batch, order]
    info_pos = np.asarray(spec.info, dtype=np.int64) - 1
    info_bits = np.empty((bsz, npath, info_pos.size), dtype=np.uint8)
    rank = order
    for e, src, bits in reversed(trail):
        info_bits[:, :, np.searchsorted(info_pos, e)] = bits[batch, rank]
        rank = src[batch, rank]
    if spec.crc is None:
        ok = np.ones((bsz, npath), dtype=bool)
    else:
        ok = crc_check(info_bits.reshape(-1, info_pos.size), spec.crc).reshape(bsz, npath)
    # the first checking path in metric order, else the metric-best
    return SclBatchResult(info_bits, pm, np.argmax(ok, axis=1), ok.any(axis=1))


def scl_decode(spec: CodeSpec, llrs, list_size, f_mode="exact"):
    """Decode one word with SCL; returns ranked (info bits, metric) pairs
    plus the index of the CRC-selected path."""
    res = scl_decode_batch(spec, llrs, list_size, f_mode=f_mode)
    ranked = [(res.info_bits[0, p], float(res.metrics[0, p]))
              for p in range(res.info_bits.shape[1])]
    return ranked, int(res.selected[0]), bool(res.crc_ok[0])


def rm_llrs(spec: CodeSpec, llrs):
    """Lift received LLRs from transmitted to full-length positions.

    Punctured positions get LLR 0 (nothing received); shortened positions get
    +LLR_SAT (known zero).  Without rate matching the input passes through.
    Accepts a single vector or a batch with trailing axis of kept length.
    """
    llrs = np.asarray(llrs, dtype=float)
    if spec.rate_match is None:
        if llrs.shape[-1] != spec.n_code:
            raise ValueError("llr length must equal code length")
        return llrs
    kept = spec.kept_positions() - 1
    if llrs.shape[-1] != kept.shape[0]:
        raise ValueError("llr length must equal transmitted length")
    fill = 0.0 if spec.rate_match.mode == "puncture" else LLR_SAT
    out = np.full(llrs.shape[:-1] + (spec.n_code,), fill)
    out[..., kept] = llrs
    return out
