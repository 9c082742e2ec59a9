"""Successive-cancellation decoding over compiled schedules.

The decoder is message passing on the sequence's factor graph.  Every pair
element owns two LLR registers (a side, b side) and two hard registers.  A
schedule is the event-driven firing order: channel LLRs enter at each index's
last element, f results travel toward the decision end of the a chain, g
results toward the decision end of the b chain, decisions and partial sums
travel back toward the channel.  The order is computed once per code and
reused.

One executor runs every schedule: SC is SCL with a list of one.  Its state is
register-major, a soft file and a hard file, each (rows, B, L) for B words
and list size L, so a register is one contiguous (B, L) block and an op is
one vectorized kernel over it.  Registers do not own rows: the compiler
gives each a row by linear scan over its lifetime (Poletto & Sarkar, ACM
TOPLAS 1999), from its write to its last read, and the files have only as
many rows as are ever live at once.  The soft file holds the N decision
buffers in rows 0..N-1, which are pinned (they are the decision LLRs of the
result), then R_s rows for la and lb; the hard file holds R_h rows for ua
and ub.  Every register is written before it is read, so nothing is zeroed.
R_s / R_h are 620 / 320 for the (320,160) stitched code (P = 1044 pairs),
1022 / 512 for the 512-mother QUP and BRS codes of that size (P = 2304), and
2N - 2 / N for a regular code of length N = 2^m: the 2N - 1 LLRs of
semi-parallel SC with the decision buffers apart.

With L = 1 a decision is a threshold written in place into an (N, B) bit
file, and nothing else is kept; the re-encoded codeword is one encode of the
decided bits, made when asked for.  Per chunk SC holds about
B * (8 R_s + R_h + 9 N) bytes: 33 MB for 4096 words of the stitched code,
54 MB for the QUP code and 436 MB for a regular code at N = 4096.

With L > 1 ranked paths map to path slots through a (B, npath) table, and
metrics are kept in slot order.  At an information decision a source slot
keeps its first surviving extension in place and each further one is copied
into a free slot, moving only the rows live at that decision (found once
per schedule, when a list decoder first asks).  Each information decision
records (bit index, source rank, bit), and one backward traceback from the
final ranking rebuilds the decided bits (frozen bits are 0 on all paths).
Per chunk SCL holds about B * L * (8 R_s + R_h + 9 N + 9 K) bytes for K
information bits: 77 kB per word for the stitched code with K = 160 and
L = 8, so the SC-sized default chunk of 4096 needs 315 MB.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .codes import CodeSpec, _apply_sequence, crc_check
from .sequences import CouplingSequence, validate

LLR_SAT = float(2 ** 20)

_F, _G, _XOR, _DEC = 0, 1, 2, 3

# A schedule op is a tuple (kind, elem, la, lb, ua, ub, dst, dst_b) of row
# numbers in the register files.  elem is the pair element of an f/g/xor and
# the 0-based bit index of a decision.  f and g read soft rows la and lb, g
# and xor read hard row ua, xor reads ub, and a decision reads its buffer,
# soft row la = elem.  f and g write soft row dst, a decision and xor's a
# side hard row dst, and xor's b side lands in hard row dst_b.  Unused fields
# are -1, and so is a hard output that reaches the channel end of its chain,
# which is not stored.


class DecodeSchedule:
    """Compiled op order and register allocation for one sequence and frozen set."""

    def __init__(self, seq, frozen_mask, ops, channel_sinks, n_soft, n_hard):
        self.seq = seq
        self.n_code = seq.n_code
        self.frozen_mask = frozen_mask
        self.ops = ops
        # channel_sinks[j]: the soft row where index j's channel LLR enters,
        # its last element or its decision buffer when untouched
        self.channel_sinks = channel_sinks
        self.n_soft = n_soft  # soft file rows: N decision buffers, then la | lb
        self.n_hard = n_hard

    def __len__(self):
        return len(self.ops)

    def as_tuples(self):
        """Human-readable op list: (a, b, 'f'|'g'|'xor') and (i, 'd'), 1-based."""
        names = {_F: "f", _G: "g", _XOR: "xor"}
        out = []
        pairs = self.seq.pairs
        for kind, e, *_ in self.ops:
            if kind == _DEC:
                out.append((e + 1, "d"))
            else:
                a, b = pairs[e]
                out.append((int(a), int(b), names[kind]))
        return out

    @cached_property
    def live(self):
        """Rows a path copy must move at each information decision.

        Maps the bit index to (soft rows, hard rows): the rows held at that
        decision by a register an op wrote and a later op reads.  One sweep
        replays the allocation: la and lb die at their g, ua and ub at their
        xor, a decision buffer at its decision.  Channel-seeded rows hold the
        same value on every path until their g frees them, so they are never
        marked.  Only list decoding reads this; threads that race on the
        first read compute the same value.
        """
        soft = bytearray(self.n_soft)
        hard = bytearray(self.n_hard)
        soft_view = np.frombuffer(soft, dtype=bool)
        hard_view = np.frombuffer(hard, dtype=bool)
        frozen = self.frozen_mask.tolist()
        out = {}
        for kind, e, la, lb, ua, ub, dst, dst_b in self.ops:
            if kind == _F:
                soft[dst] = 1
            elif kind == _G:
                soft[la] = soft[lb] = 0
                soft[dst] = 1
            elif kind == _XOR:
                hard[ua] = hard[ub] = 0
                if dst >= 0:
                    hard[dst] = 1
                if dst_b >= 0:
                    hard[dst_b] = 1
            else:
                soft[la] = 0
                if not frozen[e]:
                    out[e] = (soft_view.nonzero()[0], hard_view.nonzero()[0])
                if dst >= 0:
                    hard[dst] = 1
        return out


def compile_schedule(seq: CouplingSequence, frozen) -> DecodeSchedule:
    """Event-driven decode order and register rows for a valid sequence.

    Channel LLRs are delivered in index order; each message fires at most one
    op, and ready ops run first come first served.  The result interleaves
    the per-index chains exactly as the serial decoder must: 3n + N ops, each
    f/g/xor once per element and one decision per index.

    Rows are allocated by linear scan as the ops are emitted.  Registers die
    where the graph says: la and lb at their g, ua and ub at their xor, so a
    free list suffices and the last row freed is the first reused.  A
    channel-seeded la or lb gets a row before the first op and keeps it to
    its g; the N decision buffers are pinned to soft rows 0..N-1.  f's output
    takes a free row, or a new one.  g's output overwrites lb's row, unless
    it goes to a decision buffer, and xor works in place (the a side's sum
    over ua, the b side's value left in ub).  Both are elementwise, so no op
    reads a value it has overwritten, and only f and the decisions take rows.
    """
    res = validate(seq)
    if not res.valid:
        raise ValueError(f"sequence not decodable (pair {res.first_bad})")
    n_code = seq.n_code
    pairs = seq.pairs.tolist()
    n_elem = len(pairs)
    d0 = 2 * n_elem  # register number of the first decision buffer

    frozen_mask = np.zeros(n_code, dtype=bool)
    for i in frozen:
        frozen_mask[i - 1] = True

    # Registers are numbered la e -> e, lb e -> P + e, dec j -> 2P + j (soft)
    # and ua e -> e, ub e -> P + e (hard).  chains[j]: the registers of index
    # j's chain in listed order.  up[r] and down[r]: the next register toward
    # the decision end (j's decision buffer at the head) and toward the
    # channel end (-1 at the tail).
    chains = [[] for _ in range(n_code)]
    for e, (a, b) in enumerate(pairs):
        chains[a - 1].append(e)
        chains[b - 1].append(n_elem + e)
    up = [0] * d0
    down = [0] * d0
    for j, ch in enumerate(chains):
        for r, r_up, r_down in zip(ch, [d0 + j] + ch, ch[1:] + [-1]):
            up[r] = r_up
            down[r] = r_down

    soft_rows = [-1] * d0  # the row each la | lb (ua | ub) register was placed in
    hard_rows = [-1] * d0
    free_soft = []
    free_hard = []
    n_soft = n_code
    n_hard = 0

    sinks = [ch[-1] if ch else d0 + j for j, ch in enumerate(chains)]
    channel_sinks = []
    for reg in sinks:
        if reg >= d0:
            channel_sinks.append(reg - d0)
        else:
            soft_rows[reg] = n_soft
            channel_sinks.append(n_soft)
            n_soft += 1

    have_soft = bytearray(d0)  # la | lb delivered
    have_hard = bytearray(d0)  # ua | ub delivered
    queue = deque()
    ops = []

    def deliver_llr(reg):
        if reg >= d0:
            queue.append((_DEC, reg - d0))
            return
        have_soft[reg] = 1
        e = reg % n_elem
        if have_soft[e] and have_soft[n_elem + e]:
            queue.append((_F, e))

    def deliver_u(reg):
        if reg < 0:
            return
        have_hard[reg] = 1
        e = reg % n_elem
        if reg < n_elem:
            queue.append((_G, e))
        elif have_hard[e]:
            queue.append((_XOR, e))

    for reg in sinks:
        deliver_llr(reg)

    while queue:
        kind, e = queue.popleft()
        if kind == _F:
            reg = up[e]
            if reg >= d0:
                dst = reg - d0
            elif free_soft:
                dst = soft_rows[reg] = free_soft.pop()
            else:
                dst = soft_rows[reg] = n_soft
                n_soft += 1
            ops.append((_F, e, soft_rows[e], soft_rows[n_elem + e], -1, -1, dst, -1))
            deliver_llr(reg)
        elif kind == _G:
            reg = up[n_elem + e]
            la, lb = soft_rows[e], soft_rows[n_elem + e]
            free_soft.append(la)
            if reg >= d0:
                dst = reg - d0
                free_soft.append(lb)
            else:
                dst = soft_rows[reg] = lb
            ops.append((_G, e, la, lb, hard_rows[e], -1, dst, -1))
            deliver_llr(reg)
        elif kind == _DEC:
            reg = chains[e][0] if chains[e] else -1
            if reg < 0:
                dst = -1
            elif free_hard:
                dst = hard_rows[reg] = free_hard.pop()
            else:
                dst = hard_rows[reg] = n_hard
                n_hard += 1
            ops.append((_DEC, e, e, -1, -1, -1, dst, -1))
            deliver_u(reg)
        else:
            reg, reg_b = down[e], down[n_elem + e]
            ua, ub = hard_rows[e], hard_rows[n_elem + e]
            dst = dst_b = -1
            if reg >= 0:
                dst = hard_rows[reg] = ua
            else:
                free_hard.append(ua)
            if reg_b >= 0:
                dst_b = hard_rows[reg_b] = ub
            else:
                free_hard.append(ub)
            ops.append((_XOR, e, -1, -1, ua, ub, dst, dst_b))
            deliver_u(reg)
            deliver_u(reg_b)

    if len(ops) != 3 * n_elem + n_code:
        raise ValueError("schedule stalled; sequence has a dependency cycle")
    return DecodeSchedule(seq, frozen_mask, ops, np.asarray(channel_sinks, dtype=np.int64),
                          n_soft, n_hard)


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


def _execute(sched: DecodeSchedule, llrs, f_mode, list_size=1, forced_u=None,
             capture=False):
    """Run the schedule over (B, N) LLRs, keeping up to ``list_size`` paths.

    Returns (u, metrics, dec, trace).  ``u`` is (B, S, N): the decided bits
    of the S surviving paths, best metric first.  ``metrics`` is their (B, S)
    path metrics, or None at list size 1, which keeps none.  ``dec`` is the
    (N, B, L) decision-LLR block of the soft file.  At list size 1 only,
    ``forced_u`` pins every decision to the given (B, N) bits (genie mode)
    and ``capture`` lists every op's output in schedule order as ``trace``.
    """
    f_rule = _F_RULES[f_mode]
    bsz, n = llrs.shape
    frozen = sched.frozen_mask
    soft = np.empty((sched.n_soft, bsz, list_size))
    hard = np.empty((sched.n_hard, bsz, list_size), dtype=np.uint8)
    soft[sched.channel_sinks] = llrs.T[:, :, None]
    genie = forced_u is not None
    if list_size == 1:
        u = np.zeros((n, bsz, 1), dtype=np.uint8)
        if genie:
            u[...] = np.atleast_2d(np.asarray(forced_u, dtype=np.uint8)).T[:, :, None]
    else:
        live = sched.live
        batch = np.arange(bsz)[:, None]
        slot = np.zeros((bsz, 1), dtype=np.int64)  # path slot of each ranked path
        pm = np.zeros((bsz, 1))                    # path metrics in slot order
        trail = []   # (bit index, source rank, bit) per information decision
    npath = 1
    s, h = soft[..., :npath], hard[..., :npath]
    trace = [] if capture else None

    for kind, e, la, lb, ua, ub, dst, dst_b in sched.ops:
        if kind == _F:
            val = s[dst] = f_rule(s[la], s[lb])
        elif kind == _G:
            l_a = s[la]
            val = np.add(np.where(h[ua] == 1, -l_a, l_a), s[lb], out=s[dst])
        elif kind == _XOR:
            # in place: the b side's value stays in its row (dst_b is ub)
            val = np.bitwise_xor(h[ua], h[ub], out=h[dst] if dst >= 0 else None)
        else:
            l_i = s[la]
            if list_size == 1:
                val = u[e]
                if not (genie or frozen[e]):
                    np.less(l_i, 0, out=val)
            elif frozen[e]:
                pm += np.where(l_i < 0, -l_i, 0.0)
                val = 0
            else:
                # duplicate in rank order: candidate r decides 0, npath + r decides 1
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
                for regs, rows in zip((soft, hard), live[e]):
                    flat = regs.reshape(len(regs), -1)
                    flat[rows[:, None], base + new[dup]] = flat[rows[:, None], base + old[dup]]
                slot = np.empty_like(new)
                slot[batch, by_slot] = new
                pm = np.empty((bsz, keep))
                pm[batch, slot] = cand_pm[batch, order]
                trail.append((e, src, bits))
                npath = keep
                s, h = soft[..., :npath], hard[..., :npath]
                val = np.empty((bsz, npath), dtype=np.uint8)
                val[batch, slot] = bits
            if dst >= 0:
                h[dst] = val
        if capture:
            trace.append(val[:, 0].copy())

    if list_size == 1:
        return u.transpose(1, 2, 0), None, soft[:n], trace
    # frozen-bit penalties after the last duplication can reorder paths
    pm = pm[batch, slot]
    order = np.argsort(pm, axis=1, kind="stable")
    u = np.zeros((bsz, npath, n), dtype=np.uint8)
    rank = order
    for e, src, bits in reversed(trail):
        u[:, :, e] = bits[batch, rank]
        rank = src[batch, rank]
    return u, pm[batch, order], soft[:n], trace


@dataclass
class ScBatchResult:
    u_hat: np.ndarray          # (B, N) input-word estimates
    decision_llrs: np.ndarray  # (B, N)
    info_positions: np.ndarray
    sequence: CouplingSequence
    op_outputs: Optional[list] = None

    @property
    def info_bits(self):
        return self.u_hat[:, self.info_positions - 1]

    @cached_property
    def x_hat(self):
        """(B, N) re-encoded codewords: one encode of ``u_hat``."""
        return _apply_sequence(self.u_hat.copy(), self.sequence)


def sc_decode_batch(spec: CodeSpec, llrs, f_mode="exact", forced_u=None,
                    capture=False) -> ScBatchResult:
    """Run SC over a (B, N) LLR batch: the executor with a list of one.

    ``forced_u`` pins every decision to the given bits instead of thresholding
    (genie mode); decision LLRs are still recorded.  ``capture`` keeps each
    op's numeric output for tracing.
    """
    u, _, dec, trace = _execute(schedule_for(spec), _decoder_llrs(spec, llrs),
                                f_mode, forced_u=forced_u, capture=capture)
    # a copy, so that the result does not hold the whole soft file
    return ScBatchResult(u[:, 0], dec[:, :, 0].copy().T,
                         np.asarray(spec.info, dtype=np.int64), spec.sequence, trace)


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
    sched = schedule_for(spec)
    u, pm, dec, _ = _execute(sched, _decoder_llrs(spec, llrs), f_mode, list_size)
    if pm is None:
        # one path: only frozen decisions can oppose the LLR sign
        l_f = dec[sched.frozen_mask, :, 0]
        pm = np.where(l_f < 0, -l_f, 0.0).sum(axis=0)[:, None]
    info_pos = np.asarray(spec.info, dtype=np.int64) - 1
    info_bits = u[:, :, info_pos]
    bsz, npath = pm.shape
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
