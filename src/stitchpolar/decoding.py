"""Successive-cancellation decoding over compiled schedules.

The decoder is message passing on the sequence's factor graph.  Every pair
element owns two LLR registers (a side, b side) and two hard registers.  A
schedule is the event-driven firing order: channel LLRs enter at each index's
last element, f results travel toward the decision end of the a chain, g
results toward the decision end of the b chain, decisions and partial sums
travel back toward the channel.

A schedule is compiled in three stages, once per code and sink map:
  1. the op order over register numbers, which depends on the sequence only
     (``_op_order``);
  2. for callers that read only the decided bits, a constant and dead-op
     pass (``_prune``).  A forward walk folds structural zeros, the frozen
     bits and the punctured LLRs and what they fix: a g whose partial sum
     is 0 becomes an add, an f with a zero input is zero, an xor with a zero
     side is a renaming, and a decision on a frozen bit or a zero LLR is
     dropped, since the bit file starts at 0.  A backward sweep then keeps
     an op only if its value reaches an information decision: Rate-0
     pruning (Alamdar-Yazdi & Kschischang, IEEE Comm. Lett. 2011) on
     coupling sequences.  At (320,160) it keeps 789/789/470/160/160
     f/g/xor/decision/add ops of the stitched code's 1044 pairs and 320
     bits, 913/913/594/160/160 of the QUP code's 2304 pairs and 512 bits,
     and 1291/1099/780/160/160 of the BRS code's;
  3. row allocation by linear scan over the final list (``_allocate``).
``sc_decode``, ``sc_decode_batch(..., decision_llrs=False)`` and therefore
SC simulation chunks and the ``decode`` command at list size 1 run the
pruned schedule.  ``schedule_for``, genie mode, ``sc_trace`` and list
decoding (L = 1 included, whose metric adds the frozen decisions' LLRs) run
the full one, whose decision LLRs are all computed.

Received LLRs enter through the schedule's sink map, in one transposing
write of the (B, n) input into the soft rows of their sinks.  Full-length
input (n = N) maps LLR j to index j's sink.  A rate-matched code also takes
the transmitted positions only (n = N_kept, what ``rm_encode`` and the
channel give): its schedule fills the shortened sinks with +LLR_SAT and the
punctured ones with 0.  A pruned schedule reads all of them from one shared
row, and folds the punctured zeros, so that only the lb of a g still reads
a zero.  The simulation chunks decode this way; ``rm_llrs``, which builds
the full-length array, is for callers that want it.

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
semi-parallel SC with the decision buffers apart.  Pruned, they are 560 /
95 for the stitched code, 448 / 128 for QUP and 769 / 256 for BRS, and
768 / 128 and 960 / 256 for full-length input, whose rate-matched positions
are not known to be constants.

With L = 1 a decision is a threshold written in place into an (N, B) bit
file, and nothing else is kept; the re-encoded codeword is one encode of the
decided bits, made when asked for.  Per chunk SC holds about
B * (8 R_s + R_h + 9 N) bytes besides the input: 33 MB for 4096 words of
the stitched code, 54 MB for the QUP code and 436 MB for a regular code at
N = 4096.  With the pruned rows that is 31 MB for the stitched code, 34 MB
for QUP and 45 MB for BRS, less the pages of the decision buffers that the
pruned schedule never writes, 8 bytes per word for each decision it dropped
(1.3 kB per word for the stitched code, 2.8 kB for QUP and BRS), save where
a channel LLR enters one directly.

With L > 1 ranked paths map to path slots through a (B, npath) table, and
metrics are kept in slot order.  At an information decision a source slot
keeps its first surviving extension in place and each further one is copied
into a free slot, moving only the rows live at that decision (found once
per schedule, when a list decoder first asks).  Each information decision
records (bit index, source rank, bit), and one backward traceback from the
final ranking rebuilds the decided bits (frozen bits are 0 on all paths).
Per chunk SCL holds about B * L * (8 R_s + R_h + 9 N + 9 K) bytes for K
information bits, with L capped at 2^K, the most paths there can be: 77 kB
per word for the stitched code with K = 160 and L = 8, so the SC-sized
default chunk of 4096 needs 315 MB.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .codes import CodeSpec, _apply_sequence, crc_check
from .sequences import CouplingSequence, validate

LLR_SAT = float(2 ** 20)

_F, _G, _XOR, _DEC, _ADD = 0, 1, 2, 3, 4

# A schedule op is a tuple (kind, elem, la, lb, ua, ub, dst, dst_b) of row
# numbers in the register files.  elem is the pair element of an f/g/xor/add
# and the 0-based bit index of a decision.  f, g and add read soft rows la
# and lb, g and xor read hard row ua, xor reads ub, and a decision reads soft
# row la (its buffer, la = elem, in the full schedule).  An add is a g whose
# ua is known to be 0: la + lb.  f, g and add write soft row dst, a decision
# and xor's a side hard row dst, and xor's b side lands in hard row dst_b.
# Unused fields are -1, and so is a hard output that reaches the channel end
# of its chain, which is not stored.


class DecodeSchedule:
    """Compiled op order and register allocation for one sequence and frozen set."""

    def __init__(self, seq, frozen_mask, ops, channel_sinks, const_sinks, n_soft, n_hard,
                 pruned=False):
        self.seq = seq
        self.n_code = seq.n_code
        self.frozen_mask = frozen_mask
        self.ops = ops
        # channel_sinks[j]: the soft row where the j-th received LLR enters:
        # index j's last element or its decision buffer when untouched, for
        # full-length input, or the j-th transmitted position's for a
        # rate-matched schedule
        self.channel_sinks = channel_sinks
        # (rows, values): the rate-matched sinks an op reads, punctured (0)
        # and shortened (+LLR_SAT), filled before the first op
        self.const_sinks = const_sinks
        self.n_soft = n_soft  # soft file rows: N decision buffers, then la | lb
        self.n_hard = n_hard
        # ops whose values reach only frozen decisions are left out, so the
        # frozen decision buffers hold no LLRs and list decoding cannot run it
        self.pruned = pruned

    def __len__(self):
        return len(self.ops)

    def as_tuples(self):
        """Human-readable op list: (a, b, 'f'|'g'|'add'|'xor') and (i, 'd'), 1-based."""
        names = {_F: "f", _G: "g", _XOR: "xor", _ADD: "add"}
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
        if self.pruned:
            raise ValueError("list decoding needs the full schedule")
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


def _op_order(seq: CouplingSequence):
    """Stage 1: the event-driven op order over register numbers.

    Channel LLRs are delivered in index order; each message fires at most one
    op, and ready ops run first come first served.  The result interleaves
    the per-index chains exactly as the serial decoder must: 3n + N ops, each
    f/g/xor once per element and one decision per index.  The order does not
    depend on the frozen set.

    Registers are numbered la e -> e, lb e -> P + e, decision buffer j ->
    2P + j (soft) and ua e -> e, ub e -> P + e (hard); an op is the tuple of
    the schedule format with register numbers in place of rows.  Returns the
    ops and the soft register where each index's channel LLR enters: its last
    element, or its decision buffer when no pair touches it.
    """
    res = validate(seq)
    if not res.valid:
        raise ValueError(f"sequence not decodable (pair {res.first_bad})")
    n_code = seq.n_code
    pairs = seq.pairs.tolist()
    n_elem = len(pairs)
    d0 = 2 * n_elem

    # chains[j]: the registers of index j's chain in listed order.  up[r] and
    # down[r]: the next register toward the decision end (j's decision buffer
    # at the head) and toward the channel end (-1 at the tail).
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
    sinks = tuple(ch[-1] if ch else d0 + j for j, ch in enumerate(chains))

    have_soft = bytearray(d0)  # la | lb delivered
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
        # ub comes after ua: it derives from the output of e's g, which waits for ua
        if reg >= 0:
            queue.append((_G if reg < n_elem else _XOR, reg % n_elem))

    for reg in sinks:
        deliver_llr(reg)

    while queue:
        kind, e = queue.popleft()
        if kind == _F:
            ops.append((_F, e, e, n_elem + e, -1, -1, up[e], -1))
            deliver_llr(up[e])
        elif kind == _G:
            reg = up[n_elem + e]
            ops.append((_G, e, e, n_elem + e, e, -1, reg, -1))
            deliver_llr(reg)
        elif kind == _DEC:
            reg = chains[e][0] if chains[e] else -1
            ops.append((_DEC, e, d0 + e, -1, -1, -1, reg, -1))
            deliver_u(reg)
        else:
            reg, reg_b = down[e], down[n_elem + e]
            ops.append((_XOR, e, -1, -1, e, n_elem + e, reg, reg_b))
            deliver_u(reg)
            deliver_u(reg_b)

    if len(ops) != 3 * n_elem + n_code:
        raise ValueError("schedule stalled; sequence has a dependency cycle")
    return ops, sinks


def _prune(ops, frozen_mask, rate_sinks, punctured, n_elem):
    """Stage 2: fold structural constants, then drop dead ops.

    The rate-matched sinks ``rate_sinks`` all hold one constant, 0 if
    ``punctured`` and +LLR_SAT if shortened, so they are renamed to one
    register, ``2P + N``, seeded with it.  A forward walk then tracks two
    kinds of structural zero, known from the code alone.  Zero bits are the
    frozen decisions and xors of two zeros; zero LLRs are the punctured
    sinks, an f with a zero input and a g of two zeros.  A g whose ua is
    zero becomes an add, la + lb; a g whose la is zero is lb, by renaming;
    an xor with one zero side passes the other side on; an op whose output
    is a zero is dropped, and so is a decision whose bit is one (frozen, or
    an LLR that is a structural zero): the bit file starts at 0.  Every zero
    LLR is renamed to the punctured sinks' register, which only the lb of a
    g or add still reads.  An xor's b side is ub passed on unchanged, so it
    is renamed too, and a kept xor writes its a side only.

    This arithmetic is exact up to the sign of a zero: f(+/-0, x) is +/-0
    under both f rules (exact f's two log1p terms are then the same
    expression), +/-0 + x is x for x != 0, and a decision on +/-0 is 0,
    since ``np.less(-0.0, 0)`` is False.  So no decided bit changes.

    A backward liveness sweep then keeps an op only if a kept op reads its
    output, and every decision left, since an information decision reads
    its LLR; a decision output nobody reads becomes -1.
    """
    d0 = 2 * n_elem
    const = d0 + len(frozen_mask)           # the rate-matched sinks' register
    zero = const if punctured else None     # the register of every zero LLR
    zero_bit = d0                           # the hard name of every zero bit, never read
    frozen = frozen_mask.tolist()
    soft_name = dict.fromkeys(rate_sinks, const)
    hard_name = {}
    folded = []
    for kind, e, la, lb, ua, ub, dst, dst_b in ops:
        if kind == _XOR:
            ua = hard_name.get(ua, ua)
            ub = hard_name.get(ub, ub)
            if dst_b >= 0:
                hard_name[dst_b] = ub
            if ua == zero_bit or ub == zero_bit:
                if dst >= 0:
                    hard_name[dst] = ub if ua == zero_bit else ua
                continue
            folded.append((_XOR, e, -1, -1, ua, ub, dst, -1))
            continue
        la = soft_name.get(la, la)
        if kind == _DEC:
            if frozen[e] or la == zero:
                if dst >= 0:
                    hard_name[dst] = zero_bit
                continue
            folded.append((_DEC, e, la, -1, -1, -1, dst, -1))
            continue
        lb = soft_name.get(lb, lb)
        if kind == _F:
            if la == zero or lb == zero:
                soft_name[dst] = zero
                continue
            folded.append((_F, e, la, lb, -1, -1, dst, -1))
        elif la == zero:
            soft_name[dst] = lb
        else:
            ua = hard_name.get(ua, ua)
            if ua != zero_bit:
                folded.append((_G, e, la, lb, ua, -1, dst, -1))
            else:
                folded.append((_ADD, e, la, lb, -1, -1, dst, -1))

    soft = bytearray(const + 1)  # live flags
    hard = bytearray(d0)
    kept = []
    for op in reversed(folded):
        kind, e, la, lb, ua, ub, dst, dst_b = op
        if kind == _DEC:
            soft[la] = 1
            if dst >= 0 and not hard[dst]:
                op = (_DEC, e, la, -1, -1, -1, -1, -1)
        elif kind == _XOR:
            if dst < 0 or not hard[dst]:
                continue
            hard[ua] = hard[ub] = 1
        elif not soft[dst]:
            continue
        else:
            soft[la] = soft[lb] = 1
            if kind == _G:
                hard[ua] = 1
        kept.append(op)
    kept.reverse()
    return kept


def _allocate(n_code, n_elem, ops, seeded):
    """Stage 3: rows by linear scan over the final op list.

    A register dies at its last read, so a free list suffices and the last
    row freed is the first reused.  A ``seeded`` register that an op reads
    (a channel sink, or the rate-matched sinks' register) gets a row before
    the first op; the N decision buffers are pinned to soft rows 0..N-1.
    f's output takes a free row, or a new one.  g's and add's output
    overwrites lb's row when lb dies there, unless it goes to a decision
    buffer, and xor's a side overwrites ua's row when ua dies there (the b
    side's value stays in ub's row); otherwise the output takes a free row.
    Every kernel is elementwise, so no op reads a value it has overwritten.
    In the full list la and lb die at their g and ua and ub at their xor;
    pruning can end la and lb at their f, ua at its g, and keep a renamed
    value alive past the op that would have overwritten it.  An op that
    reads the shortened sinks' register as both la and lb frees its row
    once.  Each op is replaced in place by its row-level form, so the two
    lists never coexist.  Returns the ops, the row of each seeded register
    (-1 when no op reads it) and the row counts.
    """
    d0 = 2 * n_elem
    n_regs = d0 + n_code + 1
    last_soft = [-1] * n_regs  # the index of the op that last reads a register
    last_hard = [-1] * d0
    for i, (kind, e, la, lb, ua, ub, dst, dst_b) in enumerate(ops):
        if kind == _DEC:
            last_soft[la] = i
        elif kind == _XOR:
            last_hard[ua] = last_hard[ub] = i
        else:
            last_soft[la] = last_soft[lb] = i
            if kind == _G:
                last_hard[ua] = i
    soft_rows = [-1] * n_regs  # the row each register was placed in
    soft_rows[d0:d0 + n_code] = range(n_code)
    hard_rows = [-1] * d0
    free_soft = []
    free_hard = []
    n_soft = n_code
    n_hard = 0

    def new_soft():
        nonlocal n_soft
        if free_soft:
            return free_soft.pop()
        n_soft += 1
        return n_soft - 1

    def new_hard():
        nonlocal n_hard
        if free_hard:
            return free_hard.pop()
        n_hard += 1
        return n_hard - 1

    for reg in seeded:
        if soft_rows[reg] < 0 and last_soft[reg] >= 0:
            soft_rows[reg] = n_soft
            n_soft += 1
    seeded_rows = [soft_rows[reg] for reg in seeded]

    for i, (kind, e, la, lb, ua, ub, dst, dst_b) in enumerate(ops):
        if kind == _F:
            ra, rb = soft_rows[la], soft_rows[lb]
            free_soft += [soft_rows[r] for r in dict.fromkeys((la, lb)) if last_soft[r] == i]
            if dst < d0:
                soft_rows[dst] = new_soft()
            ops[i] = (_F, e, ra, rb, -1, -1, soft_rows[dst], -1)
        elif kind == _G or kind == _ADD:
            ra, rb = soft_rows[la], soft_rows[lb]
            if last_soft[la] == i and la != lb:
                free_soft.append(ra)
            lb_dies = last_soft[lb] == i
            if dst >= d0:
                if lb_dies:
                    free_soft.append(rb)
            else:
                soft_rows[dst] = rb if lb_dies else new_soft()
            rua = -1
            if kind == _G:
                rua = hard_rows[ua]
                if last_hard[ua] == i:
                    free_hard.append(rua)
            ops[i] = (kind, e, ra, rb, rua, -1, soft_rows[dst], -1)
        elif kind == _DEC:
            ra = soft_rows[la]
            if la < d0 and last_soft[la] == i:
                free_soft.append(ra)
            row = -1
            if dst >= 0:
                row = hard_rows[dst] = new_hard()
            ops[i] = (_DEC, e, ra, -1, -1, -1, row, -1)
        else:
            rua, rub = hard_rows[ua], hard_rows[ub]
            ua_dies = last_hard[ua] == i
            row = row_b = -1
            if dst >= 0:
                row = hard_rows[dst] = rua if ua_dies else new_hard()
            elif ua_dies:
                free_hard.append(rua)
            if dst_b >= 0:
                row_b = hard_rows[dst_b] = rub
            elif last_hard[ub] == i:
                free_hard.append(rub)
            ops[i] = (_XOR, e, -1, -1, rua, rub, row, row_b)
    return ops, seeded_rows, n_soft, n_hard


def compile_schedule(seq: CouplingSequence, frozen, pruned=False,
                     rate_match=None) -> DecodeSchedule:
    """Decode order and register rows for a valid sequence, in three stages:
    the op order (``_op_order``), with ``pruned`` the constant and dead-op
    pass (``_prune``), then the row allocation (``_allocate``).

    The sink map follows ``rate_match``: without one, the received LLRs are
    full length and LLR j enters index j's sink.  With one, they are the
    transmitted positions only; shortened sinks take +LLR_SAT, punctured
    sinks 0, and a pruned schedule reads them all from one row and folds
    the punctured zeros into its ops.
    """
    n_code = seq.n_code
    frozen_mask = np.zeros(n_code, dtype=bool)
    for i in frozen:
        frozen_mask[i - 1] = True
    ops, sinks = _op_order(seq)
    n_elem = len(seq)
    rm = rate_match if rate_match is not None and rate_match.pattern else None
    pattern = np.asarray(sorted(rm.pattern) if rm else [], dtype=np.int64) - 1
    punctured = rm is not None and rm.mode == "puncture"
    if pruned:
        ops = _prune(ops, frozen_mask, [sinks[j] for j in pattern], punctured, n_elem)
    # the last seeded register is the rate-matched sinks' one of a pruned schedule
    ops, rows, n_soft, n_hard = _allocate(n_code, n_elem, ops,
                                          sinks + (2 * n_elem + n_code,))
    rows = np.asarray(rows, dtype=np.int64)
    channel_sinks = rows[np.setdiff1d(np.arange(n_code), pattern)]
    if (channel_sinks < 0).any():
        # a received LLR that no op reads is written to the buffer of a
        # frozen decision, which a pruned schedule drops.  One exists: with
        # every bit an information bit, each LLR reaches a decision via its g.
        channel_sinks[channel_sinks < 0] = np.flatnonzero(frozen_mask)[0]
    const_rows = np.append(rows[pattern], rows[-1])
    const_rows = const_rows[const_rows >= 0]
    const_vals = np.full(const_rows.size, 0.0 if punctured else LLR_SAT)
    return DecodeSchedule(seq, frozen_mask, ops, channel_sinks, (const_rows, const_vals),
                          n_soft, n_hard, pruned)


@lru_cache(maxsize=128)
def _cached_schedule(seq: CouplingSequence, frozen: tuple, pruned=False,
                     rate_match=None) -> DecodeSchedule:
    return compile_schedule(seq, frozen, pruned, rate_match)


def schedule_for(spec: CodeSpec) -> DecodeSchedule:
    """The full schedule of a code for full-length LLRs, which every decoder
    output can use."""
    return _cached_schedule(spec.sequence, spec.frozen, False, None)


def _schedule(spec: CodeSpec, llrs, pruned=False) -> DecodeSchedule:
    """The schedule whose sink map takes ``llrs``: the rate-matched one for
    LLRs of the transmitted length, else the plain one."""
    rm = spec.rate_match if llrs.shape[-1] != spec.n_code else None
    return _cached_schedule(spec.sequence, spec.frozen, pruned, rm)


def f_exact(la, lb):
    """2 atanh(tanh(la/2) tanh(lb/2)), in the stable max-log-plus-correction form.

    The magnitude can round below zero when |la| and |lb| are nearly equal
    and tiny, so the sign is a product of signs, not ``np.copysign``.
    """
    aa = np.abs(la)
    ab = np.abs(lb)
    mag = (np.minimum(aa, ab) + np.log1p(np.exp(-(aa + ab)))
           - np.log1p(np.exp(-np.abs(aa - ab))))
    return np.sign(la) * np.sign(lb) * mag


def f_minsum(la, lb):
    """sign(la) sign(lb) min(|la|, |lb|).  The magnitude is never negative
    and an underflowing product keeps its sign, so one ``np.copysign`` gives
    the same values as the two sign factors."""
    return np.copysign(np.minimum(np.abs(la), np.abs(lb)), la * lb)


_F_RULES = {"exact": f_exact, "minsum": f_minsum}


def _check_decoder(f_mode, list_size=1):
    """Reject an unknown f rule or a list size that is not an integer >= 1."""
    if f_mode not in _F_RULES:
        raise ValueError(f"f_mode must be 'exact' or 'minsum', got {f_mode!r}")
    if not isinstance(list_size, numbers.Integral) or list_size < 1:
        raise ValueError(f"list size must be an integer >= 1, got {list_size!r}")


def _decoder_llrs(spec: CodeSpec, llrs):
    """(B, N) or, for a rate-matched code, (B, N_kept) float LLRs of the
    transmitted positions; NaN is rejected and +/-inf saturates to +/-LLR_SAT."""
    llrs = np.atleast_2d(np.asarray(llrs, dtype=float))
    if llrs.shape[-1] not in (spec.n_code, spec.outer_length):
        lengths = sorted({spec.n_code, spec.outer_length})
        raise ValueError(f"expected {' or '.join(map(str, lengths))} LLRs, "
                         f"got {llrs.shape[-1]}")
    if not np.isfinite(llrs).all():
        if np.isnan(llrs).any():
            raise ValueError("LLRs contain NaN")
        llrs = np.where(np.isinf(llrs), np.copysign(LLR_SAT, llrs), llrs)
    return llrs


def _execute(sched: DecodeSchedule, llrs, f_mode, list_size=1, forced_u=None,
             capture=False):
    """Run the schedule over the LLRs its sink map takes, keeping up to
    ``list_size`` paths.

    Returns (u, metrics, dec, trace).  ``u`` is (B, S, N): the decided bits
    of the S surviving paths, best metric first.  ``metrics`` is their (B, S)
    path metrics, or None at list size 1, which keeps none.  ``dec`` is the
    (N, B, L) decision-LLR block of the soft file; a pruned schedule leaves
    its frozen rows unwritten.  At list size 1 only,
    ``forced_u`` pins every decision to the given (B, N) bits (genie mode)
    and ``capture`` lists every op's output in schedule order as ``trace``.
    The files have min(``list_size``, 2^K) path slots for K information bits.
    """
    f_rule = _F_RULES[f_mode]
    bsz = llrs.shape[0]
    n = sched.n_code
    frozen = sched.frozen_mask
    width = min(list_size, 1 << int(n - frozen.sum()))
    soft = np.empty((sched.n_soft, bsz, width))
    hard = np.empty((sched.n_hard, bsz, width), dtype=np.uint8)
    # one transposing write of the received LLRs, then the rate-matched constants
    soft[sched.channel_sinks] = llrs.T[:, :, None]
    const_rows, const_vals = sched.const_sinks
    soft[const_rows] = const_vals[:, None, None]
    genie = forced_u is not None
    if list_size == 1:
        u = np.zeros((n, bsz, 1), dtype=np.uint8)
        if genie:
            u[...] = forced_u.T[:, :, None]
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
        elif kind == _ADD:
            val = np.add(s[la], s[lb], out=s[dst])
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
                keep = min(2 * npath, width)
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
                base = np.nonzero(dup)[0] * width
                for regs, rows in zip((soft, hard), live[e]):
                    flat = regs.reshape(len(regs), bsz * width)  # -1 fails at 0 rows
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
    decision_llrs: np.ndarray  # (B, N), or None when the decode was pruned
    info_positions: np.ndarray
    sequence: CouplingSequence

    @property
    def info_bits(self):
        return self.u_hat[:, self.info_positions - 1]

    @cached_property
    def x_hat(self):
        """(B, N) re-encoded codewords: one encode of ``u_hat``."""
        return _apply_sequence(self.u_hat.copy(), self.sequence)


def _sc_result(spec: CodeSpec, u, dec) -> ScBatchResult:
    # a copy, so that the result does not hold the whole soft file
    llrs = None if dec is None else dec[:, :, 0].copy().T
    return ScBatchResult(u[:, 0], llrs, np.asarray(spec.info, dtype=np.int64),
                         spec.sequence)


def sc_decode_batch(spec: CodeSpec, llrs, f_mode="exact", forced_u=None, *,
                    decision_llrs=True) -> ScBatchResult:
    """Run SC over a (B, N) LLR batch: the executor with a list of one.

    ``forced_u`` pins every decision to the given (B, N) 0/1 bits instead of
    thresholding (genie mode); decision LLRs are still recorded.  With
    ``decision_llrs=False`` the pruned schedule runs instead: the same bits
    from fewer ops, and the result's ``decision_llrs`` is None.  Genie mode
    exists for its decision LLRs, so it cannot be pruned.
    """
    _check_decoder(f_mode)
    llrs = _decoder_llrs(spec, llrs)
    if forced_u is not None:
        if not decision_llrs:
            raise ValueError("forced_u needs decision_llrs=True")
        forced_u = np.atleast_2d(np.asarray(forced_u))
        shape = (llrs.shape[0], spec.n_code)
        if forced_u.shape != shape or not np.isin(forced_u, (0, 1)).all():
            raise ValueError(f"forced_u must be a {shape} array of 0/1 bits")
    sched = _schedule(spec, llrs, not decision_llrs)
    u, _, dec, _ = _execute(sched, llrs, f_mode, forced_u=forced_u)
    return _sc_result(spec, u, dec if decision_llrs else None)


def sc_decode(spec: CodeSpec, llrs, f_mode="exact"):
    """Decode one word; returns (info-bit estimates, re-encoded codeword)."""
    res = sc_decode_batch(spec, llrs, f_mode=f_mode, decision_llrs=False)
    return res.info_bits[0], res.x_hat[0]


def sc_trace(spec: CodeSpec, llrs, f_mode="exact"):
    """Single-word decode keeping every op output, for inspection."""
    _check_decoder(f_mode)
    llrs = _decoder_llrs(spec, llrs)
    sched = _schedule(spec, llrs)
    u, _, dec, trace = _execute(sched, llrs, f_mode, capture=True)
    outputs = [(op, float(v[0])) for op, v in zip(sched.as_tuples(), trace)]
    return _sc_result(spec, u, dec), outputs


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
    _check_decoder(f_mode, list_size)
    llrs = _decoder_llrs(spec, llrs)
    sched = _schedule(spec, llrs)
    u, pm, dec, _ = _execute(sched, llrs, f_mode, list_size)
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
    if llrs.shape[-1] != spec.outer_length:
        raise ValueError(f"expected {spec.outer_length} llrs, got {llrs.shape[-1]}")
    if spec.rate_match is None:
        return llrs
    kept = spec.kept_positions() - 1
    fill = 0.0 if spec.rate_match.mode == "puncture" else LLR_SAT
    out = np.full(llrs.shape[:-1] + (spec.n_code,), fill)
    out[..., kept] = llrs
    return out
