"""Composition of coupled codes and code families built from it.

Two decodable coupling sequences combine into a longer one by adding fresh
pairs either at the message side (left stitch, duplicating the short code's
input into chosen rows of the long one) or at the channel side (right stitch,
spreading each short-code output over a chosen long-code position).  Scanning
every split point and rate split with density evolution yields, per (N, K),
the best code found this way; a family of such codes then fills the sub-blocks
of a shortened regular transform to reach arbitrary lengths at scale.

The family search costs a few array operations per length, not one evolution
per code.  Each entry records the evolution level of its pairs: its stitch
pairs first (level 0), then its upper and lower parts side by side, one level
deeper.  All n + 1 codes of length n, each under every stitched seeding, then
evolve together in one state array with one gather and one update per level.
The split search for every K of a length is one first-argmin over
E[K, N', K'] = 1 - p_up[K'] p_down[K - K'], +inf where no split exists, which
keeps the earliest (N', K') among equal errors.
"""

from __future__ import annotations

import heapq
import json
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .analysis import count_unpolarized
from .codes import CodeSpec, StructuralError, spec_from_json, spec_to_json
# de_bec and ga_awgn stay importable here: perfbench/spans.py wraps them at this module
from .reliability import (ChannelModel, de_bec, evolve, evolve_stages,  # noqa: F401
                          ga_awgn, initial_values)
from .sequences import (CouplingSequence, brs_pattern, make_regular_sequence,
                        regular_stage_pairs)


def _check_positions(positions, bound, count):
    pos = np.asarray(sorted(int(i) for i in positions), dtype=np.int64)
    if pos.shape[0] != count or np.unique(pos).shape[0] != count:
        raise ValueError(f"expected {count} distinct stitch positions")
    if count and (pos[0] < 1 or pos[-1] > bound):
        raise ValueError("stitch positions out of range")
    return pos


def _concat_parts(parts):
    """Join (pairs, breaks) fragments, shifting break offsets."""
    arrays = [np.zeros((0, 2), dtype=np.int64)]
    breaks = [0]
    for pairs, br in parts:
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.shape[0] == 0:
            continue
        arrays.append(pairs)
        off = breaks[-1]
        for x in np.asarray(br, dtype=np.int64)[1:]:
            breaks.append(off + int(x))
    return np.concatenate(arrays, axis=0), np.asarray(breaks, dtype=np.int64)


def stitch_left(upper: CouplingSequence, lower: CouplingSequence, gamma) -> CouplingSequence:
    """Message-side composition of a short code into a longer one.

    With N' = len(upper) <= N'' = len(lower) and gamma_1 < ... < gamma_N' from
    [N''], upper bit i lands at position gamma_i + i - 1 of the combined index
    space with its duplicate right behind it at gamma_i + i; the remaining
    positions carry the lower code in order.  The stitch pairs come first,
    then the relabeled upper pairs, then the relabeled lower pairs.
    """
    nu, nl = upper.n_code, lower.n_code
    if nu > nl:
        raise ValueError("left stitch requires the upper code to be no longer")
    gam = _check_positions(gamma, nl, nu)
    n = nu + nl
    pos_u = gam + np.arange(nu, dtype=np.int64)
    taken = np.zeros(n + 1, dtype=bool)
    taken[pos_u] = True
    pos_l = np.flatnonzero(~taken[1:]) + 1
    stitch = np.stack([pos_u, pos_u + 1], axis=1)
    pairs, breaks = _concat_parts([
        (stitch, [0, nu]),
        (pos_u[upper.pairs - 1], upper.batch_breaks),
        (pos_l[lower.pairs - 1], lower.batch_breaks),
    ])
    return CouplingSequence(n, pairs, breaks)


def stitch_right(upper: CouplingSequence, lower: CouplingSequence, positions) -> CouplingSequence:
    """Channel-side composition of two codes of any relative size.

    The shorter side contributes t = min(N', N'') stitch pairs; `positions`
    picks the t partner indices on the longer side, in increasing order.  The
    upper pairs come first, then the lower pairs shifted by N', then the
    stitch pairs (i, N' + pos_i) (or (pos_i, N' + i) when N' > N'').
    """
    nu, nl = upper.n_code, lower.n_code
    t = min(nu, nl)
    pos = _check_positions(positions, max(nu, nl), t)
    if nu <= nl:
        stitch = np.stack([np.arange(1, t + 1, dtype=np.int64), pos + nu], axis=1)
    else:
        stitch = np.stack([pos, np.arange(nu + 1, nu + t + 1, dtype=np.int64)], axis=1)
    pairs, breaks = _concat_parts([
        (upper.pairs, upper.batch_breaks),
        (lower.pairs + nu, lower.batch_breaks),
        (stitch, [0, t]),
    ])
    return CouplingSequence(nu + nl, pairs, breaks)


def transform_count(obj):
    """Number of coupling pairs (binary transforms) in a sequence or spec."""
    if isinstance(obj, CodeSpec):
        return len(obj.sequence)
    return len(obj)


@dataclass(frozen=True)
class FamilyEntry:
    spec: CodeSpec
    error: float


class CodeFamily:
    """Best discovered stitched code for every 1 <= N <= max_length, 0 <= K <= N."""

    def __init__(self, max_length, channel: ChannelModel, entries):
        self.max_length = int(max_length)
        self.channel = channel
        self.entries = dict(entries)

    def __contains__(self, key):
        return (int(key[0]), int(key[1])) in self.entries

    def _entry(self, n, k) -> FamilyEntry:
        try:
            return self.entries[(int(n), int(k))]
        except KeyError:
            raise KeyError(f"family has no entry for N={n}, K={k}") from None

    def spec(self, n, k) -> CodeSpec:
        return self._entry(n, k).spec

    def error(self, n, k) -> float:
        return self._entry(n, k).error

    def to_json(self):
        """Family as JSON; each code also keeps its batch breaks, which
        `partially_stitched` interleaves, so a loaded family builds the same
        codes as this one."""
        codes = {}
        for (n, k), ent in sorted(self.entries.items()):
            d = spec_to_json(ent.spec)
            d["batch_breaks"] = ent.spec.sequence.batch_breaks.tolist()
            d["error"] = ent.error
            codes[f"{n},{k}"] = d
        return {"max_len": self.max_length,
                "channel": {"kind": self.channel.kind, "param": self.channel.param},
                "codes": codes}

    @classmethod
    def from_json(cls, d):
        """Inverse of `to_json`; a code without batch breaks derives them."""
        ch = ChannelModel(d["channel"]["kind"], float(d["channel"]["param"]))
        entries = {}
        for key, cd in d["codes"].items():
            n, k = (int(x) for x in key.split(","))
            spec = spec_from_json(cd)
            if "batch_breaks" in cd:
                seq = spec.sequence
                breaks = _checked_breaks(seq.pairs, cd["batch_breaks"])
                spec = replace(spec, sequence=CouplingSequence(seq.n_code, seq.pairs, breaks))
            entries[(n, k)] = FamilyEntry(spec, float(cd.get("error", np.nan)))
        return cls(int(d["max_len"]), ch, entries)


def _checked_breaks(pairs, breaks):
    """Loaded batch breaks, checked to run 0 = o_0 < ... < o_k = P and to
    split the P pairs into runs that touch pairwise-disjoint indices."""
    br = np.asarray(breaks, dtype=np.int64).reshape(-1)
    p = pairs.shape[0]
    if br.size == 0 or br[0] != 0 or br[-1] != p or (p and (np.diff(br) <= 0).any()):
        raise ValueError(f"batch breaks must increase from 0 to {p}")
    run = np.repeat(np.arange(br.size - 1), np.diff(br))
    keys = np.concatenate([run, run]) * (pairs.max(initial=0) + 1) + pairs.T.reshape(-1)
    if np.unique(keys).size != keys.size:
        raise ValueError("a batch of pairs touches an index twice")
    return br


def save_family(family: CodeFamily, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(family.to_json(), fh)


def load_family(path) -> CodeFamily:
    with open(path, encoding="utf-8") as fh:
        return CodeFamily.from_json(json.load(fh))


def _block_success(pe, info):
    """Product-form SC success probability over `info`, per leading index."""
    idx = np.asarray(info, dtype=np.int64) - 1
    if idx.size == 0:
        return np.ones(pe.shape[:-1])
    q = np.clip(1.0 - pe[..., idx], 0.0, 1.0)
    return q.prod(axis=-1)


def _stitch_step_values(channel: ChannelModel):
    """Post-stitch seed values: (degraded upper side, improved lower side)."""
    seq = CouplingSequence(2, [(1, 2)])
    prof = evolve(seq, initial_values(channel, 2), channel.kind)
    return float(prof.values[0]), float(prof.values[1])


def build_family(max_length, channel: ChannelModel = None) -> CodeFamily:
    """Search channel-side compositions for the best code at every (N, K).

    Codes grow recursively: every candidate for length N splits into an upper
    part of length N' and a lower part of length N - N', joined by a right
    stitch on the first t = min(N', N - N') positions of each.  Candidates are
    scored by the product-form block error under density evolution, seeding
    the upper part with the degraded and the lower part with the improved
    stitch-stage value on the first t positions.  Strictly smaller error wins;
    ties keep the earliest (N', K') encountered.
    """
    if channel is None:
        channel = ChannelModel("bec", 0.5)
    max_length = int(max_length)
    if max_length < 1:
        raise ValueError("max_length must be positive")
    kind = channel.kind
    base = initial_values(channel, 1)
    up_val, down_val = _stitch_step_values(channel)

    entries = {}
    levels = {}
    up_tab = {}
    down_tab = {}

    def component_tables(n):
        # success probabilities of C_{n,k} seeded with t stitched positions,
        # indexed [k, t - 1]; only splits with t <= min(n, M - n) ever occur
        t_max = min(n, max_length - n)
        if t_max < 1:
            return
        cols = np.arange(n)[None, :]
        rows = np.arange(1, t_max + 1)[:, None]
        init = np.concatenate([np.where(cols < rows, up_val, base),
                               np.where(cols < rows, down_val, base)])
        # code k occupies state columns k n .. k n + n - 1
        specs = [entries[(n, k)].spec for k in range(n + 1)]
        level = np.concatenate([levels[(n, k)] for k in range(n + 1)])
        order = np.argsort(level, kind="stable")
        offset = np.repeat(np.arange(n + 1) * n, [len(sp.sequence) for sp in specs])
        ab = (np.concatenate([sp.sequence.pairs for sp in specs]) - 1
              + offset[:, None])[order]
        stages = np.split(ab, np.cumsum(np.bincount(level))[:-1])
        pe = evolve_stages(np.tile(init, n + 1), [(st[:, 0], st[:, 1]) for st in stages],
                           kind).pe
        tab = np.empty((n + 1, 2 * t_max))
        for k, sp in enumerate(specs):
            tab[k] = _block_success(pe[:, k * n:(k + 1) * n], sp.info)
        up_tab[n] = tab[:, :t_max]
        down_tab[n] = tab[:, t_max:]

    single = CouplingSequence(1, np.zeros((0, 2), dtype=np.int64))
    entries[(1, 0)] = FamilyEntry(CodeSpec(single, ()), 0.0)
    c11 = CodeSpec(single, (1,))
    e11 = 1.0 - float(_block_success(evolve(single, base, kind).pe, c11.info))
    entries[(1, 1)] = FamilyEntry(c11, e11)
    levels[(1, 0)] = levels[(1, 1)] = np.zeros(0, dtype=np.int64)
    component_tables(1)

    for n in range(2, max_length + 1):
        # p_up[n' - 1, k'] and p_down[n' - 1, j] for a split at upper length n'
        n_up = np.arange(1, n)
        p_up = np.zeros((n - 1, n))
        p_down = np.zeros((n - 1, n))
        for nu in range(1, n):
            t = min(nu, n - nu)
            p_up[nu - 1, :nu + 1] = up_tab[nu][:, t - 1]
            p_down[nu - 1, :n - nu + 1] = down_tab[n - nu][:, t - 1]
        k_up = np.arange(n)
        j = np.arange(n + 1)[:, None, None] - k_up
        ok = (j >= 0) & (j <= (n - n_up)[:, None]) & (k_up <= n_up[:, None])
        prod = p_up * p_down[n_up[:, None] - 1, np.clip(j, 0, n - 1)]
        err = np.where(ok, 1.0 - prod, np.inf).reshape(n + 1, -1)
        # errors lie in [0, 1]; when every split has error 1 the first valid
        # one, (1, max(0, k - (n - 1))), is the sequential scan's fallback
        first = err.argmin(axis=1)
        for k in range(n + 1):
            e_min = float(err[k, first[k]])
            nu, ku = divmod(int(first[k]), n)
            nu += 1
            u_spec = entries[(nu, ku)].spec
            l_spec = entries[(n - nu, k - ku)].spec
            t = min(nu, n - nu)
            seq = stitch_right(u_spec.sequence, l_spec.sequence, range(1, t + 1))
            info = u_spec.info + tuple(i + nu for i in l_spec.info)
            entries[(n, k)] = FamilyEntry(CodeSpec(seq, info), e_min)
            levels[(n, k)] = np.concatenate([levels[(nu, ku)] + 1,
                                             levels[(n - nu, k - ku)] + 1,
                                             np.zeros(t, dtype=np.int64)])
        component_tables(n)

    return CodeFamily(max_length, channel, entries)


def allocate_rates(block_profiles, block_lengths, k, family: CodeFamily,
                   channel: ChannelModel = None):
    """Greedy split of k info bits over sub-blocks with given input reliability.

    Starting from all-frozen blocks, each step grants one bit to the block
    whose success probability shrinks least, i.e. the largest ratio
    p(N_i, K_i + 1) / p(N_i, K_i), where p comes from density evolution on the
    family code seeded with that block's reliability profile.  Ties go to the
    lowest block index.
    """
    if channel is None:
        channel = family.channel
    kind = channel.kind
    lengths = [int(x) for x in block_lengths]
    if len(block_profiles) != len(lengths):
        raise ValueError("one profile per block required")
    if not 0 <= int(k) <= sum(lengths):
        raise ValueError("k out of range")

    seeds = [np.ascontiguousarray(np.asarray(p, dtype=float)) for p in block_profiles]
    for seed, ni in zip(seeds, lengths):
        if seed.shape != (ni,):
            raise ValueError("profile length must match block length")

    # the blocks of one live length evolve together, one batched pass per k;
    # each seed row evolves elementwise, so a block's table is its own
    gains = [None] * len(lengths)
    for ni in set(lengths):
        blocks = [j for j, ln in enumerate(lengths) if ln == ni]
        stack = np.stack([seeds[j] for j in blocks])
        p = np.ones((len(blocks), ni + 1))
        for ki in range(1, ni + 1):
            sp = family.spec(ni, ki)
            p[:, ki] = _block_success(evolve(sp.sequence, stack, kind).pe, sp.info)
        with np.errstate(divide="ignore", invalid="ignore"):
            lp = np.log(p)
            g = lp[:, 1:] - lp[:, :-1]
        g[lp[:, 1:] == -np.inf] = -np.inf
        g[(lp[:, :-1] == -np.inf) & (lp[:, 1:] > -np.inf)] = np.inf
        for j, row in zip(blocks, g):
            gains[j] = row

    dims = [0] * len(lengths)
    heap = [(-g[0], j) for j, g in enumerate(gains) if lengths[j] >= 1]
    heapq.heapify(heap)
    for _ in range(int(k)):
        neg, j = heapq.heappop(heap)
        dims[j] += 1
        if dims[j] < lengths[j]:
            heapq.heappush(heap, (-gains[j][dims[j]], j))
    return dims


@dataclass(frozen=True)
class PartiallyStitchedLayout:
    """Block structure of a partially stitched code over its mother transform."""

    n_code: int
    n_mother: int
    block_size: int
    block_lengths: tuple
    block_dims: tuple
    pattern: tuple

    def to_json(self):
        return {"n": self.n_code, "mother": self.n_mother,
                "block_size": self.block_size,
                "block_lengths": list(self.block_lengths),
                "block_dims": list(self.block_dims),
                "pattern": list(self.pattern)}


def _coarse_stage_batches(n0, block, in_pattern):
    """Cross-block stage pairs over mother indices, coarse to fine, with
    pattern-touching pairs dropped.

    Dropping is sound only if the pattern is closed towards the channel side:
    whenever the message-side index of a stage pair is shortened, so is its
    partner.  Bit-reversal shortening patterns have this property; anything
    else fails loudly.
    """
    batches = []
    span = n0 >> 1
    while span >= block:
        st = regular_stage_pairs(n0, span)
        amask = in_pattern[st[:, 0]]
        bmask = in_pattern[st[:, 1]]
        if bool((amask & ~bmask).any()):
            raise StructuralError(
                "shortening pattern is not closed under the cross-block stages")
        batches.append(st[~(amask | bmask)])
        span >>= 1
    return batches


def _sub_blocks(n, s, family: CodeFamily, channel: ChannelModel):
    """Shared layout of a partially stitched code of length n with 2^s blocks.

    The mother transform has length N0 = 2^ceil(log2 n) and its last N0 - n
    positions in bit-reversal order are shortened.  Returns (N0, s_eff,
    pattern, in_pattern, lengths, coarse, seeds): the effective block
    exponent min(s, log2 N0), the pattern as a set and as a mask over
    0..N0, the live length of each block, the cross-block stage batches, and
    each block's input reliability after those stages.
    """
    n = int(n)
    s = int(s)
    if n < 1:
        raise ValueError("code length must be positive")
    if s < 0 or (1 << s) > family.max_length:
        raise ValueError("sub-block size must fit inside the family")
    m0 = (n - 1).bit_length()
    n0 = 1 << m0
    s_eff = min(s, m0)
    block = 1 << s_eff
    pattern = brs_pattern(n0, n0 - n)

    in_pattern = np.zeros(n0 + 1, dtype=bool)
    if pattern:
        in_pattern[np.asarray(sorted(pattern), dtype=np.int64)] = True
    live = np.flatnonzero(~in_pattern[1:]) + 1
    block_of = (live - 1) >> s_eff
    n_blocks = n0 >> s_eff
    lengths = np.bincount(block_of, minlength=n_blocks)
    if (lengths == 0).any():
        raise StructuralError("a sub-block was shortened away entirely")

    # reliability at the sub-block boundary
    coarse = _coarse_stage_batches(n0, block, in_pattern)
    cpairs, cbreaks = _concat_parts([(st, [0, st.shape[0]]) for st in coarse])
    coarse_seq = CouplingSequence(n0, cpairs, cbreaks)
    init = initial_values(channel, n0, pattern or None, "shorten")
    values = evolve(coarse_seq, init, channel.kind).values
    seeds = np.split(values[live - 1], np.cumsum(lengths)[:-1])
    return n0, s_eff, pattern, in_pattern, lengths, coarse, seeds


def partially_stitched(n, k, s, family: CodeFamily, channel: ChannelModel = None):
    """Family codes in the sub-blocks of a shortened regular transform.

    The mother transform has length N0 = 2^ceil(log2 n); N0 - n positions are
    shortened with the bit-reversal pattern, splitting the rest into
    contiguous sub-blocks of at most 2^s live positions.  Each sub-block
    carries the family code of its live length, and the cross-block stages of
    spans N0/2 down to 2^s couple the blocks.  Rates come from the greedy
    allocator seeded with each block's reliability after the coarse stages.
    Returns (CodeSpec, PartiallyStitchedLayout).
    """
    if channel is None:
        channel = family.channel
    n = int(n)
    k = int(k)
    if not 0 <= k <= n:
        raise ValueError("dimension out of range")
    n0, s_eff, pattern, in_pattern, lengths, coarse, seeds = _sub_blocks(
        n, s, family, channel)
    block = 1 << s_eff
    if (lengths < block // 2).any():
        warnings.warn("sub-block live length below half the block size")
    dims = allocate_rates(seeds, lengths, k, family, channel)

    rank = np.zeros(n0 + 1, dtype=np.int64)
    rank[1:] = np.cumsum(~in_pattern[1:])
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])

    specs = [family.spec(int(nb), int(kb)) for nb, kb in zip(lengths, dims)]
    slice_lists = [sp.sequence.batch_slices() for sp in specs]
    parts = []
    for j in range(max(len(sl) for sl in slice_lists)):
        chunk = []
        for sp, sl, off in zip(specs, slice_lists, offsets):
            if j < len(sl):
                a, b = sl[j]
                chunk.append(sp.sequence.pairs[a:b] + off)
        batch = np.concatenate(chunk)
        parts.append((batch, [0, batch.shape[0]]))
    for st in coarse:
        parts.append((rank[st], [0, st.shape[0]]))
    pairs, breaks = _concat_parts(parts)

    info = []
    for sp, off in zip(specs, offsets):
        info.extend(i + int(off) for i in sp.info)
    spec = CodeSpec(CouplingSequence(n, pairs, breaks), tuple(info))
    layout = PartiallyStitchedLayout(n, n0, block,
                                     tuple(int(x) for x in lengths),
                                     tuple(int(x) for x in dims),
                                     tuple(sorted(pattern)))
    return spec, layout


def stitched_polarization_count(n, s, family: CodeFamily, channel: ChannelModel = None,
                                band=(0.01, 0.99)):
    """Un-polarized count of a partially stitched code with sub-blocks picked
    to polarize hardest.

    Uses the same mother transform, shortening pattern, and sub-block layout
    as partially_stitched, but each sub-block takes whichever family structure
    (any rate at the block's live length, or the plain regular block) leaves
    the fewest bit-channel capacities inside `band` given the block's input
    reliability.  Rate allocation plays no role: the count only depends on the
    transform.  BEC only.  Returns (count, fraction over the n live channels).
    """
    if channel is None:
        channel = family.channel
    _, s_eff, _, _, lengths, _, seeds = _sub_blocks(n, s, family, channel)
    total = 0
    for ni in np.unique(lengths):
        ni = int(ni)
        stack = np.stack([sd for sd, ln in zip(seeds, lengths) if ln == ni])
        cands = [family.spec(ni, ki).sequence for ki in range(ni + 1)]
        if ni == 1 << s_eff:
            cands.insert(0, make_regular_sequence(s_eff))
        counts = np.stack([count_unpolarized(evolve(sq, stack, channel.kind), band)[0]
                           for sq in cands])
        total += int(counts.min(axis=0).sum())
    return total, total / int(n)
