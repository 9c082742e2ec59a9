"""Coupling sequences and rate-matching patterns.

A length-N code structure is an ordered list of index pairs (a, b) with
1 <= a < b <= N.  Encoding applies u_a <- u_a xor u_b for each pair in listed
order.  The regular polar code is the special case whose pairs enumerate the
butterfly stages of F^(x m).  Indices are 1-based in all public values to match
standard polar-coding notation; kernels convert to 0-based internally.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np


class CouplingSequence:
    """Ordered pairs (a, b) over 1..n_code, applied as u_a ^= u_b.

    ``batch_breaks`` partitions the pair list into runs whose pairs touch
    pairwise-disjoint indices, so each run can be applied with one vectorized
    gather/xor.  Constructors that know the structure (regular stages, stitch
    composition) pass the partition in; otherwise it is derived greedily.
    """

    __slots__ = ("n_code", "pairs", "_breaks")

    def __init__(self, n_code, pairs, batch_breaks=None):
        n_code = int(n_code)
        if n_code < 1:
            raise ValueError("n_code must be positive")
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).copy()
        if arr.size:
            a, b = arr[:, 0], arr[:, 1]
            if a.min() < 1 or b.max() > n_code or (a >= b).any():
                raise ValueError("pairs must satisfy 1 <= a < b <= n_code")
        arr.setflags(write=False)
        self.n_code = n_code
        self.pairs = arr
        if batch_breaks is not None:
            batch_breaks = np.asarray(batch_breaks, dtype=np.int64)
        self._breaks = batch_breaks

    def __len__(self):
        return self.pairs.shape[0]

    def __eq__(self, other):
        if not isinstance(other, CouplingSequence):
            return NotImplemented
        return self.n_code == other.n_code and np.array_equal(self.pairs, other.pairs)

    def __hash__(self):
        return hash((self.n_code, self.pairs.tobytes()))

    def __repr__(self):
        return f"CouplingSequence(N={self.n_code}, n={len(self)})"

    @property
    def batch_breaks(self):
        """Offsets 0 = o_0 < ... < o_k = n delimiting disjoint-pair runs."""
        if self._breaks is None:
            self._breaks = _greedy_breaks(self.n_code, self.pairs)
        return self._breaks

    def batch_slices(self):
        br = self.batch_breaks
        return [(int(br[i]), int(br[i + 1])) for i in range(len(br) - 1)]


def _greedy_breaks(n_code, pairs):
    breaks = [0]
    seen = np.zeros(n_code + 1, dtype=bool)
    for i in range(pairs.shape[0]):
        a, b = pairs[i, 0], pairs[i, 1]
        if seen[a] or seen[b]:
            breaks.append(i)
            seen[:] = False
        seen[a] = True
        seen[b] = True
    breaks.append(pairs.shape[0])
    return np.asarray(breaks, dtype=np.int64)


def regular_stage_pairs(n, span):
    """Pairs (j, j+span) of the span-`span` butterfly stage over 1..n, in order.

    The stage splits 1..n into blocks of 2*span and couples the two halves of
    each block: (base+1, base+1+span), ..., (base+span, base+2*span).
    """
    if n % (2 * span):
        raise ValueError("span must divide n/2")
    base = np.arange(0, n, 2 * span, dtype=np.int64).repeat(span)
    j = np.tile(np.arange(1, span + 1, dtype=np.int64), n // (2 * span))
    a = base + j
    return np.stack([a, a + span], axis=1)


def make_regular_sequence(m):
    """Coupling sequence of the length-2^m regular polar code.

    Stages run from span N/2 down to span 1, so the listing starts
    (1, N/2+1), (2, N/2+2), ... and ends with (N-1, N).  The generator matrix
    of the result is F^(x m).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    n = 1 << m
    chunks = []
    breaks = [0]
    span = n >> 1
    while span >= 1:
        stage = regular_stage_pairs(n, span)
        chunks.append(stage)
        breaks.append(breaks[-1] + stage.shape[0])
        span >>= 1
    pairs = np.concatenate(chunks, axis=0) if chunks else np.zeros((0, 2), np.int64)
    return CouplingSequence(n, pairs, batch_breaks=breaks)


def bit_reversal_index(z, m):
    """Index whose m-bit binary expansion is that of z reversed (1-based)."""
    n = 1 << m
    if not 1 <= z <= n:
        raise ValueError(f"index {z} out of range 1..{n}")
    return int(bit_reversal_permutation(m)[z - 1])


def bit_reversal_permutation(m):
    """Array q' with q'[j-1] = bit_reversal_index(j, m), 1-based values."""
    n = 1 << m
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(m):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev + 1


def _check_mother_length(n0):
    m = n0.bit_length() - 1
    if n0 < 1 or (1 << m) != n0:
        raise ValueError("mother length must be a power of two")
    return m


def qup_pattern(n0, p):
    """Quasi-uniform puncturing pattern: first p entries of the bit-reversal order.

    These are the bit-reversed images of input indices 1..p (Niu, Chen & Lin,
    ICC 2013), the natural-domain positions a punctured mother code drops.
    """
    m = _check_mother_length(n0)
    if not 0 <= p < n0:
        raise ValueError("puncture count must satisfy 0 <= p < N0")
    return frozenset(int(v) for v in bit_reversal_permutation(m)[:p])


def brs_pattern(n0, s):
    """Bit-reversal shortening pattern: last s entries of the bit-reversal order."""
    m = _check_mother_length(n0)
    if not 0 <= s < n0:
        raise ValueError("shorten count must satisfy 0 <= s < N0")
    return frozenset(int(v) for v in bit_reversal_permutation(m)[n0 - s:])


class ValidationResult(NamedTuple):
    """Outcome of the decodability inspection.

    ``first_bad`` is the 1-based position (in listed order) of the pair at
    which the reverse sweep found overlapping observation sets, or None.
    """

    valid: bool
    first_bad: Optional[int]


def validate(seq: CouplingSequence) -> ValidationResult:
    """Check that a sequence is decodable by f/g operations.

    Sweeps the pairs in reverse, growing per-index observation sets A_j from
    the singletons {j}, kept as bitmasks (bit j stands for index j).  A pair
    (a, b) is admissible only while A_a and A_b are disjoint; both then
    become their union.  Overlapping observation sets mean the two inputs of
    the kernel are statistically dependent, so the f/g split is no longer
    exact; the first such pair is reported.
    """
    obs = [1 << j for j in range(seq.n_code + 1)]
    pairs = seq.pairs.tolist()
    for i in range(len(pairs) - 1, -1, -1):
        a, b = pairs[i]
        if obs[a] & obs[b]:
            return ValidationResult(False, i + 1)
        obs[a] = obs[b] = obs[a] | obs[b]
    return ValidationResult(True, None)
