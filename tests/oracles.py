"""Independent reference implementations used to cross-check the package.

Deliberately naive: plain-python encoding, exhaustive enumeration over
input vectors, erasure patterns, or row spans, and integer bitmask
arithmetic.
Nothing here shares code with the package beyond numpy.
"""

import numpy as np


# ---------------------------------------------------------------------------
# encoding

def encode_ref(pairs, n, u):
    """Apply u_a <- u_a xor u_b in listed order; returns the codeword."""
    x = [int(v) & 1 for v in u]
    assert len(x) == n
    for a, b in pairs:
        x[a - 1] ^= x[b - 1]
    return x


def matrix_ref(pairs, n):
    """Row i is the encode of the i-th unit vector."""
    rows = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rows.append(encode_ref(pairs, n, e))
    return np.array(rows, dtype=np.uint8)


def _row_ints(matrix):
    return [int("".join(str(int(v)) for v in row), 2) for row in np.asarray(matrix)]


# ---------------------------------------------------------------------------
# spectra and distances by exhaustive span enumeration (bitmask ints)

def spectrum_ref(matrix):
    """D_i = min distance from row i to the span of the rows after it."""
    rows = _row_ints(matrix)
    n = len(rows)
    out = []
    for i in range(n):
        later = rows[i + 1:]
        best = None
        for mask in range(1 << len(later)):
            v = rows[i]
            for j, r in enumerate(later):
                if mask >> j & 1:
                    v ^= r
            w = bin(v).count("1")
            if best is None or w < best:
                best = w
        out.append(best)
    return tuple(out)


def min_distance_ref(matrix, info_rows):
    """Minimum weight over nonzero combinations of the given (1-based) rows."""
    rows = _row_ints(matrix)
    picked = [rows[i - 1] for i in sorted(info_rows)]
    best = None
    for mask in range(1, 1 << len(picked)):
        v = 0
        for j, r in enumerate(picked):
            if mask >> j & 1:
                v ^= r
        w = bin(v).count("1")
        if best is None or w < best:
            best = w
    return best


# ---------------------------------------------------------------------------
# CRC by bit-serial long division

def crc_remainder_ref(bits, poly):
    """Remainder of each row of bits * x^L divided by poly, MSB first."""
    bits = np.asarray(bits, dtype=np.uint8)
    k, L = bits.shape[-1], len(poly) - 1
    out = np.zeros(bits.shape[:-1] + (L,), dtype=np.uint8)
    for row in np.ndindex(bits.shape[:-1]):
        work = [int(v) for v in bits[row]] + [0] * L
        for i in range(k):
            if work[i]:
                for j, c in enumerate(poly):
                    work[i + j] ^= c
        out[row] = work[k:]
    return out


# ---------------------------------------------------------------------------
# density evolution, scalar pair-at-a-time recursion

def de_bec_ref(pairs, n, eps):
    """Erasure evolution in reverse listed order; returns the z vector."""
    z = [float(e) for e in (eps if np.ndim(eps) else [eps] * n)]
    for a, b in reversed(list(pairs)):
        za, zb = z[a - 1], z[b - 1]
        z[a - 1] = za + zb - za * zb
        z[b - 1] = za * zb
    return np.array(z)


# ---------------------------------------------------------------------------
# random valid sequences by recursive composition

def random_valid_pairs(rng, n):
    """A random decodable pair list built by recursive stitching."""
    if n <= 1:
        return []
    n1 = int(rng.integers(1, n))
    n2 = n - n1
    p1 = random_valid_pairs(rng, n1)
    p2 = random_valid_pairs(rng, n2)
    if n1 <= n2 and rng.random() < 0.5:
        # message-side: bit i of the short code lands at gamma_i + i - 1
        # with its duplicate right behind it
        gamma = sorted(rng.choice(np.arange(1, n2 + 1), size=n1,
                                  replace=False).tolist())
        pos_u = [g + i for i, g in enumerate(gamma)]
        used = set(pos_u)
        pos_l = [p for p in range(1, n + 1) if p not in used]
        pairs = [(p, p + 1) for p in pos_u]
        pairs += [(pos_u[a - 1], pos_u[b - 1]) for a, b in p1]
        pairs += [(pos_l[a - 1], pos_l[b - 1]) for a, b in p2]
    else:
        # channel-side: min(n1, n2) fresh couplings across the boundary
        t = min(n1, n2)
        pos = sorted(rng.choice(np.arange(1, max(n1, n2) + 1), size=t,
                                replace=False).tolist())
        pairs = list(p1) + [(a + n1, b + n1) for a, b in p2]
        if n1 <= n2:
            pairs += [(i + 1, pos[i] + n1) for i in range(t)]
        else:
            pairs += [(pos[i], n1 + i + 1) for i in range(t)]
    return pairs


# ---------------------------------------------------------------------------
# successive-cancellation posteriors over the BEC by input enumeration
#
# The conditional law a successive decoder works with keeps every
# not-yet-decided input bit uniform, frozen bits included: a frozen bit only
# enters the conditioning at its own decision step.  Conditioning on future
# frozen bits up front would give the strictly stronger genie (per-bit ML)
# law, which successive decoding does not implement.  Decisions are walked in
# the decode schedule's own order, which for general compositions need not be
# the natural one.

def _input_table(pairs, n):
    """(2^N, N) matrix of every input vector and its codeword table."""
    u = ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)
    x = (u @ matrix_ref(pairs, n)) % 2
    return u, x


def bec_posterior_walk(pairs, n, info, y, order, decisions):
    """Survivor counts (c0, c1) seen just before each sequential decision.

    y holds 0/1 where received and None where erased; order is the sequence
    of bit positions in which the decoder decides; decisions is the decoder's
    full hard output, used to condition later steps on earlier ones.  Returns
    (c0, c1, tie) arrays indexed by position (0-based).
    """
    u, x = _input_table(pairs, n)
    seen = [i for i, v in enumerate(y) if v is not None]
    vals = np.array([y[i] for i in seen], dtype=np.uint8)
    mask = np.all(x[:, seen] == vals, axis=1) if seen else np.ones(len(u), bool)
    c0 = np.zeros(n, dtype=np.int64)
    c1 = np.zeros(n, dtype=np.int64)
    tie = np.zeros(n, dtype=bool)
    assert sorted(order) == list(range(1, n + 1))
    for i in order:
        col = u[:, i - 1]
        c1[i - 1] = int(np.count_nonzero(mask & (col == 1)))
        c0[i - 1] = int(np.count_nonzero(mask) - c1[i - 1])
        tie[i - 1] = c0[i - 1] == c1[i - 1]
        mask = mask & (col == decisions[i - 1])
    return c0, c1, tie


def bec_exact_bler(pairs, n, info, order, eps):
    """Exact SC block error rate over BEC(eps) with random messages.

    By linearity the tie structure along the correct path depends only on the
    erasure pattern, and each tied information decision (ties resolved toward
    0) is wrong with probability 1/2, so a pattern with T ties is decoded
    with probability 2^-T.  Exhaustive over all 2^N patterns, walking the
    all-zero trajectory in schedule order.
    """
    u, x = _input_table(pairs, n)
    info_set = set(info)
    zeros = [0] * n
    total = 0.0
    for pat in range(1 << n):
        erased = [i for i in range(n) if pat >> i & 1]
        ne = len(erased)
        p = eps ** ne * (1.0 - eps) ** (n - ne)
        if p == 0.0:
            continue
        y = [None if i in set(erased) else 0 for i in range(n)]
        _, _, tie = bec_posterior_walk(pairs, n, info, y, order, zeros)
        t = sum(bool(tie[i - 1]) for i in info_set)
        total += p * (1.0 - 0.5 ** t)
    return total


# ---------------------------------------------------------------------------
# maximum-likelihood path search over the decode metric

def path_metric_table(decision_llrs, u_mat):
    """Metric of each forced path: sum of |L| where the bit opposes sign(L).

    decision_llrs and u_mat are (B, N); returns (B,) metrics.
    """
    L = np.asarray(decision_llrs, dtype=float)
    u = np.asarray(u_mat)
    opposed = np.where(u == 1, L > 0, L < 0)
    return np.sum(np.abs(L) * opposed, axis=1)


def all_messages(info, n):
    """(2^K, N) matrix of every message vector over the info set."""
    info = sorted(info)
    k = len(info)
    out = np.zeros((1 << k, n), dtype=np.uint8)
    for j, pos in enumerate(info):
        out[:, pos - 1] = (np.arange(1 << k) >> j) & 1
    return out
