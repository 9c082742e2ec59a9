"""Bit-channel reliability by density evolution and Gaussian approximation.

For the BEC the erasure-probability recursion is exact.  For the BiAWGN
channel the mean-LLR recursion uses the consistent-Gaussian assumption with a
three-piece analytic fit of phi(x) = 1 - E[tanh(L/2)], L ~ N(x, 2x).  Both
walk the coupling sequence in reverse listed order, the order in which the
decoder peels transforms: one stage per batch of disjoint pairs, applied by
`evolve_stages` to the last axis of a state array.  `evolve` is the one
channel-kind dispatch from a sequence to its profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .codes import CodeSpec, RateMatch
from .sequences import (CouplingSequence, brs_pattern, make_regular_sequence,
                        qup_pattern, validate)

SATURATION_MEAN = 1.0e4
_MEAN_CAP = 1.0e5


@dataclass(frozen=True)
class ChannelModel:
    """BEC with erasure probability, or BiAWGN with noise std deviation."""

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in ("bec", "biawgn"):
            raise ValueError("kind must be 'bec' or 'biawgn'")
        if self.kind == "bec" and not 0.0 <= self.param <= 1.0:
            raise ValueError("erasure probability must be in [0, 1]")
        if self.kind == "biawgn" and not self.param > 0.0:
            raise ValueError("noise standard deviation must be positive")

    @property
    def erasure_prob(self):
        if self.kind != "bec":
            raise AttributeError("not a BEC")
        return self.param

    @property
    def sigma(self):
        if self.kind != "biawgn":
            raise AttributeError("not a BiAWGN channel")
        return self.param

    @property
    def mean_llr(self):
        """Mean channel LLR for the all-zero codeword, 2/sigma^2."""
        return 2.0 / (self.sigma * self.sigma)


def channel_from_snr_db(snr_db):
    """BiAWGN channel at a given Es/N0 in dB, sigma^2 = 1/(2*10^(dB/10))."""
    return ChannelModel("biawgn", float(10.0 ** (-float(snr_db) / 20.0) / np.sqrt(2.0)))


@dataclass(frozen=True)
class ReliabilityProfile:
    """Per-bit-channel metric plus the error probability it implies."""

    metric: str
    values: np.ndarray
    pe: np.ndarray

    def __post_init__(self):
        if self.metric not in ("erasure_prob", "mean_llr"):
            raise ValueError("unknown metric")
        object.__setattr__(self, "values", np.asarray(self.values, float))
        object.__setattr__(self, "pe", np.asarray(self.pe, float))

    @property
    def n_code(self):
        return self.values.shape[-1]


def initial_values(channel: ChannelModel, n, pattern=None, mode=None):
    """Channel-side seed vector for DE/GA.

    Punctured positions carry no information (z=1, mean 0); shortened
    positions are known (z=0, saturated mean).
    """
    if channel.kind == "bec":
        out = np.full(n, channel.erasure_prob)
        hidden, known = 1.0, 0.0
    else:
        out = np.full(n, channel.mean_llr)
        hidden, known = 0.0, SATURATION_MEAN
    if pattern:
        idx = np.asarray(sorted(pattern), dtype=np.int64) - 1
        out[idx] = hidden if mode == "puncture" else known
    return out


def _check_valid(seq: CouplingSequence):
    res = validate(seq)
    if not res.valid:
        raise ValueError(f"sequence not decodable (pair {res.first_bad})")


def _stages(seq: CouplingSequence):
    """0-based (a, b) index arrays of each pair batch, in evolution order."""
    pairs = seq.pairs - 1
    return [(pairs[s:e, 0], pairs[s:e, 1]) for s, e in reversed(seq.batch_slices())]


def de_bec(seq: CouplingSequence, initial_z, check=True) -> ReliabilityProfile:
    """Exact erasure-probability evolution over a coupling sequence.

    Pairs are processed in reverse listed order; at (a, b) the check branch
    degrades, z_a <- z_a + z_b - z_a z_b, and the variable branch improves,
    z_b <- z_a z_b.  The result is the exact per-bit erasure probability of
    each synthetic channel under successive cancellation.
    """
    if check:
        _check_valid(seq)
    z = np.array(initial_z, dtype=float)
    if z.shape[-1:] != (seq.n_code,):
        raise ValueError("initial_z length must equal n_code")
    if (z < 0).any() or (z > 1).any():
        raise ValueError("erasure probabilities must be in [0, 1]")
    return evolve_stages(z, _stages(seq), "bec")


def _phi(x):
    x = np.asarray(x, float)
    out = np.empty_like(x)
    lo = x <= 0.6357
    hi = x > 9.2254
    mid = ~lo & ~hi
    out[lo] = np.exp(0.06725 * x[lo] ** 2 - 0.4908 * x[lo])
    out[mid] = np.exp(-0.4527 * x[mid] ** 0.86 + 0.0218)
    out[hi] = np.exp(-0.2832 * x[hi] - 0.4254)
    return out


_Y_LO = float(_phi(np.array([0.6357]))[0])
_Y_HI = float(_phi(np.array([9.2254]))[0])


def _phi_inv(y):
    y = np.asarray(y, float)
    out = np.empty_like(y)
    hi = y >= _Y_LO
    lo = y <= _Y_HI
    mid = ~hi & ~lo
    with np.errstate(divide="ignore", invalid="ignore"):
        ln = np.log(np.clip(y[hi], None, 1.0))
        disc = np.maximum(0.4908 ** 2 + 4.0 * 0.06725 * ln, 0.0)
        out[hi] = (0.4908 - np.sqrt(disc)) / (2.0 * 0.06725)
        out[mid] = ((0.0218 - np.log(y[mid])) / 0.4527) ** (1.0 / 0.86)
        out[lo] = -(np.log(y[lo]) + 0.4254) / 0.2832
    return np.clip(out, 0.0, _MEAN_CAP)


def ga_awgn(seq: CouplingSequence, initial_mean, check=True) -> ReliabilityProfile:
    """Gaussian-approximation mean-LLR evolution over a coupling sequence.

    Check branch: mu_a <- phi_inv(1 - (1 - phi(mu_a))(1 - phi(mu_b))).
    Variable branch: mu_b <- mu_a + mu_b (exact for consistent Gaussians).
    """
    if check:
        _check_valid(seq)
    mu = np.array(initial_mean, dtype=float)
    if mu.shape[-1:] != (seq.n_code,):
        raise ValueError("initial_mean length must equal n_code")
    if (mu < 0).any():
        raise ValueError("mean LLRs must be nonnegative")
    return evolve_stages(mu, _stages(seq), "biawgn")


def evolve_stages(state, stages, kind) -> ReliabilityProfile:
    """Run (a, b) stages in place over the last axis of `state`; its profile.

    A stage may hold any disjoint pairs, from any number of codes laid side
    by side: each value sees the same operations in the same order.
    """
    for a, b in stages:
        xa, xb = state[..., a], state[..., b]
        if kind == "bec":
            state[..., a] = xa + xb - xa * xb
            state[..., b] = xa * xb
        else:
            state[..., a] = _phi_inv(1.0 - (1.0 - _phi(xa)) * (1.0 - _phi(xb)))
            state[..., b] = xa + xb
    if kind == "bec":
        return ReliabilityProfile("erasure_prob", state, state.copy())
    return ReliabilityProfile("mean_llr", state, 0.5 * erfc(np.sqrt(state) / 2.0))


def evolve(seq: CouplingSequence, init, kind) -> ReliabilityProfile:
    """DE (kind "bec") or GA (kind "biawgn") of `seq` from channel seeds."""
    return (de_bec if kind == "bec" else ga_awgn)(seq, init, check=False)


def profile_for(spec: CodeSpec, channel: ChannelModel) -> ReliabilityProfile:
    """Reliability of a code spec under its rate matching, if any."""
    pattern = mode = None
    if spec.rate_match is not None:
        pattern, mode = spec.rate_match.pattern, spec.rate_match.mode
    init = initial_values(channel, spec.n_code, pattern, mode)
    return evolve(spec.sequence, init, channel.kind)


def build_baseline(kind, n, k, channel: ChannelModel) -> CodeSpec:
    """Length-matched regular code with punctured or shortened rate matching.

    ``kind`` selects the pattern over the mother code of length
    N0 = 2^ceil(log2 n), both taken from the bit-reversal order of 1..N0:
    "qup" punctures its first N0 - n entries (`qup_pattern`), "brs" shortens
    its last N0 - n entries (`brs_pattern`).  The info set holds the k bit
    channels of lowest error probability under the matched design profile,
    ties to the lower index, never a pattern position.
    """
    n = int(n)
    k = int(k)
    if n < 1:
        raise ValueError("code length must be positive")
    if not 0 <= k <= n:
        raise ValueError("dimension out of range")
    m0 = (n - 1).bit_length()
    n0 = 1 << m0
    p = n0 - n
    if kind == "qup":
        pattern, mode = qup_pattern(n0, p), "puncture"
    elif kind == "brs":
        pattern, mode = brs_pattern(n0, p), "shorten"
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    rm = RateMatch(mode, pattern) if p else None
    seq = make_regular_sequence(m0)
    pe = evolve(seq, initial_values(channel, n0, pattern, mode), channel.kind).pe
    pe[np.asarray(sorted(pattern), dtype=np.int64) - 1] = np.inf
    info = np.argsort(pe, kind="stable")[:k] + 1
    return CodeSpec(seq, tuple(int(i) for i in info), rate_match=rm)
