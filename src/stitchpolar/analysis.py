"""Structural analysis: coset spectra, minimum distance, polarization speed."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec, generator_matrix
from .reliability import ReliabilityProfile

_ENUM_CAP = 20


def coset_spectrum(matrix):
    """Distance D_i of each row against the span of all later rows.

    D_i is the minimum Hamming weight of row i plus any combination of rows
    i+1..n, i.e. the separation backing the decision on bit i once the later
    bits are still free.  Enumeration doubles the tail span row by row.
    """
    g = np.asarray(matrix, dtype=np.uint8) & 1
    if g.ndim != 2:
        raise ValueError("matrix must be 2-D")
    rows = g.shape[0]
    if rows > _ENUM_CAP:
        raise ValueError(f"coset enumeration is limited to {_ENUM_CAP} rows")
    out = np.zeros(rows, dtype=np.int64)
    span = np.zeros((1, g.shape[1]), dtype=np.uint8)
    for i in range(rows - 1, -1, -1):
        out[i] = int((span ^ g[i]).sum(axis=1).min())
        span = np.concatenate([span, span ^ g[i]], axis=0)
    return out


def reduced_generator(spec: CodeSpec):
    """Generator with rate-matched positions removed from both axes."""
    keep = spec.kept_positions() - 1
    return generator_matrix(spec.sequence)[np.ix_(keep, keep)]


def min_distance(spec: CodeSpec):
    """Minimum distance over the transmitted positions; inf for K = 0.

    Enumerates all 2^K nonzero info-bit combinations, so K is capped at 20.
    """
    k = len(spec.info)
    if k == 0:
        return math.inf
    if k > _ENUM_CAP:
        raise ValueError(f"distance enumeration is limited to {_ENUM_CAP} info bits")
    g = generator_matrix(spec.sequence)
    kept = spec.kept_positions() - 1
    rows = g[np.asarray(spec.info, dtype=np.int64) - 1][:, kept]
    combos = np.zeros((1, rows.shape[1]), dtype=np.uint8)
    for r in rows:
        combos = np.concatenate([combos, combos ^ r], axis=0)
    return int(combos[1:].sum(axis=1).min())


def count_unpolarized(profile: ReliabilityProfile, band=(0.01, 0.99)):
    """Count of bit channels whose capacity sits inside the closed band,
    with the fraction of profile positions that count represents.

    Defined for erasure profiles, where capacity is exactly 1 - z.  For a
    rate-matched profile the fraction is over the mother length; callers that
    want the fraction over live positions renormalize themselves.
    """
    if profile.metric != "erasure_prob":
        raise ValueError("unpolarized counting needs an erasure profile")
    lo, hi = float(band[0]), float(band[1])
    if not 0.0 < lo < hi < 1.0:
        raise ValueError("band must satisfy 0 < lo < hi < 1")
    cap = 1.0 - profile.values
    count = int(((cap >= lo) & (cap <= hi)).sum())
    return count, count / cap.shape[-1]


@dataclass(frozen=True)
class ScalingEstimate:
    """Least-squares fit of log2(unpolarized fraction) against m."""

    slope: float
    intercept: float
    mu: float
    lam: float
    points: tuple


def scaling_fit(points) -> ScalingEstimate:
    """Fit alpha_m ~ 2^(-m/mu) from (m, fraction) samples; lam = 1 - 1/mu."""
    pts = [(float(m), float(a)) for m, a in points]
    if len(pts) < 3:
        raise ValueError("need at least three points to fit")
    ms = np.array([p[0] for p in pts])
    al = np.array([p[1] for p in pts])
    if np.unique(ms).size < 2:
        raise ValueError("degenerate fit: all lengths equal")
    if (al <= 0).any():
        raise ValueError("fractions must be positive")
    slope, intercept = np.polyfit(ms, np.log2(al), 1)
    mu = -1.0 / float(slope) if slope != 0.0 else math.inf
    lam = 1.0 - 1.0 / mu if math.isfinite(mu) and mu != 0.0 else 1.0
    return ScalingEstimate(float(slope), float(intercept), float(mu), float(lam),
                           tuple(pts))
