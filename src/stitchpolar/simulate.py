"""Monte-Carlo block-error simulation, confidence intervals, and SNR search.

Trials are drawn in fixed-size chunks, each seeded by jumping a counter-based
generator to the chunk index, so results depend only on (seed, chunk index).
Accumulation follows chunk order with stopping checked at chunk boundaries;
the outcome is therefore identical for any number of workers.
"""

from __future__ import annotations

import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np
from scipy.special import betaincinv

from .codes import CodeSpec, rm_encode
from .decoding import LLR_SAT, _check_decoder, sc_decode_batch, scl_decode_batch
# not on the chunk path, which hands the decoders transmitted-length LLRs:
# kept as a module name for the span tracer's patch site (perfbench/spans.py)
from .decoding import rm_llrs  # noqa: F401
from .reliability import ChannelModel, build_baseline, channel_from_snr_db
from .stitching import CodeFamily, partially_stitched

CHUNK_TRIALS = 4096


def channel_transmit(codewords, channel: ChannelModel, rng):
    """Received LLRs for codeword bits over the given channel.

    BEC: erased positions give LLR 0, the rest +/-LLR_SAT.  BiAWGN: BPSK maps
    bit b to 1 - 2b, y = x + sigma * noise, and llr = 2 y / sigma^2.
    """
    x = np.asarray(codewords, dtype=np.uint8)
    if channel.kind == "bec":
        llr = np.where(x == 0, LLR_SAT, -LLR_SAT)
        erased = rng.random(x.shape) < channel.erasure_prob
        return np.where(erased, 0.0, llr)
    sigma = channel.sigma
    # in place on the noise draw: the same rounding as 2 ((1 - 2x) + sigma n) / sigma^2
    y = rng.standard_normal(x.shape)
    y *= sigma
    y += 1.0 - 2.0 * x
    y *= 2.0
    y /= sigma ** 2
    return y


@dataclass(frozen=True)
class SimConfig:
    """One BLER measurement point.

    `trials` fixes the exact count; with trials=None the run stops at the
    first chunk boundary where `min_errors` block errors have accumulated,
    or at `max_trials`.
    """

    spec: CodeSpec
    channel: ChannelModel
    seed: int = 0
    trials: int = None
    max_trials: int = 10_000_000
    min_errors: int = 100
    list_size: int = 1
    f_mode: str = "exact"
    chunk: int = CHUNK_TRIALS


@dataclass(frozen=True)
class SimResult:
    trials: int
    errors: int
    bit_errors: int
    bler: float
    ci_low: float
    ci_high: float
    reliable: bool
    seconds: float
    seed: int

    def to_json(self):
        return asdict(self)


def clopper_pearson(errors, trials, confidence=0.95):
    """Exact binomial confidence interval for errors out of trials."""
    if trials < 1:
        raise ValueError("need at least one trial")
    a = (1.0 - confidence) / 2.0
    lo = 0.0 if errors == 0 else float(betaincinv(errors, trials - errors + 1, a))
    hi = 1.0 if errors == trials else float(betaincinv(errors + 1, trials - errors,
                                                       1.0 - a))
    return lo, hi


def _chunk_counts(cfg: SimConfig, index, take):
    rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(index))
    k_msg = cfg.spec.message_length
    msg = rng.integers(0, 2, size=(cfg.chunk, k_msg), dtype=np.uint8)
    # the whole chunk is drawn, so the stream does not depend on take
    llr = channel_transmit(rm_encode(cfg.spec, msg), cfg.channel, rng)[:take]
    if cfg.list_size == 1:
        dec = sc_decode_batch(cfg.spec, llr, f_mode=cfg.f_mode,
                              decision_llrs=False).info_bits
    else:
        dec = scl_decode_batch(cfg.spec, llr, cfg.list_size,
                               f_mode=cfg.f_mode).chosen_bits
    wrong = dec[:, :k_msg] != msg[:take]
    return int(wrong.any(axis=1).sum()), int(wrong.sum())


def simulate_bler(cfg: SimConfig, workers=1) -> SimResult:
    """Estimate block and bit error rates for one configuration.

    Chunks are evaluated in waves of `workers` threads and folded in index
    order, so the counts are a pure function of the config regardless of
    parallelism.  A wave holds one chunk of decoder state per thread, so the
    threads are at most the chunks and the CPUs.
    """
    if cfg.chunk < 1:
        raise ValueError("chunk size must be positive")
    target = cfg.max_trials if cfg.trials is None else int(cfg.trials)
    if target < 1:
        raise ValueError("trial budget must be positive")
    if not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    _check_decoder(cfg.f_mode, cfg.list_size)
    n_chunks = -(-target // cfg.chunk)
    w = min(int(workers), n_chunks, os.cpu_count() or 1)

    def counts(j):
        take = min(cfg.chunk, target - j * cfg.chunk)
        return (take, *_chunk_counts(cfg, j, take))

    t0 = time.perf_counter()
    total = errors = bit_errors = 0
    with ThreadPoolExecutor(w) if w > 1 else nullcontext() as pool:
        evaluate = map if pool is None else pool.map
        # a wave starts only once the one before it is folded
        waves = (evaluate(counts, range(i, min(i + w, n_chunks)))
                 for i in range(0, n_chunks, w))
        for take, be, bb in chain.from_iterable(waves):
            total += take
            errors += be
            bit_errors += bb
            if cfg.trials is None and errors >= cfg.min_errors:
                break
    lo, hi = clopper_pearson(errors, total)
    return SimResult(trials=total, errors=errors, bit_errors=bit_errors,
                     bler=errors / total, ci_low=lo, ci_high=hi,
                     reliable=errors >= 50,
                     seconds=time.perf_counter() - t0, seed=cfg.seed)


@dataclass(frozen=True)
class SearchResult:
    param: float
    bracket: tuple
    evals: tuple


def snr_search(spec: CodeSpec, target, bracket, channel_kind="biawgn", seed=0,
               list_size=1, f_mode="exact", tol=0.02, max_trials=1_000_000,
               min_errors=100, workers=1, chunk=CHUNK_TRIALS) -> SearchResult:
    """Bisect the channel parameter to reach the target block error rate.

    For the BiAWGN the parameter is Es/N0 in dB and BLER falls as it rises;
    for the BEC it is the erasure probability and BLER rises.  The target must
    be bracketed by the endpoints or a ValueError reports both measurements.
    Every point is measured with the same seed, so the empirical curve is
    monotone-coupled across the bracket.  Bisection stops once the bracket
    is at most ``tol`` wide; ``tol`` must be finite and positive.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    # a bisection gap stalls above 0 in floating point, and NaN ends at once
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    target = float(target)
    evals = []

    def measure(p):
        if channel_kind == "biawgn":
            chan = channel_from_snr_db(p)
        else:
            chan = ChannelModel(channel_kind, p)
        cfg = SimConfig(spec, chan, seed=seed,
                        max_trials=max_trials, min_errors=min_errors,
                        list_size=list_size, f_mode=f_mode, chunk=chunk)
        res = simulate_bler(cfg, workers=workers)
        evals.append((p, res))
        return res.bler

    rising = channel_kind == "bec"
    f_lo = measure(lo)
    f_hi = measure(hi)
    ok = f_lo <= target <= f_hi if rising else f_hi <= target <= f_lo
    if not ok:
        raise ValueError(
            f"target {target} not bracketed: bler({lo}) = {f_lo}, "
            f"bler({hi}) = {f_hi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = measure(mid)
        if (fm < target) != rising:
            hi = mid
        else:
            lo = mid
    return SearchResult(0.5 * (lo + hi), (lo, hi), tuple(evals))


@dataclass(frozen=True)
class SweepResult:
    rows: tuple


def sweep_lengths(rate, lengths, schemes, target, bracket, family: CodeFamily = None,
                  design_channel: ChannelModel = None, s=6, channel_kind="biawgn",
                  seed=0, **search_kw) -> SweepResult:
    """Required channel parameter at a fixed rate across lengths and schemes.

    Schemes: "qup" and "brs" are rate-matched regular baselines designed for
    `design_channel` (default BiAWGN at 1 dB); "stc" is the partially stitched
    construction over `family`.  `search_kw` (tol, max_trials, min_errors,
    list_size, f_mode, workers, chunk) goes to every `snr_search`.
    """
    if design_channel is None:
        design_channel = channel_from_snr_db(1.0)
    rows = []
    for n in lengths:
        n = int(n)
        k = int(round(float(rate) * n))
        for scheme in schemes:
            if scheme in ("qup", "brs"):
                spec = build_baseline(scheme, n, k, design_channel)
            elif scheme == "stc":
                if family is None:
                    raise ValueError("stc sweep requires a code family")
                spec, _ = partially_stitched(n, k, s, family)
            else:
                raise ValueError(f"unknown scheme {scheme!r}")
            sr = snr_search(spec, target, bracket, channel_kind=channel_kind,
                            seed=seed, **search_kw)
            rows.append({"n": n, "k": k, "scheme": scheme,
                         "param": sr.param, "bracket_lo": sr.bracket[0],
                         "bracket_hi": sr.bracket[1]})
    return SweepResult(tuple(rows))


def write_sweep_csv(result: SweepResult, fh):
    fh.write("n,k,scheme,param,bracket_lo,bracket_hi\n")
    for r in result.rows:
        fh.write(f"{r['n']},{r['k']},{r['scheme']},{r['param']:.6g},"
                 f"{r['bracket_lo']:.6g},{r['bracket_hi']:.6g}\n")
