"""Command-line workbench around the library: construction, coding, analysis."""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .analysis import (coset_spectrum, count_unpolarized, min_distance,
                       reduced_generator, scaling_fit)
from .codes import load_spec, rm_encode, spec_to_json
from .decoding import rm_llrs, sc_decode, scl_decode
from .reliability import (ChannelModel, build_baseline, channel_from_snr_db,
                          de_bec, profile_for)
from .sequences import make_regular_sequence
from .simulate import (CHUNK_TRIALS, SimConfig, simulate_bler, snr_search,
                       sweep_lengths, write_sweep_csv)
from .stitching import (build_family, load_family, partially_stitched,
                        save_family, stitched_polarization_count)


def _channel_from_token(tok):
    kind, _, val = tok.partition(":")
    if not val:
        raise ValueError(f"channel must look like bec:0.5 or awgn:1.0, got {tok!r}")
    param = float(val)
    if kind == "bec":
        return ChannelModel("bec", param)
    if kind in ("awgn", "biawgn"):
        return channel_from_snr_db(param)
    raise ValueError(f"unknown channel kind {kind!r}")


def _parse_pair(tok, name):
    parts = tok.split(":")
    if len(parts) != 2:
        raise ValueError(f"{name} must look like LO:HI, got {tok!r}")
    return float(parts[0]), float(parts[1])


def _read_bits(path):
    with open(path, encoding="utf-8") as fh:
        toks = fh.read().split()
    if any(t not in ("0", "1") for t in toks):
        raise ValueError(f"{path} must hold one 0/1 per line")
    return np.asarray([int(t) for t in toks], dtype=np.uint8)


def _write_bits(path, bits):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(str(int(b)) for b in bits))
        fh.write("\n")


def _read_llrs(path):
    with open(path, encoding="utf-8") as fh:
        toks = fh.read().replace(",", " ").split()
    return np.asarray([float(t) for t in toks])


def _emit(obj, path=None):
    text = json.dumps(obj, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_construct_family(args):
    family = build_family(args.max_len, _channel_from_token(args.channel))
    save_family(family, args.out)
    print(json.dumps({"max_len": family.max_length,
                      "entries": len(family.entries), "out": args.out}))


def _cmd_build(args):
    family = load_family(args.family)
    channel = _channel_from_token(args.channel) if args.channel else None
    spec, layout = partially_stitched(args.n, args.k, args.s, family, channel)
    d = spec_to_json(spec)
    d["layout"] = layout.to_json()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(d, fh)
    print(json.dumps({"n": spec.n_code, "k": len(spec.info),
                      "pairs": len(spec.sequence), "out": args.out}))


def _cmd_baseline(args):
    if args.channel:
        channel = _channel_from_token(args.channel)
    else:
        channel = channel_from_snr_db(args.design_snr)
    spec = build_baseline(args.type, args.n, args.k, channel)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(spec_to_json(spec), fh)
    print(json.dumps({"n": args.n, "k": args.k, "type": args.type,
                      "mother": spec.n_code, "out": args.out}))


def _cmd_encode(args):
    spec = load_spec(args.code)
    bits = _read_bits(getattr(args, "in"))
    _write_bits(args.out, rm_encode(spec, bits))


def _cmd_decode(args):
    spec = load_spec(args.code)
    llrs = _read_llrs(args.llr)
    if llrs.shape[0] != spec.outer_length:
        raise ValueError(
            f"expected {spec.outer_length} llrs, got {llrs.shape[0]}")
    full = rm_llrs(spec, llrs)
    f_mode = "minsum" if args.minsum else "exact"
    if args.list_size > 1:
        ranked, selected, crc_ok = scl_decode(spec, full, args.list_size, f_mode)
        _emit({"paths": [{"info_bits": [int(b) for b in bits],
                          "metric": metric} for bits, metric in ranked],
               "selected": selected, "crc_ok": crc_ok})
    else:
        info_bits, x_hat = sc_decode(spec, full, f_mode)
        _emit({"info_bits": [int(b) for b in info_bits],
               "codeword": [int(b) for b in x_hat]})


def _cmd_simulate(args):
    spec = load_spec(args.code)
    cfg = SimConfig(spec, _channel_from_token(args.channel), seed=args.seed,
                    trials=args.trials, max_trials=args.max_trials,
                    min_errors=args.min_errors, list_size=args.list_size,
                    f_mode="minsum" if args.minsum else "exact", chunk=args.chunk)
    res = simulate_bler(cfg, workers=args.workers)
    out = res.to_json()
    out["channel"] = args.channel
    out["n"] = spec.outer_length
    out["k"] = spec.message_length
    _emit(out, args.out)


def _cmd_snr_search(args):
    spec = load_spec(args.code)
    kind = "bec" if args.channel_kind == "bec" else "biawgn"
    sr = snr_search(spec, args.target, _parse_pair(args.bracket, "bracket"),
                    channel_kind=kind, seed=args.seed, list_size=args.list_size,
                    f_mode="minsum" if args.minsum else "exact", tol=args.tol,
                    max_trials=args.max_trials, min_errors=args.min_errors,
                    workers=args.workers, chunk=args.chunk)
    _emit({"kind": kind, "param": sr.param,
           "bracket": list(sr.bracket),
           "evals": [{"param": p, "bler": r.bler, "trials": r.trials,
                      "errors": r.errors} for p, r in sr.evals]})


def _cmd_sweep(args):
    family = load_family(args.family) if args.family else None
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    lengths = [int(s) for s in args.lengths.split(",") if s.strip()]
    design = channel_from_snr_db(args.design_snr)
    kind = "bec" if args.channel_kind == "bec" else "biawgn"
    res = sweep_lengths(args.rate, lengths, schemes, args.target,
                        _parse_pair(args.bracket, "bracket"), family=family,
                        design_channel=design, s=args.s, channel_kind=kind,
                        seed=args.seed, max_trials=args.max_trials,
                        min_errors=args.min_errors, workers=args.workers,
                        chunk=args.chunk)
    with open(args.out, "w", encoding="utf-8") as fh:
        write_sweep_csv(res, fh)
    print(json.dumps({"rows": len(res.rows), "out": args.out}))


def _cmd_spectrum(args):
    spec = load_spec(args.code)
    g = reduced_generator(spec)
    if g.shape[0] > 20:
        raise ValueError("spectrum enumeration is limited to 20 positions")
    d = coset_spectrum(g)
    rank = {int(i): r for r, i in enumerate(spec.kept_positions(), 1)}
    info = [rank[i] for i in spec.info if i in rank]
    if spec.info and len(spec.info) <= 20:
        dist = min_distance(spec)
        dist = None if math.isinf(dist) else int(dist)
    else:
        dist = None
    _emit({"n": int(g.shape[0]), "spectrum": [int(x) for x in d],
           "info": info, "min_distance": dist})


def _cmd_scaling(args):
    lo, hi = (int(x) for x in args.m_range.split(":"))
    if lo > hi:
        raise ValueError("m-range must be A:B with A <= B")
    band = _parse_pair(args.band, "band")
    eps = args.epsilon
    channel = ChannelModel("bec", eps)
    family = None
    if args.scheme == "stc":
        family = load_family(args.family) if args.family else build_family(
            1 << args.s, channel)
    rows = []
    for m in range(lo, hi + 1):
        if args.scheme == "regular":
            if args.offset_t is not None:
                raise ValueError("regular codes exist at powers of two only")
            n = 1 << m
            prof = de_bec(make_regular_sequence(m), np.full(n, eps), check=False)
            count, _ = count_unpolarized(prof, band)
        else:
            n = (1 << m) + ((1 << (m - args.offset_t)) if args.offset_t else 0)
            if args.scheme in ("qup", "brs"):
                spec = build_baseline(args.scheme, n, 0, channel)
                count, _ = count_unpolarized(profile_for(spec, channel), band)
            elif args.scheme == "stc":
                count, _ = stitched_polarization_count(n, args.s, family,
                                                       channel, band)
            else:
                raise ValueError(f"unknown scheme {args.scheme!r}")
        rows.append((m, n, count, count / n))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("m,N,count,alpha\n")
        for m, n, count, alpha in rows:
            fh.write(f"{m},{n},{count},{alpha:.8g}\n")
    summary = {"scheme": args.scheme, "epsilon": eps, "band": list(band),
               "out": args.out, "mu": None, "lam": None}
    if len(rows) >= 3 and all(r[2] > 0 for r in rows):
        fit = scaling_fit([(m, alpha) for m, n, c, alpha in rows])
        summary.update(mu=fit.mu, lam=fit.lam, slope=fit.slope,
                       intercept=fit.intercept)
    print(json.dumps(summary))


def build_parser():
    p = argparse.ArgumentParser(prog="stitchpolar",
                                description="Stitched polar code workbench")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("construct-family", help="search best stitched codes up to a length")
    q.add_argument("--max-len", type=int, required=True)
    q.add_argument("--channel", default="bec:0.5")
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_construct_family)

    q = sub.add_parser("build", help="partially stitched code at arbitrary length")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--s", type=int, default=6)
    q.add_argument("--family", required=True)
    q.add_argument("--channel", default=None)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_build)

    q = sub.add_parser("baseline", help="punctured or shortened regular code")
    q.add_argument("--type", choices=("qup", "brs"), required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--design-snr", type=float, default=1.0,
                   help="Es/N0 in dB for the design profile")
    q.add_argument("--channel", default=None,
                   help="explicit design channel, e.g. bec:0.5")
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_baseline)

    q = sub.add_parser("encode", help="message bits to transmitted codeword")
    q.add_argument("--code", required=True)
    q.add_argument("--in", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_encode)

    q = sub.add_parser("decode", help="LLRs to message bits")
    q.add_argument("--code", required=True)
    q.add_argument("--llr", required=True)
    q.add_argument("--list", dest="list_size", type=int, default=1)
    q.add_argument("--minsum", action="store_true")
    q.set_defaults(func=_cmd_decode)

    q = sub.add_parser("simulate", help="Monte-Carlo block error rate")
    q.add_argument("--code", required=True)
    q.add_argument("--channel", required=True)
    q.add_argument("--trials", type=int, default=None)
    q.add_argument("--max-trials", type=int, default=10_000_000)
    q.add_argument("--min-errors", type=int, default=100)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--list", dest="list_size", type=int, default=1)
    q.add_argument("--minsum", action="store_true")
    q.add_argument("--workers", type=int, default=1)
    q.add_argument("--chunk", type=int, default=CHUNK_TRIALS)
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_simulate)

    q = sub.add_parser("snr-search", help="channel parameter hitting a target BLER")
    q.add_argument("--code", required=True)
    q.add_argument("--target", type=float, required=True)
    q.add_argument("--bracket", required=True)
    q.add_argument("--channel-kind", choices=("awgn", "bec"), default="awgn")
    q.add_argument("--tol", type=float, default=0.02)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--list", dest="list_size", type=int, default=1)
    q.add_argument("--minsum", action="store_true")
    q.add_argument("--max-trials", type=int, default=1_000_000)
    q.add_argument("--min-errors", type=int, default=100)
    q.add_argument("--workers", type=int, default=1)
    q.add_argument("--chunk", type=int, default=CHUNK_TRIALS)
    q.set_defaults(func=_cmd_snr_search)

    q = sub.add_parser("sweep", help="required SNR across lengths and schemes")
    q.add_argument("--rate", type=float, required=True)
    q.add_argument("--lengths", required=True, help="comma-separated lengths")
    q.add_argument("--schemes", required=True, help="comma-separated: qup,brs,stc")
    q.add_argument("--target", type=float, required=True)
    q.add_argument("--bracket", required=True)
    q.add_argument("--family", default=None)
    q.add_argument("--s", type=int, default=6)
    q.add_argument("--design-snr", type=float, default=1.0)
    q.add_argument("--channel-kind", choices=("awgn", "bec"), default="awgn")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--max-trials", type=int, default=1_000_000)
    q.add_argument("--min-errors", type=int, default=100)
    q.add_argument("--workers", type=int, default=1)
    q.add_argument("--chunk", type=int, default=CHUNK_TRIALS)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_sweep)

    q = sub.add_parser("spectrum", help="coset spectrum and minimum distance")
    q.add_argument("--code", required=True)
    q.set_defaults(func=_cmd_spectrum)

    q = sub.add_parser("scaling", help="unpolarized-count scaling across lengths")
    q.add_argument("--scheme", choices=("regular", "qup", "brs", "stc"),
                   required=True)
    q.add_argument("--m-range", required=True, help="A:B inclusive")
    q.add_argument("--epsilon", type=float, required=True)
    q.add_argument("--band", default="0.01:0.99")
    q.add_argument("--offset-t", type=int, default=None,
                   help="use length 2^m + 2^(m-T)")
    q.add_argument("--s", type=int, default=6)
    q.add_argument("--family", default=None)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_scaling)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # structured failure for scripting
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
