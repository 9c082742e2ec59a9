"""Code specifications: frozen/info sets, CRC, encoding, rate matching.

A CodeSpec bundles a coupling sequence with an information set, an optional
CRC, and an optional rate-matching step (puncturing or shortening of a mother
code).  Frozen inputs are fixed to zero.  CRC parity bits, when present, ride
in the information set together with the message bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .sequences import CouplingSequence


class StructuralError(ValueError):
    """Code description is internally inconsistent (pattern/frozen mismatch)."""


@dataclass(frozen=True)
class CrcConfig:
    """CRC polynomial, most significant term first, e.g. x^3+x+1 -> (1,0,1,1)."""

    polynomial: tuple

    def __post_init__(self):
        poly = tuple(int(b) for b in self.polynomial)
        if len(poly) < 2 or poly[0] != 1 or poly[-1] != 1:
            raise ValueError("polynomial must start and end with coefficient 1")
        if any(b not in (0, 1) for b in poly):
            raise ValueError("polynomial coefficients must be bits")
        object.__setattr__(self, "polynomial", poly)

    @property
    def length(self):
        """Number of parity bits (polynomial degree)."""
        return len(self.polynomial) - 1


CRC11 = CrcConfig((1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1))


@lru_cache(maxsize=None)
def _crc_parity(k, crc: CrcConfig):
    """(K, L) GF(2) matrix whose row i is x^(K-1-i+L) mod the polynomial."""
    low = np.asarray(crc.polynomial[1:], dtype=np.uint8)
    rows = np.empty((k, crc.length), dtype=np.uint8)
    r = low
    for i in range(k - 1, -1, -1):
        rows[i] = r
        r = np.append(r[1:], np.uint8(0)) ^ (low if r[0] else 0)
    parity = rows.astype(float)
    parity.setflags(write=False)
    return parity


def crc_remainder(bits, crc: CrcConfig):
    """Remainder of bits * x^L divided by the CRC polynomial, MSB first.

    ``bits`` is a (..., K) 0/1 array; the remainder has shape (..., L).  The
    CRC is linear over GF(2), so this is one product with a parity matrix
    cached per (K, polynomial), reduced mod 2 (float64 sums are exact here).
    """
    bits = np.asarray(bits, dtype=np.uint8)
    rem = bits @ _crc_parity(bits.shape[-1], crc)
    return (rem % 2).astype(np.uint8)


def crc_append(bits, crc: CrcConfig):
    """Message with its CRC parity appended."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.concatenate([bits, crc_remainder(bits, crc)], axis=-1)


def crc_check(bits, crc: CrcConfig):
    """True where the trailing parity matches the leading message."""
    bits = np.asarray(bits, dtype=np.uint8)
    k = bits.shape[-1] - crc.length
    rem = crc_remainder(bits[..., :k], crc)
    return np.logical_not(np.any(rem ^ bits[..., k:], axis=-1))


@dataclass(frozen=True)
class RateMatch:
    """Deletion pattern applied to the mother codeword after encoding."""

    mode: str
    pattern: frozenset

    def __post_init__(self):
        if self.mode not in ("puncture", "shorten"):
            raise ValueError("mode must be 'puncture' or 'shorten'")
        object.__setattr__(self, "pattern", frozenset(int(i) for i in self.pattern))


@dataclass(frozen=True)
class CodeSpec:
    """A coupling sequence plus information set, optional CRC and rate match.

    ``info`` lists the 1-based input positions carrying message and CRC bits,
    ascending; all other positions are frozen to zero.  A shortened position
    must be frozen, else StructuralError.
    """

    sequence: CouplingSequence
    info: tuple
    crc: Optional[CrcConfig] = None
    rate_match: Optional[RateMatch] = None

    def __post_init__(self):
        info = tuple(sorted(int(i) for i in self.info))
        n = self.sequence.n_code
        if len(set(info)) != len(info):
            raise ValueError("info set has repeated indices")
        if info and (info[0] < 1 or info[-1] > n):
            raise ValueError("info indices out of range")
        crc_len = self.crc.length if self.crc else 0
        if len(info) < crc_len:
            raise ValueError("info set smaller than CRC length")
        if self.rate_match is not None:
            pat = self.rate_match.pattern
            if any(not 1 <= i <= n for i in pat):
                raise ValueError("rate-match pattern out of range")
            if self.rate_match.mode == "shorten" and not pat.isdisjoint(info):
                raise StructuralError("shortening pattern must be frozen")
        object.__setattr__(self, "info", info)

    @property
    def n_code(self):
        """Mother block length N."""
        return self.sequence.n_code

    @property
    def frozen(self):
        used = set(self.info)
        return tuple(i for i in range(1, self.n_code + 1) if i not in used)

    @property
    def message_length(self):
        """Number of payload bits K (CRC parity excluded)."""
        return len(self.info) - (self.crc.length if self.crc else 0)

    @property
    def outer_length(self):
        """Transmitted length after rate matching."""
        if self.rate_match is None:
            return self.n_code
        return self.n_code - len(self.rate_match.pattern)

    def kept_positions(self):
        """Transmitted codeword positions, ascending, 1-based."""
        if self.rate_match is None:
            return np.arange(1, self.n_code + 1, dtype=np.int64)
        pat = self.rate_match.pattern
        return np.asarray([i for i in range(1, self.n_code + 1) if i not in pat],
                          dtype=np.int64)


def _butterflies(rows, seq: CouplingSequence):
    """Encode (N, B) input rows in place: each batch slice XORs whole
    contiguous rows."""
    pairs = seq.pairs
    for s, e in seq.batch_slices():
        rows[pairs[s:e, 0] - 1] ^= rows[pairs[s:e, 1] - 1]
    return rows


def _apply_sequence(u, seq: CouplingSequence):
    """Encode (B, N) input words in place, transposed once to (N, B) rows
    and back."""
    u[...] = _butterflies(np.ascontiguousarray(u.T), seq).T
    return u


def _encode_rows(spec: CodeSpec, info_bits):
    """(N, B) mother codeword rows: the CRC-extended message at the info
    set, zeros elsewhere, encoded in place."""
    bits = np.atleast_2d(np.asarray(info_bits, dtype=np.uint8))
    if bits.shape[-1] != spec.message_length:
        raise ValueError(
            f"expected {spec.message_length} message bits, got {bits.shape[-1]}")
    if spec.crc is not None:
        bits = crc_append(bits, spec.crc)
    rows = np.zeros((spec.n_code, bits.shape[0]), np.uint8)
    rows[np.asarray(spec.info, dtype=np.int64) - 1] = bits.T
    return _butterflies(rows, spec.sequence)


def encode(spec: CodeSpec, info_bits):
    """Mother codeword(s) for the given message bits.

    Accepts a single length-K vector or a (B, K) batch; returns the matching
    shape with N columns.  Rate matching is not applied here, see rm_encode.
    """
    x = np.ascontiguousarray(_encode_rows(spec, info_bits).T)
    return x[0] if np.ndim(info_bits) == 1 else x


def generator_matrix(seq: CouplingSequence):
    """N x N GF(2) generator: row i equals the encoding of unit vector e_i."""
    g = np.eye(seq.n_code, dtype=np.uint8)
    return _apply_sequence(g, seq)


@lru_cache(maxsize=128)
def _check_shortening(spec: CodeSpec):
    """Raise StructuralError unless every message encodes to zero at the
    shortened positions.  Encoding is linear and frozen inputs are zero, so
    it suffices that the generator rows of the information positions are."""
    info = np.asarray(spec.info, dtype=np.int64) - 1
    rows = np.zeros((info.size, spec.n_code), dtype=np.uint8)
    rows[np.arange(info.size), info] = 1
    _apply_sequence(rows, spec.sequence)
    pat = np.asarray(sorted(spec.rate_match.pattern), dtype=np.int64) - 1
    if rows[:, pat].any():
        raise StructuralError("shortened positions are not zero")


def rm_encode(spec: CodeSpec, info_bits):
    """Rate-matched codeword(s): mother encoding with pattern positions deleted.

    Punctured positions are simply dropped.  Shortened positions are frozen
    (`CodeSpec` checks that) and must encode to zero for every message; the
    first encode of a spec checks that once, and a pattern without this
    shortening property for the sequence is a StructuralError.  The words
    are encoded as (N, B) rows, and the transmitted rows are transposed
    once into the (B, N_kept) result.
    """
    rm = spec.rate_match
    if rm is not None and rm.mode == "shorten":
        _check_shortening(spec)
    rows = _encode_rows(spec, info_bits)
    if rm is not None:
        rows = rows[spec.kept_positions() - 1]
    out = np.ascontiguousarray(rows.T)
    return out[0] if np.ndim(info_bits) == 1 else out


def spec_to_json(spec: CodeSpec) -> dict:
    d = {
        "n": spec.n_code,
        "pairs": [[int(a), int(b)] for a, b in spec.sequence.pairs],
        "frozen": [int(i) for i in spec.frozen],
        "info": [int(i) for i in spec.info],
        "crc": None,
        "rate_match": {"mode": "none", "pattern": []},
    }
    if spec.crc is not None:
        d["crc"] = {"poly": "".join(str(b) for b in spec.crc.polynomial),
                    "len": spec.crc.length}
    if spec.rate_match is not None:
        d["rate_match"] = {"mode": spec.rate_match.mode,
                           "pattern": sorted(spec.rate_match.pattern)}
    return d


def spec_from_json(d: dict) -> CodeSpec:
    n = int(d["n"])
    seq = CouplingSequence(n, d["pairs"])
    info = tuple(int(i) for i in d["info"])
    if "frozen" in d:
        # the complement of info exactly: an overlap or a gap is an error
        rest = sorted(set(range(1, n + 1)) - set(info))
        if sorted(int(i) for i in d["frozen"]) != rest:
            raise ValueError("info and frozen do not partition 1..N")
    crc = None
    if d.get("crc"):
        crc_d = d["crc"]
        poly = tuple(int(c) for c in crc_d["poly"])
        crc = CrcConfig(poly)
        if "len" in crc_d and int(crc_d["len"]) != crc.length:
            raise ValueError("CRC length does not match polynomial degree")
    rm = None
    rm_d = d.get("rate_match")
    if rm_d and rm_d.get("mode", "none") != "none":
        rm = RateMatch(rm_d["mode"], frozenset(int(i) for i in rm_d["pattern"]))
    return CodeSpec(seq, info, crc=crc, rate_match=rm)


def load_spec(path) -> CodeSpec:
    with open(path) as fh:
        return spec_from_json(json.load(fh))
