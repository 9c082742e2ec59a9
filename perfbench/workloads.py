"""The benchmark workloads.

A workload builds its code(s) in ``setup`` and then offers two timed
operations, each taking the seed and a variant from ``variants`` and returning
(words decoded, digest):

- ``main``: the operation whose time is ``wall_s`` and whose words per second
  are ``words_per_s`` (workers=1);
- ``wn``:   the same kind of decoding at workers=nproc, for ``words_per_s_2w``.

A digest is the JSON-able output the correctness gate compares.  Every call
goes through the package's module attributes (``pkg.simulate.simulate_bler``
and so on), so the span tracer sees it.
"""

from __future__ import annotations

import hashlib
import json

REFERENCE_SEED = 1
DESIGN_SNR_DB = 1.0


def sha256_json(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def sim_digest(res):
    return [res.trials, res.errors, res.bit_errors]


class Workload:
    name = ""
    variants = ("",)      # units cycle through these, e.g. the two baseline codes
    wn_matches = True     # whether wn reproduces main's digest (same chunks)
    f_mode = "exact"      # f rule of the decoding, and of the calibration kernel

    def __init__(self, pkg, tiny):
        self.pkg = pkg

    def design_channel(self):
        return self.pkg.reliability.channel_from_snr_db(DESIGN_SNR_DB)

    def simulate(self, spec, snr_db, seed, trials, chunk, workers=1,
                 list_size=1, f_mode="exact"):
        p = self.pkg
        cfg = p.simulate.SimConfig(spec, p.reliability.channel_from_snr_db(snr_db),
                                   seed=seed, trials=trials, chunk=chunk,
                                   list_size=list_size, f_mode=f_mode)
        return p.simulate.simulate_bler(cfg, workers=workers)

    def alloc_probe(self, seed):
        """One untimed decode under tracemalloc; only list decoding has one."""

    def counts(self):
        raise NotImplementedError


class StitchedSim(Workload):
    """Fixed-trial simulate_bler on the partially stitched (320,160) code."""

    list_size = 1
    crc = False

    def __init__(self, pkg, tiny):
        super().__init__(pkg, tiny)
        if tiny:
            self.n, self.k, self.s, self.family_len = 40, 20, 3, 8
        else:
            self.n, self.k, self.s, self.family_len = 320, 160, 5, 32

    def setup(self):
        p = self.pkg
        fam = p.stitching.build_family(self.family_len, self.design_channel())
        spec, _ = p.stitching.partially_stitched(self.n, self.k, self.s, fam)
        if self.crc:
            spec = p.codes.CodeSpec(spec.sequence, spec.info, crc=p.codes.CRC11)
        p.decoding.schedule_for(spec)
        self.spec = spec
        warm = self.simulate(spec, self.snr_db, REFERENCE_SEED, self.warm_chunk,
                             self.warm_chunk, list_size=self.list_size, f_mode=self.f_mode)
        return {"code_sha256": sha256_json(p.codes.spec_to_json(spec)),
                "warmup": sim_digest(warm)}

    def main(self, seed, variant):
        res = self.simulate(self.spec, self.snr_db, seed, self.trials, self.chunk,
                            list_size=self.list_size, f_mode=self.f_mode)
        return res.trials, sim_digest(res)

    def wn(self, seed, variant, workers):
        res = self.simulate(self.spec, self.snr_db, seed, self.trials, self.chunk,
                            workers=workers, list_size=self.list_size,
                            f_mode=self.f_mode)
        return res.trials, sim_digest(res)

    def counts(self):
        p = self.pkg
        return {"schedule_ops": len(p.decoding.schedule_for(self.spec)),
                "transform_count": p.stitching.transform_count(self.spec)}


class ScStc320(StitchedSim):
    """SC with exact f: the schedule interpreter dominates."""

    name = "sc-stc320"
    snr_db = 0.0

    def __init__(self, pkg, tiny):
        super().__init__(pkg, tiny)
        self.chunk = self.warm_chunk = 256 if tiny else 4096
        self.trials = 4 * self.chunk


class Scl8Stc320(StitchedSim):
    """CRC11-aided SCL with L=8 on the same code: path cloning dominates."""

    name = "scl8-stc320"
    list_size = 8
    crc = True
    snr_db = -1.5

    def __init__(self, pkg, tiny):
        super().__init__(pkg, tiny)
        self.chunk = 32 if tiny else 64
        self.warm_chunk = 8 if tiny else 16
        self.trials = 2 * self.chunk

    def alloc_probe(self, seed):
        self.simulate(self.spec, self.snr_db, seed, self.chunk, self.chunk,
                      list_size=self.list_size, f_mode=self.f_mode)


class SearchRm320(Workload):
    """snr_search to BLER 1e-2 on the QUP and BRS (320,160) baselines."""

    name = "search-rm320"
    variants = ("qup", "brs")
    wn_matches = False
    f_mode = "minsum"
    target = 1e-2
    bracket = (-0.5, 0.5)
    tol = 0.6
    min_errors = 5
    wn_snr_db = 0.0
    chunk = 4096          # snr_search always simulates in chunks of this size

    def __init__(self, pkg, tiny):
        super().__init__(pkg, tiny)
        self.n, self.k = (40, 20) if tiny else (320, 160)
        # the tiny codes are far weaker, so their BLER crosses 1e-2 higher up
        self.bracket = (0.0, 2.0) if tiny else self.bracket
        self.tol = 1.2 if tiny else self.tol
        self.wn_snr_db = 1.0 if tiny else self.wn_snr_db

    def setup(self):
        p = self.pkg
        self.codes = {}
        digest = {}
        for kind in self.variants:
            spec = p.reliability.build_baseline(kind, self.n, self.k, self.design_channel())
            p.decoding.schedule_for(spec)
            self.codes[kind] = spec
            digest[f"{kind}_sha256"] = sha256_json(p.codes.spec_to_json(spec))
        warm = self.simulate(self.codes["qup"], self.wn_snr_db, REFERENCE_SEED,
                             1024, 1024, f_mode=self.f_mode)
        digest["warmup"] = sim_digest(warm)
        return digest

    def main(self, seed, variant):
        res = self.pkg.simulate.snr_search(
            self.codes[variant], self.target, self.bracket, seed=seed,
            f_mode=self.f_mode, tol=self.tol, max_trials=4 * self.chunk,
            min_errors=self.min_errors, workers=1)
        check_search(res, self)
        words = sum(r.trials for _, r in res.evals)
        return words, {"param": res.param, "bracket": list(res.bracket),
                       "evals": [[pt] + sim_digest(r) for pt, r in res.evals]}

    def wn(self, seed, variant, workers):
        res = self.simulate(self.codes[variant], self.wn_snr_db, seed,
                            2 * self.chunk, self.chunk, workers=workers, f_mode=self.f_mode)
        return res.trials, sim_digest(res)

    def counts(self):
        p = self.pkg
        codes = [self.codes[k] for k in self.variants]
        return {"schedule_ops": sum(len(p.decoding.schedule_for(c)) for c in codes),
                "transform_count": sum(p.stitching.transform_count(c) for c in codes)}


def check_search(res, wl):
    """Raise unless the search result is the bisection its own evals imply."""
    lo, hi = (float(x) for x in wl.bracket)
    evals = list(res.evals)
    if [pt for pt, _ in evals[:2]] != [lo, hi]:
        raise AssertionError("search did not start at the bracket ends")
    for pt, r in evals:
        if not (0 <= r.errors <= r.bit_errors and r.errors <= r.trials
                and r.ci_low <= r.bler <= r.ci_high):
            raise AssertionError(f"inconsistent counts at {pt}")
    for pt, r in evals[2:]:
        if pt != 0.5 * (lo + hi):
            raise AssertionError(f"eval at {pt} is not the bracket midpoint")
        if r.bler < wl.target:
            hi = pt
        else:
            lo = pt
    if hi - lo > wl.tol or (lo, hi) != tuple(res.bracket) or res.param != 0.5 * (lo + hi):
        raise AssertionError("search answer does not follow from its evals")


WORKLOADS = {wl.name: wl for wl in (ScStc320, Scl8Stc320, SearchRm320)}
