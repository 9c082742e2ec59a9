"""In-memory span tracer that times stitchpolar's layers from outside.

Each public function is wrapped at the module attribute where its caller looks
it up (``stitchpolar.simulate.sc_decode_batch`` is what the chunk loop calls,
``stitchpolar.decoding.crc_check`` what the list decoder calls), so the package
itself is never edited.  A span is (id, name, start, end, parent); spans stay
in memory until the run ends.  Worker threads have no span of their own open,
so their spans hang off the benchmark root that is open in the main thread.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import tracemalloc
from contextlib import contextmanager

# (module the caller looks the name up in, attribute, span name)
PATCH_SITES = (
    ("simulate", "simulate_bler", "simulate.simulate_bler"),
    ("simulate", "snr_search", "simulate.snr_search"),
    ("simulate", "clopper_pearson", "simulate.clopper_pearson"),
    ("simulate", "channel_transmit", "simulate.channel_transmit"),
    ("simulate", "rm_encode", "codes.rm_encode"),
    ("simulate", "rm_llrs", "decoding.rm_llrs"),
    ("simulate", "sc_decode_batch", "decoding.sc_decode_batch"),
    ("simulate", "scl_decode_batch", "decoding.scl_decode_batch"),
    ("decoding", "crc_check", "codes.crc_check"),
    ("decoding", "compile_schedule", "decoding.compile_schedule"),
    ("decoding", "validate", "sequences.validate"),
    ("stitching", "build_family", "stitching.build_family"),
    ("stitching", "partially_stitched", "stitching.partially_stitched"),
    ("stitching", "allocate_rates", "stitching.allocate_rates"),
    ("stitching", "ga_awgn", "reliability.ga_awgn"),
    ("stitching", "de_bec", "reliability.de_bec"),
    ("reliability", "ga_awgn", "reliability.ga_awgn"),
    ("reliability", "de_bec", "reliability.de_bec"),
    ("reliability", "validate", "sequences.validate"),
    ("reliability", "build_baseline", "reliability.build_baseline"),
    ("sequences", "validate", "sequences.validate"),
)

# spans whose peak traced allocation is recorded while an alloc probe is open
ALLOC_SPANS = frozenset({"decoding.scl_decode_batch"})


def _sim_chunks(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    return -(-result.trials // cfg.chunk)


# per-span extra count taken from the call and its result
EXTRAS = {"simulate.simulate_bler": _sim_chunks}


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self, modules):
        self._modules = modules
        self._saved = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._alloc = False
        self.spans = []       # (id, name, t0, t1, parent)
        self.extras = {}      # span id -> extra count
        self.peaks = {}       # span name -> peak traced allocation, bytes

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        extra = EXTRAS.get(name)
        probe = name in ALLOC_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            alloc = probe and self._alloc
            if alloc:
                tracemalloc.start()
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent))
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks.get(name, 0), peak)
            if extra is not None:
                self.extras[sid] = extra(args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every patch site for the duration of the block."""
        for mod_name, attr, name in PATCH_SITES:
            mod = self._modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))
        try:
            yield self
        finally:
            for mod, attr, fn in reversed(self._saved):
                setattr(mod, attr, fn)
            self._saved.clear()

    @contextmanager
    def root(self, name):
        """Open a benchmark root span; yields its id."""
        sid = next(self._ids)
        stack = self._stack()
        outer = self._root
        self._root = sid
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._root = outer
            self.spans.append((sid, name, t0, t1, outer))

    @contextmanager
    def alloc_probe(self):
        """Record peak traced allocation of the ALLOC_SPANS inside the block."""
        self._alloc = True
        try:
            yield
        finally:
            self._alloc = False


def _union_length(intervals, lo, hi):
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans, extras, root_ids):
    """Busy time, self time, calls and extra counts per span name, summed over
    the subtrees of the given roots.

    Busy time is the span's duration; self time is that minus the part of it
    its children cover (overlapping children, as from worker threads, count
    once).  A span nested inside a span of the same name adds no busy time.
    """
    children = {}
    by_id = {}
    for sp in spans:
        by_id[sp[0]] = sp
        children.setdefault(sp[4], []).append(sp)
    out = {}

    def visit(sp, open_names):
        sid, name, t0, t1, _ = sp
        kids = children.get(sid, [])
        row = out.setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "extra": 0})
        covered = _union_length([(k[2], k[3]) for k in kids], t0, t1)
        row["self_s"] += (t1 - t0) - covered
        row["calls"] += 1
        row["extra"] += extras.get(sid, 0)
        if name not in open_names:
            row["busy_s"] += t1 - t0
        inner = open_names | {name}
        for k in kids:
            visit(k, inner)

    for rid in root_ids:
        visit(by_id[rid], frozenset())
    return out
