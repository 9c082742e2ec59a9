"""stitchpolar benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any checkout that has ``src/stitchpolar``).
Workloads: sc-stc320, scl8-stc320, search-rm320 (see README.md).

The work happens in fresh child processes ("jobs"); this process only starts
them one after another, gates their outputs and aggregates.  An untraced run
has PROCESSES jobs, each timed from before ``import stitchpolar`` through its
set-up and warm-up chunk, then repeating timed units for its share of
``--seconds``.  Metrics are medians over all jobs, so one process's luck does
not set the result.  A traced run has one job that alternates untraced and
traced units over the whole ``--seconds``.

Every time is normalised to the host's speed during the run: a fixed
calibration kernel (calib.py) runs after each job's first unit and after each
later operation, and the run's times are rescaled by the median calibration
time.  The peak resident set is read before the first calibration call.

Every operation's output is checked against the reference values in
references.json, against the first repeat of the same operation in any job,
and (workers=nproc against workers=1) against its single-worker twin.  The
last stdout line is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
REFERENCES_JSON = os.path.join(HERE, "references.json")

PROCESSES = 3
TINY_PROCESSES = 2
FIRST_CALIBRATIONS = 5   # calibration calls after each job's first unit
OP_CALIBRATIONS = 2      # calibration calls after each later timed operation
RUN_DEADLINE_S = 170   # every job of a run must end within this many seconds
MODULES = ("sequences", "codes", "reliability", "decoding", "stitching", "simulate")

# per-layer metrics from the spans of the traced main operations:
# metric name -> (span name, field)
LAYER_METRICS = {
    "decoding.sc_decode_batch.busy_s": ("decoding.sc_decode_batch", "busy_s"),
    "decoding.sc_decode_batch.calls": ("decoding.sc_decode_batch", "calls"),
    "decoding.scl_decode_batch.busy_s": ("decoding.scl_decode_batch", "busy_s"),
    "codes.crc_check.busy_s": ("codes.crc_check", "busy_s"),
    "codes.rm_encode.busy_s": ("codes.rm_encode", "busy_s"),
    "simulate.channel_transmit.busy_s": ("simulate.channel_transmit", "busy_s"),
    "decoding.rm_llrs.busy_s": ("decoding.rm_llrs", "busy_s"),
    "simulate.simulate_bler.self_s": ("simulate.simulate_bler", "self_s"),
    "simulate.simulate_bler.calls": ("simulate.simulate_bler", "calls"),
    "simulate.simulate_bler.chunks": ("simulate.simulate_bler", "extra"),
    "simulate.clopper_pearson.busy_s": ("simulate.clopper_pearson", "busy_s"),
    "simulate.snr_search.self_s": ("simulate.snr_search", "self_s"),
    "bench.self_s": ("bench.unit", "self_s"),
}
# the same spans summed over the workers=nproc operation
LAYER_METRICS_2W = {
    "decoding.sc_decode_batch.busy_s_2w": ("decoding.sc_decode_batch", "busy_s"),
    "decoding.scl_decode_batch.busy_s_2w": ("decoding.scl_decode_batch", "busy_s"),
}
# construction spans of the traced set-up
SETUP_METRICS = {
    "setup.stitching.build_family.self_s": ("stitching.build_family", "self_s"),
    "setup.reliability.ga_awgn.busy_s": ("reliability.ga_awgn", "busy_s"),
    "setup.reliability.ga_awgn.calls": ("reliability.ga_awgn", "calls"),
    "setup.stitching.partially_stitched.busy_s": ("stitching.partially_stitched", "busy_s"),
    "setup.stitching.allocate_rates.busy_s": ("stitching.allocate_rates", "busy_s"),
    "setup.reliability.build_baseline.busy_s": ("reliability.build_baseline", "busy_s"),
    "setup.sequences.validate.busy_s": ("sequences.validate", "busy_s"),
    "setup.decoding.compile_schedule.busy_s": ("decoding.compile_schedule", "busy_s"),
    "setup.simulate.simulate_bler.busy_s": ("simulate.simulate_bler", "busy_s"),
    "setup.bench.self_s": ("bench.setup", "self_s"),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def check_sources():
    if not os.path.isfile(os.path.join(SRC, "stitchpolar", "__init__.py")):
        raise BenchError(f"no stitchpolar sources under {SRC}")


def import_package():
    """Import stitchpolar from this checkout's src/ and nowhere else."""
    check_sources()
    sys.path.insert(0, SRC)
    pkg = importlib.import_module("stitchpolar")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise BenchError(f"stitchpolar imported from {pkg.__file__}, not {SRC}")
    for name in MODULES:
        setattr(pkg, name, importlib.import_module(f"stitchpolar.{name}"))
    return pkg


def nproc():
    return len(os.sched_getaffinity(0))


def canonical(obj):
    return json.loads(json.dumps(obj))


def base_kind(kind):
    return kind.split(":")[0]


class Job:
    """One process's share of a run: a timed set-up, then timed units.

    A unit is ``main`` and ``wn``.
    Each operation is recorded as [kind, seconds, words, digest, traced];
    the kind carries the unit's variant, as in ``main:qup``.  ``cals`` holds
    the calibration times.
    """

    def __init__(self, name, seed, seconds, trace, tiny, index):
        self.t0 = time.perf_counter()
        pkg = import_package()
        import workloads
        self.wl = workloads.WORKLOADS[name](pkg, tiny)
        self.tiny = tiny
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.index = index
        self.workers = nproc()
        self.ops = []
        self.errors = []
        self.roots = {"unit": [], "wn": [], "setup": []}
        self.tracer = None
        if trace:
            import spans
            self.tracer = spans.Tracer({m: getattr(pkg, m) for m in MODULES})

    @contextmanager
    def traced(self, root, on):
        if not on:
            yield
            return
        with self.tracer.installed(), self.tracer.root(f"bench.{root}") as rid:
            yield
        self.roots[root].append(rid)

    def setup(self):
        with self.traced("setup", self.trace):
            digest = self.wl.setup()
        self.setup_s = time.perf_counter() - self.t0
        self.setup_digest = canonical(digest)
        import calib
        self.calibrator = calib.Calibrator(self.wl.f_mode, self.tiny)
        self.cals = []

    def calibrate(self, calls=OP_CALIBRATIONS):
        """Time the calibration kernel; called outside any trace."""
        self.cals.extend(self.calibrator() for _ in range(calls))

    def op(self, kind, fn, traced):
        try:
            t0 = time.perf_counter()
            words, digest = fn()
            dt = time.perf_counter() - t0
        except Exception as exc:  # a failing operation is a counted failure
            traceback.print_exc(file=sys.stderr)
            self.errors.append([kind, f"{type(exc).__name__}: {exc}"])
            return
        self.ops.append([kind, dt, words, canonical(digest), traced])

    def unit(self, k):
        """Run unit k; a traced job runs each variant twice, untraced then traced."""
        wl, seed = self.wl, self.seed
        step = k // 2 if self.trace else k
        variant = wl.variants[(self.index + step) % len(wl.variants)]
        suffix = f":{variant}" if variant else ""
        traced = self.trace and k % 2 == 1
        start = time.perf_counter()
        with self.traced("unit", traced):
            self.op("main" + suffix, lambda: wl.main(seed, variant), traced)
        spent = time.perf_counter() - start
        if k:
            self.calibrate()
        start = time.perf_counter()
        with self.traced("wn", traced):
            self.op("wn" + suffix, lambda: wl.wn(seed, variant, self.workers), traced)
        spent += time.perf_counter() - start
        if k:
            self.calibrate()
        return spent

    def timed(self):
        """Repeat units until the budget is spent: a unit starts only while its
        expected end is within half a unit of the budget.  Only the units'
        own time counts, not the calibration calls between them."""
        durations = []
        min_units = 2 if self.trace else 1
        while True:
            durations.append(self.unit(len(durations)))
            if len(durations) == 1:
                # no calibration has run yet, so this peak is the program's own
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                self.calibrate(FIRST_CALIBRATIONS)
            if len(durations) >= min_units and \
                    sum(durations) + statistics.median(durations) / 2 > self.seconds:
                break

    def op_seconds(self, traced):
        """Median seconds of main over the traced or untraced units."""
        return statistics.median(dt for kind, dt, _, _, tr in self.ops
                                 if base_kind(kind) == "main" and tr == traced)

    def layer_metrics(self):
        """Per-layer metrics of a traced job, and the span summaries."""
        import spans
        tr = self.tracer
        with tr.installed(), tr.root("bench.probe"), tr.alloc_probe():
            self.wl.alloc_probe(self.seed)
        n_units = len(self.roots["unit"])
        unit = spans.summarize(tr.spans, tr.extras, self.roots["unit"])
        wn = spans.summarize(tr.spans, tr.extras, self.roots["wn"])
        setup = spans.summarize(tr.spans, tr.extras, self.roots["setup"])

        def pick(summary, table, per):
            return {m: summary.get(s, {}).get(f, 0) / per for m, (s, f) in table.items()}

        out = pick(unit, LAYER_METRICS, n_units)
        out.update(pick(wn, LAYER_METRICS_2W, len(self.roots["wn"])))
        out.update(pick(setup, SETUP_METRICS, 1))
        traced_wall = unit["bench.unit"]["busy_s"] / n_units
        layer_self = sum(row["self_s"] for name, row in unit.items() if name != "bench.unit")
        untraced = self.op_seconds(False)
        out["trace.wall_s"] = traced_wall
        out["trace.layer_frac"] = layer_self / n_units / traced_wall
        out["trace.overhead_s"] = self.op_seconds(True) - untraced
        out["trace.overhead_frac"] = out["trace.overhead_s"] / untraced
        out["decoding.scl_decode_batch.peak_alloc_mb"] = (
            tr.peaks.get("decoding.scl_decode_batch", 0) / 2 ** 20)
        return out, {"unit": unit, "wn": wn, "setup": setup}

    def write_trace(self, summaries):
        os.makedirs(OUT_DIR, exist_ok=True)
        recorded = self.tracer.spans
        t_base = min(sp[2] for sp in recorded)
        doc = {"workload": self.wl.name, "seed": self.seed, "roots": self.roots,
               "summary": summaries,
               "spans": [[sid, name, t0 - t_base, t1 - t_base, parent]
                         for sid, name, t0, t1, parent in recorded]}
        path = os.path.join(OUT_DIR, f"trace-{self.wl.name}-seed{self.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return os.path.relpath(path, ROOT)

    def result(self):
        import numpy
        import scipy
        out = {"setup_s": self.setup_s, "setup_digest": self.setup_digest,
               "cals": self.cals, "cal_reference_s": self.calibrator.reference_s,
               "peak_rss_mb": self.peak_rss_mb,
               "ops": self.ops, "errors": self.errors,
               "counts": self.wl.counts(),
               "versions": {"python": sys.version.split()[0],
                            "numpy": numpy.__version__, "scipy": scipy.__version__}}
        if self.trace:
            out["layers"], summaries = self.layer_metrics()
            out["trace_file"] = self.write_trace(summaries)
        return out


def job_main(args_json):
    """Entry point of a job process: prints its result as one JSON line."""
    job = Job(**json.loads(args_json))
    job.setup()
    job.timed()
    print(json.dumps(job.result()))


def run_job(deadline, **kwargs):
    code = "import sys; sys.path.insert(0, sys.argv[1]); import run; run.job_main(sys.argv[2])"
    proc = subprocess.run([sys.executable, "-c", code, HERE, json.dumps(kwargs)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"job {kwargs['index']} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Gate:
    """Counts checked operations and the ones that failed or mismatched."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, what, got, wants):
        """One operation; it fails if its digest differs from any recorded want."""
        self.attempted += 1
        bad = [w for w in wants if w is not None and got != w]
        if bad:
            self.failed += 1
            self.notes.append({"op": what, "got": got, "want": bad[0]})

    def error(self, what, message):
        self.attempted += 1
        self.failed += 1
        self.notes.append({"op": what, "error": message})


def gate_jobs(wl_cls, jobs, refs, seed):
    gate = Gate()
    by_seed = refs.get("by_seed", {}).get(str(seed), {})
    first = {}
    for job in jobs:
        gate.check("setup", job["setup_digest"], [refs.get("setup")])
        for kind, message in job["errors"]:
            gate.error(kind, message)
        for kind, _, _, digest, _ in job["ops"]:
            base = base_kind(kind)
            twin = None
            if base == "wn" and wl_cls.wn_matches:
                twin = first.get("main" + kind[len(base):])
            gate.check(kind, digest, [first.get(kind), twin, by_seed.get(kind)])
            first.setdefault(kind, digest)
    return gate


def host_factor(jobs):
    """Reference over measured calibration seconds: above 1 on a fast host."""
    return jobs[0]["cal_reference_s"] / statistics.median(
        cal for job in jobs for cal in job["cals"])


def variant_mean(by_kind):
    """Mean over the variants of each variant's median.  The variants of a
    workload differ in speed and a run holds an uneven number of each, so a
    plain median would jump between them from run to run."""
    return statistics.fmean(statistics.median(values) for values in by_kind.values())


def e2e_metrics(jobs):
    """Per-variant medians of the measured times, rescaled to the reference
    host speed."""
    walls, rates, rates_n = {}, {}, {}
    for job in jobs:
        for kind, dt, words, _, _ in job["ops"]:
            base = base_kind(kind)
            if base == "main":
                walls.setdefault(kind, []).append(dt)
                rates.setdefault(kind, []).append(words / dt)
            if base == "wn":
                rates_n.setdefault(kind, []).append(words / dt)
    if not (walls and rates and rates_n):
        raise BenchError("no timed operation succeeded")
    host = host_factor(jobs)
    return {"setup_s": statistics.median(job["setup_s"] for job in jobs) * host,
            "wall_s": variant_mean(walls) * host,
            "words_per_s": variant_mean(rates) / host,
            "words_per_s_2w": variant_mean(rates_n) / host,
            "peak_rss_mb": max(job["peak_rss_mb"] for job in jobs)}


def read_git_rev():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_line_count():
    pkg_dir = os.path.join(SRC, "stitchpolar")
    total = 0
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def load_units():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def run(name, seed, seconds, trace, tiny=False, refs=None):
    """Run one workload; returns (result line, side records)."""
    import workloads
    check_sources()
    wl_cls = workloads.WORKLOADS[name]
    if refs is None:
        with open(REFERENCES_JSON, encoding="utf-8") as fh:
            refs = json.load(fh)["tiny" if tiny else "full"][name]
    n_jobs = 1 if trace else TINY_PROCESSES if tiny else PROCESSES
    deadline = time.monotonic() + RUN_DEADLINE_S
    jobs = []
    failed_jobs = []
    for index in range(n_jobs):
        try:
            jobs.append(run_job(deadline, name=name, seed=seed, seconds=seconds / n_jobs,
                                trace=trace, tiny=tiny, index=index))
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            failed_jobs.append(str(exc))
    if not jobs:
        raise BenchError("; ".join(failed_jobs))
    gate = gate_jobs(wl_cls, jobs, refs, seed)
    for message in failed_jobs:
        gate.error("job", message)
    counts = dict(jobs[0]["counts"])
    counts["words"] = next(words for kind, _, words, _, _ in jobs[0]["ops"]
                           if base_kind(kind) == "main")
    records = {"provenance": {"workload": name, "seed": seed, "seconds": seconds,
                              "trace": trace, "tiny": tiny, "git_rev": read_git_rev(),
                              **jobs[0]["versions"], "nproc": nproc(),
                              "jobs": len(jobs), "src_lines": src_line_count()},
               "counts": counts,
               "samples": {"host_factor": host_factor(jobs),
                           "setup_s": [job["setup_s"] for job in jobs],
                           "calibration_s": [cal for job in jobs for cal in job["cals"]],
                           "ops": [op[:3] for job in jobs for op in job["ops"]]}}
    if trace:
        metrics = dict(jobs[0]["layers"])
        metrics["decoding.schedule_ops"] = counts["schedule_ops"]
        metrics["stitching.transform_count"] = counts["transform_count"]
        metrics["simulate.words"] = counts["words"]
        records["trace_file"] = jobs[0]["trace_file"]
    else:
        metrics = e2e_metrics(jobs)
    if gate.notes:
        records["failures"] = gate.notes
    units = load_units()
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, records


def main(argv=None, tiny=False, refs=None):
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("seed must be non-negative")
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running job
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result, records = run(args.workload, args.seed, args.seconds,
                              bool(args.trace), tiny, refs)
    except (BenchError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for key, value in records.items():
        print(json.dumps({key: value}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
