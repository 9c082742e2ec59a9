"""Self-test of the benchmark at tiny sizes; finishes in seconds.

    python3 perfbench/selftest.py

Runs every workload end to end, untraced and traced, and checks that:
- the last output line has exactly the keys correct, attempted, failed and
  metrics, with every metric of BENCHMARK.json under its unit;
- the current code passes the correctness gate;
- on the traced run, layer self times plus the benchmark's own self time
  account for the traced wall time;
- a doctored reference count makes the gate fail;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import copy
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout

import run


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run_tiny(workload, trace, refs=None, seed=1):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                         "--trace", str(trace)], tiny=True, refs=refs)
    lines = buf.getvalue().strip().splitlines()
    if code != 0:
        fail(f"{workload} trace={trace} exited {code}")
    records = {}
    for line in lines[:-1]:
        records.update(json.loads(line))
    return json.loads(lines[-1]), records


def check_format(workload, trace, result, bench):
    section = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"{workload} trace={trace}: metrics differ: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            fail(f"{workload}: metric {name} = {got[name]}")
        if not trace and value <= 0:
            fail(f"{workload}: end-to-end metric {name} is {value}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: gate {result}")


def check_accounting(workload, metrics):
    wall = metrics["trace.wall_s"]["value"]
    layers = metrics["trace.layer_frac"]["value"] * wall
    own = metrics["bench.self_s"]["value"]
    if not math.isclose(layers + own, wall, rel_tol=1e-9):
        fail(f"{workload}: layer self {layers} + bench self {own} != traced wall {wall}")


def check_doctored():
    with open(run.REFERENCES_JSON, encoding="utf-8") as fh:
        refs = json.load(fh)["tiny"]["sc-stc320"]
    doctored = copy.deepcopy(refs)
    doctored["by_seed"]["1"]["main"][1] += 1        # one more block error
    result, _ = run_tiny("sc-stc320", 0, refs=doctored)
    if result["correct"] or result["failed"] < 1:
        fail(f"doctored main count not caught: {result}")
    doctored = copy.deepcopy(refs)
    doctored["setup"]["warmup"][2] += 1             # one more bit error
    result, _ = run_tiny("sc-stc320", 0, refs=doctored)
    if result["correct"] or result["failed"] < 1:
        fail(f"doctored warm-up count not caught: {result}")


def check_bare_directory():
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        shutil.copy(run.BENCHMARK_JSON, tmp)
        shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sc-stc320",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=170)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail(f"bare directory run exited {proc.returncode}: {proc.stdout[-500:]}")


def main():
    with open(run.BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            result, records = run_tiny(workload, trace)
            check_format(workload, trace, result, bench)
            if trace:
                check_accounting(workload, result["metrics"])
            elif not {"provenance", "counts", "samples"} <= set(records):
                fail(f"{workload}: side records {sorted(records)}")
        print(f"ok {workload}")
    check_doctored()
    print("ok doctored references fail the gate")
    check_bare_directory()
    print("ok bare directory exits non-zero")


if __name__ == "__main__":
    main()
