"""Regenerate perfbench/references.json from the code as it stands.

    python3 perfbench/record.py

Run it only on a commit whose outputs are trusted: every later benchmark run
is gated against what this writes.  For each workload, at full and tiny size,
it records the set-up digest (code fingerprints and the warm-up chunk at the
reference seed) and the outputs of every timed operation for seeds 1-10
under "by_seed".
"""

from __future__ import annotations

import json
import os
import sys

import run

SEEDS = range(1, 11)


def record(name, tiny):
    import workloads
    wl = workloads.WORKLOADS[name](run.import_package(), tiny)
    out = {"setup": run.canonical(wl.setup()), "by_seed": {}}
    for seed in SEEDS:
        ops = {}
        for variant in wl.variants:
            suffix = f":{variant}" if variant else ""
            ops["main" + suffix] = wl.main(seed, variant)[1]
            ops["wn" + suffix] = wl.wn(seed, variant, run.nproc())[1]
        out["by_seed"][str(seed)] = ops
        print(name, "tiny" if tiny else "full", seed, file=sys.stderr, flush=True)
    return run.canonical(out)


def main():
    import workloads
    refs = {"reference_seed": workloads.REFERENCE_SEED,
            "full": {}, "tiny": {}}
    for tiny in (True, False):
        for name in workloads.WORKLOADS:
            refs["tiny" if tiny else "full"][name] = record(name, tiny)
    path = os.path.join(run.HERE, "references.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
