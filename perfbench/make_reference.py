#!/usr/bin/env python3
"""Recompute the reference digests that the exact workloads' outputs must match.

    python3 perfbench/make_reference.py [workload ...]

For every input seed, records the digest of the dataset the set-up produces and
of the `run_protocol` report without its timing and call count, and rewrites
those workloads' entries in perfbench/reference.json. Run it only when a
change is meant to alter these outputs, and say so with the change.
"""
import json
import os
import shutil
import sys

import run

run.import_program()

from sublin import protocol  # noqa: E402
from workloads import (INPUT_SEEDS, REFERENCE_PATH, WORKLOADS, SyntheticWorkload,  # noqa: E402
                       dataset_digest, report_digest)


def main(names):
    names = names or [n for n, w in WORKLOADS.items() if isinstance(w, SyntheticWorkload)]
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    workdir = os.path.join(run.ROOT, ".perfbench", f"reference-{os.getpid()}")
    try:
        for name in names:
            workload = WORKLOADS[name]
            entries = {}
            for seed in range(INPUT_SEEDS):
                workload.prepare(workdir, seed)
                dataset = workload.setup()
                report = protocol.run_protocol(workload.config(workload.load()))
                entries[str(seed)] = {"dataset": dataset_digest(dataset),
                                      "report": report_digest(report)}
                print(name, seed, entries[str(seed)], flush=True)
            reference[name] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
