#!/usr/bin/env python3
"""Record the input pool of the digest-checked op kinds and the digests of their outputs.

Run from the repository root, at the commit whose outputs are the reference
(they were recorded at the seed commit, whose output is the byte-identity
contract):

    python3 perfbench/record_digests.py

For every workload's ``modelset`` and ``diffract`` kinds it draws POOL_SIZE
inputs from a fixed generator, runs each once, and writes the inputs with
the SHA-256 of the CSV (and .json sidecar) to perfbench/digests.json.
Recording fails if any call does not exit 0.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from run import OUT, import_cutproject
from tracer import Stopwatch
from workloads import DIGESTS, POOL_SIZE, WORKLOADS


def record(size: int) -> dict:
    cli = import_cutproject()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=OUT))
    pool = {}
    try:
        for w, workload in enumerate(WORKLOADS.values()):
            for k, kind in enumerate(workload.kinds):
                if not kind.pooled:
                    continue
                rng = np.random.default_rng([20261017, w, k])
                entries = []
                for _ in range(size):
                    params = kind.draw(rng)
                    outcome = kind.build(params).run(cli, workdir, Stopwatch())
                    if outcome.rc != 0 or outcome.error:
                        raise SystemExit(f"{workload.name} {kind.name} {params}: exit {outcome.rc} "
                                         f"{outcome.error} {outcome.stderr.strip()}")
                    entries.append([list(params), outcome.files_digest()])
                pool.setdefault(workload.name, {})[kind.name] = entries
                print(f"{workload.name} {kind.name}: {len(entries)} inputs", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return pool


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(record(POOL_SIZE), indent=1) + "\n")
