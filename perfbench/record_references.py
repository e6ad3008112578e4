#!/usr/bin/env python3
"""Records the references that have no closed form, from the code as it stands.

    python3 perfbench/record_references.py

Writes perfbench/references.json: the per-degree ideal dimensions of every
`auslander` job, and the stdout digest of the `cli_sweep` pass for seed 0.
Run it only on a commit whose answers are trusted; the benchmark then holds
every later commit to them.  It first checks each answer against the rules
that need no recording (witnesses, Molien series, closed forms) and refuses
to write if one fails.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

CLI_SEED = 0


def main() -> int:
    mods = workloads.Modules()
    refs = {"auslander": {}, "cli_sweep": {"seed": CLI_SEED, "stdout_sha256": None}}
    bad = []
    for job in workloads.auslander_jobs(mods, {"auslander": {}}):
        rep = job.run()
        got = workloads.canonical_witness(rep)
        refs["auslander"][job.name] = {"witness": got["witness"], "ideal_dims": got["ideal_dims"]}
        # the only expected problem is the missing recording itself
        problems = [p for p in job.check(rep) if p != "no recorded per-degree dims"]
        if problems:
            bad.append((job.name, problems))
        print(job.name, got["witness"], got["method"], flush=True)
    stream = []
    for job in workloads.cli_jobs(mods, CLI_SEED):
        rc, out = job.run()
        problems = job.check((rc, out))
        if problems:
            bad.append((job.name, problems))
        stream.append((job.name.split(" "), rc, out))
    refs["cli_sweep"]["stdout_sha256"] = workloads.stream_digest(stream)
    if bad:
        for name, problems in bad:
            print(f"error: {name}: {problems}", file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "references.json"), "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
