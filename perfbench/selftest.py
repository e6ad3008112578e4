#!/usr/bin/env python3
"""Self-tests of the benchmark itself (about a minute):

    python3 perfbench/selftest.py

- smoke runs of every workload, untraced and traced, whose results must
  carry exactly the metric names and units of BENCHMARK.json;
- per-layer counts that repeat exactly between two traced runs;
- checkers that flag corrupted references (G_(5,3) witness 16 -> 15, a
  recorded ideal dimension, a Molien coefficient, a CLI stdout byte);
- a run in a directory without the skewinv sources, which must fail
  without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def run(workload: str, trace: int, cwd: str = ROOT, smoke: bool = True):
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv + (["--smoke"] if smoke else []), cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stdout


def check_result_shape(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in (wl["name"] for wl in spec["workloads"]):
        counts = []
        for trace, names in ((0, e2e), (1, layers), (1, layers)):
            rc, res, _ = run(w, trace)
            expect(rc == 0 and res is not None, f"{w} trace={trace}: exit 0 with a result")
            if res is None:
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{w} trace={trace}: result keys")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{w} trace={trace}: correct, none failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == names, f"{w} trace={trace}: metric names and units match BENCHMARK.json")
            if trace:
                counts.append({k: v["value"] for k, v in res["metrics"].items()
                               if v["unit"] in ("count", "bytes")})
        expect(len(counts) == 2 and counts[0] == counts[1], f"{w}: traced counts repeat exactly")


def check_checkers() -> None:
    mods = workloads.Modules()
    with open(os.path.join(HERE, "references.json")) as f:
        refs = json.load(f)
    spec = {s[0]: s for s in workloads.auslander_specs()}
    name, _, _, N, order, witness, method = spec["G_(5,3)"]
    job = next(j for j in workloads.auslander_jobs(mods, refs) if j.name == name)
    rep = job.run()
    expect(job.check(rep) == [], "G_(5,3) passes against the true references")
    bad = workloads._check_witness(order, N, 15, method, refs["auslander"][name])
    expect(any("witness" in p for p in bad(rep)), "G_(5,3) witness 16 -> 15 is flagged")
    rec = json.loads(json.dumps(refs["auslander"][name]))
    rec["ideal_dims"][10] -= 1
    bad = workloads._check_witness(order, N, witness, method, rec)
    expect(any("ideal dims" in p for p in bad(rep)), "a corrupted recorded ideal dim is flagged")

    argv = ["molien"] + workloads.QM1 + ["7", "3", "--N", "30"]
    facts = {"group": ("gnk", 7, 3), "N": 30}
    rc, out = workloads.run_cli(mods, argv)
    expect(workloads.check_query(argv, facts, rc, out) == [], "molien G_(7,3) passes")
    payload = json.loads(out)
    payload["series"][12] = str(int(payload["series"][12]) + 1)
    expect(workloads.check_query(argv, facts, rc, json.dumps(payload)) != [],
           "a corrupted Molien coefficient is flagged")
    d1 = workloads.stream_digest([(argv, rc, out)])
    d2 = workloads.stream_digest([(argv, rc, out.replace("1", "2", 1))])
    expect(d1 != d2, "one changed stdout byte changes the stream digest")
    expect(oracle.g73_molien(60) == oracle.molien(oracle.gnk_group(7, 3), 60, True),
           "the G_(7,3) closed form equals the trace average")


def check_missing_sources() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".selftest-") as tmp:
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        rc, res, out = run("cli_sweep", 0, cwd=tmp, smoke=False)
        expect(rc != 0 and not out.strip(), "without src/ the run fails and prints no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_result_shape(spec)
    check_checkers()
    check_missing_sources()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
