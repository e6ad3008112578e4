#!/usr/bin/env python3
"""skewinv benchmark: one workload, measured in passes of one closed-loop client.

    python3 perfbench/run.py --workload {presentations,auslander,cli_sweep}
        --seed N --seconds S --trace {0,1} [--smoke]

A pass is one fresh Python process whose single client runs the workload's
job list back to back (no threads, no process per job) and then checks every
answer against its reference.  A run makes passes one after another, as many
as fit in --seconds at their nominal length (PASS_S).  Pass i of cli_sweep
draws its queries from seed 64*N + i, so a seed always gives the same
inputs; the fixture workloads do not depend on the seed.  With --trace 0 the
run prints the end-to-end metrics over its passes.  With --trace 1 it makes
one untraced and one traced pass of the same list (tracing.py) and prints
the per-layer metrics and the tracing overhead.
Lines before the last are provenance and one record per job; the last line
is the JSON result.  --smoke makes one pass of a few cheap jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from quantile import harrell_davis  # noqa: E402

# Nominal seconds of one pass on a 2-core Xeon VM.  A run makes as many whole
# passes as fit in --seconds, and at least one: at 40 s that is four passes of
# cli_sweep, whose metrics then cover four query draws, and one of each fixture
# workload.  The count depends on --seconds only, so a seed gives the same
# inputs on any host.
PASS_S = {"presentations": 22, "auslander": 38, "cli_sweep": 10}
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one pass of a few cheap jobs")
    p.add_argument("--pass-index", type=int, help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pass_seed(seed: int, index: int) -> int:
    return 64 * seed + index


# ---------------------------------------------------------------------------
# one pass, in its own process
# ---------------------------------------------------------------------------


def load_inputs(args, seed):
    """Imports skewinv and builds the job list: the work setup_s covers."""
    mods = workloads.Modules()
    with open(os.path.join(HERE, "references.json")) as f:
        refs = json.load(f)
    jobs = workloads.build(args.workload, mods, refs, seed)
    if args.smoke:
        jobs = [j for j in jobs if j.smoke]
    return mods, refs, jobs


def execute(job, tracer):
    """Runs one job: (result, error, wall_s, cpu_s)."""
    span = tracer.span("job") if tracer is not None else contextlib.nullcontext()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with span:
            res, err = job.run(), None
    except Exception as exc:  # a job that raises is a failed job, not a crashed run
        res, err = None, f"{type(exc).__name__}: {exc}"
    return res, err, time.perf_counter() - t0, time.process_time() - c0


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_metrics(tracer, stdout_bytes) -> dict:
    totals = tracer.layer_totals()
    counts = tracer.counts
    out = {}
    for layer in dict.fromkeys(name for _, _, name in tracing.LAYERS):
        if layer == "auslander.ideal_dims":
            for method in tracing.IDEAL_METHODS:
                key = f"{layer}.{method}"
                out[f"{key}.self_s"] = metric(counts.get(f"{key}.self_s", 0.0), "s")
                out[f"{key}.degrees"] = metric(int(counts.get(f"{key}.degrees", 0)), "count")
            continue
        calls, _, self_s = totals.get(layer, (0, 0.0, 0.0))
        out[f"{layer}.calls"] = metric(calls, "count")
        out[f"{layer}.self_s"] = metric(self_s, "s")
    out["scalars.mul.cyclotomic_calls"] = metric(int(counts.get("scalars.mul.cyclotomic_calls", 0)), "count")
    rows = int(counts.get("linalg.rref.rows", 0))
    out["linalg.rref.rows"] = metric(rows, "count")
    out["linalg.rref.pivot_ratio"] = metric(counts.get("linalg.rref.pivots", 0) / rows if rows else 0.0, "ratio")
    adds = totals.get("linalg.span_add", (0,))[0]
    out["linalg.span_add.useful_ratio"] = metric(counts.get("linalg.span_add.useful", 0) / adds if adds else 0.0, "ratio")
    out["cli.stdout_bytes"] = metric(stdout_bytes, "bytes")
    return out


# Layers each workload must exercise (see README.md); zero calls there means the
# tracer missed a binding, so the traced run fails.
EXPECTED_NONZERO = {
    "presentations": [
        "scalars.mul.calls", "scalars.add.calls", "scalars.inverse.calls", "scalars.mul.cyclotomic_calls",
        "skew_algebra.mul.calls", "linalg.rref.calls", "invariants.molien.calls",
        "presentations.truncated_quotient_dims.calls", "presentations.eval_relations.calls",
        "presentations.verify_presentation.calls",
    ],
    "auslander": [
        "scalars.mul.calls", "scalars.add.calls", "scalars.inverse.calls", "scalars.mul.cyclotomic_calls",
        "skew_algebra.mul.calls", "skew_algebra.apply_aut.calls", "linalg.span_add.calls",
        "auslander.smash_mul.calls", "auslander.finite_dim_witness.calls",
        "auslander.ideal_dims.generic_span.degrees", "auslander.ideal_dims.gh_basis_graph.degrees",
        "auslander.ideal_dims.character_counting.degrees",
    ],
    "cli_sweep": [
        "scalars.root.calls", "scalars.promote.calls", "skew_algebra.mul.calls",
        "skew_algebra.apply_aut.calls", "skew_algebra.power.calls", "linalg.span_add.calls",
        "group_actions.enumerate_group.calls", "group_actions.trace_series.calls",
        "group_actions.group_report.calls", "group_actions.groupspec_build.calls",
        "hj_series.nc_series.calls", "hj_series.hj_expand.calls", "invariants.molien.calls",
        "invariants.fixed_space.calls", "invariants.generator_set.calls",
        "invariants.verify_generation.calls", "invariants.gnk_basis.calls",
        "invariants.theta_correspondence.calls", "auslander.finite_dim_witness.calls",
        "cli.main.calls", "cli.stdout_bytes",
    ],
}


def one_pass(args) -> dict:
    """Runs and checks one pass in this process; prints a record per job."""
    seed = pass_seed(args.seed, args.pass_index)
    tracer = tracing.Tracer() if args.trace else None
    mods, refs, jobs = load_inputs(args, seed)
    print("ready", flush=True)
    runs = [execute(job, tracer) for job in jobs]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.restore()

    failed = 0
    stream = []
    stdout_bytes = 0
    for job, (res, err, wall, cpu) in zip(jobs, runs):
        problems = [err] if err else job.check(res)
        if args.workload == "cli_sweep" and res is not None:
            stream.append((job.name.split(" "), res[0], res[1]))
            stdout_bytes += len(res[1].encode())
        failed += bool(problems)
        print(json.dumps({"pass": args.pass_index, "job": job.name, "wall_s": round(wall, 6),
                          "cpu_s": round(cpu, 6), "ok": not problems, "problems": problems[:3]}))
    correct = failed == 0
    ref = refs["cli_sweep"]
    if args.workload == "cli_sweep" and not args.smoke and seed == ref["seed"]:
        digest = workloads.stream_digest(stream)
        if digest != ref["stdout_sha256"]:
            print(f"error: stdout digest {digest} != recorded {ref['stdout_sha256']}", file=sys.stderr)
            correct = False
    result = {"correct": correct, "attempted": len(runs), "failed": failed,
              "total_s": sum(r[2] for r in runs), "walls": [r[2] for r in runs],
              "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        for line in tracer.table():
            print(line)
        layers = per_layer_metrics(tracer, stdout_bytes)
        missing = [m for m in EXPECTED_NONZERO[args.workload] if not layers[m]["value"]]
        if missing and not args.smoke:
            print(f"error: layers recorded no calls: {missing}", file=sys.stderr)
            result["correct"] = False
        result["layers"] = layers
    return result


# ---------------------------------------------------------------------------
# the run: passes in child processes
# ---------------------------------------------------------------------------


def child_argv(args, *extra):
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        argv.append("--smoke")
    return argv + list(extra)


def spawn(args, *extra):
    """Starts a child and waits for its "ready" line: (process, seconds to ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(child_argv(args, *extra), stdout=subprocess.PIPE, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child {extra} did not get ready (exit code {proc.returncode})")
    return proc, elapsed


def run_pass(args, index, trace) -> tuple[dict, float]:
    """One pass in a fresh process: (its result, its setup seconds)."""
    proc, setup = spawn(args, "--pass-index", str(index), "--trace", str(trace))
    out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} failed with exit code {proc.returncode}")
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1]), setup


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until it is ready for its first job."""
    proc, setup = spawn(args, "--setup-probe")
    proc.communicate(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return setup


def provenance(args) -> dict:
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "skewinv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(args) -> tuple[list[dict], dict]:
    passes, setups = [], []
    count = 1 if args.smoke else max(1, int(args.seconds // PASS_S[args.workload]))
    for index in range(count):
        res, setup = run_pass(args, index, 0)
        passes.append(res)
        setups.append(setup)
    while len(setups) < SETUP_SAMPLES:
        setups.append(probe_setup(args))
    walls = [w for p in passes for w in p["walls"]]
    print(json.dumps({"passes": len(passes), "jobs": len(walls), "setup_samples": len(setups)}))
    return passes, {
        "setup_s": metric(statistics.median(setups), "s"),
        "total_s": metric(statistics.median(p["total_s"] for p in passes), "s"),
        "job_p50_s": metric(harrell_davis(walls, 0.5), "s"),
        "job_p90_s": metric(harrell_davis(walls, 0.9), "s"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def traced(args) -> tuple[list[dict], dict]:
    plain, _ = run_pass(args, 0, 0)
    res, _ = run_pass(args, 0, 1)
    metrics = res["layers"]
    metrics["trace.total_s"] = metric(res["total_s"], "s")
    metrics["trace.overhead_s"] = metric(res["total_s"] - plain["total_s"], "s")
    return [plain, res], metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "skewinv", "__init__.py")):
        print(f"error: no skewinv package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_probe:
        load_inputs(args, pass_seed(args.seed, 0))
        print("ready", flush=True)
        return 0
    if args.pass_index is not None:
        print(json.dumps(one_pass(args)))
        return 0

    print(json.dumps({"provenance": provenance(args)}), flush=True)
    passes, metrics = traced(args) if args.trace else end_to_end(args)
    print(json.dumps({"correct": all(p["correct"] for p in passes),
                      "attempted": sum(p["attempted"] for p in passes),
                      "failed": sum(p["failed"] for p in passes),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
