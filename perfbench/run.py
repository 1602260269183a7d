#!/usr/bin/env python3
"""dompack benchmark: fixed-seed workloads driven through the CLI.

    python3 perfbench/run.py --workload construct-scale --seed 1 --seconds 50 --trace 0

Workloads (see BENCHMARK.json for why the measured ones were chosen):

* ``scan-enum6``: one ``scan --enumerate-n 6 --check duality`` request.
* ``construct-scale``: a seeded corpus of ``construct --class C`` requests
  over all nine classes, four sizes a factor of 8 apart.
* ``solve-hard``: a seeded corpus of ``solve`` requests, kernel-bound.  Not
  in BENCHMARK.json (see README.md), but run the same way.
* ``all``: the three in turn, for a one-command overview.

Run from the root of a checkout.  An untraced run drives the workload in
three fresh child processes (``worker.py``) one after another, each for a
third of the seconds; a traced run uses one.  Set-up time is measured on
fresh children too.  The last line of stdout is the JSON result; the lines
before it give every metric by name and unit, the backend, interpreter,
nproc and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import worker  # noqa: E402

SETUP_SAMPLES = 8  # fresh set-up-only children per untraced run
WORKER_PROCESSES = 3  # fresh workload children in an untraced run, one after another
CHILD_TIMEOUT_S = 160


def _finish(proc, deadline: float) -> str:
    """Wait for a child; raise unless it exited 0."""
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("child timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"child failed ({proc.returncode}): {err.strip()[-2000:]}")
    return err


def _start(args: list, env: dict, deadline: float, cpu=None):
    """Spawn a worker, on ``cpu`` alone if given; returns it and the seconds
    until it printed ready."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        preexec_fn=pin,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, deadline)
        raise RuntimeError(f"child printed {line!r} instead of ready")
    return proc, ready


def run_workload(workload: str, seed: int, seconds: float, trace: int, tmp_root: str) -> dict:
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    reqs = corpus.build_corpus(workload, seed, workdir)
    with open(os.path.join(workdir, "requests.json"), "w", encoding="utf-8") as fh:
        json.dump(reqs, fh)

    cpus = sorted(os.sched_getaffinity(0))

    def setup_only(k):
        # Set-ups take turns on the CPUs, like the workload's passes.
        proc, ready = _start(["--workload", workload, "--setup-only"], env, deadline,
                             cpus[k % len(cpus)])
        _finish(proc, deadline)
        return ready

    # Set-up is an end-to-end metric; a traced run skips it.  The samples are
    # spread over the run: some before each worker process, the rest after.
    samples = 0 if trace else SETUP_SAMPLES
    processes = 1 if trace else WORKER_PROCESSES
    per_gap = samples // (processes + 1)
    setup = []
    parts = []
    for k in range(processes):
        setup += [setup_only(len(setup)) for _ in range(per_gap)]
        name = f"result{k}.json"
        proc, _ = _start(["--workload", workload, "--workdir", workdir, "--seconds",
                          str(seconds / processes), "--trace",
                          str(trace), "--seed", str(seed), "--result", name], env, deadline)
        _finish(proc, deadline)
        with open(os.path.join(workdir, name), encoding="utf-8") as fh:
            parts.append(json.load(fh))
    setup += [setup_only(len(setup)) for _ in range(samples - len(setup))]
    result = parts[0] if trace else _merge(workload, len(reqs), parts)
    if not trace:
        result["metrics"]["setup_s"] = [statistics.median(setup), "s"]
    result["setup_samples"] = len(setup)
    return result


def _merge(workload: str, n_reqs: int, parts: list) -> dict:
    """One result from the run's worker processes: every stretch at its
    fastest over the passes of all of them (a process can be slow for its
    whole life, as a slow spell of the host can last as long as one), counts
    summed, and a process whose stdout differs from the first one's failed
    on every request."""
    first = parts[0]
    result = {k: first[k] for k in ("backend", "python", "requests")}
    stretches = [worker.fastest_stretches(col) for col in zip(*(p["fastest"] for p in parts))]
    rss = max(p["peak_rss_mb"] for p in parts)
    result["metrics"] = worker.end_to_end(workload, stretches, rss)
    problems = [q for p in parts for q in p["problems"]]
    failed = sum(p["failed"] for p in parts)
    for k, p in enumerate(parts[1:], 1):
        if p["stdout_sha256"] != first["stdout_sha256"]:
            failed += n_reqs
            problems.append(f"process {k}: stdout differs from process 0")
    digests = {p["stdout_sha256"] for p in parts}
    result.update({
        "attempted": sum(p["attempted"] for p in parts),
        "failed": failed,
        "problems": problems[:10],
        "passes": sum(p["passes"] for p in parts),
        "pass_walls_s": [w for p in parts for w in p["pass_walls_s"]],
        "samples": sum(p["samples"] for p in parts),
        "stdout_sha256": digests.pop() if len(digests) == 1 else "differs",
        "processes": len(parts),
    })
    return result


def report(workload: str, seed: int, trace: int, result: dict) -> None:
    info = {
        "workload": workload, "seed": seed, "trace": trace,
        "backend": result["backend"], "python": result["python"],
        "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
        "processes": result.get("processes", 1),
        "passes": result["passes"], "pass_walls_s": result["pass_walls_s"],
        "requests_per_pass": result["requests"],
        "latency_samples": result["samples"], "setup_samples": result["setup_samples"],
        "stdout_sha256": result["stdout_sha256"],
    }
    print("info " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"metric {workload} {name} = {value:.6g} {unit}")
    frac = result["failed"] / result["attempted"]
    print(f"metric {workload} fail_frac = {frac:.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    for name, share in result.get("shares", {}).items():
        print(f"share {workload} {name}: traced {share['traced']:.3f}, "
              f"ROADMAP {share['roadmap']:.2f} -> {share['verdict']}")
    if result.get("parity_mismatches"):
        print(f"parity {workload}: pure kernel differs on requests {result['parity_mismatches']}")
    for problem in result["problems"]:
        print(f"problem {workload} {problem}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*corpus.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "dompack", "cli.py")):
        print(f"error: no dompack sources under {SRC}", file=sys.stderr)
        return 2

    tmp_root = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {}
        for w in workloads:
            results[w] = run_workload(w, args.seed, args.seconds, args.trace, tmp)
            report(w, args.seed, args.trace, results[w])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(tmp_root):
            os.rmdir(tmp_root)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    prefix = len(workloads) > 1
    metrics = {
        (f"{w}.{name}" if prefix else name): {"value": value, "unit": unit}
        for w, r in results.items() for name, (value, unit) in sorted(r["metrics"].items())
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
