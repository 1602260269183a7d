"""Benchmark child process: one fresh interpreter per workload run.

It imports the CLI, does the lazy set-up the workload triggers, prints
``ready`` (the parent times the start-up up to that line), then drives
``dompack.cli.main(argv)`` in a closed loop: one client, the next request
only after the previous one returned.  Passes over the request list repeat
until the run's seconds are used, taking turns on the CPUs.  Stdout of each
pass goes to a file, and everything is checked after the timed region.

With tracing on, one untraced pass is followed by traced passes, and the
result carries per-layer numbers instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
from array import array
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

# Span groups reported as <group>.self_s, and those also reported as
# <group>.calls.  Self times are medians over the traced passes.
LAYER_TIMES = [
    "graph.from_edges", "graph.g6_decode", "graph.g6_encode", "graph.conflict",
    "graph.bfs", "graph.other", "families.enum", "families.atfree",
    "families.cert", "oracles.setup", "oracles.check", "solvers.mhs",
    "solvers.mis", "engine.run", "constructions.run", "constructions.pair", "cli",
]
LAYER_CALLS = [
    "graph.from_edges", "graph.bfs", "families.atfree", "oracles.check",
    "solvers.mhs", "solvers.mis",
]
# Counts that depend only on the program and its input: they must repeat
# exactly in every traced pass, request by request.
EXACT_COUNTS = ["solvers.mhs.nodes", "solvers.mis.nodes", "oracles.reqs", "engine.trace_len"]

# ROADMAP re-anchor profile (cProfile), set against the traced shares.
EXPECTED_SHARES = {
    "scan-enum6": {"kernel share of the n=6 sweep": 0.14,
                   "AT-free flag share of scan": 0.15},
    "construct-scale": {"check_xy_packing share of planar at the top size": 0.40},
}


def _ready(workload: str):
    from dompack import cli, constructions

    if workload == "construct-scale":
        # Every real unit-disk construct call pays the covering-grid check
        # once per process.
        constructions.covering_constant()
    print("ready", flush=True)
    return cli


class _Stamped:
    """Stdout for the requests: writes through to the pass file and splits
    a request's time into the stretches between its outputs (one per graph
    on the scan)."""

    def __init__(self, out):
        self._out = out
        self.chunks = array("d")
        self.mark = 0.0

    def start(self) -> None:
        self.chunks = array("d")
        self.mark = time.perf_counter()

    def write(self, text: str) -> int:
        n = self._out.write(text)
        now = time.perf_counter()
        self.chunks.append(now - self.mark)
        self.mark = now
        return n

    def stop(self) -> array:
        self.chunks.append(time.perf_counter() - self.mark)
        return self.chunks

    def __getattr__(self, name):
        return getattr(self._out, name)


class Runner:
    """Runs passes and keeps what the checks need."""

    def __init__(self, cli, reqs: list, workdir: str, alternate: bool = False):
        self.cli = cli
        self.reqs = reqs
        self.workdir = workdir
        self.passes: list[dict] = []
        self.cpus = sorted(os.sched_getaffinity(0)) if alternate else []

    def run_pass(self, tracer=None) -> dict:
        if self.cpus:
            # Passes take turns on the CPUs: on a shared host each CPU has
            # slow spells of its own, seconds long, and a stretch's fastest
            # pass (see ``fastest_stretches``) can then come from either.
            os.sched_setaffinity(0, {self.cpus[len(self.passes) % len(self.cpus)]})
        path = os.path.join(self.workdir, f"pass{len(self.passes)}.out")
        err_path = os.path.join(self.workdir, f"pass{len(self.passes)}.err")
        lat, chunks, rcs, ends, counts, packing = [], [], [], [], [], []
        cli = self.cli
        layer0 = tracer.snapshot() if tracer is not None else {}
        with open(path, "w", encoding="utf-8") as out, \
                open(err_path, "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(_Stamped(out)) as stamped, \
                contextlib.redirect_stderr(err):
            t_pass = time.perf_counter()
            for i, req in enumerate(self.reqs):
                if tracer is not None:
                    tracer.current = i
                    before = dict(tracer.counts)
                    pack0 = tracer.incl_s["oracles.check_xy_packing"]
                stamped.start()
                t0 = time.perf_counter()
                try:
                    rc = cli.main(req["argv"])
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # counted as a failed request, never raised
                    traceback.print_exc()
                    rc = -1
                t1 = time.perf_counter()
                chunks.append(stamped.stop())
                out.flush()
                lat.append(t1 - t0)
                rcs.append(rc)
                ends.append(out.buffer.tell())
                if tracer is not None:
                    counts.append([tracer.counts[k] - before.get(k, 0) for k in EXACT_COUNTS])
                    packing.append(tracer.incl_s["oracles.check_xy_packing"] - pack0)
            wall = time.perf_counter() - t_pass
        with open(path, "rb") as fh:
            data = fh.read()
        starts = [0] + ends[:-1]
        record = {
            "wall": wall, "lat": lat, "chunks": chunks, "rcs": rcs, "counts": counts, "packing": packing,
            "digests": [hashlib.sha256(data[a:b]).hexdigest() for a, b in zip(starts, ends)],
            "out_bytes": len(data), "sha256": hashlib.sha256(data).hexdigest(),
        }
        if tracer is not None:
            record["layer"] = {k: v - layer0.get(k, 0) for k, v in tracer.snapshot().items()}
            if tracer.kernel_calls is not None:
                # Only the first traced pass is replayed on the pure kernel.
                record["kernel_calls"], tracer.kernel_calls = tracer.kernel_calls, None
        if not self.passes:
            record["texts"] = [data[a:b].decode("utf-8") for a, b in zip(starts, ends)]
        os.remove(path)
        self.passes.append(record)
        return record

    def run_until(self, seconds: float, t_start: float, tracer=None, at_least: int = 1) -> list:
        """Passes until the next one would end after ``seconds``, judged by
        the median pass so far."""
        done = [self.run_pass(tracer)]
        while len(done) < at_least or (
                time.perf_counter() - t_start + statistics.median(p["wall"] for p in done)
                <= seconds):
            done.append(self.run_pass(tracer))
        return done


def _check_outputs(workload: str, reqs: list, first: dict, seed: int) -> dict:
    """Problems by request index, for the first pass."""
    import checks

    bad = {}
    texts = first["texts"]
    values = [None] * len(reqs)
    for i, req in enumerate(reqs):
        if first["rcs"][i] != 0:
            bad[i] = f"exit code {first['rcs'][i]}"
            continue
        try:
            if workload == "scan-enum6":
                problem = checks.check_scan(texts[i], seed)
            elif workload == "solve-hard":
                problem, values[i] = checks.check_solve(req, texts[i])
            else:
                problem = checks.check_construct(req, texts[i])
        except Exception as exc:  # malformed output must count, not crash the run
            problem = f"check raised {exc!r}"
        if problem:
            bad[i] = problem
    if workload == "solve-hard":
        for i, reason in checks.check_solve_pairs(reqs, values).items():
            bad.setdefault(i, reason)
    return bad


def _failures(reqs: list, passes: list, bad_first: dict) -> tuple[int, list]:
    """Each request of each pass counts once; it fails on a non-zero exit, a
    failed check (first pass), or stdout or exact counts that differ from the
    first pass that has them."""
    failed = 0
    problems = [f"request {i}: {why}" for i, why in sorted(bad_first.items())]
    first = passes[0]
    first_counts = next((p["counts"] for p in passes if p["counts"]), None)
    for k, rec in enumerate(passes):
        for i in range(len(reqs)):
            why = None
            if k == 0:
                why = bad_first.get(i)
            elif rec["rcs"][i] != 0:
                why = f"exit code {rec['rcs'][i]}"
            elif rec["digests"][i] != first["digests"][i]:
                why = "stdout differs from the first pass"
            elif rec["counts"] and rec["counts"][i] != first_counts[i]:
                why = "exact counts differ between traced passes"
            if why:
                failed += 1
                if k:
                    problems.append(f"pass {k} request {i}: {why}")
    return failed, problems


def fastest_stretches(chunk_lists: list) -> list:
    """One request's stretches (the times between two of its outputs), each
    at its fastest over the given passes.  A shared host has slow spells,
    seconds to a minute long, that slow a whole pass; the fastest pass of a
    stretch is one that a spell missed.  On the scan a stretch is one graph,
    so a spell costs only the stretches it covers.  Passes whose outputs
    split differently (a failure) give the fastest whole request as one
    stretch."""
    if len({len(c) for c in chunk_lists}) != 1:
        return [min(sum(c) for c in chunk_lists)]
    return [min(col) for col in zip(*chunk_lists)]


def end_to_end(workload: str, stretches: list, rss_mb: float) -> dict:
    """Metrics from each request's fastest stretches: a request's latency
    is their sum, wall_s is one pass over the requests at those latencies,
    and the percentiles are taken across the requests."""
    per_req = [sum(s) for s in stretches]
    wall = sum(per_req)
    graphs = (1 << 15) if workload == "scan-enum6" else len(per_req)
    # p90 needs ten requests beyond it; with fewer it falls back to the median.
    p90 = statistics.quantiles(per_req, n=10)[8] if len(per_req) >= 100 else statistics.median(per_req)
    return {
        "wall_s": (wall, "s"),
        "graphs_per_s": (graphs / wall, "1/s"),
        "req_p50_ms": (1000 * statistics.median(per_req), "ms"),
        "req_p90_ms": (1000 * p90, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _per_layer(workload: str, reqs: list, untraced: dict, traced: list,
               pure: dict) -> tuple[dict, dict]:
    deltas = [p["layer"] for p in traced]

    def med(key):
        return statistics.median(d.get(key, 0) for d in deltas)

    out = {}
    for g in LAYER_TIMES:
        out[f"{g}.self_s"] = (med(f"{g}.self_s"), "s")
    for g in LAYER_CALLS:
        out[f"{g}.calls"] = (deltas[0].get(f"{g}.calls", 0), "count")
    for k in EXACT_COUNTS:
        out[k] = (deltas[0].get(k, 0), "count")
    for g in ("solvers.mhs", "solvers.mis"):
        out[f"{g}.pure_self_s"] = (pure.get(g, out[f"{g}.self_s"][0]), "s")
    out["cli.out_bytes"] = (traced[0]["out_bytes"], "bytes")
    wall = statistics.median(p["wall"] for p in traced)
    out["trace.wall_s"] = (wall, "s")
    out["trace.overhead_s"] = (wall - untraced["wall"], "s")
    # Per pass, the reported self times add up to the pass but for this rest
    # (harness time between requests and unreported groups).
    out["trace.unattributed_s"] = (statistics.median(
        p["wall"] - sum(p["layer"].get(f"{g}.self_s", 0) for g in LAYER_TIMES)
        for p in traced), "s")

    shares = {}
    expected = EXPECTED_SHARES.get(workload, {})
    if workload == "scan-enum6":
        kernel = out["solvers.mhs.self_s"][0] + out["solvers.mis.self_s"][0]
        measured = [kernel / wall, out["families.atfree.self_s"][0] / wall]
    elif workload == "construct-scale":
        top = [i for i, r in enumerate(reqs) if r["cls"] == "planar" and r["top"]]
        first = traced[0]
        measured = [sum(first["packing"][i] for i in top) / sum(first["lat"][i] for i in top)]
    else:
        measured = []
    for (name, want), got in zip(expected.items(), measured):
        verdict = "agrees" if 2 / 3 <= got / want <= 3 / 2 else "DIFFERS"
        shares[name] = {"roadmap": want, "traced": round(got, 4), "verdict": verdict}
    return out, shares


def _replay_pure(calls: list) -> tuple[dict, set]:
    """Re-run the compiled kernel's calls on the pure-Python kernel; returns
    its time per kernel and the requests whose witnesses differ."""
    from dompack import solvers

    fns = {"solvers.mhs": solvers.min_hitting_set, "solvers.mis": solvers.max_independent_set}
    spent = {g: 0.0 for g in fns}
    differ = set()
    os.environ["DOMPACK_FORCE_PY"] = "1"
    try:
        for group, args, res, req_index in calls:
            t0 = time.perf_counter()
            got = fns[group](*args)
            spent[group] += time.perf_counter() - t0
            if got[:2] != res[:2]:
                differ.add(req_index)
    finally:
        del os.environ["DOMPACK_FORCE_PY"]
    return spent, differ


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--result", default="result.json")
    args = ap.parse_args()

    cli = _ready(args.workload)
    if args.setup_only:
        return 0
    from dompack import solvers

    with open(os.path.join(args.workdir, "requests.json"), encoding="utf-8") as fh:
        reqs = json.load(fh)
    runner = Runner(cli, reqs, args.workdir, alternate=not args.trace)
    backend = solvers.backend_name()
    t_start = time.perf_counter()
    result = {"backend": backend}
    if not args.trace:
        # Two passes at least; the run's other processes add theirs.
        runner.run_until(args.seconds, t_start, at_least=2)
        # Taken before the checks, which are not part of the workload.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["fastest"] = [fastest_stretches(col)
                             for col in zip(*(p["chunks"] for p in runner.passes))]
        metrics = {}
    else:
        from tracer import Tracer

        untraced = runner.run_pass()
        tracer = Tracer(record_kernel_calls=backend == "compiled")
        tracer.install()
        try:
            # At least two traced passes, so that the exact counts are compared.
            traced = runner.run_until(args.seconds, t_start, tracer, at_least=2)
        finally:
            tracer.uninstall()
        calls = traced[0].pop("kernel_calls", None)
        pure, differ = _replay_pure(calls) if calls else ({}, set())
        metrics, result["shares"] = _per_layer(args.workload, reqs, untraced, traced, pure)
        result["parity_mismatches"] = sorted(differ)

    bad_first = _check_outputs(args.workload, reqs, runner.passes[0], args.seed)
    for i in result.get("parity_mismatches", []):
        bad_first.setdefault(i, "pure-Python kernel gives a different witness")
    failed, problems = _failures(reqs, runner.passes, bad_first)
    digests = {p["sha256"] for p in runner.passes}
    result.update({
        "metrics": metrics,
        "attempted": len(reqs) * len(runner.passes),
        "failed": failed,
        "problems": problems[:10],
        "passes": len(runner.passes),
        "pass_walls_s": [round(p["wall"], 3) for p in runner.passes],
        "requests": len(reqs),
        "samples": sum(len(p["lat"]) for p in runner.passes if not p["counts"]),
        "stdout_sha256": sorted(digests)[0] if len(digests) == 1 else "differs",
        "python": platform.python_version(),
    })
    with open(os.path.join(args.workdir, args.result), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
