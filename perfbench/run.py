"""Benchmark of the twuality package: one workload, one closed-loop client.

    python3 perfbench/run.py --workload orbit-cli --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--seconds`` bounds the whole run, set-up included.  The run
sets up ``SETUP_REPEATS`` times (import, input generation, input files,
warm-up) and reports the median as ``setup_s``.

``--trace 0`` runs whole rounds of the workload's query mix (see
workloads.py), in order, until the next round would end after the
deadline: at least enough rounds for ``MIN_SAMPLES`` queries, and at most
the pool's ``POOL_ROUNDS``, which a run at the reference speed reaches.
The latency percentiles are taken over the queries, and the throughput
over the median round.

Times are CPU seconds of this single-threaded process, scaled to a
reference host speed.  The host is shared: over minutes it runs
everything, CPU time included, up to 40% slower and faster again.  A
fixed pure-Python loop (``calibrate``) runs between queries and around
each set-up, and every time is multiplied by ``REF_CAL_S`` over the
loop's mean time on either side of it.  The line before the result
gives the unscaled wall-clock percentiles and the median slowdown as
well.

``--trace 1`` runs each round untraced and then again with every traced
function wrapped (tracer.py), until the deadline, and prints the
per-layer metrics.

Each query's output is checked outside its timed span: against the
recorded sha256 digests when the seed is the golden seed, and against
seed-independent invariants always.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds the
run's metadata, the error rate, sample counts and, when traced, each
module's share of the traced self time.  Exits 2 without a result when
the checkout holds no ``src/twuality``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"
SETUP_REPEATS = 3
MIN_SAMPLES = 100
#: iterations of the calibration loop, and its CPU seconds on the reference
#: host (a 2-vCPU x86-64 VM with CPython 3.11) in its usual state
CAL_LOOPS = 150_000
REF_CAL_S = 0.015
#: default seed; the digests in golden/ were recorded with it
GOLDEN_SEED = 1
WORKLOADS = ("orbit-cli", "vf-check-cli", "medial-lift-batch")


def _import_fresh():
    """Import the package and the benchmark modules afresh."""
    for name in list(sys.modules):
        if name.split(".")[0] == "twuality" or name.startswith("perfbench."):
            del sys.modules[name]
    return importlib.import_module("perfbench.workloads"), importlib.import_module("perfbench.tracer")


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python loop: the host's current speed."""
    start = time.process_time()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
    return time.process_time() - start


def setup(name: str, seed: int, counts):
    """Import, build the pool, write its files and warm up; returns the
    modules, the workload and each repeat's host-normalized CPU seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        start = time.process_time()
        workloads, tracing = _import_fresh()
        workdir = WORK / name
        shutil.rmtree(workdir, ignore_errors=True)
        wl = workloads.build(name, seed, workdir, counts=counts)
        state = wl.new_state()
        for q in workloads.warmup(name, workdir):
            failure = q.check(q.render(q.call(state)))
            if failure:
                raise RuntimeError(f"warm-up query {q.qid} failed: {failure}")
        spent = time.process_time() - start
        times.append(spent * 2 * REF_CAL_S / (before + calibrate()))
    return workloads, tracing, wl, times


class Pass:
    """Latencies, digests and failures of a run of rounds."""

    def __init__(self):
        self.latencies: list[float] = []  # host-normalized CPU seconds
        self.walls: list[float] = []  # wall-clock seconds
        self.speeds: list[float] = []  # calibration time over REF_CAL_S
        self.digests: list[tuple[str, str]] = []
        self.failures: list[str] = []
        self.round_busy: list[float] = []
        self.stdout_bytes = 0
        self.cli_queries = 0

    @property
    def rounds(self) -> int:
        return len(self.round_busy)

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def run_round(p: Pass, queries, state, golden, tracer=None) -> None:
    """Run one round into ``p``, checking each output after its timed span.

    A calibration slice runs before each query and after the last one, and
    each query's CPU time is scaled by ``REF_CAL_S`` over the mean of the
    slices on either side of it."""
    busy = p.busy
    cal = calibrate()
    for q in queries:
        if tracer is not None:
            tracer.query = q.qid
            tracer.enabled = True
        gc.collect()  # start from a collected heap, as a fresh CLI process does
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            output, error = q.call(state), None
        except Exception as exc:  # a failed query is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        if tracer is not None:
            tracer.enabled = False
        cal_before, cal = cal, calibrate()
        p.speeds.append((cal_before + cal) / (2 * REF_CAL_S))
        p.latencies.append(cpu / p.speeds[-1])
        p.walls.append(wall)
        if error is None:
            text = q.render(output)
            if isinstance(output, str):
                p.cli_queries += 1
                p.stdout_bytes += len(text.encode())
            digest = hashlib.sha256(text.encode()).hexdigest()
            p.digests.append((q.qid, digest))
            if golden is not None and golden.get(q.qid) != digest:
                error = "output digest differs from the recorded one"
            else:
                error = q.check(text)
        if error is not None:
            p.failures.append(f"{q.qid}: {error}")
    p.round_busy.append(p.busy - busy)


def _more_rounds(done: int, pool: int, min_rounds: int, deadline: float, longest: float) -> bool:
    """Another round runs if the pool has one and either fewer than
    ``min_rounds`` ran or the longest round so far still fits."""
    return done < pool and (done < min_rounds or time.perf_counter() + longest <= deadline)


def run_pass(wl, golden, deadline: float, min_rounds: int) -> Pass:
    """Whole rounds of the pool, in order, until ``deadline``; at least
    ``min_rounds`` of them, and never more than the pool holds."""
    p, state, longest = Pass(), wl.new_state(), 0.0
    while _more_rounds(p.rounds, len(wl.rounds), min_rounds, deadline, longest):
        start = time.perf_counter()
        run_round(p, wl.rounds[p.rounds], state, golden)
        longest = max(longest, time.perf_counter() - start)
    return p


def run_traced(wl, golden, deadline: float, tracer) -> tuple[Pass, Pass]:
    """Each round untraced, then again traced, until ``deadline``; pairing
    them round by round keeps a slow stretch of the host out of the
    overhead ratio.  The wrappers are in place only for the traced rounds."""
    plain, traced = Pass(), Pass()
    plain_state, traced_state, longest = wl.new_state(), wl.new_state(), 0.0
    while _more_rounds(plain.rounds, len(wl.rounds), 1, deadline, longest):
        start = time.perf_counter()
        queries = wl.rounds[plain.rounds]
        run_round(plain, queries, plain_state, golden)
        tracer.install()
        try:
            run_round(traced, queries, traced_state, golden, tracer)
        finally:
            tracer.restore()
        longest = max(longest, time.perf_counter() - start)
    return plain, traced


def load_golden(name: str) -> dict:
    """The recorded digests (for the golden seed) and ``ribbon dm`` counts."""
    with open(BENCH / "golden" / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def metadata() -> dict:
    src = ROOT / "src"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_lines": lines,
    }


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None  # not a git checkout


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(p: Pass, round_len: int, setup_times) -> dict:
    """Throughput is taken from the median round, which every round's
    identical mix allows and which a burst of load on a shared machine
    moves less than the mean."""
    deciles = statistics.quantiles(p.latencies, n=10)
    return {
        "queries_per_s": {"value": round_len / statistics.median(p.round_busy), "unit": "1/s"},
        "latency_p50_ms": {"value": deciles[4] * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": deciles[8] * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


LAYER_UNITS = {
    "calls": "count",
    "states": "count",
    "self_s": "s",
    "acts_per_hit": "acts/hit",
    "base_ratio": "ratio",
    "extracts_per_element": "extracts/element",
    "cache_hit_ratio": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "twuality" / "__init__.py").is_file():
        sys.stderr.write(f"error: no src/twuality under {ROOT}; run from a source checkout\n")
        return 2
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))

    deadline = time.perf_counter() + args.seconds
    recorded = load_golden(args.workload)
    workloads, tracing, wl, setup_times = setup(args.workload, args.seed, recorded["feasible_counts"])
    golden = recorded["digests"] if args.seed == GOLDEN_SEED else None
    info = {"workload": args.workload, "seed": args.seed, "meta": metadata()}

    if args.trace == 0:
        p = run_pass(wl, golden, deadline, -(-MIN_SAMPLES // len(wl.rounds[0])))
        passes = [p]
        metrics = end_to_end(p, len(wl.rounds[0]), setup_times)
        walls = statistics.quantiles(p.walls, n=10)
        info.update(wall_p50_ms=walls[4] * 1e3, wall_p90_ms=walls[8] * 1e3)
    else:
        tracer = tracing.Tracer()
        plain, traced = run_traced(wl, golden, deadline, tracer)
        passes = [plain, traced]
        if traced.digests != plain.digests:
            traced.failures.append("traced outputs differ from untraced outputs")
        layers = tracer.layer_metrics()
        layers["cli.stdout_bytes"] = traced.stdout_bytes / max(traced.cli_queries, 1)
        layers["trace.overhead_ratio"] = traced.busy / plain.busy
        metrics = {}
        for key, value in layers.items():
            unit = "B" if key == "cli.stdout_bytes" else LAYER_UNITS.get(key.rsplit(".", 1)[1], "ratio")
            metrics[key] = {"value": value, "unit": unit}
        info["module_self_share"] = tracer.module_shares()
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        info["spans"] = str(spans_path.relative_to(ROOT))

    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    info.update(
        samples=len(passes[0].latencies),
        rounds=passes[0].rounds,
        error_rate=len(failures) / attempted,
        setup_runs_s=setup_times,
        host_slowdown=statistics.median(s for p in passes for s in p.speeds),
        run_wall_s=time.perf_counter() - deadline + args.seconds,
    )
    for line in failures[:20]:
        sys.stderr.write(f"failed: {line}\n")
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
