"""Benchmark of the toolsmith program: one workload, one seed, one run.

    python3 bench/run.py --workload push_train --seed 1 --seconds 20 --trace 0

Run from a checkout that holds ``src/toolsmith``. With ``--trace 0`` the
run reports the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it makes one untraced warm-up call, then traced (T) and
untraced (U) calls in blocks of T U U T, and reports the per-layer metrics,
the tracing overhead and any span that could not be installed or never ran.
Each run repeats the workload's fixed-budget call until ``--seconds`` (by
default ``run_seconds`` of BENCHMARK.json) have passed, checks every call's
artifacts, requires the clock-free ones to be byte-identical across repeats,
and prints medians.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# The stated BLAS thread count; set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"
RECORDED_HASHES = BENCH_DIR / "recorded_hashes.json"
MIN_REPEATS = 2        # a hash can only disagree between two calls
TRACE_ORDER = (True, False, False, True)  # traced calls of one block
SETUP_REPEATS = 9      # fresh processes timed for setup_s
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float,
                   default=benchmark_spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", type=Path,
                   help="set up into DIR, print 'ready' and exit "
                        "(used to time setup_s in a fresh process)")
    return p.parse_args(argv)


def machine_record(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def time_setup(workload: str, seed: int, work: Path) -> tuple:
    """Seconds from starting a fresh process until its set-up is done, and
    the hash of the set-up artifacts it made."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-only", str(work)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        digest = proc.stdout.readline().decode().strip()
        proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process exited with {proc.returncode}")
    return elapsed, digest


def recorded_hash(workload: str, seed: int):
    if not RECORDED_HASHES.is_file():
        return None
    table = json.loads(RECORDED_HASHES.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """One benchmark run of one workload: set-up, repeats and their results."""

    def __init__(self, args, harness, work: Path):
        self.args = args
        self.harness = harness
        self.work = work
        self.workload = workloads.WORKLOADS[args.workload]
        self.ops = workloads.Ops()
        self.inputs = None
        self.repeat_start = self.ops.snapshot()
        self.setup_samples = []
        self.setup_hashes = set()
        self.walls = {False: [], True: []}
        self.layers = []
        self.hashes = set()
        self.checked = None
        self.missing = set()
        self.zero_calls = set()
        self.problems = []

    def measure(self) -> None:
        w, args = self.workload, self.args
        self.inputs = w.inputs(args.seed)
        if not args.trace:
            for k in range(SETUP_REPEATS):
                elapsed, digest = time_setup(w.name, args.seed,
                                             self.work / f"setup_{k}")
                self.setup_samples.append(elapsed)
                self.setup_hashes.add(digest)
        state = w.setup(self.harness, self.inputs, self.work / "setup")
        self.setup_hashes.add(
            workloads.artifact_hash(w.setup_artifacts(state)))
        if len(self.setup_hashes) > 1:
            self.problems.append("set-up artifacts differ between processes")

        hooks = w.counters()
        counters = spans.Patches()
        counters.install(hooks, self.ops.wrapper(hooks))
        try:
            if counters.missing:
                raise RuntimeError(
                    f"cannot count operations: {counters.missing}")
            if args.trace:
                # first calls in a process are slower; keep that out of the
                # tracing overhead
                self._repeat(state, "warmup", traced=False, record=False)
            deadline = time.perf_counter() + args.seconds
            i = 0
            while (i < MIN_REPEATS or time.perf_counter() < deadline
                   or (args.trace and i % len(TRACE_ORDER))):
                traced = bool(args.trace) and TRACE_ORDER[i % len(TRACE_ORDER)]
                self._repeat(state, i, traced)
                i += 1
        finally:
            counters.remove()

    def _repeat(self, state, i, traced: bool, record: bool = True) -> None:
        w = self.workload
        out = self.work / f"repeat_{i}"
        self.repeat_start = self.ops.snapshot()
        if traced:
            tracer = spans.Tracer()
            patches = spans.Patches()
            patches.install(spans.TARGETS, tracer.wrap)
        start = time.perf_counter()
        try:
            result = w.run(self.harness, state, out)
        finally:
            wall = time.perf_counter() - start
            if traced:
                patches.remove()
        ops = self.ops.since(self.repeat_start)
        checked = w.check(state, result, ops)
        if self.checked is not None and (
                (checked.env_steps, checked.episodes)
                != (self.checked.env_steps, self.checked.episodes)):
            self.problems.append("repeats ran different step counts")
        self.checked = checked
        self.hashes.add(workloads.artifact_hash(checked.artifacts))
        shutil.rmtree(out, ignore_errors=True)
        if not record:
            return
        self.walls[traced].append(wall)
        if traced:
            self.missing.update(patches.missing)
            self.zero_calls.update(
                spans.zero_call_targets(tracer, w.name, patches.missing))
            self.layers.append(spans.layer_metrics(tracer, wall, ops))

    def crash_counts(self) -> tuple:
        """(attempted, failed) after a crash: the operations the interrupted
        call did not reach count as failed, and a crash outside any operation
        (a failed check, a failed set-up) counts as one failed operation."""
        remaining = 0
        if self.inputs is not None:
            done = self.ops.since(self.repeat_start).attempted
            per_repeat = self.workload.ops_per_repeat(self.inputs)
            remaining = max(per_repeat - done, 0)
        attempted = self.ops.attempted + remaining
        failed = self.ops.failed + remaining
        if failed == 0:
            attempted, failed = attempted + 1, 1
        return attempted, failed

    def end_to_end(self) -> dict:
        wall = median(self.walls[False])
        return {
            "wall_s": (wall, "s"),
            "env_steps_per_s": (self.checked.env_steps / wall, "1/s"),
            "episodes_per_s": (self.checked.episodes / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
            "setup_s": (median(self.setup_samples), "s"),
        }

    def per_layer(self) -> dict:
        units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
        out = {name: (median([r[name] for r in self.layers]), units[name])
               for name in self.layers[0]}
        traced, untraced = median(self.walls[True]), median(self.walls[False])
        out["trace.wall_s"] = (traced, "s")
        out["trace.overhead_s"] = (traced - untraced, "s")
        out["trace.overhead_share"] = ((traced - untraced) / untraced, "share")
        return out


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)


def report(run: Run) -> None:
    args, w = run.args, run.workload
    digest = next(iter(run.hashes)) if len(run.hashes) == 1 else None
    if digest is None:
        run.problems.append("repeats wrote different artifacts")
    recorded = recorded_hash(w.name, args.seed)
    metrics = run.per_layer() if args.trace else run.end_to_end()
    record = {
        "workload": w.name,
        "trace": args.trace,
        "machine": machine_record(args.seed),
        "repeats": {"untraced_wall_s": run.walls[False],
                    "traced_wall_s": run.walls[True]},
        "setup_s_samples": run.setup_samples,
        "env_steps_per_call": run.checked.env_steps,
        "episodes_per_call": run.checked.episodes,
        "artifact_hash": digest,
        "artifact_hash_recorded": recorded,
        "artifact_hash_matches_recorded":
            None if recorded is None or digest is None else digest == recorded,
        "problems": run.problems,
    }
    if args.trace:
        record["missing_spans"] = sorted(run.missing)
        record["zero_call_spans"] = sorted(run.zero_calls)
        record["slowest_layer"] = spans.slowest_layer(
            {name: value for name, (value, _) in metrics.items()})
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    for name in record.get("missing_spans", []):
        print(f"span not found: {name}")
    for name in record.get("zero_call_spans", []):
        print(f"span recorded no calls: {name}")
    for problem in run.problems:
        print(f"check failed: {problem}")
    print("report " + json.dumps(record, sort_keys=True))
    emit(not run.problems, run.ops.attempted, run.ops.failed, metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness = workloads.load_program()
    except workloads.ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]

    if args.setup_only is not None:
        state = w.setup(harness, w.inputs(args.seed), args.setup_only)
        print("ready", flush=True)
        print(workloads.artifact_hash(w.setup_artifacts(state)), flush=True)
        return 0

    work = WORK_ROOT / f"{w.name}-{args.seed}-{os.getpid()}"
    run = Run(args, harness, work)
    try:
        run.measure()
    except Exception:
        # a crashed run still reports, counting what it could not finish
        traceback.print_exc()
        emit(False, *run.crash_counts(), {})
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    report(run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
