#!/usr/bin/env python3
"""Benchmark of the `intertwine` command line, one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of seeded `intertwine.cli.main(argv)` jobs for S seconds,
checks every job's outputs (see checks.py) and prints, as the last line,
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json;
with `--trace 1` the same jobs run under the span tracer of spans.py and
the metrics are the per-layer ones.  Job outputs, result files and span
dumps go under `.bench_out/` at the repository root.
"""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import pin  # noqa: E402

if __name__ == "__main__":
    pin.pin_process()

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import time
import traceback

import numpy as np

import spans
from workloads import WORKLOADS

ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_IMPORTS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import intertwine.cli; print(time.perf_counter() - t)"
)


def import_program():
    """The package under src/ of this checkout, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import intertwine
    import intertwine.cli

    if not Path(intertwine.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"intertwine was imported from {intertwine.__file__}, not {SRC}")
    return intertwine


def measure_setup() -> float:
    """Median time to import intertwine.cli in a fresh interpreter, timed inside it."""
    times = []
    for _ in range(SETUP_IMPORTS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def execute(cli, job):
    """One job: cli.main(argv) from entry to return, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(job.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is this job's outcome, not the run's
            code = "exception"
            traceback.print_exc()
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def keep(job, seconds, code, stdout, stderr):
    """What `Run.check` reads of a job's result: stdout of `verify`, stderr of a failure."""
    return seconds, code, stdout if job.kind == "verify" else "", stderr if code != 0 else ""


def output_bytes(job) -> int:
    if job.out is None or not job.out.exists():
        return 0
    return sum(p.stat().st_size for p in job.out.rglob("*") if p.is_file())


class Run:
    """The timed phase of one workload: whole rounds until the time is up."""

    def __init__(self, name: str, seed: int, seconds: float, workdir: Path):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.workdir = workdir
        self.jobs, self.results = [], []
        self.wall = 0.0
        self.cpu = 0.0
        self.bytes = 0

    def _round(self, rng, index: int):
        return WORKLOADS[self.name](rng, self.workdir / f"r{index}")

    def go(self, cli) -> None:
        warm_rng = np.random.default_rng([self.seed, 1])
        for job in self._round(warm_rng, -1):
            execute(cli, job)
        rng = np.random.default_rng([self.seed, 0])
        index = 0
        while self.wall < self.seconds or index == 0:
            jobs = self._round(rng, index)
            gc.collect()
            cpu0 = time.process_time()
            start = time.perf_counter()
            results = [keep(job, *execute(cli, job)) for job in jobs]
            self.wall += time.perf_counter() - start
            self.cpu += time.process_time() - cpu0
            self.bytes += sum(output_bytes(job) for job in jobs)
            self.jobs += jobs
            self.results += results
            index += 1
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def check(self) -> tuple[bool, int]:
        """(correct, failed): a job fails when it exits non-zero or crashes, or
        when it shows its named known fault; any other wrong output is incorrect."""
        import checks  # scipy.optimize: loaded after the timed phase, outside peak_rss_mb

        correct, failed = True, 0
        for job, (_, code, stdout, stderr) in zip(self.jobs, self.results):
            try:
                checks.check_job(job, code, stdout)
            except checks.CheckFailure as exc:
                failed += 1
                if exc.check == "exit":
                    print(f"{job.argv}: {exc}\n{stderr}", file=sys.stderr)
                elif exc.check != job.known_fault:
                    correct = False
                    print(f"WRONG {' '.join(job.argv)}: {exc}", file=sys.stderr)
        return correct, failed

    def job_times(self) -> list[float]:
        return [r[0] for r in self.results]


def end_to_end(run: Run, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(run.jobs) / run.wall,
        "job_p50_ms": 1e3 * statistics.median(run.job_times()),
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(run: Run, stats: spans.LayerStats, name: str) -> float:
    """Value of one per-layer metric, per job unless the name says otherwise."""
    jobs = len(run.jobs)
    if name == "cli.bytes_written":
        return run.bytes / jobs
    if name == "process.cpu_s":
        return run.cpu / jobs
    if name == "linalg.eig.max_dim":
        return float(stats.eig_max_dim)
    if name == "floquet.propagator.calls_per_point":
        points = sum(job.truth["gammas"].size * job.truth["jts"].size
                     for job in run.jobs if job.kind == "scan")
        return stats.scan_propagator_calls / points if points else 0.0
    parts = name.split(".")
    if len(parts) == 2 and parts[1] == "self_s":
        return stats.module_self_s(parts[0]) / jobs
    label, field = ".".join(parts[:-1]), parts[-1]
    table = {"calls": stats.calls, "self_s": stats.self_s, "total_s": stats.total_s}[field]
    return table.get(label, 0) / jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        package = import_program()
    except (OSError, ImportError, ValueError) as exc:
        print(f"bench: cannot start: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}_pid{os.getpid()}"
    workdir = OUT / tag
    tracer = spans.Tracer() if args.trace else None
    run = Run(args.workload, args.seed, args.seconds, workdir)
    try:
        setup_s = None if args.trace else measure_setup()
        if tracer is not None:
            tracer.install(package)
        try:
            run.go(package.cli)
        finally:
            if tracer is not None:
                tracer.uninstall()
        correct, failed = run.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        values = end_to_end(run, setup_s)
        wanted = spec["end_to_end"]
    else:
        tracer.dump(OUT / f"spans_{tag}.npz")
        stats = spans.LayerStats(tracer)
        values = {m["name"]: per_layer(run, stats, m["name"]) for m in spec["per_layer"]}
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    result = {"correct": correct, "attempted": len(run.jobs), "failed": failed, "metrics": metrics}
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(f"{args.workload}: {len(run.jobs)} jobs ({failed} failed) in {run.wall:.2f} s; "
          f"median of {len(run.jobs)} job times {1e3 * statistics.median(run.job_times()):.2f} ms")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
