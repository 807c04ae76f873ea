"""Closed-loop benchmark of the metalie command line.

    python3 bench/run.py --workload hilbert --seed 1 --seconds 30 --trace 0

One client in one thread calls `metalie.cli.main(argv)` in-process, waits
for it, checks the printed answer, and sends the next job.  The job list of a
pass comes from `workloads.make_pass(workload, seed)`; whole passes are
replayed while the next one is expected to end within `--seconds` (and until
at least 100 jobs are done), so two commits time the same mix.

`--trace 0` reports the end-to-end metrics (`END_TO_END`): throughput and
latencies count time inside `cli.main` only, and `setup_s` is the median of
several fresh interpreters importing the CLI and loading the catalog.  Every
time in them is scaled to a host of nominal speed by `hostspeed.HostSpeed`,
which samples a reference kernel between jobs; the same metrics in wall-clock
seconds are printed before the result line, prefixed `wall`.
`--trace 1` runs one untraced pass, then traced passes, reports the
per-layer metrics of `tracing.METRICS` per pass, and writes the spans to
`.bench_trace/`.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give each metric as `name value
unit`, and error_rate (failed / attempted).  A job fails when it raises,
exits with another code than expected (2, refused, included) or prints a
wrong answer.  Tests of the benchmark: python3 -m unittest bench/test_bench.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

from checks import check_output  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_pass  # noqa: E402

MIN_JOBS = 100          # so that at least 10 jobs lie beyond the 90th percentile
HARD_LIMIT_S = 120.0    # no new pass starts after this
SETUP_STARTS = 15
SETUP_CODE = ("import time; t = time.perf_counter(); import metalie.cli; "
              "from metalie.invariants import load_catalog; load_catalog(); "
              "print(time.perf_counter() - t)")
END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "latency_p50_s": "s",
              "latency_p90_s": "s", "peak_rss_mb": "MB"}
TRACE_DIR = os.path.join(ROOT, ".bench_trace")


def tail_percentile(values, fraction: float = 0.9) -> float:
    """Nearest-rank percentile, refused unless ten samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    if len(ordered) - rank < 10:
        raise ValueError(f"{len(ordered)} samples leave fewer than 10 beyond "
                         f"the {fraction:.0%} percentile")
    return ordered[rank - 1]


class Client:
    """Runs jobs through `cli.main` and checks their answers.

    With a tracer, spans are recorded inside `cli.main` only, not while the
    answers are checked.  With a `HostSpeed`, the kernel is sampled between
    jobs when due, and `windows` holds each job's start and end.
    """

    def __init__(self, cli, tracer=None, speed: HostSpeed | None = None):
        self.cli = cli
        self.tracer = tracer
        self.speed = speed
        self.latencies: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.failures: list[str] = []
        self._verdicts: dict = {}

    def run(self, job) -> float:
        if self.speed:
            self.speed.due()
        out, err = io.StringIO(), io.StringIO()
        saved_stdin, sys.stdin = sys.stdin, io.StringIO(job.stdin or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.tracer:
                    self.tracer.active = True
                start = time.perf_counter()
                try:
                    code = self.cli.main(list(job.argv))
                except Exception as exc:  # a crash is a failed job, not a failed run
                    code = f"exception {exc!r}"
                end = time.perf_counter()
        finally:
            sys.stdin = saved_stdin
            if self.tracer:
                self.tracer.active = False
        elapsed = end - start
        self.latencies.append(elapsed)
        self.windows.append((start, end))
        problem = self._check(job, code, out.getvalue(), err.getvalue())
        if problem:
            self.failures.append(f"{' '.join(job.argv)}: {problem}")
        return elapsed

    def _check(self, job, code, stdout: str, stderr: str):
        if not isinstance(code, int):
            return code
        key = (job, repr(job.expect), code, stdout)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = check_output(job, code, stdout)
            except Exception as exc:  # unreadable output
                self._verdicts[key] = f"unreadable output ({exc!r}): {stdout[:120]!r}"
        problem = self._verdicts[key]
        return f"{problem}; stderr {stderr.strip()[:120]!r}" if problem else None

    def run_passes(self, jobs, seconds: float, min_jobs: int = MIN_JOBS) -> int:
        """Replay whole passes while the next is expected to end in time."""
        start = time.perf_counter()
        passes = 0
        while True:
            pass_start = time.perf_counter()
            for job in jobs:
                self.run(job)
            passes += 1
            now = time.perf_counter()
            if now - start > HARD_LIMIT_S:
                return passes
            if len(self.latencies) >= min_jobs and (now - start) + (now - pass_start) > seconds:
                return passes


def measure_setup(starts: int = SETUP_STARTS) -> tuple[float, float]:
    """Median time for a fresh interpreter to import the CLI and load the
    catalog: scaled to nominal host speed, and in wall-clock seconds."""
    env = dict(os.environ, PYTHONPATH=SRC)
    speed = HostSpeed()
    times, windows = [], []
    for _ in range(starts + 1):  # the first start may compile bytecode
        speed.sample()
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        windows.append((start, time.perf_counter()))
        times.append(float(done.stdout))
    speed.sample()
    scaled = [t * speed.factor(*w) for t, w in zip(times, windows)]
    return statistics.median(scaled[1:]), statistics.median(times[1:])


def job_metrics(latencies) -> dict:
    return {
        "jobs_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": tail_percentile(latencies),
    }


def end_to_end(cli, jobs, seconds: float) -> tuple[Client, dict, dict]:
    """Metrics scaled to nominal host speed, and the same in wall-clock time."""
    setup, wall_setup = measure_setup()
    speed = HostSpeed()
    client = Client(cli, speed=speed)
    client.run_passes(jobs, seconds)
    speed.sample()
    scaled = [lat * speed.factor(*w) for lat, w in zip(client.latencies, client.windows)]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": setup, **job_metrics(scaled), "peak_rss_mb": peak}
    wall = {"setup_s": wall_setup, **job_metrics(client.latencies)}
    return client, metrics, wall


def per_layer(cli, jobs, seconds: float, label: str) -> tuple[Client, dict]:
    client = Client(cli)
    start = time.perf_counter()
    client.run_passes(jobs, 0.0, min_jobs=0)
    untraced = sum(client.latencies)
    done = len(client.latencies)
    tracer = client.tracer = Tracer()
    tracer.install()
    try:
        passes = client.run_passes(jobs, seconds - (time.perf_counter() - start), min_jobs=0)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans, passes)
    metrics["trace.overhead_ratio"] = sum(client.latencies[done:]) / passes / untraced - 1
    write_spans(tracer.spans, label)
    return client, metrics


def write_spans(spans, label: str) -> None:
    """One JSON array per span: boundary, start, end, parent index, sizes."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    first = spans[0][1] if spans else 0.0
    with open(os.path.join(TRACE_DIR, f"{label}.jsonl"), "w") as fh:
        for span in spans:
            fh.write(json.dumps([span[0], span[1] - first, span[2] - first, span[3], *span[4:]]))
            fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        from metalie import cli
    except ImportError as exc:
        print(f"cannot import metalie from {SRC}: {exc}", file=sys.stderr)
        return 1
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"metalie was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 1

    jobs = make_pass(args.workload, args.seed)
    wall = {}
    if args.trace:
        label = f"{args.workload}-seed{args.seed}"
        client, metrics = per_layer(cli, jobs, args.seconds, label)
        units = METRICS
    else:
        client, metrics, wall = end_to_end(cli, jobs, args.seconds)
        units = END_TO_END
    attempted, failed = len(client.latencies), len(client.failures)
    for problem in client.failures[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {attempted} jobs, "
          f"{len(jobs)} per pass")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, value in wall.items():
        print(f"wall {name} {value:.6g} {units[name]}")
    print(f"error_rate {failed / attempted:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
