"""Run a session of CLI jobs, each in a fresh child forked from this process.

The parent times each job from fork to reap and reads the child's peak
RSS with ``wait4``.  The child points fd 1 and 2 at files, calls
``fellbundles.cli.main`` and leaves with ``os._exit``; an exception that
escapes ``main`` is printed as a traceback into the child's stderr and
exits 1, as the interpreter would, so it never reaches the parent.  With a
tracer installed, the child sends its span totals back through a pipe.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Job


@dataclass
class JobResult:
    job: Job
    wall_s: float
    code: int
    rss_mb: float
    mismatch: str | None
    bytes_in: int
    bytes_out: int
    amplified_dim: int | None = None
    trace: dict | None = None


@dataclass
class PassResult:
    results: list[JobResult] = field(default_factory=list)

    @property
    def session_s(self) -> float:
        return sum(r.wall_s for r in self.results)

    def command_s(self, command: str) -> float:
        return sum(r.wall_s for r in self.results if r.job.command == command)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.rss_mb for r in self.results)


def _child(argv, out_path: Path, err_path: Path, tracer, pipe_w) -> None:
    code = 70  # the child broke outside main: not a CLI exit code
    try:
        sys.stdout, sys.stderr = open(out_path, "w"), open(err_path, "w")
        os.dup2(sys.stdout.fileno(), 1)
        os.dup2(sys.stderr.fileno(), 2)
        from fellbundles import cli

        if tracer is not None:
            tracer.reset()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except BaseException:
            traceback.print_exc()
            code = 1
        sys.stdout.flush()
        sys.stderr.flush()
        if tracer is not None:
            os.write(pipe_w, json.dumps(tracer.totals()).encode())
    finally:
        os._exit(code)


def _output_bytes(job: Job) -> int:
    if "-o" not in job.argv:
        return 0
    target = job.argv[job.argv.index("-o") + 1]
    paths = [target] if job.command == "build" else [
        f"{target}.{part}.json" for part in ("bundle", "action", "vector")]
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def run_job(job: Job, logdir: Path, tracer=None) -> JobResult:
    out_path, err_path = logdir / "stdout.json", logdir / "stderr.txt"
    for stale in (out_path, err_path):
        stale.unlink(missing_ok=True)
    pipe_r, pipe_w = os.pipe() if tracer is not None else (None, None)
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        _child(job.argv, out_path, err_path, tracer, pipe_w)
    payload = b""
    if tracer is not None:
        os.close(pipe_w)
        with os.fdopen(pipe_r, "rb") as pipe:
            payload = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start

    code = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text() if out_path.exists() else ""
    stderr = err_path.read_text() if err_path.exists() else ""
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None
    if not isinstance(report, dict):
        report = None
    mismatch = job.mismatch(code, report, "Traceback (most recent call last)" in stderr)
    return JobResult(
        job=job, wall_s=wall, code=code, rss_mb=usage.ru_maxrss / 1024.0,
        mismatch=mismatch,
        bytes_in=os.path.getsize(job.argv[1]) if os.path.exists(job.argv[1]) else 0,
        bytes_out=len(stdout) + _output_bytes(job),
        amplified_dim=(report or {}).get("amplified_dimension"),
        trace=json.loads(payload) if payload else None,
    )


def run_session(jobs: list[Job], logdir: Path, tracer=None) -> PassResult:
    """One pass: every job in order, each in its own child."""
    logdir.mkdir(parents=True, exist_ok=True)
    if tracer is None:
        return PassResult([run_job(job, logdir) for job in jobs])
    with tracer.installed():
        return PassResult([run_job(job, logdir, tracer) for job in jobs])
