"""Closed-loop measurement shared by the workloads.

One client issues an op only after the previous one returned.  A run is
made of whole rounds (a workload's fixed op list), so every run attempts
the same mix; it stops at the first round boundary after ``seconds`` and
never before ``min_rounds`` rounds.  Timings are taken around the op only;
the output checks run after it, outside the timed region.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from reference import CheckError
from tracing import NullTracer

NULL_TRACER = NullTracer()


class ProgramFailure(RuntimeError):
    """The program failed an op: an exception or a non-zero exit code."""


@dataclass
class OpResult:
    wall_s: float
    cpu_s: float
    output: object = None
    rss_mb: float | None = None


def timed(fn, *args) -> OpResult:
    """Run one in-process op; wall time and process CPU (user+sys)."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    output = fn(*args)
    t1 = time.perf_counter()
    c1 = time.process_time()
    return OpResult(t1 - t0, c1 - c0, output)


def run_child(argv, cwd, stdout_path, stderr_path) -> OpResult:
    """Run a child process to completion; its wall, CPU and peak RSS, with
    the exit code as ``output``.

    CPU and peak RSS come from wait4, so they are the child's own."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return OpResult(
        t1 - t0,
        usage.ru_utime + usage.ru_stime,
        proc.returncode,
        usage.ru_maxrss / 1024.0,
    )


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class RunStats:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    rss: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def note(self, kind: str, op, exc: Exception):
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {op}: {exc}")
            print(f"bench: {kind}: {op}: {exc}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.wrong == 0

    def end_to_end(self, tail_pct: float) -> dict:
        ok = self.walls
        return {
            "ops_per_s": (len(ok) / sum(ok), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(ok), "ms"),
            "op_tail_ms": (1e3 * percentile(ok, tail_pct), "ms"),
            "op_cpu_ms": (1e3 * statistics.median(self.cpus), "ms"),
        }


def run_op_checked(workload, op, tracer, stats: RunStats, traced: bool):
    """Attempt one op, record its timing, then check its output."""
    stats.attempted += 1
    try:
        with tracer.span(f"{workload.name}.op"):
            result = workload.run_op(op, tracer)
    except Exception as exc:  # the op's failure is counted, the run goes on
        stats.failed += 1
        stats.note("failed", op, exc)
        return
    (stats.traced_walls if traced else stats.walls).append(result.wall_s)
    if not traced:
        stats.cpus.append(result.cpu_s)
        if result.rss_mb is not None:
            stats.rss.append(result.rss_mb)
    try:
        workload.check(op, result.output)
    except CheckError as exc:
        stats.wrong += 1
        stats.note("wrong", op, exc)


def measure(workload, seconds: float, tracer=None) -> RunStats:
    """Closed loop over whole rounds.  With a tracer, odd rounds are traced
    and even rounds are not, so one run gives both op times."""
    stats = RunStats()
    start = time.perf_counter()
    r = 0
    while r < workload.min_rounds or time.perf_counter() - start < seconds:
        traced = tracer is not None and r % 2 == 1
        active = tracer if traced else NULL_TRACER
        for k, op in enumerate(workload.round_ops(r)):
            active.op_id = f"{workload.name}:{r}.{k}"
            run_op_checked(workload, op, active, stats, traced)
        if traced:
            workload.traced_round_extra(tracer, stats)
        r += 1
    return stats
