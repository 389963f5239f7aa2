"""Closed-loop runner: one process, one operation in flight.

Each operation runs under its workload's deadline (a SIGALRM interval timer)
and is then checked.  An exception, an overrun or a wrong output makes it a
failed operation with a reason; nothing is raised out of the loop.  The loop
runs whole passes over the workload's operations until --seconds have gone.
The end-to-end times are scaled to a reference host speed, measured between
operations with calibrate.py's kernel.
"""
from __future__ import annotations

import contextlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from . import calibrate, checks, setup_time, trace, workloads

OUT_DIR = ".perfbench_out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
WARMUP_S = 0.5
JOBS2_NOTE = "spans inside --jobs 2 worker processes are not collected; those runs trace cli.main only"


class DeadlineExceeded(BaseException):
    """Raised by the interval timer; a BaseException so no library handler eats it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextlib.contextmanager
def deadlines():
    """SIGALRM raises DeadlineExceeded inside this block."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        yield
    finally:
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Record:
    label: str
    tag: str
    points: int
    elapsed_s: float
    reason: str | None = None
    wrong: bool = False
    traced: bool = False
    parallel: bool = False

    @property
    def ok(self) -> bool:
        return self.reason is None


def run_op(op: workloads.Operation, deadline_s: float) -> Record:
    record = Record(op.label, op.tag, op.points, 0.0, parallel=op.parallel)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            out = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        record.elapsed_s = time.perf_counter() - t0
    except DeadlineExceeded:
        record.elapsed_s = time.perf_counter() - t0
        record.reason = f"DeadlineExceeded: no result within {deadline_s:g} s"
        return record
    except Exception as exc:  # any failure of the program under test is a result
        record.elapsed_s = time.perf_counter() - t0
        record.reason = f"{type(exc).__name__}: {exc}"
        return record
    if record.elapsed_s > deadline_s:
        record.reason = f"DeadlineExceeded: took {record.elapsed_s:.3f} s > {deadline_s:g} s"
        return record
    try:
        failure = op.check(out)
    except Exception as exc:
        failure = f"check raised {type(exc).__name__}: {exc}"
    if failure:
        record.reason, record.wrong = f"wrong output: {failure}", True
    return record


@dataclass
class Loop:
    records: list[Record]
    pass_walls: list[float]
    stats: trace.SpanStats | None = None  # traced runs only
    first_spans: list[tuple] = field(default_factory=list)

    @property
    def passes(self) -> int:
        return len(self.pass_walls)

    @property
    def wall_s(self) -> float:
        return sum(self.pass_walls)


def measure(ops, deadline_s: float, seconds: float, tracer: trace.Tracer | None = None,
            probe: calibrate.Probe | None = None) -> Loop:
    """Whole passes over ops until `seconds` have gone.

    With a probe, the host speed is sampled between operations.

    With a tracer, each operation runs twice, untraced and traced, in
    alternating order; span stats are folded in after each pass and the
    first pass's spans are kept.
    """
    loop = Loop([], [], trace.SpanStats() if tracer else None)
    records = loop.records
    t0 = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for i, op in enumerate(ops):
            if probe is not None:
                probe.tick()
            if tracer is None:
                records.append(run_op(op, deadline_s))
                continue
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.install(only={"cli.main"} if op.parallel else None)
                try:
                    rec = run_op(op, deadline_s)
                finally:
                    tracer.uninstall()
                rec.traced = traced
                records.append(rec)
        if tracer is not None:
            spans = tracer.take_spans()
            loop.stats.add(spans, tracer)
            if not loop.pass_walls:
                loop.first_spans = spans
        loop.pass_walls.append(time.perf_counter() - t_pass)
        if time.perf_counter() - t0 >= seconds:
            return loop


def warm_up(ops, deadline_s: float) -> None:
    """Lazy imports and first-call caches, before anything is timed."""
    t0 = time.perf_counter()
    for op in ops:
        run_op(op, deadline_s)
        if time.perf_counter() - t0 >= WARMUP_S:
            break


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def operation_latencies_ms(records: list[Record], deadline_s: float) -> dict[str, float]:
    """Each operation's mean latency over the passes of the run.

    A failed run of an operation counts at the deadline.  Averaging per
    operation first keeps a percentile from jumping between two operations
    of different cost when machine noise reorders their runs.
    """
    by_op: dict[str, list[float]] = defaultdict(list)
    for r in records:
        by_op[r.label].append((r.elapsed_s if r.ok else deadline_s) * 1e3)
    return {label: statistics.fmean(v) for label, v in by_op.items()}


def end_to_end_metrics(loop: Loop, deadline_s: float, factor: float, setup_s: float) -> dict:
    """Times are scaled by `factor` to the reference host (see calibrate.py)."""
    recs = loop.records
    lat_ms = list(operation_latencies_ms(recs, deadline_s).values())
    ok = [r for r in recs if r.ok]
    # Sums and means over the whole run weigh the host's speeds by the time
    # spent at each, as the calibration kernel's mean does; a median or a
    # minimum jumps from one speed to the next.
    op_time_s = sum(r.elapsed_s for r in recs) * factor
    return {
        "points_per_s": (sum(r.points for r in ok) / op_time_s, "1/s"),
        "point_p50_ms": (percentile(lat_ms, 0.5) * factor, "ms"),
        "point_p90_ms": (percentile(lat_ms, 0.9) * factor, "ms"),
        "ok_ratio": (len(ok) / len(recs), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(tracer: trace.Tracer, loop: Loop, import_ms: dict[str, float]) -> tuple[dict, list[str]]:
    traced = [r for r in loop.records if r.traced]
    untraced = [r for r in loop.records if not r.traced]
    couplings = sum(r.points for r in traced if not r.parallel) / loop.passes
    metrics, absent = trace.span_metrics(tracer, loop.stats, loop.passes, couplings)
    jobs_ms = {tag: sum(r.elapsed_s for r in traced if r.tag == tag) * 1e3 / loop.passes for tag in ("jobs1", "jobs2")}
    metrics["cli.main.ms_jobs1"] = (jobs_ms["jobs1"], "ms")
    metrics["cli.main.ms_jobs2"] = (jobs_ms["jobs2"], "ms")
    metrics["cli.parallel_efficiency"] = (
        jobs_ms["jobs1"] / (2.0 * jobs_ms["jobs2"]) if jobs_ms["jobs2"] else 0.0, "ratio"
    )
    if "cli.main" not in tracer.names:
        absent.append("cli.main")
    for name, value in import_ms.items():
        metrics[name] = (value, "ms")
    metrics["trace.overhead_ratio"] = (
        sum(r.elapsed_s for r in traced) / sum(r.elapsed_s for r in untraced), "ratio"
    )
    return metrics, absent


def metadata(root: Path) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    try:
        kernels = importlib.import_module("dicke_metrology._kernels")
    except ModuleNotFoundError:
        kernels = None
    backend = getattr(kernels, "active_backend", None)
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": version("numba"),
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "photon_backend": backend() if callable(backend) else "unknown",
        "platform": platform.platform(),
    }


def _git_sha(root: Path) -> str:
    # the ceiling keeps git from searching directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _runs_by_operation(records: list[Record]) -> dict[str, list[float]]:
    runs: dict[str, list[float]] = defaultdict(list)
    for r in records:
        if not r.traced:
            runs[r.label].append(r.elapsed_s * 1e3)
    return runs


def _failure_summary(records: list[Record]) -> dict:
    reasons = Counter(r.reason for r in records if not r.ok)
    return {
        reason: {"count": n, "first": next(r.label for r in records if r.reason == reason)}
        for reason, n in reasons.most_common()
    }


def run(workload_name: str, seed: int, seconds: float, traced: bool, root: Path) -> dict:
    wl = workloads.WORKLOADS[workload_name]
    out_dir = root / OUT_DIR / workload_name
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    with deadlines():
        meta = metadata(root)
        if traced:
            import_ms = setup_time.import_breakdown(env, IMPORTTIME_SAMPLES)
        else:
            setup_walls, setup_kernel_s = setup_time.setup_seconds(wl.first_call, env, SETUP_SAMPLES)
        ops = wl.operations(seed, checks.load_reference(), out_dir)
        warm_up(ops, wl.deadline_s)
        tracer = trace.Tracer() if traced else None
        probe = None if traced else calibrate.Probe()
        loop = measure(ops, wl.deadline_s, seconds, tracer, probe)
        probes = [run_op(op, wl.deadline_s) for op in workloads.defect_probes()] \
            if wl is workloads.PHOTON_TABLES else []

    notes, absent = [], []
    if traced:
        metrics, absent = per_layer_metrics(tracer, loop, import_ms)
        if any(r.parallel for r in loop.records):
            notes.append(JOBS2_NOTE)
    else:
        setup_s = statistics.median(setup_walls)
        setup_factor = calibrate.REFERENCE_S / statistics.fmean(setup_kernel_s)
        metrics = end_to_end_metrics(loop, wl.deadline_s, probe.factor, setup_s * setup_factor)
        raw = end_to_end_metrics(loop, wl.deadline_s, 1.0, setup_s)
    failed = sum(not r.ok for r in loop.records)
    result = {
        "correct": not any(r.wrong for r in loop.records + probes),
        "attempted": len(loop.records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    detail = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "deadline_s": wl.deadline_s,
        "meta": meta,
        "passes": loop.passes,
        "wall_s": loop.wall_s,
        "operations_per_pass": len(ops),
        "pass_walls_s": loop.pass_walls,
        "operation_mean_ms": operation_latencies_ms([r for r in loop.records if not r.traced], wl.deadline_s),
        "operation_runs_ms": _runs_by_operation(loop.records),
        "failures": _failure_summary(loop.records),
        "known_defects": {
            "attempted": len(probes),
            "failed": sum(not r.ok for r in probes),
            "fail_ratio": sum(not r.ok for r in probes) / len(probes) if probes else 0.0,
            "outcomes": {r.label: r.reason or "ok" for r in probes},
        },
        "absent": absent,
        "notes": notes,
        "result": result,
    }
    if traced:
        detail["first_pass_spans"] = {
            "names": tracer.names,
            "fields": ["id", "parent", "name", "t0_ns", "t1_ns", "self_ns", "size"],
            "spans": loop.first_spans,
        }
    else:
        detail["setup_samples_s"] = setup_walls
        detail["calibration"] = {
            "reference_s": calibrate.REFERENCE_S,
            "factor": probe.factor,
            "kernel_s": probe.samples,
            "setup_factor": setup_factor,
            "setup_kernel_s": setup_kernel_s,
        }
        detail["unscaled_metrics"] = {name: v for name, (v, _) in raw.items()}
    path = root / OUT_DIR / f"{workload_name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(detail) + "\n", encoding="utf-8")
    _report(detail, metrics, path)
    return result


def _report(detail: dict, metrics: dict, path: Path) -> None:
    err = sys.stderr
    meta = detail["meta"]
    print(f"# {detail['workload']} seed={detail['seed']} trace={int(detail['trace'])} "
          f"passes={detail['passes']} wall={detail['wall_s']:.2f}s "
          f"sha={meta['git_sha']} backend={meta['photon_backend']} cpus={meta['cpu_count']}", file=err)
    unscaled = detail.get("unscaled_metrics", {})
    if unscaled:
        print(f"  host speed factor {detail['calibration']['factor']:.4f}; unscaled values in brackets", file=err)
    for name, (value, unit) in metrics.items():
        extra = f"  [{unscaled[name]:.6g}]" if name in unscaled and unscaled[name] != value else ""
        print(f"  {name:45s} {value:14.6g} {unit}{extra}", file=err)
    for reason, info in detail["failures"].items():
        print(f"  FAILED x{info['count']}: {reason}  (first: {info['first']})", file=err)
    if detail["known_defects"]["attempted"]:
        print(f"  known defects: fail_ratio={detail['known_defects']['fail_ratio']:.3g}", file=err)
        for label, outcome in detail["known_defects"]["outcomes"].items():
            print(f"    {label}: {outcome}", file=err)
    for name in detail["absent"]:
        print(f"  absent: {name}", file=err)
    for note in detail["notes"]:
        print(f"  note: {note}", file=err)
    print(f"  details: {path}", file=err)
