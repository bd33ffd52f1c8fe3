#!/usr/bin/env python3
"""Benchmark for the homnambu CLI.

    python3 benchmarks/run.py --workload nambu-nested --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` each workload's
command batch runs as real ``python -m homnambu.cli`` subprocesses, one at a
time (a closed loop with one client), repeated until ``--seconds`` is used up;
the end-to-end metrics come from these runs, scaled to a reference host speed
that a probe thread measures throughout (see SpeedProbe).  With ``--trace 1`` the same
batch is replayed in-process through ``homnambu.cli.main``, alternately
untraced and with spans around the calls into each module; the per-layer
metrics come from these replays.  Every command's exit code and stdout are
checked in both modes.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in turn, each in its own process.
See README.md for the metrics, the workloads and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
DIGESTS = BENCH / "digests.json"

# Import-only child processes timed per run for setup_s, before and after the
# measuring loop, so that the median spans the run rather than one moment of it.
STARTUP_SAMPLES_BEFORE = 11
STARTUP_SAMPLES_AFTER = 10
COMMAND_TIMEOUT_S = 150

# The host's CPU speed is not steady: on the 2-vCPU baseline host each vCPU
# switches between a fast and a slow state, about 1.7x apart, every few
# seconds and independently of the other.  So the benchmark pins itself and
# its children to one vCPU, and a probe thread times a short fixed Fraction
# workload on it every PROBE_PERIOD_S, taking about 2% of that vCPU.  A timed
# interval is scaled by PROBE_REF_MS over the probe's mean time within it:
# its length at the reference speed.  PROBE_REF_MS is the probe's time in the
# fast state of the baseline host (Intel Xeon, Python 3.11.7).
PROBE_PERIOD_S = 0.1
PROBE_REF_MS = 1.4
PROBE_NEAREST = 3  # samples used for an interval shorter than the period


def child_env() -> dict[str, str]:
    """Environment for every child: the source tree, a warm bytecode cache."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def calibrate_ms() -> float:
    """A fixed pure-Python loop; its time tracks the host's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1000


def probe_work() -> None:
    """The probe's fixed workload: Fraction sums in a dict, like the checks."""
    sums = {}
    for i in range(400):
        key = (i * 7919) % 97
        sums[key] = sums.get(key, Fraction(0)) + Fraction(i % 13 + 1, i % 7 + 1)


class SpeedProbe:
    """Samples the speed of the vCPU this process and its children run on."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, thread CPU ms)
        self._stop = threading.Event()

    @contextlib.contextmanager
    def running(self):
        self._stop.clear()
        thread = threading.Thread(target=self._loop, daemon=True)
        thread.start()
        try:
            yield self
        finally:
            self._stop.set()
            thread.join()

    def _loop(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            # Thread CPU time leaves out the time the probe waits for the vCPU.
            start = time.thread_time()
            probe_work()
            self.samples.append((time.perf_counter(), (time.thread_time() - start) * 1000))

    def adjusted(self, start: float, end: float) -> float:
        """Seconds from start to end, at the reference speed."""
        inside = [ms for t, ms in self.samples if start <= t <= end]
        if len(inside) < PROBE_NEAREST:
            mid = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            inside = [ms for _, ms in nearest[:PROBE_NEAREST]]
        return (end - start) * PROBE_REF_MS / statistics.mean(inside)


def pin_to_one_cpu() -> None:
    """Run this process, its probe thread and its children on one vCPU."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def host_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "tracing": "benchmark-side spans only; no system-wide tracing (perf, eBPF) is used",
    }


def spawn(argv, env, cwd) -> tuple[tuple[float, float], int, bytes, bytes]:
    """Run one child to completion; returns ((start, end), exit code, stdout, stderr)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        out, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += b"\nbenchmark: command timed out"
    return (start, time.perf_counter()), proc.returncode, out, err


def startup_times(env, cwd, repeats: int) -> list[tuple[float, float]]:
    """(start, end) of each of ``repeats`` children that only import the CLI."""
    argv = [sys.executable, "-c", "import homnambu.cli"]
    spans = []
    for _ in range(repeats):
        span, code, _, err = spawn(argv, env, cwd)
        if code != 0:
            raise SystemExit(f"benchmark: importing homnambu.cli failed:\n{err.decode()}")
        spans.append(span)
    return spans


def problem_with(cmd, code: int, stdout: str, stderr: str, digests) -> str | None:
    if "Traceback" in stderr:
        return "traceback on stderr"
    if code != cmd.expect_exit:
        return f"exit {code}, expected {cmd.expect_exit}"
    problem = cmd.check(stdout, code)
    if problem:
        return problem
    if digests is not None:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if digests.get(cmd.key) != digest:
            return "stdout differs from the recorded digest"
    return None


class Outcomes:
    """Commands attempted and failed, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, cmd, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{cmd.key}: {problem}")


def run_batches(batch, seconds, env, cwd, digests, outcomes):
    """Subprocess batches until the next one would overrun ``seconds``.

    Returns the (start, end) of each batch and of each command."""
    base = [sys.executable, "-m", "homnambu.cli"]
    batches, commands = [], []
    t0 = time.perf_counter()
    while True:
        b0 = time.perf_counter()
        for cmd in batch.commands:
            span, code, out, err = spawn(base + list(cmd.argv), env, cwd)
            commands.append(span)
            text = out.decode("utf-8", "replace")
            outcomes.record(cmd, problem_with(cmd, code, text, err.decode("utf-8", "replace"), digests))
            if cmd.save_as:
                (cwd / cmd.save_as).write_bytes(out)
        batches.append((b0, time.perf_counter()))
        if time.perf_counter() - t0 + statistics.median(e - s for s, e in batches) > seconds:
            return batches, commands


def _call_main(cli, argv) -> int:
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # report like an uncaught error in a real process
        traceback.print_exc()
        return 1


def replay(batch, cwd, digests, outcomes, tracer=None):
    """One in-process pass over the batch; returns (ms inside cli.main, stdout bytes)."""
    from homnambu import cli

    total_ns = 0
    stdout_bytes = 0
    for i, cmd in enumerate(batch.commands):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                start = time.perf_counter_ns()
                code = _call_main(cli, cmd.argv)
                total_ns += time.perf_counter_ns() - start
            else:
                tracer.command = i
                with tracer.span("cli.main") as span:
                    code = _call_main(cli, cmd.argv)
                total_ns += span["end_ns"] - span["start_ns"]
        text = out.getvalue()
        stdout_bytes += len(text.encode())
        outcomes.record(cmd, problem_with(cmd, code, text, err.getvalue(), digests))
        if cmd.save_as:
            (cwd / cmd.save_as).write_text(text, encoding="utf-8")
    return total_ns / 1e6, stdout_bytes


# Counts summed from span records, reported under these names.
COUNTERS = {
    "axioms.nambu.tuples": ("axioms.nambu", "tuples"),
    "axioms.nambu.failures": ("axioms.nambu", "failures"),
    "iterated.entries": ("iterated.bracket", "entries"),
    "derivations.rows": ("derivations.constraints", "rows"),
    "algfile.emit_bytes": ("algfile.emit", "bytes"),
}


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in report order."""
    from tracer import SPAN_NAMES

    names = [("startup.import_ms", "ms"), ("startup.import.calls", "count")]
    for span in SPAN_NAMES:
        names += [(f"{span}_ms", "ms"), (f"{span}.calls", "count")]
    names += [(c, "bytes" if c.endswith("_bytes") else "count") for c in COUNTERS]
    names += [
        ("cli.stdout_bytes", "bytes"),
        ("inputs.files", "count"),
        ("inputs.cells", "count"),
        ("inputs.multi_term_twist_cols", "count"),
        ("trace.replay_ms", "ms"),
        ("trace.untraced_ms", "ms"),
        ("trace.overhead_pct", "%"),
        ("trace.spans", "count"),
        ("host.calib_ms", "ms"),
    ]
    return names


def trace_metrics(batch, seconds, cwd, digests, outcomes, workload) -> dict:
    from tracer import SPAN_NAMES, Tracer

    tracer = Tracer()
    traced_ms, untraced_ms, totals, stdout_bytes = [], [], [], 0
    t0 = time.perf_counter()
    previous = os.getcwd()
    os.chdir(cwd)  # commands name their input files relative to the run directory
    try:
        # A warm-up replay whose time is not used, so that first-call costs
        # (imports, caches) land in neither the layer times nor the overhead.
        replay(batch, cwd, digests, outcomes)
        while True:
            p0 = time.perf_counter()
            for traced in (len(totals) % 2 == 0, len(totals) % 2 == 1):
                if traced:
                    first = len(tracer.spans)
                    with tracer.installed():
                        ms, stdout_bytes = replay(batch, cwd, digests, outcomes, tracer)
                    traced_ms.append(ms)
                    totals.append(tracer.totals(first))
                else:
                    untraced_ms.append(replay(batch, cwd, digests, outcomes)[0])
            if time.perf_counter() - t0 + (time.perf_counter() - p0) > seconds:
                break
    finally:
        os.chdir(previous)
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.dump(WORK / f"spans-{workload}.json", {"replays": len(totals), "commands": len(batch.commands)})

    median = statistics.median
    m = {}
    for span in SPAN_NAMES:
        m[f"{span}_ms"] = median([t[span]["self_ms"] for t in totals])
        m[f"{span}.calls"] = totals[0][span]["calls"]
    for metric, (span, key) in COUNTERS.items():
        m[metric] = totals[0][span]["counts"][key]
    m["cli.stdout_bytes"] = stdout_bytes
    m["inputs.files"] = len(batch.inputs)
    m["inputs.cells"] = sum(f.cells for f in batch.inputs)
    m["inputs.multi_term_twist_cols"] = sum(f.multi_term_twist_cols for f in batch.inputs)
    m["trace.replay_ms"] = median(traced_ms)
    m["trace.untraced_ms"] = median(untraced_ms)
    m["trace.overhead_pct"] = (median(traced_ms) / median(untraced_ms) - 1) * 100
    m["trace.spans"] = len(tracer.spans) // len(totals)
    return m


def load_digests(workload: str, seed: int):
    import workloads

    if seed != workloads.DEFAULT_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)


def run_one(args) -> int:
    import workloads

    env = child_env()
    host = host_record()
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    pin_to_one_cpu()
    probe = SpeedProbe()
    try:
        calib_start = calibrate_ms()
        startup_times(env, run_dir, 1)  # fills the bytecode cache
        batch = workloads.BUILDERS[args.workload](args.seed, run_dir)
        with probe.running():
            startup = startup_times(env, run_dir, STARTUP_SAMPLES_BEFORE)
        digests = load_digests(args.workload, args.seed)
        outcomes = Outcomes()
        lines = [
            f"# workload {args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}):"
            f" {workloads.WORKLOADS[args.workload]}",
            f"# host: Python {host['python']}, {host['cpu']}, nproc {host['nproc']}; {host['tracing']}",
            f"# commands per batch: {len(batch.commands)}; stdout digests "
            + ("checked" if digests is not None else "not checked (non-default seed)"),
        ]
        for f in batch.inputs:
            lines.append(
                f"# input {f.path}: d={f.dim} n={f.arity} twist={f.twist_family}"
                f" cells={f.cells} multi_term_twist_cols={f.multi_term_twist_cols}"
            )
        if args.trace:
            # In-process replays, without the probe: it would share the GIL.
            metrics = trace_metrics(batch, args.seconds, run_dir, digests, outcomes, args.workload)
        else:
            with probe.running():
                batches, commands = run_batches(batch, args.seconds, env, run_dir, digests, outcomes)
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        with probe.running():
            startup += startup_times(env, run_dir, STARTUP_SAMPLES_AFTER)
        setup_s = statistics.median(probe.adjusted(*span) for span in startup)
        probe_ms = [ms for _, ms in probe.samples]
        lines.append(
            f"# speed probe: {len(probe_ms)} samples, median {statistics.median(probe_ms):.4f} ms,"
            f" reference {PROBE_REF_MS} ms; setup_s unadjusted"
            f" {statistics.median(e - s for s, e in startup):.4f} s"
        )
        if args.trace:
            metrics = {
                "startup.import_ms": len(batch.commands) * setup_s * 1000,
                "startup.import.calls": len(batch.commands),
                **metrics,
            }
            units = dict(per_layer_names())
        else:
            walls = [probe.adjusted(*span) for span in batches]
            samples = [probe.adjusted(*span) for span in commands]
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": setup_s,
                "peak_rss_mb": peak_kb / 1024,
            }
            units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
            lines.append(
                f"# batches {len(walls)}, command samples {len(samples)}; wall_s unadjusted"
                f" {statistics.median(e - s for s, e in batches):.4f} s"
            )
            # Per-command percentiles are printed but not bounded: on workloads
            # of few, unequal commands they are too noisy run to run.
            lines.append(
                f"cmd_p50_ms {statistics.median(samples) * 1000:.4f} ms (n={len(samples)})"
            )
            p90_rank = int(0.9 * len(samples))
            beyond = len(samples) - p90_rank - 1
            if beyond >= 10:  # a percentile is reported only with 10 samples beyond it
                lines.append(
                    f"cmd_p90_ms {sorted(samples)[p90_rank] * 1000:.4f} ms"
                    f" (n={len(samples)}, {beyond} beyond)"
                )
        calib_end = calibrate_ms()
        metrics["host.calib_ms"] = statistics.mean((calib_start, calib_end))
        units["host.calib_ms"] = "ms"
        lines.append(f"host.calib_ms {calib_start:.3f} ms at start, {calib_end:.3f} ms at end")
        for name, value in metrics.items():
            lines.append(f"{name} {value:.6g} {units[name]}")
        lines.append(
            f"failed_frac {outcomes.failed}/{outcomes.attempted}"
            f" = {outcomes.failed / outcomes.attempted:.4f}"
        )
        lines += [f"# problem: {p}" for p in outcomes.problems]
        if not args.trace:
            metrics.pop("host.calib_ms")  # printed above, not an end-to-end metric
        print("\n".join(lines))
        print(
            json.dumps(
                {
                    "correct": outcomes.failed == 0,
                    "attempted": outcomes.attempted,
                    "failed": outcomes.failed,
                    "metrics": {
                        k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                    },
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process, so child max-RSS stays per workload."""
    import workloads

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "homnambu" / "cli.py").is_file():
        print(f"benchmark: no homnambu source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
