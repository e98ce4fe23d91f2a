#!/usr/bin/env python3
"""Benchmark for structdrift: end-to-end CLI timings and per-layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload extract_large --seed 1 --seconds 20 --trace 0

Workloads: extract_large, repo_reports, ingest_series (see workloads.py
and README.md). The corpus is generated from --seed with gcc and cached
under .perfbench_work/ next to this directory; building it is preparation
and is not timed.

--trace 0 runs a closed loop with one client: one fresh `structdrift` CLI
process at a time, for --seconds, repeating the workload's cycle of
operations. Every report is checked against the generator's reference.
It prints the end-to-end metrics.

--trace 1 runs one cycle in fresh processes, then alternates untraced
and traced in-process cycles for --seconds, and prints the per-layer
metrics: medians over the traced cycles, the tracing overhead (traced
minus untraced), and the fresh-process time of each command. Spans are
written to .perfbench_work/traces/ at exit.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Progress and diagnostics go to
standard error.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory free of build products

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

import workloads  # noqa: E402

ENTRY = "from structdrift.cli import main; main()"
SETUP = ("from structdrift.cli import build_parser; "
         "from structdrift.watch import default_chains, default_watchlist; "
         "build_parser(); default_watchlist(); default_chains()")
SETUP_SAMPLES = 9
TOOLS = ("gcc", "g++", "objcopy", "readelf")
COMMANDS = ("extract", "index", "score", "aggregate", "volatility", "timeline",
            "chains", "diff")

# The probe: a fixed pure-Python job (byte loop, dict updates, JSON parse).
# PROBE_REFERENCE_S is its median duration over a 3-minute sample on the
# reference machine (2-vCPU KVM guest, Xeon at 2.1 GHz); it only sets the
# scale of the reported seconds.
PROBE_DATA = bytes(range(256)) * 400
PROBE_TEXT = json.dumps({str(i): [i, str(i)] for i in range(4500)})
PROBE_REFERENCE_S = 0.0175
PROBE_SAMPLES = 6


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("STRUCTDRIFT_REPO", None)
    return env


def spawn(args, stdout_path: Path, env: dict):
    """Run one fresh interpreter; returns (seconds, exit code, peak RSS in KiB)."""
    with open(stdout_path, "wb") as out, open(WORK / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def probe() -> float:
    start = time.perf_counter()
    total, seen = 0, {}
    for b in PROBE_DATA:
        total += b & 0x7F
        if b & 0x80:
            seen[b] = seen.get(b, 0) + 1
    json.loads(PROBE_TEXT)
    return time.perf_counter() - start


class Clock:
    """Scales measured times to the probe's reference speed.

    The host's CPU speed drifts with other tenants' load, so each measured
    process is bracketed by probe runs and its time is multiplied by
    PROBE_REFERENCE_S / median(probes before and after).
    """

    def __init__(self):
        self.before = self._probes()
        self.raw = defaultdict(list)

    def _probes(self):
        return [probe() for _ in range(PROBE_SAMPLES)]

    def scale(self, label: str, raw: float) -> float:
        after = self._probes()
        factor = PROBE_REFERENCE_S / statistics.median(self.before + after)
        self.before = after
        self.raw[label].append(raw)
        return raw * factor

    def summary(self) -> str:
        return ", ".join(f"{k} {median(v):.4f} (n={len(v)})" for k, v in self.raw.items())


class Ledger:
    """Counts operations, checks each report and compares report digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests = {}

    def record(self, op: workloads.Op, code: int, data: bytes, mode: str) -> None:
        self.attempted += 1
        error = None
        if code != 0:
            error = f"exit code {code}"
        else:
            try:
                error = op.check(data)
            except Exception as exc:  # a malformed report is a failed operation
                error = f"unreadable report: {exc!r}"
            digest = hashlib.sha256(data).hexdigest()
            if error is None and self.digests.setdefault(op.key, digest) != digest:
                error = "report differs from an earlier run of the same operation"
        if error:
            self.fail(f"{mode} {op.key}: {error}")

    def fail(self, message: str) -> None:
        self.failed += 1
        log("FAILED " + message)


def run_fresh(op: workloads.Op, env: dict, ledger: Ledger):
    if op.before:
        op.before()
    if op.out:
        op.out.unlink(missing_ok=True)
    stdout = WORK / "stdout.txt"
    elapsed, code, rss = spawn(["-c", ENTRY, *op.argv], stdout, env)
    data = (op.out.read_bytes() if op.out.exists() else b"") if op.out else stdout.read_bytes()
    ledger.record(op, code, data, "fresh")
    return elapsed, rss


def run_inprocess(op: workloads.Op, ledger: Ledger, tracer=None) -> float:
    import structdrift.cli
    if op.before:
        op.before()
    if op.out:
        op.out.unlink(missing_ok=True)
    out = io.StringIO()
    saved = sys.stdout, sys.stderr, sys.argv
    sys.stdout, sys.stderr, sys.argv = out, io.StringIO(), ["structdrift", *op.argv]
    code = 0
    start = time.perf_counter()
    try:
        with tracer.op(op.command) if tracer else contextlib.nullcontext():
            structdrift.cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # an uncaught error would end a CLI process with status 1
        code = 1
    finally:
        elapsed = time.perf_counter() - start
        sys.stdout, sys.stderr, sys.argv = saved
    data = (op.out.read_bytes() if op.out.exists() else b"") if op.out \
        else out.getvalue().encode("utf-8")
    ledger.record(op, code, data, "traced" if tracer else "in-process")
    return elapsed


def median(values):
    return statistics.median(values) if values else 0


def timed_run(workload, seconds: float, ledger: Ledger) -> dict:
    env = child_env()
    spawn(["-c", SETUP], WORK / "stdout.txt", env)  # warm the bytecode cache
    clock = Clock()
    setup, peak_kib = [], 0
    for _ in range(SETUP_SAMPLES):
        elapsed, code, rss = spawn(["-c", SETUP], WORK / "stdout.txt", env)
        ledger.attempted += 1
        if code != 0:
            ledger.fail(f"set-up process exited {code}")
        setup.append(clock.scale("setup", elapsed))
        peak_kib = max(peak_kib, rss)
    cycles, throughput = [], []
    per_command = defaultdict(list)
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        cycle_s, cycle_bytes = 0.0, 0
        for op in workload.cycle():
            elapsed, rss = run_fresh(op, env, ledger)
            elapsed = clock.scale(op.command, elapsed)
            per_command[op.command].append(elapsed)
            cycle_s += elapsed
            cycle_bytes += op.input_bytes()
            peak_kib = max(peak_kib, rss)
        cycles.append(cycle_s)
        throughput.append(cycle_bytes / cycle_s / 1e6)
    log(f"{len(cycles)} cycles; raw median seconds: {clock.summary()}")
    return {
        "setup_s": (median(setup), "s"),
        "cycle_s": (median(cycles), "s"),
        "input_mb_per_s": (median(throughput), "MB/s"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
        "ops_ok_ratio": ((ledger.attempted - ledger.failed) / ledger.attempted, "ratio"),
    }


def trace_run(workload, seconds: float, ledger: Ledger, seed: int) -> dict:
    env = child_env()
    per_command = defaultdict(list)
    extract_bytes = 0
    clock = Clock()
    for op in workload.cycle():  # untraced fresh processes: reference digests
        elapsed, _ = run_fresh(op, env, ledger)
        per_command[op.command].append(clock.scale(op.command, elapsed))
        if op.command == "extract":
            extract_bytes += op.input_bytes()

    sys.path.insert(0, str(SRC))
    import tracer as tracing
    tracer = tracing.Tracer()
    traced, untraced, passes, span_counts = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        # Alternate which side runs first so warm-up does not favour one.
        for use in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if use:
                tracer.install()
                first, before = len(tracer.spans), tracer.counts.copy()
            total = sum(run_inprocess(op, ledger, tracer if use else None)
                        for op in workload.cycle())
            if use:
                tracer.uninstall()
                traced.append(total)
                span_counts.append(len(tracer.spans) - first)
                passes.append(tracing.pass_metrics(tracer, first, tracer.counts - before))
            else:
                untraced.append(total)

    for name in tracing.EXACT_COUNTS:
        values = {p[name] for p in passes}
        if len(values) > 1:
            ledger.fail(f"count {name} varied between traced cycles: {sorted(values)}")
    untraced_metrics = tracing.untraced_metrics(tracer)
    layers = {layer: ("untraced" if f"{layer}.self_s" in untraced_metrics else "traced")
              for layer in tracing.LAYERS}
    log(f"{len(traced)} traced cycles; layers {layers}; untraced metrics {untraced_metrics}")

    metrics = {name: (median([p[name] for p in passes]), unit)
               for name, (unit, _, _) in tracing.METRICS.items()}
    t, u = median(traced), median(untraced)
    metrics.update({
        "trace.traced_s": (t, "s"),
        "trace.untraced_s": (u, "s"),
        "trace.overhead_s": (t - u, "s"),
        "trace.overhead_ratio": ((t - u) / u if u else 0, "ratio"),
        "trace.spans": (median(span_counts), "count"),
    })
    for command in COMMANDS:
        metrics[f"cmd.{command}_s"] = (median(per_command.get(command, [])), "s")
    extract_s = sum(per_command.get("extract", []))
    metrics["cmd.debug_info_mb_per_s"] = (extract_bytes / extract_s / 1e6 if extract_s else 0,
                                          "MB/s")

    traces = WORK / "traces"
    traces.mkdir(exist_ok=True)
    (traces / f"{workload.name}-{seed}.json").write_text(json.dumps({
        "layers": layers, "untraced_metrics": untraced_metrics, "passes": passes,
        "fields": ["name", "start", "end", "parent"], "spans": tracer.spans,
    }, separators=(",", ":")))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "structdrift" / "cli.py").is_file():
        log(f"structdrift sources not found under {SRC}")
        return 2
    missing = [tool for tool in TOOLS if shutil.which(tool) is None]
    if missing:
        log(f"missing build tools: {', '.join(missing)}")
        return 2

    work = WORK / args.workload
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")  # gcc temporaries stay in the checkout
    workload = workloads.WORKLOADS[args.workload](args.seed, work, SRC / "structdrift" / "data")
    start = time.perf_counter()
    try:
        workload.prepare()
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        log(f"corpus preparation failed: {exc}")
        return 1
    log(f"corpus for {args.workload} seed {args.seed} ready in "
        f"{time.perf_counter() - start:.1f} s (preparation, not timed)")

    ledger = Ledger()
    if args.trace:
        metrics = trace_run(workload, args.seconds, ledger, args.seed)
    else:
        metrics = timed_run(workload, args.seconds, ledger)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
