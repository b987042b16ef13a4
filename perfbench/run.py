"""gapforge benchmark: one client, ops run one after another in this process.

    python3 perfbench/run.py --workload forge|pcc|compat|check --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  The
run sets up (imports gapforge and builds the workload's inputs) SETUP_REPS
times, then runs whole batches of ops for about S seconds and checks every
output against the digests in perfbench/expected.json.  With --trace 0
it reports the end-to-end metrics; with --trace 1 it runs every op twice,
untraced and then traced, and reports the per-layer metrics and the tracing
overhead.

The end-to-end times are scaled to a reference machine speed: a fixed
pure-Python loop (`calibrate`) runs before the first op and then about
every CAL_EVERY_NS of op time, and the ops between two calibrations are
scaled by CAL_REF_NS over the mean of the two.  A shared host can run the
same code 1.6x slower for seconds to minutes at a time; the loop slows with
it, so the scaled times keep only what the program changes.  The wall-clock
figures are printed on the human-readable lines.  Human-readable lines come first; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Spans of a
traced run are written to .perfbench-out/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
EXPECTED = HERE / "expected.json"
SETUP_REPS = 21
MODULES = ("cli", "gaps", "ordinals", "pcc", "poset_p", "poset_q", "simulate")
P90_MIN_OPS = 100  # p90 is reported once ten samples lie beyond it
CAL_LOOPS = 50_000
CAL_REF_NS = 6_500_000  # a calibration's time at the reference speed
CAL_EVERY_NS = 200_000_000

sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}


def load_package():
    """gapforge and its modules, imported from ./src."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("gapforge")
    modules = {m: importlib.import_module(f"gapforge.{m}") for m in MODULES}
    return types.SimpleNamespace(package=package, **modules)


def fresh_import():
    """Import gapforge anew, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "gapforge" or n.startswith("gapforge.")]:
        del sys.modules[name]
    return load_package()


def layer_unit(name: str) -> str:
    if name.endswith(".ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("free_bits"):
        return "bits"
    return "count"


def calibrate() -> int:
    """ns taken by a fixed pure-Python loop, with the garbage collector off
    so that the objects the package holds do not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        total, slots = 0, {}
        for i in range(CAL_LOOPS):
            total += i * i % 7
            slots[i & 1023] = total
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def scale(before: int, after: int) -> float:
    """Factor from wall time to reference time, between two calibrations."""
    return 2 * CAL_REF_NS / (before + after)


def timed_op(workload, k, failures):
    """Run op k; return (ns, output, raised nothing)."""
    start = time.perf_counter_ns()
    try:
        out = workload.op(k)
    except Exception as e:  # an op that raises is a failed op
        failures.append(f"op {k} ({workload.key(k)}) raised {type(e).__name__}: {e}")
        return time.perf_counter_ns() - start, None, False
    return time.perf_counter_ns() - start, out, True


def measure(workload, seconds, tracer=None):
    """Run whole batches of ops while the next one is expected to end within
    `seconds`; at least one batch.

    Returns the untraced op times in wall ns and scaled to the reference
    speed, the traced op times, the failed count, the failure messages and
    the bytes of CLI output.  With a tracer, each op runs untraced and then
    traced; the traced output must equal the untraced one.
    """
    times, scaled, traced, failures = [], [], [], []
    report_bytes = failed = 0
    segment = []  # wall ns of the ops since the last calibration
    cal = calibrate()
    start = time.perf_counter()
    while True:
        k = len(times)
        ns, out, ok = timed_op(workload, k, failures)
        times.append(ns)
        segment.append(ns)
        if tracer is not None:
            tracer.op = k
            tracer.install()
            try:
                traced_ns, traced_out, traced_ok = timed_op(workload, k, failures)
            finally:
                tracer.uninstall()
            traced.append(traced_ns)
            if ok and traced_ok and traced_out != out:
                failures.append(f"op {k} ({workload.key(k)}) changed its output under tracing")
            ok = ok and traced_ok and traced_out == out
            if isinstance(out, tuple):  # a cli op: (exit code, stdout, stderr)
                report_bytes += len(out[1].encode("utf-8"))
        if ok:
            try:
                workload.check(k, out)
            except Exception as e:  # a wrong or unreadable output is a failed op
                failures.append(f"op {k} ({workload.key(k)}) failed its check: {type(e).__name__}: {e}")
                ok = False
        failed += not ok
        batch_done = len(times) % workload.BATCH == 0
        if batch_done or sum(segment) >= CAL_EVERY_NS:
            after = calibrate()
            factor = scale(cal, after)
            scaled.extend(t * factor for t in segment)
            segment.clear()
            cal = after
        if batch_done:
            elapsed = time.perf_counter() - start
            if elapsed * (1 + workload.BATCH / len(times)) > seconds:
                break
    return times, scaled, traced, failed, failures, report_bytes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gapforge" / "__init__.py").is_file():
        print(f"perfbench: no gapforge package under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[args.workload]
    cls = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setup, setup_scaled = [], []
        cal = calibrate()
        for rep in range(SETUP_REPS):
            gc.collect()  # each set-up starts without the garbage of the one before
            start = time.perf_counter_ns()
            gf = fresh_import()
            workload = cls(gf, args.seed, workdir / str(rep), expected)
            ns = time.perf_counter_ns() - start
            after = calibrate()
            setup.append(ns / 1e9)
            setup_scaled.append(ns * scale(cal, after) / 1e9)
            cal = after
        tracer = Tracer(gf) if args.trace else None
        times, scaled, traced, failed, failures, report_bytes = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(times)
    op_ms = [ns / 1e6 for ns in scaled]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {attempted}  failed {failed}")
    for line in failures[:10]:
        print(f"  FAILED {line}")
    if args.trace:
        layers = tracer.metrics()
        layers["cli.report_bytes"] = report_bytes
        layers["trace.ops"] = attempted
        layers["trace.overhead_pct"] = (sum(traced) / sum(times) - 1) * 100
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.jsonl")
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in sorted(layers.items())}
    else:
        completed = attempted - failed
        values = {
            "setup_s": statistics.median(setup_scaled),
            "ops_per_s": completed / (sum(scaled) / 1e9),
            "op_ms_p50": statistics.median(op_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'wall setup_s':44s} {statistics.median(setup):>14.6g} s")
        print(f"  {'wall ops_per_s':44s} {completed / (sum(times) / 1e9):>14.6g} 1/s")
        print(f"  {'wall op_ms_p50':44s} {statistics.median(times) / 1e6:>14.6g} ms")
        print(f"  {'reference time / wall time':44s} {sum(scaled) / sum(times):>14.6g}")
        if attempted >= P90_MIN_OPS:
            p90 = f"{statistics.quantiles(op_ms, n=10)[-1]:.6g} ms"
        else:
            p90 = f"not reported: {attempted} ops, p90 needs {P90_MIN_OPS}"
        print(f"  {'op_ms_p90':44s} {p90}")
        print(f"  {'failed_op_ratio':44s} {failed / attempted:>14.6g} ratio")
    for name, value in workload.properties().items():
        print(f"  input {name}: {value}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
