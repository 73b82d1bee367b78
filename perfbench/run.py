"""fuzzsemi benchmark: one workload, one seed, operations on one thread.

    python3 perfbench/run.py --workload {forced,lifted,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
The loop is closed: the next operation starts only after the previous
one returns.  Every output is checked against an oracle that does not go
through the fuzzy algebra (see ``oracles.py``), and every miss, exception
or wrong exit code counts as a failed operation.

``--trace 0`` measures the end-to-end metrics: set-up time, operations per
second, latency percentiles and peak memory.  It runs whole cycles of the
workload's operation classes until ``--seconds`` have passed.  Set-up is
timed in fresh interpreters (``coldstart.py``), started one at a time
between cycles, so that it includes every import.

``--trace 1`` replays a fixed list of operations, alternating an untraced
and a traced pass until ``--seconds`` have passed, and reports per-layer
counts and self times (see ``tracer.py``).  It also checks that every
traced pass gives the same counters and that tracing changes no output
bit.  The spans of the first traced pass are written to
``perfbench/out/`` at exit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

# One thread: numpy's OpenBLAS would otherwise start a worker thread per
# vCPU.  Set before numpy is first imported (by the modules below); the
# set-up children of coldstart.py inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from tracer import LAYERS, SOLVE_SPANS, Tracer
from workloads import LEVELS, WORKLOADS, Miss, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 7  # cold set-ups per timed run, spread over the run; the median is reported
COLD_TIMEOUT_S = 15
TRACE_CYCLES = {"forced": 2, "lifted": 1, "cli": 1}  # cycles in the traced op list
MAX_OVERRUN = 2.0  # stop mid-cycle once the run has taken this many times --seconds
FAILURES_SHOWN = 5
# per-layer times that are zero by construction on some workload (no CLI,
# checks or residual work there): printed by name, kept out of the JSON
# metrics, since a time that reads the same on every run is not a measurement
PRINTED_ONLY = (
    "cli.self_ms",
    "checks.self_ms",
    "checks.run_suites.ms",
    "cauchy.residual_check.self_ms",
    "core.hukuhara_diff.self_us",
)


def import_package():
    """Import fuzzsemi's layer modules from ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {layer: importlib.import_module(f"fuzzsemi.{layer}") for layer in LAYERS}
    return SimpleNamespace(package=sys.modules["fuzzsemi"], **mods)


def set_up(name, seed, scratch):
    """Import the package, make the input pools, run one warm-up op.

    Returns the workload, the ``perf_counter()`` reading when the warm-up
    returned, and the warm-up's error (None when it passed its check).
    """
    workload = WORKLOADS[name](import_package(), seed, scratch)
    warm = workload.op(0)
    try:
        raw, error = warm.run(), None
    except Exception as exc:  # a failing operation is counted, not fatal
        raw, error = None, exc
    done = perf_counter()
    if error is None:
        try:
            warm.check(warm.collect(raw))
        except Exception as exc:
            error = exc
    return workload, done, error


def cold_set_up(name, seed):
    """One set-up in a fresh interpreter (``coldstart.py``).

    Returns (seconds or None, error or None).
    """
    cmd = [sys.executable, str(HERE / "coldstart.py"), name, str(seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=COLD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, TimeoutError(f"cold set-up took over {COLD_TIMEOUT_S} s")
    if proc.returncode != 0:
        return None, RuntimeError(f"cold set-up exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    res = json.loads(proc.stdout.splitlines()[-1])
    return res["setup_s"], None if res["error"] is None else Miss(res["error"])


def run_op(op):
    """Time one operation; returns (seconds, output or None, error or None)."""
    t0 = perf_counter()
    try:
        raw = op.run()
    except Exception as exc:
        return perf_counter() - t0, None, exc
    elapsed = perf_counter() - t0
    try:
        out = op.collect(raw)
        op.check(out)
    except Exception as exc:
        return elapsed, None, exc
    return elapsed, out, None


def timed_run(workload, seconds):
    """Whole cycles of operations until ``seconds`` have passed.

    A cold set-up runs SETUP_REPS times, at the first cycle boundary after
    each SETUP_REPS-th of the run, so that the set-ups sample the whole run
    as the operations do.  Returns (latencies, failures, set-up times).
    """
    cycle = len(workload.cycle)
    latencies, failures, setup_times = [], [], []
    start = perf_counter()
    i = 0
    while True:
        now = perf_counter() - start
        if i % cycle == 0:
            if now >= seconds:
                break
            if now >= seconds * len(setup_times) / SETUP_REPS:
                elapsed, error = cold_set_up(workload.name, workload.seed)
                setup_times.append(elapsed)
                if error is not None:
                    failures.append((-1, workload.cycle[0] + " (cold set-up)", error))
        elif now >= MAX_OVERRUN * seconds:
            break
        op = workload.op(i)
        elapsed, _, error = run_op(op)
        latencies.append(elapsed)
        if error is not None:
            failures.append((i, op.label, error))
        i += 1
    return latencies, failures, setup_times

def run_pass(ops, tracer=None):
    """Run a fixed op list once; returns (busy seconds, digests, failures, bytes out)."""
    busy, digests, failures, nbytes = 0.0, [], [], 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_index = i
            with tracer:
                elapsed, out, error = run_op(op)
        else:
            elapsed, out, error = run_op(op)
        busy += elapsed
        if error is not None:
            failures.append((i, op.label, error))
            digests.append(b"")
            continue
        if hasattr(out, "sha"):  # CLI result: exit code and the written bytes
            nbytes += out.nbytes
            digests.append(digest((out.rc, out.sha.digest())))
        else:
            digests.append(digest(out))
    return busy, digests, failures, nbytes


def layer_metrics(tracer, nbytes) -> dict:
    """Per-layer counts and self times of one traced pass."""
    calls, self_s, extra = tracer.calls, tracer.self_s, tracer.extra
    layer_self = tracer.layer_self_s()

    def per_call_us(name):
        return 1e6 * self_s[name] / calls[name] if calls[name] else 0.0

    hd_calls = calls["core.hukuhara_diff"]
    m = {
        "cauchy.integrand_evals": extra["cauchy.integrand_evals"],
        "cauchy.solve.self_ms": 1e3 * sum(self_s[n] for n in SOLVE_SPANS),
        "cauchy.evaluate.calls": calls["cauchy.evaluate"],
        "cauchy.residual_check.self_ms": 1e3 * self_s["cauchy.residual_check"],
        "semigroup.series_apply.calls": calls["semigroup.series_apply"],
        "semigroup.series_terms": extra["semigroup.series_terms"],
        "semigroup.series_apply.self_ms": 1e3 * self_s["semigroup.series_apply"],
        "semigroup.required_order.calls": calls["semigroup.required_order"],
        "operators.applications": calls["operators.LinearOperator.__call__"],
        "spaces.elem_calls": sum(v for k, v in calls.items() if k.startswith("spaces.elem_")),
        "core.add.calls": calls["core.add"],
        "core.scalar_mul.calls": calls["core.scalar_mul"],
        "core.hukuhara_diff.calls": hd_calls,
        "core.hukuhara_diff.exist_ratio": (hd_calls - tracer.raised["core.hukuhara_diff"]) / hd_calls if hd_calls else 0.0,
        "core.distance.calls": calls["core.distance"],
        "core.validated_builds": calls["core.FuzzyNumber.__post_init__"],
        "core.endpoint_bytes": extra["core.endpoint_bytes"],
        "core.add.self_us": per_call_us("core.add"),
        "core.scalar_mul.self_us": per_call_us("core.scalar_mul"),
        "core.distance.self_us": per_call_us("core.distance"),
        "core.hukuhara_diff.self_us": per_call_us("core.hukuhara_diff"),
        "checks.run_suites.ms": 1e3 * tracer.total_s["checks.run_suites"],
        "cli.bytes_out": nbytes,
    }
    for layer in LAYERS:
        m[f"{layer}.calls"] = sum(v for k, v in calls.items() if k.split(".", 1)[0] == layer)
        m[f"{layer}.self_ms"] = 1e3 * layer_self[layer]
    return m


def unit_of(name):
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if "bytes" in name:
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    if name == "trace_overhead":
        return "x"
    return "count"


def traced_run(workload, seconds, span_path):
    ops = [workload.op(i) for i in range(TRACE_CYCLES[workload.name] * len(workload.cycle))]
    plain_busy, traced_busy, per_pass, counters = [], [], [], []
    failures, attempted, mismatches = [], 0, 0
    reference = None
    spans = None
    start = perf_counter()
    while True:
        busy, digests, fails, _ = run_pass(ops)
        plain_busy.append(busy)
        tracer = Tracer(vars(workload.fz), record_spans=spans is None)
        tbusy, tdigests, tfails, nbytes = run_pass(ops, tracer)
        traced_busy.append(tbusy)
        if spans is None:
            spans = tracer.spans
        reference = reference or digests
        mismatches += sum(a != b for a, b in zip(reference, digests)) + sum(a != b for a, b in zip(reference, tdigests))
        failures += fails + tfails
        attempted += 2 * len(ops)
        per_pass.append(layer_metrics(tracer, nbytes))
        counters.append(tracer.counters())
        if perf_counter() - start >= seconds:
            break
    _write_spans(span_path, spans)
    metrics = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        metrics[name] = values[0] if unit_of(name) in ("count", "bytes", "ratio") else statistics.median(values)
    metrics["trace_overhead"] = statistics.median(traced_busy) / statistics.median(plain_busy)
    counters_repeat = all(c == counters[0] for c in counters)
    info = {
        "traced_ops_per_pass": len(ops),
        "passes": len(per_pass),
        "counters_repeat": counters_repeat,
        "output_mismatches": mismatches,
        "spans_written": len(spans),
        "outputs_sha256": hashlib.sha256(b"".join(reference)).hexdigest(),
        "counters": len(counters[0]),
        "counters_sha256": hashlib.sha256(json.dumps(counters[0]).encode()).hexdigest(),
    }
    return metrics, attempted, failures, info


def _write_spans(path, spans):
    with open(path, "w") as fh:
        fh.write("span,parent,name,start_us,end_us,op\n")
        t_base = spans[0][3] if spans else 0.0
        for sid, parent, name, t0, t1, op in spans:
            fh.write(f"{sid},{parent},{name},{1e6 * (t0 - t_base):.3f},{1e6 * (t1 - t_base):.3f},{op}\n")


def src_line_count():
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "fuzzsemi").glob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "fuzzsemi" / "__init__.py").is_file():
        print(f"perfbench: no fuzzsemi package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload, _, warm_error = set_up(args.workload, args.seed, scratch)
        if args.trace:
            span_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
            metrics, attempted, failures, info = traced_run(workload, args.seconds, span_path)
        else:
            latencies, failures, setup_times = timed_run(workload, args.seconds)
            attempted = len(latencies) + len(setup_times)
            setup_times = [t for t in setup_times if t is not None]
            if not setup_times:
                print("perfbench: no cold set-up completed", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted += 1  # the warm-up
    if warm_error is not None:
        failures.insert(0, (-1, workload.op(0).label + " (warm-up)", warm_error))
    failed = len(failures)
    correct = failed == 0

    print(f"workload={args.workload} seed={args.seed}: {LEVELS} membership panels ({LEVELS + 1} levels), "
          f"{workload.size}; closed loop, 1 client, 1 thread")
    print(f"cycle of {len(workload.cycle)} op classes: {', '.join(workload.cycle)}")
    for i, label, error in failures[:FAILURES_SHOWN]:
        print(f"FAILED op {i} [{label}]: {type(error).__name__}: {error}")
    if args.trace:
        correct = correct and info["counters_repeat"] and info["output_mismatches"] == 0
        print(f"traced: {info['passes']} pass pairs of {info['traced_ops_per_pass']} ops; "
              f"counters repeat: {info['counters_repeat']}; outputs differing under tracing: "
              f"{info['output_mismatches']}; spans written: {info['spans_written']}")
        print(f"outputs_sha256 = {info['outputs_sha256']}")
        print(f"counters_sha256 = {info['counters_sha256']} (all {info['counters']} per-function counters)")
        print("no layer waits on another (one thread); self times are span minus child spans")
        for k in PRINTED_ONLY:
            print(f"{k} = {metrics.pop(k):.6g} {unit_of(k)}")
        out = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    else:
        lat_ms = [1e3 * x for x in latencies]
        p50 = statistics.median(lat_ms)
        p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[-1]
        values = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "op_ms.p50": (p50, "ms"),
            "op_ms.p90": (p90, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        out = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        for k, (v, u) in values.items():
            print(f"{k} = {v:.6g} {u}")
        print(f"op samples = {len(lat_ms)}, above p90 = {sum(x > p90 for x in lat_ms)}; "
              f"cold set-ups = {len(setup_times)}")
        print(f"fail_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"src_lines = {src_line_count()} (informational, ungated)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
