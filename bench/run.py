"""Run one workload of the circtrees benchmark once and print its metrics.

    python3 bench/run.py --workload {sweep,large_order,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is taken from ``src/`` of
that checkout.  Inputs are generated from the seed before anything is
timed.  The workload runs as a closed loop with one client and no worker
threads: one operation after another, in whole passes, for about S
seconds of operation time.  Every output is checked afterwards by
:mod:`checks`, which does not use circtrees.

Times are scaled to a reference machine speed measured alongside them
(see ``speed_factor``); the unscaled figures are kept in the run record.
With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` the run is split in two halves over the same inputs, the
first untraced and the second traced by :mod:`tracer`, and the result
holds the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the input summary, the tail percentile, the unscaled figures and
the provenance of the run; both are also written to ``bench/out/``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 11
CLI_KINDS = ("tau", "verify", "asymptote", "mahler", "sequence", "decompose")
# The speed of shared hosts drifts by tens of percent within seconds, and
# runs of the benchmark cannot be compared unless their times are put on a
# common scale.  A fixed pure-Python kernel (bytecode plus big-integer
# arithmetic, like the program) is timed at least every RECALIBRATE_S of
# operation time, and each time is multiplied by KERNEL_REFERENCE_S over
# the kernel's current time: it is stated at the speed at which the kernel
# takes KERNEL_REFERENCE_S.  Unscaled figures are kept in the run record.
KERNEL_STEPS = 220
KERNEL_MODULUS = (1 << 1021) - 1
KERNEL_REFERENCE_S = 0.001
RECALIBRATE_S = 0.05


@dataclass
class Record:
    op: object
    latency: float
    scaled: float
    out: object
    error: str = None
    ok: bool = False


def _kernel():
    x, acc = 3, 0
    for i in range(KERNEL_STEPS):
        x = (x * x + i) % KERNEL_MODULUS
        acc += x & 0xFF
    return acc


def speed_factor():
    """KERNEL_REFERENCE_S over the kernel's time now, best of three."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return KERNEL_REFERENCE_S / best


def measure(workload, rng, seconds, call):
    """Run whole passes until the next would pass ``seconds`` of op time.

    Only the program calls are timed; inputs are generated and the speed
    factor is measured between them.  At least one pass always runs.
    """
    records, busy, last_pass = [], 0.0, 0.0
    factor, since = speed_factor(), 0.0
    while not records or busy + last_pass <= seconds:
        last_pass = 0.0
        for op in workload.make_pass(rng):
            if since >= RECALIBRATE_S:
                factor, since = speed_factor(), 0.0
            index = len(records)
            start = time.perf_counter()
            try:
                out, error = call(index, op), None
            except Exception as exc:  # a failed operation, counted as such
                out, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            records.append(Record(op, latency, factor * latency, out, error))
            last_pass += latency
            since += latency
        busy += last_pass
    return records


def check_all(workload, residue, records):
    for r in records:
        if r.error is not None:
            continue
        try:
            r.ok = bool(workload.check(residue, r.op, r.out))
        except Exception as exc:  # malformed output fails its check
            r.error = f"check raised {type(exc).__name__}: {exc}"
        if not r.ok and r.error is None:
            r.error = "output check failed"


def setup_seconds(env, module):
    """Median time of a fresh interpreter importing ``module``: scaled, raw."""
    cmd = [sys.executable, "-c", f"import {module}"]
    subprocess.run(cmd, env=env, check=True)  # compiles the bytecode once
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        factor = speed_factor()
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        raw.append(time.perf_counter() - start)
        scaled.append(factor * raw[-1])
    return statistics.median(scaled), statistics.median(raw)


def input_summary(workload, records):
    seen, repeats = set(), 0
    for r in records:
        key = (r.op.steps, r.op.diagonal)
        repeats += key in seen
        seen.add(key)
    bits = [t.bit_length() for r in records if r.ok
            for t in workload.taus(r.out)]
    return {
        "operations": len(records),
        "distinct_step_families": len(seen),
        "repeat_share": repeats / len(records),
        "max_vertices": max((r.op.max_vertices for r in records
                             if r.op.orders), default=0),
        "max_tau_bits": max(bits, default=0),
    }


def provenance():
    import mpmath
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "circtrees").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "commit": commit or None,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def latency_metrics(latencies):
    """ops_per_s, op_p50_ms and op_tail_ms of a list of latencies."""
    lat = sorted(latencies)
    tail = max(len(lat) - 11, 0)  # ten operations lie beyond this one
    return {"ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": 1000 * statistics.median(lat),
            "op_tail_ms": 1000 * lat[tail]}


def run_untraced(workload, seed, seconds, env):
    if workload.name == "cli":
        setup, raw_setup = setup_seconds(env, "circtrees.cli")
    else:
        setup, raw_setup = setup_seconds(env, "circtrees")
        warm = workload.make_pass(random.Random(f"warm-up {seed}"))
        for op in warm[:2]:
            workload.run(op)
    records = measure(workload, random.Random(seed), seconds,
                      lambda i, op: workload.run(op))
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" \
        else resource.RUSAGE_SELF
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}
    metrics = {name: (value, units[name]) for name, value
               in latency_metrics([r.scaled for r in records]).items()}
    metrics["setup_s"] = (setup, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024, "MB")
    n = len(records)
    info = {"latency_samples": n,
            "tail_percentile": 100 * (n - 10) / n if n > 10 else None,
            "unscaled": dict(latency_metrics([r.latency for r in records]),
                             setup_s=raw_setup),
            "speed_factor_median": statistics.median(
                r.scaled / r.latency for r in records)}
    return records, metrics, info


def run_traced(workload, seed, seconds, env):
    """Untraced half, then traced half over the same inputs."""
    import tracer
    if workload.name == "cli":
        subprocess.run([sys.executable, "-c", "import circtrees.cli"],
                       env=env, check=True)
    half = seconds / 2
    plain = measure(workload, random.Random(seed), half,
                    lambda i, op: workload.run(op))
    spans, startups = [], []
    if workload.name == "cli":
        traced_cli = type(workload)(prefix=(str(BENCH / "trace_child.py"),))

        def call(index, op):
            path = OUT / f"spans-child-{os.getpid()}.jsonl"
            child_env = dict(env, BENCH_SPANS=str(path), BENCH_OP=str(index))
            spawned = time.time()
            out = traced_cli.run(op, child_env)
            header, child_spans = tracer.load(path)
            path.unlink()
            offset = len(spans)
            spans.extend((name, start, end, parent + offset if parent >= 0
                          else -1, op_index, attr)
                         for name, start, end, parent, op_index, attr
                         in child_spans)
            startups.append(header["ready"] - spawned)
            return out
    else:
        tr = tracer.Tracer()
        spans = tr.spans

        def call(index, op):
            tr.op = index
            return workload.run(op)

        tr.install()
    try:
        traced = measure(workload, random.Random(seed), half, call)
    finally:
        if workload.name != "cli":
            tr.uninstall()
    tracer.write_spans(OUT / f"spans-{workload.name}-seed{seed}.jsonl", spans)
    metrics = tracer.layer_metrics(spans, len(traced))
    metrics["cli.startup_s"] = (
        statistics.median(startups) if startups else 0.0, "s")
    for kind in CLI_KINDS:
        lat = [r.scaled for r in plain if r.op.kind == kind]
        metrics[f"cli.{kind}.s"] = (statistics.median(lat) if lat else 0.0, "s")
    metrics["trace.overhead"] = (
        latency_metrics([r.scaled for r in traced])["ops_per_s"]
        / latency_metrics([r.scaled for r in plain])["ops_per_s"], "ratio")
    return plain, traced, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "circtrees" / "__init__.py").is_file():
        print(f"bench: no circtrees package at {SRC}", file=sys.stderr)
        return 2
    # numpy reads this when first imported; the load stays single-threaded
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ.pop("CIRC_ORACLE_CEILING", None)
    sys.path.insert(0, str(SRC))
    import circtrees
    if Path(circtrees.__file__).resolve().parent != SRC / "circtrees":
        print(f"bench: imported circtrees from {circtrees.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import checks
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    workload = workloads.WORKLOADS[args.workload]()
    if args.workload == "cli":
        workload.env = env
    residue = checks.ResidueCheck()

    info = None
    if args.trace:
        plain, traced, metrics = run_traced(workload, args.seed, args.seconds,
                                            env)
        records = plain + traced
    else:
        plain, metrics, info = run_untraced(workload, args.seed, args.seconds,
                                            env)
        records = plain
    check_all(workload, residue, records)
    failed = [r for r in records if not r.ok]

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "latency": info,
        "input_summary": input_summary(workload, plain),
        "failures": [{"op": r.op.argv or [r.op.family, r.op.steps,
                                          r.op.orders], "error": r.error}
                     for r in failed[:10]],
        "provenance": provenance(),
    }
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if not args.trace:
        ok = len(records) - len(failed)
        result["metrics"]["ops_ok_share"] = {"value": ok / len(records),
                                             "unit": "ratio"}
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"record": record, "result": result, "operations": [
            {"kind": r.op.kind, "steps": r.op.steps, "family": r.op.family,
             "orders": r.op.orders, "argv": r.op.argv,
             "latency_s": r.latency, "scaled_s": r.scaled, "ok": r.ok}
            for r in plain]}, fh)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
