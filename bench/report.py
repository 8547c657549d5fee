"""Print every benchmark metric, per workload, with its output-check verdict.

    python3 bench/report.py [--workload W ...] [--seeds N] [--first-seed S]
                            [--trace-seeds K] [--seconds S]

Runs ``bench/run.py`` from the root of the checkout, one run at a time:
untraced on N seeds (end-to-end metrics) and traced on K of them
(per-layer metrics), for each workload named in ``BENCHMARK.json`` or
given with ``--workload``.  For every metric it prints the unit and the
median and quartiles over the runs; for end-to-end metrics also the spread
(quartile distance over median) next to the bound from ``BENCHMARK.json``.
The summary is written to ``bench/out/report.json`` as well.  Exits 1 if
any run failed, produced no result, or reported an incorrect output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return None, None
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-seeds", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]

    ok = True
    rows, verdicts, provenance = [], [], None
    for name in names:
        for trace, count, metrics in ((0, args.seeds, spec["end_to_end"]),
                                      (1, args.trace_seeds, spec["per_layer"])):
            values = {m["name"]: [] for m in metrics}
            for seed in range(args.first_seed, args.first_seed + count):
                record, result = run_once(name, seed, args.seconds, trace)
                if result is None:
                    ok = False
                    verdicts.append(f"{name} seed={seed} trace={trace}: "
                                    "no result")
                    continue
                provenance = provenance or record["provenance"]
                ok &= result["correct"]
                verdicts.append(
                    f"{name} seed={seed} trace={trace}: "
                    f"{'correct' if result['correct'] else 'INCORRECT'}, "
                    f"{result['attempted']} attempted, {result['failed']} "
                    f"failed; input {json.dumps(record['input_summary'])}"
                    + (f"; tail at p{record['latency']['tail_percentile']:.1f}"
                       if record["latency"] and
                       record["latency"]["tail_percentile"] else ""))
                for m in metrics:
                    got = result["metrics"].get(m["name"])
                    if got is None:
                        ok = False
                        verdicts.append(f"  missing metric {m['name']}")
                    else:
                        values[m["name"]].append(got["value"])
            for m in metrics:
                vals = values[m["name"]]
                if not vals:
                    continue
                q1, med, q3 = quartiles(vals)
                rows.append({
                    "metric": m["name"], "unit": m["unit"], "workload": name,
                    "runs": len(vals), "median": med, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / med if med else None,
                    "bound": m.get("bound")})

    print(f"provenance: {json.dumps(provenance)}")
    header = ("metric", "unit", "workload", "runs", "median", "q1", "q3",
              "spread", "bound")
    print("  ".join(header))
    for row in rows:
        print("  ".join(
            f"{row[k]:.6g}" if isinstance(row[k], float) else
            ("-" if row[k] is None else str(row[k])) for k in header))
    print("output checks:")
    for line in verdicts:
        print("  " + line)
    print("verdict:", "all outputs correct" if ok else "FAILED")
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "report.json").write_text(json.dumps(
        {"provenance": provenance, "metrics": rows, "checks": verdicts,
         "ok": ok}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
