"""Closed-loop swarm benchmark entry point.

One workload:
    python3 swarmbench/run.py --workload desk-oracle --seed 1 --seconds 45 --trace 0

prints an info line (machine, sample counts) and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
It exits non-zero when an output check fails.

Everything:
    python3 swarmbench/run.py --all [--out swarmbench/baseline_seed.json]

runs every workload untraced and traced, each in its own process, and prints
each metric with its unit and sample count.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# The closed-loop trajectory depends on the BLAS thread count, so it is pinned
# before numpy loads; one thread is also the fastest setting on small QPs.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import bench  # noqa: E402  (after the pin)

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent / "BENCHMARK.json"


def load_spec():
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def result_line(values, specs, attempted, failed):
    """The result object of a run whose checks passed; metric names must be exactly `specs`."""
    names = [s["name"] for s in specs]
    if set(values) != set(names):
        raise KeyError(f"computed metrics {sorted(values)} differ from {names}")
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_workload(name, seed, seconds, trace, out=sys.stdout):
    """Measure one workload; returns the process exit code."""
    bench.quiet_fallback_warnings()
    spec = load_spec()
    wl = bench.WORKLOADS[name]
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "machine": bench.machine_info()}
    try:
        start = perf_counter()
        ref = bench.Reference()
        setup, setup_ms = bench.timed_set_up(wl, ref)
        if trace:
            tracer, traced = bench.traced_pass(wl, setup, seed)
        # --seconds covers the whole run: the set-up block and any traced pass too
        m = bench.measure(wl, setup, seed, seconds - (perf_counter() - start), ref)
        if trace:
            values, counts = bench.per_layer(tracer, traced, m)
            specs = spec["per_layer"]
        else:
            values, counts = bench.end_to_end(setup_ms, m)
            specs = spec["end_to_end"]
    except bench.CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 1
    info.update(episodes=len(m.timings), agent_ticks=len(m.loop.samples), samples=counts)
    print(json.dumps(info), file=out)
    print(json.dumps(result_line(values, specs, m.attempted, m.failed)), file=out)
    return 0


def run_all(seed, seconds, out_path):
    """Every workload untraced and traced, one process each; prints a table."""
    results, ok = [], True
    for name in bench.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                ok = False
                print(f"{name} trace={trace}: FAILED (exit {proc.returncode})\n"
                      f"{proc.stderr.strip()}")
                continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            results.append({"info": info, "result": result})
            print(f"\n{name} trace={trace}: {info['episodes']} episodes, "
                  f"{info['agent_ticks']} untraced agent-ticks, "
                  f"{result['failed']}/{result['attempted']} plan calls fell back")
            for metric, m in result["metrics"].items():
                print(f"  {metric:42s} {m['value']:>14.6g} {m['unit']:8s} "
                      f"n={info['samples'][metric]}")
    if results:
        print("\nmachine: " + json.dumps(results[0]["info"]["machine"]))
    if out_path:
        with open(out_path, "w") as fh:
            json.dump({"seed": seed, "seconds": seconds, "runs": results}, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--out", help="with --all: write the collected results here")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds, args.out)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
