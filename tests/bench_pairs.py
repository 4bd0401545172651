"""Run alternating parent/change pairs of the benchmark and judge a claimed gain.

    python3 tests/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --seeds 101 102 ... 110 [--claim desk-eg/cold_start_tick_ms_p50] \\
        --out BENCH_<n>.json

PARENT_DIR and CHANGE_DIR are two checkouts of the repository whose benchmark
(BENCHMARK.json and the directories it lists as paths) must be identical. For
every workload of BENCHMARK.json, pair k runs `python3 swarmbench/run.py
--workload W --seed S --seconds T --trace 0` once in each checkout, T being
BENCHMARK.json's run_seconds, with the k-th seed on both sides; the parent
runs first in odd pairs and the change first in even ones. Runs are
sequential. A run that exits non-zero stops the script.

The script first runs `python3 tests/episode_digest.py --out` in each
checkout. The output file holds the `workloads`, `claim` and `no_regression`
sections of the swarmcoord-bench/1 layout, plus the command, the machine,
the order of the runs and a `digest` section. The machine record is run.py's
plus `openblas_core`, the OpenBLAS kernel as episode_digest names it. The
digest section gives, per DESK episode, the largest absolute difference
between the two dumps and whether they are bitwise equal. The digest only
reports; a difference does not stop the pairs.

compare() is the verdict: a claimed gain needs the change to win at least
nine tenths of the pairs (ties count for neither side), and the medians to
differ in its favour by more than the distance between the parent's
quartiles; every other metric's median may be worse than the parent's by at
most the relative bound of BENCHMARK.json.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import episode_digest

FORMAT = "swarmcoord-bench/1"
RUN = ["swarmbench/run.py", "--workload", "{workload}", "--seed", "{seed}",
       "--seconds", "{seconds}", "--trace", "0"]
DIGEST = ["tests/episode_digest.py", "--out", "{out}"]


def compare(parent, change, better, bound):
    """Pair-by-pair verdict on one metric; parent[k] and change[k] are pair k.

    relative_change is (change median - parent median) / parent median.
    claim_met: the change wins at least 9 of 10 pairs and beats the parent's
    median by more than the parent's interquartile distance. within_bound:
    the change's median is worse than the parent's by at most `bound`,
    relative. resolved: the parent's own interquartile distance is within
    the bound, every change run reads better than every parent run, or
    every pair reads exactly equal (relative_change is then 0).
    """
    parent, change = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    if parent.shape != change.shape or parent.ndim != 1 or parent.size == 0:
        raise ValueError("parent and change need one value per pair")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    # signed so that lower is better on both sides
    sign = 1.0 if better == "lower" else -1.0
    p, c = sign * parent, sign * change
    p_med, c_med = float(np.median(parent)), float(np.median(change))
    p_q = [float(q) for q in np.percentile(parent, [25, 75])]
    c_q = [float(q) for q in np.percentile(change, [25, 75])]
    spread = p_q[1] - p_q[0]
    if p_med:
        rel = (c_med - p_med) / abs(p_med)
    else:
        rel = 0.0 if c_med == 0 else np.copysign(np.inf, c_med)
    wins, losses = int(np.sum(c < p)), int(np.sum(c > p))
    return {
        "parent_median": p_med, "change_median": c_med,
        "parent_quartiles": p_q, "change_quartiles": c_q,
        "relative_change": float(rel),
        "change_wins": wins, "change_losses": losses, "pairs": int(parent.size),
        "claim_met": bool(wins >= 0.9 * parent.size and sign * (p_med - c_med) > spread),
        "within_bound": bool(sign * rel <= bound),
        "resolved": bool(spread <= bound * abs(p_med) or c.max() < p.min()
                         or np.array_equal(p, c)),
    }


def benchmark_files(checkout, spec):
    """{relative path: bytes} of BENCHMARK.json and every file under its paths."""
    root = Path(checkout)
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for top in spec["paths"]:
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                files[str(path.relative_to(root))] = path.read_bytes()
    return files


def run_once(checkout, workload, seed, seconds):
    """(info, result) of one untraced run.py in `checkout`."""
    cmd = [sys.executable] + [a.format(workload=workload, seed=seed, seconds=seconds)
                              for a in RUN]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n"
                           f"{proc.stderr.strip()}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_pairs(parent, change, workload, seeds, seconds, log=sys.stderr):
    """The pair records, each side's per-pair results and the machine info."""
    pairs, results = [], {"parent": [], "change": []}
    for k, seed in enumerate(seeds, start=1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        record = {"pair": k, "seed": seed, "first": order[0]}
        for side in order:
            info, result = run_once(parent if side == "parent" else change,
                                    workload, seed, seconds)
            results[side].append(result)
            record.update({f"{side}_failed": result["failed"],
                           f"{side}_attempted": result["attempted"],
                           f"{side}_correct": result["correct"]})
        pairs.append(record)
        print(f"{workload} pair {k} (seed {seed}) done", file=log, flush=True)
    return pairs, results, {**info["machine"], "openblas_core": episode_digest.openblas_core()}


def run_digest(checkout, out):
    """Dump `checkout`'s DESK episodes to `out` with that checkout's episode_digest.py."""
    cmd = [sys.executable] + [a.format(out=out) for a in DIGEST]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n"
                           f"{proc.stderr.strip()}")


def digest_section(parent_npz, change_npz):
    """The `digest` section from the parent's and the change's dumps."""
    episodes = {ep: {"max_abs_diff": worst, "bitwise_equal": equal} for ep, (worst, equal)
                in episode_digest.differences(parent_npz, change_npz).items()}
    return {"command": "python3 " + " ".join(DIGEST).format(out="<file>.npz"),
            "episodes": episodes,
            "bitwise_equal": bool(episodes) and all(e["bitwise_equal"]
                                                    for e in episodes.values())}


def workload_section(pairs, results, specs):
    metrics = {}
    for spec in specs:
        name = spec["name"]
        sides = {side: [r["metrics"][name]["value"] for r in results[side]]
                 for side in ("parent", "change")}
        metrics[name] = {"unit": spec["unit"], "bound": spec["bound"],
                         "better": spec["better"], **sides,
                         **compare(sides["parent"], sides["change"], spec["better"],
                                   spec["bound"])}
    failed = {side: f"{sum(r['failed'] for r in results[side])}/"
                    f"{sum(r['attempted'] for r in results[side])}"
              for side in ("parent", "change")}
    return {"pairs": pairs, "metrics": metrics, "failed_over_attempted": failed}


def report(workloads, claim, seconds, machine, digest):
    """The swarmcoord-bench/1 sections from {workload: workload_section},
    plus the digest section."""
    out = {"format": FORMAT,
           "command": "python3 " + " ".join(RUN).format(workload="<workload>",
                                                        seed="<seed>", seconds=seconds),
           "method": "alternating pairs from tests/bench_pairs.py: one seed per pair, the "
                     "same seed on both sides, the parent first in odd pairs; sequential runs",
           "machine": machine,
           "workloads": workloads}
    if claim:
        workload, metric = claim.split("/", 1)
        m = workloads[workload]["metrics"][metric]
        out["claim"] = {"metric": metric, "workload": workload, "unit": m["unit"],
                        "parent_median": m["parent_median"],
                        "change_median": m["change_median"],
                        "parent_quartile_distance": m["parent_quartiles"][1]
                        - m["parent_quartiles"][0],
                        "relative_change": m["relative_change"],
                        "change_wins": m["change_wins"], "pairs": m["pairs"],
                        "met": m["claim_met"]}
    out["no_regression"] = {
        "how": "change median against parent median for every other end-to-end metric and "
               "workload, against the relative bound of BENCHMARK.json; resolved when the "
               "parent's interquartile distance is within the bound, every change run "
               "reads better than every parent run, or every pair reads exactly equal"}
    for workload, section in workloads.items():
        for metric, m in section["metrics"].items():
            if f"{workload}/{metric}" != claim:
                out["no_regression"][f"{workload}/{metric}"] = {
                    key: m[key] for key in ("relative_change", "bound", "within_bound",
                                            "resolved")}
    out["digest"] = digest
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help="one benchmark seed per pair")
    parser.add_argument("--claim", help="WORKLOAD/METRIC whose gain is claimed")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    if benchmark_files(args.parent, spec) != benchmark_files(args.change, spec):
        parser.error("the two checkouts run different benchmark code or settings")
    names = [w["name"] for w in spec["workloads"]]
    if args.claim:
        workload, _, metric = args.claim.partition("/")
        if workload not in names or metric not in {m["name"] for m in spec["end_to_end"]}:
            parser.error(f"--claim {args.claim} names no benchmark workload and metric")
    seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory() as tmp:
        dumps = [str(Path(tmp) / f"{side}.npz") for side in ("parent", "change")]
        for checkout, dump in zip((args.parent, args.change), dumps):
            run_digest(checkout, dump)
        digest = digest_section(*dumps)
    print(f"digest: {'bitwise equal' if digest['bitwise_equal'] else 'DIFFERENT'}",
          file=sys.stderr, flush=True)
    workloads = {}
    for name in names:
        pairs, results, machine = run_pairs(args.parent, args.change, name, args.seeds,
                                            seconds)
        workloads[name] = workload_section(pairs, results, spec["end_to_end"])
    with open(args.out, "w") as fh:
        json.dump(report(workloads, args.claim, seconds, machine, digest), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
