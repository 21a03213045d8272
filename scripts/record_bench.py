#!/usr/bin/env python3
"""Record a BENCH_<n>.json file at the repo root.

    python3 scripts/record_bench.py --n 7 --seeds 901,902 --parent ../parent-checkout

Runs ``perfbench/run.py --workload all --seed <s>`` once per seed, from this
checkout and from the --parent checkout it is compared against, alternating
which side goes first.  The file keeps both sides' end-to-end metrics per
seed with their medians and quartiles, how many seeds the change won on
each metric, a verdict per metric against its bound in BENCHMARK.json
(see ``verdict``), the environment lines the benchmark prints, both git
SHAs and the wall time of the tier-1 suite (``python -m pytest -q`` over
tests/, BLAS pinned to one thread).  It refuses to overwrite an existing
BENCH file or to compare this checkout against itself.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(checkout):
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def run_benchmark(checkout, seed):
    """One ``--workload all`` run; returns (result JSON, env lines)."""
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", "all",
            "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"benchmark failed in {checkout} at seed {seed} "
                 f"(exit {proc.returncode})")
    env = {}
    for line in lines[:-1]:
        workload, _, rest = line.partition("] ")
        if rest.startswith("env "):
            env[workload.lstrip("[")] = json.loads(rest[4:])
    return json.loads(lines[-1]), env


def summarize(per_seed, units):
    """Median and quartiles of every metric over the seeds."""
    out = {}
    for name, unit in units.items():
        values = [run["metrics"][name] for run in per_seed]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": median, "q1": q1, "q3": q3, "unit": unit}
    return out


def wins(change, parent, better):
    """Seeds on which the change is better than the parent."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * c < sign * p for c, p in zip(change, parent))


def verdict(change, parent, better, bound):
    """Verdict on one metric from its per-seed values, paired by seed.

    gain: the change wins at least 9 in 10 pairs and its median beats the
    parent's by more than the parent's quartile distance.  worse: its
    median is worse than the parent's by more than bound (relative).
    unresolved: the parent's quartile distance over its median exceeds
    bound, unless every change run beats every parent run.  Else flat.
    """
    won = wins(change, parent, better)
    if better == "higher":
        change, parent = [-x for x in change], [-x for x in parent]
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gap = median - statistics.median(change)
    if 10 * won >= 9 * len(parent) and gap > q3 - q1:
        return "gain"
    if -gap > bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and max(change) >= min(parent):
        return "unresolved"
    return "flat"


def tier1_wall():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               **{var: "1" for var in THREAD_VARS})
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "--continue-on-collection-errors", "-p", "no:cacheprovider"],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=False)
    seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"seconds": round(seconds, 1), "exit_code": proc.returncode,
            "summary": lines[-1] if lines else "",
            "failed": [line for line in lines if line.startswith("FAILED")]}


def output_path(n, parent):
    """Path of BENCH_<n>.json; exits if that file exists or parent is this
    checkout."""
    path = ROOT / f"BENCH_{n}.json"
    if path.exists():
        sys.exit(f"{path.name} already exists; pick another --n")
    if Path(parent).resolve() == ROOT:
        sys.exit("--parent must be another checkout, not this one")
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", required=True, type=int, help="the N of BENCH_<N>.json")
    parser.add_argument("--seeds", required=True,
                        help="comma-separated benchmark seeds, one run each")
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the commit this one is compared against")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    path = output_path(args.n, args.parent)
    sides = {"change": ROOT, "parent": args.parent.resolve()}
    if len(seeds) < 2:
        sys.exit("need at least two seeds for quartiles")
    specs = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())
             ["end_to_end"]}

    runs = {side: [] for side in sides}
    env = units = None
    for k, seed in enumerate(seeds):
        order = list(sides) if k % 2 == 0 else list(sides)[::-1]
        for side in order:
            print(f"seed {seed}: {side}", flush=True)
            result, run_env = run_benchmark(sides[side], seed)
            runs[side].append({
                "seed": seed, "ran_first": side == order[0],
                "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            })
            if side == "change" and env is None:
                env = run_env
                units = {name: m["unit"] for name, m in result["metrics"].items()}

    def values(side, name):
        return [run["metrics"][name] for run in runs[side]]

    def spec(name):
        # "<workload>.<metric>"
        return specs[name.rpartition(".")[2]]

    bench = {
        "bench": args.n,
        "command": "python3 perfbench/run.py --workload all --seed <seed>",
        "environment": env,
        "seeds": seeds,
        "change": {"git_sha": git_sha(ROOT), "per_seed": runs["change"],
                   "summary": summarize(runs["change"], units)},
        "parent": {"git_sha": git_sha(sides["parent"]), "per_seed": runs["parent"],
                   "summary": summarize(runs["parent"], units)},
        "change_wins": {
            name: wins(values("change", name), values("parent", name), spec(name)["better"])
            for name in units
        },
        "verdicts": {
            name: verdict(values("change", name), values("parent", name),
                          spec(name)["better"], spec(name)["bound"])
            for name in units
        },
    }
    print("tier-1 suite", flush=True)
    bench["tier1"] = tier1_wall()
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
