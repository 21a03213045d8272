#!/usr/bin/env python3
"""fisgan benchmark: end-to-end timings of the CLI, or a traced per-layer run.

    python3 perfbench/run.py --workload glyphs-fis --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3

Untraced runs (--trace 0) drive ``fisgan train``/``ablate``/``eval`` through
``cli.main`` in this process and report the end-to-end metrics.  Traced
runs (--trace 1) alternate an untraced round with a round in which every
public function of fisgan's modules is wrapped by ``tracer.Tracer``, and
report per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One BLAS thread; set in main() before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("glyphs-fis", "glyphs-baseline", "ring-ablate")

END_TO_END = {"setup_s": "s", "run_s": "s", "iter_ms": "ms", "eval_ms": "ms",
              "peak_rss_mb": "MB"}

LAYER_MODULES = ("cli", "config", "data", "train", "nn", "norms", "importance",
                 "flows", "linalg", "metrics", "checkpoint")
FLOW_KINDS = ("realnvp", "maf", "iaf")
NORM_KINDS = ("frobenius", "nuclear")

# Before each untraced round the set-up op is repeated until this many
# seconds have passed (at least once), so its samples span the whole run
# like the other timings do; the median of all of them is reported.
SETUP_SECONDS_PER_ROUND = 0.6

# span name -> statistics reported for it (per traced round)
PER_LAYER = [
    ("train.adversarial_step", ("calls", "ms_p50", "ms_p95")),
    ("train.flow_refresh", ("calls", "ms_p50", "skipped")),
    ("train.evaluate", ("calls", "ms_p50")),
    ("train.build_eval_context", ("calls", "self_ms")),
    ("nn.forward", ("calls", "self_ms", "mflop")),
    ("nn.backward", ("calls", "self_ms", "mflop")),
    ("nn.jacobian_batch", ("calls", "self_ms")),
    ("nn.adam_step", ("calls", "self_ms")),
    *[(f"norms.batch_norms.{k}", ("calls", "self_ms", "total_ms")) for k in NORM_KINDS],
    ("importance.build_flow_dataset", ("calls", "self_ms")),
    *[(f"flows.fit.{k}", ("calls", "self_ms", "total_ms")) for k in FLOW_KINDS],
    *[(f"flows.sample.{k}", ("calls", "rows", "self_ms", "total_ms")) for k in FLOW_KINDS],
    *[(f"flows.build_flow.{k}", ("self_ms",)) for k in FLOW_KINDS],
    *[(f"linalg.{f}", ("calls", "self_ms")) for f in ("sym_eig", "sqrtm_psd", "singular_values")],
    *[(f"metrics.{f}", ("calls", "self_ms")) for f in ("fit_extractor", "proxy_fid", "frechet_distance")],
    ("config.build_dataset", ("calls", "self_ms")),
    *[(f"data.{f}", ("calls", "self_ms")) for f in ("load_idx", "downsample", "write_image_grid")],
    ("checkpoint.save_checkpoint", ("calls", "self_ms", "bytes")),
    ("checkpoint.load_checkpoint", ("calls", "self_ms")),
]
UNITS = {"calls": "count", "skipped": "count", "rows": "count", "bytes": "bytes",
         "ms_p50": "ms", "ms_p95": "ms", "self_ms": "ms", "total_ms": "ms",
         "mflop": "MFLOP-computed"}


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = [(f"{span}.{stat}", UNITS[stat]) for span, stats in PER_LAYER for stat in stats]
    names += [(f"layer.{m}.self_ms", "ms") for m in LAYER_MODULES]
    return names + [("trace.overhead_s", "s")]


def _import_program():
    """Import fisgan from this checkout's src/, or exit 2 if it is not there."""
    src = ROOT / "src"
    needed = [src / "fisgan" / "__init__.py", ROOT / "configs" / "glyphs8x8.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"benchmark: program sources missing: {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import fisgan

    if src.resolve() not in Path(fisgan.__file__).resolve().parents:
        print(f"benchmark: fisgan imported from {fisgan.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fisgan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _timed_setup(workloads, experiment, seed):
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < SETUP_SECONDS_PER_ROUND:
        samples.append(workloads.time_setup(experiment, seed))
    return samples


def _run_rounds(wl, experiment, seed, seconds, work, trace):
    """Rounds until the next one would end past ``seconds`` (at least one;
    in trace mode, at least one untraced and one traced round).  Untraced
    runs time the set-up op before each round; returns (rounds, set-up
    samples, span stats, last tracer)."""
    import workloads
    from tracer import SpanStats, Tracer

    modules = {m: importlib.import_module(f"fisgan.{m}") for m in LAYER_MODULES}
    rounds, setup, stats, last_tracer = [], [], SpanStats(), None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if not trace:
            setup += _timed_setup(workloads, experiment, seed)
        traced = trace and len(rounds) % 2 == 1
        round_dir = str(work / f"round{len(rounds)}")
        if traced:
            last_tracer = Tracer()
            last_tracer.install(modules)
            with last_tracer:
                rnd = workloads.run_round(wl, experiment, seed, round_dir, traced=True)
            stats.add(last_tracer)
        else:
            rnd = workloads.run_round(wl, experiment, seed, round_dir)
        workloads.check_against(rounds[0] if rounds else rnd, rnd)
        rounds.append(rnd)
        shutil.rmtree(round_dir, ignore_errors=True)
        took = time.perf_counter() - began
        paired = not trace or len(rounds) % 2 == 0
        if paired and time.perf_counter() - start + took > seconds:
            return rounds, setup, stats, last_tracer


def _median(values):
    """Median of the finite values (a round whose runs all failed has no
    iter_ms); 0.0 when there are none, so the result line stays JSON."""
    finite = [v for v in values if math.isfinite(v)]
    return (statistics.median(finite) if finite else 0.0), len(finite)


def _end_to_end(rounds, setup):
    plain = [r for r in rounds if not r.traced]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": _median(setup),
        "run_s": _median([r.run_s for r in plain]),
        "iter_ms": _median([r.iter_ms for r in plain]),
        "eval_ms": _median([ms for r in plain for ms in r.eval_ms]),
        "peak_rss_mb": (peak_kb / 1024.0, 1),
    }
    return {name: (_metric(values[name][0], unit), values[name][1])
            for name, unit in END_TO_END.items()}


def _per_layer(rounds, stats, layers):
    plain = statistics.median(r.run_s for r in rounds if not r.traced)
    traced = statistics.median(r.run_s for r in rounds if r.traced)
    skipped = stats.errors.get("importance.build_flow_dataset", {}).get("DegenerateBatchError", 0)
    values = {}
    for span, stat_names in PER_LAYER:
        for stat in stat_names:
            if stat in ("ms_p50", "ms_p95"):
                value = stats.percentile_ms(span, float(stat[4:]))
            elif stat == "skipped":
                value = skipped / max(1, stats.rounds)
            else:
                value = stats.per_round(span, stat)
            values[f"{span}.{stat}"] = value
    for module in LAYER_MODULES:
        values[f"layer.{module}.self_ms"] = layers.get(module, 0.0)
    values["trace.overhead_s"] = traced - plain
    return {name: _metric(values[name], unit) for name, unit in per_layer_names()}


def run_workload(name, seed, seconds, trace):
    _import_program()
    import workloads

    wl = workloads.WORKLOADS[name]
    seed = wl.default_seed if seed is None else seed
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    work = OUT / f"work-{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        experiment = workloads.write_inputs(wl, str(ROOT), str(work))
        rounds, setup, stats, tracer = _run_rounds(wl, experiment, seed, seconds, work, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for r in rounds for op in r.ops]
    failed = [op for op in ops if op.problems]
    for op in failed:
        for problem in op.problems:
            print(f"FAILED {op.kind} {op.name}: {problem}", file=sys.stderr)
    if trace:
        layers = stats.layer_self_ms()
        metrics = _per_layer(rounds, stats, layers)
        spans = OUT / "spans" / f"{name}-seed{seed}.npz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.save(spans)
        print(f"spans of the last traced round: {spans.relative_to(ROOT)} "
              f"({len(tracer.names)} spans)")
        if tracer.uncovered:
            print("uncovered names (classes bound by import, not wrapped): "
                  + ", ".join(tracer.uncovered))
        for module, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"layer {module:<11} self {ms:12.1f} ms per traced round")
        counts = {}
    else:
        counted = _end_to_end(rounds, setup)
        metrics = {k: m for k, (m, _) in counted.items()}
        counts = {k: n for k, (_, n) in counted.items()}
    for key, metric in metrics.items():
        samples = f" (n={counts[key]})" if key in counts else ""
        print(f"metric {key} = {metric['value']:.6g} {metric['unit']}{samples}")
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=trace,
                  env=env, samples=counts, rounds=len(rounds),
                  raw={"setup_s": setup,
                       "run_s": [r.run_s for r in rounds if not r.traced],
                       "iter_ms": [r.iter_ms for r in rounds if not r.traced],
                       "eval_ms": [r.eval_ms for r in rounds if not r.traced]},
                  problems=[f"{op.kind} {op.name}: {p}" for op in failed for p in op.problems])
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(result))


def run_all(names, seed, seconds, trace):
    """Each workload in its own process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seconds", str(seconds), "--trace", str(int(trace))]
        if seed is not None:
            argv += ["--seed", str(seed)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(proc.returncode or 1)
        child = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and child["correct"]
        merged["attempted"] += child["attempted"]
        merged["failed"] += child["failed"]
        for key, metric in child["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))


def main():
    for var in THREAD_VARS:
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="glyphs-fis, glyphs-baseline, ring-ablate or all")
    parser.add_argument("--seed", type=int, help="training seed passed as fisgan --seed")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(WORKLOAD_NAMES, args.seed, args.seconds, bool(args.trace))
    elif args.workload in WORKLOAD_NAMES:
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOAD_NAMES)} or all")


if __name__ == "__main__":
    main()
