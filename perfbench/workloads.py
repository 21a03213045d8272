"""The benchmark's workloads: the inputs each one builds, the CLI commands
one round runs, and the checks its outputs must pass.

Every command goes through ``fisgan.cli.main`` in this process, exactly as
a user would type it, with ``--seed`` set from the benchmark's seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from fisgan import cli, config as config_mod, data, train

# The metrics.csv schema that criterion 9 and ``fisgan plot`` depend on.
CSV_HEADER = "iteration,mode,flow_kind,norm_kind,seed,proxy_fid,d_loss,g_loss,wall_ms"
NUMERIC_COLUMNS = ("proxy_fid", "d_loss", "g_loss", "wall_ms")

# Defaults of scripts/make_image_corpus.py.
CORPUS_COUNT, CORPUS_SIDE, CORPUS_SEED = 4096, 24, 7

EVAL_SAMPLES = 2048
EVALS_PER_ROUND = 3

_FID_LINE = re.compile(r"^proxy_fid (\S+) ")


@dataclass
class Workload:
    name: str
    default_seed: int
    max_iters: int
    # (argv completed with config/seed/out, run names it writes) per command
    commands: list
    # run name -> (mode, flow_kind, norm_kind) its metrics.csv must carry
    runs: dict
    # merged ablation CSV -> [(variant, run name)]
    merged: dict = field(default_factory=dict)
    eval_run: str = ""
    glyphs: bool = False


def _glyph_workload(name, mode, iters=100):
    return Workload(
        name=name, default_seed=0, max_iters=iters,
        commands=[(["train", "--mode", mode, "--max-iters", str(iters), "--run-name", mode],
                   [mode])],
        runs={mode: (mode, "realnvp", "frobenius")},
        eval_run=mode, glyphs=True,
    )


def _ring_workload(iters=20):
    runs, merged = {}, {}
    commands = []
    for axis, values in (("norm", ("frobenius", "nuclear")),
                         ("flow", ("realnvp", "maf", "iaf"))):
        argv = ["ablate", "--axis", axis, "--values", ",".join(values),
                "--max-iters", str(iters), "--jobs", "1"]
        merged[f"ablate_{axis}.csv"] = [(value, f"ablation-{axis}-{value}") for value in values]
        commands.append((argv, [run for _, run in merged[f"ablate_{axis}.csv"]]))
        for value, run in merged[f"ablate_{axis}.csv"]:
            flow = value if axis == "flow" else "realnvp"
            norm = value if axis == "norm" else "frobenius"
            runs[run] = ("fis", flow, norm)
    return Workload(
        name="ring-ablate", default_seed=11, max_iters=iters, commands=commands,
        runs=runs, merged=merged, eval_run="ablation-flow-maf",
    )


WORKLOADS = {
    wl.name: wl
    for wl in (
        _glyph_workload("glyphs-fis", "fis"),
        _glyph_workload("glyphs-baseline", "baseline"),
        _ring_workload(),
    )
}


def write_inputs(wl: Workload, repo_root, work_dir):
    """Write the workload's experiment file (and glyph corpus) under
    work_dir; returns the experiment file path."""
    if wl.glyphs:
        corpus = os.path.join(work_dir, "corpus")
        os.makedirs(corpus, exist_ok=True)
        images, labels = data.make_glyph_images(
            CORPUS_COUNT, np.random.default_rng(CORPUS_SEED), side=CORPUS_SIDE
        )
        images_path = os.path.join(corpus, "glyphs_images.idx")
        labels_path = os.path.join(corpus, "glyphs_labels.idx")
        data.write_idx(images, images_path, labels=labels, labels_path=labels_path)
        with open(os.path.join(repo_root, "configs", "glyphs8x8.json")) as fh:
            doc = json.load(fh)
        doc["dataset"]["images"] = os.path.abspath(images_path)
        doc["dataset"]["labels"] = os.path.abspath(labels_path)
    else:
        # criterion 7's ablation traffic, with an eval interval short
        # enough that rows after the first refresh are scored under a flow
        doc = {
            "train": {"max_iters": wl.max_iters, "seed": wl.default_seed,
                      "mode": "fis", "batch_size": 128, "augment_N": 256},
            "dataset": {"kind": "synthetic",
                        "spec": {"kind": "ring", "count": 8192, "sigma": 0.05}},
            "eval": {"interval": 10, "samples": EVAL_SAMPLES},
            "run_name": "ablation",
        }
    # every command passes --out; this only keeps stray output in work_dir
    doc["out_dir"] = os.path.abspath(os.path.join(work_dir, "runs"))
    path = os.path.join(work_dir, f"{wl.name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return path


def time_setup(experiment_path, seed):
    """One set-up op: build the dataset, init_state, build_eval_context."""
    cfg = config_mod.apply_overrides(config_mod.load_experiment(experiment_path), seed=seed)
    start = time.perf_counter()
    dataset = config_mod.build_dataset(cfg)
    train.init_state(cfg.train, dataset)
    train.build_eval_context(cfg.train, dataset, cfg.eval)
    return time.perf_counter() - start


def expected_iterations(experiment_path, max_iters):
    with open(experiment_path) as fh:
        interval = json.load(fh)["eval"]["interval"]
    return list(range(0, max_iters + 1, interval))


@dataclass
class Op:
    kind: str  # "train", "ablate-variant" or "eval"
    name: str
    problems: list = field(default_factory=list)


@dataclass
class Round:
    traced: bool
    run_s: float = 0.0
    iter_ms: float = 0.0
    ops: list = field(default_factory=list)
    eval_ms: list = field(default_factory=list)
    # run name -> rows without wall_ms; eval proxy_fid strings
    rows: dict = field(default_factory=dict)
    fids: list = field(default_factory=list)


def _finite_number(text):
    try:
        return math.isfinite(float(text))
    except (TypeError, ValueError):
        return False


def _call_cli(argv):
    """Run ``fisgan <argv>`` in-process; returns (exit code, stdout, error)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:
        return None, out.getvalue(), traceback.format_exc(limit=3)
    return code, out.getvalue(), None


def _read_run_csv(path, expected, labels, seed):
    """Check one metrics.csv; returns (problems, rows minus wall_ms, last wall_ms)."""
    problems = []
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        return [f"{path}: {err}"], None, None
    if not lines or lines[0] != CSV_HEADER:
        return [f"{path}: header changed: {lines[:1]}"], None, None
    rows = [line.split(",") for line in lines[1:]]
    columns = CSV_HEADER.split(",")
    if any(len(r) != len(columns) for r in rows):
        return [f"{path}: ragged rows"], None, None
    records = [dict(zip(columns, r)) for r in rows]
    iterations = [r["iteration"] for r in records]
    if iterations != [str(i) for i in expected]:
        problems.append(f"{path}: iterations {iterations} != {expected}")
    for r in records:
        if not all(_finite_number(r[c]) for c in NUMERIC_COLUMNS):
            problems.append(f"{path}: non-finite value at iteration {r['iteration']}")
        if (r["mode"], r["flow_kind"], r["norm_kind"]) != labels or r["seed"] != str(seed):
            problems.append(f"{path}: row labels {r['mode']},{r['flow_kind']},"
                            f"{r['norm_kind']},{r['seed']} != {labels},{seed}")
    stripped = [tuple(v for c, v in r.items() if c != "wall_ms") for r in records]
    last_wall = float(records[-1]["wall_ms"]) if records and not problems else None
    return problems, stripped, last_wall


def _check_merged(path, variants, round_rows):
    """The merged ablation CSV holds every variant's rows, unchanged."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        return {run: [f"{path}: {err}"] for _, run in variants}
    if not lines or lines[0] != "variant," + CSV_HEADER:
        return {run: [f"{path}: header changed: {lines[:1]}"] for _, run in variants}
    by_variant = {}
    for line in lines[1:]:
        fields = line.split(",")
        by_variant.setdefault(fields[0], []).append(tuple(fields[1:-1]))
    problems = {}
    for value, run in variants:
        if round_rows.get(run) is None or by_variant.get(value) != round_rows[run]:
            problems[run] = [f"{path}: rows of variant {value} missing or changed"]
    return problems


def run_round(wl: Workload, experiment_path, seed, round_dir, traced=False):
    """Run every command of the workload once, then its evals."""
    rnd = Round(traced=traced)
    common = ["--config", experiment_path, "--seed", str(seed), "--out", round_dir]
    expected = expected_iterations(experiment_path, wl.max_iters)
    wall_ms_total = 0.0
    iterations = 0
    start_all = time.perf_counter()
    for argv, names in wl.commands:
        code, _, error = _call_cli(argv + common)
        failure = error or (None if code == 0 else f"exit code {code}")
        for run in names:
            op = Op("train" if argv[0] == "train" else "ablate-variant", run)
            if failure:
                op.problems.append(f"{' '.join(argv[:3])}: {failure}")
            csv_path = os.path.join(round_dir, run, "metrics.csv")
            problems, rows, last_wall = _read_run_csv(csv_path, expected, wl.runs[run], seed)
            op.problems += problems
            rnd.rows[run] = rows
            if last_wall is not None:
                wall_ms_total += last_wall
                iterations += wl.max_iters
            rnd.ops.append(op)
    rnd.run_s = time.perf_counter() - start_all
    rnd.iter_ms = wall_ms_total / iterations if iterations else float("nan")
    for merged, variants in wl.merged.items():
        bad = _check_merged(os.path.join(round_dir, merged), variants, rnd.rows)
        for op in rnd.ops:
            op.problems += bad.get(op.name, [])

    checkpoint = os.path.join(round_dir, wl.eval_run, "final.ckpt")
    for k in range(EVALS_PER_ROUND):
        start = time.perf_counter()
        code, out, error = _call_cli(["eval", "--checkpoint", checkpoint,
                                      "--samples", str(EVAL_SAMPLES),
                                      "--grid", os.path.join(round_dir, f"eval{k}.pgm")])
        seconds = time.perf_counter() - start
        op = Op("eval", wl.eval_run)
        fid = next((m.group(1) for m in map(_FID_LINE.match, out.splitlines()) if m), None)
        if error or code != 0:
            op.problems.append(f"eval: {error or f'exit code {code}'}")
        elif not _finite_number(fid):
            op.problems.append(f"eval printed proxy_fid {fid!r}")
        rnd.fids.append(fid)
        rnd.eval_ms.append(1000.0 * seconds)
        rnd.ops.append(op)
    return rnd


def check_against(reference: Round, rnd: Round):
    """Same seed, same code: every round must reproduce the first round's
    rows (all columns but wall_ms) and eval proxy_fid exactly."""
    for op in rnd.ops:
        if op.kind == "eval":
            continue
        if rnd.rows.get(op.name) != reference.rows.get(op.name):
            what = "traced" if rnd.traced else "repeated"
            op.problems.append(f"{op.name}: {what} metrics.csv differs from the first round")
    want = reference.fids[0] if reference.fids else None
    for op, fid in zip([o for o in rnd.ops if o.kind == "eval"], rnd.fids):
        if fid != want:
            op.problems.append(f"eval proxy_fid {fid} != {want} on the same checkpoint")
