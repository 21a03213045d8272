"""Config-driven experiment runner.

Subcommands: ``train`` (one run), ``ablate`` (same config swept over norm
or flow kinds with a shared seed, merged CSV), ``eval`` (score a
checkpoint), ``plot`` (SVG chart from metric CSVs).

Exit codes: 0 success, 1 runtime failure, 2 configuration/format failure.

Run directory layout:
    <out>/<run-name>/config.echo     effective experiment JSON
    <out>/<run-name>/metrics.csv     streamed metric rows
    <out>/<run-name>/grids/iter_*.pgm  sample grids (image datasets)
    <out>/<run-name>/final.ckpt      checkpoint at the last iteration
    <out>/<run-name>/summary.json    run totals
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import os
import sys

from . import checkpoint, config as config_mod, data, flows, norms, plot, train
from .errors import ConfigError, FisGanError, FormatError

log = logging.getLogger(__name__)

ABLATION_AXES = {"norm": norms.NORM_KINDS, "flow": flows.FLOW_KINDS}


def _load_effective_config(args):
    cfg = config_mod.load_experiment(args.config)
    if getattr(args, "preset", None):
        cfg = config_mod.apply_preset(cfg, args.preset)
    cfg = config_mod.apply_overrides(
        cfg,
        mode=getattr(args, "mode", None),
        seed=getattr(args, "seed", None),
        max_iters=getattr(args, "max_iters", None),
        out=getattr(args, "out", None),
        run_name=getattr(args, "run_name", None),
    )
    return cfg


def run_experiment(cfg: config_mod.ExperimentConfig, resume_path=None):
    """Execute one configured run and write all artifacts; returns the
    run directory and summary."""
    dataset = config_mod.build_dataset(cfg)
    state = None
    if resume_path is not None:
        state, _ = checkpoint.load_checkpoint(resume_path, dataset)
        # fail before any file of the run directory changes
        state.config = train.resumed_config(cfg.train, state.config)
    run_name = cfg.resolved_run_name()
    run_dir = os.path.join(cfg.out_dir, run_name)
    grids_dir = os.path.join(run_dir, "grids")
    os.makedirs(grids_dir, exist_ok=True)
    with open(os.path.join(run_dir, "config.echo"), "w") as fh:
        json.dump(cfg.effective_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    csv_path = os.path.join(run_dir, "metrics.csv")
    appending = state is not None and os.path.exists(csv_path)
    if appending:
        data.truncate_metrics_csv(csv_path, state.iteration)

    def image_sink(iteration, samples, side):
        path = os.path.join(grids_dir, f"iter_{iteration:06d}.pgm")
        data.write_image_grid(samples, side, cfg.eval.grid_cols, path,
                              pixel_range=dataset.pixel_range)

    with data.MetricsCsvWriter(csv_path, append=appending) as sink:
        summary = train.train(
            cfg.train,
            dataset,
            metrics_sink=sink.write,
            image_sink=image_sink,
            eval_options=cfg.eval,
            state=state,
        )
    checkpoint.save_checkpoint(
        os.path.join(run_dir, "final.ckpt"), summary.state,
        experiment=cfg.effective_dict(),
    )
    summary_doc = {
        "run_name": run_name,
        "config_hash": cfg.config_hash(),
        "iterations": summary.iterations,
        "refresh_count": summary.refresh_count,
        "refresh_ms_total": summary.refresh_ms_total,
        "final_proxy_fid": summary.rows[-1].proxy_fid if summary.rows else None,
        "rows": len(summary.rows),
    }
    with data.replaced_atomically(os.path.join(run_dir, "summary.json")) as fh:
        json.dump(summary_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return run_dir, summary


def cmd_train(args):
    cfg = _load_effective_config(args)
    run_dir, summary = run_experiment(cfg, resume_path=args.resume)
    last = summary.rows[-1] if summary.rows else None
    fid = f"{last.proxy_fid:.6g}" if last else "n/a"
    print(f"run {os.path.basename(run_dir)} finished: "
          f"{summary.iterations} iterations, proxy_fid {fid}, "
          f"artifacts in {run_dir}")
    return 0


def _run_ablation_variant(sub_cfg):
    run_dir, _ = run_experiment(sub_cfg)
    return os.path.join(run_dir, "metrics.csv")


def cmd_ablate(args):
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, not {args.jobs}")
    cfg = _load_effective_config(args)
    axis_values = ABLATION_AXES[args.axis]
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("ablate needs at least one value")
    for value in values:
        if value not in axis_values:
            raise ConfigError(
                f"value {value!r} not valid for axis {args.axis!r}; "
                f"choices: {list(axis_values)}"
            )
    base_name = cfg.resolved_run_name()
    merged_path = os.path.join(cfg.out_dir, f"ablate_{args.axis}.csv")
    os.makedirs(cfg.out_dir, exist_ok=True)
    subs = []
    for value in values:
        sub = copy.deepcopy(cfg)
        if args.axis == "norm":
            sub.train.norm_kind = value
        else:
            sub.train.flow_kind = value
        sub.run_name = f"{base_name}-{args.axis}-{value}"
        subs.append((value, sub))
    failures = []
    completed = []

    def note_result(value, sub, err):
        if err is None:
            completed.append(
                (value, os.path.join(sub.out_dir, sub.run_name, "metrics.csv"))
            )
            return
        failures.append((value, err))
        partial = os.path.join(sub.out_dir, sub.run_name, "metrics.csv")
        if os.path.exists(partial):
            completed.append((value, partial))
        log.error("ablation run %s failed: %s", value, err)

    if args.jobs > 1:
        # runs are fully independent: disjoint output dirs, own rng streams
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [(value, sub, pool.submit(_run_ablation_variant, sub))
                       for value, sub in subs]
            for value, sub, fut in futures:
                try:
                    fut.result()
                    note_result(value, sub, None)
                except FisGanError as err:
                    note_result(value, sub, err)
    else:
        for value, sub in subs:
            try:
                _run_ablation_variant(sub)
                note_result(value, sub, None)
            except FisGanError as err:
                note_result(value, sub, err)
    completed.sort(key=lambda pair: values.index(pair[0]))
    with open(merged_path, "w", newline="\n") as fh:
        fh.write("variant," + ",".join(data.CSV_HEADER) + "\n")
        for value, csv_path in completed:
            _, rows = data.read_metrics_csv(csv_path)
            for row in rows:
                fh.write(f"{value}," + ",".join(row.as_csv_fields()) + "\n")
    print(f"merged ablation CSV: {merged_path} "
          f"({len(completed)} runs, {len(failures)} failures)")
    return 1 if failures else 0


def cmd_eval(args):
    n = args.samples
    if n < 2:
        raise ConfigError("need at least 2 samples to fit moments")
    with open(args.checkpoint, "rb") as fh:
        blob = fh.read()
    if args.config:
        probe_cfg = config_mod.load_experiment(args.config)
    else:
        # the header's experiment echo names the dataset to rebuild
        header, _ = checkpoint.read_header(blob, args.checkpoint)
        if not header["experiment"]:
            raise ConfigError("checkpoint carries no experiment echo; pass --config")
        probe_cfg = config_mod.experiment_from_dict(header["experiment"])
    dataset = config_mod.build_dataset(probe_cfg)
    state, _ = checkpoint.load_checkpoint(args.checkpoint, dataset, blob=blob)
    if n < 32:
        log.warning("proxy_fid over %d samples has high variance", n)
    options = probe_cfg.eval
    ctx = train.build_eval_context(state.config, dataset, options)
    fid, samples = train.evaluate(state, ctx, state.iteration, n)
    real_rows = min(n, ctx.real_subset.shape[0])
    print(f"proxy_fid {fid:.12g} ({n} generated vs {real_rows} real)")
    if ctx.grid_side is not None:
        grid_path = args.grid or (os.path.splitext(args.checkpoint)[0] + "_samples.pgm")
        count = min(options.grid_count, samples.shape[0])
        data.write_image_grid(samples[:count], ctx.grid_side, options.grid_cols,
                              grid_path, pixel_range=dataset.pixel_range)
        print(f"sample grid: {grid_path}")
    return 0


def _series_from_csv(path):
    """One series per (mode, variant, seed), in first-appearance order."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    extra = ("variant",) if header[:1] == ["variant"] else ()
    extras, rows = data.read_metrics_csv(path, extra_columns=extra)
    groups = {}
    order = []
    for extra_fields, row in zip(extras, rows):
        variant = extra_fields.get("variant", "")
        key = (row.mode, variant, row.seed)
        if key not in groups:
            groups[key] = ([], [])
            order.append(key)
        xs, ys = groups[key]
        xs.append(row.iteration)
        ys.append(row.proxy_fid)
    stem = os.path.splitext(os.path.basename(path))[0]
    series = []
    for mode, variant, seed in order:
        label = f"{stem}:{mode}"
        if variant:
            label += f":{variant}"
        label += f" seed={seed}"
        xs, ys = groups[(mode, variant, seed)]
        series.append((label, xs, ys))
    return series


def cmd_plot(args):
    series = []
    for path in args.csvs:
        series.extend(_series_from_csv(path))
    plot.render_chart(series, args.out)
    print(f"chart written to {args.out} ({len(series)} series)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fisgan",
        description="Flow-based importance sampling GAN laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one configured experiment")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--mode", choices=train.MODES)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--max-iters", type=int, dest="max_iters")
    p_train.add_argument("--out")
    p_train.add_argument("--preset", choices=sorted(config_mod.PRESETS))
    p_train.add_argument("--run-name", dest="run_name")
    p_train.add_argument("--resume", help="checkpoint to continue from")
    p_train.set_defaults(func=cmd_train)

    p_ablate = sub.add_parser("ablate", help="sweep one axis, shared seed")
    p_ablate.add_argument("--config", required=True)
    p_ablate.add_argument("--axis", required=True, choices=sorted(ABLATION_AXES))
    p_ablate.add_argument("--values", required=True,
                          help="comma-separated axis values")
    p_ablate.add_argument("--mode", choices=train.MODES)
    p_ablate.add_argument("--seed", type=int)
    p_ablate.add_argument("--max-iters", type=int, dest="max_iters")
    p_ablate.add_argument("--out")
    p_ablate.add_argument("--preset", choices=sorted(config_mod.PRESETS))
    p_ablate.add_argument("--run-name", dest="run_name")
    p_ablate.add_argument("--jobs", type=int, default=1,
                          help="run variants in parallel processes")
    p_ablate.set_defaults(func=cmd_ablate, resume=None)

    p_eval = sub.add_parser("eval", help="score a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config", help="dataset source override")
    p_eval.add_argument("--samples", type=int, default=2048)
    p_eval.add_argument("--grid", help="sample grid output path")
    p_eval.set_defaults(func=cmd_eval)

    p_plot = sub.add_parser("plot", help="SVG chart from metric CSVs")
    p_plot.add_argument("csvs", nargs="+")
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except FormatError as err:
        # file-format problems count as config failures for plot inputs,
        # runtime failures for binary artifacts
        print(f"format error: {err}", file=sys.stderr)
        return 2 if args.command == "plot" else 1
    except FisGanError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
