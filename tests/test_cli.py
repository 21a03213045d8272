import dataclasses
import json
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fisgan import checkpoint, cli, data, flows, train
from fisgan.errors import NumericError


def write_config(tmp_path, **over):
    doc = {
        "train": {
            "latent_dim": 8,
            "refresh_t": 5,
            "flow_epochs": 1,
            "flow_batch": 32,
            "augment_N": 64,
            "batch_size": 32,
            "max_iters": 10,
            "seed": 3,
            "mode": "fis",
            "flow_depth": 2,
            "flow_hidden": 8,
        },
        "dataset": {
            "kind": "synthetic",
            "spec": {"kind": "ring", "count": 256, "sigma": 0.05},
        },
        "eval": {"interval": 5, "samples": 64},
        "out_dir": str(tmp_path / "runs"),
        "run_name": "t0",
    }
    for key, value in over.items():
        section, _, field = key.partition(".")
        if field:
            doc[section][field] = value
        else:
            doc[section] = value
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    return path


def test_train_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    run_dir = tmp_path / "runs" / "t0"
    assert (run_dir / "config.echo").exists()
    assert (run_dir / "metrics.csv").exists()
    assert (run_dir / "final.ckpt").exists()
    assert (run_dir / "summary.json").exists()
    _, rows = data.read_metrics_csv(run_dir / "metrics.csv")
    assert [r.iteration for r in rows] == [0, 5, 10]
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["iterations"] == 10
    assert summary["refresh_count"] == 2
    # the checkpoint embeds the same effective config as config.echo
    from fisgan import checkpoint, config as config_mod

    echoed = json.loads((run_dir / "config.echo").read_text())
    cfg_obj = config_mod.experiment_from_dict(echoed)
    dataset = config_mod.build_dataset(cfg_obj)
    _, experiment = checkpoint.load_checkpoint(run_dir / "final.ckpt", dataset)
    assert experiment == echoed


def test_train_zero_iters(tmp_path):
    cfg = write_config(tmp_path, **{"train.max_iters": 0})
    assert cli.main(["train", "--config", str(cfg)]) == 0
    _, rows = data.read_metrics_csv(tmp_path / "runs" / "t0" / "metrics.csv")
    assert [r.iteration for r in rows] == [0]


def test_mode_override(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["train", "--config", str(cfg), "--mode", "baseline",
                     "--run-name", "base"]) == 0
    summary = json.loads(
        (tmp_path / "runs" / "base" / "summary.json").read_text()
    )
    assert summary["refresh_count"] == 0
    echo = json.loads((tmp_path / "runs" / "base" / "config.echo").read_text())
    assert echo["train"]["mode"] == "baseline"


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, **{"train.bogus_knob": 1})
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert "bogus_knob" in capsys.readouterr().err


# for each annotated field type, JSON values a field of that type rejects
_NOT_A_NUMBER = (st.none() | st.booleans() | st.text(max_size=4)
                 | st.lists(st.integers(), max_size=2)
                 | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_WRONG_VALUES = {
    "int": _NOT_A_NUMBER | st.floats(allow_nan=False, allow_infinity=False),
    # json.load reads NaN, Infinity and ints past float range
    "float": _NOT_A_NUMBER | st.sampled_from([math.nan, math.inf, -math.inf, 10**400]),
    "str": (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.lists(st.text(max_size=2), max_size=2)),
}
_DROP = "<drop the field>"
_CONFIG_FIELDS = [
    pytest.param(section, f, id=f"{section}.{f.name}")
    for section, cls in (("train", train.TrainConfig), ("eval", train.EvalOptions),
                         ("dataset.spec", data.SyntheticSpec))
    for f in dataclasses.fields(cls)
]


@pytest.mark.parametrize("section, field", _CONFIG_FIELDS)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(picks=st.data())
def test_wrong_typed_config_value_exits_2(tmp_path, capsys, section, field, picks):
    values = _WRONG_VALUES[field.type]
    if field.default is dataclasses.MISSING:
        values = values | st.just(_DROP)
    value = picks.draw(values)
    path = write_config(tmp_path)
    doc = json.loads(path.read_text())
    target = doc
    for key in section.split("."):
        target = target[key]
    if value == _DROP:
        del target[field.name]
    else:
        target[field.name] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error")


@pytest.mark.parametrize("flags, over", [
    (["--seed", "-1"], {}),
    ([], {"train.max_iters": 4.5}),
    ([], {"dataset": {"kind": "synthetic",
                      "spec": {"kind": "ring", "count": 256, "sigma": -1}}}),
    ([], {"dataset": {"kind": "synthetic", "spec": {"kind": "ring"}}}),
    ([], {"run_name": 5}),
    ([], {"out_dir": ["a"]}),
    ([], {"train.flow_batch": 0}),
    ([], {"train.flow_hidden": 0}),
    ([], {"train.flow_depth": 0}),
    ([], {"train.flow_epochs": -1}),
    ([], {"eval.pca_k": 0}),
    ([], {"eval.grid_cols": 0}),
    ([], {"eval.grid_count": -3}),
    ([], {"eval.ridge": -1.0}),
    ([], {"dataset": {"kind": "synthetic",
                      "spec": {"kind": "ring", "count": 256, "centers": 0}}}),
    ([], {"train.lr_g": math.nan}),
    ([], {"eval.ridge": math.inf}),
    ([], {"dataset": {"kind": "synthetic",
                      "spec": {"kind": "ring", "count": 256, "sigma": math.inf}}}),
    ([], {"dataset": {"kind": "synthetic",
                      "spec": {"kind": "gaussian_grid", "count": 256, "grid": 0}}}),
], ids=["seed_negative", "max_iters_float", "spec_sigma_negative", "spec_count_missing",
        "run_name_int", "out_dir_list", "flow_batch_zero", "flow_hidden_zero",
        "flow_depth_zero", "flow_epochs_negative", "pca_k_zero", "grid_cols_zero",
        "grid_count_negative", "ridge_negative", "spec_centers_zero", "lr_g_nan",
        "ridge_infinite", "spec_sigma_infinite", "spec_grid_zero"])
def test_invalid_config_value_exits_2(tmp_path, capsys, flags, over):
    cfg = write_config(tmp_path, **over)
    assert cli.main(["train", "--config", str(cfg), *flags]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("field, value", [
    ("crop_border", "x"), ("downsample", "x"), ("crop_border", -1),
    ("downsample", 1.5), ("images", 5), ("labels", ["a"]),
])
def test_invalid_idx_dataset_value_exits_2(tmp_path, capsys, field, value):
    images = tmp_path / "images.idx"
    data.write_idx(np.zeros((4, 8, 8), dtype=np.uint8), images)
    dataset = {"kind": "idx", "images": str(images), field: value}
    cfg = write_config(tmp_path, dataset=dataset)
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "runs").exists()


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path)
    path.write_bytes(b"\xff" + path.read_bytes())
    assert cli.main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "runs").exists()


def test_empty_idx_images_exit_1(tmp_path, capsys):
    images = tmp_path / "images.idx"
    data.write_idx(np.zeros((5, 0, 0), dtype=np.uint8), images)
    cfg = write_config(tmp_path, dataset={"kind": "idx", "images": str(images)})
    assert cli.main(["train", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("format error")
    assert not (tmp_path / "runs").exists()


def test_missing_dataset_path(tmp_path, capsys):
    cfg = write_config(
        tmp_path, dataset={"kind": "idx", "images": "nowhere.idx"}
    )
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert "nowhere.idx" in capsys.readouterr().err


def test_preset_applies(tmp_path):
    cfg = write_config(tmp_path, **{"train.max_iters": 0})
    assert cli.main(["train", "--config", str(cfg), "--preset", "slow-refresh",
                     "--run-name", "p"]) == 0
    echo = json.loads((tmp_path / "runs" / "p" / "config.echo").read_text())
    assert echo["train"]["refresh_t"] == 50
    assert echo["train"]["flow_epochs"] == 50


def test_default_run_name_is_config_hash(tmp_path):
    cfg = write_config(tmp_path, run_name=None, **{"train.max_iters": 0})
    assert cli.main(["train", "--config", str(cfg)]) == 0
    entries = os.listdir(tmp_path / "runs")
    assert len(entries) == 1
    assert len(entries[0]) == 12


def test_ablate_norm_axis(tmp_path):
    cfg = write_config(tmp_path, **{"train.max_iters": 5, "train.latent_dim": 4})
    assert cli.main(["ablate", "--config", str(cfg), "--axis", "norm",
                     "--values", "frobenius,nuclear"]) == 0
    merged = tmp_path / "runs" / "ablate_norm.csv"
    extras, rows = data.read_metrics_csv(merged, extra_columns=("variant",))
    variants = {e["variant"] for e in extras}
    assert variants == {"frobenius", "nuclear"}
    # both runs share the seed
    assert {r.seed for r in rows} == {3}
    # identical seed + data stream: variants agree bit-for-bit before the
    # first refresh can diverge them (the warm-start row)
    first = {}
    for e, r in zip(extras, rows):
        if r.iteration == 0:
            first[e["variant"]] = (r.proxy_fid, r.d_loss, r.g_loss)
    assert first["frobenius"] == first["nuclear"]


def test_ablate_parallel_matches_sequential(tmp_path):
    cfg = write_config(tmp_path, **{"train.max_iters": 5, "train.latent_dim": 4})
    assert cli.main(["ablate", "--config", str(cfg), "--axis", "norm",
                     "--values", "frobenius,nuclear"]) == 0
    sequential = (tmp_path / "runs" / "ablate_norm.csv").read_bytes()
    out2 = str(tmp_path / "runs2")
    assert cli.main(["ablate", "--config", str(cfg), "--axis", "norm",
                     "--values", "frobenius,nuclear", "--out", out2,
                     "--jobs", "2"]) == 0
    parallel = (tmp_path / "runs2" / "ablate_norm.csv").read_bytes()
    # wall_ms differs between runs; everything else must match
    strip = lambda blob: [ln.rsplit(b",", 1)[0] for ln in blob.splitlines()]
    assert strip(sequential) == strip(parallel)


def test_ablate_empty_values(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["ablate", "--config", str(cfg), "--axis", "norm",
                     "--values", " , "]) == 2


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_ablate_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path)
    assert cli.main(["ablate", "--config", str(cfg), "--axis", "norm",
                     "--values", "frobenius,nuclear", "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("values", ["frobenius,frobenius", "nuclear,frobenius,nuclear"])
def test_ablate_repeated_values_exit_2(tmp_path, capsys, values):
    cfg = write_config(tmp_path)
    assert cli.main(["ablate", "--config", str(cfg), "--axis", "norm",
                     "--values", values]) == 2
    assert "repeats" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ablate_failing_variant_keeps_partial_rows(tmp_path, capsys, monkeypatch, jobs):
    if jobs != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched fit reaches pool workers only when they fork")
    fit = flows.fit

    def maf_diverges(flow, *args, **kwargs):
        if flow.kind == "maf":
            raise NumericError("non-finite flow loss in epoch 0")
        return fit(flow, *args, **kwargs)

    monkeypatch.setattr(flows, "fit", maf_diverges)
    cfg = write_config(tmp_path)
    capsys.readouterr()
    assert cli.main(["ablate", "--config", str(cfg), "--axis", "flow",
                     "--values", "maf,realnvp", "--jobs", jobs]) == 1
    assert "(2 runs, 1 failures)" in capsys.readouterr().out
    extras, rows = data.read_metrics_csv(tmp_path / "runs" / "ablate_flow.csv",
                                         extra_columns=("variant",))
    # maf fails at its first refresh (batch 5), after its batch-0 row
    assert [(e["variant"], r.iteration) for e, r in zip(extras, rows)] == [
        ("maf", 0), ("realnvp", 0), ("realnvp", 5), ("realnvp", 10)]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ablate_variant_os_error_keeps_other_rows(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path)
    (tmp_path / "runs").mkdir()
    # the nuclear run's directory cannot be made: a plain file holds its name
    (tmp_path / "runs" / "t0-norm-nuclear").write_text("")
    capsys.readouterr()
    assert cli.main(["ablate", "--config", str(cfg), "--axis", "norm",
                     "--values", "frobenius,nuclear", "--jobs", jobs]) == 1
    assert "(1 runs, 1 failures)" in capsys.readouterr().out
    extras, rows = data.read_metrics_csv(tmp_path / "runs" / "ablate_norm.csv",
                                         extra_columns=("variant",))
    assert [(e["variant"], r.iteration) for e, r in zip(extras, rows)] == [
        ("frobenius", 0), ("frobenius", 5), ("frobenius", 10)]


def test_ablate_bad_value(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["ablate", "--config", str(cfg), "--axis", "flow",
                     "--values", "realnvp,glow"]) == 2


def test_eval_checkpoint_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    capsys.readouterr()  # drop the train command's output
    ckpt = str(tmp_path / "runs" / "t0" / "final.ckpt")
    assert cli.main(["eval", "--checkpoint", ckpt, "--samples", "64"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["eval", "--checkpoint", ckpt, "--samples", "64"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "proxy_fid" in first


def test_eval_config_keeps_the_run_seed(tmp_path, capsys):
    # the file says seed 0, the run was trained at seed 3: the dataset that
    # --config rebuilds must be the run's, drawn at seed 3
    cfg = write_config(tmp_path, **{"train.seed": 0})
    assert cli.main(["train", "--config", str(cfg), "--seed", "3"]) == 0
    ckpt = str(tmp_path / "runs" / "t0" / "final.ckpt")
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", ckpt, "--samples", "64"]) == 0
    from_echo = capsys.readouterr().out
    assert cli.main(["eval", "--checkpoint", ckpt, "--samples", "64",
                     "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == from_echo


def test_eval_corrupt_magic(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + b"\x00" * 16)
    assert cli.main(["eval", "--checkpoint", str(bad)]) == 1


def test_eval_minimum_samples(tmp_path, capsys, caplog):
    cfg = write_config(tmp_path, **{"train.max_iters": 0})
    assert cli.main(["train", "--config", str(cfg)]) == 0
    ckpt = str(tmp_path / "runs" / "t0" / "final.ckpt")
    with caplog.at_level("WARNING"):
        assert cli.main(["eval", "--checkpoint", ckpt, "--samples", "2"]) == 0
    assert any("variance" in rec.message for rec in caplog.records)
    # the sample count is checked before the checkpoint is opened
    missing = str(tmp_path / "missing.ckpt")
    assert cli.main(["eval", "--checkpoint", missing, "--samples", "1"]) == 2


def test_plot_single_run(tmp_path):
    cfg = write_config(tmp_path, **{"train.max_iters": 10, "train.mode": "baseline"})
    assert cli.main(["train", "--config", str(cfg)]) == 0
    csv_path = str(tmp_path / "runs" / "t0" / "metrics.csv")
    out = str(tmp_path / "chart.svg")
    assert cli.main(["plot", csv_path, "--out", out]) == 0
    svg = open(out).read()
    assert svg.count("<polyline") == 1
    # three eval points -> three polyline points
    assert svg.split("<polyline")[1].count(",") >= 3


def test_plot_two_files_legend_order(tmp_path):
    rows_a = [data.MetricRow(0, "baseline", "realnvp", "frobenius", 1, 5.0, 1.0, 1.0, 1.0)]
    rows_b = [data.MetricRow(0, "fis", "maf", "frobenius", 2, 4.0, 1.0, 1.0, 1.0)]
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    data.write_metrics_csv(rows_a, pa)
    data.write_metrics_csv(rows_b, pb)
    out = str(tmp_path / "two.svg")
    assert cli.main(["plot", str(pa), str(pb), "--out", out]) == 0
    svg = open(out).read()
    assert svg.index("a:baseline") < svg.index("b:fis")


def test_plot_empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    data.write_metrics_csv([], path)
    out = str(tmp_path / "empty.svg")
    assert cli.main(["plot", str(path), "--out", out]) == 0
    assert "<svg" in open(out).read()


def test_plot_schema_mismatch(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("iteration,mode,oops\n")
    assert cli.main(["plot", str(path), "--out", str(tmp_path / "x.svg")]) == 2
    assert "flow_kind" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["abc", "nan", "inf", "-inf", "1" * 400])
@pytest.mark.parametrize("column", ["iteration", "seed", "proxy_fid", "d_loss",
                                    "g_loss", "wall_ms"])
def test_plot_rejects_non_numeric_cell(tmp_path, capsys, column, bad):
    rows = [
        data.MetricRow(0, "fis", "realnvp", "frobenius", 1, 5.0, 1.0, 1.0, 1.0),
        data.MetricRow(100, "fis", "realnvp", "frobenius", 1, 3.0, 0.9, 1.1, 2.0),
    ]
    path = tmp_path / "m.csv"
    data.write_metrics_csv(rows, path)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[data.CSV_HEADER.index(column)] = bad
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "m.svg"
    assert cli.main(["plot", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("format error:")
    assert str(path) in err[0] and "line 3" in err[0] and repr(column) in err[0]
    assert not out.exists()


@pytest.mark.parametrize("line", [0, 2])
def test_plot_rejects_non_utf8_csv(tmp_path, capsys, line):
    rows = [
        data.MetricRow(0, "fis", "realnvp", "frobenius", 1, 5.0, 1.0, 1.0, 1.0),
        data.MetricRow(100, "fis", "realnvp", "frobenius", 1, 3.0, 0.9, 1.1, 2.0),
    ]
    path = tmp_path / "m.csv"
    data.write_metrics_csv(rows, path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line] = lines[line].replace(b"fis", b"f\xffs").replace(b"mode", b"m\xffde")
    path.write_bytes(b"".join(lines))
    out = tmp_path / "m.svg"
    assert cli.main(["plot", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("format error:") and str(path) in err[0]
    assert not out.exists()


def test_plot_deterministic(tmp_path):
    rows = [
        data.MetricRow(0, "fis", "realnvp", "frobenius", 1, 5.0, 1.0, 1.0, 1.0),
        data.MetricRow(100, "fis", "realnvp", "frobenius", 1, 3.0, 0.9, 1.1, 2.0),
    ]
    path = tmp_path / "m.csv"
    data.write_metrics_csv(rows, path)
    out_a, out_b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    assert cli.main(["plot", str(path), "--out", out_a]) == 0
    assert cli.main(["plot", str(path), "--out", out_b]) == 0
    assert open(out_a).read() == open(out_b).read()


def test_cli_resume_extends_metrics(tmp_path):
    cfg_full = write_config(tmp_path, run_name="full", **{"train.max_iters": 10})
    assert cli.main(["train", "--config", str(cfg_full)]) == 0
    full_csv = tmp_path / "runs" / "full" / "metrics.csv"
    _, full_rows = data.read_metrics_csv(full_csv)

    cfg_half = write_config(tmp_path, run_name="half", **{"train.max_iters": 5})
    assert cli.main(["train", "--config", str(cfg_half)]) == 0
    half_dir = tmp_path / "runs" / "half"
    ckpt = str(half_dir / "final.ckpt")
    # continue the same run dir up to 10 iterations
    cfg_resume = write_config(tmp_path, run_name="half", **{"train.max_iters": 10})
    assert cli.main(["train", "--config", str(cfg_resume), "--resume", ckpt]) == 0
    _, stitched = data.read_metrics_csv(half_dir / "metrics.csv")

    assert [r.iteration for r in stitched] == [r.iteration for r in full_rows]
    for a, b in zip(stitched, full_rows):
        assert a.proxy_fid == b.proxy_fid
        assert a.d_loss == b.d_loss
        assert a.g_loss == b.g_loss
    # the resumed checkpoint records the one config the run used
    header, _ = checkpoint.read_header((half_dir / "final.ckpt").read_bytes(), ckpt)
    assert header["config"] == header["experiment"]["train"]
    assert header["config"]["max_iters"] == 10


def _without_wall_ms(path):
    return [line.rsplit(b",", 1)[0] for line in path.read_bytes().splitlines()]


def test_cli_resume_drops_rows_past_checkpoint(tmp_path):
    """A run that crashed after its checkpoint left rows a resume writes
    again: the resumed CSV must still equal an uninterrupted run's."""
    cfg_full = write_config(tmp_path, run_name="full", **{"train.max_iters": 10})
    assert cli.main(["train", "--config", str(cfg_full)]) == 0
    full_csv = tmp_path / "runs" / "full" / "metrics.csv"

    cfg_half = write_config(tmp_path, run_name="half", **{"train.max_iters": 5})
    assert cli.main(["train", "--config", str(cfg_half)]) == 0
    half_dir = tmp_path / "runs" / "half"
    (half_dir / "metrics.csv").write_bytes(full_csv.read_bytes())
    cfg_resume = write_config(tmp_path, run_name="half", **{"train.max_iters": 10})
    assert cli.main(["train", "--config", str(cfg_resume),
                     "--resume", str(half_dir / "final.ckpt")]) == 0
    assert _without_wall_ms(half_dir / "metrics.csv") == _without_wall_ms(full_csv)


@pytest.mark.parametrize("flags, over", [
    (["--mode", "baseline"], {}),
    ([], {"train.refresh_t": 2}),
], ids=["mode", "refresh_t"])
def test_cli_resume_with_changed_config_exits_2(tmp_path, capsys, flags, over):
    cfg_half = write_config(tmp_path, **{"train.max_iters": 5})
    assert cli.main(["train", "--config", str(cfg_half)]) == 0
    run_dir = tmp_path / "runs" / "t0"
    before = (run_dir / "metrics.csv").read_bytes()
    cfg_resume = write_config(tmp_path, **{"train.max_iters": 10, **over})
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg_resume), *flags,
                     "--resume", str(run_dir / "final.ckpt")]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert (run_dir / "metrics.csv").read_bytes() == before


def _run_dir_bytes(run_dir):
    return {str(path.relative_to(run_dir)): path.read_bytes()
            for path in sorted(run_dir.rglob("*")) if path.is_file()}


def test_cli_resume_below_completed_batches_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, **{"train.max_iters": 10})
    assert cli.main(["train", "--config", str(cfg)]) == 0
    run_dir = tmp_path / "runs" / "t0"
    ckpt = str(run_dir / "final.ckpt")
    before = _run_dir_bytes(run_dir)
    capsys.readouterr()
    # the checkpoint completed batches 0..10
    assert cli.main(["train", "--config", str(cfg), "--max-iters", "9",
                     "--resume", ckpt]) == 2
    assert "below the checkpoint's last completed batch 10" in capsys.readouterr().err
    assert _run_dir_bytes(run_dir) == before
    # resuming to the batch it stopped at runs nothing and adds no row
    assert cli.main(["train", "--config", str(cfg), "--resume", ckpt]) == 0
    assert (run_dir / "metrics.csv").read_bytes() == before["metrics.csv"]


def test_cli_resume_summary_describes_whole_run(tmp_path):
    cfg = write_config(tmp_path, **{"train.max_iters": 20, "eval": {"interval": 10,
                                                                    "samples": 64}})
    assert cli.main(["train", "--config", str(cfg)]) == 0
    run_dir = tmp_path / "runs" / "t0"
    # 20 -> 25 emits no row of its own: the eval interval is 10
    assert cli.main(["train", "--config", str(cfg), "--max-iters", "25",
                     "--resume", str(run_dir / "final.ckpt")]) == 0
    _, rows = data.read_metrics_csv(run_dir / "metrics.csv")
    assert [r.iteration for r in rows] == [0, 10, 20]
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["rows"] == 3
    assert summary["final_proxy_fid"] == rows[-1].proxy_fid
    assert summary["iterations"] == 25


def test_cli_resume_closing_line_reads_the_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, **{"train.max_iters": 20, "eval": {"interval": 10,
                                                                    "samples": 64}})
    assert cli.main(["train", "--config", str(cfg)]) == 0
    run_dir = tmp_path / "runs" / "t0"
    capsys.readouterr()
    # the resume emits no row of its own; the line names the run's last one
    assert cli.main(["train", "--config", str(cfg), "--max-iters", "25",
                     "--resume", str(run_dir / "final.ckpt")]) == 0
    _, rows = data.read_metrics_csv(run_dir / "metrics.csv")
    assert (f"25 iterations, proxy_fid {rows[-1].proxy_fid:.6g}, "
            in capsys.readouterr().out)
