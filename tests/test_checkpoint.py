import json
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fisgan import checkpoint, data, train
from fisgan.errors import ConfigError, FormatError


def ring_dataset(count=512, seed=0):
    spec = data.SyntheticSpec(kind="ring", count=count, sigma=0.05)
    return data.make_synthetic(spec, np.random.default_rng(seed))


def fake_clock():
    tick = [0.0]

    def clock():
        tick[0] += 1.0
        return tick[0]

    return clock


def cfg(**over):
    base = dict(
        latent_dim=6,
        refresh_t=4,
        flow_epochs=1,
        flow_batch=64,
        augment_N=96,
        batch_size=32,
        seed=5,
        mode="fis",
        flow_depth=2,
        flow_hidden=12,
    )
    base.update(over)
    return train.TrainConfig(**base)


@pytest.mark.parametrize("flow_kind", ("realnvp", "maf", "iaf"))
def test_save_load_round_trip(tmp_path, flow_kind):
    ds = ring_dataset()
    config = cfg(max_iters=8, flow_kind=flow_kind)
    summary = train.train(config, ds, clock=fake_clock(),
                          eval_options=train.EvalOptions(interval=4, samples=64))
    path = tmp_path / "state.ckpt"
    # the header's experiment echo must itself be a valid experiment
    echo = {"dataset": {"kind": "synthetic", "spec": {"kind": "ring", "count": 512}}}
    checkpoint.save_checkpoint(path, summary.state, experiment=echo)
    loaded, experiment = checkpoint.load_checkpoint(path, ds)
    assert experiment == echo
    assert loaded.iteration == summary.state.iteration
    for a, b in zip(loaded.gen.parameters(), summary.state.gen.parameters()):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.disc.parameters(), summary.state.disc.parameters()):
        assert np.array_equal(a, b)
    assert loaded.model_rng.bit_generator.state == summary.state.model_rng.bit_generator.state
    if summary.state.flow is not None:
        for a, b in zip(loaded.flow.parameters(), summary.state.flow.parameters()):
            assert np.array_equal(a, b)
        same = train.sample_noise(loaded, 32)
        loaded.model_rng.bit_generator.state = summary.state.model_rng.bit_generator.state
        other = train.sample_noise(summary.state, 32)
        assert np.array_equal(same, other)


@pytest.mark.parametrize("flow_kind", ("realnvp", "maf", "iaf"))
def test_resume_matches_uninterrupted_run(tmp_path, flow_kind):
    ds = ring_dataset()
    eval_options = train.EvalOptions(interval=4, samples=64)

    full = train.train(cfg(max_iters=16, flow_kind=flow_kind), ds, clock=fake_clock(),
                       eval_options=eval_options)

    first = train.train(cfg(max_iters=8, flow_kind=flow_kind), ds, clock=fake_clock(),
                        eval_options=eval_options)
    path = tmp_path / "half.ckpt"
    checkpoint.save_checkpoint(path, first.state)
    resumed_state, _ = checkpoint.load_checkpoint(path, ds)
    assert resumed_state.flow.kind == flow_kind
    second = train.train(cfg(max_iters=16, flow_kind=flow_kind), ds, clock=fake_clock(),
                         eval_options=eval_options, state=resumed_state)

    stitched = first.rows + second.rows
    assert len(stitched) == len(full.rows)
    for a, b in zip(stitched, full.rows):
        assert a.iteration == b.iteration
        assert a.proxy_fid == b.proxy_fid
        assert a.d_loss == b.d_loss
        assert a.g_loss == b.g_loss


def test_resume_with_changed_config_writes_no_row(tmp_path):
    ds = ring_dataset()
    eval_options = train.EvalOptions(interval=4, samples=64)
    first = train.train(cfg(max_iters=8), ds, clock=fake_clock(), eval_options=eval_options)
    path = tmp_path / "half.ckpt"
    checkpoint.save_checkpoint(path, first.state)
    rows = []
    for changed in (cfg(max_iters=16, mode="baseline"), cfg(max_iters=16, refresh_t=2)):
        resumed_state, _ = checkpoint.load_checkpoint(path, ds)
        with pytest.raises(ConfigError):
            train.train(changed, ds, metrics_sink=rows.append, clock=fake_clock(),
                        eval_options=eval_options, state=resumed_state)
    assert rows == []
    # max_iters is the one field a resume may change
    resumed_state, _ = checkpoint.load_checkpoint(path, ds)
    second = train.train(cfg(max_iters=12), ds, clock=fake_clock(),
                         eval_options=eval_options, state=resumed_state)
    assert second.state.config == cfg(max_iters=12)


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError) as err:
        checkpoint.load_checkpoint(path, ring_dataset())
    assert "magic" in str(err.value)


def test_version_mismatch(tmp_path):
    path = tmp_path / "vx.ckpt"
    # version 1 headers carry a config with three fields TrainConfig dropped
    for version in (1, 99):
        path.write_bytes(checkpoint.MAGIC + struct.pack("<II", version, 0))
        with pytest.raises(FormatError) as err:
            checkpoint.load_checkpoint(path, ring_dataset())
        assert "unsupported checkpoint version" in str(err.value)


def write_cli_checkpoint(root, flow_kind):
    """A fis checkpoint (flow fitted) written by `fisgan train` under root,
    its bytes, and the dataset its experiment echo rebuilds."""
    from fisgan import cli, config as config_mod

    doc = {
        "train": {"latent_dim": 4, "refresh_t": 2, "flow_epochs": 1,
                  "flow_batch": 32, "augment_N": 32, "batch_size": 16,
                  "max_iters": 2, "seed": 1, "mode": "fis", "flow_depth": 2,
                  "flow_hidden": 6, "flow_kind": flow_kind},
        "dataset": {"kind": "synthetic",
                    "spec": {"kind": "ring", "count": 64, "sigma": 0.05}},
        "eval": {"interval": 2, "samples": 16},
        "out_dir": str(root / "runs"),
        "run_name": "r",
    }
    cfg_path = root / "exp.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    blob = (root / "runs" / "r" / "final.ckpt").read_bytes()
    header, _ = checkpoint.read_header(blob, "final.ckpt")
    assert header["flow"] is not None
    dataset = config_mod.build_dataset(
        config_mod.experiment_from_dict(header["experiment"])
    )
    return root, blob, dataset


@pytest.fixture(scope="module")
def cli_checkpoint(tmp_path_factory):
    return write_cli_checkpoint(tmp_path_factory.mktemp("ckpt"), "realnvp")


@pytest.fixture(scope="module")
def cli_iaf_checkpoint(tmp_path_factory):
    return write_cli_checkpoint(tmp_path_factory.mktemp("ckpt_iaf"), "iaf")


def _with_header(blob, header):
    """The checkpoint bytes with the JSON header replaced."""
    _, offset = checkpoint.read_header(blob, "final.ckpt")
    encoded = json.dumps(header).encode("utf-8")
    return (checkpoint.MAGIC + struct.pack("<II", checkpoint.VERSION, len(encoded))
            + encoded + blob[offset:])


def _assert_rejected(path, dataset):
    """Only FormatError from the loader, and exit code 1 from `fisgan eval`."""
    from fisgan import cli

    with pytest.raises(FormatError):
        checkpoint.load_checkpoint(path, dataset)
    assert cli.main(["eval", "--checkpoint", str(path), "--samples", "8"]) == 1


@settings(max_examples=40, deadline=None)
@given(cut=st.integers(min_value=0, max_value=10**7))
@example(cut=6)  # inside the header length field
@example(cut=20)  # inside the JSON header
def test_truncated_checkpoint_raises_format_error(cli_checkpoint, cut):
    root, blob, dataset = cli_checkpoint
    cut %= len(blob)
    path = root / "cut.ckpt"
    path.write_bytes(blob[:cut])
    _assert_rejected(path, dataset)


@settings(max_examples=25, deadline=None)
@given(
    dropped=st.sets(st.sampled_from(checkpoint.HEADER_KEYS), min_size=0),
    extra=st.booleans(),
)
def test_header_key_set_is_enforced(cli_checkpoint, dropped, extra):
    root, blob, dataset = cli_checkpoint
    assume(dropped or extra)
    header, _ = checkpoint.read_header(blob, "final.ckpt")
    header = {k: v for k, v in header.items() if k not in dropped}
    if extra:
        header["unexpected"] = 0
    path = root / "keys.ckpt"
    path.write_bytes(_with_header(blob, header))
    with pytest.raises(FormatError) as err:
        checkpoint.read_header(path.read_bytes(), path)
    assert "header keys" in str(err.value)
    _assert_rejected(path, dataset)


def test_header_length_past_end_of_file(tmp_path):
    path = tmp_path / "long.ckpt"
    path.write_bytes(checkpoint.MAGIC + struct.pack("<II", checkpoint.VERSION, 999)
                     + b"{}")
    with pytest.raises(FormatError) as err:
        checkpoint.load_checkpoint(path, ring_dataset())
    assert "truncated header" in str(err.value)


def _set(*keys, value):
    def edit(header):
        target = header
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    return edit


HEADER_EDITS = {
    "rng_not_a_dict": _set("model_rng", value=5),
    "rng_wrong_generator": _set("data_rng", "bit_generator", value="MT19937"),
    "rng_state_not_int": _set("model_rng", "state", "state", value="x"),
    "iteration_not_int": _set("iteration", value="x"),
    "iteration_negative": _set("iteration", value=-1),
    "adam_step_bool": _set("adam_g_step", value=True),
    "out_half_not_number": _set("out_half", value=[1.0]),
    "config_field_type": _set("config", "latent_dim", value="a"),
    "config_unknown_field": _set("config", "bogus", value=1),
    "config_seed_negative": _set("config", "seed", value=-1),
    "config_mode_unknown": _set("config", "mode", value="zzz"),
    "experiment_train_type": _set("experiment", "train", "seed", value=1.5),
    "experiment_not_dict": _set("experiment", value=3),
    "experiment_spec_type": _set("experiment", "dataset", "spec", "count", value="x"),
    "flow_not_dict": _set("flow", value="x"),
    "flow_layers_not_list": _set("flow", "layers", value="x"),
    "flow_dim_mismatch": _set("flow", "dim", value=5),
    "ar_direction": _set("flow", "layers", 0, "direction", value="zzz"),
    "ar_clamp_type": _set("flow", "layers", 1, "clamp", value="x"),
    "ar_degrees_not_permutation": _set("flow", "layers", 0, "degrees", value=[1, 1, 1, 1]),
    "ar_degrees_short": _set("flow", "layers", 0, "degrees", value=[1, 2]),
    "experiment_run_name_int": _set("experiment", "run_name", value=5),
    "experiment_out_dir_list": _set("experiment", "out_dir", value=["a"]),
    "experiment_crop_border_str": _set("experiment", "dataset", value={
        "kind": "idx", "images": "glyphs.idx", "crop_border": "x"}),
    "experiment_downsample_str": _set("experiment", "dataset", value={
        "kind": "idx", "images": "glyphs.idx", "downsample": "x"}),
    "config_flow_batch_zero": _set("config", "flow_batch", value=0),
    "config_flow_hidden_zero": _set("config", "flow_hidden", value=0),
    "config_flow_depth_zero": _set("config", "flow_depth", value=0),
    "config_flow_epochs_negative": _set("config", "flow_epochs", value=-1),
    "experiment_pca_k_zero": _set("experiment", "eval", "pca_k", value=0),
    "experiment_grid_cols_zero": _set("experiment", "eval", "grid_cols", value=0),
    "experiment_grid_count_zero": _set("experiment", "eval", "grid_count", value=0),
    "experiment_ridge_negative": _set("experiment", "eval", "ridge", value=-1.0),
    "experiment_centers_zero": _set("experiment", "dataset", "spec", "centers", value=0),
}


@pytest.mark.parametrize("edit", sorted(HEADER_EDITS))
def test_wrong_typed_header_value_raises_format_error(cli_iaf_checkpoint, edit):
    root, blob, dataset = cli_iaf_checkpoint
    header, _ = checkpoint.read_header(blob, "final.ckpt")
    HEADER_EDITS[edit](header)
    path = root / "edited.ckpt"
    path.write_bytes(_with_header(blob, header))
    _assert_rejected(path, dataset)


def test_iaf_checkpoint_evaluates(cli_iaf_checkpoint):
    from fisgan import cli

    root, blob, dataset = cli_iaf_checkpoint
    path = root / "intact.ckpt"
    path.write_bytes(_with_header(blob, checkpoint.read_header(blob, "final.ckpt")[0]))
    assert cli.main(["eval", "--checkpoint", str(path), "--samples", "8"]) == 0


def test_nonzero_masked_flow_weight_raises_format_error(cli_iaf_checkpoint):
    root, blob, dataset = cli_iaf_checkpoint
    path = root / "intact.ckpt"
    path.write_bytes(blob)
    state, experiment = checkpoint.load_checkpoint(path, dataset)
    dense = state.flow.layers[0].net.layers[0]
    dense.weights[tuple(np.argwhere(dense.mask == 0)[0])] = 0.5
    leaked = root / "leaked.ckpt"
    checkpoint.save_checkpoint(leaked, state, experiment=experiment)
    with pytest.raises(FormatError, match="outside their masks"):
        checkpoint.load_checkpoint(leaked, dataset)
    _assert_rejected(leaked, dataset)
