import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fisgan import checkpoint, data, flows, train
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
    # the header's experiment echo must itself be a valid experiment, with
    # the state's own config as its train section
    echo = {"train": dataclasses.asdict(config),
            "dataset": {"kind": "synthetic", "spec": {"kind": "ring", "count": 512}}}
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
        same = train.sample_noise(loaded, 32, loaded.model_rng)
        loaded.model_rng.bit_generator.state = summary.state.model_rng.bit_generator.state
        other = train.sample_noise(summary.state, 32, summary.state.model_rng)
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
    # the checkpoint completed batches 0..8, so max_iters 7 would end before it
    for changed in (cfg(max_iters=16, mode="baseline"), cfg(max_iters=16, refresh_t=2),
                    cfg(max_iters=7)):
        resumed_state, _ = checkpoint.load_checkpoint(path, ds)
        with pytest.raises(ConfigError):
            train.train(changed, ds, metrics_sink=rows.append, clock=fake_clock(),
                        eval_options=eval_options, state=resumed_state)
    assert rows == []
    # max_iters is the one field a resume may change; 8 runs nothing
    resumed_state, _ = checkpoint.load_checkpoint(path, ds)
    assert train.train(cfg(max_iters=8), ds, metrics_sink=rows.append, clock=fake_clock(),
                       eval_options=eval_options,
                       state=resumed_state).state.iteration - 1 == 8
    assert rows == []
    resumed_state, _ = checkpoint.load_checkpoint(path, ds)
    second = train.train(cfg(max_iters=12), ds, clock=fake_clock(),
                         eval_options=eval_options, state=resumed_state)
    assert second.state.config == cfg(max_iters=12)


def _assert_same(a, b):
    if isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    else:
        assert a == b


def _flow_structure(flow):
    """Every array and setting of the flow that is not a parameter."""
    out = [flow.kind, flow.dim]
    for layer in flow.layers:
        if isinstance(layer, flows.PermutationLayer):
            out.append(("perm", layer.perm, layer.inv_perm))
        elif isinstance(layer, flows.CouplingLayer):
            out.append(("coupling", layer.mask, layer.idx_in, layer.idx_out))
        else:
            out.append(("ar", layer.degrees, layer.direction, layer.degree_order,
                        [dense.mask for dense in layer.net.layers], layer._finals))
    return out


@pytest.mark.parametrize("flow_kind", ("realnvp", "maf", "iaf"))
def test_round_trip_keeps_flow_structure(tmp_path, flow_kind):
    ds = ring_dataset()
    config = cfg(flow_kind=flow_kind, flow_depth=6)
    state = train.init_state(config, ds)
    state.flow = flows.build_flow(flow_kind, config.latent_dim, np.random.default_rng(9),
                                  depth=config.flow_depth, hidden=config.flow_hidden)
    path = tmp_path / "state.ckpt"
    checkpoint.save_checkpoint(path, state)
    loaded, _ = checkpoint.load_checkpoint(path, ds)
    _assert_same(_flow_structure(loaded.flow), _flow_structure(state.flow))
    z = np.random.default_rng(3).standard_normal((16, config.latent_dim))
    assert np.array_equal(flows.log_prob(loaded.flow, z), flows.log_prob(state.flow, z))


# format 3's tensor names and shapes for a small maf state: latent 6, ring
# data (2-d), G 6-128-256-2, D 2-256-128-1, one masked flow net 6-12-12-12
GOLDEN_TENSORS = {
    "g.l0.w": (128, 6), "g.l0.b": (128,), "g.l1.w": (256, 128), "g.l1.b": (256,),
    "g.l2.w": (2, 256), "g.l2.b": (2,),
    "d.l0.w": (256, 2), "d.l0.b": (256,), "d.l1.w": (128, 256), "d.l1.b": (128,),
    "d.l2.w": (1, 128), "d.l2.b": (1,),
    "adam_g.m0": (128, 6), "adam_g.m1": (128,), "adam_g.m2": (256, 128),
    "adam_g.m3": (256,), "adam_g.m4": (2, 256), "adam_g.m5": (2,),
    "adam_g.v0": (128, 6), "adam_g.v1": (128,), "adam_g.v2": (256, 128),
    "adam_g.v3": (256,), "adam_g.v4": (2, 256), "adam_g.v5": (2,),
    "adam_d.m0": (256, 2), "adam_d.m1": (256,), "adam_d.m2": (128, 256),
    "adam_d.m3": (128,), "adam_d.m4": (1, 128), "adam_d.m5": (1,),
    "adam_d.v0": (256, 2), "adam_d.v1": (256,), "adam_d.v2": (128, 256),
    "adam_d.v3": (128,), "adam_d.v4": (1, 128), "adam_d.v5": (1,),
    "flow.p0": (12, 6), "flow.p1": (12,), "flow.p2": (12, 12), "flow.p3": (12,),
    "flow.p4": (12, 12), "flow.p5": (12,),
}


def test_tensor_names_are_pinned(tmp_path):
    """Save and load share one name table, so a rename there would still
    round-trip; this list pins the names the format-3 files carry."""
    ds = ring_dataset()
    config = cfg(flow_kind="maf", flow_depth=1)
    state = train.init_state(config, ds)
    state.flow = flows.build_flow("maf", config.latent_dim, np.random.default_rng(9),
                                  depth=config.flow_depth, hidden=config.flow_hidden)
    path = tmp_path / "state.ckpt"
    checkpoint.save_checkpoint(path, state)
    blob = path.read_bytes()
    _, offset = checkpoint.read_header(blob, path)
    stored = checkpoint._read_tensors(blob, offset, path)
    assert {name: arr.shape for name, arr in stored.items()} == GOLDEN_TENSORS


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError) as err:
        checkpoint.load_checkpoint(path, ring_dataset())
    assert "magic" in str(err.value)


def test_version_mismatch(tmp_path):
    path = tmp_path / "vx.ckpt"
    # version 1 headers carry a config with three fields TrainConfig dropped;
    # version 2 headers describe every flow layer
    for version in (1, 2, 99):
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
                  "max_iters": 2, "seed": 1, "mode": "fis", "flow_depth": 3,
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


def _set_train(key, value):
    """Edit config and its experiment.train copy alike, so the edit passes
    the check that the two agree and reaches the one it was written for."""
    def edit(header):
        header["config"][key] = value
        header["experiment"]["train"][key] = value
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
    "flow_perms_on_iaf": _set("flow", value=[[1, 0, 2, 3]]),
    "config_flow_depth_lower": _set_train("flow_depth", 2),
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
    "experiment_grid_zero": _set("experiment", "dataset", "spec", "grid", value=0),
    "out_half_nan": _set("out_half", value=float("nan")),
    "refresh_ms_total_infinite": _set("refresh_ms_total", value=float("inf")),
}


@pytest.mark.parametrize("edit", sorted(HEADER_EDITS))
def test_wrong_typed_header_value_raises_format_error(cli_iaf_checkpoint, edit):
    root, blob, dataset = cli_iaf_checkpoint
    header, _ = checkpoint.read_header(blob, "final.ckpt")
    HEADER_EDITS[edit](header)
    path = root / "edited.ckpt"
    path.write_bytes(_with_header(blob, header))
    _assert_rejected(path, dataset)


# edits of the realnvp fixture, whose flow has exactly one permutation
FLOW_EDITS = {
    "perm_not_permutation": _set("flow", 0, value=[0, 0, 0, 0]),
    "perm_wrong_length": _set("flow", 0, value=[0, 1, 2]),
    "perms_one_too_many": lambda header: header["flow"].append(header["flow"][0]),
    "perms_one_too_few": lambda header: header["flow"].pop(),
    "flow_v2_layout": _set("flow", value={"kind": "realnvp", "dim": 4, "layers": []}),
    "flow_under_baseline": _set_train("mode", "baseline"),
    "config_flow_kind_maf": _set_train("flow_kind", "maf"),
}


@pytest.mark.parametrize("edit", sorted(FLOW_EDITS))
def test_bad_flow_permutations_raise_format_error(cli_checkpoint, edit):
    root, blob, dataset = cli_checkpoint
    header, _ = checkpoint.read_header(blob, "final.ckpt")
    assert len(header["flow"]) == 1
    FLOW_EDITS[edit](header)
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


@pytest.mark.parametrize("edits", [{"seed": 7}, {"lr_g": 0.5, "seed": 7}])
def test_echo_train_differing_from_config_raises_format_error(cli_checkpoint, edits):
    root, blob, dataset = cli_checkpoint
    header, _ = checkpoint.read_header(blob, "final.ckpt")
    header["experiment"]["train"].update(edits)
    path = root / "edited.ckpt"
    path.write_bytes(_with_header(blob, header))
    with pytest.raises(FormatError) as err:
        checkpoint.read_header(path.read_bytes(), path)
    assert str(err.value).endswith(f"differs from its config in {', '.join(edits)}")
    _assert_rejected(path, dataset)
