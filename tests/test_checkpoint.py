import json
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fisgan import checkpoint, data, train
from fisgan.errors import FormatError


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


@pytest.mark.parametrize("flow_kind", ("realnvp", "maf"))
def test_save_load_round_trip(tmp_path, flow_kind):
    ds = ring_dataset()
    config = cfg(max_iters=8, flow_kind=flow_kind)
    summary = train.train(config, ds, clock=fake_clock(),
                          eval_options=train.EvalOptions(interval=4, samples=64))
    path = tmp_path / "state.ckpt"
    checkpoint.save_checkpoint(path, summary.state, experiment={"note": "t"})
    loaded, experiment = checkpoint.load_checkpoint(path, ds)
    assert experiment == {"note": "t"}
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


def test_resume_matches_uninterrupted_run(tmp_path):
    ds = ring_dataset()
    eval_options = train.EvalOptions(interval=4, samples=64)

    full = train.train(cfg(max_iters=16), ds, clock=fake_clock(),
                       eval_options=eval_options)

    first = train.train(cfg(max_iters=8), ds, clock=fake_clock(),
                        eval_options=eval_options)
    path = tmp_path / "half.ckpt"
    checkpoint.save_checkpoint(path, first.state)
    resumed_state, _ = checkpoint.load_checkpoint(path, ds)
    second = train.train(cfg(max_iters=16), ds, clock=fake_clock(),
                         eval_options=eval_options, state=resumed_state)

    stitched = first.rows + second.rows
    assert len(stitched) == len(full.rows)
    for a, b in zip(stitched, full.rows):
        assert a.iteration == b.iteration
        assert a.proxy_fid == b.proxy_fid
        assert a.d_loss == b.d_loss
        assert a.g_loss == b.g_loss


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError) as err:
        checkpoint.load_checkpoint(path, ring_dataset())
    assert "magic" in str(err.value)


def test_version_mismatch(tmp_path):
    path = tmp_path / "vx.ckpt"
    path.write_bytes(checkpoint.MAGIC + struct.pack("<II", 99, 0))
    with pytest.raises(FormatError) as err:
        checkpoint.load_checkpoint(path, ring_dataset())
    assert "version" in str(err.value)


@pytest.fixture(scope="module")
def cli_checkpoint(tmp_path_factory):
    """A fis checkpoint (flow fitted) written by `fisgan train`, its bytes,
    and the dataset its experiment echo rebuilds."""
    from fisgan import cli, config as config_mod

    root = tmp_path_factory.mktemp("ckpt")
    doc = {
        "train": {"latent_dim": 4, "refresh_t": 2, "flow_epochs": 1,
                  "flow_batch": 32, "augment_N": 32, "batch_size": 16,
                  "max_iters": 2, "seed": 1, "mode": "fis", "flow_depth": 2,
                  "flow_hidden": 6},
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
    dropped=st.sets(
        st.sampled_from(checkpoint.HEADER_KEYS + ("flow_adam_step",)), min_size=0
    ),
    extra=st.booleans(),
)
def test_header_key_set_is_enforced(cli_checkpoint, dropped, extra):
    root, blob, dataset = cli_checkpoint
    assume(dropped or extra)
    header, offset = checkpoint.read_header(blob, "final.ckpt")
    header = {k: v for k, v in header.items() if k not in dropped}
    if extra:
        header["unexpected"] = 0
    encoded = json.dumps(header).encode("utf-8")
    path = root / "keys.ckpt"
    path.write_bytes(checkpoint.MAGIC + struct.pack("<II", checkpoint.VERSION,
                                                    len(encoded))
                     + encoded + blob[offset:])
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
