"""Versioned binary checkpoint container.

Layout: magic b"FISG", u32 format version, u32 header length, a UTF-8
JSON header (config echo, iteration, rng states, optimizer counters, and
the flow's permutations), then a count-prefixed list of named
little-endian float64 tensors.  Loading reproduces training bit-exactly
from the stored iteration.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from dataclasses import asdict

import numpy as np

from . import data, flows
from .config import experiment_from_dict
from .errors import ConfigError, FormatError, ShapeError
from .train import (TrainConfig, TrainState, differing_fields, init_state, is_json_type,
                    parse_fields)

MAGIC = b"FISG"
# 3: the flow's layout is rebuilt from the config; the header keeps only
# the realnvp permutations, which build_flow draws at random
VERSION = 3


def _is_pcg64_state(value):
    try:
        np.random.PCG64(0).state = value
    except (TypeError, ValueError, KeyError, OverflowError):
        return False
    return True


_KIND_CHECKS = {
    "count": lambda value: is_json_type(value, "int") and value >= 0,
    "number": lambda value: is_json_type(value, "float"),
    "PCG64 state": _is_pcg64_state,
}
# header scalar -> (its kind, its attribute path in TrainState), for save, check and load
_SCALARS = {
    "iteration": ("count", "iteration"),
    "refresh_count": ("count", "refresh_count"),
    "refresh_ms_total": ("number", "refresh_ms_total"),
    "model_rng": ("PCG64 state", "model_rng.bit_generator.state"),
    "data_rng": ("PCG64 state", "data_rng.bit_generator.state"),
    "adam_g_step": ("count", "adam_g.step"),
    "adam_d_step": ("count", "adam_d.step"),
    "out_mid": ("number", "out_mid"),
    "out_half": ("number", "out_half"),
}
# every header carries exactly these keys, in this order
HEADER_KEYS = ("config", "experiment", *_SCALARS, "flow")


def _tensors(state: TrainState):
    """Checkpoint tensor name -> the live array of state it holds; save
    writes these arrays and load restores into them."""
    out = {}
    for prefix, net in (("g", state.gen), ("d", state.disc)):
        for k, layer in enumerate(net.layers):
            out[f"{prefix}.l{k}.w"] = layer.weights
            out[f"{prefix}.l{k}.b"] = layer.bias
    for prefix, adam in (("adam_g", state.adam_g), ("adam_d", state.adam_d)):
        for k, (m, v) in enumerate(zip(adam.m, adam.v)):
            out[f"{prefix}.m{k}"] = m
            out[f"{prefix}.v{k}"] = v
    if state.flow is not None:
        for k, p in enumerate(state.flow.parameters()):
            out[f"flow.p{k}"] = p
    return out


def save_checkpoint(path, state: TrainState, experiment=None):
    """Write the full training state; experiment is the effective
    experiment dict echoed for resume/eval; path is replaced atomically."""
    arrays = _tensors(state)
    header = {
        "config": asdict(state.config),
        "experiment": experiment,
        **{key: operator.attrgetter(where)(state) for key, (_, where) in _SCALARS.items()},
        "flow": None,
    }
    if state.flow is not None:
        header["flow"] = [layer.perm.tolist() for layer in state.flow.layers
                          if isinstance(layer, flows.PermutationLayer)]
    blob = json.dumps(header).encode("utf-8")
    with data.replaced_atomically(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def _flow_layout(perms, config, path):
    """The config's flow with the stored permutations; its parameters are
    placeholders for load_checkpoint to overwrite."""
    # every draw from the scratch stream is overwritten: permutations here,
    # weights by the restore
    built = flows.build_flow(config.flow_kind, config.latent_dim, np.random.default_rng(0),
                             depth=config.flow_depth, hidden=config.flow_hidden)
    layers = built.layers
    slots = [k for k, layer in enumerate(layers) if isinstance(layer, flows.PermutationLayer)]
    if len(perms) != len(slots):
        raise FormatError(f"{path}: checkpoint stores {len(perms)} flow permutations, "
                          f"its config builds {len(slots)}")
    try:
        for k, perm in zip(slots, perms):
            layers[k] = flows.PermutationLayer(perm)
        return flows.FlowModel(layers, built.dim, built.kind)
    except (ShapeError, ValueError) as err:
        raise FormatError(f"{path}: bad flow permutation in checkpoint header: "
                          f"{err}") from err


def _span(blob, offset, size, path, what):
    """End of the size-byte field at offset; FormatError if the file ends first."""
    end = offset + size
    if end > len(blob):
        raise FormatError(f"{path}: truncated {what} at offset {offset}")
    return end


def _unpack(fmt, blob, offset, path, what):
    end = _span(blob, offset, struct.calcsize(fmt), path, what)
    return struct.unpack_from(fmt, blob, offset), end


def _check_header_values(header, path):
    """FormatError unless every header value has the type loading relies on;
    the flow's permutations themselves are checked when it is rebuilt."""
    try:
        config = parse_fields(TrainConfig, header["config"], "config")
        experiment = None
        if header["experiment"] is not None:
            experiment = experiment_from_dict(header["experiment"])
    except ConfigError as err:
        raise FormatError(f"{path}: bad checkpoint header: {err}") from err
    changed = [] if experiment is None else differing_fields(experiment.train, config)
    if changed:
        raise FormatError(f"{path}: checkpoint experiment.train differs from its "
                          f"config in {', '.join(changed)}")
    for key, (kind, _) in _SCALARS.items():
        if not _KIND_CHECKS[kind](header[key]):
            raise FormatError(f"{path}: checkpoint {key!r} is not a {kind}: {header[key]!r}")
    if not is_json_type(header["flow"], "list | None"):
        raise FormatError(f"{path}: checkpoint flow is not a list of permutations")
    if header["flow"] is not None and config.mode != "fis":
        raise FormatError(f"{path}: checkpoint stores a flow for a {config.mode!r} run")


def read_header(blob, path):
    """Validate the checkpoint bytes up to the end of the JSON header.

    Returns (header dict, offset of the tensor section).  A bad magic,
    version or length, a header that is not a JSON object, a missing or
    unknown header key, and a header value of the wrong type all raise
    FormatError.
    """
    if blob[:4] != MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic {blob[:4]!r}")
    (version, header_len), offset = _unpack("<II", blob, 4, path, "header length")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    end = _span(blob, offset, header_len, path, "header")
    try:
        header = json.loads(blob[offset:end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise FormatError(f"{path}: corrupt checkpoint header: {err}") from err
    if not isinstance(header, dict):
        raise FormatError(f"{path}: checkpoint header is not a JSON object")
    expected = set(HEADER_KEYS)
    missing = sorted(expected - header.keys())
    unknown = sorted(header.keys() - expected)
    if missing or unknown:
        raise FormatError(
            f"{path}: checkpoint header keys missing {missing}, unknown {unknown}"
        )
    _check_header_values(header, path)
    return header, end


def _read_tensors(blob, offset, path):
    (count,), offset = _unpack("<I", blob, offset, path, "tensor count")
    arrays = {}
    for _ in range(count):
        (name_len,), offset = _unpack("<H", blob, offset, path, "tensor name length")
        end = _span(blob, offset, name_len, path, "tensor name")
        try:
            name = blob[offset:end].decode("utf-8")
        except UnicodeDecodeError as err:
            raise FormatError(f"{path}: corrupt tensor name at offset {offset}") from err
        offset = end
        (ndim,), offset = _unpack("<B", blob, offset, path, "tensor rank")
        shape, offset = _unpack(f"<{ndim}I", blob, offset, path, "tensor shape")
        size = math.prod(shape)
        end = _span(blob, offset, 8 * size, path, f"tensor {name!r}")
        arr = np.frombuffer(blob, dtype="<f8", count=size, offset=offset)
        arrays[name] = arr.reshape(shape).copy()
        offset = end
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes")
    return arrays


def load_checkpoint(path, dataset, blob=None):
    """Rebuild a TrainState ready to resume; returns (state, experiment).

    blob, when given, is the file's content already read by the caller.
    """
    if blob is None:
        with open(path, "rb") as fh:
            blob = fh.read()
    header, offset = read_header(blob, path)
    arrays = _read_tensors(blob, offset, path)

    config = TrainConfig(**header["config"])
    state = init_state(config, dataset)
    if header["flow"] is not None:
        state.flow = _flow_layout(header["flow"], config, path)
    for name, target in _tensors(state).items():
        stored = arrays.pop(name, None)
        if stored is None or stored.shape != target.shape:
            raise FormatError(f"{path}: tensor {name!r} is missing or has the wrong shape")
        target[...] = stored
    if arrays:
        raise FormatError(f"{path}: checkpoint tensors {sorted(arrays)} are not "
                          "part of its config's state")
    # the passes read masked weights as they are, so masked entries must be
    # zero; checked after the restore, since the placeholders pass trivially
    if state.flow is not None and any(
            np.any(dense.weights[dense.mask == 0]) for layer in state.flow.layers
            if isinstance(layer, flows.AutoregressiveLayer) for dense in layer.net.layers):
        raise FormatError(f"{path}: autoregressive flow weights are non-zero "
                          "outside their masks")
    for key, (_, where) in _SCALARS.items():
        owner, _, name = where.rpartition(".")
        setattr(operator.attrgetter(owner)(state) if owner else state, name, header[key])
    return state, header.get("experiment")
