"""Versioned binary checkpoint container.

Layout: magic b"FISG", u32 format version, u32 header length, a UTF-8
JSON header (config echo, iteration, rng states, optimizer counters, and
the flow's structural description), then a count-prefixed list of named
little-endian float64 tensors.  Loading reproduces training bit-exactly
from the stored iteration.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict

import numpy as np

from . import flows
from .errors import FormatError
from .train import TrainConfig, TrainState, init_state

MAGIC = b"FISG"
VERSION = 1
# every header carries these keys; "flow_adam_step" joins them when "flow" is set
HEADER_KEYS = (
    "config", "experiment", "iteration", "refresh_count", "refresh_ms_total",
    "model_rng", "data_rng", "adam_g_step", "adam_d_step", "out_mid",
    "out_half", "flow",
)


def _flow_structure(flow):
    layers = []
    for layer in flow.layers:
        if isinstance(layer, flows.CouplingLayer):
            layers.append({"type": "coupling", "mask": layer.mask.astype(int).tolist(),
                           "clamp": layer.scale_clamp})
        elif isinstance(layer, flows.PermutationLayer):
            layers.append({"type": "perm", "perm": layer.perm.tolist()})
        else:
            layers.append({"type": "ar", "degrees": layer.degrees.tolist(),
                           "direction": layer.direction, "clamp": layer.scale_clamp})
    return {"kind": flow.kind, "dim": flow.dim, "layers": layers}


def _net_arrays(prefix, net):
    out = {}
    for k, layer in enumerate(net.layers):
        out[f"{prefix}.l{k}.w"] = layer.weights
        out[f"{prefix}.l{k}.b"] = layer.bias
    return out


def _adam_arrays(prefix, state):
    out = {}
    for k, (m, v) in enumerate(zip(state.m, state.v)):
        out[f"{prefix}.m{k}"] = m
        out[f"{prefix}.v{k}"] = v
    return out


def _restore(target, arrays, name, path):
    stored = arrays.get(name)
    if stored is None or stored.shape != target.shape:
        raise FormatError(f"{path}: tensor {name!r} is missing or has the wrong shape")
    target[...] = stored


def _adam_from(arrays, prefix, adam, path):
    for k, (m, v) in enumerate(zip(adam.m, adam.v)):
        _restore(m, arrays, f"{prefix}.m{k}", path)
        _restore(v, arrays, f"{prefix}.v{k}", path)


def _dense_from(arrays, prefix, template_layer, path):
    _restore(template_layer.weights, arrays, f"{prefix}.w", path)
    _restore(template_layer.bias, arrays, f"{prefix}.b", path)


def save_checkpoint(path, state: TrainState, experiment=None):
    """Write the full training state; experiment is the effective
    experiment dict echoed for resume/eval."""
    arrays = {}
    arrays.update(_net_arrays("g", state.gen))
    arrays.update(_net_arrays("d", state.disc))
    arrays.update(_adam_arrays("adam_g", state.adam_g))
    arrays.update(_adam_arrays("adam_d", state.adam_d))
    header = {
        "config": asdict(state.config),
        "experiment": experiment,
        "iteration": state.iteration,
        "refresh_count": state.refresh_count,
        "refresh_ms_total": state.refresh_ms_total,
        "model_rng": state.model_rng.bit_generator.state,
        "data_rng": state.data_rng.bit_generator.state,
        "adam_g_step": state.adam_g.step,
        "adam_d_step": state.adam_d.step,
        "out_mid": state.out_mid,
        "out_half": state.out_half,
        "flow": None,
    }
    if state.flow is not None:
        header["flow"] = _flow_structure(state.flow)
        header["flow_adam_step"] = state.flow_adam.step
        for k, p in enumerate(state.flow.parameters()):
            arrays[f"flow.p{k}"] = p
        arrays.update(_adam_arrays("adam_f", state.flow_adam))
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
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


def _rebuild_flow(meta, config, arrays, path):
    # structure comes from the header; weights overwrite the scratch init
    scratch = np.random.default_rng(0)
    rebuilt_layers = []
    for entry in meta["layers"]:
        if entry["type"] == "coupling":
            mask = np.asarray(entry["mask"], dtype=bool)
            n_in = int(mask.sum())
            n_out = meta["dim"] - n_in
            scale_net = flows._coupling_subnet(scratch, n_in, n_out, config.flow_hidden)
            shift_net = flows._coupling_subnet(scratch, n_in, n_out, config.flow_hidden)
            rebuilt_layers.append(
                flows.CouplingLayer(mask, scale_net, shift_net, entry["clamp"])
            )
        elif entry["type"] == "perm":
            rebuilt_layers.append(flows.PermutationLayer(np.asarray(entry["perm"])))
        else:
            degrees = np.asarray(entry["degrees"])
            net = flows._masked_subnet(scratch, degrees, config.flow_hidden)
            rebuilt_layers.append(
                flows.AutoregressiveLayer(net, degrees, entry["direction"],
                                          entry["clamp"])
            )
    model = flows.FlowModel(rebuilt_layers, meta["dim"], meta["kind"])
    for k, p in enumerate(model.parameters()):
        _restore(p, arrays, f"flow.p{k}", path)
    return model


def _span(blob, offset, size, path, what):
    """End of the size-byte field at offset; FormatError if the file ends first."""
    end = offset + size
    if end > len(blob):
        raise FormatError(f"{path}: truncated {what} at offset {offset}")
    return end


def _unpack(fmt, blob, offset, path, what):
    end = _span(blob, offset, struct.calcsize(fmt), path, what)
    return struct.unpack_from(fmt, blob, offset), end


def read_header(blob, path):
    """Validate the checkpoint bytes up to the end of the JSON header.

    Returns (header dict, offset of the tensor section).  A bad magic,
    version or length, a header that is not a JSON object, and a missing
    or unknown header key all raise FormatError.
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
    if header.get("flow") is not None:
        expected.add("flow_adam_step")
    missing = sorted(expected - header.keys())
    unknown = sorted(header.keys() - expected)
    if missing or unknown:
        raise FormatError(
            f"{path}: checkpoint header keys missing {missing}, unknown {unknown}"
        )
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

    try:
        config = TrainConfig(**header["config"])
    except TypeError as err:
        raise FormatError(f"{path}: corrupt config in checkpoint header: {err}") from err
    state = init_state(config, dataset)
    for k, layer in enumerate(state.gen.layers):
        _dense_from(arrays, f"g.l{k}", layer, path)
    for k, layer in enumerate(state.disc.layers):
        _dense_from(arrays, f"d.l{k}", layer, path)
    _adam_from(arrays, "adam_g", state.adam_g, path)
    _adam_from(arrays, "adam_d", state.adam_d, path)
    state.adam_g.step = header["adam_g_step"]
    state.adam_d.step = header["adam_d_step"]
    state.model_rng.bit_generator.state = header["model_rng"]
    state.data_rng.bit_generator.state = header["data_rng"]
    state.iteration = header["iteration"]
    state.refresh_count = header["refresh_count"]
    state.refresh_ms_total = header["refresh_ms_total"]
    state.out_mid = header["out_mid"]
    state.out_half = header["out_half"]
    if header["flow"] is not None:
        state.flow = _rebuild_flow(header["flow"], config, arrays, path)
        state.flow_adam = flows.flow_adam(state.flow, lr=config.lr_flow)
        _adam_from(arrays, "adam_f", state.flow_adam, path)
        state.flow_adam.step = header["flow_adam_step"]
    return state, header.get("experiment")
