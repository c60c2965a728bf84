"""Layer stacks and their checkpoint codec.

The teacher and every student are stacks of (weight, bias) layers, so they
share one parameter type, one initializer and one way to be stored. A
checkpoint is a JSON manifest; its weight arrays are base64 of their
little-endian raw bytes, and the manifest names that encoding, so the
decimal arrays of earlier versions are refused instead of being read by a
second parser.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .numkit import fingerprint, glorot_uniform


@dataclass
class LayerStack:
    """Per-layer (weight, bias) pairs; layer i maps ``dims[i]`` inputs to
    ``dims[i+1]`` outputs. Parameters are named ``w1, b1, w2, ...``."""

    layers: list[tuple[np.ndarray, np.ndarray]]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].shape[1]

    def shape_vector(self) -> tuple:
        return tuple((w.shape, b.shape) for w, b in self.layers)

    def param_dict(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, (w, b) in enumerate(self.layers, start=1):
            out[f"w{i}"] = w
            out[f"b{i}"] = b
        return out

    def copy(self) -> "LayerStack":
        """Deep copy: training the copy never mutates this stack."""
        return LayerStack([(w.copy(), b.copy()) for w, b in self.layers])

    def fingerprint(self) -> str:
        return fingerprint(*(a for pair in self.layers for a in pair))


def init_layers(dims, rng: np.random.Generator, dtype) -> LayerStack:
    """Glorot-uniform weights, drawn one layer at a time in order, and zero
    biases for the layer widths ``dims``."""
    return LayerStack([
        (glorot_uniform(rng, fan_in, fan_out, dtype), np.zeros(fan_out, dtype=dtype))
        for fan_in, fan_out in zip(dims[:-1], dims[1:])
    ])


ARRAY_ENCODING = "base64-le"
CHECKPOINT_DTYPES = ("float32", "float64")


def json_object(obj, keys, where: str) -> dict:
    """``obj`` when it is a JSON object with exactly the keys ``keys``; a
    ValueError naming ``where`` (file and place in it) otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    missing = sorted(set(keys) - set(obj))
    unknown = sorted(set(obj) - set(keys))
    if missing or unknown:
        raise ValueError(f"{where}: missing keys {missing}, unknown keys {unknown}")
    return obj


def dataclass_from_json(cls, obj, where: str):
    """``cls(**obj)`` for a JSON object holding exactly the fields of ``cls``."""
    obj = json_object(obj, [f.name for f in fields(cls)], where)
    try:
        return cls(**obj)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def array_to_json(a: np.ndarray) -> dict:
    raw = a.astype(a.dtype.newbyteorder("<"), copy=False).tobytes()
    return {"shape": list(a.shape), "data": base64.b64encode(raw).decode("ascii")}


def array_from_json(obj, dtype: np.dtype, where: str) -> np.ndarray:
    """Decode one stored array. The byte count must fit the shape and the
    text must be the canonical encoding of the bytes, so an edited character
    is refused even where it would decode to the same bytes."""
    obj = json_object(obj, ("data", "shape"), where)
    shape, text = obj["shape"], obj["data"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"{where}: shape {shape!r} is not a list of sizes")
    if not isinstance(text, str):
        raise ValueError(f"{where}: data is not a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ValueError(f"{where}: data is not base64 ({exc})") from None
    need = math.prod(shape) * dtype.itemsize
    if len(raw) != need:
        raise ValueError(
            f"{where}: data holds {len(raw)} bytes, shape {shape} of {dtype} needs {need}"
        )
    if base64.b64encode(raw).decode("ascii") != text:
        raise ValueError(f"{where}: data is not canonical base64")
    return np.frombuffer(raw, dtype.newbyteorder("<")).astype(dtype).reshape(shape)


def layers_to_json(stack: LayerStack) -> list:
    return [{"w": array_to_json(w), "b": array_to_json(b)} for w, b in stack.layers]


def layers_from_json(obj, dtype: np.dtype, where: str) -> LayerStack:
    """Decode a stored layer stack; each layer's weight must chain onto the
    previous layer's output and carry a bias of its own output width."""
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{where}: layers must be a non-empty list")
    layers: list[tuple[np.ndarray, np.ndarray]] = []
    for i, layer in enumerate(obj, start=1):
        at = f"{where} layer {i}"
        layer = json_object(layer, ("b", "w"), at)
        w = array_from_json(layer["w"], dtype, f"{at} w")
        b = array_from_json(layer["b"], dtype, f"{at} b")
        if (
            w.ndim != 2
            or b.shape != (w.shape[1],)
            or (layers and w.shape[0] != layers[-1][0].shape[1])
        ):
            raise ValueError(
                f"{at}: weight {w.shape} and bias {b.shape} do not chain onto "
                f"{'the layer before' if layers else 'an input'}"
            )
        layers.append((w, b))
    return LayerStack(layers)


def write_manifest(path, doc: dict) -> None:
    """Write a checkpoint manifest: sorted keys and no timestamps, so equal
    checkpoints are equal bytes."""
    doc = {**doc, "array_encoding": ARRAY_ENCODING}
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def read_manifest(path, kind: str, keys, command: str) -> tuple[dict, np.dtype]:
    """Read a manifest written by ``write_manifest`` and check its kind,
    array encoding, keys and dtype before any field is used. ``command`` is
    the CLI command that writes this kind of checkpoint."""
    try:
        doc = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not a JSON checkpoint ({exc})") from None
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise ValueError(f"{path}: not a {kind.replace('-', ' ')}")
    if doc.get("array_encoding") != ARRAY_ENCODING:
        raise ValueError(
            f"{path}: weights are not stored as {ARRAY_ENCODING}; checkpoints "
            f"in the decimal format of earlier versions are not read, run "
            f"`mlpcascade {command}` again to rewrite it"
        )
    json_object(doc, ("kind", "array_encoding", "dtype", *keys), str(path))
    if doc["dtype"] not in CHECKPOINT_DTYPES:
        raise ValueError(f"{path}: dtype {doc['dtype']!r} is not one of {CHECKPOINT_DTYPES}")
    return doc, np.dtype(doc["dtype"])
