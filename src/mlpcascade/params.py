"""Layer stacks, their forward and backward passes, and their checkpoint codec.

The teacher and every student are stacks of (weight, bias) layers, so they
share one parameter type, one initializer, one forward/backward pair and one
way to be stored. A graph-convolution layer is a dense layer whose
projection is aggregated over the graph, so the teacher gives the shared
passes one aggregation per layer, with its transpose for the backward, and
a student gives none. A
checkpoint is a JSON manifest and a weights file beside it, which holds
every weight array's little-endian raw bytes in the order the manifest
lists their shapes. The manifest names that encoding, so the decimal and
base64 arrays of earlier versions are refused instead of being read by a
second parser.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, get_type_hints

import numpy as np

from .numkit import dropout_in_place, fingerprint, glorot_uniform


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


ArrayMap = Callable[[np.ndarray], np.ndarray]


class Aggregation(NamedTuple):
    """A layer's linear graph aggregation ``m -> S m``, which the forward
    applies to the layer's projection, and its transpose ``d -> S^T d``,
    which the backward applies to the gradient. ``S`` may select rows, so
    the two maps need not have the same shape."""

    apply: ArrayMap
    transpose: ArrayMap


# One aggregation per layer; None in place of one is the identity, and None
# in place of the list the identity for all.
Aggregates = Sequence[Aggregation | None] | None


def _per_layer(p: LayerStack, aggregates: Aggregates) -> Sequence[Aggregation | None]:
    if aggregates is None:
        return [None] * p.n_layers
    if len(aggregates) != p.n_layers:
        raise ValueError(f"{len(aggregates)} aggregations for {p.n_layers} layers")
    return aggregates


def _project(a: np.ndarray, w: np.ndarray, aggregate: Aggregation | None) -> np.ndarray:
    z = a @ w
    return z if aggregate is None else aggregate.apply(z)


def _transpose(d: np.ndarray, aggregate: Aggregation | None) -> np.ndarray:
    return d if aggregate is None else aggregate.transpose(d)


def dropper(dropout: float, rng: np.random.Generator | None, where: str):
    """The ``drop`` of ``forward_cache``: drops each hidden activation in
    place, its mask drawn from ``rng`` (``numkit.dropout_in_place``); None
    without dropout. ValueError naming the caller ``where`` when there is
    dropout but no ``rng``."""
    if dropout > 0.0:
        if rng is None:
            raise ValueError(f"{where}: dropout {dropout} needs an rng, got None")
        return lambda a: dropout_in_place(rng, a, dropout)
    return None


def forward_cache(
    p: LayerStack,
    a: np.ndarray | None,
    drop: Callable[[np.ndarray], np.floating] | None = None,
    aggregates: Aggregates = None,
    projection: np.ndarray | None = None,
):
    """Training forward of the layer chain ``z = aggregate(a @ w) + b``,
    ReLU between layers, keeping what ``backward`` needs.

    ``aggregates`` holds each layer's graph aggregation (None for a student:
    the identity everywhere; a teacher whose first layer takes an input it
    aggregated already passes None for that layer). An aggregation that
    selects rows makes its layer's output, the logits when it is the last
    layer's, one row per selected row. ``drop(r)`` applies dropout to each
    hidden activation ``r`` in place, in layer order, and returns the keep
    scale of its mask (``dropper`` builds it); None trains without
    dropout. Returns the logits and a list of one ``(input, r, scale)``
    cache per layer, ``r`` being the layer's ReLU output after dropout (the
    logits for the last layer), which is also the next layer's input, and
    ``scale`` the keep scale, None without dropout; ``backward`` consumes
    the list. No mask is kept: ``_relu_gate`` needs only ``r`` and the
    scale. Each layer adds its bias and applies ReLU in place on the fresh
    projection; ``r > 0`` is ``z > 0``, NaN included, so the pre-activation
    need not be kept.

    ``projection``, when the caller holds it, is the first layer's
    ``aggregate(a @ w)``; it is read, not written, and gives the same bits.
    ``a`` then feeds only ``backward``'s first-layer product, and may be
    None for a pass whose gradient stops at ``backward_to_first``.
    """
    if projection is None and a.shape[1] != p.input_dim:
        raise ValueError(f"input width {a.shape[1]} != first-layer fan-in {p.input_dim}")
    if projection is not None and projection.shape[1] != p.hidden_dim:
        raise ValueError(
            f"projection width {projection.shape[1]} != first-layer width {p.hidden_dim}"
        )
    *hidden_aggs, agg_out = _per_layer(p, aggregates)
    caches = []
    *hidden, (w_out, b_out) = p.layers
    for li, ((w, b), aggregate) in enumerate(zip(hidden, hidden_aggs)):
        if li == 0 and projection is not None:
            r = projection + b
        else:
            r = _project(a, w, aggregate)
            r += b
        np.maximum(r, 0, out=r)
        caches.append((a, r, None if drop is None else drop(r)))
        a = r
    logits = _project(a, w_out, agg_out)
    logits += b_out
    caches.append((a, logits, None))
    return logits, caches


def backward(
    p: LayerStack,
    caches,
    dlogits: np.ndarray,
    aggregates: Aggregates = None,
) -> dict[str, np.ndarray]:
    """Gradients of every parameter from the logits' gradient, through the
    caches of ``forward_cache`` with the same ``aggregates``, each of which
    the backward applies as its ``transpose``. Each hidden layer's gradient
    is gated in place on the fresh product ``d_agg @ w.T``
    (``_relu_gate``). The caches are consumed, as ``backward_to_first``
    consumes them: ``caches`` is empty afterwards."""
    grads, d_z = backward_to_first(p, caches, dlogits, aggregates)
    a = caches.pop()[0]  # frees the first layer's r
    d_agg = _transpose(d_z, _per_layer(p, aggregates)[0])
    grads["w1"] = a.T @ d_agg
    grads["b1"] = d_z.sum(axis=0)
    return grads


def backward_to_first(
    p: LayerStack,
    caches,
    dlogits: np.ndarray,
    aggregates: Aggregates = None,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """``backward`` short of the first layer's parameters: the gradients of
    layers 2..L, and the gradient of the first layer's pre-activation ``z1``
    (a fresh array when there are two layers or more), from which
    ``backward`` forms those of ``w1`` and ``b1``.

    Each layer's cache is popped off ``caches`` once its weight gradient is
    taken, so only the first layer's is left afterwards. A layer's input is
    the ``r`` of the layer below, which that layer's gate still reads; the
    layer's own ``r`` is freed with its cache, before the gradient below it
    is allocated."""
    if len(caches) != p.n_layers:
        raise ValueError(
            f"{len(caches)} caches for {p.n_layers} layers: a backward pass consumes "
            f"the caches of one forward_cache"
        )
    aggs = _per_layer(p, aggregates)
    grads: dict[str, np.ndarray] = {}
    d_z = dlogits
    for li in reversed(range(1, p.n_layers)):
        d_agg = _transpose(d_z, aggs[li])
        grads[f"w{li + 1}"] = caches.pop()[0].T @ d_agg
        grads[f"b{li + 1}"] = d_z.sum(axis=0)
        _, r_prev, scale = caches[-1]
        d_z = d_agg @ p.layers[li][0].T
        _relu_gate(d_z, r_prev, scale)
    return grads, d_z


def _relu_gate(d: np.ndarray, r: np.ndarray, scale) -> None:
    """In place, the gradient ``d`` of a hidden layer's output, ``r`` after
    dropout, becomes that of its pre-activation: ``d *= scale`` (under
    dropout), then ``d *= (r > 0)``.

    These are the bits of the mask form ``d *= mask; d *= (r0 > 0)``, with
    ``r0`` the ReLU output before dropout and ``mask`` entries 0 or
    ``scale``, whenever ``|d| * scale`` is finite. Where the mask kept a
    value, ``r = r0 * scale > 0`` iff ``r0 > 0``, and both forms take
    ``d * scale`` times the same 0 or 1. Where it dropped one, ``r`` is 0,
    and both give ±0 with the sign of ``d``. An ``|d| * scale`` that
    overflows to inf at a dropped value gives NaN (``inf * 0``) where the
    mask form gives ±0; at a kept value both give ±inf or NaN. Such a
    gradient is at the edge of the dtype's range, where training has
    diverged anyway."""
    if scale is not None:
        d *= scale
    np.multiply(d, r > 0, out=d)


def eval_hidden(p: LayerStack, a: np.ndarray, aggregates: Aggregates = None) -> np.ndarray:
    """Eval-mode hidden layers: the last hidden activation, the same bits as
    ``forward_cache`` without dropout. Nothing is cached for backprop, so
    each layer adds its bias and applies ReLU in place."""
    for (w, b), aggregate in zip(p.layers[:-1], _per_layer(p, aggregates)):
        a = _project(a, w, aggregate)
        a += b
        np.maximum(a, 0, out=a)
    return a


def init_layers(dims, rng: np.random.Generator, dtype) -> LayerStack:
    """Glorot-uniform weights, drawn one layer at a time in order, and zero
    biases for the layer widths ``dims``."""
    return LayerStack([
        (glorot_uniform(rng, fan_in, fan_out, dtype), np.zeros(fan_out, dtype=dtype))
        for fan_in, fan_out in zip(dims[:-1], dims[1:])
    ])


ARRAY_ENCODING = "raw-le"
CHECKPOINT_DTYPES = ("float32", "float64")


# the kind of each non-object value json.load gives, as a refusal names it
JSON_KIND_NAMES = {type(None): "null", bool: "a bool", int: "a number", float: "a number",
                   str: "a string", list: "an array"}


def json_object(obj, keys, where: str) -> dict:
    """``obj`` when it is a JSON object with exactly the keys ``keys``; a
    ValueError naming ``where`` (file and place in it) otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {JSON_KIND_NAMES[type(obj)]}")
    missing = sorted(set(keys) - set(obj))
    unknown = sorted(set(obj) - set(keys))
    if missing or unknown:
        raise ValueError(f"{where}: missing keys {missing}, unknown keys {unknown}")
    return obj


_JSON_KINDS = {bool: "a JSON bool", int: "an integer", float: "a number", str: "a string"}


def json_value(value, kind: type, where: str):
    """``value`` as a ``kind`` (bool, int, float or str) when JSON holds it as
    one: a bool for a bool, a non-bool integer for an int, a non-bool number
    for a float and a string for a str; a ValueError naming ``where``
    otherwise. Nothing is truncated or parsed: ``2.7`` is not an int and
    ``"false"`` is not a bool."""
    allowed = (int, float) if kind is float else kind
    if isinstance(value, allowed) and (kind is bool) == isinstance(value, bool):
        try:
            return kind(value)
        except OverflowError:
            pass
    raise ValueError(f"{where} must be {_JSON_KINDS[kind]}, got {json.dumps(value)}")


def check_copy(where: str, value, source, source_name: str) -> None:
    """Refuse ``value``, a stored copy of ``source``, unless it is a JSON
    value of ``source``'s type (``json_value``) equal to it: a ValueError
    naming ``where``, both values and ``source_name``."""
    if json_value(value, type(source), where) != source:
        raise ValueError(
            f"{where} {json.dumps(value)} does not match {json.dumps(source)}, {source_name}"
        )


def dataclass_from_json(cls, obj, where: str, keys=None):
    """``cls(**obj)`` for a JSON object holding exactly the fields ``keys``
    of ``cls`` (all of them by default; the others keep their defaults),
    each bool, int, float or str field holding a JSON value of its type
    (``json_value``) and each ``list[float]`` field a list of numbers. A key
    that names a property of ``cls``, not a field, holds a copy of the
    property, which must equal the built object's (``check_copy``)."""
    obj = json_object(obj, [f.name for f in fields(cls)] if keys is None else keys, where)
    kinds = _type_hints(cls)
    values = {k: _json_field(v, kinds[k], f"{where} {k}") for k, v in obj.items() if k in kinds}
    try:
        built = cls(**values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None
    for name in obj.keys() - values.keys():
        check_copy(f"{where} {name}", obj[name], getattr(built, name), "the value its fields give")
    return built


@functools.cache
def _type_hints(cls) -> dict:
    """``get_type_hints(cls)``, resolved once per class: each call compiles
    every string annotation. Callers must not change the dict."""
    return get_type_hints(cls)


def _json_field(value, kind, where: str):
    if kind in _JSON_KINDS:
        return json_value(value, kind, where)
    if kind == list[float]:
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list of numbers, got {json.dumps(value)}")
        return [json_value(v, float, f"{where}[{i}]") for i, v in enumerate(value)]
    return value


def weights_path(path) -> Path:
    """The weights file of the checkpoint manifest at ``path``: the same
    path with the suffix ``.weights`` (``teacher.json`` keeps its weights
    in ``teacher.weights``)."""
    return Path(path).with_suffix(".weights")


def layers_to_json(stack: LayerStack) -> list:
    """A stack's manifest entry: the shape of each array, in the order
    ``write_checkpoint`` writes the arrays to the weights file."""
    return [{"w": {"shape": list(w.shape)}, "b": {"shape": list(b.shape)}} for w, b in stack.layers]


def write_checkpoint(path, doc: dict, stacks: Sequence[LayerStack]) -> None:
    """Write a checkpoint: the arrays of ``stacks`` as little-endian raw
    bytes to the weights file (``weights_path``), layer by layer, ``w``
    then ``b``, in the order ``doc`` lists the stacks, then the manifest
    ``doc`` with sorted keys and no timestamps, so equal checkpoints are
    equal bytes."""
    with open(weights_path(path), "wb") as f:
        for stack in stacks:
            for pair in stack.layers:
                for a in pair:
                    f.write(np.ascontiguousarray(a, a.dtype.newbyteorder("<")))
    doc = {**doc, "array_encoding": ARRAY_ENCODING}
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def _shape(obj, where: str) -> list[int]:
    shape = json_object(obj, ("shape",), where)["shape"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"{where}: shape {shape!r} is not a list of sizes")
    return shape


def _layer_shapes(obj, where: str) -> list[tuple[list[int], list[int]]]:
    """The (weight, bias) shapes of a stack's manifest entry; each layer's
    weight must chain onto the previous layer's output and carry a bias of
    its own output width."""
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{where}: layers must be a non-empty list")
    shapes: list[tuple[list[int], list[int]]] = []
    for i, layer in enumerate(obj, start=1):
        at = f"{where} layer {i}"
        layer = json_object(layer, ("b", "w"), at)
        w, b = _shape(layer["w"], f"{at} w"), _shape(layer["b"], f"{at} b")
        if len(w) != 2 or b != w[1:] or (shapes and w[0] != shapes[-1][0][1]):
            raise ValueError(
                f"{at}: weight {tuple(w)} and bias {tuple(b)} do not chain onto "
                f"{'the layer before' if shapes else 'an input'}"
            )
        shapes.append((w, b))
    return shapes


def read_layer_stacks(path, dtype: np.dtype, entries) -> list[LayerStack]:
    """Decode the layer stacks that the manifest at ``path`` lists, each
    given as ``(entry, where)``: its ``layers_to_json`` entry, in manifest
    order, and the place in the file that messages name. Every shape is
    checked first. Then the weights file must hold exactly the bytes of the
    listed arrays, or it is refused naming both counts, and it is read once,
    each array into an array of its own. A missing weights file is a
    FileNotFoundError naming it."""
    shapes = [_layer_shapes(entry, where) for entry, where in entries]
    need = sum(math.prod(s) for stack in shapes for pair in stack for s in pair) * dtype.itemsize
    weights = weights_path(path)
    try:
        f = open(weights, "rb")
    except FileNotFoundError:
        raise FileNotFoundError(f"{path}: weights file {weights} is missing") from None
    with f:
        size = os.fstat(f.fileno()).st_size
        if size != need:
            raise ValueError(f"{weights}: holds {size} bytes, the arrays of {path} take {need}")

        def read(shape) -> np.ndarray:
            a = np.empty(shape, dtype.newbyteorder("<"))
            if f.readinto(a) != a.nbytes:
                raise ValueError(f"{weights}: shorter than {need} bytes when read")
            return a.astype(dtype, copy=False)

        return [LayerStack([(read(w), read(b)) for w, b in stack]) for stack in shapes]


def write_json(path, doc: dict) -> None:
    """Write a report as JSON with sorted keys, a two-space indent and a
    final newline."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def read_manifest(path, kind: str, keys, command: str) -> tuple[dict, np.dtype]:
    """Read a manifest written by ``write_checkpoint`` and check its kind,
    array encoding, keys and dtype before any field is used; its arrays
    come from ``read_layer_stacks``. ``command`` is the CLI command that
    writes this kind of checkpoint."""
    try:
        doc = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not a JSON checkpoint ({exc})") from None
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise ValueError(f"{path}: not a {kind.replace('-', ' ')}")
    if doc.get("array_encoding") != ARRAY_ENCODING:
        raise ValueError(
            f"{path}: weights are not stored as {ARRAY_ENCODING} in "
            f"{weights_path(path).name}; checkpoints of earlier versions, with "
            f"decimal or base64 arrays in the manifest, are not read, run "
            f"`mlpcascade {command}` again to rewrite it"
        )
    json_object(doc, ("kind", "array_encoding", "dtype", *keys), str(path))
    if doc["dtype"] not in CHECKPOINT_DTYPES:
        raise ValueError(f"{path}: dtype {doc['dtype']!r} is not one of {CHECKPOINT_DTYPES}")
    return doc, np.dtype(doc["dtype"])
