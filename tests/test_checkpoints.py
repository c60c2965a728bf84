"""Checkpoint round trips and tampering, for teacher and cascade checkpoints.

Weights of any bit pattern (-0.0, subnormals, extremes, non-finite values)
must load back with the fingerprint they were saved with, equal objects
must save to equal bytes, and an edited or truncated weight array must be
refused with a ValueError, never loaded as other weights.
"""

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mlpcascade.cascade as cas
import mlpcascade.teacher as t

PROPERTY = settings(max_examples=60, deadline=None)
DTYPES = [np.float32, np.float64]
BASE64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
# Base64 alphabet, padding, and characters outside it.
REPLACEMENTS = BASE64 + "=-_!. \né"


def _layer_stack(draw, dims, dtype):
    width = 32 if dtype == np.float32 else 64
    values = st.floats(width=width)
    return [
        (
            draw(arrays(dtype, (fan_in, fan_out), elements=values)),
            draw(arrays(dtype, (fan_out,), elements=values)),
        )
        for fan_in, fan_out in zip(dims[:-1], dims[1:])
    ]


@st.composite
def cascades(draw, dtype):
    feat, hidden, classes = (draw(st.integers(1, 4)) for _ in range(3))
    n_layers = draw(st.integers(2, 3))
    k_total = draw(st.integers(1, 3))
    dims = [feat + hidden] + [hidden] * (n_layers - 1) + [classes]
    lam = st.floats(0.0, 0.5)
    students = [cas.StudentParams(_layer_stack(draw, dims, dtype)) for _ in range(k_total)]
    metas = [
        cas.StudentTrainMeta(
            epochs=draw(st.integers(1, 9)),
            best_epoch=1,
            best_val_acc=draw(st.floats(0.0, 1.0)),
            final_lambda=draw(lam),
            init_fingerprint="init",
            lambda_history=draw(st.lists(lam, min_size=1, max_size=3)),
        )
        for _ in range(k_total)
    ]
    cfg = cas.CascadeConfig(
        n_students=k_total, hidden_dim=hidden, n_layers=n_layers, max_epochs=3, patience=1
    )
    return cas.Cascade(students, metas, teacher_fingerprint="teacher", config=cfg)


@st.composite
def teachers(draw, dtype):
    feat, hidden, classes = (draw(st.integers(1, 4)) for _ in range(3))
    depth = draw(st.sampled_from([2, 3]))
    dims = [feat] + [hidden] * (depth - 1) + [classes]
    params = t.TeacherParams(_layer_stack(draw, dims, dtype))
    soft = np.full((3, classes), 1.0 / classes, dtype=dtype)
    meta = t.TrainMeta(epochs=2, best_epoch=1, best_val_acc=0.5, seed=0)
    cfg = t.TeacherConfig(hidden_dim=hidden, depth=depth, max_epochs=3, patience=1)
    return t.TeacherArtifact(params, soft, meta), cfg


@pytest.fixture(scope="module")
def ckpt_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ckpt")


def _save_teacher(art, cfg, directory, name="teacher.json"):
    t.save_teacher(art, cfg, directory / name)
    t.export_soft_labels(art, directory / "soft.csv")
    return directory / name


def _load_teacher(directory, name="teacher.json"):
    return t.load_teacher(directory / name, directory / "soft.csv")


def _tamper(path, layers_of, draw):
    """Edit or truncate the data of one drawn array in the manifest at
    ``path``; ``layers_of(doc)`` lists the layer stacks of the checkpoint."""
    doc = json.loads(path.read_text())
    stacks = layers_of(doc)
    layers = stacks[draw(st.integers(0, len(stacks) - 1))]
    layer = layers[draw(st.integers(0, len(layers) - 1))]
    array = layer[draw(st.sampled_from(["w", "b"]))]
    data = array["data"]
    if draw(st.booleans()):
        array["data"] = data[: draw(st.integers(0, len(data) - 1))]
    else:
        i = draw(st.integers(0, len(data) - 1))
        new = draw(st.sampled_from(REPLACEMENTS).filter(lambda ch: ch != data[i]))
        array["data"] = data[:i] + new + data[i + 1:]
    path.write_text(json.dumps(doc, sort_keys=True))


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_cascade_round_trip_and_stable_bytes(ckpt_dir, dtype, data):
    casc = data.draw(cascades(dtype))
    a, b = ckpt_dir / "a.json", ckpt_dir / "b.json"
    cas.save_cascade(casc, a)
    cas.save_cascade(casc, b)
    assert a.read_bytes() == b.read_bytes()
    loaded = cas.load_cascade(a)
    assert loaded.fingerprint() == casc.fingerprint()
    assert [s.fingerprint() for s in loaded.students] == [
        s.fingerprint() for s in casc.students
    ]
    assert all(s.layers[0][0].dtype == dtype for s in loaded.students)
    assert loaded.metas == casc.metas
    assert loaded.config == casc.config
    assert loaded.teacher_fingerprint == casc.teacher_fingerprint


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_teacher_round_trip_and_stable_bytes(ckpt_dir, dtype, data):
    art, cfg = data.draw(teachers(dtype))
    a = _save_teacher(art, cfg, ckpt_dir, "a.json")
    b = _save_teacher(art, cfg, ckpt_dir, "b.json")
    assert a.read_bytes() == b.read_bytes()
    loaded, loaded_cfg = _load_teacher(ckpt_dir, "a.json")
    assert loaded.params.fingerprint() == art.params.fingerprint()
    assert loaded.params.layers[0][0].dtype == dtype
    assert loaded_cfg == cfg
    assert loaded.train_meta == art.train_meta


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_cascade_with_an_edited_array_is_refused(ckpt_dir, dtype, data):
    path = ckpt_dir / "cascade.json"
    cas.save_cascade(data.draw(cascades(dtype)), path)
    _tamper(path, lambda doc: [s["layers"] for s in doc["students"]], data.draw)
    with pytest.raises(ValueError, match="cascade.json student"):
        cas.load_cascade(path)


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_teacher_with_an_edited_array_is_refused(ckpt_dir, dtype, data):
    art, cfg = data.draw(teachers(dtype))
    path = _save_teacher(art, cfg, ckpt_dir)
    _tamper(path, lambda doc: [doc["layers"]], data.draw)
    with pytest.raises(ValueError, match="teacher.json"):
        _load_teacher(ckpt_dir)


def test_non_canonical_base64_is_refused(ckpt_dir):
    # Four bytes leave four unused bits in the last base64 character, so
    # another character there decodes to the same bytes.
    w, b = np.ones((2, 1), np.float32), np.ones(1, np.float32)
    student = cas.StudentParams([(w, b), (w[:1], b)])
    meta = cas.StudentTrainMeta(1, 1, 0.5, 0.1, "init", [0.1])
    path = ckpt_dir / "cascade.json"
    cas.save_cascade(cas.Cascade([student], [meta], "teacher"), path)
    doc = json.loads(path.read_text())
    bias = doc["students"][0]["layers"][0]["b"]
    data = bias["data"]
    edited = data[:5] + BASE64[BASE64.index(data[5]) ^ 1] + data[6:]
    assert base64.b64decode(edited) == base64.b64decode(data)
    bias["data"] = edited
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="student 1 layer 1 b: data is not canonical"):
        cas.load_cascade(path)
