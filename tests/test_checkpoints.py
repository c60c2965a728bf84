"""Checkpoint round trips and tampering, for teacher and cascade checkpoints.

Weights of any bit pattern (-0.0, subnormals, extremes, NaN payloads) must
load back with the fingerprint they were saved with, equal objects must
save to equal bytes, and an edited, truncated, extended, missing or
swapped weights file must be refused, never loaded as other weights.
Checkpoints of earlier versions, with the arrays in the manifest, are
refused with the command that rewrites them.
"""

import functools
import hashlib
import json
import shutil
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mlpcascade.cascade as cas
import mlpcascade.params as params
import mlpcascade.teacher as t
from mlpcascade.optim import TrainRecord
from mlpcascade.params import LayerStack, weights_path

PROPERTY = settings(max_examples=60, deadline=None)
DTYPES = [np.float32, np.float64]
BITS = {np.float32: np.uint32, np.float64: np.uint64}
# the soft-label fingerprint a cascade names: any sha256 hex digest
TEACHER_FP = hashlib.sha256(b"teacher").hexdigest()


def _layer_stack(draw, dims, dtype):
    """Layers whose values are any bit pattern of ``dtype``."""
    def values(shape):
        return draw(arrays(BITS[dtype], shape)).view(dtype)

    return [(values((fan_in, fan_out)), values((fan_out,)))
            for fan_in, fan_out in zip(dims[:-1], dims[1:])]


def seeded_init_fingerprint(feat, hidden, classes, n_layers, dtype, seed=0):
    """Student 1's ``init_fingerprint`` under a config of ``seed``, the one
    ``load_cascade`` re-derives."""
    rng = np.random.default_rng([seed, 0])
    return cas.init_student(feat, hidden, classes, n_layers, rng, dtype).fingerprint()


@st.composite
def cascades(draw, dtype):
    feat, hidden, classes = (draw(st.integers(1, 4)) for _ in range(3))
    n_layers = draw(st.integers(2, 3))
    k_total = draw(st.integers(1, 3))
    dims = [feat + hidden] + [hidden] * (n_layers - 1) + [classes]
    lam = st.floats(0.0, 0.5)
    students = [LayerStack(_layer_stack(draw, dims, dtype)) for _ in range(k_total)]
    # a consistent chain: each student after the first starts from the
    # weights and the last lambda of the one before
    metas = []
    init_fp = seeded_init_fingerprint(feat, hidden, classes, n_layers, dtype)
    history = [draw(lam)]
    for student in students:
        history = [history[-1], *draw(st.lists(lam, max_size=2))]
        metas.append(
            cas.StudentTrainMeta(
                epochs=draw(st.integers(1, 9)),
                best_epoch=1,
                best_val_acc=draw(st.floats(0.0, 1.0)),
                init_fingerprint=init_fp,
                lambda_history=history,
            )
        )
        init_fp = student.fingerprint()
    cfg = cas.CascadeConfig(
        n_students=k_total, hidden_dim=hidden, n_layers=n_layers, max_epochs=3, patience=1
    )
    return cas.Cascade(students, metas, teacher_fingerprint=TEACHER_FP, config=cfg)


@st.composite
def teachers(draw, dtype):
    feat, hidden, classes = (draw(st.integers(1, 4)) for _ in range(3))
    depth = draw(st.sampled_from([2, 3]))
    dims = [feat] + [hidden] * (depth - 1) + [classes]
    params = LayerStack(_layer_stack(draw, dims, dtype))
    soft = np.full((3, classes), 1.0 / classes, dtype=dtype)
    meta = TrainRecord(epochs=2, best_epoch=1, best_val_acc=0.5)
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


def _tamper(path, draw) -> str:
    """Flip bits of one drawn byte of the weights file of the manifest at
    ``path``, or truncate or extend the file to a drawn length; what a
    refusal must say."""
    weights = weights_path(path)
    raw = bytearray(weights.read_bytes())
    if draw(st.booleans()):
        i = draw(st.integers(0, len(raw) - 1))
        raw[i] ^= draw(st.integers(1, 255))
        weights.write_bytes(raw)
        return "weights do not match their stored fingerprint"
    size = draw(st.integers(0, len(raw) + 16).filter(lambda n: n != len(raw)))
    weights.write_bytes(bytes(raw[:size]) + b"\x01" * (size - len(raw)))
    return f"{weights}: holds {size} bytes, the arrays of {path} take {len(raw)}"


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_cascade_round_trip_and_stable_bytes(ckpt_dir, dtype, data):
    casc = data.draw(cascades(dtype))
    a, b = ckpt_dir / "a.json", ckpt_dir / "b.json"
    cas.save_cascade(casc, a)
    cas.save_cascade(casc, b)
    assert a.read_bytes() == b.read_bytes()
    assert weights_path(a).read_bytes() == weights_path(b).read_bytes()
    loaded = cas.load_cascade(a)
    assert loaded.fingerprint() == casc.fingerprint()
    for got, saved in zip(loaded.students, casc.students):
        assert got.fingerprint() == saved.fingerprint()
        for x, y in zip(got.layers, saved.layers):
            for u, v in zip(x, y):
                assert u.dtype == dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
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
    assert weights_path(a).read_bytes() == weights_path(b).read_bytes()
    loaded, loaded_cfg = _load_teacher(ckpt_dir, "a.json")
    assert loaded.params.fingerprint() == art.params.fingerprint()
    for x, y in zip(loaded.params.layers, art.params.layers):
        for u, v in zip(x, y):
            assert u.dtype == dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
    assert loaded_cfg == cfg
    assert loaded.train_meta == art.train_meta


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_cascade_with_an_edited_array_is_refused(ckpt_dir, dtype, data):
    path = ckpt_dir / "cascade.json"
    cas.save_cascade(data.draw(cascades(dtype)), path)
    message = _tamper(path, data.draw)
    with pytest.raises(ValueError, match="cascade") as err:
        cas.load_cascade(path)
    assert message in str(err.value)


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_teacher_with_an_edited_array_is_refused(ckpt_dir, dtype, data):
    art, cfg = data.draw(teachers(dtype))
    path = _save_teacher(art, cfg, ckpt_dir)
    message = _tamper(path, data.draw)
    with pytest.raises(ValueError, match="teacher") as err:
        _load_teacher(ckpt_dir)
    assert message in str(err.value)


def _two_students(dtype, scale=1.0):
    """A consistent two-student cascade with a config, its weights drawn
    from a fixed seed and multiplied by ``scale``."""
    rng = np.random.default_rng(7)
    dims = [5, 3, 3, 2]
    students = [
        LayerStack([(scale * rng.standard_normal((i, o)).astype(dtype),
                     scale * rng.standard_normal(o).astype(dtype))
                    for i, o in zip(dims[:-1], dims[1:])])
        for _ in range(2)
    ]
    init_fp = seeded_init_fingerprint(2, 3, 2, 3, dtype)
    metas = [
        cas.StudentTrainMeta(1, 1, 0.5, init_fingerprint=init_fp, lambda_history=[0.1, 0.2]),
        cas.StudentTrainMeta(1, 1, 0.5, init_fingerprint=students[0].fingerprint(),
                             lambda_history=[0.2, 0.3]),
    ]
    cfg = cas.CascadeConfig(n_students=2, hidden_dim=3, n_layers=3, max_epochs=3, patience=1)
    return cas.Cascade(students, metas, TEACHER_FP, cfg)


def _small_teacher(dtype, scale=1.0):
    rng = np.random.default_rng(8)
    params = LayerStack([
        (scale * rng.standard_normal((3, 4)).astype(dtype),
         scale * rng.standard_normal(4).astype(dtype)),
        (scale * rng.standard_normal((4, 2)).astype(dtype),
         scale * rng.standard_normal(2).astype(dtype)),
    ])
    art = t.TeacherArtifact(params, np.full((3, 2), 0.5, dtype), TrainRecord(2, 1, 0.5))
    return art, t.TeacherConfig(hidden_dim=4, max_epochs=3, patience=1)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", ["cascade", "teacher"])
def test_every_single_byte_flip_is_refused(tmp_path, dtype, kind):
    if kind == "cascade":
        path = tmp_path / "cascade.json"
        cas.save_cascade(_two_students(dtype), path)
        load = functools.partial(cas.load_cascade, path)
    else:
        path = _save_teacher(*_small_teacher(dtype), tmp_path)
        load = functools.partial(_load_teacher, tmp_path)
    weights = weights_path(path)
    raw = weights.read_bytes()
    for i in range(len(raw)):
        edited = bytearray(raw)
        edited[i] ^= i % 255 + 1
        weights.write_bytes(edited)
        with pytest.raises(ValueError) as err:
            load()
        # the two students take half the file each
        k = 2 * i // len(raw) + 1
        where = f"{path} student {k}: " if kind == "cascade" else f"{path}: teacher "
        assert str(err.value) == where + "weights do not match their stored fingerprint"


def test_missing_weights_file_is_named(tmp_path):
    path = tmp_path / "cascade.json"
    cas.save_cascade(_two_students(np.float32), path)
    teacher_path = _save_teacher(*_small_teacher(np.float32), tmp_path)
    for ckpt in (path, teacher_path):
        weights_path(ckpt).unlink()
    with pytest.raises(FileNotFoundError) as err:
        cas.load_cascade(path)
    assert str(err.value) == f"{path}: weights file {tmp_path / 'cascade.weights'} is missing"
    with pytest.raises(FileNotFoundError) as err:
        _load_teacher(tmp_path)
    assert str(err.value) == (
        f"{teacher_path}: weights file {tmp_path / 'teacher.weights'} is missing"
    )


@pytest.mark.parametrize("dtype", DTYPES)
def test_another_checkpoints_weights_are_refused(tmp_path, dtype):
    """The weights file of another checkpoint of the same shapes is refused
    by the fingerprints of the manifest it sits beside."""
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    cas.save_cascade(_two_students(dtype), a / "cascade.json")
    cas.save_cascade(_two_students(dtype, scale=2.0), b / "cascade.json")
    _save_teacher(*_small_teacher(dtype), a)
    _save_teacher(*_small_teacher(dtype, scale=2.0), b)
    for name in ("cascade.weights", "teacher.weights"):
        assert (a / name).stat().st_size == (b / name).stat().st_size
        shutil.copy(b / name, a / name)
    with pytest.raises(ValueError) as err:
        cas.load_cascade(a / "cascade.json")
    assert str(err.value) == (
        f"{a / 'cascade.json'} student 1: weights do not match their stored fingerprint"
    )
    with pytest.raises(ValueError) as err:
        _load_teacher(a)
    assert str(err.value) == (
        f"{a / 'teacher.json'}: teacher weights do not match their stored fingerprint"
    )


def test_type_hints_are_resolved_once_per_class(tmp_path, monkeypatch):
    path = tmp_path / "cascade.json"
    cas.save_cascade(_two_students(np.float32), path)
    resolved = []

    def counted(cls):
        resolved.append(cls.__name__)
        return get_type_hints(cls)

    monkeypatch.setattr(params, "get_type_hints", counted)
    params._type_hints.cache_clear()
    for _ in range(3):
        cas.load_cascade(path)
    assert sorted(resolved) == [
        "CascadeConfig", "DistillConfig", "MixupConfig", "StudentTrainMeta"
    ]


# A one-student cascade and a 2-2-2 teacher as earlier versions wrote them,
# their arrays in the manifest: base64 of the little-endian bytes, and before
# that decimal lists without an encoding key.
FROZEN_CASCADE = (
    '{"array_encoding": "base64-le", "config": null, "dtype": "float32", '
    '"kind": "cascade-checkpoint", "n_students": 1, "students": [{"fingerprint": '
    '"5a0f129f0025bc149943b6a08e09e75c04aaeb0b40912b9b8912c30cb66cc1bc", "layers": '
    '[{"b": {"data": "AACAPw==", "shape": [1]}, "w": {"data": "AACAPwAAgD8=", '
    '"shape": [2, 1]}}, {"b": {"data": "AACAPw==", "shape": [1]}, "w": {"data": '
    '"AACAPw==", "shape": [1, 1]}}], "meta": {"best_epoch": 1, "best_val_acc": 0.5, '
    '"epochs": 1, "final_lambda": 0.1, "init_fingerprint": "init", "lambda_history": '
    '[0.1]}}], "teacher_fingerprint": "teacher"}\n'
)
FROZEN_TEACHER = (
    '{"array_encoding": "base64-le", "config": {"depth": 2, "dropout": 0.5, '
    '"hidden_dim": 2, "lr": 0.01, "max_epochs": 200, "patience": 50, "seed": 0, '
    '"weight_decay": 0.0005}, "dtype": "float32", "fingerprint": '
    '"76560b67cda656232c00f80a95b41da0ff3405874749469358421b588edde6a2", "kind": '
    '"teacher-checkpoint", "layers": [{"b": {"data": "AACAPwAAgD8=", "shape": [2]}, '
    '"w": {"data": "AACAPwAAgD8AAIA/AACAPw==", "shape": [2, 2]}}, {"b": {"data": '
    '"AACAPwAAgD8=", "shape": [2]}, "w": {"data": "AACAPwAAgD8AAIA/AACAPw==", '
    '"shape": [2, 2]}}], "soft_label_fingerprint": '
    '"0f7eb975204e6ef651410aaaf72c66f41cdbce6ae6b57f3d4ae7716454fe4362", '
    '"train_meta": {"best_epoch": 1, "best_val_acc": 0.5, "epochs": 2, "seed": 0}}\n'
)


def _decimal(text):
    """The decimal format: every array's ``data`` a list of numbers, and no
    ``array_encoding`` key."""
    return text.replace('"array_encoding": "base64-le", ', "").replace(
        '"AACAPw=="', "[1.0]").replace('"AACAPwAAgD8="', "[1.0, 1.0]").replace(
        '"AACAPwAAgD8AAIA/AACAPw=="', "[1.0, 1.0, 1.0, 1.0]")


@pytest.mark.parametrize("form", ["base64", "decimal"])
def test_checkpoints_of_earlier_versions_are_refused(tmp_path, form):
    for text, load, command in (
        (FROZEN_CASCADE, cas.load_cascade, "distill"),
        (FROZEN_TEACHER, lambda p: t.load_teacher(p, tmp_path / "soft.csv"), "train-teacher"),
    ):
        path = tmp_path / "old.json"
        path.write_text(text if form == "base64" else _decimal(text))
        assert ('"data": "' in path.read_text()) == (form == "base64")
        with pytest.raises(ValueError) as err:
            load(path)
        assert str(err.value) == (
            f"{path}: weights are not stored as raw-le in old.weights; checkpoints of "
            "earlier versions, with decimal or base64 arrays in the manifest, are not "
            f"read, run `mlpcascade {command}` again to rewrite it"
        )


CONFIG_EDITS = [
    # (section of the stored config, key, value, expected type)
    ("mixup", "sign_inverted", "no", "a JSON bool"),
    ("mixup", "sign_inverted", 1, "a JSON bool"),
    ("mixup", "gamma", "0.9", "a number"),
    ("distill", "alpha", False, "a number"),
    (None, "n_students", True, "an integer"),
    (None, "hidden_dim", 8.0, "an integer"),
    (None, "lr", None, "a number"),
]


@pytest.mark.parametrize("section, key, value, kind", CONFIG_EDITS)
def test_cascade_config_of_another_type_is_refused(ckpt_dir, section, key, value, kind):
    w, b = np.ones((2, 1), np.float32), np.ones(1, np.float32)
    meta = cas.StudentTrainMeta(1, 1, 0.5, init_fingerprint="init", lambda_history=[0.1])
    cfg = cas.CascadeConfig(n_students=1, hidden_dim=1, max_epochs=3, patience=1)
    path = ckpt_dir / "typed.json"
    cas.save_cascade(cas.Cascade([LayerStack([(w, b), (w[:1], b)])], [meta], TEACHER_FP, cfg), path)
    doc = json.loads(path.read_text())
    (doc["config"] if section is None else doc["config"][section])[key] = value
    path.write_text(json.dumps(doc))
    where = "config" if section is None else f"config {section}"
    message = f"{path} {where} {key} must be {kind}, got {json.dumps(value)}"
    with pytest.raises(ValueError) as err:
        cas.load_cascade(path)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "key, value, kind",
    [("depth", 2.0, "an integer"), ("seed", "0", "an integer"), ("dropout", True, "a number")],
)
def test_teacher_config_of_another_type_is_refused(ckpt_dir, key, value, kind):
    params = LayerStack([(np.ones((2, 2)), np.ones(2)), (np.ones((2, 2)), np.ones(2))])
    art = t.TeacherArtifact(params, np.full((3, 2), 0.5), TrainRecord(2, 1, 0.5))
    path = _save_teacher(art, t.TeacherConfig(hidden_dim=2), ckpt_dir, "typed.json")
    doc = json.loads(path.read_text())
    doc["config"][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        _load_teacher(ckpt_dir, "typed.json")
    assert str(err.value) == f"{path} config {key} must be {kind}, got {json.dumps(value)}"


@pytest.mark.parametrize(
    "key, value, kind",
    [("epochs", "six", "an integer"), ("best_val_acc", "high", "a number"),
     ("best_epoch", True, "an integer"), ("seed", 0.0, "an integer")],
)
def test_teacher_meta_of_another_type_is_refused(ckpt_dir, key, value, kind):
    params = LayerStack([(np.ones((2, 2)), np.ones(2)), (np.ones((2, 2)), np.ones(2))])
    art = t.TeacherArtifact(params, np.full((3, 2), 0.5), TrainRecord(2, 1, 0.5))
    path = _save_teacher(art, t.TeacherConfig(hidden_dim=2), ckpt_dir, "typed-meta.json")
    doc = json.loads(path.read_text())
    doc["train_meta"][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        _load_teacher(ckpt_dir, "typed-meta.json")
    assert str(err.value) == f"{path} train_meta {key} must be {kind}, got {json.dumps(value)}"


@pytest.mark.parametrize(
    "key, value, where, kind",
    [
        ("best_val_acc", "high", "best_val_acc", "a number"),
        ("epochs", True, "epochs", "an integer"),
        ("init_fingerprint", 7, "init_fingerprint", "a string"),
        ("lambda_history", [0.1, "x"], "lambda_history[1]", "a number"),
        ("lambda_history", [0.1, False], "lambda_history[1]", "a number"),
        ("lambda_history", 0.1, "lambda_history", "a list of numbers"),
        ("final_lambda", "0.2", "final_lambda", "a number"),
        ("final_lambda", None, "final_lambda", "a number"),
    ],
)
def test_student_meta_of_another_type_is_refused(ckpt_dir, key, value, where, kind):
    path = ckpt_dir / "typed-meta.json"
    _save_one_student(path, lambda_history=[0.1, 0.2])
    doc = json.loads(path.read_text())
    doc["students"][0]["meta"][key] = value
    path.write_text(json.dumps(doc))
    got = json.dumps(value[1] if where.endswith("]") else value)
    with pytest.raises(ValueError) as err:
        cas.load_cascade(path)
    assert str(err.value) == f"{path} student 1 meta {where} must be {kind}, got {got}"


def test_teacher_seed_unlike_its_config_is_refused(ckpt_dir):
    params = LayerStack([(np.ones((2, 2)), np.ones(2)), (np.ones((2, 2)), np.ones(2))])
    art = t.TeacherArtifact(params, np.full((3, 2), 0.5), TrainRecord(2, 1, 0.5))
    path = _save_teacher(art, t.TeacherConfig(hidden_dim=2, seed=4), ckpt_dir, "seed.json")
    doc = json.loads(path.read_text())
    assert doc["train_meta"]["seed"] == 4
    doc["train_meta"]["seed"] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        _load_teacher(ckpt_dir, "seed.json")
    assert str(err.value) == f"{path} train_meta seed 3 does not match 4, the config seed"


def _save_one_student(path, epochs=1, best_epoch=1, lambda_history=(0.1,)):
    """Save a consistent one-student cascade (feat_dim 1, hidden_dim 1,
    2 layers, config seed 0) at ``path``."""
    w, b = np.ones((2, 1), np.float32), np.ones(1, np.float32)
    meta = cas.StudentTrainMeta(
        epochs, best_epoch, 0.5, init_fingerprint=seeded_init_fingerprint(1, 1, 1, 2, np.float32),
        lambda_history=list(lambda_history),
    )
    cfg = cas.CascadeConfig(n_students=1, hidden_dim=1, max_epochs=3, patience=1)
    cas.save_cascade(cas.Cascade([LayerStack([(w, b), (w[:1], b)])], [meta], TEACHER_FP, cfg), path)
    return meta


def _chain_of_two(path):
    """Save a consistent two-student cascade at ``path``; its manifest."""
    w, b = np.ones((2, 1), np.float32), np.ones(1, np.float32)
    first = LayerStack([(w, b), (w[:1], b)])
    second = LayerStack([(w * 2, b), (w[:1], b)])
    init_fp = seeded_init_fingerprint(1, 1, 1, 2, np.float32)
    metas = [
        cas.StudentTrainMeta(1, 1, 0.5, init_fingerprint=init_fp, lambda_history=[0.1, 0.2]),
        cas.StudentTrainMeta(
            1, 1, 0.5, init_fingerprint=first.fingerprint(), lambda_history=[0.2, 0.3]
        ),
    ]
    cfg = cas.CascadeConfig(n_students=2, hidden_dim=1, max_epochs=3, patience=1)
    cas.save_cascade(cas.Cascade([first, second], metas, TEACHER_FP, cfg), path)
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda metas: metas[0].update(final_lambda=0.25),
            "student 1 meta final_lambda 0.25 does not match 0.2, the value its fields give",
        ),
        (
            lambda metas: metas[1].update(final_lambda=0.2),
            "student 2 meta final_lambda 0.2 does not match 0.3, the value its fields give",
        ),
        (
            lambda metas: metas[1].update(init_fingerprint="init"),
            """student 2 meta init_fingerprint "init" does not match "{fp}", student 1's """
            "stored fingerprint",
        ),
        (
            lambda metas: metas[1]["lambda_history"].__setitem__(0, 0.1),
            "student 2 meta lambda_history[0] 0.1 does not match 0.2, student 1's final_lambda",
        ),
        (
            # the chain is checked against the first student's own history,
            # edited consistently
            lambda metas: metas[0].update(lambda_history=[0.1, 0.4], final_lambda=0.4),
            "student 2 meta lambda_history[0] 0.2 does not match 0.4, student 1's final_lambda",
        ),
    ],
)
def test_stored_copies_unlike_their_sources_are_refused(ckpt_dir, edit, message):
    path = ckpt_dir / "chain.json"
    doc = _chain_of_two(path)
    assert cas.load_cascade(path).metas[1].final_lambda == 0.3
    edit([s["meta"] for s in doc["students"]])
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        cas.load_cascade(path)
    fp = doc["students"][0]["fingerprint"]
    assert str(err.value) == f"{path} " + message.format(fp=fp)


def test_empty_lambda_history_is_refused(ckpt_dir):
    with pytest.raises(ValueError, match="^lambda_history must not be empty$"):
        cas.StudentTrainMeta(1, 1, 0.5, init_fingerprint="init", lambda_history=[])
    path = ckpt_dir / "chain.json"
    doc = _chain_of_two(path)
    doc["students"][0]["meta"]["lambda_history"] = []
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        cas.load_cascade(path)
    assert str(err.value) == f"{path} student 1 meta: lambda_history must not be empty"


@pytest.mark.parametrize("value", [-0.1, 0.5000000000000001, 1.5, float("nan"), float("inf")])
def test_lambda_outside_the_clamp_range_is_refused(ckpt_dir, value):
    """Every mixing rate ``MixupConfig.update`` gives is in [0, 0.5]; a
    stored one outside it, or not finite, is refused by its place."""
    with pytest.raises(ValueError, match=r"^lambda_history\[1\] .* outside \[0, 0.5\]$"):
        cas.StudentTrainMeta(1, 1, 0.5, init_fingerprint="init", lambda_history=[0.1, value])
    path = ckpt_dir / "chain.json"
    doc = _chain_of_two(path)
    doc["students"][1]["meta"]["lambda_history"][1] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        cas.load_cascade(path)
    assert str(err.value) == (
        f"{path} student 2 meta: lambda_history[1] {value} outside [0, 0.5]"
    )


@pytest.mark.parametrize(
    "value", ["not-a-digest", TEACHER_FP.upper(), TEACHER_FP[:-1], TEACHER_FP + "0", ""]
)
def test_teacher_fingerprint_that_is_not_a_digest_is_refused(ckpt_dir, value):
    path = ckpt_dir / "chain.json"
    doc = _chain_of_two(path)
    assert cas.load_cascade(path).teacher_fingerprint == TEACHER_FP
    doc["teacher_fingerprint"] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        cas.load_cascade(path)
    assert str(err.value) == (
        f"{path} teacher_fingerprint {json.dumps(value)} is not a sha256 digest of "
        "64 lowercase hex digits"
    )


def test_stored_metas_load_with_their_types(ckpt_dir):
    path = ckpt_dir / "typed-meta.json"
    meta = _save_one_student(path, epochs=3, best_epoch=2, lambda_history=[0.1, 0.2])
    doc = json.loads(path.read_text())
    doc["students"][0]["meta"]["lambda_history"] = [0, 0.2]  # an integer is a number
    path.write_text(json.dumps(doc))
    (loaded,) = cas.load_cascade(path).metas
    assert loaded == cas.StudentTrainMeta(
        3, 2, 0.5, init_fingerprint=meta.init_fingerprint, lambda_history=[0.0, 0.2]
    )
    assert type(loaded.lambda_history[0]) is float


def test_integer_for_a_float_loads_as_a_float(ckpt_dir):
    w, b = np.ones((2, 1), np.float32), np.ones(1, np.float32)
    init_fp = seeded_init_fingerprint(1, 1, 1, 2, np.float32)
    meta = cas.StudentTrainMeta(1, 1, 0.5, init_fingerprint=init_fp, lambda_history=[0.1])
    cfg = cas.CascadeConfig(n_students=1, hidden_dim=1, max_epochs=3, patience=1)
    path = ckpt_dir / "typed.json"
    cas.save_cascade(cas.Cascade([LayerStack([(w, b), (w[:1], b)])], [meta], TEACHER_FP, cfg), path)
    doc = json.loads(path.read_text())
    doc["config"]["distill"]["alpha"] = 1
    path.write_text(json.dumps(doc))
    alpha = cas.load_cascade(path).config.distill.alpha
    assert type(alpha) is float and alpha == 1.0


def test_student_1_init_fingerprint_is_checked_against_the_config_seed(ckpt_dir):
    w, b = np.ones((2, 1), np.float32), np.ones(1, np.float32)
    meta = cas.StudentTrainMeta(1, 1, 0.5, init_fingerprint="x", lambda_history=[0.1])
    cfg = cas.CascadeConfig(n_students=1, hidden_dim=1, max_epochs=3, patience=1, seed=5)
    path = ckpt_dir / "init.json"
    student = LayerStack([(w, b), (w[:1], b)])
    cas.save_cascade(cas.Cascade([student], [meta], TEACHER_FP, cfg), path)
    fp = seeded_init_fingerprint(1, 1, 1, 2, np.float32, seed=5)
    with pytest.raises(ValueError) as err:
        cas.load_cascade(path)
    assert str(err.value) == (
        f'{path} student 1 meta init_fingerprint "x" does not match "{fp}", '
        "the fingerprint of the config seed's init"
    )


def test_cascade_without_a_config_is_refused(ckpt_dir):
    """Student 1's init is checked against the config's seed, so neither
    side writes or reads a checkpoint without one: not even one whose
    forged ``init_fingerprint`` would pass any other check."""
    w, b = np.ones((2, 1), np.float32), np.ones(1, np.float32)
    meta = cas.StudentTrainMeta(1, 1, 0.5, init_fingerprint="forged", lambda_history=[0.1])
    casc = cas.Cascade([LayerStack([(w, b), (w[:1], b)])], [meta], TEACHER_FP)
    path = ckpt_dir / "no-config.json"
    with pytest.raises(ValueError) as err:
        cas.save_cascade(casc, path)
    assert str(err.value) == "save_cascade: the cascade has no config to store"
    assert not path.exists()
    _save_one_student(path)
    doc = json.loads(path.read_text())
    doc["config"] = None
    doc["students"][0]["meta"]["init_fingerprint"] = "forged"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        cas.load_cascade(path)
    assert str(err.value) == f"{path} config: expected a JSON object, got null"


@pytest.mark.parametrize("value, kind", [
    (None, "null"), (True, "a bool"), (3, "a number"), (2.5, "a number"),
    ("x", "a string"), ([1], "an array"),
])
def test_a_non_object_is_refused_by_its_json_kind(value, kind):
    with pytest.raises(ValueError) as err:
        params.json_object(value, ("a",), "f.json config")
    assert str(err.value) == f"f.json config: expected a JSON object, got {kind}"
