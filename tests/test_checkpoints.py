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
from mlpcascade.optim import TrainRecord
from mlpcascade.params import LayerStack

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
    return cas.Cascade(students, metas, teacher_fingerprint="teacher", config=cfg)


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
    student = LayerStack([(w, b), (w[:1], b)])
    meta = cas.StudentTrainMeta(1, 1, 0.5, init_fingerprint="init", lambda_history=[0.1])
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
    cas.save_cascade(cas.Cascade([LayerStack([(w, b), (w[:1], b)])], [meta], "t", cfg), path)
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
    w, b = np.ones((2, 1), np.float32), np.ones(1, np.float32)
    meta = cas.StudentTrainMeta(1, 1, 0.5, init_fingerprint="init", lambda_history=[0.1, 0.2])
    path = ckpt_dir / "typed-meta.json"
    cas.save_cascade(cas.Cascade([LayerStack([(w, b), (w[:1], b)])], [meta], "t"), path)
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


def _chain_of_two(path):
    """Save a consistent two-student cascade at ``path``; its manifest."""
    w, b = np.ones((2, 1), np.float32), np.ones(1, np.float32)
    first = LayerStack([(w, b), (w[:1], b)])
    second = LayerStack([(w * 2, b), (w[:1], b)])
    metas = [
        cas.StudentTrainMeta(1, 1, 0.5, init_fingerprint="init", lambda_history=[0.1, 0.2]),
        cas.StudentTrainMeta(
            1, 1, 0.5, init_fingerprint=first.fingerprint(), lambda_history=[0.2, 0.3]
        ),
    ]
    cas.save_cascade(cas.Cascade([first, second], metas, "t"), path)
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


def test_stored_metas_load_with_their_types(ckpt_dir):
    w, b = np.ones((2, 1), np.float32), np.ones(1, np.float32)
    meta = cas.StudentTrainMeta(3, 2, 0.5, init_fingerprint="init", lambda_history=[0.1, 0.2])
    path = ckpt_dir / "typed-meta.json"
    cas.save_cascade(cas.Cascade([LayerStack([(w, b), (w[:1], b)])], [meta], "t"), path)
    doc = json.loads(path.read_text())
    doc["students"][0]["meta"]["lambda_history"] = [0, 0.2]  # an integer is a number
    path.write_text(json.dumps(doc))
    (loaded,) = cas.load_cascade(path).metas
    assert loaded == cas.StudentTrainMeta(
        3, 2, 0.5, init_fingerprint="init", lambda_history=[0.0, 0.2]
    )
    assert type(loaded.lambda_history[0]) is float


def test_integer_for_a_float_loads_as_a_float(ckpt_dir):
    w, b = np.ones((2, 1), np.float32), np.ones(1, np.float32)
    init_fp = seeded_init_fingerprint(1, 1, 1, 2, np.float32)
    meta = cas.StudentTrainMeta(1, 1, 0.5, init_fingerprint=init_fp, lambda_history=[0.1])
    cfg = cas.CascadeConfig(n_students=1, hidden_dim=1, max_epochs=3, patience=1)
    path = ckpt_dir / "typed.json"
    cas.save_cascade(cas.Cascade([LayerStack([(w, b), (w[:1], b)])], [meta], "t", cfg), path)
    doc = json.loads(path.read_text())
    doc["config"]["distill"]["alpha"] = 1
    path.write_text(json.dumps(doc))
    alpha = cas.load_cascade(path).config.distill.alpha
    assert type(alpha) is float and alpha == 1.0


@pytest.mark.parametrize("with_config", [True, False])
def test_student_1_init_fingerprint_is_checked_only_against_a_stored_seed(ckpt_dir, with_config):
    # without a config the seed is unknown, so the stored value is kept
    w, b = np.ones((2, 1), np.float32), np.ones(1, np.float32)
    meta = cas.StudentTrainMeta(1, 1, 0.5, init_fingerprint="x", lambda_history=[0.1])
    cfg = cas.CascadeConfig(n_students=1, hidden_dim=1, max_epochs=3, patience=1, seed=5)
    path = ckpt_dir / "init.json"
    student = LayerStack([(w, b), (w[:1], b)])
    cas.save_cascade(cas.Cascade([student], [meta], "t", cfg if with_config else None), path)
    if not with_config:
        assert cas.load_cascade(path).metas[0].init_fingerprint == "x"
        return
    fp = seeded_init_fingerprint(1, 1, 1, 2, np.float32, seed=5)
    with pytest.raises(ValueError) as err:
        cas.load_cascade(path)
    assert str(err.value) == (
        f'{path} student 1 meta init_fingerprint "x" does not match "{fp}", '
        "the fingerprint of the config seed's init"
    )
