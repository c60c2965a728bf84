"""Call counts of the module-level names that perfbench wraps, and of the
dropout functions the trainers call.

perfbench times ``teacher.spmm``, ``teacher.dropout_mask``,
``cascade.dropout_mask``, ``cascade.student_forward``,
``inference.student_forward`` and ``inference.ensemble`` by replacing those
module attributes, so its per-layer metrics mean something only while the
trainers and ``run_anytime`` look the names up there, once per use. The
trainers draw no mask with ``dropout_mask``: the teacher's input features
are dropped by ``teacher.apply_dropout`` and every hidden activation, of
the teacher and the students, in place by ``params.dropout_in_place``
(through ``params.dropper``), neither of which perfbench times. So both ``dropout_mask`` names count 0 calls. These
tests count the calls through ``monkeypatch`` during one small training run
of each model and a few anytime calls.

Each loss scores its logits with one ``log_and_softmax_rows`` pass, which
gives the log-probabilities of its value and the probabilities of its
gradient; none runs ``softmax_rows`` on the same logits again.
"""

import numpy as np
import pytest

import mlpcascade.cascade as cas
import mlpcascade.graphio as gio
import mlpcascade.inference as inf
import mlpcascade.numkit as nk
import mlpcascade.params as par
import mlpcascade.teacher as t


def count_calls(monkeypatch, module, names, counts=None):
    """Wrap ``module.<name>`` for each name; returns the live call counts,
    added to ``counts`` when given."""
    counts = {} if counts is None else counts
    counts.update(dict.fromkeys(names, 0))
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("depth", [2, 3])
def test_teacher_call_sites(tiny_graph, monkeypatch, depth):
    counts = count_calls(monkeypatch, t, ("spmm", "dropout_mask", "apply_dropout"))
    count_calls(monkeypatch, par, ("dropout_in_place",), counts)
    cfg = t.TeacherConfig(
        hidden_dim=8, dropout=0.5, max_epochs=5, patience=4, depth=depth, seed=3
    )
    epochs = t.train_teacher(tiny_graph, gio.normalized_adjacency(tiny_graph), cfg).train_meta.epochs
    assert epochs == 5
    # per epoch: one aggregation per layer forward and backward, the eval
    # hidden layers over every row, the last layer over the validation
    # rows; then one for the soft labels. One dropout per layer input: the
    # features' applied as drawn, each hidden activation's in place.
    assert counts == {
        "spmm": epochs * 3 * depth + 1,
        "dropout_mask": 0,
        "apply_dropout": epochs,
        "dropout_in_place": epochs * (depth - 1),
    }


@pytest.mark.parametrize("depth", [2, 3])
def test_aggregate_first_teacher_without_dropout_call_sites(monkeypatch, depth):
    # 8 features against hidden width 8: the first layer aggregates first
    g = gio.synth_sbm(150, 3, 8, 0.15, 0.05, 3.0, seed=2)
    counts = count_calls(monkeypatch, t, ("spmm", "dropout_mask", "apply_dropout"))
    count_calls(monkeypatch, par, ("dropout_in_place",), counts)
    cfg = t.TeacherConfig(
        hidden_dim=8, dropout=0.0, max_epochs=6, patience=5, depth=depth, seed=3
    )
    epochs = t.train_teacher(g, gio.normalized_adjacency(g), cfg).train_meta.epochs
    assert epochs == 6
    # A_hat X once per run, which every training and validation forward
    # starts from; per epoch one aggregation per later layer forward and
    # backward, the eval hidden layers after the first, and the last layer
    # over the validation rows; then one for the soft labels. No masks.
    assert counts == {
        "spmm": 1 + epochs * (3 * depth - 3) + 1,
        "dropout_mask": 0,
        "apply_dropout": 0,
        "dropout_in_place": 0,
    }


@pytest.mark.parametrize("n_layers", [2, 3])
def test_cascade_call_sites(tiny_graph, monkeypatch, n_layers):
    art = t.train_teacher(tiny_graph, gio.normalized_adjacency(tiny_graph), t.TeacherConfig(hidden_dim=8, max_epochs=5, patience=4))
    counts = count_calls(monkeypatch, cas, ("dropout_mask", "student_forward"))
    count_calls(monkeypatch, par, ("dropout_in_place",), counts)
    cfg = cas.CascadeConfig(
        n_students=2, hidden_dim=8, n_layers=n_layers, dropout=0.5,
        max_epochs=4, patience=3, seed=2,
    )
    casc = cas.train_cascade(tiny_graph, art, cfg)
    epochs = [m.epochs for m in casc.metas]
    assert epochs == [4, 4]
    # per epoch: one in-place dropout per hidden activation in the
    # distillation forward and again in the mixup forward. Validation and the
    # hidden state handed on are finished from the first layer's projection
    # over every row, so training runs no student_forward
    assert counts == {
        "dropout_mask": 0,
        "dropout_in_place": sum(epochs) * 2 * (n_layers - 1),
        "student_forward": 0,
    }


@pytest.mark.parametrize("n_classes", [3, 9])
def test_run_anytime_call_sites(monkeypatch, n_classes):
    # a class-major and a row-major cascade
    rng = np.random.default_rng(n_classes)
    students = [cas.init_student(4, 5, n_classes, 2, rng, np.float32) for _ in range(4)]
    metas = [
        cas.StudentTrainMeta(1, 1, 0.0, init_fingerprint=s.fingerprint(), lambda_history=[0.1])
        for s in students
    ]
    casc = cas.Cascade(students=students, metas=metas, teacher_fingerprint="none")
    x = rng.standard_normal((20, 4)).astype(np.float32)
    for policy in (
        inf.InferencePolicy(max_students=4),
        inf.InferencePolicy(max_students=2),
        inf.InferencePolicy(conf_threshold=0.0),
    ):
        counts = count_calls(monkeypatch, inf, ("student_forward", "ensemble"))
        result = inf.run_anytime(casc, x, policy, np.arange(20))
        # one forward per executed student, one ensemble per call
        assert counts == {"student_forward": result.executed, "ensemble": 1}


@pytest.mark.parametrize("loss", ["masked_cross_entropy", "kl_divergence", "mixup_loss"])
def test_each_loss_scores_its_logits_in_one_pass(monkeypatch, loss):
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((6, 3)).astype(np.float32)
    y = np.eye(3, dtype=np.float32)[rng.integers(0, 3, 6)]
    targets = nk.soft_targets(nk.softmax_rows(rng.standard_normal((6, 3))).astype(np.float32))
    student = cas.init_student(4, 5, 3, 2, rng, np.float32)
    mixed = rng.standard_normal((6, 5)).astype(np.float32)
    calls = {
        "masked_cross_entropy": lambda: nk.masked_cross_entropy(logits, y, np.arange(4)),
        "kl_divergence": lambda: nk.kl_divergence(targets, logits),
        "mixup_loss": lambda: cas.mixup_loss(student, mixed, y, 4),
    }
    counts = count_calls(monkeypatch, nk, ("log_and_softmax_rows", "softmax_rows"))
    cascade_counts = count_calls(monkeypatch, cas, ("log_and_softmax_rows",))
    calls[loss]()
    assert counts["log_and_softmax_rows"] + cascade_counts["log_and_softmax_rows"] == 1
    assert counts["softmax_rows"] == 0
