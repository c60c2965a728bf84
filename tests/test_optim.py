"""``optim.fit`` driven by scripted ``step`` and ``validate`` callables:
early stopping, ties, the kept copy and value, and the training record."""

from types import SimpleNamespace

import numpy as np

from mlpcascade.optim import TrainRecord, fit
from mlpcascade.params import LayerStack


def scripted_run(accuracies, max_epochs, patience):
    """Run ``fit`` on a one-layer stack whose every step has gradient 1 and
    loss ``10 * epoch``, and whose validation reports ``accuracies`` in turn
    and keeps a fresh object per epoch. Returns fit's result, the live
    parameters, each epoch's parameters after its step, the kept objects
    and the epochs ``step`` saw."""
    params = LayerStack([(np.zeros((2, 1)), np.zeros(1))])
    cfg = SimpleNamespace(lr=0.1, weight_decay=0.0, max_epochs=max_epochs, patience=patience)
    stepped, snapshots, kept = [], [], []

    def step(epoch):
        stepped.append(epoch)
        return 10.0 * epoch, {name: np.ones_like(a) for name, a in params.param_dict().items()}

    def validate():
        snapshots.append(params.copy())
        kept.append({"epoch": len(snapshots)})
        return accuracies[len(snapshots) - 1], kept[-1]

    return fit(params, cfg, step, validate), params, snapshots, kept, stepped


def test_stops_after_patience_epochs_without_a_new_best():
    # best 0.5 at epoch 2; epochs 3-5 bring none (a tie at 4), so epoch 6's
    # 0.9 is never reached
    (_, kept, record), _, _, _, stepped = scripted_run(
        [0.1, 0.5, 0.4, 0.5, 0.3, 0.9, 0.9], max_epochs=7, patience=3
    )
    assert stepped == [1, 2, 3, 4, 5]
    assert record == TrainRecord(5, 2, 0.5, [10.0, 20.0, 30.0, 40.0, 50.0])
    assert kept == {"epoch": 2}


def test_runs_to_the_cap_while_accuracy_rises():
    (_, _, record), _, _, _, stepped = scripted_run(
        [0.1, 0.2, 0.3, 0.4], max_epochs=4, patience=1
    )
    assert stepped == [1, 2, 3, 4]
    assert record == TrainRecord(4, 4, 0.4, [10.0, 20.0, 30.0, 40.0])


def test_ties_keep_the_earlier_epoch():
    (best, kept, record), _, snapshots, _, _ = scripted_run(
        [0.5, 0.5, 0.5, 0.5], max_epochs=4, patience=3
    )
    assert (record.epochs, record.best_epoch, record.best_val_acc) == (4, 1, 0.5)
    assert kept == {"epoch": 1}
    assert best.fingerprint() == snapshots[0].fingerprint()


def test_patience_zero_stops_at_the_first_epoch_without_a_new_best():
    (_, _, record), _, _, _, stepped = scripted_run(
        [0.3, 0.6, 0.6, 0.9], max_epochs=4, patience=0
    )
    assert stepped == [1, 2, 3]
    assert (record.epochs, record.best_epoch, record.best_val_acc) == (3, 2, 0.6)


def test_returned_params_are_a_copy_later_epochs_do_not_change():
    (best, _, record), live, snapshots, _, _ = scripted_run(
        [0.2, 0.7, 0.1, 0.1, 0.1], max_epochs=5, patience=3
    )
    assert record.best_epoch == 2 and record.epochs == 5
    # the live parameters moved on for three more steps; the returned ones
    # are those of epoch 2, in arrays of their own
    assert best.fingerprint() == snapshots[1].fingerprint()
    assert live.fingerprint() == snapshots[4].fingerprint() != best.fingerprint()
    for (w, b), (lw, lb) in zip(best.layers, live.layers, strict=True):
        assert not np.shares_memory(w, lw) and not np.shares_memory(b, lb)
    live.layers[0][0][:] = 7.0
    assert best.fingerprint() == snapshots[1].fingerprint()


def test_kept_is_the_best_epochs_value_itself():
    (_, kept, record), _, _, values, _ = scripted_run(
        [0.4, 0.3, 0.8, 0.2, 0.2], max_epochs=5, patience=2
    )
    assert record.best_epoch == 3
    assert kept is values[2]


def test_record_losses_are_the_steps_losses_in_order():
    (_, _, record), _, _, _, stepped = scripted_run(
        [0.5, 0.1, 0.1], max_epochs=3, patience=2
    )
    assert type(record) is TrainRecord
    assert record.losses == [10.0 * e for e in stepped] == [10.0, 20.0, 30.0]
    assert record.epochs == 3
