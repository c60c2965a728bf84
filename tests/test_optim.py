"""``optim.fit`` driven by scripted ``step`` and ``validate`` callables:
early stopping, ties, the kept copy and value, and the training record;
and ``AdamW.step``'s invariance to a power-of-two scale of the gradients."""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mlpcascade.optim import AdamW, TrainRecord, fit
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


def adamw_steps(params, grads, scale, steps, **opt):
    """The parameters after ``steps`` AdamW steps from a fresh optimizer,
    each step's gradients ``grads`` times ``scale``."""
    params = {name: a.copy() for name, a in params.items()}
    opt = AdamW(params, **opt)
    for _ in range(steps):
        opt.step({name: g * scale for name, g in grads.items()})
    return params


@st.composite
def adamw_cases(draw):
    """Parameters, gradients of magnitude 1e-3..1e3 (never 0, so that
    eps = 0 divides by no zero) and a power of two 2**-20..2**20; the
    scaled squares stay normal at float32 and float64."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = {"w1": (draw(st.integers(1, 5)), draw(st.integers(1, 5))), "b1": (3,)}
    params = {n: rng.standard_normal(s).astype(dtype) for n, s in shapes.items()}
    grads = {
        n: (rng.choice([-1.0, 1.0], s) * 10.0 ** rng.uniform(-3, 3, s)).astype(dtype)
        for n, s in shapes.items()
    }
    scale = 2.0 ** draw(st.integers(-20, 20))
    opt = {"lr": draw(st.sampled_from([1e-3, 1e-2])),
           "weight_decay": draw(st.sampled_from([0.0, 5e-4]))}
    return params, grads, scale, opt


@given(case=adamw_cases(), steps=st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_adamw_without_eps_ignores_a_power_of_two_gradient_scale(case, steps):
    # m and v = (1 - b2) g^2 scale by c and c^2 exactly, sqrt(v) by c
    # exactly, so m / sqrt(v) is the same bits: the scale never reaches
    # the parameters
    params, grads, scale, opt = case
    unscaled = adamw_steps(params, grads, 1.0, steps, eps=0.0, **opt)
    scaled = adamw_steps(params, grads, scale, steps, eps=0.0, **opt)
    for name in params:
        assert scaled[name].tobytes() == unscaled[name].tobytes()


@given(case=adamw_cases())
@settings(max_examples=200, deadline=None)
def test_adamw_default_eps_moves_a_scaled_step_by_a_bounded_amount(case):
    # with eps, a step on c * g is the unscaled step with eps / c, so the
    # first step's m / (sqrt(v) + eps), m ~ g and sqrt(v) ~ |g|, moves by
    # at most |eps - eps / c| / |g|; rounding adds a few ulps of p and lr
    params, grads, scale, opt = case
    unscaled = adamw_steps(params, grads, 1.0, 1, **opt)
    scaled = adamw_steps(params, grads, scale, 1, **opt)
    eps = AdamW(params, lr=opt["lr"]).eps
    for name, p in params.items():
        g = np.abs(grads[name]).astype(np.float64)
        ulps = 4 * np.spacing(np.maximum(np.abs(p), opt["lr"])).astype(np.float64)
        bound = opt["lr"] * eps * abs(1.0 - 1.0 / scale) / g * 1.01 + ulps
        moved = np.abs(scaled[name].astype(np.float64) - unscaled[name])
        assert np.all(moved <= bound)
