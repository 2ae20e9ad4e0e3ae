"""Trainer tests: learning-rate schedule, Adam against a frozen hand
trajectory, phase freezing, curriculum schedule, determinism, resume, and
the divergence guard."""

import csv
import dataclasses
import gc
import os
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest

from cureonet import trainer as trainer_module
from cureonet.autodiff import backward
from cureonet.design import DesignSpace, sample
from cureonet.losses import (COMPONENT_NAMES, CollocationConfig,
                             LossWeights, PHASE_ALL, PHASE_CURE,
                             PHASE_MODELS, PHASE_TEMPERATURE, breakdown_from,
                             compute_components, sample_collocation,
                             total_loss)
from cureonet.operator import (OperatorConfig, init_triplet, model_from_state,
                               model_state, predict_field, taped_triplet)
from cureonet.process import load_material_set
from cureonet.trainer import (AdamState, TrainPlan, TrainerError,
                              _epoch_schedule, _sweep_by_group, adam_step,
                              history_to_csv, load_checkpoint, lr_at,
                              save_checkpoint, train,
                              triplet_from_checkpoint)

PROPS = load_material_set()
PROPS_NO_HEAT = dataclasses.replace(
    PROPS, part=dataclasses.replace(PROPS.part, h_r=0.0))
SPACE = DesignSpace.named("small").narrowed(0.25)
DESIGNS = sample(SPACE, 2, seed=1)
SMALL_CONFIG = OperatorConfig(q=10, hidden_width=12, hidden_layers=2,
                              n_subdomains=2)
SMALL_COLLOC = CollocationConfig(q_ic=48, q_bc=48, q_if=32, q_ct=32)
# Written by `train(init_triplet(SMALL_CONFIG, SPACE, seed=0), DESIGNS,
# quick_plan(lr0=0.0, epochs=2), PROPS, seed=0, loss_config=SMALL_COLLOC)`
# and `save_checkpoint` in the release that still kept per-decoder parameter
# views beside the stacked decoder arrays; the Adam moments are left out to
# keep the file small.
OLD_CHECKPOINT = os.path.join(os.path.dirname(__file__), "data",
                              "small_checkpoint.npz")


def quick_plan(**kw):
    base = dict(epochs=4, steps_per_epoch=3, phase_epochs_temp=1,
                phase_epochs_cure=1, curriculum=False, batch_size=128,
                checkpoint_every=2)
    base.update(kw)
    return TrainPlan(**base)


def test_lr_schedule_values():
    plan = TrainPlan()
    assert lr_at(0, plan) == 1e-3
    assert lr_at(999, plan) == 1e-3
    assert lr_at(1000, plan) == pytest.approx(9e-4)
    assert lr_at(2500, plan) == pytest.approx(1e-3 * 0.9 ** 2)


def test_adam_zero_gradient_leaves_params_unchanged():
    params = [np.array([1.0, -2.0]), np.array([[3.0]])]
    grads = [np.zeros(2), np.zeros((1, 1))]
    state = AdamState.for_arrays(params)
    before = [p.copy() for p in params]
    adam_step(params, grads, state, rate=0.1)
    assert all(np.array_equal(a, b) for a, b in zip(params, before))
    assert state.step == 1


def test_adam_first_step_moves_by_about_rate():
    params = [np.array([0.5])]
    state = AdamState.for_arrays(params)
    adam_step(params, [np.array([1.0])], state, rate=0.1)
    # bias-corrected first step: theta -= rate * g / (|g| + eps)
    assert params[0][0] == pytest.approx(0.4, abs=1e-8)


def test_adam_three_step_trajectory_matches_frozen_oracle():
    # hand-computed at 50-digit precision: theta0 = 0.5, grads 1, -0.5, 2,
    # constant rate 0.1, beta1 = 0.9, beta2 = 0.999, eps = 1e-8
    expected = (0.40000000099999999, 0.3733662973709029665458,
                0.3075551378428030069223)
    params = [np.array([0.5])]
    state = AdamState.for_arrays(params)
    for g, want in zip((1.0, -0.5, 2.0), expected):
        adam_step(params, [np.array([g])], state, rate=0.1)
        assert params[0][0] == pytest.approx(want, abs=5e-16)


def test_adam_rejects_nonfinite_gradients():
    params = [np.array([0.5])]
    state = AdamState.for_arrays(params)
    with pytest.raises(TrainerError):
        adam_step(params, [np.array([np.nan])], state, rate=0.1)


def test_adam_rejects_mismatched_trees():
    params = [np.array([0.5])]
    state = AdamState.for_arrays(params)
    with pytest.raises(ValueError):
        adam_step(params, [], state, rate=0.1)


def test_epoch_schedule_structure():
    plan = TrainPlan(epochs=200, steps_per_epoch=1)
    sched = _epoch_schedule(plan)
    assert len(sched) == 200
    scales = [s[1] for s in sched]
    assert scales == sorted(scales)          # nondecreasing curriculum
    assert scales[-1] == 1.0                 # reaches full coefficient
    assert scales[:40] == [0.0] * 40         # equal stage shares
    assert set(np.unique(scales)) == {0.0, 0.25, 0.5, 0.75, 1.0}
    # phases alternate in 10+10 blocks inside a stage
    phases = [s[2] for s in sched[:40]]
    assert phases == (["temperature"] * 10 + ["cure"] * 10) * 2


def test_a_curriculum_of_one_stage_is_refused():
    # its one stage would run at bc_scale 0: heat generation never turns on
    with pytest.raises(ValueError, match="at least 2 stages"):
        TrainPlan(curriculum=True, curriculum_stages=1)
    assert TrainPlan(curriculum=False, curriculum_stages=1).bc_scales() \
        == [1.0]


@pytest.mark.parametrize("field, value", [
    ("checkpoint_every", 0), ("checkpoint_every", -1),
    ("divergence_factor", 0.0), ("divergence_factor", -1.0),
    ("divergence_factor", float("nan"))])
def test_a_plan_refuses_a_bad_checkpoint_interval_or_guard(field, value):
    # checkpoint_every 0 fails after a whole epoch on a modulo by zero; a
    # factor that is not positive marks every run diverged after one epoch
    with pytest.raises(ValueError):
        TrainPlan(**{field: value})


def test_epoch_schedule_without_curriculum():
    plan = TrainPlan(epochs=20, curriculum=False, phase_epochs_temp=3,
                     phase_epochs_cure=2)
    sched = _epoch_schedule(plan)
    assert all(s[1] == 1.0 for s in sched)
    phases = [s[2] for s in sched]
    assert phases[:5] == ["temperature"] * 3 + ["cure"] * 2


def test_zero_learning_rate_keeps_parameters_bit_identical():
    triplet = init_triplet(SMALL_CONFIG, SPACE, seed=0)
    before = [a.copy() for m in triplet.models().values()
              for a in m.trainable_arrays()]
    plan = quick_plan(lr0=0.0, epochs=2)
    train(triplet, DESIGNS, plan, PROPS_NO_HEAT, seed=5,
          loss_config=SMALL_COLLOC)
    after = [a for m in triplet.models().values()
             for a in m.trainable_arrays()]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_frozen_phase_parameters_bit_identical():
    triplet = init_triplet(SMALL_CONFIG, SPACE, seed=0)
    alpha_before = [a.copy() for a in triplet.g_alpha.trainable_arrays()]
    # temperature-only phase: one epoch
    plan = quick_plan(epochs=1, phase_epochs_temp=1, phase_epochs_cure=1)
    train(triplet, DESIGNS, plan, PROPS, seed=5, loss_config=SMALL_COLLOC)
    alpha_after = triplet.g_alpha.trainable_arrays()
    assert all(np.array_equal(a, b)
               for a, b in zip(alpha_before, alpha_after))
    # and the temperature models did move
    fresh = init_triplet(SMALL_CONFIG, SPACE, seed=0)
    assert any(not np.array_equal(a, b) for a, b in
               zip(fresh.g_tc.trainable_arrays(),
                   triplet.g_tc.trainable_arrays()))


def test_seeded_training_reproducible(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    results = []
    for out in (out_a, out_b):
        triplet = init_triplet(SMALL_CONFIG, SPACE, seed=0)
        _, history = train(triplet, DESIGNS, quick_plan(), PROPS_NO_HEAT,
                           seed=5, loss_config=SMALL_COLLOC, out_dir=out)
        results.append((triplet, history))
    csv_a = (out_a / "history.csv").read_text()
    csv_b = (out_b / "history.csv").read_text()
    assert csv_a == csv_b
    for ma, mb in zip(results[0][0].models().values(),
                      results[1][0].models().values()):
        for x, y in zip(ma.trainable_arrays(), mb.trainable_arrays()):
            assert np.array_equal(x, y)


def test_resume_matches_uninterrupted_trajectory(tmp_path):
    plan = quick_plan(epochs=4, steps_per_epoch=5, checkpoint_every=2)
    # uninterrupted run
    trip_a = init_triplet(SMALL_CONFIG, SPACE, seed=0)
    trip_a, hist_a = train(trip_a, DESIGNS, plan, PROPS_NO_HEAT, seed=5,
                           loss_config=SMALL_COLLOC)
    # stop after 2 epochs, then resume for the remaining 2 (10 more steps)
    trip_b = init_triplet(SMALL_CONFIG, SPACE, seed=0)
    short = dataclasses.replace(plan, epochs=2)
    train(trip_b, DESIGNS, short, PROPS_NO_HEAT, seed=5,
          loss_config=SMALL_COLLOC, out_dir=tmp_path)
    trip_b, hist_b = train(trip_b, DESIGNS, plan, PROPS_NO_HEAT, seed=5,
                           loss_config=SMALL_COLLOC,
                           resume_from=tmp_path / "checkpoint.npz")
    assert [r.total for r in hist_a.records] == \
        [r.total for r in hist_b.records]
    for ma, mb in zip(trip_a.models().values(), trip_b.models().values()):
        for x, y in zip(ma.trainable_arrays(), mb.trainable_arrays()):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("change, field", [
    (dict(seed=6), "seed"),
    (dict(designs=sample(SPACE, 2, seed=2)), "designs"),
    (dict(plan=quick_plan(epochs=4, lr0=2e-3)), "plan.lr0"),
], ids=["seed", "designs", "plan"])
def test_resume_rejects_a_different_run(tmp_path, change, field):
    args = dict(designs=DESIGNS, plan=quick_plan(epochs=4), seed=5)
    train(init_triplet(SMALL_CONFIG, SPACE, seed=0), args["designs"],
          quick_plan(epochs=2), PROPS_NO_HEAT, seed=5,
          loss_config=SMALL_COLLOC, out_dir=tmp_path)
    args.update(change)
    with pytest.raises(TrainerError, match=f"resume: {field} "):
        train(init_triplet(SMALL_CONFIG, SPACE, seed=0), args["designs"],
              args["plan"], PROPS_NO_HEAT, seed=args["seed"],
              loss_config=SMALL_COLLOC,
              resume_from=tmp_path / "checkpoint.npz")


def test_resume_rejects_epochs_that_reshape_the_done_schedule(tmp_path):
    plan = quick_plan(epochs=2, curriculum=True, curriculum_stages=2)
    train(init_triplet(SMALL_CONFIG, SPACE, seed=0), DESIGNS, plan,
          PROPS_NO_HEAT, seed=5, loss_config=SMALL_COLLOC, out_dir=tmp_path)
    # 2 stages over 4 epochs move the stage boundary past the epochs done
    with pytest.raises(TrainerError, match="plan.epochs"):
        train(init_triplet(SMALL_CONFIG, SPACE, seed=0), DESIGNS,
              dataclasses.replace(plan, epochs=4), PROPS_NO_HEAT, seed=5,
              loss_config=SMALL_COLLOC,
              resume_from=tmp_path / "checkpoint.npz")


def test_checkpoint_round_trip_bit_exact(tmp_path):
    triplet = init_triplet(SMALL_CONFIG, SPACE, seed=3)
    plan = quick_plan(epochs=2)
    train(triplet, DESIGNS, plan, PROPS_NO_HEAT, seed=9,
          loss_config=SMALL_COLLOC, out_dir=tmp_path)
    ck = load_checkpoint(tmp_path / "checkpoint.npz")
    rebuilt, designs = triplet_from_checkpoint(ck)
    for ma, mb in zip(triplet.models().values(),
                      rebuilt.models().values()):
        for x, y in zip(ma.trainable_arrays(), mb.trainable_arrays()):
            assert np.array_equal(x, y)
    assert [tuple(d.as_array()) for d in designs] == \
        [tuple(d.as_array()) for d in DESIGNS]
    assert rebuilt.horizon == triplet.horizon


def test_checkpoint_stores_no_start_state_and_refuses_another(tmp_path):
    triplet = init_triplet(SMALL_CONFIG, SPACE, seed=3)
    train(triplet, DESIGNS, quick_plan(epochs=1), PROPS_NO_HEAT, seed=9,
          loss_config=SMALL_COLLOC, out_dir=tmp_path)
    ck = load_checkpoint(tmp_path / "checkpoint.npz")
    assert not {"t0", "alpha_init"} & set(ck["meta"])
    assert not {"bn1_width", "bn2_width"} \
        & set(ck["meta"]["models"]["tc"]["config"])
    # an older file names the start state: it loads only if it is T0 and
    # ALPHA_INIT
    ck["meta"].update(t0=20.0, alpha_init=0.05)
    assert triplet_from_checkpoint(ck)[0].t0 == 20.0
    ck["meta"]["t0"] = 30.0
    with pytest.raises(TrainerError, match="start state"):
        triplet_from_checkpoint(ck)


def test_checkpoint_version_mismatch_rejected(tmp_path):
    triplet = init_triplet(SMALL_CONFIG, SPACE, seed=3)
    train(triplet, DESIGNS, quick_plan(epochs=1), PROPS_NO_HEAT, seed=9,
          loss_config=SMALL_COLLOC, out_dir=tmp_path)
    ck = load_checkpoint(tmp_path / "checkpoint.npz")
    ck["meta"]["version"] = 99
    bad_path = tmp_path / "bad.npz"
    save_checkpoint(bad_path, ck)
    with pytest.raises(TrainerError):
        load_checkpoint(bad_path)


def test_truncated_checkpoint_leaves_no_open_file(tmp_path):
    path = tmp_path / "checkpoint.npz"
    np.savez(path, a=np.zeros(1000))
    path.write_bytes(path.read_bytes()[:200])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(zipfile.BadZipFile):
            load_checkpoint(path)
        gc.collect()
    assert not [w for w in seen if issubclass(w.category, ResourceWarning)]


def test_checkpoint_write_is_atomic(tmp_path):
    triplet = init_triplet(SMALL_CONFIG, SPACE, seed=3)
    train(triplet, DESIGNS, quick_plan(epochs=1), PROPS_NO_HEAT, seed=9,
          loss_config=SMALL_COLLOC, out_dir=tmp_path)
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []


def _array_bytes():
    """Bytes of numpy array data traced since tracemalloc started."""
    snap = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return sum(t.size for t in snap.traces)


def _owned_node_bytes(root):
    """Bytes of the interior nodes of `root`'s graph that own their data:
    what the tape must hold for the reverse sweep."""
    seen, stack, total = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen or not node._parents:
            continue
        seen.add(id(node))
        if node.data.base is None:
            total += node.data.nbytes
        stack.extend(parent for parent, _ in node._parents)
    return total


def test_training_holds_one_weight_snapshot():
    # at each epoch's end a run holds, besides the weights, its two phases'
    # Adam moments (two weight copies) and one weight snapshot for the
    # divergence guard: 3.04-3.05x the weight bytes. The last step's
    # gradients, kept alive past the step, took it to 3.38-3.73x, and a
    # second copy of the whole state (weights and moments) past 5x
    triplet = init_triplet(OperatorConfig(), SPACE, seed=0)
    weight_bytes = sum(a.nbytes for model in triplet.models().values()
                       for a in model.trainable_arrays())
    held = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train(triplet, DESIGNS, quick_plan(steps_per_epoch=1,
                                           checkpoint_every=1),
              PROPS_NO_HEAT, seed=5, loss_config=SMALL_COLLOC,
              log=lambda record: held.append(
                  tracemalloc.get_traced_memory()[0] - base))
    finally:
        tracemalloc.stop()
    assert len(held) == 4
    assert max(held) <= 3.2 * weight_bytes


@pytest.mark.parametrize("phase", [PHASE_TEMPERATURE, PHASE_CURE])
def test_backward_releases_the_tape_of_a_training_step(phase):
    # the forward's arrays are little more than its nodes' own data (no
    # pre-activations or other copies kept for the vjps); after the sweep
    # only the parameter gradients (and the loss's scalar) remain; and the
    # sweep frees the forward tape as fast as it allocates cotangents, so
    # its peak exceeds the forward's by less than the gradients it leaves
    triplet = init_triplet(SMALL_CONFIG, SPACE, seed=0)
    cset = sample_collocation(triplet, DESIGNS, SMALL_COLLOC, 0, 128)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        nets = taped_triplet(triplet, trainable=PHASE_MODELS[phase])
        loss = total_loss(compute_components(nets, triplet, cset, PROPS, 1.0,
                                             phase=phase),
                          LossWeights())
        forward_peak = tracemalloc.get_traced_memory()[1] - base
        forward_arrays = _array_bytes()
        tape = _owned_node_bytes(loss)
        tracemalloc.reset_peak()
        backward(loss)
        held, sweep_peak = (m - base for m in tracemalloc.get_traced_memory())
        held_arrays = _array_bytes()
    finally:
        tracemalloc.stop()
    gradients = sum(v.grad.nbytes for name in PHASE_MODELS[phase]
                    for v in nets[name].trainable_arrays())
    assert forward_arrays <= 1.3 * tape
    assert held_arrays <= gradients + 1024
    assert sweep_peak <= forward_peak + held


@pytest.mark.parametrize("n_subdomains", [1, 7])
@pytest.mark.parametrize("bc_scale", [0.0, 1.0])
@pytest.mark.parametrize("phase", [PHASE_TEMPERATURE, PHASE_CURE])
def test_group_sweeps_give_the_gradients_of_one_sweep(phase, bc_scale,
                                                      n_subdomains):
    # every leaf receives the same contributions in the same order, so the
    # per-group sweeps of a training step equal one sweep of the summed
    # loss bit for bit; bc_scale 0 skips the cure jet of the part PDE, one
    # subdomain leaves the interface loss untaped
    config = OperatorConfig(q=10, hidden_width=12, hidden_layers=2,
                            n_subdomains=n_subdomains)
    triplet = init_triplet(config, SPACE, seed=0)
    cset = sample_collocation(triplet, DESIGNS, SMALL_COLLOC, 0, 128)
    names = PHASE_MODELS[phase]
    weights = LossWeights(ic_t=2.0, pde_part=0.5, if_temporal=3.0, ode=0.25)
    one = taped_triplet(triplet, trainable=names)
    backward(total_loss(compute_components(one, triplet, cset, PROPS,
                                           bc_scale, phase=phase), weights))
    grouped = taped_triplet(triplet, trainable=names)
    _sweep_by_group(grouped, names, triplet, cset, PROPS, bc_scale, phase,
                    weights)
    for name in names:
        for a, b in zip(one[name].trainable_arrays(),
                        grouped[name].trainable_arrays()):
            assert a.grad is not None and b.grad is not None
            assert np.array_equal(a.grad, b.grad)


INTERFACE_ONLY = LossWeights(**{name: float(name == "if_temporal")
                                for name in COMPONENT_NAMES})


@pytest.mark.parametrize("weights", [LossWeights(ic_t=2.0, ode=0.5),
                                     INTERFACE_ONLY],
                         ids=["all", "interface"])
@pytest.mark.parametrize("phase", [PHASE_TEMPERATURE, PHASE_CURE])
def test_group_sweep_gradients_match_central_differences(phase, weights):
    # end to end through a training step's sweeps: a few weights each of
    # bn1, the trunk and decoder 1's slice against central differences of
    # the phase's loss; decoder 1 sits on both sides of an interface, and
    # the interface-only weights isolate the group whose two decoder runs
    # read one trunk pass
    config = OperatorConfig(q=4, hidden_width=5, hidden_layers=2,
                            n_subdomains=3)
    triplet = init_triplet(config, SPACE, seed=3)
    cset = sample_collocation(triplet, DESIGNS, CollocationConfig(
        q_ic=8, q_bc=8, q_if=8, q_ct=8), 0, 24)
    names = PHASE_MODELS[phase]
    nets = taped_triplet(triplet, trainable=names)
    _sweep_by_group(nets, names, triplet, cset, PROPS, 1.0, phase, weights)

    def loss():
        return total_loss(breakdown_from(compute_components(
            triplet.models(), triplet, cset, PROPS, 1.0, phase)), weights)

    # the difference quotient's roundoff is about eps * loss / h
    rng = np.random.default_rng(4)
    h = 1e-5
    roundoff = np.finfo(float).eps * loss() / h
    for name in names:
        for net, layer, lead in (("bn1", 0, ()), ("trunk", 0, ()),
                                 ("trunk", -1, ()), ("dec", 0, (1,)),
                                 ("dec", -1, (1,))):
            arr = getattr(triplet.models()[name], net).weights[layer]
            grad = getattr(nets[name], net).weights[layer].grad
            assert np.any(grad != 0.0), (name, net, layer)
            for _ in range(3):
                pos = lead + tuple(rng.integers(0, n)
                                   for n in arr.shape[len(lead):])
                old = arr[pos]
                arr[pos] = old + h
                up = loss()
                arr[pos] = old - h
                down = loss()
                arr[pos] = old
                fd = (up - down) / (2 * h)
                assert abs(grad[pos] - fd) <= 1e-5 * abs(fd) + 10 * roundoff, \
                    (name, net, layer, pos, grad[pos], fd)


@pytest.fixture(scope="module", params=[PHASE_TEMPERATURE, PHASE_CURE])
def benchmark_step_leaves(request):
    """The trainable leaves of one step of the `train` benchmark's scale (8
    designs, default operators and collocation, batch 1024, the first
    step's key), swept on a float64 tape and on the float32 tape that
    training uses, from the same weights and points."""
    phase = request.param
    space = DesignSpace.named("small").narrowed(0.2)
    triplet = init_triplet(OperatorConfig(), space, seed=0)
    cset = sample_collocation(triplet, sample(space, 8, seed=1),
                              CollocationConfig(), [0, 7001, 0, 0], 1024)
    names = PHASE_MODELS[phase]
    leaves = []
    for source in (triplet, triplet.map(lambda a: a.astype(np.float32))):
        nets = taped_triplet(source, trainable=names)
        _sweep_by_group(nets, names, triplet, cset, PROPS, 1.0, phase,
                        LossWeights())
        leaves.append([v for name in names
                       for v in nets[name].trainable_arrays()])
    return leaves


def test_every_gradient_of_a_float32_step_is_float32(benchmark_step_leaves):
    # a float64 gradient anywhere (say on the decoder stack, whose runs are
    # sliced) would mean float64 arithmetic on the float32 tape
    for leaf in benchmark_step_leaves[1]:
        assert leaf.data.dtype == np.float32
        assert leaf.grad is not None and leaf.grad.dtype == np.float32


def test_a_float32_step_matches_the_float64_gradients(benchmark_step_leaves):
    # measured 1.3e-7 (temperature) and 2.2e-7 (cure) relative L2; the
    # float64 tape of `taped_triplet` stays float64
    wide, narrow = benchmark_step_leaves
    assert all(leaf.grad.dtype == np.float64 for leaf in wide)
    ref = np.concatenate([leaf.grad.ravel() for leaf in wide])
    got = np.concatenate([leaf.grad.ravel() for leaf in narrow])
    assert np.linalg.norm(got - ref) <= 1e-6 * np.linalg.norm(ref)


def test_training_tapes_float32_and_keeps_the_rest_float64(tmp_path,
                                                           monkeypatch):
    # every step sweeps float32 leaves; the float32 tape is the step's own:
    # weights, both phases' Adam moments, checkpoints and predictions stay
    # float64
    swept = []

    def sweep(nets, names, *args):
        swept.extend(leaf.data.dtype for name in names
                     for leaf in nets[name].trainable_arrays())
        _sweep_by_group(nets, names, *args)

    monkeypatch.setattr(trainer_module, "_sweep_by_group", sweep)
    triplet = init_triplet(SMALL_CONFIG, SPACE, seed=0)
    train(triplet, DESIGNS, quick_plan(epochs=2), PROPS, seed=5,
          loss_config=SMALL_COLLOC, out_dir=tmp_path)
    assert swept and set(swept) == {np.dtype(np.float32)}
    for model in triplet.models().values():
        assert all(a.dtype == np.float64 for a in model.trainable_arrays())
    arrays = load_checkpoint(tmp_path / "checkpoint.npz")["arrays"]
    assert all(a.dtype == np.float64 for a in arrays.values())
    for tag in ("temp", "cure"):
        moments = [a for key, a in arrays.items()
                   if key.startswith(f"adam_{tag}/")]
        assert moments and any(a.any() for a in moments)
    field = predict_field(triplet, DESIGNS[0], np.linspace(0.0, 3600.0, 5),
                          n_tool=7, n_part=9)
    for values in (field.t_tool, field.t_part, field.alpha):
        assert values.dtype == np.float64


def test_group_sweeps_bound_the_tape_of_a_training_step():
    # the tape of a temperature step peaks at its largest loss group, not
    # at the sum of all groups as one sweep of the summed loss does; the
    # ratio measures 0.416-0.441 at this config
    triplet = init_triplet(SMALL_CONFIG, SPACE, seed=0)
    cset = sample_collocation(triplet, DESIGNS, SMALL_COLLOC, 0, 128)
    names = PHASE_MODELS[PHASE_TEMPERATURE]

    def peak(step):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step(taped_triplet(triplet, trainable=names))
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    one_sweep = peak(lambda nets: backward(total_loss(compute_components(
        nets, triplet, cset, PROPS, 1.0, phase=PHASE_TEMPERATURE),
        LossWeights())))
    grouped = peak(lambda nets: _sweep_by_group(
        nets, names, triplet, cset, PROPS, 1.0, PHASE_TEMPERATURE,
        LossWeights()))
    assert grouped <= 0.55 * one_sweep


def test_curriculum_stage_zero_equals_zero_heat_generation():
    # the shared prefix (first epoch, bc_scale = 0) of a curriculum run is
    # bit-identical to training with the heat of reaction zeroed
    plan_a = quick_plan(epochs=2, curriculum=True, curriculum_stages=2)
    trip_a = init_triplet(SMALL_CONFIG, SPACE, seed=0)
    _, hist_a = train(trip_a, DESIGNS, plan_a, PROPS, seed=5,
                      loss_config=SMALL_COLLOC)
    plan_b = quick_plan(epochs=2, curriculum=False)
    trip_b = init_triplet(SMALL_CONFIG, SPACE, seed=0)
    _, hist_b = train(trip_b, DESIGNS, plan_b, PROPS_NO_HEAT, seed=5,
                      loss_config=SMALL_COLLOC)
    ra, rb = hist_a.records[0], hist_b.records[0]
    for name in ("ic_t", "bc_top", "bc_bot", "pde_tool", "pde_part", "ode"):
        assert ra.breakdown[name] == rb.breakdown[name], name


def test_linear_subproblem_total_loss_drops_by_10x():
    # frozen self-oracle: 1 design, no heat generation, 20 epochs, seed 7.
    # The initial-condition loss starts at its floor with this architecture
    # (normalized outputs initialize near the target), so the recorded
    # observable is the total loss, which drops ~18x on the first run.
    designs = sample(SPACE, 1, seed=1)
    triplet = init_triplet(SMALL_CONFIG, SPACE, seed=0)
    cset = sample_collocation(triplet, designs, SMALL_COLLOC, [7, 7002, 0],
                              128)
    nets = taped_triplet(triplet, trainable=())
    init_bd = breakdown_from(compute_components(nets, triplet, cset,
                                                PROPS_NO_HEAT, 1.0,
                                                PHASE_ALL))
    init_total = total_loss(init_bd, LossWeights())
    plan = TrainPlan(epochs=20, steps_per_epoch=10, phase_epochs_temp=5,
                     phase_epochs_cure=5, curriculum=False, batch_size=128,
                     checkpoint_every=100)
    _, history = train(triplet, designs, plan, PROPS_NO_HEAT, seed=7,
                       loss_config=SMALL_COLLOC)
    assert history.records[-1].total < init_total / 10.0
    assert history.records[-1].breakdown["ic_t"] < 0.25


def test_divergence_guard_restores_last_good_checkpoint():
    designs = sample(SPACE, 1, seed=1)
    triplet = init_triplet(SMALL_CONFIG, SPACE, seed=0)
    plan = TrainPlan(epochs=8, steps_per_epoch=10, phase_epochs_temp=5,
                     phase_epochs_cure=5, curriculum=False, batch_size=128,
                     checkpoint_every=100)
    train(triplet, designs, plan, PROPS_NO_HEAT, seed=7,
          loss_config=SMALL_COLLOC)
    snapshot = [a.copy() for a in triplet.g_tc.trainable_arrays()]
    wild = dataclasses.replace(plan, lr0=300.0, epochs=4)
    _, history = train(triplet, designs, wild, PROPS_NO_HEAT, seed=8,
                       loss_config=SMALL_COLLOC)
    assert history.diverged
    assert all(np.array_equal(a, b) for a, b in
               zip(snapshot, triplet.g_tc.trainable_arrays()))


def test_history_csv_schema(tmp_path):
    triplet = init_triplet(SMALL_CONFIG, SPACE, seed=0)
    _, history = train(triplet, DESIGNS, quick_plan(epochs=2),
                       PROPS_NO_HEAT, seed=5, loss_config=SMALL_COLLOC)
    path = tmp_path / "history.csv"
    history_to_csv(history, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:7] == ["epoch", "stage", "bc_scale", "phase", "lr_temp",
                          "lr_cure", "total"]
    assert "ic_t" in header and "ct_flux" in header
    assert len(lines) == 1 + len(history.records)


def test_history_csv_cells_are_numbers(tmp_path):
    # a curriculum run's bc_scale and loss cells parse as plain numbers
    triplet = init_triplet(SMALL_CONFIG, SPACE, seed=0)
    plan = quick_plan(epochs=2, steps_per_epoch=1, curriculum=True,
                      curriculum_stages=2)
    train(triplet, DESIGNS, plan, PROPS_NO_HEAT, seed=5,
          loss_config=SMALL_COLLOC, out_dir=tmp_path)
    with open(tmp_path / "history.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["bc_scale"] for row in rows] == ["0.0", "1.0"]
    for row in rows:
        for name, cell in row.items():
            if name != "phase":
                float(cell)


def test_nonfinite_epoch_total_counts_as_divergence(tmp_path, monkeypatch):
    import cureonet.trainer as tr
    real_breakdown = tr.breakdown_from
    calls = []

    def nan_after_stage_start(components):
        bd = real_breakdown(components)
        calls.append(1)
        # the first call is the stage-start baseline; later ones are NaN
        return bd if len(calls) == 1 else {**bd, "ode": float("nan")}

    monkeypatch.setattr(tr, "breakdown_from", nan_after_stage_start)
    triplet = init_triplet(SMALL_CONFIG, SPACE, seed=0)
    start = [a.copy() for a in triplet.g_tc.trainable_arrays()]
    _, history = train(triplet, DESIGNS, quick_plan(), PROPS_NO_HEAT,
                       seed=5, loss_config=SMALL_COLLOC, out_dir=tmp_path)
    assert history.diverged
    assert len(history.records) == 1
    assert all(np.array_equal(a, b) for a, b in
               zip(start, triplet.g_tc.trainable_arrays()))
    assert (tmp_path / "history.csv").exists()


def test_nonfinite_gradient_restores_last_good(tmp_path, monkeypatch):
    import cureonet.trainer as tr
    real_adam = tr.adam_step
    calls = []

    def poisoned_second_step(params, grads, state, rate):
        calls.append(1)
        if len(calls) == 2:
            grads = [g * np.nan for g in grads]
        return real_adam(params, grads, state, rate)

    monkeypatch.setattr(tr, "adam_step", poisoned_second_step)
    triplet = init_triplet(SMALL_CONFIG, SPACE, seed=0)
    start = [a.copy() for a in triplet.g_tc.trainable_arrays()]
    _, history = train(triplet, DESIGNS, quick_plan(), PROPS_NO_HEAT,
                       seed=5, loss_config=SMALL_COLLOC, out_dir=tmp_path)
    assert history.diverged
    assert history.records == []
    # the first step moved the weights; the restore undid it
    assert all(np.array_equal(a, b) for a, b in
               zip(start, triplet.g_tc.trainable_arrays()))
    assert (tmp_path / "history.csv").read_text().startswith("epoch,")


def test_checkpoint_of_the_previous_layout_loads_and_resaves_bit_exact(
        tmp_path):
    ck = load_checkpoint(OLD_CHECKPOINT)
    triplet, designs = triplet_from_checkpoint(ck)
    assert [d.as_array().tolist() for d in designs] == \
        [d.as_array().tolist() for d in DESIGNS]
    # lr0 = 0 kept the initial weights: this pins the rng order of `init`
    # and the stacking of the decoders
    fresh = init_triplet(SMALL_CONFIG, SPACE, seed=0)
    for name, model in triplet.models().items():
        for a, b in zip(model.trainable_arrays(),
                        fresh.models()[name].trainable_arrays()):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    arrays = {"designs": ck["arrays"]["designs"]}
    for name, model in triplet.models().items():
        arrays.update(model_state(model, name))
    save_checkpoint(tmp_path / "again.npz", {"meta": ck["meta"],
                                             "arrays": arrays})
    again = load_checkpoint(tmp_path / "again.npz")["arrays"]
    assert set(again) == set(ck["arrays"])
    for key, value in ck["arrays"].items():
        assert again[key].dtype == value.dtype
        assert np.array_equal(again[key], value)


@pytest.mark.parametrize("layers", ["w0", "all"])
def test_model_from_state_rejects_a_wrong_decoder_count(layers):
    ck = load_checkpoint(OLD_CHECKPOINT)
    arrays = dict(ck["arrays"])
    for key in [k for k in arrays if k.startswith("tc/dec/")]:
        if layers == "all" or key == "tc/dec/w0":
            arrays[key] = np.concatenate([arrays[key], arrays[key][:1]])
    with pytest.raises(ValueError, match="^tc(/dec)?: ") as err:
        model_from_state(ck["meta"]["models"]["tc"], arrays, "tc")
    assert "\n" not in str(err.value)


def test_model_from_state_rejects_nonfinite_decoder_weights():
    ck = load_checkpoint(OLD_CHECKPOINT)
    arrays = dict(ck["arrays"])
    arrays["alpha/dec/w1"] = arrays["alpha/dec/w1"].copy()
    arrays["alpha/dec/w1"][1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="^alpha/dec: .*non-finite"):
        model_from_state(ck["meta"]["models"]["alpha"], arrays, "alpha")
