"""Training loop: Adam with stepped learning-rate decay, sequential
alternation between the temperature operators and the cure operator, a
curriculum on the heat-generation coefficient, and atomic checkpointing.

Curriculum stages form the outer loop (equal epoch shares, remainder to the
final full-coefficient stage); inside each stage the two phases alternate.
Each phase owns its Adam state; moments persist across phases and stages.

Precision is mixed: each step tapes a float32 copy of the three operators,
and Adam applies the widened gradients to float64 master weights with
float64 moments. Checkpoints, the per-epoch loss breakdown and everything
downstream of training read the float64 masters.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__ as code_version
from .autodiff import Var, backward
from .design import DesignPoint, DesignSpace
from .losses import (COMPONENT_NAMES, PHASE_ALL, PHASE_CURE, PHASE_MODELS,
                     PHASE_TEMPERATURE, CollocationConfig, LossWeights,
                     breakdown_from, compute_components, loss_groups,
                     merged_branches, sample_collocation, total_loss)
from .operator import (OperatorTriplet, model_from_state, model_meta,
                       model_state, taped_triplet)
from .process import (ALPHA_INIT, T0, MaterialSet, atomic_write,
                      savez_atomic)

CHECKPOINT_VERSION = 1
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainerError(RuntimeError):
    pass


class NonFiniteGradient(TrainerError):
    """An optimizer step met a NaN or infinite gradient."""


@dataclass(frozen=True)
class TrainPlan:
    """Optimization schedule. batch_size is collocation points per gradient
    step (interior and ODE categories), resampled every step."""

    lr0: float = 1e-3
    lr_decay: float = 0.9
    lr_decay_every: int = 1000
    batch_size: int = 1024
    epochs: int = 200
    steps_per_epoch: int = 10
    phase_epochs_temp: int = 10
    phase_epochs_cure: int = 10
    curriculum: bool = True
    curriculum_stages: int = 5
    designs_per_draw: int = 16
    checkpoint_every: int = 50
    divergence_factor: float = 1e3

    def __post_init__(self):
        if self.lr0 < 0 or self.lr_decay <= 0 or self.lr_decay_every < 1:
            raise ValueError("bad learning-rate schedule")
        if min(self.epochs, self.steps_per_epoch, self.batch_size,
               self.phase_epochs_temp, self.phase_epochs_cure,
               self.curriculum_stages, self.designs_per_draw,
               self.checkpoint_every) < 1:
            raise ValueError("plan counts must be positive")
        if not self.divergence_factor > 0:
            raise ValueError("divergence_factor must be positive")
        if self.curriculum and self.curriculum_stages < 2:
            raise ValueError("a curriculum needs at least 2 stages, so that "
                             "its last one has heat generation on")

    def bc_scales(self) -> list[float]:
        if not self.curriculum:
            return [1.0]
        return np.linspace(0.0, 1.0, self.curriculum_stages).tolist()


def lr_at(step: int, plan: TrainPlan) -> float:
    """Stepped exponential decay: lr0 * decay^(step // every)."""
    return plan.lr0 * plan.lr_decay ** (step // plan.lr_decay_every)


@dataclass
class AdamState:
    """First/second moment estimates congruent with a parameter list."""

    m: list
    v: list
    step: int = 0

    @staticmethod
    def for_arrays(arrays) -> "AdamState":
        return AdamState(m=[np.zeros_like(a) for a in arrays],
                         v=[np.zeros_like(a) for a in arrays])


def adam_step(params: list, grads: list, state: AdamState, rate: float):
    """Standard bias-corrected Adam update, applied in place so that views
    aliasing the parameter arrays stay valid. Returns (params, state)."""
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ValueError("parameter/gradient/state trees differ in length")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient("non-finite gradient in optimizer step")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params, state


@dataclass
class EpochRecord:
    epoch: int
    stage: int
    bc_scale: float
    phase: str
    lr_temp: float
    lr_cure: float
    total: float
    breakdown: dict = field(default_factory=dict)


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)
    diverged: bool = False

    def totals(self) -> np.ndarray:
        return np.array([r.total for r in self.records])


def history_to_csv(history: TrainHistory, path) -> None:
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "stage", "bc_scale", "phase", "lr_temp",
                         "lr_cure", "total", *COMPONENT_NAMES])
        for r in history.records:
            writer.writerow([r.epoch, r.stage, repr(r.bc_scale), r.phase,
                             repr(r.lr_temp), repr(r.lr_cure), repr(r.total)]
                            + [repr(r.breakdown.get(n, 0.0))
                               for n in COMPONENT_NAMES])


def _epoch_schedule(plan: TrainPlan) -> list:
    """Flat list of (stage_index, bc_scale, phase) per epoch."""
    scales = plan.bc_scales()
    n_stages = len(scales)
    share = plan.epochs // n_stages
    stage_epochs = [share] * n_stages
    stage_epochs[-1] += plan.epochs - share * n_stages
    schedule = []
    for s_idx, (scale, n_ep) in enumerate(zip(scales, stage_epochs)):
        done = 0
        while done < n_ep:
            for phase, span in ((PHASE_TEMPERATURE, plan.phase_epochs_temp),
                                (PHASE_CURE, plan.phase_epochs_cure)):
                for _ in range(min(span, n_ep - done)):
                    schedule.append((s_idx, scale, phase))
                    done += 1
                if done >= n_ep:
                    break
    return schedule


# checkpoint key tag of each phase's Adam state: adam_temp/m0, ...
_ADAM_TAGS = {PHASE_TEMPERATURE: "temp", PHASE_CURE: "cure"}


def _draw_designs(designs, plan: TrainPlan, key: list) -> list:
    """The designs one collocation draw covers: all of them, or a sorted
    random subset of plan.designs_per_draw seeded by `key`."""
    if len(designs) <= plan.designs_per_draw:
        return designs
    pick = np.random.default_rng(key + [5]).choice(
        len(designs), plan.designs_per_draw, replace=False)
    return [designs[i] for i in sorted(pick)]


def train(triplet: OperatorTriplet, designs, plan: TrainPlan,
          props: MaterialSet, seed: int,
          loss_config: CollocationConfig | None = None,
          weights: LossWeights = LossWeights(),
          out_dir=None, resume_from=None, log=None):
    """Run the full plan; returns (triplet, history). The triplet is
    updated in place. With out_dir set, periodic checkpoints and the loss
    history CSV are written there; resume_from continues a checkpointed run
    and reproduces the uninterrupted trajectory."""
    if not designs:
        raise TrainerError("need at least one training design")
    if loss_config is None:
        loss_config = CollocationConfig()

    models = triplet.models()
    arrays = {phase: [a for name in names
                      for a in models[name].trainable_arrays()]
              for phase, names in PHASE_MODELS.items()}
    adam = {phase: AdamState.for_arrays(a) for phase, a in arrays.items()}
    history = TrainHistory()
    start_epoch = 0

    if resume_from is not None:
        ck = load_checkpoint(resume_from)
        _check_same_run(ck, seed, plan, weights, loss_config, designs)
        _copy_weights(triplet, triplet_from_checkpoint(ck)[0])
        for phase, state in adam.items():
            _restore_adam(state, ck, _ADAM_TAGS[phase])
        start_epoch = ck["meta"]["epoch"] + 1
        history.records = [EpochRecord(**r) for r in ck["meta"]["history"]]

    schedule = _epoch_schedule(plan)
    stage_start_total = None
    last_stage = None
    # the weights the divergence guard restores; the Adam moments are not
    # kept, since a diverged run ends
    last_good = triplet.copy()

    def full_breakdown(epoch, bc_scale):
        key = [seed, 7002, epoch]
        cset = sample_collocation(triplet, _draw_designs(designs, plan, key),
                                  loss_config, key, plan.batch_size)
        comps = compute_components(triplet.models(), triplet, cset, props,
                                   bc_scale, phase=PHASE_ALL)
        return breakdown_from(comps)

    def train_step(epoch, step, bc_scale, phase):
        # a function of its own, so the step's tape, gradients and
        # collocation points are released as soon as Adam has used them
        key = [seed, 7001, epoch, step]
        cset = sample_collocation(triplet, _draw_designs(designs, plan, key),
                                  loss_config, key, plan.batch_size)
        names = PHASE_MODELS[phase]
        nets = taped_triplet(triplet.map(lambda a: a.astype(np.float32)),
                             trainable=names)
        _sweep_by_group(nets, names, triplet, cset, props, bc_scale, phase,
                        weights)
        # Adam moves the float64 masters by the widened float32 gradients
        grads = [np.zeros(v.shape) if v.grad is None
                 else v.grad.astype(np.float64)
                 for name in names for v in nets[name].trainable_arrays()]
        state = adam[phase]
        adam_step(arrays[phase], grads, state, lr_at(state.step, plan))

    for epoch in range(start_epoch, len(schedule)):
        stage, bc_scale, phase = schedule[epoch]

        if stage != last_stage:
            # divergence baseline: loss before any training in this stage
            stage_start_total = max(
                total_loss(full_breakdown(epoch, bc_scale), weights), 1e-30)
            last_stage = stage

        try:
            for step in range(plan.steps_per_epoch):
                train_step(epoch, step, bc_scale, phase)
        except NonFiniteGradient:
            history.diverged = True
            _copy_weights(triplet, last_good)
            break

        bd = full_breakdown(epoch, bc_scale)
        record = EpochRecord(
            epoch=epoch, stage=stage, bc_scale=bc_scale, phase=phase,
            lr_temp=lr_at(adam[PHASE_TEMPERATURE].step, plan),
            lr_cure=lr_at(adam[PHASE_CURE].step, plan),
            total=total_loss(bd, weights), breakdown=bd)
        history.records.append(record)
        if log is not None:
            log(record)

        # NaN compares False, so a non-finite total is caught explicitly
        if not np.isfinite(record.total) \
                or record.total > plan.divergence_factor * stage_start_total:
            history.diverged = True
            _copy_weights(triplet, last_good)
            break

        if (epoch + 1) % plan.checkpoint_every == 0 \
                or epoch == len(schedule) - 1:
            _copy_weights(last_good, triplet)
            if out_dir is not None:
                save_checkpoint(os.path.join(out_dir, "checkpoint.npz"),
                                _make_checkpoint(triplet, adam, plan, seed,
                                                 designs, weights,
                                                 loss_config, epoch=epoch,
                                                 history=history))

    if out_dir is not None:
        history_to_csv(history, os.path.join(out_dir, "history.csv"))
    return triplet, history


def _sweep_by_group(nets, names, triplet, cset, props, bc_scale, phase,
                    weights) -> None:
    """Fill the gradients of the trainable operators `names` in `nets` with
    those of the phase's total loss, sweeping each loss group as soon as it
    is built, so the tape peaks at the largest group rather than at the
    whole loss. The groups share only parameters, which accumulate their
    gradients across sweeps, and each operator's merged branch embeddings,
    which they read through a leaf cut from the embeddings; the cotangent
    gathered on that leaf is swept through the branch nets once at the end.
    The gradients equal those of one sweep of the summed loss bit for bit:
    every leaf receives the same contributions in the same order."""
    merged = merged_branches(nets, cset)
    cut = {name: Var(merged[name].data, requires_grad=True) for name in names}
    for group in loss_groups(nets, {**merged, **cut}, triplet, cset, props,
                             bc_scale, phase):
        loss = total_loss(group, weights)
        # an interface loss without internal boundaries is an untaped 0.0
        if isinstance(loss, Var):
            backward(loss)
    for name in names:
        backward((merged[name] * cut[name].grad).sum())


# -- checkpointing -------------------------------------------------------------


def _make_checkpoint(triplet, adam, plan, seed, designs, weights,
                     loss_config, epoch, history) -> dict:
    """The run's state for `save_checkpoint`. Its arrays are the live
    weights and Adam moments, not copies: save it before training goes on."""
    arrays = {}
    for name, model in triplet.models().items():
        arrays.update(model_state(model, name))
    for phase, st in adam.items():
        tag = _ADAM_TAGS[phase]
        for i, (m, v) in enumerate(zip(st.m, st.v)):
            arrays[f"adam_{tag}/m{i}"] = m
            arrays[f"adam_{tag}/v{i}"] = v
    arrays["designs"] = np.array([d.as_array() for d in designs])
    meta = {
        "version": CHECKPOINT_VERSION,
        "code_version": code_version,
        "epoch": epoch,
        **_run_meta(seed, plan, weights, loss_config),
        "adam_steps": {_ADAM_TAGS[phase]: st.step
                       for phase, st in adam.items()},
        "models": {name: model_meta(model)
                   for name, model in triplet.models().items()},
        "space": {"label": triplet.space.label,
                  "ranges": {k: list(v)
                             for k, v in triplet.space.ranges.items()}},
        "horizon": triplet.horizon,
        "cooldown": triplet.cooldown,
        "history": [asdict(r) for r in history.records],
    }
    return {"meta": meta, "arrays": arrays}


def save_checkpoint(path, checkpoint: dict) -> None:
    """Atomic write (temp file + rename); bit-exact float64 round trip."""
    payload = dict(checkpoint["arrays"])
    payload["__meta__"] = np.frombuffer(
        json.dumps(checkpoint["meta"]).encode(), dtype=np.uint8)
    savez_atomic(path, **payload)


def load_checkpoint(path) -> dict:
    with open(path, "rb") as f, np.load(f) as data:
        arrays = {k: data[k] for k in data.files if k != "__meta__"}
        meta = json.loads(bytes(data["__meta__"]).decode())
    if meta.get("version") != CHECKPOINT_VERSION:
        raise TrainerError(
            f"checkpoint version {meta.get('version')} unsupported "
            f"(expected {CHECKPOINT_VERSION})")
    return {"meta": meta, "arrays": arrays}


def triplet_from_checkpoint(ck: dict) -> tuple[OperatorTriplet, list]:
    """Rebuild the operator triplet and its training designs. An older
    file's `t0` and `alpha_init` must be the start state, T0 and ALPHA_INIT."""
    meta, arrays = ck["meta"], ck["arrays"]
    start = (meta.get("t0", T0), meta.get("alpha_init", ALPHA_INIT))
    if start != (T0, ALPHA_INIT):
        raise TrainerError(f"checkpoint start state (t0, alpha_init) {start} "
                           f"is not {(T0, ALPHA_INIT)}")
    space = DesignSpace(meta["space"]["label"],
                        {k: tuple(v)
                         for k, v in meta["space"]["ranges"].items()})
    models = {name: model_from_state(meta["models"][name], arrays, name)
              for name in ("tc", "tt", "alpha")}
    triplet = OperatorTriplet(models["tc"], models["tt"], models["alpha"],
                              space, float(meta["horizon"]),
                              cooldown=bool(meta["cooldown"]))
    designs = [DesignPoint.from_array(row) for row in arrays["designs"]]
    return triplet, designs


def _run_meta(seed, plan: TrainPlan, weights: LossWeights,
              loss_config: CollocationConfig) -> dict:
    """The checkpoint fields that identify a run, besides its designs."""
    return {"seed": seed, "plan": asdict(plan), "weights": asdict(weights),
            "loss_config": asdict(loss_config)}


def _check_same_run(ck: dict, seed, plan: TrainPlan, weights: LossWeights,
                    loss_config: CollocationConfig, designs) -> None:
    """Refuse to resume a checkpoint into a different run. The plan may
    only add epochs, and only where that keeps the schedule of the epochs
    already done."""
    meta = ck["meta"]
    ours = _run_meta(seed, plan, weights, loss_config)
    if meta["seed"] != seed:
        raise TrainerError(f"resume: seed {seed} differs from the "
                           f"checkpoint's {meta['seed']}")
    for group in ("plan", "weights", "loss_config"):
        for key, value in ours[group].items():
            if group == "plan" and key == "epochs":
                continue
            if meta[group].get(key) != value:
                raise TrainerError(
                    f"resume: {group}.{key} {value!r} differs from the "
                    f"checkpoint's {meta[group].get(key)!r}")
    done = meta["epoch"] + 1
    old_plan = TrainPlan(**meta["plan"])
    if _epoch_schedule(old_plan)[:done] != _epoch_schedule(plan)[:done]:
        raise TrainerError(
            f"resume: plan.epochs {plan.epochs} changes the schedule of the "
            f"{done} epochs done under the checkpoint's {old_plan.epochs}")
    ck_designs = ck["arrays"]["designs"]
    new_designs = np.array([d.as_array() for d in designs])
    if not np.array_equal(ck_designs, new_designs):
        raise TrainerError(
            f"resume: designs differ from the checkpoint's "
            f"({len(designs)} given, {len(ck_designs)} in the checkpoint)")


def _copy_weights(triplet: OperatorTriplet, source: OperatorTriplet) -> None:
    """Copy the weights of `source` into `triplet`'s arrays, in place, so
    that views aliasing them (Adam's parameter lists) stay valid."""
    for name, model in triplet.models().items():
        for dst, src in zip(model.trainable_arrays(),
                            source.models()[name].trainable_arrays()):
            dst[...] = src


def _restore_adam(state: AdamState, ck: dict, tag: str) -> None:
    arrays = ck["arrays"]
    n = len(state.m)
    state.m = [np.array(arrays[f"adam_{tag}/m{i}"]) for i in range(n)]
    state.v = [np.array(arrays[f"adam_{tag}/v{i}"]) for i in range(n)]
    state.step = int(ck["meta"]["adam_steps"][tag])
