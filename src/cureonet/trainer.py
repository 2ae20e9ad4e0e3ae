"""Training loop: Adam with stepped learning-rate decay, sequential
alternation between the temperature operators and the cure operator, a
curriculum on the heat-generation coefficient, and atomic checkpointing.

Curriculum stages form the outer loop (equal epoch shares, remainder to the
final full-coefficient stage); inside each stage the two phases alternate.
Each phase owns its Adam state; moments persist across phases and stages.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__ as code_version
from .autodiff import backward
from .design import DesignPoint, DesignSpace
from .losses import (COMPONENT_NAMES, CollocationConfig, LossWeights,
                     PHASE_ALL, PHASE_CURE, PHASE_TEMPERATURE,
                     breakdown_from, compute_components, sample_collocation,
                     total_loss)
from .operator import (OperatorTriplet, model_from_state, model_meta,
                       model_state, taped_triplet)
from .process import MaterialSet

CHECKPOINT_VERSION = 1


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
               self.curriculum_stages, self.designs_per_draw) < 1:
            raise ValueError("plan counts must be positive")

    def bc_scales(self) -> list[float]:
        if not self.curriculum:
            return [1.0]
        return list(np.linspace(0.0, 1.0, self.curriculum_stages))

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @staticmethod
    def from_dict(d: dict) -> "TrainPlan":
        return TrainPlan(**d)


def lr_at(step: int, plan: TrainPlan) -> float:
    """Stepped exponential decay: lr0 * decay^(step // every)."""
    return plan.lr0 * plan.lr_decay ** (step // plan.lr_decay_every)


@dataclass
class AdamState:
    """First/second moment estimates congruent with a parameter list."""

    m: list
    v: list
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

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
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= rate * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
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
    with open(path, "w", newline="") as f:
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


_PHASE_MODELS = {PHASE_TEMPERATURE: ("tc", "tt"), PHASE_CURE: ("alpha",)}


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
    step_config = replace(loss_config, q_interior=plan.batch_size,
                          q_ode=plan.batch_size)

    temp_arrays = (triplet.g_tc.trainable_arrays()
                   + triplet.g_tt.trainable_arrays())
    cure_arrays = triplet.g_alpha.trainable_arrays()
    adam_temp = AdamState.for_arrays(temp_arrays)
    adam_cure = AdamState.for_arrays(cure_arrays)
    history = TrainHistory()
    start_epoch = 0

    if resume_from is not None:
        ck = load_checkpoint(resume_from)
        _restore_triplet(triplet, ck)
        _restore_adam(adam_temp, ck, "temp")
        _restore_adam(adam_cure, ck, "cure")
        start_epoch = ck["meta"]["epoch"] + 1
        history.records = [EpochRecord(**r) for r in ck["meta"]["history"]]

    schedule = _epoch_schedule(plan)
    stage_start_total = None
    last_stage = None
    last_good = _make_checkpoint(triplet, adam_temp, adam_cure, plan, seed,
                                 designs, weights, loss_config,
                                 epoch=start_epoch - 1, history=history)

    def full_breakdown(epoch, bc_scale):
        eval_designs = designs
        if len(designs) > plan.designs_per_draw:
            pick = np.random.default_rng([seed, 7002, epoch, 5]).choice(
                len(designs), plan.designs_per_draw, replace=False)
            eval_designs = [designs[i] for i in sorted(pick)]
        cset = sample_collocation(triplet, eval_designs, step_config,
                                  seed=[seed, 7002, epoch], stratified=True)
        nets = taped_triplet(triplet, trainable=())
        comps = compute_components(nets, triplet, cset, props, bc_scale,
                                   phase=PHASE_ALL)
        return breakdown_from(comps)

    for epoch in range(start_epoch, len(schedule)):
        stage, bc_scale, phase = schedule[epoch]
        names = _PHASE_MODELS[phase]
        adam = adam_temp if phase == PHASE_TEMPERATURE else adam_cure
        arrays = temp_arrays if phase == PHASE_TEMPERATURE else cure_arrays

        if stage != last_stage:
            # divergence baseline: loss before any training in this stage
            stage_start_total = max(
                full_breakdown(epoch, bc_scale).total(weights), 1e-30)
            last_stage = stage

        for step in range(plan.steps_per_epoch):
            rng_key = [seed, 7001, epoch, step]
            draw = designs
            if len(designs) > plan.designs_per_draw:
                pick = np.random.default_rng(rng_key + [5]).choice(
                    len(designs), plan.designs_per_draw, replace=False)
                draw = [designs[i] for i in sorted(pick)]
            cset = sample_collocation(triplet, draw, step_config,
                                      seed=rng_key, stratified=True)
            nets = taped_triplet(triplet, trainable=names)
            comps = compute_components(nets, triplet, cset, props, bc_scale,
                                       phase=phase)
            loss = total_loss(comps, weights)
            backward(loss)
            grads = []
            for name in names:
                grads.extend(nets[name].gradient_arrays())
            try:
                adam_step(arrays, grads, adam, lr_at(adam.step, plan))
            except NonFiniteGradient:
                history.diverged = True
                break
        if history.diverged:
            _restore_triplet(triplet, last_good)
            break

        bd = full_breakdown(epoch, bc_scale)
        record = EpochRecord(
            epoch=epoch, stage=stage, bc_scale=bc_scale, phase=phase,
            lr_temp=lr_at(adam_temp.step, plan),
            lr_cure=lr_at(adam_cure.step, plan),
            total=bd.total(weights), breakdown=bd.as_dict())
        history.records.append(record)
        if log is not None:
            log(record)

        # NaN compares False, so a non-finite total is caught explicitly
        if not np.isfinite(record.total) \
                or record.total > plan.divergence_factor * stage_start_total:
            history.diverged = True
            _restore_triplet(triplet, last_good)
            break

        if (epoch + 1) % plan.checkpoint_every == 0 \
                or epoch == len(schedule) - 1:
            last_good = _make_checkpoint(triplet, adam_temp, adam_cure, plan,
                                         seed, designs, weights, loss_config,
                                         epoch=epoch, history=history)
            if out_dir is not None:
                os.makedirs(out_dir, exist_ok=True)
                save_checkpoint(os.path.join(out_dir, "checkpoint.npz"),
                                last_good)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        history_to_csv(history, os.path.join(out_dir, "history.csv"))
    return triplet, history


# -- checkpointing -------------------------------------------------------------


def _make_checkpoint(triplet, adam_temp, adam_cure, plan, seed, designs,
                     weights, loss_config, epoch, history) -> dict:
    arrays = {}
    for name, model in triplet.models().items():
        arrays.update(model_state(model, name))
    for tag, st in (("temp", adam_temp), ("cure", adam_cure)):
        for i, (m, v) in enumerate(zip(st.m, st.v)):
            arrays[f"adam_{tag}/m{i}"] = m.copy()
            arrays[f"adam_{tag}/v{i}"] = v.copy()
    arrays["designs"] = np.array([d.as_array() for d in designs])
    meta = {
        "version": CHECKPOINT_VERSION,
        "code_version": code_version,
        "epoch": epoch,
        "seed": seed,
        "plan": plan.to_dict(),
        "weights": weights.as_dict(),
        "loss_config": {k: getattr(loss_config, k)
                        for k in loss_config.__dataclass_fields__},
        "adam_steps": {"temp": adam_temp.step, "cure": adam_cure.step},
        "models": {name: model_meta(model)
                   for name, model in triplet.models().items()},
        "space": {"label": triplet.space.label,
                  "ranges": {k: list(v)
                             for k, v in triplet.space.ranges.items()}},
        "horizon": triplet.horizon,
        "t0": triplet.t0,
        "alpha_init": triplet.alpha_init,
        "cooldown": triplet.cooldown,
        "history": [
            {"epoch": r.epoch, "stage": r.stage, "bc_scale": r.bc_scale,
             "phase": r.phase, "lr_temp": r.lr_temp, "lr_cure": r.lr_cure,
             "total": r.total, "breakdown": r.breakdown}
            for r in history.records],
    }
    # deep-copy the model arrays so later training does not mutate them
    arrays = {k: np.array(v, copy=True) for k, v in arrays.items()}
    return {"meta": meta, "arrays": arrays}


def save_checkpoint(path, checkpoint: dict) -> None:
    """Atomic write (temp file + rename); bit-exact float64 round trip."""
    payload = dict(checkpoint["arrays"])
    payload["__meta__"] = np.frombuffer(
        json.dumps(checkpoint["meta"]).encode(), dtype=np.uint8)
    savez_atomic(path, **payload)


def savez_atomic(path, **arrays) -> None:
    """`np.savez` to a temp file in the target directory, then rename it
    over `path`: a reader sees the old file or the whole new one."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> dict:
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "__meta__"}
        meta = json.loads(bytes(data["__meta__"]).decode())
    if meta.get("version") != CHECKPOINT_VERSION:
        raise TrainerError(
            f"checkpoint version {meta.get('version')} unsupported "
            f"(expected {CHECKPOINT_VERSION})")
    return {"meta": meta, "arrays": arrays}


def triplet_from_checkpoint(ck: dict) -> tuple[OperatorTriplet, list]:
    """Rebuild the operator triplet and its training designs."""
    meta, arrays = ck["meta"], ck["arrays"]
    space = DesignSpace(meta["space"]["label"],
                        {k: tuple(v)
                         for k, v in meta["space"]["ranges"].items()})
    models = {name: model_from_state(meta["models"][name], arrays, name)
              for name in ("tc", "tt", "alpha")}
    triplet = OperatorTriplet(models["tc"], models["tt"], models["alpha"],
                              space, float(meta["horizon"]),
                              t0=float(meta["t0"]),
                              alpha_init=float(meta["alpha_init"]),
                              cooldown=bool(meta["cooldown"]))
    designs = [DesignPoint.from_array(row) for row in arrays["designs"]]
    return triplet, designs


def _restore_triplet(triplet: OperatorTriplet, ck: dict) -> None:
    rebuilt, _ = triplet_from_checkpoint(ck)
    for name, model in triplet.models().items():
        src = rebuilt.models()[name]
        for dst_a, src_a in zip(model.trainable_arrays(),
                                src.trainable_arrays()):
            dst_a[...] = src_a


def _restore_adam(state: AdamState, ck: dict, tag: str) -> None:
    arrays = ck["arrays"]
    n = len(state.m)
    state.m = [np.array(arrays[f"adam_{tag}/m{i}"]) for i in range(n)]
    state.v = [np.array(arrays[f"adam_{tag}/v{i}"]) for i in range(n)]
    state.step = int(ck["meta"]["adam_steps"][tag])
