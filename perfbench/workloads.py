"""The benchmark's three closed-loop workloads, each one client in one
thread. A workload draws its inputs from the workload seed, hands the
package only those inputs, and checks every operation's outputs.

- reference: one cold-cache `evaluate` over four designs from the full
  `small` space (two antithetic pairs, so cycle lengths differ inside a call
  but their mean barely moves between seeds), at 81+81 nodes and dt = 8 s.
  The solver does almost all of the work.
- train: one `train()` call from a fixed init on 8 designs from `small`
  narrowed to 0.2, batch 1024, default collocation, both phases over two
  curriculum stages, with checkpoints written; the workload seed is the
  training seed. The solver does nothing.
- surrogate: one warm-cache `evaluate` of one design at 201 x 81 output
  points; setup solves an antithetic pair of designs into the cache and
  queries alternate between them. Operator inference does almost all of
  the work.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

from cureonet import DesignSpace, Grid1D, load_material_set, sample
from cureonet import evaluate as evaluate_mod
from cureonet import trainer as trainer_mod
from cureonet.design import VARIABLE_NAMES, DesignPoint
from cureonet.operator import OperatorConfig, init_triplet
from cureonet.trainer import TrainPlan

INIT_SEED = 0          # operator weights; cost does not depend on them
# The train workload's seed drives collocation draws; its designs are the
# README's minimal set. Drawing them from the seed too would move the final
# loss by ~8% between seeds against ~2% from collocation alone.
TRAIN_DESIGN_SEED = 1
DEFAULT_SEED = 0       # the workload seed the golden values belong to
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")

# A refactor of the solver's linear algebra moves results by ~1e-10; the
# discretisation error at dt = 8 s is ~1e-2 degC. Goldens sit in between.
TOL_TEMPERATURE = 1e-6   # degC
TOL_ALPHA = 1e-8
TOL_LOSS_REL = 1e-6


@dataclass
class Result:
    """What one operation returned: a loss-like scalar that must repeat for
    the same `key`, and the designs and steps it covered."""

    loss: float
    designs: int
    steps: int
    key: int = 0
    detail: object = None


def antithetic(space: DesignSpace, n: int, seed: int) -> list:
    """n designs as n/2 uniform draws, each followed by its mirror image
    through the centre of the space."""
    lo = np.array([space.ranges[v][0] for v in VARIABLE_NAMES])
    hi = np.array([space.ranges[v][1] for v in VARIABLE_NAMES])
    out = []
    for d in sample(space, n // 2, seed):
        out += [d, DesignPoint.from_array(lo + hi - d.as_array())]
    return out


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _metric_values(metrics: dict) -> list:
    """Every number `evaluate` returned, in a fixed order."""
    return [v for m in metrics.values() for v in m.as_dict().values()
            if v is not None]


def load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


class Reference:
    name = "reference"
    n_designs = 4
    # Per-step cost is per-call overhead, so a coarse step changes only the
    # number of steps; it lets a run hold several operations.
    grid = Grid1D(n_tool=81, n_part=81, dt=8.0)

    def setup(self, seed, workdir):
        space = DesignSpace.named("small")
        triplet = init_triplet(OperatorConfig(), space, seed=INIT_SEED)
        designs = antithetic(space, self.n_designs, seed)
        steps = sum(max(1, round(d.cycle(t0=triplet.t0,
                                         cooldown=triplet.cooldown)
                                 .duration_s / self.grid.dt))
                    for d in designs)
        return {"props": load_material_set(), "triplet": triplet,
                "designs": designs, "steps": steps, "workdir": workdir}

    def op(self, state, i):
        cache = os.path.join(state["workdir"], f"ref-cache-{i}")
        metrics = evaluate_mod.evaluate(state["triplet"], state["designs"],
                                        state["props"], self.grid,
                                        cache_dir=cache)
        return Result(loss=metrics["part_temperature"].rel_l2,
                      designs=len(state["designs"]), steps=state["steps"],
                      detail={"metrics": metrics, "cache": cache})

    def observe(self, state, result) -> dict:
        """Per-design exotherm and final mid-point alpha, read back from
        the cache the operation filled; raises on malformed fields."""
        exo, alpha_mid = [], []
        for design in state["designs"]:
            sol = evaluate_mod.reference_solution(
                design, state["props"], self.grid,
                cache_dir=result.detail["cache"],
                cooldown=state["triplet"].cooldown)
            alpha0 = state["triplet"].alpha_init
            for f in (sol.times, sol.t_tool, sol.t_part, sol.alpha):
                if not np.all(np.isfinite(f)):
                    raise ValueError("non-finite field")
            if np.any(np.diff(sol.alpha, axis=0) < -1e-12):
                raise ValueError("alpha decreases in time")
            if sol.alpha.min() < alpha0 - 1e-12 or sol.alpha.max() > 1 + 1e-12:
                raise ValueError("alpha outside [alpha0, 1]")
            i, j = np.unravel_index(np.argmax(sol.t_part), sol.t_part.shape)
            exo.append([float(sol.t_part[i, j]), float(sol.times[i])])
            alpha_mid.append(float(sol.alpha[-1, sol.alpha.shape[1] // 2]))
        return {"exotherm": exo, "alpha_mid_end": alpha_mid,
                "final_loss": result.loss}

    def check(self, state, result, seed) -> list:
        try:
            return self._check(state, result, seed)
        finally:
            shutil.rmtree(result.detail["cache"], ignore_errors=True)

    def _check(self, state, result, seed) -> list:
        problems = []
        if not _finite(_metric_values(result.detail["metrics"])):
            problems.append("non-finite evaluate metrics")
        try:
            seen = self.observe(state, result)
        except ValueError as err:
            return problems + [str(err)]
        if seed == DEFAULT_SEED:
            gold = load_golden()[self.name]
            for key in ("exotherm", "alpha_mid_end"):
                if len(seen[key]) != len(gold[key]):
                    problems.append(f"{len(seen[key])} designs seen, golden "
                                    f"{key} has {len(gold[key])}")
            for (t, at), (gt, gat) in zip(seen["exotherm"], gold["exotherm"]):
                if abs(t - gt) > TOL_TEMPERATURE or \
                        abs(at - gat) > 0.5 * self.grid.dt:
                    problems.append(f"exotherm {t}@{at} != golden {gt}@{gat}")
            for a, ga in zip(seen["alpha_mid_end"], gold["alpha_mid_end"]):
                if abs(a - ga) > TOL_ALPHA:
                    problems.append(f"final mid alpha {a} != golden {ga}")
            problems += _loss_vs_golden(result.loss, gold["final_loss"])
        return problems


class Train:
    name = "train"
    n_designs = 8
    plan = TrainPlan(batch_size=1024, epochs=4, steps_per_epoch=4,
                     phase_epochs_temp=1, phase_epochs_cure=1,
                     curriculum=True, curriculum_stages=2,
                     checkpoint_every=2)

    def setup(self, seed, workdir):
        space = DesignSpace.named("small").narrowed(0.2)
        return {"props": load_material_set(),
                "triplet": init_triplet(OperatorConfig(), space,
                                        seed=INIT_SEED),
                "designs": sample(space, self.n_designs, TRAIN_DESIGN_SEED),
                "seed": seed, "workdir": workdir}

    def op(self, state, i):
        out_dir = os.path.join(state["workdir"], f"train-{i}")
        _, history = trainer_mod.train(state["triplet"].copy(),
                                       state["designs"], self.plan,
                                       state["props"], seed=state["seed"],
                                       out_dir=out_dir)
        steps = len(history.records) * self.plan.steps_per_epoch
        return Result(loss=history.records[-1].total,
                      designs=len(state["designs"]), steps=steps,
                      detail={"history": history, "out_dir": out_dir})

    def observe(self, state, result) -> dict:
        return {"final_loss": result.loss}

    def check(self, state, result, seed) -> list:
        history = result.detail["history"]
        shutil.rmtree(result.detail["out_dir"], ignore_errors=True)
        problems = []
        if history.diverged:
            problems.append("training diverged")
        if not _finite(history.totals()):
            problems.append("non-finite epoch total")
        if len(history.records) != self.plan.epochs:
            problems.append(f"{len(history.records)} of {self.plan.epochs} "
                            "epochs recorded")
        if seed == DEFAULT_SEED:
            problems += _loss_vs_golden(
                result.loss, load_golden()[self.name]["final_loss"])
        return problems


class Surrogate:
    name = "surrogate"
    n_designs = 2
    # The cached reference only needs >= 201 stored steps; a coarse step
    # keeps filling the cache (part of setup) short. An antithetic pair
    # keeps that fill time nearly the same for every seed.
    grid = Grid1D(n_tool=81, n_part=81, dt=32.0)
    n_times = 201

    def setup(self, seed, workdir):
        space = DesignSpace.named("small")
        triplet = init_triplet(OperatorConfig(), space, seed=INIT_SEED)
        designs = antithetic(space, self.n_designs, seed)
        props = load_material_set()
        cache = os.path.join(workdir, "surrogate-cache")
        shutil.rmtree(cache, ignore_errors=True)
        for design in designs:
            evaluate_mod.reference_solution(design, props, self.grid,
                                            cache_dir=cache,
                                            cooldown=triplet.cooldown)
        return {"props": props, "triplet": triplet, "designs": designs,
                "cache": cache, "first": {}}

    def op(self, state, i):
        k = i % len(state["designs"])
        metrics = evaluate_mod.evaluate(
            state["triplet"], [state["designs"][k]], state["props"],
            self.grid, n_times=self.n_times, cache_dir=state["cache"])
        return Result(loss=metrics["part_temperature"].rel_l2, designs=1,
                      steps=self.n_times, key=k,
                      detail=_metric_values(metrics))

    def observe(self, state, result) -> dict:
        return {"final_loss": result.loss}

    def check(self, state, result, seed) -> list:
        if not _finite(result.detail):
            return ["non-finite evaluate metrics"]
        first = state["first"].setdefault(result.key, result.detail)
        if first != result.detail:
            return [f"design {result.key}: metrics differ between queries"]
        return []


def _loss_vs_golden(loss, golden) -> list:
    if abs(loss - golden) > TOL_LOSS_REL * abs(golden):
        return [f"final loss {loss!r} != golden {golden!r}"]
    return []


WORKLOADS = {w.name: w for w in (Reference(), Train(), Surrogate())}
