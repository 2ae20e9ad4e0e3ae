"""Metrics against the reference solver, disk-cached reference solutions,
and the matched-budget ablation harnesses (decoder kind, curriculum,
temporal domain decomposition)."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import warnings
import zipfile
from dataclasses import dataclass

import numpy as np

from . import __version__ as code_version
from .design import DesignPoint, DesignSpace
from .losses import CollocationConfig, LossWeights
from .operator import (OperatorConfig, OperatorTriplet, init_triplet,
                       predict_field)
from .process import (MaterialSet, air_temperature, atomic_write,
                      savez_atomic, write_json_atomic)
from .solver import FieldSolution, Grid1D, exotherm, probe, solve_batch
from .trainer import TrainPlan, train


@dataclass(frozen=True)
class Metrics:
    """Per-output comparison against the reference solver. For one design
    (`solution_metrics`) each field is that design's value; `evaluate`
    averages each field over the designs, so its `max_abs_err` is the mean
    over designs of per-design maxima, not the maximum over all designs."""

    rel_l2: float
    mae: float
    max_abs_err: float
    exotherm_err: float | None = None

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _cache_name(design: DesignPoint, grid: Grid1D, cooldown: bool) -> str:
    payload = json.dumps({
        "design": list(design.as_array()),
        "grid": [grid.n_tool, grid.n_part, grid.dt, grid.t_end],
        "cooldown": cooldown,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


# Memory bound on one batched reference solve: ~9 designs at the default
# grid (81+81 nodes, dt = 1 s), where each design stores ~29 MB of fields.
MAX_BATCH_FIELD_BYTES = 256 * 2 ** 20


def reference_solution(design: DesignPoint, props: MaterialSet, grid: Grid1D,
                       cache_dir=None,
                       cooldown: bool = False) -> FieldSolution:
    """Reference solve of one design, cached on disk: the one-design case
    of `reference_solutions`."""
    return reference_solutions([design], props, grid, cache_dir=cache_dir,
                               cooldown=cooldown)[0]


def reference_solutions(designs, props: MaterialSet, grid: Grid1D,
                        cache_dir=None, cooldown: bool = False,
                        n_times: int | None = None) -> list[FieldSolution]:
    """Reference solves of several designs, in order. Cache entries are
    keyed by design + grid and carry the property hash and solver version;
    a stale or unreadable entry is recomputed with a warning. Misses are
    solved together in `solve_batch` calls of up to MAX_BATCH_FIELD_BYTES
    of fields each, and every entry is written whole (temp file + rename).
    With `n_times`, each solution is thinned to that many time rows as soon
    as it is read or written."""
    stamp = f"{props.content_hash()}:{code_version}"
    paths = [None] * len(designs)
    out = [None] * len(designs)
    misses = []
    for i, design in enumerate(designs):
        if cache_dir is not None:
            paths[i] = os.path.join(cache_dir, "ref_" + _cache_name(
                design, grid, cooldown) + ".npz")
            sol = _read_cache_entry(paths[i], stamp, design)
            if sol is not None:
                out[i] = _thinned(sol, n_times)
                continue
        misses.append(i)
    batch = _batch_size(designs, grid, cooldown)
    for start in range(0, len(misses), batch):
        chunk = misses[start:start + batch]
        solved = solve_batch([designs[i] for i in chunk], props, grid,
                             cooldown=cooldown)
        for i, sol in zip(chunk, solved):
            if cache_dir is not None:
                savez_atomic(paths[i], stamp=stamp, times=sol.times,
                             t_tool=sol.t_tool, t_part=sol.t_part,
                             alpha=sol.alpha)
            out[i] = _thinned(sol, n_times)
    return out


def _batch_size(designs, grid: Grid1D, cooldown: bool) -> int:
    """Designs per `solve_batch` call such that the full fields of one call
    (every step is stored) stay within MAX_BATCH_FIELD_BYTES."""
    t_end = grid.t_end if grid.t_end is not None else max(
        d.cycle(cooldown=cooldown).duration_s for d in designs)
    per_design = 8 * (grid.n_tool + 2 * grid.n_part + 1) \
        * (round(t_end / grid.dt) + 2)
    return max(1, MAX_BATCH_FIELD_BYTES // per_design)


def _read_cache_entry(path, stamp: str,
                      design: DesignPoint) -> FieldSolution | None:
    """The cached solution at `path`, or None (with a warning when an entry
    exists but is stale or unreadable)."""
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as f, np.load(f) as data:
            if str(data["stamp"]) == stamp:
                return FieldSolution(
                    times=data["times"], t_tool=data["t_tool"],
                    t_part=data["t_part"], alpha=data["alpha"],
                    design=design)
    except (OSError, ValueError, EOFError, KeyError,
            zipfile.BadZipFile) as err:
        warnings.warn(f"reference cache entry {path} is unreadable "
                      f"({err}); recomputing", RuntimeWarning)
        return None
    warnings.warn(f"reference cache entry {path} has a stale property "
                  "hash or solver version; recomputing", RuntimeWarning)
    return None


def _thin_indices(n: int, n_keep: int) -> np.ndarray:
    if n_keep >= n:
        return np.arange(n)
    return np.unique(np.round(np.linspace(0, n - 1, n_keep)).astype(int))


def _thinned(sol: FieldSolution, n_times: int | None) -> FieldSolution:
    if n_times is None:
        return sol
    rows = _thin_indices(len(sol.times), n_times)
    return FieldSolution(times=sol.times[rows], t_tool=sol.t_tool[rows],
                         t_part=sol.t_part[rows], alpha=sol.alpha[rows],
                         design=sol.design, bc_scale=sol.bc_scale)


def solution_metrics(pred: FieldSolution, ref: FieldSolution) -> dict:
    """Per-output comparison of two field solutions on identical grids."""
    pairs = {
        "part_temperature": (pred.t_part, ref.t_part),
        "tool_temperature": (pred.t_tool, ref.t_tool),
        "degree_of_cure": (pred.alpha, ref.alpha),
    }
    out = {}
    for name, (p, r) in pairs.items():
        if p.shape != r.shape:
            raise ValueError(f"{name}: shape mismatch {p.shape} vs {r.shape}")
        err = p - r
        exo = None
        if name == "part_temperature":
            exo = abs(exotherm(pred)[0] - exotherm(ref)[0])
        out[name] = Metrics(
            rel_l2=float(np.linalg.norm(err)
                         / max(np.linalg.norm(r), 1e-30)),
            mae=float(np.mean(np.abs(err))),
            max_abs_err=float(np.max(np.abs(err))),
            exotherm_err=exo)
    return out


def evaluate(triplet: OperatorTriplet, test_designs, props: MaterialSet,
             grid: Grid1D | None = None, n_times: int = 201,
             cache_dir=None) -> dict:
    """Metrics per output (part_temperature, tool_temperature,
    degree_of_cure) averaged over the test designs."""
    if not test_designs:
        raise ValueError("need at least one test design")
    if grid is None:
        grid = Grid1D()
    refs = reference_solutions(test_designs, props, grid,
                               cache_dir=cache_dir, cooldown=triplet.cooldown,
                               n_times=n_times)
    acc: dict = {}
    for design, ref in zip(test_designs, refs):
        pred = predict_field(triplet, design, ref.times,
                             n_tool=grid.n_tool, n_part=grid.n_part)
        for name, m in solution_metrics(pred, ref).items():
            acc.setdefault(name, []).append(m)

    out = {}
    for name, metrics in acc.items():
        out[name] = Metrics(
            rel_l2=float(np.mean([m.rel_l2 for m in metrics])),
            mae=float(np.mean([m.mae for m in metrics])),
            max_abs_err=float(np.mean([m.max_abs_err for m in metrics])),
            exotherm_err=(float(np.mean([m.exotherm_err for m in metrics]))
                          if metrics[0].exotherm_err is not None else None))
    return out


def midpoint_trace_rel_l2(triplet: OperatorTriplet, ref: FieldSolution,
                          field_name: str = "part_temperature") -> float:
    """Relative L2 error of the predicted mid-point trace of one field, at
    201 times, against the reference solution `ref`."""
    times = np.linspace(0.0, ref.times[-1], 201)
    ref_trace = probe(ref, 0.5, times, field_name)
    pred = predict_field(triplet, ref.design, times, n_tool=3, n_part=3)
    pred_trace = probe(pred, 0.5, times, field_name)
    return float(np.linalg.norm(pred_trace - ref_trace)
                 / max(np.linalg.norm(ref_trace), 1e-30))


def exotherm_window_max_error(triplet: OperatorTriplet,
                              ref: FieldSolution) -> float:
    """Max absolute part-temperature error within 900 s of the exotherm of
    the reference solution `ref`, at 121 times and `ref`'s nodes."""
    _t_max, t_at, _x = exotherm(ref)
    lo = max(0.0, t_at - 900.0)
    hi = min(ref.times[-1], t_at + 900.0)
    times = np.linspace(lo, hi, 121)
    pred = predict_field(triplet, ref.design, times,
                         n_tool=ref.t_tool.shape[1],
                         n_part=ref.t_part.shape[1])
    ref_window = probe(ref, pred.x_part, times[:, None], "part_temperature")
    return float(np.max(np.abs(pred.t_part - ref_window)))


# -- ablation harnesses ---------------------------------------------------------


@dataclass
class AblationSetup:
    """Shared context for matched-budget ablation comparisons."""

    space: DesignSpace
    designs: list
    test_designs: list
    props: MaterialSet
    plan: TrainPlan
    config: OperatorConfig
    seed: int
    loss_config: CollocationConfig | None = None
    weights: LossWeights = LossWeights()
    grid: Grid1D = Grid1D()
    cache_dir: str | None = None
    nd_list: tuple = (1, 5, 7)
    cooldown: bool = False


def ablation_run(kind: str, setup: AblationSetup, out_dir=None) -> dict:
    """Train matched-budget variants and report paired loss histories and
    metrics. Kinds: decoder (nonlinear vs linear), curriculum (on vs off),
    domain_decomp (subdomain counts). The test designs are solved once and
    every variant is scored against those references; variants and
    references share the setup's cooldown."""
    if kind == "decoder":
        variants = [(dec, dataclasses.replace(setup.config, decoder=dec),
                     setup.plan) for dec in ("nonlinear", "linear")]
    elif kind == "curriculum":
        variants = [(name, setup.config,
                     dataclasses.replace(setup.plan, curriculum=flag))
                    for name, flag in (("curriculum", True),
                                       ("regular", False))]
    elif kind == "domain_decomp":
        variants = [(f"nd{n_d}",
                     dataclasses.replace(setup.config, n_subdomains=n_d,
                                         boundaries=None), setup.plan)
                    for n_d in setup.nd_list]
    else:
        raise ValueError(f"unknown ablation kind {kind!r}")

    refs = reference_solutions(setup.test_designs, setup.props, setup.grid,
                               cache_dir=setup.cache_dir,
                               cooldown=setup.cooldown)
    reports = []
    for name, config, plan in variants:
        triplet = init_triplet(config, setup.space, seed=setup.seed,
                               cooldown=setup.cooldown)
        triplet, history = train(triplet, setup.designs, plan, setup.props,
                                 seed=setup.seed,
                                 loss_config=setup.loss_config,
                                 weights=setup.weights)
        rep = {
            "name": name,
            "final_total": (history.records[-1].total if history.records
                            else None),
            "loss_history": [r.total for r in history.records],
            "midpoint_rel_l2": float(np.mean(
                [midpoint_trace_rel_l2(triplet, ref) for ref in refs])),
        }
        if kind == "domain_decomp":
            rep["exotherm_window_max_err"] = float(np.mean(
                [exotherm_window_max_error(triplet, ref) for ref in refs]))
        reports.append(rep)

    report = {"kind": kind, "seed": setup.seed, "variants": reports}
    if out_dir is not None:
        write_json_atomic(os.path.join(out_dir, f"ablation_{kind}.json"),
                          report)
    return report


def export_plot_data(triplet: OperatorTriplet, ref: FieldSolution,
                     path) -> None:
    """Mid-point trace comparison CSV against the reference solution `ref`,
    201 rows of (time_s, T_air_C, T_mid_pred_C, T_mid_ref_C,
    alpha_mid_pred, alpha_mid_ref)."""
    times = np.linspace(0.0, ref.times[-1], 201)
    cycle = ref.design.cycle(cooldown=triplet.cooldown)
    t_air = air_temperature(cycle, times)
    pred = predict_field(triplet, ref.design, times, n_tool=3, n_part=3)
    t_ref = probe(ref, 0.5, times, "part_temperature")
    a_ref = probe(ref, 0.5, times, "alpha")
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["time_s", "T_air_C", "T_mid_pred_C", "T_mid_ref_C",
                         "alpha_mid_pred", "alpha_mid_ref"])
        for i, t in enumerate(times):
            writer.writerow([repr(float(t)), repr(float(t_air[i])),
                             repr(float(pred.t_part[i, 1])),
                             repr(float(t_ref[i])),
                             repr(float(pred.alpha[i, 1])),
                             repr(float(a_ref[i]))])
