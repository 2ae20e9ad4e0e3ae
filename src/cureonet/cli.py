"""Command-line surface: simulate, sample, train, evaluate, predict,
ablate, export-plot-data. Configs are JSON; every run is reproducible from
its config and seeds."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .design import (DesignPoint, DesignSpace, VARIABLE_NAMES, load_designs,
                     sample, save_designs)
from .evaluate import (AblationSetup, ablation_run, evaluate, export_plot_data,
                       reference_solution)
from .losses import CollocationConfig, LossWeights
from .operator import OperatorConfig, init_triplet, predict_field
from .process import load_material_set, write_json_atomic
from .solver import Grid1D, export_solution_csv, solve_batch, write_manifest
from .trainer import (TrainPlan, load_checkpoint, train,
                      triplet_from_checkpoint)


# The top-level config keys some subcommand reads. Every subcommand accepts
# all of them, since one train.json serves train, evaluate and ablate; any
# other key is refused, so a misspelt one does not silently fall back to
# its default.
CONFIG_KEYS = frozenset({
    "space", "narrow", "properties_file", "zero_heat_generation", "design",
    "grid", "cooldown", "store_every", "seed", "design_seed", "n_designs",
    "plan", "operator", "weights", "collocation", "n_test_designs",
    "test_seed", "nd_list"})


def _read_config(path) -> dict:
    if path is None:
        return {}
    with open(path) as f:
        cfg = json.load(f)
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown} in {path}")
    return cfg


def _space_from_config(cfg: dict) -> DesignSpace:
    space = DesignSpace.named(cfg.get("space", "small"))
    narrow = cfg.get("narrow")
    if narrow is not None:
        space = space.narrowed(float(narrow))
    return space


def _props_from_config(cfg: dict):
    props = load_material_set(cfg.get("properties_file"))
    if cfg.get("zero_heat_generation", False):
        part = dataclasses.replace(props.part, h_r=0.0)
        props = dataclasses.replace(props, part=part)
    return props


def _plan_from_config(cfg: dict) -> TrainPlan:
    return TrainPlan(**cfg.get("plan", {}))


def _operator_from_config(cfg: dict) -> OperatorConfig:
    return OperatorConfig(**cfg.get("operator", {}))


# The design and grid sections, like the others, reach their dataclass
# through `**`, so an unknown key is refused there.
def _design_from_config(d: dict) -> DesignPoint:
    missing = [n for n in VARIABLE_NAMES if n not in d]
    if missing:
        raise ValueError(f"design config missing fields {missing}")
    return DesignPoint(**{**d, **{n: float(d[n]) for n in VARIABLE_NAMES}})


def _grid_from_config(cfg: dict) -> Grid1D:
    # coerce the keys the section gives; Grid1D supplies the rest
    types = {"n_tool": int, "n_part": int, "dt": float}
    return Grid1D(**{k: types[k](v) if k in types else v
                     for k, v in cfg.get("grid", {}).items()})


def cmd_simulate(args) -> int:
    cfg = _read_config(args.config)
    design = _design_from_config(cfg["design"])
    props = _props_from_config(cfg)
    grid = _grid_from_config(cfg)
    [sol] = solve_batch([design], props, grid,
                        cooldown=bool(cfg.get("cooldown", False)),
                        store_every=int(cfg.get("store_every", 1)))
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "solution.csv")
    export_solution_csv(sol, csv_path)
    write_manifest(sol, props, os.path.join(args.out_dir, "manifest.json"))
    print(f"wrote {csv_path} ({len(sol.times)} time rows)")
    return 0


def cmd_sample(args) -> int:
    cfg = _read_config(args.config)
    space = _space_from_config({**cfg, "space": args.space or
                                cfg.get("space", "small")})
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    designs = sample(space, args.n, seed=seed)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "designs.csv")
    save_designs(path, designs, space, seed)
    print(f"wrote {path} ({len(designs)} designs, space {space.label})")
    return 0


def _training_setup(cfg: dict, seed_override=None):
    space = _space_from_config(cfg)
    props = _props_from_config(cfg)
    design_seed = int(cfg.get("design_seed", 1))
    designs = sample(space, int(cfg.get("n_designs", 8)), seed=design_seed)
    plan = _plan_from_config(cfg)
    op_config = _operator_from_config(cfg)
    weights = LossWeights(**cfg.get("weights", {}))
    loss_config = (CollocationConfig(**cfg["collocation"])
                   if "collocation" in cfg else None)
    seed = seed_override if seed_override is not None \
        else int(cfg.get("seed", 0))
    cooldown = bool(cfg.get("cooldown", False))
    return space, props, designs, plan, op_config, weights, loss_config, \
        seed, cooldown


def cmd_train(args) -> int:
    cfg = _read_config(args.config)
    space, props, designs, plan, op_config, weights, loss_config, seed, \
        cooldown = _training_setup(cfg, args.seed)
    triplet = init_triplet(op_config, space, seed=seed, cooldown=cooldown)
    os.makedirs(args.out_dir, exist_ok=True)

    def log(record):
        print(f"epoch {record.epoch:4d} stage {record.stage} "
              f"[{record.phase}] bc={record.bc_scale:.2f} "
              f"total={record.total:.6f}")

    triplet, history = train(triplet, designs, plan, props, seed=seed,
                             loss_config=loss_config, weights=weights,
                             out_dir=args.out_dir,
                             resume_from=args.resume, log=log)
    status = "diverged" if history.diverged else "done"
    print(f"training {status}; history and checkpoint in {args.out_dir}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _read_config(args.config)
    triplet, _train_designs = triplet_from_checkpoint(
        load_checkpoint(args.checkpoint))
    designs, _seed, _label = load_designs(args.designs)
    props = _props_from_config(cfg)
    grid = _grid_from_config(cfg)
    cache_dir = os.path.join(args.out_dir, "ref_cache")
    metrics = evaluate(triplet, designs, props, grid=grid,
                       cache_dir=cache_dir)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "metrics.json")
    write_json_atomic(path, {k: m.as_dict() for k, m in metrics.items()})
    for name, m in metrics.items():
        print(f"{name}: rel_l2={m.rel_l2:.4e} mae={m.mae:.4g} "
              f"max_abs={m.max_abs_err:.4g}")
    print(f"wrote {path}")
    return 0


def _indexed_design(args) -> DesignPoint:
    """The design `--design-index` picks from the `--designs` file."""
    designs, _seed, _label = load_designs(args.designs)
    if not 0 <= args.design_index < len(designs):
        raise ValueError(f"--design-index {args.design_index} outside 0 .. "
                         f"{len(designs) - 1}")
    return designs[args.design_index]


def cmd_predict(args) -> int:
    cfg = _read_config(args.config)
    triplet, _ = triplet_from_checkpoint(load_checkpoint(args.checkpoint))
    design = _indexed_design(args)
    grid = _grid_from_config(cfg)
    t_end = design.cycle(cooldown=triplet.cooldown).duration_s
    times = np.append(np.arange(0.0, t_end, grid.dt * 10), t_end)
    sol = predict_field(triplet, design, times, n_tool=grid.n_tool,
                        n_part=grid.n_part)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "prediction.csv")
    export_solution_csv(sol, path)
    print(f"wrote {path} (alpha clamped at {sol.meta['alpha_clamped']} "
          "grid points)")
    return 0


def cmd_ablate(args) -> int:
    cfg = _read_config(args.config)
    space, props, designs, plan, op_config, weights, loss_config, seed, \
        cooldown = _training_setup(cfg, args.seed)
    test_designs = sample(space, int(cfg.get("n_test_designs", 2)),
                          seed=int(cfg.get("test_seed", 9)))
    grid = _grid_from_config(cfg)
    setup = AblationSetup(
        space=space, designs=designs, test_designs=test_designs,
        props=props, plan=plan, config=op_config, seed=seed,
        loss_config=loss_config, weights=weights, grid=grid,
        cache_dir=os.path.join(args.out_dir, "ref_cache"),
        nd_list=tuple(cfg.get("nd_list", (1, 5, 7))), cooldown=cooldown)
    report = ablation_run(args.kind, setup, out_dir=args.out_dir)
    for v in report["variants"]:
        print(f"{v['name']}: final_total={v['final_total']:.6f} "
              f"midpoint_rel_l2={v['midpoint_rel_l2']:.4e} "
              f"midpoint_rel_l2_alpha={v['midpoint_rel_l2_alpha']:.4e}")
    return 0


def cmd_export_plot_data(args) -> int:
    cfg = _read_config(args.config)
    triplet, _ = triplet_from_checkpoint(load_checkpoint(args.checkpoint))
    ref = reference_solution(_indexed_design(args),
                             _props_from_config(cfg), _grid_from_config(cfg),
                             cache_dir=os.path.join(args.out_dir, "ref_cache"),
                             cooldown=triplet.cooldown)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "plot_data.csv")
    export_plot_data(triplet, ref, path)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cureonet",
        description="Physics-informed operator networks for autoclave "
                    "cure design, with a finite-difference reference solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--out-dir", default="out")
        p.add_argument("--config", default=None)
        if seed:
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("simulate", help="reference solver run to CSV")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sample", help="draw a design set to CSV")
    common(p, seed=True)
    p.add_argument("--space", choices=("small", "medium", "large"),
                   default=None)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("train", help="train the operator triplet")
    common(p, seed=True)
    p.add_argument("--resume", default=None,
                   help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metrics vs the reference solver")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--designs", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="export a predicted field")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--designs", required=True)
    p.add_argument("--design-index", type=int, default=0)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ablate", help="matched-budget ablation study")
    common(p, seed=True)
    p.add_argument("--kind", required=True,
                   choices=("decoder", "curriculum", "domain_decomp"))
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("export-plot-data",
                       help="mid-point trace comparison CSV")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--designs", required=True)
    p.add_argument("--design-index", type=int, default=0)
    p.set_defaults(func=cmd_export_plot_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # one-line machine-parsable failure
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
