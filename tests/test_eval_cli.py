"""Evaluation-metric and CLI tests: metric trivials, reference caching,
subcommand round trips, and reproducibility of CLI outputs."""

import ast
import dataclasses
import gc
import inspect
import json
import os
import warnings

import numpy as np
import pytest

from cureonet import cli
from cureonet.cli import main
from cureonet.design import DesignSpace, VARIABLE_NAMES, sample
from cureonet.evaluate import (Metrics, evaluate, exotherm_window_max_error,
                               midpoint_trace_rel_l2, reference_solution,
                               solution_metrics)
from cureonet.losses import CollocationConfig
from cureonet.operator import OperatorConfig, init_triplet, predict_field
from cureonet.process import load_material_set
from cureonet.solver import (FieldSolution, Grid1D, exotherm, probe,
                             solve_batch)
from cureonet.trainer import TrainPlan, train
from oracles import import_solution_csv, midpoint

PROPS = load_material_set()
SPACE = DesignSpace.named("small").narrowed(0.25)
DESIGN = midpoint(SPACE)
GRID = Grid1D(n_tool=11, n_part=11, dt=30.0)


def test_metrics_zero_when_prediction_equals_reference():
    ref = solve_batch([DESIGN], PROPS, GRID, store_every=10)[0]
    metrics = solution_metrics(ref, ref)
    for m in metrics.values():
        assert m.rel_l2 == 0.0
        assert m.mae == 0.0
        assert m.max_abs_err == 0.0
    assert metrics["part_temperature"].exotherm_err == 0.0


def test_metrics_unit_offset_gives_unit_mae_and_max():
    ref = solve_batch([DESIGN], PROPS, GRID, store_every=10)[0]
    pred = FieldSolution(times=ref.times, t_tool=ref.t_tool + 1.0,
                         t_part=ref.t_part + 1.0, alpha=ref.alpha,
                         design=DESIGN)
    metrics = solution_metrics(pred, ref)
    for name in ("part_temperature", "tool_temperature"):
        assert metrics[name].mae == pytest.approx(1.0)
        assert metrics[name].max_abs_err == pytest.approx(1.0)
    assert metrics["part_temperature"].exotherm_err == pytest.approx(1.0)
    assert metrics["degree_of_cure"].mae == 0.0


def test_metrics_shape_mismatch_rejected():
    ref = solve_batch([DESIGN], PROPS, GRID, store_every=10)[0]
    bad = FieldSolution(times=ref.times[:-1], t_tool=ref.t_tool[:-1],
                        t_part=ref.t_part[:-1], alpha=ref.alpha[:-1],
                        design=DESIGN)
    with pytest.raises(ValueError):
        solution_metrics(bad, ref)


def test_reference_cache_round_trip_and_stale_warning(tmp_path):
    cache = tmp_path / "cache"
    a = reference_solution(DESIGN, PROPS, GRID, cache_dir=cache)
    files = list(cache.glob("ref_*.npz"))
    assert len(files) == 1
    b = reference_solution(DESIGN, PROPS, GRID, cache_dir=cache)
    assert np.array_equal(a.t_part, b.t_part)
    # different properties -> same filename key, stale stamp -> recompute
    props2 = dataclasses.replace(
        PROPS, part=dataclasses.replace(PROPS.part, h_r=0.0))
    with pytest.warns(RuntimeWarning):
        c = reference_solution(DESIGN, props2, GRID, cache_dir=cache)
    assert not np.array_equal(a.t_part, c.t_part)


def test_evaluate_recovers_from_truncated_cache_entry(tmp_path):
    cache = tmp_path / "cache"
    triplet = init_triplet(OperatorConfig(q=6, hidden_width=6,
                                          hidden_layers=1, n_subdomains=2),
                           SPACE, seed=0)
    first = evaluate(triplet, [DESIGN], PROPS, grid=GRID, cache_dir=cache)
    (entry,) = cache.glob("ref_*.npz")
    with np.load(entry) as data:
        assert sorted(data.files) == ["alpha", "stamp", "t_part", "t_tool",
                                      "times"]
    entry.write_bytes(entry.read_bytes()[:200])
    with pytest.warns(RuntimeWarning, match="unreadable"):
        again = evaluate(triplet, [DESIGN], PROPS, grid=GRID,
                         cache_dir=cache)
    assert again == first
    # the entry was rewritten whole and hits again without a warning
    assert list(cache.glob("*.tmp")) == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = reference_solution(DESIGN, PROPS, GRID, cache_dir=cache)
    assert sol.meta == {}  # solver statistics are not cached
    assert np.array_equal(sol.t_part,
                          solve_batch([DESIGN], PROPS, GRID)[0].t_part)


def test_truncated_cache_entry_leaves_no_open_file(tmp_path):
    cache = tmp_path / "cache"
    reference_solution(DESIGN, PROPS, GRID, cache_dir=cache)
    (entry,) = cache.glob("ref_*.npz")
    entry.write_bytes(entry.read_bytes()[:200])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        reference_solution(DESIGN, PROPS, GRID, cache_dir=cache)
        gc.collect()
    assert [w.category for w in seen] == [RuntimeWarning]


def test_reference_batches_bounded_by_field_bytes(monkeypatch):
    import cureonet.evaluate as ev
    designs = sample(SPACE, 3, seed=4)
    together = ev.reference_solutions(designs, PROPS, GRID)
    calls = []
    real_solve_batch = ev.solve_batch

    def counting(batch, *args, **kw):
        calls.append(len(batch))
        return real_solve_batch(batch, *args, **kw)

    monkeypatch.setattr(ev, "solve_batch", counting)
    monkeypatch.setattr(ev, "MAX_BATCH_FIELD_BYTES", 1)
    alone = ev.reference_solutions(designs, PROPS, GRID, n_times=20)
    assert calls == [1, 1, 1]
    for a, t in zip(alone, together):
        assert len(a.times) == 20
        assert np.allclose(a.t_part, t.t_part[np.searchsorted(t.times,
                                                              a.times)],
                           rtol=1e-10, atol=0.0)


def test_evaluate_requires_designs():
    triplet = init_triplet(OperatorConfig(q=6, hidden_width=6,
                                          hidden_layers=1, n_subdomains=2),
                           SPACE, seed=0)
    with pytest.raises(ValueError):
        evaluate(triplet, [], PROPS)


def test_evaluate_perfect_when_reference_injected(tmp_path, monkeypatch):
    # feeding the solver output as the prediction drives all metrics to 0
    import cureonet.evaluate as ev
    triplet = init_triplet(OperatorConfig(q=6, hidden_width=6,
                                          hidden_layers=1, n_subdomains=2),
                           SPACE, seed=0)
    ref_holder = {}
    real_references = ev.reference_solutions

    def capture_refs(designs, props, grid, **kw):
        sols = real_references(designs, props, grid, **kw)
        ref_holder["sol"] = sols[0]
        return sols

    def fake_predict(tr, design, times, n_tool, n_part):
        sol = ref_holder["sol"]
        rows = np.searchsorted(sol.times, times)
        return FieldSolution(times=times, t_tool=sol.t_tool[rows],
                             t_part=sol.t_part[rows],
                             alpha=sol.alpha[rows], design=design)

    monkeypatch.setattr(ev, "reference_solutions", capture_refs)
    monkeypatch.setattr(ev, "predict_field", fake_predict)
    metrics = ev.evaluate(triplet, [DESIGN], PROPS, grid=GRID, n_times=20)
    for m in metrics.values():
        assert m.rel_l2 == 0.0 and m.mae == 0.0


@pytest.mark.parametrize("field_name", ["part_temperature",
                                        "tool_temperature", "alpha"])
def test_midpoint_trace_and_window_error_sanity(field_name):
    triplet = init_triplet(OperatorConfig(q=6, hidden_width=6,
                                          hidden_layers=1, n_subdomains=2),
                           SPACE, seed=0)
    ref = reference_solution(DESIGN, PROPS, GRID)
    rel = midpoint_trace_rel_l2(triplet, ref, field_name=field_name)
    # oracle: the middle column of a 3-node prediction against the probed
    # reference trace
    times = np.linspace(0.0, ref.times[-1], 201)
    pred = predict_field(triplet, DESIGN, times, n_tool=3, n_part=3)
    pred_trace = {"part_temperature": pred.t_part, "tool_temperature":
                  pred.t_tool, "alpha": pred.alpha}[field_name][:, 1]
    ref_trace = probe(ref, 0.5, times, field_name)
    assert rel == float(np.linalg.norm(pred_trace - ref_trace)
                        / max(np.linalg.norm(ref_trace), 1e-30)) > 0.0
    err = exotherm_window_max_error(triplet, ref)
    # oracle: the window probed one scalar point at a time
    _, t_at, _ = exotherm(ref)
    times = np.linspace(max(0.0, t_at - 900.0),
                        min(ref.times[-1], t_at + 900.0), 121)
    pred = predict_field(triplet, DESIGN, times, n_tool=GRID.n_tool,
                         n_part=GRID.n_part)
    window = np.array([[probe(ref, float(x), float(t), "part_temperature")
                        for x in pred.x_part] for t in times])
    assert err == float(np.max(np.abs(pred.t_part - window))) > 0.0


def test_ablation_solves_each_test_design_once(monkeypatch):
    import cureonet.evaluate as ev
    calls = []
    real_solve_batch = ev.solve_batch

    def counting(batch, *args, **kw):
        calls.append(list(batch))
        return real_solve_batch(batch, *args, **kw)

    monkeypatch.setattr(ev, "solve_batch", counting)
    test_designs = sample(SPACE, 2, seed=9)
    setup = ev.AblationSetup(
        space=SPACE, designs=sample(SPACE, 2, seed=1),
        test_designs=test_designs, props=PROPS,
        plan=TrainPlan(epochs=1, steps_per_epoch=1, curriculum=False,
                       batch_size=32),
        config=OperatorConfig(q=4, hidden_width=4, hidden_layers=1,
                              n_subdomains=1),
        seed=0, loss_config=CollocationConfig(q_ic=4, q_bc=4, q_if=4,
                                              q_ct=4),
        grid=GRID, cache_dir=None, nd_list=(1, 2, 3))
    report = ev.ablation_run("domain_decomp", setup)
    assert [v["name"] for v in report["variants"]] == ["nd1", "nd2", "nd3"]
    assert calls == [test_designs]


# -- command-line surface --------------------------------------------------------


def _write(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f)
    return str(path)


SIM_CONFIG = {
    "design": {"h_top": 100.0, "h_bot": 80.0, "r1": 2.0, "ht1": 110.0,
               "hd1": 60.0, "r2": 2.0, "ht2": 180.0, "hd2": 110.0,
               "l_tool": 0.03, "l_part": 0.03},
    "grid": {"n_tool": 9, "n_part": 9, "dt": 60.0},
    "store_every": 10,
}

TRAIN_CONFIG = {
    "space": "small", "narrow": 0.25, "n_designs": 2, "design_seed": 1,
    "seed": 5, "zero_heat_generation": True,
    "operator": {"q": 8, "hidden_width": 8, "hidden_layers": 1,
                 "n_subdomains": 2},
    "plan": {"epochs": 2, "steps_per_epoch": 2, "phase_epochs_temp": 1,
             "phase_epochs_cure": 1, "curriculum": False,
             "batch_size": 64, "checkpoint_every": 1},
    "collocation": {"q_ic": 16, "q_bc": 16, "q_if": 16, "q_ct": 16},
    "grid": {"n_tool": 9, "n_part": 9, "dt": 60.0},
}


def test_cli_simulate_writes_expected_header(tmp_path, capsys):
    cfg = _write(tmp_path / "sim.json", SIM_CONFIG)
    code = main(["simulate", "--config", cfg,
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "solution.csv").read_text().splitlines()
    assert lines[0] == "time_s,x_local,material,T_C,alpha"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["design"]["h_top"] == 100.0


def test_cli_unknown_subcommand_exits_nonzero(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0
    # --seed belongs only to the subcommands that draw random numbers
    inputs = ["--checkpoint", "missing.npz", "--designs", "missing.csv"]
    for command in (["simulate"], ["evaluate", *inputs], ["predict", *inputs],
                    ["export-plot-data", *inputs]):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--seed", "1", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2


def test_cli_error_is_one_line_and_nonzero(tmp_path, capsys):
    code = main(["evaluate", "--checkpoint", "missing.npz",
                 "--designs", "missing.csv",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ")


def _assert_one_error_line(capsys, expected):
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {expected}"]


def test_cli_simulate_rejects_a_negative_htc(tmp_path, capsys):
    cfg = _write(tmp_path / "sim.json", {
        **SIM_CONFIG, "design": {**SIM_CONFIG["design"], "h_top": -100.0}})
    code = main(["simulate", "--config", cfg,
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    _assert_one_error_line(capsys, "DomainError: HTCs must be non-negative")
    assert not (tmp_path / "out" / "solution.csv").exists()


@pytest.mark.parametrize("section, entries", [
    # at the default dt = 1 s, the misspelt dt_s would run 16 steps, not 2
    ("grid", {"n_tool": 5, "n_part": 5, "t_end": 16, "dt_s": 8}),
    ("design", {**SIM_CONFIG["design"], "dt_s": 8})])
def test_cli_simulate_refuses_an_unknown_key(tmp_path, capsys, section,
                                             entries):
    cfg = _write(tmp_path / "sim.json", {**SIM_CONFIG, section: entries})
    code = main(["simulate", "--config", cfg,
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: TypeError: ") and "'dt_s'" in err[0]
    assert not (tmp_path / "out" / "solution.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "train"])
def test_cli_refuses_an_unknown_top_level_key(tmp_path, capsys, command):
    # a misspelt "cooldown" would otherwise run without cooldown, exit 0
    config = SIM_CONFIG if command == "simulate" else TRAIN_CONFIG
    cfg = _write(tmp_path / "run.json", {**config, "cooldwn": True})
    code = main([command, "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ValueError: unknown config key") \
        and "'cooldwn'" in err[0]
    assert not (tmp_path / "out").exists()


def test_config_keys_are_the_keys_the_cli_reads():
    # every top-level key a subcommand reads is accepted, and no other
    read = set()
    for node in ast.walk(ast.parse(inspect.getsource(cli))):
        if isinstance(node, ast.Subscript):                 # cfg["k"]
            owner, key = node.value, node.slice
        elif isinstance(node, ast.Compare):                 # "k" in cfg
            owner, key = node.comparators[0], node.left
        elif isinstance(node, ast.Call) and node.args \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get":                # cfg.get("k")
            owner, key = node.func.value, node.args[0]
        else:
            continue
        if isinstance(owner, ast.Name) and owner.id == "cfg" \
                and isinstance(key, ast.Constant):
            read.add(key.value)
    assert read == set(cli.CONFIG_KEYS)


def test_cli_train_refuses_a_one_stage_curriculum(tmp_path, capsys):
    cfg = _write(tmp_path / "train.json", {
        **TRAIN_CONFIG, "plan": {**TRAIN_CONFIG["plan"], "curriculum": True,
                                 "curriculum_stages": 1}})
    code = main(["train", "--config", cfg, "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ValueError: a curriculum needs at least")
    assert not (tmp_path / "checkpoint.npz").exists()


def test_cli_evaluate_rejects_a_negative_thickness(tmp_path, capsys):
    cfg = _write(tmp_path / "train.json", TRAIN_CONFIG)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out-dir", str(out)]) == 0
    row = {**SIM_CONFIG["design"], "l_part": -0.03}
    designs = tmp_path / "designs.csv"
    designs.write_text(",".join([*VARIABLE_NAMES, "seed", "space"]) + "\n"
                       + ",".join([*(repr(row[n]) for n in VARIABLE_NAMES),
                                   "0", "small"]) + "\n")
    capsys.readouterr()
    code = main(["evaluate", "--config", cfg,
                 "--checkpoint", str(out / "checkpoint.npz"),
                 "--designs", str(designs), "--out-dir", str(tmp_path / "ev")])
    assert code == 1
    # the design is refused as it is read, before any reference solve
    _assert_one_error_line(capsys,
                           "DomainError: thicknesses must be positive")


def test_cli_sample_reproducible(tmp_path):
    for sub in ("a", "b"):
        code = main(["sample", "--space", "medium", "--n", "7",
                     "--seed", "3", "--out-dir", str(tmp_path / sub)])
        assert code == 0
    assert (tmp_path / "a" / "designs.csv").read_text() == \
        (tmp_path / "b" / "designs.csv").read_text()


def test_cli_train_evaluate_predict_pipeline(tmp_path, capsys):
    cfg = _write(tmp_path / "train.json", TRAIN_CONFIG)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out-dir", str(out)]) == 0
    assert (out / "checkpoint.npz").exists()
    assert (out / "history.csv").exists()

    # designs drawn from the same (narrowed) space for evaluation
    samp = tmp_path / "designs"
    assert main(["sample", "--n", "2", "--seed", "9", "--config", cfg,
                 "--out-dir", str(samp)]) == 0

    ev = tmp_path / "eval"
    assert main(["evaluate", "--config", cfg,
                 "--checkpoint", str(out / "checkpoint.npz"),
                 "--designs", str(samp / "designs.csv"),
                 "--out-dir", str(ev)]) == 0
    metrics = json.loads((ev / "metrics.json").read_text())
    assert set(metrics) == {"part_temperature", "tool_temperature",
                            "degree_of_cure"}
    assert metrics["part_temperature"]["rel_l2"] >= 0.0

    pred = tmp_path / "pred"
    assert main(["predict", "--config", cfg,
                 "--checkpoint", str(out / "checkpoint.npz"),
                 "--designs", str(samp / "designs.csv"),
                 "--design-index", "0", "--out-dir", str(pred)]) == 0
    sol = import_solution_csv(pred / "prediction.csv", DESIGN)
    assert sol.t_part.shape[1] == 9

    plot = tmp_path / "plot"
    assert main(["export-plot-data", "--config", cfg,
                 "--checkpoint", str(out / "checkpoint.npz"),
                 "--designs", str(samp / "designs.csv"),
                 "--design-index", "0", "--out-dir", str(plot)]) == 0
    lines = (plot / "plot_data.csv").read_text().splitlines()
    assert lines[0] == ("time_s,T_air_C,T_mid_pred_C,T_mid_ref_C,"
                        "alpha_mid_pred,alpha_mid_ref")
    assert len(lines) > 10


def test_cli_ablate_writes_each_kind(tmp_path, capsys):
    cfg = _write(tmp_path / "ablate.json", {**TRAIN_CONFIG, "nd_list": [1, 2]})
    names = {"decoder": ["nonlinear", "linear"],
             "curriculum": ["curriculum", "regular"],
             "domain_decomp": ["nd1", "nd2"]}
    for kind, expected in names.items():
        assert main(["ablate", "--kind", kind, "--config", cfg,
                     "--seed", "5", "--out-dir", str(tmp_path / "ab")]) == 0
        report = json.loads(
            (tmp_path / "ab" / f"ablation_{kind}.json").read_text())
        assert report["kind"] == kind and report["seed"] == 5
        assert [v["name"] for v in report["variants"]] == expected


def test_cli_ablate_honours_cooldown(tmp_path):
    # the variants and their references follow the config's cooldown
    reports = []
    for cooldown in (False, True):
        cfg = _write(tmp_path / f"ablate_{cooldown}.json",
                     {**TRAIN_CONFIG, "cooldown": cooldown})
        out = tmp_path / f"ab_{cooldown}"
        assert main(["ablate", "--kind", "decoder", "--config", cfg,
                     "--out-dir", str(out)]) == 0
        reports.append((out / "ablation_decoder.json").read_bytes())
    assert reports[0] != reports[1]


def test_cli_predict_csv_round_trips_field(tmp_path):
    # predicted CSV re-imports to the exact stored field
    cfg_payload = dict(TRAIN_CONFIG)
    cfg = _write(tmp_path / "train.json", cfg_payload)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out-dir", str(out)]) == 0
    samp = tmp_path / "designs"
    assert main(["sample", "--n", "1", "--seed", "4", "--config", cfg,
                 "--out-dir", str(samp)]) == 0
    pred = tmp_path / "pred"
    assert main(["predict", "--config", cfg,
                 "--checkpoint", str(out / "checkpoint.npz"),
                 "--designs", str(samp / "designs.csv"),
                 "--design-index", "0", "--out-dir", str(pred)]) == 0

    from cureonet.design import load_designs
    from cureonet.trainer import load_checkpoint, triplet_from_checkpoint
    triplet, _ = triplet_from_checkpoint(
        load_checkpoint(out / "checkpoint.npz"))
    designs, _, _ = load_designs(samp / "designs.csv")
    grid_dt = TRAIN_CONFIG["grid"]["dt"]
    t_end = designs[0].cycle(t0=triplet.t0,
                             cooldown=triplet.cooldown).duration_s
    times = np.append(np.arange(0.0, t_end, grid_dt * 10), t_end)
    direct = predict_field(triplet, designs[0], times, n_tool=9, n_part=9)
    back = import_solution_csv(pred / "prediction.csv", designs[0])
    assert np.array_equal(back.t_part, direct.t_part)
    assert np.array_equal(back.alpha, direct.alpha)


def test_cli_predict_times_end_at_the_cycle_end(tmp_path):
    # design 0 of sample seed 0 ends its cycle 46 s short of a 600 s
    # output stride, so a stride grid running one step past the end
    # overshoots the cycle
    cfg = _write(tmp_path / "train.json", TRAIN_CONFIG)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out-dir", str(out)]) == 0
    samp = tmp_path / "designs"
    assert main(["sample", "--n", "1", "--seed", "0", "--config", cfg,
                 "--out-dir", str(samp)]) == 0
    pred = tmp_path / "pred"
    assert main(["predict", "--config", cfg,
                 "--checkpoint", str(out / "checkpoint.npz"),
                 "--designs", str(samp / "designs.csv"),
                 "--design-index", "0", "--out-dir", str(pred)]) == 0

    from cureonet.design import load_designs
    design = load_designs(samp / "designs.csv")[0][0]
    t_end = design.cycle().duration_s
    stride = 10 * TRAIN_CONFIG["grid"]["dt"]
    assert np.arange(0.0, t_end + stride / 10, stride)[-1] > t_end
    times = import_solution_csv(pred / "prediction.csv", design).times
    assert times[-1] == t_end
    assert np.all(times <= t_end)
    assert np.all(np.diff(times) > 0.0)


def test_metrics_as_dict():
    m = Metrics(rel_l2=0.1, mae=0.2, max_abs_err=0.3, exotherm_err=None)
    assert m.as_dict() == {"rel_l2": 0.1, "mae": 0.2, "max_abs_err": 0.3,
                           "exotherm_err": None}
