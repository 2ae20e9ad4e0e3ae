"""Reference-solver tests: equilibrium preservation, manufactured-solution
convergence orders, interface continuity, kinetics coupling, batching over
designs, probing, and CSV round trips."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cureonet.design import VARIABLE_NAMES, DesignPoint, DesignSpace, sample
from cureonet.process import (DomainError, celsius_to_kelvin, cure_rate,
                              load_material_set)
from cureonet.solver import (FieldSolution, Grid1D, MmsForcing, SolverError,
                             _advance_alpha, exotherm, export_solution_csv,
                             probe, run_manifest, solve_batch)
from oracles import import_solution_csv, midpoint

PROPS = load_material_set()
PROPS_NO_HEAT = dataclasses.replace(
    PROPS, part=dataclasses.replace(PROPS.part, h_r=0.0))

DESIGN = DesignPoint(h_top=100.0, h_bot=80.0, r1=2.0, ht1=110.0, hd1=60.0,
                     r2=2.0, ht2=180.0, hd2=110.0, l_tool=0.03, l_part=0.028)


def test_equilibrium_is_preserved_to_machine_precision():
    grid = Grid1D(n_tool=41, n_part=41, dt=2.0, t_end=600.0)
    sol = solve_batch([DESIGN], PROPS_NO_HEAT, grid,
                      air_override=lambda t: 20.0)[0]
    assert np.max(np.abs(sol.t_tool - 20.0)) < 1e-10
    assert np.max(np.abs(sol.t_part - 20.0)) < 1e-10
    # kinetics barely move at room temperature over this horizon
    assert np.max(np.abs(sol.alpha - 0.05)) < 1e-6


def test_interface_rows_satisfied_every_step():
    grid = Grid1D(n_tool=31, n_part=31, dt=5.0, t_end=1800.0)
    sol = solve_batch([DESIGN], PROPS, grid)[0]
    value_jump = np.max(np.abs(sol.t_tool[:, -1] - sol.t_part[:, 0]))
    assert value_jump < 1e-9
    # one-sided second-order flux stencils on each side
    h1 = 1.0 / (grid.n_tool - 1)
    h2 = 1.0 / (grid.n_part - 1)
    kt_l = PROPS.tool.k / DESIGN.l_tool
    kc_l = PROPS.part.k / DESIGN.l_part
    flux_t = kt_l * (3 * sol.t_tool[1:, -1] - 4 * sol.t_tool[1:, -2]
                     + sol.t_tool[1:, -3]) / (2 * h1)
    flux_c = kc_l * (-3 * sol.t_part[1:, 0] + 4 * sol.t_part[1:, 1]
                     - sol.t_part[1:, 2]) / (2 * h2)
    scale = np.maximum(np.abs(flux_t), 1.0)
    assert np.max(np.abs(flux_t - flux_c) / scale) < 1e-9


def _manufactured_setup():
    """Smooth manufactured fields with all mismatch absorbed by forcing."""
    d = DESIGN
    a_t = PROPS.tool.diffusivity / d.l_tool ** 2
    a_c = PROPS_NO_HEAT.part.diffusivity / d.l_part ** 2
    w = 1.0 / 600.0

    def m1(x, t):
        return 20.0 + 15.0 * np.sin(1.3 * x + 0.4) * (1 - np.exp(-w * t)) \
            + 5.0 * x ** 2

    def m1_t(x, t):
        return 15.0 * np.sin(1.3 * x + 0.4) * w * np.exp(-w * t)

    def m1_x(x, t):
        return 15.0 * 1.3 * np.cos(1.3 * x + 0.4) * (1 - np.exp(-w * t)) \
            + 10.0 * x

    def m1_xx(x, t):
        return -15.0 * 1.3 ** 2 * np.sin(1.3 * x + 0.4) \
            * (1 - np.exp(-w * t)) + 10.0

    def m2(x, t):
        return 20.0 + 12.0 * np.cos(0.9 * x) * (1 - np.exp(-w * t)) \
            + 3.0 * x ** 3

    def m2_t(x, t):
        return 12.0 * np.cos(0.9 * x) * w * np.exp(-w * t)

    def m2_x(x, t):
        return -12.0 * 0.9 * np.sin(0.9 * x) * (1 - np.exp(-w * t)) \
            + 9.0 * x ** 2

    def m2_xx(x, t):
        return -12.0 * 0.9 ** 2 * np.cos(0.9 * x) * (1 - np.exp(-w * t)) \
            + 18.0 * x

    tair = lambda t: 20.0 + 0.05 * t
    beta_b = d.h_bot * d.l_tool / PROPS.tool.k
    beta_t = d.h_top * d.l_part / PROPS_NO_HEAT.part.k
    kt_l = PROPS.tool.k / d.l_tool
    kc_l = PROPS_NO_HEAT.part.k / d.l_part
    forcing = MmsForcing(
        source_tool=lambda x, t: m1_t(x, t) - a_t * m1_xx(x, t),
        source_part=lambda x, t: m2_t(x, t) - a_c * m2_xx(x, t),
        g_bot=lambda t: m1_x(0.0, t) - beta_b * (m1(0.0, t) - tair(t)),
        g_top=lambda t: m2_x(1.0, t) - beta_t * (tair(t) - m2(1.0, t)),
        g_val=lambda t: m1(1.0, t) - m2(0.0, t),
        g_flux=lambda t: kt_l * m1_x(1.0, t) - kc_l * m2_x(0.0, t),
        ic_tool=lambda x: m1(x, 0.0),
        ic_part=lambda x: m2(x, 0.0))
    return m1, m2, tair, forcing


def _mms_error(n, dt, t_end=600.0):
    m1, m2, tair, forcing = _manufactured_setup()
    grid = Grid1D(n_tool=n, n_part=n, dt=dt, t_end=t_end)
    sol = solve_batch([DESIGN], PROPS_NO_HEAT, grid, forcing=forcing,
                      air_override=tair, store_every=10 ** 9)[0]
    t_n = sol.times[-1]
    return max(np.max(np.abs(sol.t_tool[-1] - m1(sol.x_tool, t_n))),
               np.max(np.abs(sol.t_part[-1] - m2(sol.x_part, t_n))))


def test_spatial_convergence_order_at_least_1p9():
    errs = [_mms_error(n, dt=0.5) for n in (11, 21, 41)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9, f"spatial orders {orders}"


def test_temporal_convergence_order_at_least_1p9():
    # temporal error isolated against a small-dt run on the same grid
    m1, m2, tair, forcing = _manufactured_setup()

    def run(dt):
        grid = Grid1D(n_tool=41, n_part=41, dt=dt, t_end=600.0)
        return solve_batch([DESIGN], PROPS_NO_HEAT, grid, forcing=forcing,
                           air_override=tair, store_every=10 ** 9)[0]

    ref = run(0.5)
    errs = []
    for dt in (60.0, 30.0, 15.0):
        sol = run(dt)
        errs.append(max(np.max(np.abs(sol.t_tool[-1] - ref.t_tool[-1])),
                        np.max(np.abs(sol.t_part[-1] - ref.t_part[-1]))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9, f"temporal orders {orders}"


def test_alpha_monotone_and_bounded():
    grid = Grid1D(n_tool=41, n_part=41, dt=4.0)
    sol = solve_batch([DESIGN], PROPS, grid, store_every=5)[0]
    assert np.all(np.diff(sol.alpha, axis=0) >= 0.0)
    assert np.all(sol.alpha >= 0.05) and np.all(sol.alpha <= 1.0)


@pytest.mark.parametrize("dt", [1.0, 8.0])
def test_kinetics_step_is_rk4_on_the_guarded_cure_rate(dt):
    # ties the solver's kinetics to cure_rate, which the frozen
    # high-precision oracle checks: one sub-step is a classical RK4 step
    # on the public guarded law, clamped at full cure
    alpha, t_c = np.meshgrid(np.linspace(0.05, 0.95, 19),
                             np.linspace(20.0, 200.0, 19))
    kin = PROPS.kinetics

    def rate(a):
        return cure_rate(a, celsius_to_kelvin(t_c), kin)

    k1 = rate(alpha)
    k2 = rate(alpha + 0.5 * dt * k1)
    k3 = rate(alpha + 0.5 * dt * k2)
    k4 = rate(alpha + dt * k3)
    want = np.minimum(alpha + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), 1.0)
    got = _advance_alpha(alpha, t_c, kin, dt, 1)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_small_space_design_reaches_converged_final_cure():
    # self-oracle: converged min final DoC for the small-space midpoint is
    # 0.8252 (recorded from a 3-level grid study); assert with margin
    design = midpoint(DesignSpace.named("small"))
    sol = solve_batch([design], PROPS, Grid1D(n_tool=81, n_part=81, dt=2.0),
                      store_every=50)[0]
    assert np.min(sol.alpha[-1]) > 0.82


def test_exotherm_stable_under_grid_refinement():
    design = midpoint(DesignSpace.named("small"))
    coarse = solve_batch([design], PROPS,
                         Grid1D(n_tool=41, n_part=41, dt=4.0),
                         store_every=4)[0]
    fine = solve_batch([design], PROPS, Grid1D(n_tool=81, n_part=81, dt=2.0),
                       store_every=4)[0]
    assert abs(exotherm(coarse)[0] - exotherm(fine)[0]) < 0.2


def test_exotherm_without_generation_is_final_hold():
    grid = Grid1D(n_tool=31, n_part=31, dt=5.0)
    sol = solve_batch([DESIGN], PROPS_NO_HEAT, grid, store_every=10)[0]
    t_max, _t, _x = exotherm(sol)
    assert t_max < DESIGN.ht2 + 1e-6
    assert t_max > DESIGN.ht2 - 0.5  # part reaches the hold by cycle end


def test_exotherm_finds_injected_spike_with_tie_breaking():
    times = np.array([0.0, 1.0, 2.0])
    t_part = np.full((3, 5), 20.0)
    t_part[1, 3] = 99.0
    t_part[2, 4] = 99.0  # later duplicate must lose the tie
    sol = FieldSolution(times=times, t_tool=np.full((3, 4), 20.0),
                        t_part=t_part, alpha=np.full((3, 5), 0.05),
                        design=DESIGN)
    t_max, t_at, x_at = exotherm(sol)
    assert t_max == 99.0 and t_at == 1.0 and x_at == pytest.approx(0.75)


def test_probe_exact_at_nodes_and_midpoints():
    times = np.array([0.0, 10.0])
    t_tool = np.array([[0.0, 1.0, 2.0], [10.0, 11.0, 12.0]])
    sol = FieldSolution(times=times, t_tool=t_tool,
                        t_part=np.zeros((2, 3)), alpha=np.zeros((2, 3)),
                        design=DESIGN)
    assert probe(sol, 0.5, 0.0, "tool_temperature") == 1.0
    assert probe(sol, 0.25, 0.0, "tool_temperature") == pytest.approx(0.5)
    assert probe(sol, 1.0, 5.0, "tool_temperature") == pytest.approx(7.0)
    with pytest.raises(DomainError):
        probe(sol, 1.5, 0.0, "tool_temperature")
    with pytest.raises(DomainError):
        probe(sol, 0.5, 11.0, "tool_temperature")
    # array x (broadcast against t) equals scalar calls bit for bit
    xs = np.array([0.0, 0.1, 0.25, 0.5, 0.8, 1.0])
    ts = np.array([0.0, 2.5, 7.0, 10.0])
    grid = probe(sol, xs, ts[:, None], "tool_temperature")
    assert grid.shape == (ts.size, xs.size)
    for i, t in enumerate(ts):
        row = probe(sol, xs, t, "tool_temperature")
        for j, x in enumerate(xs):
            scalar = probe(sol, float(x), float(t), "tool_temperature")
            assert isinstance(scalar, float)
            assert grid[i, j] == row[j] == scalar
    # every coordinate is checked
    for bad in ([0.5, 1.5], [-0.1, 0.5], [0.5, np.nan]):
        with pytest.raises(DomainError):
            probe(sol, np.array(bad), 0.0, "tool_temperature")
    for bad in ([0.0, 11.0], [-1.0, 5.0], [5.0, np.nan]):
        with pytest.raises(DomainError):
            probe(sol, xs, np.array(bad)[:, None], "tool_temperature")


def test_probe_against_fine_grid_resolve():
    grid = Grid1D(n_tool=21, n_part=21, dt=10.0, t_end=3600.0)
    fine = Grid1D(n_tool=81, n_part=81, dt=2.5, t_end=3600.0)
    sol = solve_batch([DESIGN], PROPS, grid)[0]
    ref = solve_batch([DESIGN], PROPS, fine)[0]
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = float(rng.uniform(0, 1))
        t = float(rng.uniform(0, 3600.0))
        a = probe(sol, x, t, "part_temperature")
        b = probe(ref, x, t, "part_temperature")
        # bound by the coarse grid's interpolation + discretization error
        assert abs(a - b) < 0.05


def test_solver_aborts_on_degenerate_inputs():
    bad = dataclasses.replace(DESIGN, h_top=float("inf"))
    grid = Grid1D(n_tool=11, n_part=11, dt=10.0, t_end=100.0)
    with pytest.raises(SolverError):
        solve_batch([bad], PROPS, grid)


@pytest.mark.parametrize("store_every", [1, 7])
def test_batch_matches_each_design_solved_alone(store_every):
    designs = sample(DesignSpace.named("small"), 4, seed=3)
    grid = Grid1D(n_tool=21, n_part=21, dt=20.0)
    batch = solve_batch(designs, PROPS, grid, store_every=store_every)
    assert len({len(sol.times) for sol in batch}) > 1  # ragged cycle ends
    for design, got in zip(designs, batch):
        alone = solve_batch([design], PROPS, grid, store_every=store_every)[0]
        assert got.design == design
        assert np.array_equal(got.times, alone.times)
        for f in ("t_tool", "t_part", "alpha"):
            want = getattr(alone, f)
            err = np.max(np.abs(getattr(got, f) - want))
            assert err <= 1e-10 * np.max(np.abs(want)), f
        # each design stops at its own cycle end, not the batch's last one
        assert abs(got.times[-1] - design.cycle().duration_s) \
            <= 0.5 * grid.dt


def test_batch_names_the_degenerate_design():
    bad = dataclasses.replace(DESIGN, h_top=float("inf"))
    grid = Grid1D(n_tool=11, n_part=11, dt=10.0, t_end=100.0)
    with pytest.raises(SolverError, match="design 2"):
        solve_batch([DESIGN, DESIGN, bad, DESIGN], PROPS, grid)


def test_solve_batch_rejects_bad_arguments():
    grid = Grid1D(n_tool=11, n_part=11, dt=10.0, t_end=100.0)
    with pytest.raises(ValueError):
        solve_batch([], PROPS, grid)
    with pytest.raises(ValueError):
        solve_batch([DESIGN], PROPS, grid, store_every=0)
    with pytest.raises(DomainError):
        solve_batch([DESIGN], PROPS, grid, bc_scale=1.5)


def test_solver_stats_in_meta_and_manifest():
    grid = Grid1D(n_tool=11, n_part=11, dt=60.0)
    sol = solve_batch([DESIGN], PROPS, grid)[0]
    steps = round(DESIGN.cycle().duration_s / grid.dt)
    assert sol.meta["steps"] == steps == len(sol.times) - 1
    assert sol.meta["wall_s"] >= sol.meta["factor_s"] > 0.0
    assert sol.meta["alpha_min"] == 0.05
    assert sol.meta["alpha_max"] == sol.alpha.max() > 0.05
    stats = run_manifest(sol, PROPS)["solver"]
    assert stats == {k: sol.meta[k] for k in
                     ("steps", "wall_s", "factor_s", "alpha_min",
                      "alpha_max")}


_UNIT = st.floats(0.0, 1.0, allow_nan=False)


@settings(max_examples=10)
@given(st.lists(st.tuples(*[_UNIT] * len(VARIABLE_NAMES)), min_size=1,
                max_size=3))
def test_alpha_monotone_and_bounded_for_random_designs(points):
    ranges = DesignSpace.named("small").ranges
    designs = [DesignPoint.from_array(
        [ranges[v][0] + u * (ranges[v][1] - ranges[v][0])
         for v, u in zip(VARIABLE_NAMES, p)]) for p in points]
    for sol in solve_batch(designs, PROPS, Grid1D(n_tool=11, n_part=11,
                                                   dt=60.0)):
        assert np.all(np.diff(sol.alpha, axis=0) >= 0.0)
        assert sol.alpha.min() >= 0.05 and sol.alpha.max() <= 1.0


@settings(max_examples=10)
@given(points=st.lists(st.lists(st.floats(0.0, 1.0), min_size=10,
                                max_size=10), min_size=1, max_size=3))
def test_batch_keeps_equilibrium_for_random_designs(points):
    # air held at t0 and no heat generation: every design must stay at rest
    # within the one-design equilibrium test's bounds
    ranges = DesignSpace.named("small").ranges
    designs = [DesignPoint.from_array(
        [ranges[v][0] + u * (ranges[v][1] - ranges[v][0])
         for v, u in zip(VARIABLE_NAMES, p)]) for p in points]
    grid = Grid1D(n_tool=11, n_part=11, dt=60.0, t_end=600.0)
    sols = solve_batch(designs, PROPS_NO_HEAT, grid,
                       air_override=lambda t: 20.0)
    assert len(sols) == len(designs)
    for sol in sols:
        assert np.max(np.abs(sol.t_tool - 20.0)) < 1e-10
        assert np.max(np.abs(sol.t_part - 20.0)) < 1e-10
        assert np.max(np.abs(sol.alpha - 0.05)) < 1e-6


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(n_tool=2, n_part=11, dt=1.0)
    with pytest.raises(ValueError):
        Grid1D(dt=-1.0)


def test_solution_csv_round_trip(tmp_path):
    grid = Grid1D(n_tool=7, n_part=9, dt=60.0, t_end=600.0)
    sol = solve_batch([DESIGN], PROPS, grid)[0]
    path = tmp_path / "solution.csv"
    export_solution_csv(sol, path)
    back = import_solution_csv(path, DESIGN)
    assert np.array_equal(back.times, sol.times)
    assert np.array_equal(back.t_tool, sol.t_tool)
    assert np.array_equal(back.t_part, sol.t_part)
    assert np.array_equal(back.alpha, sol.alpha)


def test_run_manifest_contents():
    grid = Grid1D(n_tool=7, n_part=7, dt=60.0, t_end=120.0)
    sol = solve_batch([DESIGN], PROPS, grid)[0]
    manifest = run_manifest(sol, PROPS)
    assert manifest["property_hash"] == PROPS.content_hash()
    assert manifest["design"]["h_top"] == 100.0
    assert manifest["grid"]["dt"] == 60.0
