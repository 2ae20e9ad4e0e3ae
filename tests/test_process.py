"""Process-model tests: cure kinetics against a frozen high-precision
oracle, cure-cycle profile, and residual functions on trivial and
manufactured fields."""

import os
import pickle

import numpy as np
import pytest
import sympy as sp

from cureonet.autodiff import Jet2
from cureonet.design import DesignSpace, sample, save_designs
from cureonet.process import (CureCycleSpec, CureKineticsParams,
                              MaterialProps, air_temperature, bc_residuals,
                              celsius_to_kelvin, continuity_residuals,
                              cure_rate, cure_rate_law, load_material_set,
                              pde_residual, savez_atomic)

# frozen oracle values (50-digit evaluation of the rate law, precomputed)
ORACLE_RATE_050_450 = 2.487319192168067e-4
ORACLE_RATE_030_400 = 4.474830487228243e-5
ORACLE_RATE_080_430 = 4.808374182584672e-8

KIN = CureKineticsParams()


def test_published_kinetics_constants():
    assert KIN.delta_e == 66.5e3
    assert KIN.gas_constant == 8.314
    assert KIN.pre_exp == 1.53e5
    assert KIN.m == 0.813
    assert KIN.n == 2.74
    assert KIN.diff_c == 43.1
    assert KIN.alpha_c0 == -1.684
    assert KIN.alpha_ct == 5.475e-3


def test_cure_rate_fixed_points():
    for t in (300.0, 400.0, 500.0):
        assert cure_rate_law(t, KIN)(0.0) == 0.0
        assert cure_rate_law(t, KIN)(1.0) == 0.0


@pytest.mark.parametrize("alpha,t,expect", [
    (0.5, 450.0, ORACLE_RATE_050_450),
    (0.3, 400.0, ORACLE_RATE_030_400),
    (0.8, 430.0, ORACLE_RATE_080_430),
])
def test_cure_rate_matches_frozen_oracle(alpha, t, expect):
    got = cure_rate(alpha, t, KIN)
    assert abs(got - expect) / expect < 1e-12


def test_cure_rate_positive_inside_unit_interval():
    rng = np.random.default_rng(0)
    alphas = rng.uniform(0.01, 0.99, 50)
    temps = rng.uniform(300.0, 500.0, 50)
    assert np.all(cure_rate(alphas, temps, KIN) > 0.0)


def test_cure_rate_monotone_in_temperature_before_diffusion_limit():
    temps = np.linspace(300.0, 500.0, 101)
    rates = cure_rate(np.full_like(temps, 0.3), temps, KIN)
    # diffusion limiting kicks in where alpha_crit crosses alpha = 0.3
    crossover = (0.3 - KIN.alpha_c0) / KIN.alpha_ct
    below = temps < min(crossover, 500.0)
    assert np.all(np.diff(rates[below]) > 0.0)


def test_cure_rate_rejects_nonpositive_temperature():
    # the temperature is floored instead of raising
    assert cure_rate(0.5, -10.0, KIN) >= 0.0


def test_cure_rate_clamps_out_of_range_alpha_with_warning():
    low = cure_rate(-0.01, 400.0, KIN)
    assert low >= 0.0


CYCLE = CureCycleSpec(r1=2.0, r2=2.0, ht1=110.0, ht2=180.0,
                      hd1=60.0, hd2=110.0)


def test_air_temperature_starts_at_initial():
    assert air_temperature(CYCLE, 0.0) == 20.0


def test_air_temperature_ramp_end():
    # (110 - 20) / 2 = 45 min to reach the first hold
    assert abs(air_temperature(CYCLE, 45 * 60.0) - 110.0) < 1e-12


def test_air_temperature_mid_hold_is_exact():
    t = (45 + 30) * 60.0
    assert air_temperature(CYCLE, t) == 110.0


def test_air_temperature_continuous_piecewise_linear_and_max():
    t = np.linspace(0.0, CYCLE.duration_s * 1.2, 20001)
    profile = air_temperature(CYCLE, t)
    assert np.max(profile) == CYCLE.ht2
    jumps = np.abs(np.diff(profile))
    dt = t[1] - t[0]
    max_rate = max(CYCLE.r1, CYCLE.r2) / 60.0
    assert np.all(jumps <= max_rate * dt + 1e-12)


def test_air_temperature_holds_final_value_without_cooldown():
    assert air_temperature(CYCLE, CYCLE.duration_s + 5000.0) == CYCLE.ht2


def test_air_temperature_cooldown_returns_to_start():
    cyc = CureCycleSpec(r1=2.0, r2=2.0, ht1=110.0, ht2=180.0,
                        hd1=60.0, hd2=110.0, cooldown=True)
    assert abs(air_temperature(cyc, cyc.duration_s) - 20.0) < 1e-9
    assert air_temperature(cyc, cyc.duration_s + 1e4) == 20.0


def test_cycle_validation():
    with pytest.raises(ValueError):
        CureCycleSpec(r1=2.0, r2=2.0, ht1=180.0, ht2=110.0,
                      hd1=60.0, hd2=110.0)
    with pytest.raises(ValueError):
        CureCycleSpec(r1=-1.0, r2=2.0, ht1=110.0, ht2=180.0,
                      hd1=60.0, hd2=110.0)


TOOL = MaterialProps(k=11.0, rho=8150.0, cp=510.0, name="tool")
PART = MaterialProps(k=0.6, rho=1580.0, cp=870.0,
                     v_r=0.43, rho_r=1300.0, h_r=5.4e5, name="part")


def test_material_derived_coefficients():
    assert TOOL.diffusivity == pytest.approx(11.0 / (8150.0 * 510.0))
    assert PART.heat_gen_coeff == pytest.approx(
        0.43 * 1300.0 * 5.4e5 / (1580.0 * 870.0))
    assert TOOL.heat_gen_coeff == 0.0


def test_material_validation():
    with pytest.raises(ValueError):
        MaterialProps(k=-1.0, rho=1.0, cp=1.0)


def test_default_property_file_loads_and_hashes():
    props = load_material_set()
    assert props.schema_version == 1
    assert props.part.heat_gen_coeff > 0.0
    assert props.kinetics.pre_exp == 1.53e5
    assert len(props.content_hash()) == 16


def test_property_file_round_trip(tmp_path):
    import json
    from importlib import resources
    text = resources.files("cureonet.data").joinpath(
        "materials_default.json").read_text()
    path = tmp_path / "props.json"
    path.write_text(text)
    props = load_material_set(path)
    assert props.content_hash() == load_material_set().content_hash()
    bad = json.loads(text)
    bad["schema_version"] = 99
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        load_material_set(path)


@pytest.mark.parametrize("writer", ["csv", "npz"])
def test_a_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path,
                                                             writer):
    path = tmp_path / "out"
    path.write_text("old")
    if writer == "csv":
        space = DesignSpace.named("small")
        # fails after the header and the first row are written
        with pytest.raises(AttributeError):
            save_designs(path, [*sample(space, 1, seed=0), None], space, 0)
    else:
        # fails after the first array is written: a lambda does not pickle
        with pytest.raises((AttributeError, pickle.PicklingError)):
            savez_atomic(path, a=np.zeros(3),
                         b=np.array([lambda: 0], dtype=object))
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["out"]


# -- residuals -----------------------------------------------------------------


def pde_jet(value, d_t, d_xx):
    """Jet with the slots the PDE residuals read: d/dt (input 1) and
    d2/dx2 (input 0; its first derivative is unused and set to zero)."""
    value = np.asarray(value, dtype=np.float64)
    return Jet2(np.stack([value, np.zeros_like(value), d_t, d_xx]),
                d1=(0, 1), d2=(0,))


def grad_jet(value, d_x):
    """Jet with a value and d/dx (input 0), as the boundary residuals read."""
    return Jet2(np.stack([value, d_x]), d1=(0,))


def test_tool_residual_zero_on_constant_field():
    jet = pde_jet([40.0], [0.0], [0.0])
    assert pde_residual(jet, TOOL, 0.03)[0] == 0.0


def test_tool_residual_steady_parabola():
    # T = x^2 with a_t / L_t^2 = 1 gives residual -2
    jet = pde_jet([0.25], [0.0], [2.0])
    tool = MaterialProps(k=1.0, rho=1.0, cp=1.0)
    res = pde_residual(jet, tool, 1.0)
    assert res[0] == pytest.approx(-2.0)


def test_residuals_vanish_on_manufactured_field():
    # symbolic oracle: T = sin(pi x) exp(-t) with diffusivity pi^-2
    x_s, t_s = sp.symbols("x t")
    expr = sp.sin(sp.pi * x_s) * sp.exp(-t_s)
    d_t = sp.lambdify((x_s, t_s), sp.diff(expr, t_s))
    d_xx = sp.lambdify((x_s, t_s), sp.diff(expr, x_s, 2))
    tool = MaterialProps(k=1.0 / float(sp.pi) ** 2, rho=1.0, cp=1.0)
    rng = np.random.default_rng(1)
    xs = rng.uniform(0, 1, 20)
    ts = rng.uniform(0, 2, 20)
    jet = pde_jet(np.sin(np.pi * xs) * np.exp(-ts), d_t(xs, ts),
                  d_xx(xs, ts))
    res = pde_residual(jet, tool, 1.0)
    assert np.max(np.abs(res)) < 1e-12


def _consts(h_top=100.0, h_bot=80.0, l_tool=0.03, l_part=0.028):
    return dict(h_top=h_top, h_bot=h_bot, l_part=l_part, l_tool=l_tool)


def test_bc_residuals_zero_at_equilibrium():
    ta = 77.0
    top = grad_jet(np.array([ta]), np.array([0.0]))
    bot = grad_jet(np.array([ta]), np.array([0.0]))
    r_top, r_bot = bc_residuals(top, bot, ta, PART, TOOL, **_consts())
    assert r_top[0] == 0.0 and r_bot[0] == 0.0


def test_bc_residuals_insulated_limit_penalizes_gradient_only():
    top = grad_jet(np.array([50.0]), np.array([3.0]))
    bot = grad_jet(np.array([90.0]), np.array([-1.5]))
    r_top, r_bot = bc_residuals(top, bot, 120.0, PART, TOOL, h_top=1e-300,
                                h_bot=1e-300, l_part=0.028, l_tool=0.03)
    assert r_top[0] == pytest.approx(3.0)
    assert r_bot[0] == pytest.approx(-1.5)


def test_bc_residuals_match_hand_expansion():
    rng = np.random.default_rng(3)
    tv, tg = rng.normal(size=4), rng.normal(size=4)
    bv, bg = rng.normal(size=4), rng.normal(size=4)
    ta = rng.normal(size=4)
    top = grad_jet(tv, tg)
    bot = grad_jet(bv, bg)
    c = _consts()
    r_top, r_bot = bc_residuals(top, bot, ta, PART, TOOL, **c)
    assert np.allclose(
        r_top, tg - (c["h_top"] * c["l_part"] / PART.k) * (ta - tv))
    assert np.allclose(
        r_bot, bg - (c["h_bot"] * c["l_tool"] / TOOL.k) * (bv - ta))


def test_continuity_residuals_zero_for_matched_linear_field():
    # one linear physical field T(z) = T0 + G z across both materials,
    # expressed in local coordinates with the conductivity-matched slope
    l_t, l_c = 0.03, 0.028
    g_tool = 5.0  # degC per meter in the tool
    g_part = g_tool * TOOL.k / PART.k
    t_iface = 100.0
    tool = grad_jet(np.array([t_iface]), np.array([g_tool * l_t]))
    part = grad_jet(np.array([t_iface]), np.array([g_part * l_c]))
    val, flux = continuity_residuals(tool, part, TOOL, PART, l_t, l_c)
    assert abs(val[0]) < 1e-12
    assert abs(flux[0]) < 1e-12


def test_continuity_residuals_unit_jump():
    tool = grad_jet(np.array([101.0]), np.array([0.0]))
    part = grad_jet(np.array([100.0]), np.array([0.0]))
    val, _flux = continuity_residuals(tool, part, TOOL, PART, 0.03, 0.028)
    assert val[0] == pytest.approx(1.0)


def test_continuity_residuals_match_hand_expansion():
    rng = np.random.default_rng(4)
    tv, tg = rng.normal(size=3), rng.normal(size=3)
    pv, pg = rng.normal(size=3), rng.normal(size=3)
    tool = grad_jet(tv, tg)
    part = grad_jet(pv, pg)
    val, flux = continuity_residuals(tool, part, TOOL, PART, 0.03, 0.028)
    assert np.allclose(val, tv - pv)
    assert np.allclose(flux, TOOL.k / 0.03 * tg - PART.k / 0.028 * pg)


def test_kelvin_conversion_round_trip():
    assert celsius_to_kelvin(20.0) == pytest.approx(293.15)
    assert celsius_to_kelvin(0.0) == pytest.approx(273.15)
