"""Design-space tests: published ranges, uniform sampling statistics,
encoding/normalization round trips, and CSV persistence."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cureonet.design import (DesignPoint, DesignSpace, N_SENSORS,
                             VARIABLE_NAMES, encode, load_designs,
                             normalize_query, normalize_temperature, sample,
                             save_designs)
from cureonet.process import DomainError, air_temperature
from oracles import contains, midpoint


def test_named_space_ranges_match_published_table():
    small = DesignSpace.named("small")
    assert small.ranges["h_top"] == (90.0, 120.0)
    assert small.ranges["h_bot"] == (60.0, 90.0)
    assert small.ranges["r1"] == (1.9, 2.8)
    assert small.ranges["ht1"] == (110.0, 115.0)
    assert small.ranges["hd1"] == (55.0, 63.0)
    assert small.ranges["ht2"] == (178.0, 183.0)
    assert small.ranges["hd2"] == (105.0, 115.0)
    assert small.ranges["l_tool"] == (0.02, 0.035)
    assert small.ranges["l_part"] == (0.025, 0.035)
    medium = DesignSpace.named("medium")
    assert medium.ranges["h_top"] == (80.0, 120.0)
    assert medium.ranges["r1"] == (1.7, 3.0)
    assert medium.ranges["l_tool"] == (0.02, 0.04)
    large = DesignSpace.named("large")
    assert large.ranges["h_top"] == (70.0, 120.0)
    assert large.ranges["h_bot"] == (50.0, 100.0)
    assert large.ranges["r1"] == (1.5, 3.0)
    assert large.ranges["ht1"] == (105.0, 120.0)
    assert large.ranges["ht2"] == (170.0, 185.0)
    assert large.ranges["l_tool"] == (0.02, 0.05)
    assert large.ranges["l_part"] == (0.025, 0.035)


def test_unknown_space_rejected():
    with pytest.raises(ValueError):
        DesignSpace.named("huge")


def test_sample_large_space_bounds():
    space = DesignSpace.named("large")
    designs = sample(space, 500, seed=0)
    assert len(designs) == 500
    assert all(contains(space, d) for d in designs)


def test_sample_deterministic_per_seed():
    space = DesignSpace.named("medium")
    a = sample(space, 20, seed=7)
    b = sample(space, 20, seed=7)
    c = sample(space, 20, seed=8)
    assert all(np.array_equal(x.as_array(), y.as_array())
               for x, y in zip(a, b))
    assert any(not np.array_equal(x.as_array(), y.as_array())
               for x, y in zip(a, c))


def test_sample_degenerate_range_collapses():
    space = DesignSpace.named("small")
    ranges = dict(space.ranges)
    ranges["ht1"] = (112.0, 112.0 + 1e-12)
    tight = DesignSpace("tight", ranges)
    designs = sample(tight, 10, seed=1)
    assert all(abs(d.ht1 - 112.0) < 1e-9 for d in designs)


def test_sample_mean_near_range_midpoint():
    # law of large numbers: per-variable mean within 1% of the midpoint
    space = DesignSpace.named("large")
    designs = sample(space, 100_000, seed=3)
    mat = np.stack([d.as_array() for d in designs])
    for j, name in enumerate(VARIABLE_NAMES):
        lo, hi = space.ranges[name]
        mid = 0.5 * (lo + hi)
        assert abs(mat[:, j].mean() - mid) < 0.01 * (hi - lo) + 1e-12


def test_sample_requires_positive_count():
    with pytest.raises(ValueError):
        sample(DesignSpace.named("small"), 0, seed=0)


def test_narrowed_space_shrinks_about_midpoint():
    space = DesignSpace.named("small")
    narrow = space.narrowed(0.5)
    for name in VARIABLE_NAMES:
        lo, hi = space.ranges[name]
        nlo, nhi = narrow.ranges[name]
        assert nhi - nlo == pytest.approx(0.5 * (hi - lo))
        assert 0.5 * (nlo + nhi) == pytest.approx(0.5 * (lo + hi))


def test_encode_shapes_and_first_sensor():
    space = DesignSpace.named("small")
    d = midpoint(space)
    horizon = space.max_cycle_duration()
    enc = encode(d, space, horizon)
    assert enc.bn2.shape == (N_SENSORS,)
    assert enc.bn1.shape == (4,)
    # the profile starts at the initial temperature -> normalized 0
    assert enc.bn2[0] == 0.0
    assert np.all(enc.bn2 >= 0.0) and np.all(enc.bn2 <= 1.0)


def test_encode_lower_bound_design_gives_zero_scalars():
    space = DesignSpace.named("small")
    d = DesignPoint(**{n: space.ranges[n][0] for n in VARIABLE_NAMES})
    enc = encode(d, space, space.max_cycle_duration())
    assert np.array_equal(enc.bn1, np.zeros(4))


@pytest.mark.parametrize("bad", [dict(h_top=-1.0), dict(h_bot=-1.0),
                                 dict(l_part=0.0), dict(l_tool=-0.01)])
def test_design_point_rejects_negative_htc_and_nonpositive_thickness(bad):
    with pytest.raises(DomainError):
        dataclasses.replace(midpoint(DesignSpace.named("small")), **bad)


def test_design_point_accepts_the_insulated_limit():
    d = dataclasses.replace(midpoint(DesignSpace.named("small")), h_top=0.0)
    assert d.h_top == 0.0


def test_encode_monotone_transform_of_profile():
    space = DesignSpace.named("small")
    d = midpoint(space)
    horizon = space.max_cycle_duration()
    enc = encode(d, space, horizon)
    times = np.linspace(0.0, horizon, N_SENSORS)
    profile = air_temperature(d.cycle(), times)
    order = np.argsort(profile, kind="stable")
    assert np.array_equal(np.argsort(enc.bn2, kind="stable"), order)


def test_encode_rejects_short_horizon():
    space = DesignSpace.named("small")
    d = midpoint(space)
    with pytest.raises(DomainError):
        encode(d, space, d.cycle().duration_s - 1.0)


def test_temperature_normalization_maps_t0_to_0_and_t_hi_to_1():
    y = normalize_temperature(np.array([20.0, 233.0]), 20.0, 233.0)
    assert np.array_equal(y, [0.0, 1.0])


def test_max_cycle_duration_dominates_samples():
    space = DesignSpace.named("large")
    horizon = space.max_cycle_duration()
    for d in sample(space, 200, seed=11):
        assert d.cycle().duration_s <= horizon + 1e-9


def test_normalize_query_endpoints():
    assert normalize_query(0.0, 0.0, 100.0) == (0.0, 0.0)
    assert normalize_query(1.0, 100.0, 100.0) == (1.0, 1.0)
    assert normalize_query(0.5, 50.0, 100.0)[1] == pytest.approx(0.5)
    with pytest.raises(DomainError):
        normalize_query(0.5, 101.0, 100.0)
    with pytest.raises(DomainError):
        normalize_query(1.5, 10.0, 100.0)


def test_normalize_query_accepts_time_arrays():
    times = np.array([0.0, 25.0, 100.0])
    x, taus = normalize_query(0.0, times, 100.0)
    assert x == 0.0 and np.array_equal(taus, times / 100.0)
    for bad in (101.0, -1.0, np.nan):
        with pytest.raises(DomainError):
            normalize_query(0.0, np.array([0.0, bad, 50.0]), 100.0)


def test_design_csv_round_trip(tmp_path):
    space = DesignSpace.named("medium")
    designs = sample(space, 12, seed=42)
    path = tmp_path / "designs.csv"
    save_designs(path, designs, space, seed=42)
    back, seed, label = load_designs(path)
    assert seed == 42 and label == "medium"
    for a, b in zip(designs, back):
        assert np.array_equal(a.as_array(), b.as_array())


def test_encoding_injective_on_scalar_block():
    space = DesignSpace.named("small")
    horizon = space.max_cycle_duration()
    designs = sample(space, 50, seed=5)
    encs = [tuple(encode(d, space, horizon).bn1) for d in designs]
    assert len(set(encs)) == len(encs)


UNIT = st.floats(0.0, 1.0, allow_nan=False)


@settings(max_examples=50)
@given(x=UNIT, frac=UNIT, horizon=st.floats(1.0, 1e6, allow_nan=False))
def test_normalize_query_round_trips(x, frac, horizon):
    t = frac * horizon
    x_out, tau = normalize_query(x, t, horizon)
    assert x_out == x and 0.0 <= tau <= 1.0
    assert math.isclose(tau * horizon, t, rel_tol=1e-15, abs_tol=0.0)


@settings(max_examples=30)
@given(point=st.lists(UNIT, min_size=len(VARIABLE_NAMES),
                      max_size=len(VARIABLE_NAMES)),
       label=st.sampled_from(["small", "medium", "large"]))
def test_encode_scalar_block_inverts_to_the_design(point, label):
    space = DesignSpace.named(label)
    ranges = [space.ranges[v] for v in VARIABLE_NAMES]
    d = DesignPoint.from_array([lo + u * (hi - lo)
                                for (lo, hi), u in zip(ranges, point)])
    bn1 = encode(d, space, space.max_cycle_duration()).bn1
    assert np.all((bn1 >= 0.0) & (bn1 <= 1.0))
    names = ("h_top", "h_bot", "l_tool", "l_part")
    for name, scaled in zip(names, bn1):
        lo, hi = space.ranges[name]
        assert math.isclose(lo + scaled * (hi - lo), getattr(d, name),
                            rel_tol=1e-14, abs_tol=0.0)
