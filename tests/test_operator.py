"""Operator-network tests: subdomain dispatch, prediction against a
straight-line re-implementation, initialization statistics, and parameter
serialization round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cureonet.autodiff import mlp_forward_jet
from cureonet.design import DesignSpace, encode, sample
from cureonet.operator import (DEFAULT_BOUNDARIES_7, OperatorConfig,
                               decode_stratified, glorot_mlp, init,
                               init_triplet, merged_branch,
                               model_from_state, model_meta, model_state,
                               predict_field, predict_grid, subdomain_index)
from cureonet.process import DomainError
from oracles import decoder, midpoint, mlp_forward

SPACE = DesignSpace.named("small")
HORIZON = SPACE.max_cycle_duration()
# the branch inputs of the space's midpoint design, (1, 4) and (1, 100)
U = encode([midpoint(SPACE)], SPACE)


def predict(model, u, y):
    """Normalized output at one point y = (x, tau): a 1 x 1 predict_grid
    of the design whose `encode` rows are u = (bn1, bn2)."""
    return predict_grid(model, *u, np.array([y[0]]), np.array([y[1]]))[0, 0]


def small_config(**kw):
    base = dict(q=8, hidden_width=10, hidden_layers=2, n_subdomains=3)
    base.update(kw)
    return OperatorConfig(**base)


def perturbed(model, seed):
    """`model` with seeded noise added to every weight and bias in place;
    `init` leaves the biases at zero, so a check on an unperturbed model
    cannot see a dropped or misplaced bias."""
    rng = np.random.default_rng(seed)
    for a in model.trainable_arrays():
        a += rng.normal(scale=0.3, size=a.shape)
    return model


# nonlinear decoders; a one-layer linear decoder, whose first layer is also
# its output layer; a single subdomain
PATH_CONFIGS = [small_config(), small_config(decoder="linear"),
                small_config(n_subdomains=1)]
PATH_IDS = ["nonlinear", "linear", "nd1"]


def test_config_default_boundaries():
    cfg = OperatorConfig()
    assert cfg.boundaries == DEFAULT_BOUNDARIES_7
    cfg3 = OperatorConfig(n_subdomains=3)
    assert cfg3.boundaries == (0.0, pytest.approx(1 / 3),
                               pytest.approx(2 / 3), 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        OperatorConfig(n_subdomains=2, boundaries=(0.0, 0.5, 0.9))
    with pytest.raises(ValueError):
        OperatorConfig(n_subdomains=2, boundaries=(0.0, 0.6, 0.5, 1.0))
    with pytest.raises(ValueError):
        OperatorConfig(decoder="cubic")


def test_subdomain_index_endpoints_and_boundaries():
    segments = OperatorConfig().segments()
    assert subdomain_index(segments, 0.0) == 0
    assert subdomain_index(segments, 1.0) == 6
    for k, b in enumerate(DEFAULT_BOUNDARIES_7[1:-1], start=1):
        assert subdomain_index(segments, b) == k  # left-closed convention


def test_subdomain_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        subdomain_index(OperatorConfig().segments(), 1.5)


_TAU = st.floats(0.0, 1.0)


@given(inner=st.lists(st.floats(0.001, 0.999), max_size=6, unique=True),
       taus=st.lists(_TAU, min_size=1, max_size=20))
def test_subdomain_index_finds_the_one_containing_segment(inner, taus):
    bounds = (0.0, *sorted(inner), 1.0)
    segments = list(zip(bounds[:-1], bounds[1:]))
    taus = np.array(taus + list(bounds))   # boundaries and both ends too
    ks = subdomain_index(segments, taus)
    for tau, k in zip(taus, ks):
        lo, hi = segments[k]
        if tau == 1.0:
            assert k == len(segments) - 1
        else:
            assert lo <= tau < hi
        assert subdomain_index(segments, float(tau)) == k


_GRID_MODEL = init(small_config(n_subdomains=4), seed=12)


@settings(max_examples=40)
@given(xs=st.lists(_TAU, min_size=1, max_size=4),
       taus=st.lists(_TAU, max_size=10))
def test_predict_grid_matches_one_by_one_calls(xs, taus):
    # unsorted and repeated taus, and every segment occupied
    segments = _GRID_MODEL.config.segments()
    taus = np.array(taus + [0.5 * (lo + hi) for lo, hi in segments]
                    + taus[:2])
    grid = predict_grid(_GRID_MODEL, *U, np.array(xs), taus)
    assert grid.shape == (taus.size, len(xs))
    for i, tau in enumerate(taus):
        for j, x in enumerate(xs):
            assert grid[i, j] == pytest.approx(
                predict(_GRID_MODEL, U, (x, tau)), abs=1e-13)


def test_init_deterministic_and_seed_sensitive():
    cfg = small_config()
    a = init(cfg, seed=5)
    b = init(cfg, seed=5)
    c = init(cfg, seed=6)
    for x, y in zip(a.trainable_arrays(), b.trainable_arrays()):
        assert np.array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in
               zip(a.trainable_arrays(), c.trainable_arrays()))


def test_glorot_variance_matches_formula():
    rng = np.random.default_rng(0)
    n_in, n_out = 40, 60
    draws = np.concatenate([
        glorot_mlp([n_in, n_out], rng).weights[0].ravel()
        for _ in range(5)])
    assert draws.size >= 10_000
    expect = 2.0 / (n_in + n_out)  # variance of U(-limit, limit)
    assert abs(draws.var() - expect) / expect < 0.1


def test_zeroed_final_decoder_layer_predicts_zero():
    cfg = small_config()
    model = init(cfg, seed=0)
    model.dec.weights[-1][...] = 0.0
    model.dec.biases[-1][...] = 0.0
    for y in ((0.0, 0.0), (0.5, 0.4), (1.0, 1.0)):
        assert predict(model, U, y) == 0.0


@pytest.mark.parametrize("cfg", PATH_CONFIGS, ids=PATH_IDS)
def test_predict_matches_straight_line_composition(cfg):
    model = perturbed(init(cfg, seed=3), seed=30)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = float(rng.uniform())
        tau = float(rng.uniform())
        # independent recomposition from raw parts
        b1 = mlp_forward(model.bn1, U[0][0])
        b2 = mlp_forward(model.bn2, U[1][0])
        t = mlp_forward(model.trunk, np.array([x, tau]))
        k = subdomain_index(model.config.segments(), tau)
        expect = mlp_forward(decoder(model, k), b1 * b2 * t)[0]
        assert predict(model, U, (x, tau)) == pytest.approx(expect,
                                                            abs=1e-12)


@pytest.mark.parametrize("cfg", PATH_CONFIGS, ids=PATH_IDS)
def test_predict_grid_matches_decode_stratified(cfg):
    # the grid path and the losses' path share no code: on the same points
    # they must give the same values
    rng = np.random.default_rng(21)
    model = perturbed(init(cfg, seed=13), seed=31)
    xs = rng.uniform(size=5)
    per_segment = [rng.uniform(lo, hi, size=3) for lo, hi in cfg.segments()]
    taus = rng.permutation(np.concatenate(per_segment))   # unsorted
    grid = predict_grid(model, *U, xs, taus)

    # every decoder in order, and a run that skips decoder 0
    n_d = cfg.n_subdomains
    merged = merged_branch(model, *U)
    row_of = {tau: i for i, tau in enumerate(taus)}
    for decoders in [range(n_d)] + ([range(1, n_d)] if n_d > 1 else []):
        block_taus = np.concatenate([per_segment[k] for k in decoders])
        xx, tt = np.meshgrid(xs, block_taus)
        xy = np.stack([xx.ravel(), tt.ravel()], axis=1)
        trunk = mlp_forward_jet(model.trunk, xy)
        strat = decode_stratified(model, merged, trunk, decoders).value
        expect = grid[[row_of[tau] for tau in block_taus]]
        assert np.max(np.abs(strat.reshape(expect.shape) - expect)) <= 1e-13


@pytest.mark.parametrize("decoders", [range(0, 3, 2), range(-1, 2),
                                      range(2, 4), range(1, 1)])
def test_decode_stratified_refuses_a_range_that_is_no_run(decoders):
    # range(-1, 2) has as many blocks as there are decoders, so unchecked
    # it would decode block i with decoder i rather than i - 1
    model = init(small_config(), seed=13)
    merged = merged_branch(model, *U)
    xy = np.full((6, 2), 0.5)
    with pytest.raises(ValueError, match="no run"):
        decode_stratified(model, merged, mlp_forward_jet(model.trunk, xy),
                          decoders)


def test_predict_factorization_same_branch_vector():
    # two taus in one subdomain share the merged branch vector exactly
    cfg = small_config()
    model = init(cfg, seed=8)
    merged_a = merged_branch(model, *U)
    assert np.array_equal(merged_a, mlp_forward(model.bn1, U[0])
                          * mlp_forward(model.bn2, U[1]))
    # recompute through a second encode of the same design
    merged_b = merged_branch(model, *encode([midpoint(SPACE)], SPACE))
    assert np.array_equal(merged_a, merged_b)
    va = predict(model, U, (0.3, 0.05))
    vb = predict(model, U, (0.3, 0.25))
    assert va != vb  # trunk path differs even with equal branch vector


def test_predict_rejects_bad_tau():
    model = init(small_config(), seed=0)
    with pytest.raises(ValueError):
        predict(model, U, (0.5, 1.2))


def test_predict_grid_takes_the_rows_of_one_design():
    model = init(small_config(), seed=0)
    two = encode([midpoint(SPACE)] * 2, SPACE)
    with pytest.raises(ValueError):
        predict(model, two, (0.5, 0.5))


def test_predict_grid_matches_pointwise_predict():
    model = init(small_config(), seed=11)
    xs = np.array([0.0, 0.5, 1.0])
    taus = np.array([0.1, 0.5, 0.9])
    grid = predict_grid(model, *U, xs, taus)
    for i, tau in enumerate(taus):
        for j, x in enumerate(xs):
            assert grid[i, j] == pytest.approx(
                predict(model, U, (x, tau)), abs=1e-13)


def test_predict_field_denormalizes_and_clamps():
    cfg = small_config()
    triplet = init_triplet(cfg, SPACE, seed=1)
    d = midpoint(SPACE)
    times = np.linspace(0.0, HORIZON, 13)
    sol = predict_field(triplet, d, times, n_tool=5, n_part=7)
    assert sol.t_tool.shape == (13, 5)
    assert sol.t_part.shape == (13, 7)
    assert np.all(sol.alpha >= 0.0) and np.all(sol.alpha <= 1.0)
    assert sol.meta["alpha_clamped"] >= 0
    # pointwise consistency with predict, including denormalization
    v = predict(triplet.g_tc, U, (0.5, times[3] / HORIZON))
    expect = 20.0 + triplet.delta_t * v
    assert sol.t_part[3, 3] == pytest.approx(expect, abs=1e-10)


def test_predict_field_refuses_times_outside_the_horizon():
    triplet = init_triplet(small_config(), SPACE, seed=1)
    assert triplet.horizon == HORIZON
    d = midpoint(SPACE)
    sol = predict_field(triplet, d, np.array([0.0, HORIZON]), 3, 3)
    assert sol.t_part.shape == (2, 3)
    for bad in (-1.0, HORIZON + 1.0, np.nan):
        with pytest.raises(DomainError, match="horizon"):
            predict_field(triplet, d, np.array([0.0, bad, 50.0]), 3, 3)


def test_triplet_models_share_no_parameters():
    triplet = init_triplet(small_config(), SPACE, seed=0)
    seen = set()
    for model in triplet.models().values():
        for arr in model.trainable_arrays():
            assert id(arr) not in seen
            seen.add(id(arr))
    a = triplet.g_tc.bn1.weights[0]
    b = triplet.g_tt.bn1.weights[0]
    assert not np.array_equal(a, b)


def test_triplet_requires_shared_partition():
    g1 = init(small_config(), seed=0)
    g2 = init(small_config(), seed=1)
    g3 = init(small_config(n_subdomains=2), seed=2)
    with pytest.raises(ValueError):
        from cureonet.operator import OperatorTriplet
        OperatorTriplet(g1, g2, g3, SPACE)


@pytest.mark.parametrize("config", [
    small_config(), small_config(decoder="linear"),
    small_config(n_subdomains=1)], ids=["nonlinear", "linear", "one-domain"])
def test_model_state_round_trip_bit_exact(config):
    model = init(config, seed=21)
    state = model_state(model, "tc")
    meta = model_meta(model)
    assert list(meta) == ["config"]
    back = model_from_state(meta, state, "tc")
    assert back.config == model.config
    for a, b in zip(model.trainable_arrays(), back.trainable_arrays()):
        assert np.array_equal(a, b)


def test_model_from_state_refuses_other_stored_segments():
    model = init(small_config(), seed=22)
    state = model_state(model, "tc")
    meta = model_meta(model)
    assert "segments" not in meta
    segments = model.config.segments()
    meta["segments"] = [list(s) for s in segments]  # as older files stored
    assert model_from_state(meta, state, "tc").config == model.config
    meta["segments"] = [list(s) for s in segments[::-1]]
    with pytest.raises(ValueError, match="segments"):
        model_from_state(meta, state, "tc")


def test_linear_decoder_mode_is_inner_product_readout():
    cfg = small_config(decoder="linear")
    model = init(cfg, seed=2)
    assert model.dec.layer_sizes == [cfg.q, 1]
    x, tau = 0.4, 0.2
    b = mlp_forward(model.bn1, U[0][0]) * mlp_forward(model.bn2, U[1][0])
    t = mlp_forward(model.trunk, np.array([x, tau]))
    k = subdomain_index(model.config.segments(), tau)
    w = model.dec.weights[0][k, :, 0]
    b0 = model.dec.biases[0][k, 0]
    assert predict(model, U, (x, tau)) == pytest.approx(
        float(np.dot(b * t, w) + b0), abs=1e-13)

