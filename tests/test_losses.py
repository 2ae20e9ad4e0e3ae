"""Loss-component tests: trivial exact cases, per-point recomputation
oracles against the batched evaluation, collocation sampling properties,
and total-loss assembly."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cureonet.autodiff import Jet2, dense_layers, mlp_forward_jet
from cureonet.design import DesignSpace, sample
from cureonet.losses import (CollocationConfig, LossWeights, PHASE_ALL,
                             PHASE_CURE, PHASE_TEMPERATURE, breakdown_from,
                             compute_components, loss_bc,
                             loss_continuity_material, loss_ic,
                             loss_interface_temporal, loss_ode,
                             loss_pde_part, loss_pde_tool,
                             merged_branches, sample_collocation, total_loss)
from cureonet.operator import (OperatorConfig, init_triplet, subdomain_index,
                               taped_triplet)
from cureonet.process import celsius_to_kelvin, cure_rate, load_material_set
from oracles import decoder, mlp_forward

PROPS = load_material_set()
SPACE = DesignSpace.named("small").narrowed(0.5)
CONFIG = OperatorConfig(q=6, hidden_width=8, hidden_layers=2, n_subdomains=3)
DESIGNS = sample(SPACE, 3, seed=2)
CCFG = CollocationConfig(q_ic=24, q_bc=24, q_if=24, q_ct=24)
Q = 60  # interior and ODE points per draw


def fresh_triplet(seed=0):
    return init_triplet(CONFIG, SPACE, seed=seed)


def constant_triplet(t_norm=0.0, alpha=0.05):
    """Triplet whose outputs are constant (zeroed final decoder layers)."""
    triplet = fresh_triplet()
    for model, value in ((triplet.g_tc, t_norm), (triplet.g_tt, t_norm),
                         (triplet.g_alpha, alpha)):
        model.dec.weights[-1][...] = 0.0
        model.dec.biases[-1][...] = value
    return triplet


def cset_for(triplet, seed=11):
    return sample_collocation(triplet, DESIGNS, CCFG, seed, Q)


def frozen(triplet, cset):
    """Frozen operators and their merged branch embeddings on `cset`."""
    nets = taped_triplet(triplet, trainable=())
    return nets, merged_branches(nets, cset)


def ic_losses(nets, merged, cset, alpha_init=0.05):
    """(temperature, cure) initial-condition losses, summed over the two
    temperature operators as compute_components does."""
    l_t = loss_ic(nets["tt"], merged["tt"], cset) \
        + loss_ic(nets["tc"], merged["tc"], cset)
    return l_t, loss_ic(nets["alpha"], merged["alpha"], cset, alpha_init)


# -- sampling -------------------------------------------------------------------


def test_collocation_counts_round_up_to_equal_blocks():
    # one rule for every category: q points over n designs and B blocks
    # give m = ceil(q / (n * B)) points per design per block; one subdomain
    # or q_if = 0 leaves no interface points
    n = len(DESIGNS)
    ceil = lambda a, b: -(-a // b)
    for n_d, q_if in ((3, 24), (1, 24), (3, 0)):
        triplet = init_triplet(OperatorConfig(q=6, hidden_width=8,
                                              hidden_layers=2,
                                              n_subdomains=n_d), SPACE, 0)
        cfg = CollocationConfig(q_ic=25, q_bc=23, q_if=q_if, q_ct=22)
        cset = sample_collocation(triplet, DESIGNS, cfg, 11, 61)
        for pts, q, blocks in ((cset.interior, 61, n_d), (cset.ode, 61, n_d),
                               (cset.bc, cfg.q_bc, n_d),
                               (cset.ct, cfg.q_ct, n_d),
                               (cset.ic, cfg.q_ic, 1),
                               (cset.interface, q_if, n_d - 1)):
            m = ceil(q, n * blocks) if blocks else 0
            assert pts.x.size == pts.tau.size == pts.idx.size \
                == blocks * n * m
            assert pts.x.size >= q or blocks == 0
        assert (cset.interface.x.size == 0) == (n_d == 1 or q_if == 0)


def test_collocation_deterministic_and_reseeded():
    triplet = fresh_triplet()
    a = cset_for(triplet, seed=11)
    b = cset_for(triplet, seed=11)
    c = cset_for(triplet, seed=12)
    assert np.array_equal(a.interior.x, b.interior.x)
    assert not np.array_equal(a.interior.x, c.interior.x)


def test_collocation_interface_points_sit_on_boundaries():
    triplet = fresh_triplet()
    cset = cset_for(triplet)
    internal = set(CONFIG.boundaries[1:-1])
    assert set(np.unique(cset.interface.tau)) == internal


def test_collocation_subdomain_coverage():
    # every subdomain receives at least Q / (2 N_d) interior points
    triplet = init_triplet(OperatorConfig(q=6, hidden_width=8,
                                          hidden_layers=2), SPACE, seed=0)
    big = CollocationConfig(q_ic=8, q_bc=8, q_if=8, q_ct=8)
    cset = sample_collocation(triplet, DESIGNS, big, 3, 2048)
    seg = subdomain_index(triplet.g_tc.config.segments(), cset.interior.tau)
    counts = np.bincount(seg, minlength=7)
    assert np.all(counts >= 2048 // 14), counts


@settings(max_examples=30)
@given(inner=st.lists(st.floats(0.001, 0.999), max_size=4, unique=True),
       n_designs=st.integers(1, 3),
       counts=st.lists(st.integers(1, 40), min_size=5, max_size=5),
       seed=st.integers(0, 2 ** 16))
def test_stratified_layout_blocks_are_segment_major(inner, n_designs, counts,
                                                    seed):
    # every category: equal blocks, block k inside subdomain k (interface
    # points: block b on internal boundary b), designs in order per block
    bounds = (0.0, *sorted(inner), 1.0)
    cfg = OperatorConfig(q=2, hidden_width=3, hidden_layers=1,
                         n_subdomains=len(bounds) - 1, boundaries=bounds)
    triplet = init_triplet(cfg, SPACE, seed=0)
    q_int, q_ic, q_bc, q_if, q_ct = counts
    ccfg = CollocationConfig(q_ic=q_ic, q_bc=q_bc, q_if=q_if, q_ct=q_ct)
    cset = sample_collocation(triplet, DESIGNS[:n_designs], ccfg, seed,
                              q_int)
    n, n_d = n_designs, cfg.n_subdomains

    def check_blocks(tau, idx, lo, hi):
        m = tau.size // (len(lo) * n)
        assert tau.size == len(lo) * n * m and idx.size == tau.size
        assert np.array_equal(idx, np.tile(np.repeat(np.arange(n), m),
                                           len(lo)))
        blocks = tau.reshape(len(lo), n * m)
        assert np.all(blocks >= np.asarray(lo)[:, None])
        assert np.all(blocks <= np.asarray(hi)[:, None])

    for pts in (cset.interior, cset.ode, cset.bc, cset.ct):
        check_blocks(pts.tau, pts.idx, bounds[:-1], bounds[1:])
    check_blocks(cset.ic.tau, cset.ic.idx, [0.0], [0.0])
    if n_d > 1:
        check_blocks(cset.interface.tau, cset.interface.idx, bounds[1:-1],
                     bounds[1:-1])
    else:
        assert cset.interface.x.size == 0


def test_collocation_ic_points_at_time_zero():
    # ic points store tau = 0, where the loss evaluates them
    triplet = fresh_triplet()
    ic = cset_for(triplet).ic
    assert ic.tau.shape == ic.x.shape and np.all(ic.tau == 0.0)
    assert np.all(ic.x >= 0.0) and np.all(ic.x <= 1.0)


def test_collocation_requires_designs():
    triplet = fresh_triplet()
    with pytest.raises(ValueError):
        sample_collocation(triplet, [], CCFG, 0, Q)


# -- straight-line recomputation oracle -------------------------------------------


def _point_jet(model, bn1_in, bn2_in, x, tau, tracked):
    """Independent per-point composition with order-2 jets."""
    b1 = mlp_forward(model.bn1, bn1_in)
    b2 = mlp_forward(model.bn2, bn2_in)
    trunk = mlp_forward_jet(model.trunk, np.array([[x, tau]]),
                            d1=tracked, d2=tracked)
    joint = Jet2((b1 * b2) * trunk.data, tracked, tracked)
    k = subdomain_index(model.config.segments(), tau)
    dec = decoder(model, k)
    jet = dense_layers(joint, dec.weights, dec.biases)
    return Jet2(jet.data.ravel(), tracked, tracked)


def _rel_close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-12)


def test_loss_ic_matches_recomputation():
    triplet = fresh_triplet(seed=4)
    cset = cset_for(triplet)
    nets, merged = frozen(triplet, cset)
    l_t, l_a = ic_losses(nets, merged, cset, alpha_init=triplet.alpha_init)

    acc_t, acc_a = 0.0, 0.0
    for x, d in zip(cset.ic.x, cset.ic.idx):
        for model, kind in ((triplet.g_tt, "t"), (triplet.g_tc, "t"),
                            (triplet.g_alpha, "a")):
            jet = _point_jet(model, cset.bn1[d], cset.bn2[d], x, 0.0, ())
            if kind == "t":
                acc_t += jet.value ** 2
            else:
                acc_a += (jet.value - 0.05) ** 2
    assert _rel_close(float(l_t), acc_t / cset.ic.x.size)
    assert _rel_close(float(l_a), acc_a / cset.ic.x.size)


def test_loss_bc_matches_recomputation():
    triplet = fresh_triplet(seed=5)
    cset = cset_for(triplet)
    nets, merged = frozen(triplet, cset)
    l_top, l_bot = loss_bc(nets, merged, cset, PROPS, triplet.delta_t,
                           triplet.horizon)
    dt = triplet.delta_t
    acc_top = acc_bot = 0.0
    for tau, d, ta in zip(cset.bc.tau, cset.bc.idx, cset.ta_bc):
        top = _point_jet(triplet.g_tc, cset.bn1[d], cset.bn2[d], 1.0, tau,
                         (0,))
        bot = _point_jet(triplet.g_tt, cset.bn1[d], cset.bn2[d], 0.0, tau,
                         (0,))
        t_top = 20.0 + dt * top.value
        t_bot = 20.0 + dt * bot.value
        g_top = dt * top.d1[0]
        g_bot = dt * bot.d1[0]
        r_top = g_top - (cset.h_top[d] * cset.l_part[d] / PROPS.part.k) \
            * (ta - t_top)
        r_bot = g_bot - (cset.h_bot[d] * cset.l_tool[d] / PROPS.tool.k) \
            * (t_bot - ta)
        acc_top += (r_top / dt) ** 2
        acc_bot += (r_bot / dt) ** 2
    assert _rel_close(float(l_top), acc_top / cset.bc.tau.size)
    assert _rel_close(float(l_bot), acc_bot / cset.bc.tau.size)


def test_loss_physics_matches_recomputation():
    triplet = fresh_triplet(seed=6)
    cset = cset_for(triplet)
    nets, merged = frozen(triplet, cset)
    bc_scale = 0.7
    l_tool = loss_pde_tool(nets["tt"], merged["tt"], cset, PROPS,
                           triplet.delta_t, triplet.horizon)
    l_part = loss_pde_part(nets, merged, cset, PROPS, bc_scale,
                           triplet.delta_t, triplet.horizon)
    l_ode = loss_ode(nets, merged, cset, PROPS, triplet.horizon)
    dt, hz = triplet.delta_t, triplet.horizon
    a_t = PROPS.tool.diffusivity
    a_c = PROPS.part.diffusivity
    b_c = PROPS.part.heat_gen_coeff
    acc_tool = acc_part = 0.0
    for x, tau, d in zip(cset.interior.x, cset.interior.tau,
                         cset.interior.idx):
        jt = _point_jet(triplet.g_tt, cset.bn1[d], cset.bn2[d], x, tau,
                        (0, 1))
        r = dt / hz * jt.d1[1] - (a_t / cset.l_tool[d] ** 2) * dt * jt.d2[0]
        acc_tool += (r * hz / dt) ** 2
        jc = _point_jet(triplet.g_tc, cset.bn1[d], cset.bn2[d], x, tau,
                        (0, 1))
        ja = _point_jet(triplet.g_alpha, cset.bn1[d], cset.bn2[d], x, tau,
                        (1,))
        rate = ja.d1[1] / hz
        r = dt / hz * jc.d1[1] - (a_c / cset.l_part[d] ** 2) * dt * jc.d2[0] \
            - bc_scale * b_c * rate
        acc_part += (r * hz / dt) ** 2
    assert _rel_close(float(l_tool), acc_tool / cset.interior.x.size, 1e-8)
    assert _rel_close(float(l_part), acc_part / cset.interior.x.size, 1e-8)

    acc_ode = 0.0
    for x, tau, d in zip(cset.ode.x, cset.ode.tau, cset.ode.idx):
        ja = _point_jet(triplet.g_alpha, cset.bn1[d], cset.bn2[d], x, tau,
                        (1,))
        jc = _point_jet(triplet.g_tc, cset.bn1[d], cset.bn2[d], x, tau, ())
        t_k = celsius_to_kelvin(20.0 + dt * jc.value)
        rate = cure_rate(np.clip(ja.value, 0.0, 1.0), t_k, PROPS.kinetics)
        acc_ode += (ja.d1[1] - hz * rate) ** 2
    assert _rel_close(float(l_ode), acc_ode / cset.ode.x.size, 1e-8)


def test_loss_continuity_matches_recomputation():
    triplet = fresh_triplet(seed=7)
    cset = cset_for(triplet)
    nets, merged = frozen(triplet, cset)
    l_val, l_flux = loss_continuity_material(nets, merged, cset, PROPS,
                                             triplet.delta_t,
                                             triplet.horizon)
    dt = triplet.delta_t
    acc_v = acc_f = 0.0
    for tau, d in zip(cset.ct.tau, cset.ct.idx):
        jt = _point_jet(triplet.g_tt, cset.bn1[d], cset.bn2[d], 1.0, tau,
                        (0,))
        jc = _point_jet(triplet.g_tc, cset.bn1[d], cset.bn2[d], 0.0, tau,
                        (0,))
        val = dt * (jt.value - jc.value)
        flux = PROPS.tool.k / cset.l_tool[d] * dt * jt.d1[0] \
            - PROPS.part.k / cset.l_part[d] * dt * jc.d1[0]
        acc_v += (val / dt) ** 2
        acc_f += (flux * cset.l_part[d] / (PROPS.part.k * dt)) ** 2
    assert _rel_close(float(l_val), acc_v / cset.ct.tau.size)
    assert _rel_close(float(l_flux), acc_f / cset.ct.tau.size)


def test_loss_interface_matches_recomputation():
    triplet = fresh_triplet(seed=8)
    cset = cset_for(triplet)
    nets, merged = frozen(triplet, cset)
    got = loss_interface_temporal(nets["tc"], merged["tc"], cset)
    model = triplet.g_tc
    acc = 0.0
    for x, tau, d in zip(cset.interface.x, cset.interface.tau,
                         cset.interface.idx):
        b = mlp_forward(model.bn1, cset.bn1[d]) \
            * mlp_forward(model.bn2, cset.bn2[d])
        t = mlp_forward(model.trunk, np.array([x, tau]))
        k_right = subdomain_index(model.config.segments(), tau)
        k_left = k_right - 1
        left = mlp_forward(decoder(model, k_left), b * t)[0]
        right = mlp_forward(decoder(model, k_right), b * t)[0]
        acc += (left - right) ** 2
    assert _rel_close(float(got), acc / cset.interface.tau.size)


# -- trivial exact cases ---------------------------------------------------------


def test_exact_constant_model_has_zero_ic_loss():
    triplet = constant_triplet()
    cset = cset_for(triplet)
    nets, merged = frozen(triplet, cset)
    l_t, l_a = ic_losses(nets, merged, cset)
    assert float(l_t) == 0.0
    assert float(l_a) < 1e-28


def test_constant_offset_ic_loss_is_offset_squared():
    delta = 0.3
    triplet = constant_triplet(t_norm=delta)
    cset = cset_for(triplet)
    nets, merged = frozen(triplet, cset)
    l_t, _ = ic_losses(nets, merged, cset)
    # both temperature models carry the same offset
    assert float(l_t) == pytest.approx(2 * delta ** 2, rel=1e-12)


def test_equilibrium_model_zero_bc_loss_when_air_at_start_temp():
    triplet = constant_triplet()
    cset = cset_for(triplet)
    cset.ta_bc[...] = 20.0
    nets, merged = frozen(triplet, cset)
    l_top, l_bot = loss_bc(nets, merged, cset, PROPS, triplet.delta_t,
                           triplet.horizon)
    assert float(l_top) == 0.0 and float(l_bot) == 0.0


def test_insulated_bc_penalizes_gradient_only():
    triplet = fresh_triplet(seed=9)
    cset = cset_for(triplet)
    cset.h_top[...] = 0.0
    cset.h_bot[...] = 0.0
    nets, merged = frozen(triplet, cset)
    l_top, _ = loss_bc(nets, merged, cset, PROPS, triplet.delta_t,
                       triplet.horizon)
    acc = 0.0
    for tau, d in zip(cset.bc.tau, cset.bc.idx):
        jet = _point_jet(triplet.g_tc, cset.bn1[d], cset.bn2[d], 1.0, tau,
                         (0,))
        acc += jet.d1[0] ** 2
    assert _rel_close(float(l_top), acc / cset.bc.tau.size)


def test_manufactured_constant_solution_zeroes_all_components():
    # T == start temperature and alpha == alpha_init solve the system with
    # the air held at the start temperature (cure rate ~ 1e-11 at 20 degC)
    triplet = constant_triplet()
    cset = cset_for(triplet)
    cset.ta_bc[...] = 20.0
    nets = taped_triplet(triplet, trainable=())
    comps = compute_components(nets, triplet, cset, PROPS, bc_scale=1.0,
                               phase=PHASE_ALL)
    bd = breakdown_from(comps)
    for name, value in bd.items():
        assert value < 1e-10, (name, value)


def test_part_pde_loss_with_zero_bc_scale_ignores_alpha():
    triplet = fresh_triplet(seed=10)
    cset = cset_for(triplet)
    nets, merged = frozen(triplet, cset)
    l_part0 = loss_pde_part(nets, merged, cset, PROPS, 0.0, triplet.delta_t,
                            triplet.horizon)
    # rewire the cure model: part loss at bc_scale = 0 must not change
    triplet2 = fresh_triplet(seed=10)
    for w in triplet2.g_alpha.dec.weights:
        w[...] = 0.123
    nets2, merged2 = frozen(triplet2, cset)
    l_part0b = loss_pde_part(nets2, merged2, cset, PROPS, 0.0,
                             triplet2.delta_t, triplet2.horizon)
    assert float(l_part0) == float(l_part0b)
    with pytest.raises(ValueError):
        loss_pde_part(nets, merged, cset, PROPS, 1.5, triplet.delta_t,
                      triplet.horizon)


def test_single_subdomain_interface_loss_is_zero():
    cfg1 = OperatorConfig(q=6, hidden_width=8, hidden_layers=2,
                          n_subdomains=1)
    triplet = init_triplet(cfg1, SPACE, seed=0)
    cset = sample_collocation(triplet, DESIGNS, CCFG, 1, Q)
    nets, merged = frozen(triplet, cset)
    assert loss_interface_temporal(nets["tc"], merged["tc"], cset) == 0.0


def test_duplicated_decoders_have_zero_interface_loss():
    triplet = fresh_triplet(seed=12)
    model = triplet.g_tc
    for a in model.dec.arrays():
        a[...] = a[0]
    cset = cset_for(triplet)
    nets, merged = frozen(triplet, cset)
    assert float(loss_interface_temporal(nets["tc"], merged["tc"],
                                         cset)) == 0.0


def test_constant_equal_models_have_zero_continuity_loss():
    triplet = constant_triplet(t_norm=0.4)
    cset = cset_for(triplet)
    nets, merged = frozen(triplet, cset)
    l_val, l_flux = loss_continuity_material(nets, merged, cset, PROPS,
                                             triplet.delta_t,
                                             triplet.horizon)
    assert float(l_val) == 0.0 and float(l_flux) == 0.0


def test_unit_normalized_jump_gives_unit_value_loss():
    triplet = constant_triplet(t_norm=0.0)
    # tool reads 1 normalized unit higher
    triplet.g_tt.dec.biases[-1][...] = 1.0
    cset = cset_for(triplet)
    nets, merged = frozen(triplet, cset)
    l_val, _ = loss_continuity_material(nets, merged, cset, PROPS,
                                        triplet.delta_t, triplet.horizon)
    assert float(l_val) == pytest.approx(1.0, rel=1e-12)


# -- assembly --------------------------------------------------------------------


def test_total_loss_weighted_sum_and_zero_weights():
    bd = dict(ic_t=1.0, ic_alpha=2.0, bc_top=3.0, bc_bot=4.0,
              pde_tool=5.0, pde_part=6.0, ode=7.0,
              if_temporal=8.0, ct_value=9.0, ct_flux=10.0)
    assert total_loss(bd, LossWeights()) == pytest.approx(55.0)
    zero = LossWeights(**{k: 0.0 for k in dataclasses.asdict(LossWeights())})
    assert total_loss(bd, zero) == 0.0
    double = LossWeights(ic_t=2.0)
    assert total_loss(bd, double) == pytest.approx(56.0)


def test_phase_component_sets():
    triplet = fresh_triplet(seed=13)
    cset = cset_for(triplet)
    nets = taped_triplet(triplet, trainable=())
    temp = compute_components(nets, triplet, cset, PROPS, 1.0,
                              PHASE_TEMPERATURE)
    cure = compute_components(nets, triplet, cset, PROPS, 1.0, PHASE_CURE)
    everything = compute_components(nets, triplet, cset, PROPS, 1.0,
                                    PHASE_ALL)
    assert set(temp) == {"ic_t", "bc_top", "bc_bot", "pde_tool", "pde_part",
                         "ct_value", "ct_flux", "if_temporal"}
    assert set(cure) == {"ic_alpha", "ode", "if_temporal"}
    assert set(everything) == set(temp) | set(cure)
    # each phase's values are the full breakdown's, bit for bit
    for phase_comps in (temp, cure):
        for name, value in phase_comps.items():
            if name != "if_temporal":
                assert value == everything[name], name
    assert everything["if_temporal"] \
        == temp["if_temporal"] + cure["if_temporal"]
    with pytest.raises(ValueError):
        compute_components(nets, triplet, cset, PROPS, 1.0, "warmup")


def test_loss_evaluation_deterministic():
    triplet = fresh_triplet(seed=14)
    cset = cset_for(triplet)
    nets = taped_triplet(triplet, trainable=())
    a = breakdown_from(compute_components(nets, triplet, cset, PROPS, 1.0,
                                          PHASE_ALL))
    b = breakdown_from(compute_components(nets, triplet, cset, PROPS, 1.0,
                                          PHASE_ALL))
    assert a == b


def test_gradient_only_flows_to_trainable_models():
    triplet = fresh_triplet(seed=15)
    cset = cset_for(triplet)
    nets = taped_triplet(triplet, trainable=("tc",))
    comps = compute_components(nets, triplet, cset, PROPS, 1.0,
                               PHASE_TEMPERATURE)
    from cureonet.autodiff import backward
    backward(total_loss(comps, LossWeights()))
    assert nets["tt"] is triplet.g_tt
    grads = [v.grad for v in nets["tc"].trainable_arrays()]
    assert any(g is not None and np.any(g != 0.0) for g in grads)
