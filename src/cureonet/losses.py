"""Physics-informed loss components over collocation sets.

Residuals are evaluated through the process-model functions in physical
units and then nondimensionalized (normalized time / temperature spans) so
that the default unit weights are comparably scaled across components. Every
component is a mean square over all sampled points of all designs.

Collocation points have one layout, `Points` drawn by `_draw` under one
rounding rule: one equal block per tau span, each holding every design's
points in design order. The spans are the temporal subdomains, tau = 0 for
initial-condition points and the internal boundaries for interface points.
So each loss decodes its points in batched passes over a run of consecutive
decoders: block k goes to subdomain k's decoder (the initial-condition
block to the first one's; interface points go through the trunk once and
are decoded twice, by the runs left and right of the boundaries).

A training phase evaluates only the components it minimizes (PHASE_MODELS
names the operators it updates): the temperature phase the initial,
boundary, PDE, continuity and interface losses of the two temperature
operators, the cure phase the initial, ODE and interface losses of the cure
operator. Phase "all", the per-epoch breakdown, evaluates all ten.

`loss_groups` builds the components one loss call at a time. The loss is
a weighted sum of these independent terms, so a training step sweeps each
group's tape as soon as the group is built, and its tape peaks at the
largest group rather than at the whole loss; `compute_components` collects
the groups into one dict.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .autodiff import Jet2, mlp_forward_jet, value_of
from .design import encode
from .operator import OperatorTriplet, decode_stratified, merged_branch
from .process import (ALPHA_INIT, MaterialSet, air_temperature,
                      bc_residuals, celsius_to_kelvin, continuity_residuals,
                      cure_rate, pde_residual)


@dataclass(frozen=True)
class CollocationConfig:
    """Requested point counts per category for one collocation draw, spread
    over the drawn designs; interior and ODE points number TrainPlan's
    batch_size. Every category rounds by one rule (see `_draw`): q points
    over n designs and B blocks become B * n * ceil(q / (n * B))."""

    q_ic: int = 256
    q_bc: int = 256
    q_if: int = 256
    q_ct: int = 256

    def __post_init__(self):
        if min(self.q_ic, self.q_bc, self.q_ct) < 1 or self.q_if < 0:
            raise ValueError("collocation counts must be positive")


@dataclass(frozen=True)
class Points:
    """Collocation points of one category: coordinates x and tau and the
    design index idx of each row, block-major (see CollocationSet)."""

    x: np.ndarray
    tau: np.ndarray
    idx: np.ndarray


@dataclass
class CollocationSet:
    """Random collocation points for N designs, one Points per category,
    all in one layout: one block per tau span, each block holding every
    design's points in design order, equally many per design. Interior,
    ODE, BC and continuity points have one block per subdomain, interface
    points one per internal boundary (tau on it), and initial-condition
    points one block at tau = 0."""

    bn1: np.ndarray            # (N, 4)
    bn2: np.ndarray            # (N, 100)
    l_tool: np.ndarray         # (N,)
    l_part: np.ndarray
    h_top: np.ndarray
    h_bot: np.ndarray
    ta_bc: np.ndarray          # air temperature at bc.tau, degC
    interior: Points           # tool and part PDEs
    ode: Points
    bc: Points
    ct: Points
    ic: Points
    interface: Points


def _draw(rng, n_designs, q, spans) -> Points:
    """At least q points in one block per (lo, hi) tau span, m = ceil(q /
    (n_designs * len(spans))) per design per block: uniform x for all
    blocks first, then each block's uniform tau. A point span (b, b) draws
    no tau; no spans or q = 0 give no points."""
    if not spans or q == 0:
        return Points(np.empty(0), np.empty(0), np.empty(0, dtype=np.intp))
    m = -(-q // (n_designs * len(spans)))
    size = n_designs * m
    x = rng.uniform(0.0, 1.0, size=len(spans) * size)
    tau = np.concatenate([np.full(size, lo) if lo == hi
                          else rng.uniform(lo, hi, size=size)
                          for lo, hi in spans])
    idx = np.tile(np.repeat(np.arange(n_designs, dtype=np.intp), m),
                  len(spans))
    return Points(x, tau, idx)


def sample_collocation(triplet: OperatorTriplet, designs,
                       config: CollocationConfig, seed,
                       batch_size: int) -> CollocationSet:
    """Random collocation points, deterministic per seed, with `batch_size`
    interior points and as many ODE points. BC and continuity points sit at
    fixed x yet draw x they never read: skipping those draws would shift
    the random stream of every later category, and so every seeded run."""
    if not designs:
        raise ValueError("need at least one design")
    rng = np.random.default_rng(seed)
    n = len(designs)
    bn1, bn2 = encode(designs, triplet.space, triplet.horizon,
                      cooldown=triplet.cooldown)
    op_config = triplet.g_tc.config
    draw = lambda q, spans=op_config.segments(): _draw(rng, n, q, spans)
    interior, ode = draw(batch_size), draw(batch_size)
    bc, ct = draw(config.q_bc), draw(config.q_ct)
    ic = draw(config.q_ic, [(0.0, 0.0)])
    interface = draw(config.q_if, [(b, b) for b in op_config.boundaries[1:-1]])

    ta_bc = np.empty_like(bc.tau)
    for i, d in enumerate(designs):
        cycle = d.cycle(cooldown=triplet.cooldown)
        rows = bc.idx == i
        ta_bc[rows] = air_temperature(cycle, bc.tau[rows] * triplet.horizon)

    arr = lambda name: np.array([getattr(d, name) for d in designs])
    return CollocationSet(
        bn1=bn1, bn2=bn2,
        l_tool=arr("l_tool"), l_part=arr("l_part"),
        h_top=arr("h_top"), h_bot=arr("h_bot"), ta_bc=ta_bc,
        interior=interior, ode=ode, bc=bc, ct=ct, ic=ic, interface=interface)


# -- loss weights and breakdown ------------------------------------------------


@dataclass(frozen=True)
class LossWeights:
    ic_t: float = 1.0
    ic_alpha: float = 1.0
    bc_top: float = 1.0
    bc_bot: float = 1.0
    pde_tool: float = 1.0
    pde_part: float = 1.0
    ode: float = 1.0
    if_temporal: float = 1.0
    ct_value: float = 1.0
    ct_flux: float = 1.0


COMPONENT_NAMES = tuple(f.name for f in fields(LossWeights))


def total_loss(components: dict, weights: LossWeights):
    """Weighted sum of loss components in their dict order; keeps the tape
    if components are recorded Vars."""
    acc = 0.0
    for name, value in components.items():
        acc = acc + getattr(weights, name) * value
    return acc


def breakdown_from(components: dict) -> dict:
    """Plain-float snapshot of loss components, in COMPONENT_NAMES order."""
    return {name: float(value_of(components[name]))
            for name in COMPONENT_NAMES if name in components}


# -- evaluation helpers --------------------------------------------------------


def merged_branches(nets: dict, cset: CollocationSet) -> dict:
    """Each operator's merged branch embeddings of the set's designs."""
    return {name: merged_branch(net, cset.bn1, cset.bn2)
            for name, net in nets.items()}


def _trunk_jet(net, x, tau, d1=(), d2=()) -> Jet2:
    """The trunk's jet on the points (x, tau)."""
    return mlp_forward_jet(net.trunk, np.stack([x, tau], axis=1), d1, d2)


def _flat_eval(net, merged, x, tau, decoders=None, d1=(), d2=()) -> Jet2:
    """Operator jets on block-major points, as flat (P,) slots. Block i
    holds every design's points in design order and is decoded by decoder
    decoders[i] of a run of consecutive decoders; by default the run is
    every decoder, so block k belongs to subdomain k."""
    if decoders is None:
        decoders = range(net.config.n_subdomains)
    return decode_stratified(net, merged, _trunk_jet(net, x, tau, d1, d2),
                             decoders)


def _phys_temp_jet(jet: Jet2, scale: float, offset: float,
                   horizon: float) -> Jet2:
    """Network jet (normalized output, tau time) -> physical jet (degC, s):
    every slot scales by `scale`, and by 1/horizon per time derivative; the
    value slot gains `offset`."""
    scales = [scale] + [scale / horizon if k == 1 else scale
                        for k in jet.d1] \
        + [scale / horizon ** 2 if k == 1 else scale for k in jet.d2]
    offsets = np.zeros((len(scales), 1))
    offsets[0] = offset
    return Jet2(jet.data * np.reshape(scales, (-1, 1)) + offsets,
                jet.d1, jet.d2)


def _mean_sq(r, total: int):
    return (r * r).sum() / total


# -- loss components -----------------------------------------------------------
#
# `nets` maps {tc, tt, alpha} to taped or frozen operators and `merged` maps
# the same names to their merged branch embeddings (see merged_branches);
# single-operator components take one net and its embeddings.


def loss_ic(net, merged, cset: CollocationSet, target: float = 0.0):
    """Initial-condition loss of one operator at tau = 0 against `target`
    in normalized output units: 0 is the start temperature T0; the cure
    operator's target is ALPHA_INIT."""
    ic = cset.ic
    jet = _flat_eval(net, merged, ic.x, ic.tau, decoders=range(1))
    return _mean_sq(jet.value - target, ic.x.size)


def loss_bc(nets: dict, merged: dict, cset: CollocationSet,
            props: MaterialSet, delta_t: float, horizon: float):
    """Robin boundary losses at the part top and tool bottom, in normalized
    temperature units."""
    tau, idx = cset.bc.tau, cset.bc.idx
    total = tau.size
    tc, tt = nets["tc"], nets["tt"]
    top_jet = _flat_eval(tc, merged["tc"], np.ones(total), tau, d1=(0,))
    bot_jet = _flat_eval(tt, merged["tt"], np.zeros(total), tau, d1=(0,))
    top_phys = _phys_temp_jet(top_jet, tc.out_scale, tc.out_offset, horizon)
    bot_phys = _phys_temp_jet(bot_jet, tt.out_scale, tt.out_offset, horizon)
    top, bot = bc_residuals(top_phys, bot_phys, cset.ta_bc,
                            props.part, props.tool, cset.h_top[idx],
                            cset.h_bot[idx], cset.l_part[idx],
                            cset.l_tool[idx])
    return (_mean_sq(top * (1.0 / delta_t), total),
            _mean_sq(bot * (1.0 / delta_t), total))


def loss_pde_tool(net, merged, cset: CollocationSet, props: MaterialSet,
                  delta_t: float, horizon: float):
    """PDE residual loss of the tool operator, in normalized (tau,
    temperature-span) units."""
    pts = cset.interior
    jet = _flat_eval(net, merged, pts.x, pts.tau, d1=(0, 1), d2=(0,))
    phys = _phys_temp_jet(jet, net.out_scale, net.out_offset, horizon)
    res = pde_residual(phys, props.tool, cset.l_tool[pts.idx])
    return _mean_sq(res * (horizon / delta_t), pts.x.size)


def loss_pde_part(nets: dict, merged: dict, cset: CollocationSet,
                  props: MaterialSet, bc_scale: float, delta_t: float,
                  horizon: float):
    """PDE residual loss of the part, in the units of loss_pde_tool, with
    the losses' one heat-source term: the cure operator's rate times b_c,
    scaled by the curriculum's bc_scale (at 0 the cure pass is skipped)."""
    if not 0.0 <= bc_scale <= 1.0:
        raise ValueError("bc_scale must lie in [0, 1]")
    tc, pts = nets["tc"], cset.interior
    jet = _flat_eval(tc, merged["tc"], pts.x, pts.tau, d1=(0, 1), d2=(0,))
    phys = _phys_temp_jet(jet, tc.out_scale, tc.out_offset, horizon)
    res = pde_residual(phys, props.part, cset.l_part[pts.idx])
    if bc_scale > 0.0:
        jet_a = _flat_eval(nets["alpha"], merged["alpha"], pts.x, pts.tau,
                           d1=(1,))
        res = res - (bc_scale * props.part.heat_gen_coeff) \
            * (jet_a.d1[1] * (1.0 / horizon))
    return _mean_sq(res * (horizon / delta_t), pts.x.size)


def loss_ode(nets: dict, merged: dict, cset: CollocationSet,
             props: MaterialSet, horizon: float):
    """Cure-kinetics ODE loss in tau units, at the part temperature."""
    tc, pts = nets["tc"], cset.ode
    jet_a = _flat_eval(nets["alpha"], merged["alpha"], pts.x, pts.tau,
                       d1=(1,))
    jet_t = _flat_eval(tc, merged["tc"], pts.x, pts.tau)
    t_kelvin = celsius_to_kelvin(tc.out_offset + tc.out_scale * jet_t.value)
    rate = cure_rate(jet_a.value, t_kelvin, props.kinetics)
    return _mean_sq(jet_a.d1[1] - horizon * rate, pts.x.size)


def loss_interface_temporal(net, merged, cset: CollocationSet):
    """Mismatch of adjacent decoders at shared subdomain boundaries
    (normalized output units); 0.0 without interface points, as for one
    subdomain. Both sides' decoders read one trunk pass."""
    pts, n_d = cset.interface, net.config.n_subdomains
    if pts.x.size == 0:
        return 0.0
    # block b sits on internal boundary b + 1: decode it on both sides
    trunk = _trunk_jet(net, pts.x, pts.tau)
    left, right = (decode_stratified(net, merged, trunk, run).value
                   for run in (range(n_d - 1), range(1, n_d)))
    return _mean_sq(left - right, pts.x.size)


def loss_continuity_material(nets: dict, merged: dict, cset: CollocationSet,
                             props: MaterialSet, delta_t: float,
                             horizon: float):
    """Tool/part interface continuity losses: temperature value jump and
    conductive flux jump, nondimensionalized by the temperature span and the
    part-side conductance."""
    tau = cset.ct.tau
    total = tau.size
    tc, tt = nets["tc"], nets["tt"]
    tool_jet = _flat_eval(tt, merged["tt"], np.ones(total), tau, d1=(0,))
    part_jet = _flat_eval(tc, merged["tc"], np.zeros(total), tau, d1=(0,))
    tool_phys = _phys_temp_jet(tool_jet, tt.out_scale, tt.out_offset, horizon)
    part_phys = _phys_temp_jet(part_jet, tc.out_scale, tc.out_offset, horizon)
    l_tool_pt = cset.l_tool[cset.ct.idx]
    l_part_pt = cset.l_part[cset.ct.idx]
    val, flux = continuity_residuals(tool_phys, part_phys, props.tool,
                                     props.part, l_tool_pt, l_part_pt)
    return (_mean_sq(val * (1.0 / delta_t), total),
            _mean_sq(flux * (l_part_pt / (props.part.k * delta_t)), total))


# -- assembly -----------------------------------------------------------------

PHASE_TEMPERATURE = "temperature"
PHASE_CURE = "cure"
PHASE_ALL = "all"

# the operators each training phase updates, in gradient and Adam order
PHASE_MODELS = {PHASE_TEMPERATURE: ("tc", "tt"), PHASE_CURE: ("alpha",)}


def loss_groups(nets: dict, merged: dict, triplet: OperatorTriplet,
                cset: CollocationSet, props: MaterialSet, bc_scale: float,
                phase: str):
    """The loss components one phase minimizes, one dict per loss call,
    built only when the next is asked for; phase "all" yields all ten.
    `nets` maps {tc, tt, alpha} to taped or frozen operators and `merged`
    to their merged branch embeddings; gradient flows only through taped
    ones. A name may recur: if_temporal once per operator, ic_t once per
    temperature operator. The groups are independent terms of the loss, so
    a trainer can sweep each one before the next is built."""
    if phase not in (*PHASE_MODELS, PHASE_ALL):
        raise ValueError(f"unknown phase {phase!r}")
    delta_t, horizon = triplet.delta_t, triplet.horizon

    def interface(name):
        return {"if_temporal": loss_interface_temporal(nets[name],
                                                       merged[name], cset)}

    if phase != PHASE_CURE:
        yield {"ic_t": loss_ic(nets["tt"], merged["tt"], cset)}
        yield {"ic_t": loss_ic(nets["tc"], merged["tc"], cset)}
        top, bot = loss_bc(nets, merged, cset, props, delta_t, horizon)
        yield {"bc_top": top, "bc_bot": bot}
        yield {"pde_tool": loss_pde_tool(nets["tt"], merged["tt"], cset,
                                         props, delta_t, horizon)}
        yield {"pde_part": loss_pde_part(nets, merged, cset, props,
                                         bc_scale, delta_t, horizon)}
        value, flux = loss_continuity_material(nets, merged, cset, props,
                                               delta_t, horizon)
        yield {"ct_value": value, "ct_flux": flux}
        yield interface("tc")
        yield interface("tt")
    if phase != PHASE_TEMPERATURE:
        yield {"ic_alpha": loss_ic(nets["alpha"], merged["alpha"], cset,
                                   target=ALPHA_INIT)}
        yield {"ode": loss_ode(nets, merged, cset, props, horizon)}
        yield interface("alpha")


def compute_components(nets: dict, triplet: OperatorTriplet,
                       cset: CollocationSet, props: MaterialSet,
                       bc_scale: float, phase: str = PHASE_ALL) -> dict:
    """Loss components one phase minimizes, and only those; phase "all"
    evaluates all ten. The groups of loss_groups are collected into one
    dict, and a name that recurs holds the sum of its groups in their
    order: ic_t of both temperature operators, if_temporal of the phase's
    operators."""
    out: dict = {}
    for group in loss_groups(nets, merged_branches(nets, cset), triplet,
                             cset, props, bc_scale, phase):
        for name, value in group.items():
            out[name] = out[name] + value if name in out else value
    return out
