"""Physics-informed loss components over collocation sets.

Residuals are evaluated through the process-model functions in physical
units and then nondimensionalized (normalized time / temperature spans) so
that the default unit weights are comparably scaled across components. Every
component is a mean square over all sampled points of all designs.

Collocation points are stratified by temporal subdomain and laid out
segment-major in equal blocks, so each loss decodes all its points in one
batched pass: block k goes to subdomain k's decoder (initial-condition
points form one block for the first subdomain; interface points go once to
each side's decoder).

A training phase evaluates only the components it minimizes (PHASE_MODELS
names the operators it updates): the temperature phase the initial,
boundary, PDE, continuity and interface losses of the two temperature
operators, the cure phase the initial, ODE and interface losses of the cure
operator. Phase "all", the per-epoch breakdown, evaluates all ten.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .autodiff import Jet2, value_of
from .design import encode_batch
from .operator import OperatorTriplet, decode_stratified, merged_branch
from .process import (MaterialSet, air_temperature, bc_residuals,
                      celsius_to_kelvin, continuity_residuals, cure_rate,
                      pde_residual_part, pde_residual_tool)


@dataclass(frozen=True)
class CollocationConfig:
    """Requested point counts per category for one collocation draw, spread
    over the drawn designs; interior and ODE points number TrainPlan's
    batch_size. Counts round up so that every block has equal size:
    N_d * n * ceil(ceil(q / n) / N_d) points for n designs and N_d
    subdomains, and n * ceil(q_ic / n) initial-condition points."""

    q_ic: int = 256
    q_bc: int = 256
    q_if: int = 256
    q_ct: int = 256

    def __post_init__(self):
        if min(self.q_ic, self.q_bc, self.q_ct) < 1 or self.q_if < 0:
            raise ValueError("collocation counts must be positive")


@dataclass
class CollocationSet:
    """Flattened random collocation coordinates for N designs. idx arrays
    give the design index of each row. Rows are block-major: interior, ODE,
    BC and continuity points form one block per subdomain, interface points
    one block per internal boundary, and initial-condition points one
    block; each block holds every design's points in design order."""

    designs: list
    bn1: np.ndarray            # (N, 4)
    bn2: np.ndarray            # (N, 100)
    l_tool: np.ndarray         # (N,)
    l_part: np.ndarray
    h_top: np.ndarray
    h_bot: np.ndarray
    int_x: np.ndarray          # interior points, used for tool and part PDEs
    int_tau: np.ndarray
    int_idx: np.ndarray
    ode_x: np.ndarray
    ode_tau: np.ndarray
    ode_idx: np.ndarray
    ic_x: np.ndarray
    ic_idx: np.ndarray
    bc_tau: np.ndarray
    bc_idx: np.ndarray
    ta_bc: np.ndarray          # air temperature at bc_tau, degC
    if_x: np.ndarray
    if_tau: np.ndarray         # values at internal subdomain boundaries
    if_idx: np.ndarray
    ct_tau: np.ndarray
    ct_idx: np.ndarray


def _stratified_draw(rng, n_designs, per_design, boundaries):
    """Segment-major stratified draw: equal blocks per subdomain, uniform
    tau inside each subdomain, uniform x. Returns (x, tau, idx)."""
    n_d = len(boundaries) - 1
    m = -(-per_design // n_d)  # ceil
    total = n_d * n_designs * m
    x = rng.uniform(0.0, 1.0, size=total)
    tau = np.empty(total)
    for k in range(n_d):
        lo, hi = boundaries[k], boundaries[k + 1]
        block = slice(k * n_designs * m, (k + 1) * n_designs * m)
        tau[block] = rng.uniform(lo, hi, size=n_designs * m)
    idx = np.tile(np.repeat(np.arange(n_designs, dtype=np.intp), m), n_d)
    return x, tau, idx


def sample_collocation(triplet: OperatorTriplet, designs,
                       config: CollocationConfig, seed,
                       batch_size: int) -> CollocationSet:
    """Random collocation coordinates, deterministic per seed, with
    `batch_size` interior points and as many ODE points."""
    if not designs:
        raise ValueError("need at least one design")
    rng = np.random.default_rng(seed)
    n = len(designs)
    bn1, bn2 = encode_batch(designs, triplet.space, triplet.horizon,
                            t0=triplet.t0, cooldown=triplet.cooldown)
    boundaries = triplet.g_tc.config.boundaries

    def draw(q):
        return _stratified_draw(rng, n, -(-q // n), boundaries)

    int_x, int_tau, int_idx = draw(batch_size)
    ode_x, ode_tau, ode_idx = draw(batch_size)
    _bc_x, bc_tau, bc_idx = draw(config.q_bc)
    _ct_x, ct_tau, ct_idx = draw(config.q_ct)

    m_ic = -(-config.q_ic // n)
    ic_x = rng.uniform(0.0, 1.0, size=n * m_ic)
    ic_idx = np.repeat(np.arange(n, dtype=np.intp), m_ic)

    internal = np.asarray(boundaries[1:-1])
    if internal.size and config.q_if:
        n_b = internal.size
        m_if = max(1, -(-config.q_if // (n_b * n)))
        if_x = rng.uniform(0.0, 1.0, size=n_b * n * m_if)
        if_tau = np.repeat(internal, n * m_if)
        if_idx = np.tile(np.repeat(np.arange(n, dtype=np.intp), m_if), n_b)
    else:
        if_x = np.empty(0)
        if_tau = np.empty(0)
        if_idx = np.empty(0, dtype=np.intp)

    ta_bc = np.empty_like(bc_tau)
    for i, d in enumerate(designs):
        cycle = d.cycle(t0=triplet.t0, cooldown=triplet.cooldown)
        rows = bc_idx == i
        ta_bc[rows] = air_temperature(cycle, bc_tau[rows] * triplet.horizon)

    arr = lambda name: np.array([getattr(d, name) for d in designs])
    return CollocationSet(
        designs=list(designs), bn1=bn1, bn2=bn2,
        l_tool=arr("l_tool"), l_part=arr("l_part"),
        h_top=arr("h_top"), h_bot=arr("h_bot"),
        int_x=int_x, int_tau=int_tau, int_idx=int_idx,
        ode_x=ode_x, ode_tau=ode_tau, ode_idx=ode_idx,
        ic_x=ic_x, ic_idx=ic_idx,
        bc_tau=bc_tau, bc_idx=bc_idx, ta_bc=ta_bc,
        if_x=if_x, if_tau=if_tau, if_idx=if_idx,
        ct_tau=ct_tau, ct_idx=ct_idx)


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


def _flat_eval(net, merged, x, tau, blocks=None, d1=(), d2=()) -> Jet2:
    """Operator jets on block-major points, as flat (P,) slots (or (r, P)
    for an (r, n_b) `blocks`). Block b holds every design's points in
    design order and is decoded by decoder blocks[..., b]; by default block
    k belongs to subdomain k."""
    if blocks is None:
        blocks = np.arange(net.config.n_subdomains)
    xy = np.stack([np.asarray(x, dtype=np.float64),
                   np.asarray(tau, dtype=np.float64)], axis=1)
    return decode_stratified(net, merged, xy, blocks, d1, d2)


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
    in normalized output units: 0 is the start temperature; the cure
    operator's target is alpha_init."""
    jet = _flat_eval(net, merged, cset.ic_x, np.zeros_like(cset.ic_x),
                     blocks=[0])
    return _mean_sq(jet.value - target, cset.ic_x.size)


def loss_bc(nets: dict, merged: dict, cset: CollocationSet,
            props: MaterialSet, delta_t: float, horizon: float):
    """Robin boundary losses at the part top and tool bottom, in normalized
    temperature units."""
    total = cset.bc_tau.size
    tc, tt = nets["tc"], nets["tt"]
    top_jet = _flat_eval(tc, merged["tc"], np.ones(total), cset.bc_tau,
                         d1=(0,))
    bot_jet = _flat_eval(tt, merged["tt"], np.zeros(total), cset.bc_tau,
                         d1=(0,))
    top_phys = _phys_temp_jet(top_jet, tc.out_scale, tc.out_offset, horizon)
    bot_phys = _phys_temp_jet(bot_jet, tt.out_scale, tt.out_offset, horizon)
    idx = cset.bc_idx
    top, bot = bc_residuals(top_phys, bot_phys, cset.ta_bc,
                            props.part, props.tool, cset.h_top[idx],
                            cset.h_bot[idx], cset.l_part[idx],
                            cset.l_tool[idx])
    return (_mean_sq(top * (1.0 / delta_t), total),
            _mean_sq(bot * (1.0 / delta_t), total))


def loss_pde(nets: dict, merged: dict, cset: CollocationSet,
             props: MaterialSet, bc_scale: float, delta_t: float,
             horizon: float):
    """PDE residual losses of the tool and the part, in normalized (tau,
    temperature-span) units. The part's heat generation reads the cure
    operator's rate, scaled by the curriculum's bc_scale."""
    if not 0.0 <= bc_scale <= 1.0:
        raise ValueError("bc_scale must lie in [0, 1]")
    tc, tt = nets["tc"], nets["tt"]
    total = cset.int_x.size
    pde_scale = horizon / delta_t
    jet = _flat_eval(tt, merged["tt"], cset.int_x, cset.int_tau,
                     d1=(0, 1), d2=(0,))
    phys = _phys_temp_jet(jet, tt.out_scale, tt.out_offset, horizon)
    res = pde_residual_tool(phys, props.tool, cset.l_tool[cset.int_idx])
    l_tool = _mean_sq(res * pde_scale, total)

    jet = _flat_eval(tc, merged["tc"], cset.int_x, cset.int_tau,
                     d1=(0, 1), d2=(0,))
    phys = _phys_temp_jet(jet, tc.out_scale, tc.out_offset, horizon)
    if bc_scale > 0.0:
        jet_a = _flat_eval(nets["alpha"], merged["alpha"], cset.int_x,
                           cset.int_tau, d1=(1,))
        alpha_rate = jet_a.d1[1] * (1.0 / horizon)
    else:
        alpha_rate = 0.0
    res = pde_residual_part(phys, alpha_rate, props.part,
                            cset.l_part[cset.int_idx], bc_scale)
    return l_tool, _mean_sq(res * pde_scale, total)


def loss_ode(nets: dict, merged: dict, cset: CollocationSet,
             props: MaterialSet, horizon: float):
    """Cure-kinetics ODE loss in tau units, at the part temperature."""
    tc = nets["tc"]
    jet_a = _flat_eval(nets["alpha"], merged["alpha"], cset.ode_x,
                       cset.ode_tau, d1=(1,))
    jet_t = _flat_eval(tc, merged["tc"], cset.ode_x, cset.ode_tau)
    t_kelvin = celsius_to_kelvin(tc.out_offset + tc.out_scale * jet_t.value)
    rate = cure_rate(jet_a.value, t_kelvin, props.kinetics)
    return _mean_sq(jet_a.d1[1] - horizon * rate, cset.ode_x.size)


def loss_interface_temporal(net, merged, cset: CollocationSet):
    """Mismatch of adjacent decoders at shared subdomain boundaries
    (normalized output units). Zero by construction for one subdomain."""
    n_d = net.config.n_subdomains
    if n_d == 1 or cset.if_x.size == 0:
        return 0.0
    # block b sits on internal boundary b + 1: decode it on both sides
    right = np.arange(1, n_d)
    jet = _flat_eval(net, merged, cset.if_x, cset.if_tau,
                     blocks=[right - 1, right])
    diff = jet.data[0, 0] - jet.data[0, 1]
    return (diff * diff).sum() / cset.if_x.size


def loss_continuity_material(nets: dict, merged: dict, cset: CollocationSet,
                             props: MaterialSet, delta_t: float,
                             horizon: float):
    """Tool/part interface continuity losses: temperature value jump and
    conductive flux jump, nondimensionalized by the temperature span and the
    part-side conductance."""
    total = cset.ct_tau.size
    tc, tt = nets["tc"], nets["tt"]
    tool_jet = _flat_eval(tt, merged["tt"], np.ones(total), cset.ct_tau,
                          d1=(0,))
    part_jet = _flat_eval(tc, merged["tc"], np.zeros(total), cset.ct_tau,
                          d1=(0,))
    tool_phys = _phys_temp_jet(tool_jet, tt.out_scale, tt.out_offset, horizon)
    part_phys = _phys_temp_jet(part_jet, tc.out_scale, tc.out_offset, horizon)
    l_tool_pt = cset.l_tool[cset.ct_idx]
    l_part_pt = cset.l_part[cset.ct_idx]
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


def compute_components(nets: dict, triplet: OperatorTriplet,
                       cset: CollocationSet, props: MaterialSet,
                       bc_scale: float, phase: str = PHASE_ALL) -> dict:
    """Loss components one phase minimizes, and only those; phase "all"
    evaluates all ten. `nets` maps {tc, tt, alpha} to taped or frozen
    operators; gradient flows only through taped ones. The if_temporal
    entry sums the temporal-interface losses of the phase's operators."""
    if phase not in (*PHASE_MODELS, PHASE_ALL):
        raise ValueError(f"unknown phase {phase!r}")
    delta_t, horizon = triplet.delta_t, triplet.horizon
    merged = merged_branches(nets, cset)

    def interface(name):
        return loss_interface_temporal(nets[name], merged[name], cset)

    out: dict = {}
    if phase != PHASE_CURE:
        out["ic_t"] = (loss_ic(nets["tt"], merged["tt"], cset)
                       + loss_ic(nets["tc"], merged["tc"], cset))
        out["bc_top"], out["bc_bot"] = loss_bc(nets, merged, cset, props,
                                               delta_t, horizon)
        out["pde_tool"], out["pde_part"] = loss_pde(
            nets, merged, cset, props, bc_scale, delta_t, horizon)
        out["ct_value"], out["ct_flux"] = loss_continuity_material(
            nets, merged, cset, props, delta_t, horizon)
        out["if_temporal"] = interface("tc") + interface("tt")
    if phase != PHASE_TEMPERATURE:
        out["ic_alpha"] = loss_ic(nets["alpha"], merged["alpha"], cset,
                                  target=triplet.alpha_init)
        out["ode"] = loss_ode(nets, merged, cset, props, horizon)
        out["if_temporal"] = out.get("if_temporal", 0.0) + interface("alpha")
    return out
