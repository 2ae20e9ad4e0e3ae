"""Operator networks: two branch nets merged by Hadamard product, a trunk
net, and one decoder per temporal subdomain. Three fully decoupled operator
instances predict part temperature, tool temperature, and degree of cure.

Decoders are nonlinear MLPs by default; a linear read-out mode (inner
product of merged branch and trunk features plus bias) is kept behind a
config switch for ablation studies. All decoders of a model share layer
shapes, so their weights are stored stacked along a leading subdomain axis;
`decoders` exposes per-subdomain MlpParams views into that storage.

Every evaluation goes through `decode_stratified`: points arrive in equal
contiguous blocks, and each block names the decoder that evaluates it, so
all blocks run in one batched pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (Jet2, MlpParams, TapeMlp, dense_layers,
                       mlp_forward_jet, value_of)
from .design import (DesignPoint, DesignSpace, SensorizedInput, encode,
                     normalize_query)
from .solver import FieldSolution

# smaller subdomains concentrated where the cure transition tends to sit
DEFAULT_BOUNDARIES_7 = (0.0, 0.25, 0.40, 0.48, 0.56, 0.64, 0.80, 1.0)


@dataclass(frozen=True)
class OperatorConfig:
    """Architecture of one operator: all subnets are tanh MLPs with
    `hidden_layers` x `hidden_width`, latent width q shared by branches and
    trunk; one decoder per temporal subdomain."""

    q: int = 50
    hidden_width: int = 50
    hidden_layers: int = 5
    n_subdomains: int = 7
    boundaries: tuple = None
    decoder: str = "nonlinear"     # or "linear"
    bn1_width: int = 4
    bn2_width: int = 100

    def __post_init__(self):
        if self.q < 1 or self.hidden_width < 1 or self.hidden_layers < 1:
            raise ValueError("bad architecture sizes")
        if self.decoder not in ("nonlinear", "linear"):
            raise ValueError(f"unknown decoder kind {self.decoder!r}")
        bounds = self.boundaries
        if bounds is None:
            if self.n_subdomains == 7:
                bounds = DEFAULT_BOUNDARIES_7
            else:
                bounds = tuple(np.linspace(0.0, 1.0, self.n_subdomains + 1))
        bounds = tuple(float(b) for b in bounds)
        if len(bounds) != self.n_subdomains + 1:
            raise ValueError("boundaries must have n_subdomains + 1 entries")
        if bounds[0] != 0.0 or bounds[-1] != 1.0:
            raise ValueError("boundaries must start at 0 and end at 1")
        if any(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("boundaries must be strictly increasing")
        object.__setattr__(self, "boundaries", bounds)

    def hidden(self) -> list[int]:
        return [self.hidden_width] * self.hidden_layers

    def branch1_sizes(self) -> list[int]:
        return [self.bn1_width] + self.hidden() + [self.q]

    def branch2_sizes(self) -> list[int]:
        return [self.bn2_width] + self.hidden() + [self.q]

    def trunk_sizes(self) -> list[int]:
        return [2] + self.hidden() + [self.q]

    def decoder_sizes(self) -> list[int]:
        if self.decoder == "linear":
            return [self.q, 1]
        return [self.q] + self.hidden() + [1]

    def segments(self) -> list[tuple[float, float]]:
        return list(zip(self.boundaries[:-1], self.boundaries[1:]))

    def to_dict(self) -> dict:
        return {"q": self.q, "hidden_width": self.hidden_width,
                "hidden_layers": self.hidden_layers,
                "n_subdomains": self.n_subdomains,
                "boundaries": list(self.boundaries),
                "decoder": self.decoder,
                "bn1_width": self.bn1_width, "bn2_width": self.bn2_width}

    @staticmethod
    def from_dict(d: dict) -> "OperatorConfig":
        d = dict(d)
        d["boundaries"] = tuple(d["boundaries"])
        return OperatorConfig(**d)


@dataclass
class DeepONetModel:
    """Parameters of one operator plus its output denormalization
    (physical = out_offset + out_scale * network output). Decoder k serves
    the k-th segment of config.segments()."""

    bn1: MlpParams
    bn2: MlpParams
    trunk: MlpParams
    decoders: list[MlpParams]
    config: OperatorConfig
    out_offset: float = 0.0
    out_scale: float = 1.0
    dec_w: list = field(default_factory=list)   # stacked (N_d, a, b) per layer
    dec_b: list = field(default_factory=list)   # stacked (N_d, b) per layer

    def __post_init__(self):
        if len(self.decoders) != self.config.n_subdomains:
            raise ValueError("need exactly one decoder per subdomain")
        sizes = self.decoders[0].layer_sizes
        for dec in self.decoders:
            if dec.layer_sizes[0] != self.config.q:
                raise ValueError("decoder input width must equal q")
            if dec.layer_sizes != sizes:
                raise ValueError("decoders must share layer sizes")
        if not self.dec_w:
            self._restack()

    def _restack(self):
        """Stack decoder weights and rebind `decoders` to views so that
        updates through the stacked arrays stay visible per decoder."""
        n_layers = self.decoders[0].n_layers
        self.dec_w = [np.stack([d.weights[i] for d in self.decoders])
                      for i in range(n_layers)]
        self.dec_b = [np.stack([d.biases[i] for d in self.decoders])
                      for i in range(n_layers)]
        sizes = list(self.decoders[0].layer_sizes)
        self.decoders = [
            MlpParams(sizes, [self.dec_w[i][k] for i in range(n_layers)],
                      [self.dec_b[i][k] for i in range(n_layers)])
            for k in range(len(self.decoders))]

    def copy(self) -> "DeepONetModel":
        return DeepONetModel(self.bn1.copy(), self.bn2.copy(),
                             self.trunk.copy(),
                             [d.copy() for d in self.decoders],
                             self.config, self.out_offset, self.out_scale)

    def trainable_arrays(self) -> list[np.ndarray]:
        out = []
        for net in (self.bn1, self.bn2, self.trunk):
            out.extend(net.arrays())
        for w, b in zip(self.dec_w, self.dec_b):
            out.append(w)
            out.append(b)
        return out


def glorot_mlp(layer_sizes, rng) -> MlpParams:
    """Glorot-uniform weights, zero biases."""
    weights, biases = [], []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-limit, limit, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return MlpParams(list(layer_sizes), weights, biases)


def init(config: OperatorConfig, seed: int,
         out_offset: float = 0.0, out_scale: float = 1.0) -> DeepONetModel:
    """Deterministic Glorot initialization of one operator."""
    rng = np.random.default_rng(seed)
    bn1 = glorot_mlp(config.branch1_sizes(), rng)
    bn2 = glorot_mlp(config.branch2_sizes(), rng)
    trunk = glorot_mlp(config.trunk_sizes(), rng)
    decoders = [glorot_mlp(config.decoder_sizes(), rng)
                for _ in range(config.n_subdomains)]
    return DeepONetModel(bn1, bn2, trunk, decoders, config,
                         out_offset=out_offset, out_scale=out_scale)


@dataclass
class OperatorTriplet:
    """Three independent operators (part T, tool T, degree of cure) sharing
    a design space, time horizon, and subdomain partition but no weights."""

    g_tc: DeepONetModel
    g_tt: DeepONetModel
    g_alpha: DeepONetModel
    space: DesignSpace
    horizon: float
    t0: float = 20.0
    alpha_init: float = 0.05
    cooldown: bool = False

    def __post_init__(self):
        b = self.g_tc.config.boundaries
        if self.g_tt.config.boundaries != b or \
                self.g_alpha.config.boundaries != b:
            raise ValueError("operators must share the subdomain partition")

    def models(self) -> dict:
        return {"tc": self.g_tc, "tt": self.g_tt, "alpha": self.g_alpha}

    def copy(self) -> "OperatorTriplet":
        return OperatorTriplet(self.g_tc.copy(), self.g_tt.copy(),
                               self.g_alpha.copy(), self.space, self.horizon,
                               t0=self.t0, alpha_init=self.alpha_init,
                               cooldown=self.cooldown)

    @property
    def delta_t(self) -> float:
        """Temperature normalization span (degC)."""
        return self.space.t_ref() - self.t0


def init_triplet(config: OperatorConfig, space: DesignSpace, seed: int,
                 t0: float = 20.0, alpha_init: float = 0.05,
                 cooldown: bool = False,
                 horizon: float | None = None) -> OperatorTriplet:
    """Three independently initialized operators with the temperature models
    denormalizing to [t0, t_ref] and the cure model passing through."""
    if horizon is None:
        horizon = space.max_cycle_duration(t0=t0, cooldown=cooldown)
    t_scale = space.t_ref() - t0
    rng_seeds = np.random.SeedSequence(seed).generate_state(3)
    g_tc = init(config, int(rng_seeds[0]), out_offset=t0, out_scale=t_scale)
    g_tt = init(config, int(rng_seeds[1]), out_offset=t0, out_scale=t_scale)
    g_alpha = init(config, int(rng_seeds[2]), out_offset=0.0, out_scale=1.0)
    return OperatorTriplet(g_tc, g_tt, g_alpha, space, horizon,
                           t0=t0, alpha_init=alpha_init, cooldown=cooldown)


# -- evaluation ---------------------------------------------------------------


def branch_merge(b1, b2):
    """Hadamard product of the two branch embeddings."""
    if value_of(b1).shape != value_of(b2).shape:
        raise ValueError("branch outputs must have equal shapes")
    return b1 * b2


def subdomain_index(segments, tau):
    """Map tau in [0,1] to its subdomain (left-closed intervals; tau = 1
    belongs to the segment that ends at 1). Accepts scalars or arrays."""
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=np.float64))
    if np.any(tau_arr < 0.0) or np.any(tau_arr > 1.0):
        raise ValueError("tau outside [0, 1]")
    out = np.full(tau_arr.shape, -1, dtype=np.intp)
    for k, (lo, hi) in enumerate(segments):
        mask = (tau_arr >= lo) & ((tau_arr < hi) | ((hi == 1.0) & (tau_arr <= 1.0)))
        out[mask & (out < 0)] = k
    if np.any(out < 0):
        raise ValueError("segments do not cover [0, 1]")
    return int(out[0]) if np.asarray(tau).ndim == 0 else out


class TapedDeepONet:
    """A DeepONetModel with its subnets wrapped for the tape (trainable) or
    left as plain numpy parameters (frozen). Decoder weights are wrapped as
    the stacked tensors so one batched pass covers all subdomains."""

    def __init__(self, model: DeepONetModel, trainable: bool):
        self.model = model
        self.trainable = trainable
        if trainable:
            from .autodiff import Var
            self.bn1 = TapeMlp(model.bn1, trainable=True)
            self.bn2 = TapeMlp(model.bn2, trainable=True)
            self.trunk = TapeMlp(model.trunk, trainable=True)
            self.dec_w = [Var(w, requires_grad=True) for w in model.dec_w]
            self.dec_b = [Var(b, requires_grad=True) for b in model.dec_b]
        else:
            self.bn1 = model.bn1
            self.bn2 = model.bn2
            self.trunk = model.trunk
            self.dec_w = model.dec_w
            self.dec_b = model.dec_b

    def leaves(self):
        """Tape leaves in the same order as model.trainable_arrays()."""
        if not self.trainable:
            return []
        out = []
        for net in (self.bn1, self.bn2, self.trunk):
            out.extend(net.leaves())
        for w, b in zip(self.dec_w, self.dec_b):
            out.append(w)
            out.append(b)
        return out

    def gradient_arrays(self):
        """Gradients aligned with model.trainable_arrays()."""
        out = []
        for v in self.leaves():
            out.append(v.grad if v.grad is not None
                       else np.zeros_like(v.data))
        return out


def taped_triplet(triplet: OperatorTriplet,
                  trainable=("tc", "tt", "alpha")) -> dict:
    """Wrap the triplet for one loss evaluation; only the named models are
    recorded on the tape, the rest evaluate as frozen constants."""
    return {name: TapedDeepONet(model, name in trainable)
            for name, model in triplet.models().items()}


def merged_branch(net: TapedDeepONet | DeepONetModel, bn1_in, bn2_in):
    """Branch embeddings merged by Hadamard product; rows index designs."""
    return branch_merge(mlp_forward_jet(net.bn1, bn1_in).value,
                        mlp_forward_jet(net.bn2, bn2_in).value)


def decode_stratified(net: TapedDeepONet | DeepONetModel, merged, xy,
                      blocks, d1=(), d2=()) -> Jet2:
    """Trunk + decoders in one batched pass, carrying the derivative slots
    d1/d2 of mlp_forward_jet.

    The P rows of `xy` split into blocks.shape[-1] equal contiguous blocks,
    and block b is decoded by decoder blocks[..., b]. A (n_b,) `blocks`
    gives (P,) slots; an (r, n_b) one decodes the same trunk features with
    r decoder sets and gives (r, P) slots. `merged` holds the merged branch
    embeddings of n designs, (n, q), and every block holds each design's
    points in design order, equally many per design.
    """
    blocks = np.asarray(blocks, dtype=np.intp)
    *lead, n_b = blocks.shape
    n, q = value_of(merged).shape
    p = xy.shape[0]
    if n_b == 0 or p % (n_b * n):
        raise ValueError("P must split into equal blocks with equally many "
                         "points per design")
    trunk = mlp_forward_jet(net.trunk, xy, d1, d2).data
    per_design = trunk.reshape(-1, n_b, n, p // (n_b * n), q)
    joint = (merged[:, None] * per_design).reshape(
        -1, *(1,) * len(lead), n_b, p // n_b, q)
    if np.array_equal(blocks, np.arange(value_of(net.dec_w[0]).shape[0])):
        blocks = None    # every decoder once, in order: no gather
    out = dense_layers(Jet2(joint, d1, d2), net.dec_w, net.dec_b, blocks)
    return Jet2(out.data.reshape(-1, *lead, p), d1, d2)


def predict_grid(model: DeepONetModel, u: SensorizedInput,
                 xs: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Normalized outputs on the tensor grid taus x xs, shape (n_t, n_x).
    The tau rows of each occupied subdomain decode as one block."""
    xs = np.asarray(xs, dtype=np.float64)
    taus = np.asarray(taus, dtype=np.float64)
    merged = merged_branch(model, u.bn1[None, :], u.bn2[None, :])
    seg = subdomain_index(model.config.segments(), taus)
    out = np.empty((taus.size, xs.size))
    for k in np.unique(seg):
        rows = seg == k
        xx, tt = np.meshgrid(xs, taus[rows])
        xy = np.stack([xx.ravel(), tt.ravel()], axis=1)
        jet = decode_stratified(model, merged, xy, [k])
        out[rows] = jet.value.reshape(-1, xs.size)
    return out


def predict_field(triplet: OperatorTriplet, design: DesignPoint,
                  times: np.ndarray, n_tool: int = 81,
                  n_part: int = 81) -> FieldSolution:
    """Dense prediction of all three operators on a space-time grid,
    denormalized to physical units. Degree of cure is clamped to [0, 1];
    the clamp count is reported in meta."""
    times = np.asarray(times, dtype=np.float64)
    taus = np.array([normalize_query(0.0, t, triplet.horizon)[1]
                     for t in times])
    u = encode(design, triplet.space, triplet.horizon, t0=triplet.t0,
               cooldown=triplet.cooldown)
    x1 = np.linspace(0.0, 1.0, n_tool)
    x2 = np.linspace(0.0, 1.0, n_part)

    tc = predict_grid(triplet.g_tc, u, x2, taus)
    tt = predict_grid(triplet.g_tt, u, x1, taus)
    al = predict_grid(triplet.g_alpha, u, x2, taus)

    tc_phys = triplet.g_tc.out_offset + triplet.g_tc.out_scale * tc
    tt_phys = triplet.g_tt.out_offset + triplet.g_tt.out_scale * tt
    al_phys = triplet.g_alpha.out_offset + triplet.g_alpha.out_scale * al
    n_clamped = int(np.sum((al_phys < 0.0) | (al_phys > 1.0)))
    al_phys = np.clip(al_phys, 0.0, 1.0)

    return FieldSolution(times=times, t_tool=tt_phys, t_part=tc_phys,
                         alpha=al_phys, design=design,
                         meta={"alpha_clamped": n_clamped,
                               "source": "operator"})


# -- serialization ------------------------------------------------------------


def model_state(model: DeepONetModel, prefix: str) -> dict:
    out = {}
    for net_name in ("bn1", "bn2", "trunk"):
        net = getattr(model, net_name)
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            out[f"{prefix}/{net_name}/w{i}"] = w
            out[f"{prefix}/{net_name}/b{i}"] = b
    for i, (w, b) in enumerate(zip(model.dec_w, model.dec_b)):
        out[f"{prefix}/dec/w{i}"] = w
        out[f"{prefix}/dec/b{i}"] = b
    return out


def model_meta(model: DeepONetModel) -> dict:
    return {"config": model.config.to_dict(),
            "out_offset": model.out_offset,
            "out_scale": model.out_scale}


def model_from_state(meta: dict, arrays: dict, prefix: str) -> DeepONetModel:
    config = OperatorConfig.from_dict(meta["config"])
    stored = [tuple(s) for s in meta.get("segments", config.segments())]
    if stored != config.segments():
        raise ValueError(f"{prefix}: stored segments {stored} differ from "
                         f"the config's partition {config.segments()}")

    def rebuild(sizes, net_name):
        n = len(sizes) - 1
        ws = [arrays[f"{prefix}/{net_name}/w{i}"] for i in range(n)]
        bs = [arrays[f"{prefix}/{net_name}/b{i}"] for i in range(n)]
        return MlpParams(list(sizes), ws, bs)

    bn1 = rebuild(config.branch1_sizes(), "bn1")
    bn2 = rebuild(config.branch2_sizes(), "bn2")
    trunk = rebuild(config.trunk_sizes(), "trunk")
    dec_sizes = config.decoder_sizes()
    n_layers = len(dec_sizes) - 1
    decoders = []
    for k in range(config.n_subdomains):
        ws = [arrays[f"{prefix}/dec/w{i}"][k] for i in range(n_layers)]
        bs = [arrays[f"{prefix}/dec/b{i}"][k] for i in range(n_layers)]
        decoders.append(MlpParams(list(dec_sizes), ws, bs))
    return DeepONetModel(bn1, bn2, trunk, decoders, config,
                         out_offset=float(meta["out_offset"]),
                         out_scale=float(meta["out_scale"]))
