"""Operator networks: two branch nets merged by Hadamard product, a trunk
net, and one decoder per temporal subdomain. The branch nets read the rows
of `design.encode`, one per design. Three fully decoupled operator
instances predict part temperature, tool temperature, and degree of cure.

Decoders are nonlinear MLPs by default; a linear read-out mode (inner
product of merged branch and trunk features plus bias) is kept behind a
config switch for ablation studies. An operator is four MlpParams subnets
named by NETS; all decoders share layer shapes, so `dec` is one MlpParams
whose arrays carry a leading subdomain axis, (N_d, a, b) per weight.

The losses decode through `decode_stratified`: points arrive in equal
contiguous blocks, one per decoder of a run of consecutive decoders, and
their trunk jet, computed by the caller, goes through all blocks' decoders
in one batched pass with derivative slots on the tape. Grid prediction
needs values only and goes through `predict_grid`'s tape-free feature-major
path instead, one matmul per layer with the bias folded in.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .autodiff import (Jet2, MlpParams, Var, dense_layers, mlp_forward_jet,
                       value_of)
from .design import N_SENSORS, SCALAR_NAMES, DesignPoint, DesignSpace, encode
from .process import ALPHA_INIT, T0, DomainError
from .solver import FieldSolution

# smaller subdomains concentrated where the cure transition tends to sit
DEFAULT_BOUNDARIES_7 = (0.0, 0.25, 0.40, 0.48, 0.56, 0.64, 0.80, 1.0)

# the subnets of one operator, in parameter and checkpoint order
NETS = ("bn1", "bn2", "trunk", "dec")


@dataclass(frozen=True)
class OperatorConfig:
    """Architecture of one operator: all subnets are tanh MLPs with
    `hidden_layers` x `hidden_width`, latent width q shared by branches and
    trunk; one decoder per temporal subdomain. Branch input widths are the
    encoding's (SCALAR_NAMES, N_SENSORS)."""

    q: int = 50
    hidden_width: int = 50
    hidden_layers: int = 5
    n_subdomains: int = 7
    boundaries: tuple = None
    decoder: str = "nonlinear"     # or "linear"

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

    def net_sizes(self) -> dict[str, list[int]]:
        """Layer sizes of each subnet in NETS (one decoder for `dec`)."""
        hidden = [self.hidden_width] * self.hidden_layers
        dec = [self.q] + (hidden if self.decoder == "nonlinear" else []) + [1]
        return {"bn1": [len(SCALAR_NAMES)] + hidden + [self.q],
                "bn2": [N_SENSORS] + hidden + [self.q],
                "trunk": [2] + hidden + [self.q], "dec": dec}

    def segments(self) -> list[tuple[float, float]]:
        return list(zip(self.boundaries[:-1], self.boundaries[1:]))


@dataclass
class DeepONetModel:
    """Parameters of one operator, whose outputs are normalized: its
    triplet maps them to physical units. The subnets are the MlpParams
    named by NETS, of numpy arrays or, in a model `taped_triplet` prepared
    for training, of tape leaves; `dec` stacks the decoders, and decoder k
    serves the k-th segment of config.segments()."""

    bn1: MlpParams
    bn2: MlpParams
    trunk: MlpParams
    dec: MlpParams
    config: OperatorConfig

    def __post_init__(self):
        for name in NETS:
            stack = getattr(self, name).stack_shape
            want = (self.config.n_subdomains,) if name == "dec" else ()
            if stack != want:
                raise ValueError(f"{name}: stack shape {stack}, expected "
                                 f"{want}")
        if self.dec.layer_sizes[0] != self.config.q:
            raise ValueError("decoder input width must equal q")

    def map(self, fn) -> "DeepONetModel":
        """The same operator with `fn` applied to every weight and bias."""
        return replace(self, **{name: getattr(self, name).map(fn)
                                for name in NETS})

    def trainable_arrays(self) -> list[np.ndarray]:
        return [a for name in NETS for a in getattr(self, name).arrays()]


def glorot_mlp(layer_sizes, rng) -> MlpParams:
    """Glorot-uniform weights, zero biases."""
    weights, biases = [], []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-limit, limit, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return MlpParams(list(layer_sizes), weights, biases)


def init(config: OperatorConfig, seed: int) -> DeepONetModel:
    """Deterministic Glorot initialization of one operator: bn1, bn2, trunk,
    then each decoder in turn draw from one stream; decoders are stacked."""
    rng = np.random.default_rng(seed)
    sizes = config.net_sizes()
    nets = [glorot_mlp(sizes[name], rng) for name in NETS[:-1]]
    decs = [glorot_mlp(sizes["dec"], rng) for _ in range(config.n_subdomains)]
    dec = MlpParams(sizes["dec"],
                    [np.stack(ws) for ws in zip(*(d.weights for d in decs))],
                    [np.stack(bs) for bs in zip(*(d.biases for d in decs))])
    return DeepONetModel(*nets, dec, config)


@dataclass
class OperatorTriplet:
    """Three independent operators (part T, tool T, degree of cure) sharing
    a design space and subdomain partition but no weights. Its class
    attributes t0 and alpha_init are T0 and ALPHA_INIT; its units follow
    from space and cooldown: a temperature operator's output u is
    T0 + delta_t * u degC, and tau is time / horizon."""

    g_tc: DeepONetModel
    g_tt: DeepONetModel
    g_alpha: DeepONetModel
    space: DesignSpace
    cooldown: bool = False
    t0 = T0
    alpha_init = ALPHA_INIT

    def __post_init__(self):
        b = self.g_tc.config.boundaries
        if self.g_tt.config.boundaries != b or \
                self.g_alpha.config.boundaries != b:
            raise ValueError("operators must share the subdomain partition")

    def models(self) -> dict:
        return {"tc": self.g_tc, "tt": self.g_tt, "alpha": self.g_alpha}

    def map(self, fn) -> "OperatorTriplet":
        """The same triplet with `fn` applied to every weight and bias."""
        return OperatorTriplet(self.g_tc.map(fn), self.g_tt.map(fn),
                               self.g_alpha.map(fn), self.space,
                               cooldown=self.cooldown)

    def copy(self) -> "OperatorTriplet":
        return self.map(np.copy)

    @property
    def delta_t(self) -> float:
        """Temperature normalization span (degC)."""
        return self.space.t_ref() - T0

    @property
    def horizon(self) -> float:
        """Time normalization span (s): the space's longest cycle."""
        return self.space.max_cycle_duration(cooldown=self.cooldown)


def init_triplet(config: OperatorConfig, space: DesignSpace, seed: int,
                 cooldown: bool = False) -> OperatorTriplet:
    """Three independently initialized operators over one space."""
    rng_seeds = np.random.SeedSequence(seed).generate_state(3)
    return OperatorTriplet(*(init(config, int(s)) for s in rng_seeds), space,
                           cooldown=cooldown)


# -- evaluation ---------------------------------------------------------------


def subdomain_index(segments, tau):
    """Map tau in [0,1] to its subdomain (left-closed intervals; tau = 1
    belongs to the segment that ends at 1). Accepts scalars or arrays."""
    tau = np.asarray(tau, dtype=np.float64)
    if not np.all((tau >= 0.0) & (tau <= 1.0)):
        raise ValueError("tau outside [0, 1]")
    k = np.searchsorted([hi for _, hi in segments[:-1]], tau, side="right")
    return int(k) if k.ndim == 0 else k


def taped_triplet(triplet: OperatorTriplet,
                  trainable=("tc", "tt", "alpha")) -> dict:
    """The triplet's models prepared for one loss evaluation. A trainable
    model is a copy whose subnets hold tape leaves aliasing its arrays (so
    optimizer updates stay visible), and its `trainable_arrays()` are those
    leaves; a frozen model is the triplet's own and adds nothing to the
    tape. The tape runs in the arrays' dtype."""
    return {name: model.map(lambda a: Var(a, requires_grad=True))
            if name in trainable else model
            for name, model in triplet.models().items()}


def merged_branch(net: DeepONetModel, bn1, bn2):
    """Branch embeddings of `encode`'s rows merged by Hadamard product,
    (n, q); rows index designs. `net.config.net_sizes()` gives both branch
    nets the output width q."""
    return mlp_forward_jet(net.bn1, bn1).value \
        * mlp_forward_jet(net.bn2, bn2).value


def decode_stratified(net: DeepONetModel, merged, trunk: Jet2,
                      decoders: range) -> Jet2:
    """Decoders in one batched pass over the trunk's jet on P points,
    `mlp_forward_jet(net.trunk, xy, d1, d2)`, carrying its derivative
    slots, as (P,) slots. The trunk pass is the caller's, so that two runs
    of decoders can read one.

    `decoders` is a run of consecutive decoders. The P points split into
    len(decoders) equal contiguous blocks, and block i is decoded by
    decoder decoders[i]. `merged` holds the merged branch embeddings of n
    designs, (n, q), and every block holds each design's points in design
    order, equally many per design.
    """
    n_dec, n_b = net.dec.stack_shape[0], len(decoders)
    n, q = value_of(merged).shape
    p = value_of(trunk.data).shape[1]
    if decoders.step != 1 or not 0 <= decoders.start < decoders.stop <= n_dec:
        raise ValueError(f"{decoders} is no run of the {n_dec} decoders")
    if p % (n_b * n):
        raise ValueError("P must split into equal blocks with equally many "
                         "points per design")
    joint = (merged[:, None]
             * trunk.data.reshape(-1, n_b, n, p // (n_b * n), q)
             ).reshape(-1, n_b, p // n_b, q)
    weights, biases = net.dec.weights, net.dec.biases
    if n_b < n_dec:     # a full slice's pull would copy the whole stack
        run = slice(decoders.start, decoders.stop)
        weights, biases = [w[run] for w in weights], [b[run] for b in biases]
    out = dense_layers(Jet2(joint, trunk.d1, trunk.d2), weights, biases)
    return Jet2(out.data.reshape(-1, p), out.d1, out.d2)


def _mlp_feature_major(weights, biases, h, spare):
    """Tape-free MLP forward on feature-major activations. The leading
    n_in + 1 rows of `h` hold the (features, points) input over a last row
    of ones, so [W; b]^T carries each layer's bias and a layer is one
    matmul into the leading rows of the other buffer, then an in-place tanh
    on hidden layers. `spare` has the shape of `h`; the two swap roles per
    layer. Returns (buffer holding the output rows and their ones row, the
    other buffer)."""
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        n_in, n_out = w.shape
        z = spare[:n_out]
        np.matmul(np.concatenate([w, b[None]]).T, h[:n_in + 1], out=z)
        if i < last:
            np.tanh(z, out=z)
        spare[n_out] = 1.0
        h, spare = spare, h
    return h, spare


def predict_grid(model: DeepONetModel, bn1: np.ndarray, bn2: np.ndarray,
                 xs: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Normalized outputs of one design on the tensor grid taus x xs, shape
    (n_t, n_x). `bn1` and `bn2` are the design's `encode` rows, (1, 4) and
    (1, N_SENSORS).

    Values only, without the tape: the tau rows of each occupied subdomain
    go through the trunk as one block, are multiplied by the merged branch,
    and go through that subdomain's decoder, all feature-major (see
    `_mlp_feature_major`). The losses' `decode_stratified` computes the
    same composition point-major."""
    xs = np.asarray(xs, dtype=np.float64)
    taus = np.asarray(taus, dtype=np.float64)
    merged, = merged_branch(model, bn1, bn2)
    seg = subdomain_index(model.config.segments(), taus)
    occupied, counts = np.unique(seg, return_counts=True)
    width = max(model.trunk.layer_sizes + model.dec.layer_sizes) + 1
    room = width * int(counts.max(initial=0)) * xs.size
    flat = np.empty(room), np.empty(room)
    out = np.empty((taus.size, xs.size))
    for k, n_t in zip(occupied, counts):
        rows = seg == k
        h, spare = (a[:width * n_t * xs.size].reshape(width, n_t * xs.size)
                    for a in flat)
        h[0] = np.tile(xs, n_t)
        h[1] = np.repeat(taus[rows], xs.size)
        h[2] = 1.0
        h, spare = _mlp_feature_major(model.trunk.weights, model.trunk.biases,
                                      h, spare)
        h[:merged.size] *= merged[:, None]
        h, _ = _mlp_feature_major([w[k] for w in model.dec.weights],
                                  [b[k] for b in model.dec.biases], h, spare)
        out[rows] = h[0].reshape(n_t, xs.size)
    return out


def predict_field(triplet: OperatorTriplet, design: DesignPoint,
                  times: np.ndarray, n_tool: int = 81,
                  n_part: int = 81) -> FieldSolution:
    """Dense prediction of all three operators on a space-time grid,
    in physical units. Every time must lie in [0, horizon] (NaN does not).
    Degree of cure is clamped to [0, 1]; the clamp count is reported in
    meta."""
    times = np.asarray(times, dtype=np.float64)
    horizon = triplet.horizon
    if not np.all((0.0 <= times) & (times <= horizon)):
        raise DomainError("time outside [0, horizon]")
    bn1, bn2 = encode([design], triplet.space, cooldown=triplet.cooldown)
    x_part = np.linspace(0.0, 1.0, n_part)
    xs = {"tc": x_part, "tt": np.linspace(0.0, 1.0, n_tool), "alpha": x_part}
    out = {name: predict_grid(model, bn1, bn2, xs[name], times / horizon)
           for name, model in triplet.models().items()}
    alpha = out["alpha"]
    n_clamped = int(np.sum((alpha < 0.0) | (alpha > 1.0)))
    return FieldSolution(times=times,
                         t_tool=T0 + triplet.delta_t * out["tt"],
                         t_part=T0 + triplet.delta_t * out["tc"],
                         alpha=np.clip(alpha, 0.0, 1.0), design=design,
                         meta={"alpha_clamped": n_clamped})


# -- serialization ------------------------------------------------------------


def model_state(model: DeepONetModel, prefix: str) -> dict:
    out = {}
    for name in NETS:
        net = getattr(model, name)
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            out[f"{prefix}/{name}/w{i}"] = w
            out[f"{prefix}/{name}/b{i}"] = b
    return out


def model_meta(model: DeepONetModel) -> dict:
    return {"config": asdict(model.config)}


def model_from_state(meta: dict, arrays: dict, prefix: str) -> DeepONetModel:
    # older files carry the branch widths, now fixed by the encoding
    config = OperatorConfig(**{k: v for k, v in meta["config"].items()
                               if k not in ("bn1_width", "bn2_width")})
    stored = [tuple(s) for s in meta.get("segments", config.segments())]
    if stored != config.segments():
        raise ValueError(f"{prefix}: stored segments {stored} differ from "
                         f"the config's partition {config.segments()}")
    sizes = config.net_sizes()
    nets = {}
    try:
        for name in NETS:
            where, n = f"{prefix}/{name}", len(sizes[name]) - 1
            nets[name] = MlpParams(
                sizes[name], [arrays[f"{where}/w{i}"] for i in range(n)],
                [arrays[f"{where}/b{i}"] for i in range(n)])
        where = prefix
        return DeepONetModel(**nets, config=config)
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None
