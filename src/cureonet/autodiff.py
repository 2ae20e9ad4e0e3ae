"""Dense-MLP autodiff engine: reverse-mode tape over numpy arrays, with
order-2 forward jets for first/second derivatives w.r.t. selected network
inputs.

A tape runs in the precision of the weights it is fed: float64 weights give
a float64 tape, float32 weights a float32 one. Training tapes a float32 copy
of float64 master weights (see `trainer.train`); the loss algebra around the
network passes may stay float64, and each layer node casts the cotangent it
receives to its own dtype, so the layer matmuls and every parameter gradient
stay float32. Everything else (predictions, evaluation, the reference
solver) runs in float64.

A jet stacks its value and derivative slots on one leading axis (Taylor-mode
propagation in the forward-Laplacian layout), and `dense` moves all slots
through one layer as a single taped node with a hand-derived
vector-Jacobian product. A scalar loss assembled from any slot can
therefore be differentiated w.r.t. network parameters with one reverse
pass. A tanh layer's node keeps only its output slots: on a jet the
activation is taken in place over the layer's matmul result, and its
vector-Jacobian product reads every Jacobian term from those outputs.

`backward` sweeps a graph once and consumes it: each interior node's
cotangent and vjp closures are released as soon as its pulls have run, so
training holds about one step's forward tape at a time. Leaves keep their
gradients and accumulate them across sweeps.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

Array = np.ndarray


def _unbroadcast(grad: Array, shape: tuple) -> Array:
    """Sum gradient over axes that numpy broadcasting expanded."""
    if grad.shape == shape:
        return grad
    # collapse leading axes added by broadcasting
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Var:
    """Node of the reverse-mode tape. Holds a float32 or float64 array (any
    other input becomes float64), its gradient slot, and vjp closures
    pulling gradient back to its parents.

    Graphs are built implicitly through parent references; each evaluation
    therefore owns a private tape. Parents that do not require gradients
    are never recorded, so frozen networks add no tape overhead.
    """

    __slots__ = ("data", "grad", "_parents", "requires_grad")

    # make ndarray OP Var defer to Var's reflected operators
    __array_ufunc__ = None

    def __init__(self, data, parents=(), requires_grad=False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 \
            else data.astype(np.float64, copy=False)
        self.grad = None
        self._parents = parents
        self.requires_grad = requires_grad

    # -- helpers -----------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Var(shape={self.data.shape}, requires_grad={self.requires_grad})"

    @staticmethod
    def _node(data: Array, pulls) -> "Var":
        parents = tuple((p, fn) for p, fn in pulls if p.requires_grad)
        return Var(data, parents, bool(parents))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _lift(other)
        return Var._node(
            self.data + other.data,
            ((self, lambda g: _unbroadcast(g, self.data.shape)),
             (other, lambda g: _unbroadcast(g, other.data.shape))),
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        return Var._node(
            self.data - other.data,
            ((self, lambda g: _unbroadcast(g, self.data.shape)),
             (other, lambda g: _unbroadcast(-g, other.data.shape))),
        )

    def __rsub__(self, other):
        return _lift(other) - self

    def __mul__(self, other):
        other = _lift(other)
        return Var._node(
            self.data * other.data,
            ((self, lambda g: _unbroadcast(g * other.data, self.data.shape)),
             (other, lambda g: _unbroadcast(g * self.data, other.data.shape))),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        inv = 1.0 / other.data
        return Var._node(
            self.data * inv,
            ((self, lambda g: _unbroadcast(g * inv, self.data.shape)),
             (other, lambda g: _unbroadcast(-g * self.data * inv * inv,
                                            other.data.shape))),
        )

    def __rtruediv__(self, other):
        return _lift(other) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only constant exponents are supported")
        out = self.data ** exponent
        return Var._node(
            out,
            ((self, lambda g: g * exponent * self.data ** (exponent - 1.0)),),
        )

    # -- reductions and shaping ---------------------------------------------

    def sum(self):
        return Var._node(
            np.sum(self.data),
            ((self, lambda g: np.broadcast_to(g, self.data.shape)),),
        )

    def reshape(self, *shape):
        old = self.data.shape
        return Var._node(self.data.reshape(*shape),
                         ((self, lambda g: g.reshape(old)),))

    def __getitem__(self, idx):
        """Basic indexing (integers and slices)."""

        def pull(g, shape=self.data.shape):
            out = np.zeros(shape, dtype=self.data.dtype)
            out[idx] = g
            return out

        return Var._node(self.data[idx], ((self, pull),))


def _lift(x) -> Var:
    """`x` as a Var: a constant becomes an untaped one, which `Var._node`
    leaves off the tape."""
    return x if isinstance(x, Var) else Var(x)


# -- dispatchers usable on both Var and ndarray -----------------------------


def exp(x):
    if isinstance(x, Var):
        y = np.exp(x.data)
        return Var._node(y, ((x, lambda g: g * y),))
    return np.exp(x)


def clip(x, lo, hi):
    """Clamp with unit gradient strictly inside [lo, hi], zero outside."""
    if isinstance(x, Var):
        y = np.clip(x.data, lo, hi)
        mask = ((x.data >= lo) if lo is not None else True) \
            & ((x.data <= hi) if hi is not None else True)
        return Var._node(y, ((x, lambda g: g * mask),))
    return np.clip(x, lo, hi)


def value_of(x) -> Array:
    return x.data if isinstance(x, Var) else np.asarray(x)


# -- reverse pass ------------------------------------------------------------


def backward(root: Var) -> None:
    """Reverse-mode sweep from a scalar root. Fills .grad on every leaf
    reachable from it; leaves keep theirs and accumulate across sweeps.

    The sweep consumes the graph: once a node's pulls have run, its
    cotangent and its parent links (with the vjp closures and the arrays
    they hold) are released, so memory falls as the sweep goes. A graph is
    therefore swept once; reaching a swept node raises ValueError."""
    if root.data.ndim != 0:
        raise ValueError("backward expects a scalar loss node")
    topo: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._parents is None:
            raise ValueError("backward reached a node of an already swept "
                             "graph; evaluate the expression again")
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    root.grad = np.ones_like(root.data)
    while topo:
        node = topo.pop()
        parents = node._parents
        if not parents:     # a leaf keeps its gradient
            continue
        g, node.grad, node._parents = node.grad, None, None
        if g is None:
            continue
        for parent, pull in parents:
            contrib = pull(g)
            parent.grad = contrib if parent.grad is None else parent.grad + contrib


# -- network parameters -------------------------------------------------------


@dataclass
class MlpParams:
    """Weights of a dense MLP: tanh on hidden layers, identity output.

    weights[i] has shape (..., layer_sizes[i], layer_sizes[i+1]) and
    biases[i] shape (..., layer_sizes[i+1]), where the leading axes, the
    stack shape, are the same on every array: empty for one network,
    (N_d,) for N_d networks of equal shape stored stacked. The arrays may
    be numpy arrays or tape leaves (Var). Default architecture elsewhere in
    the package is 5 hidden layers of 50 neurons.
    """

    layer_sizes: list[int]
    weights: list
    biases: list

    def __post_init__(self):
        sizes = list(self.layer_sizes)
        if len(sizes) < 2 or any(int(s) <= 0 for s in sizes):
            raise ValueError(f"bad layer sizes {sizes}")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("weights/biases do not match layer count")
        stack = self.stack_shape
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            w, b = value_of(w), value_of(b)
            if w.shape != stack + (sizes[i], sizes[i + 1]) \
                    or b.shape != stack + (sizes[i + 1],):
                raise ValueError(f"layer {i} shape mismatch: {w.shape}, "
                                 f"{b.shape} for stack shape {stack}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} contains non-finite entries")

    @property
    def stack_shape(self) -> tuple:
        return value_of(self.weights[0]).shape[:-2]

    def map(self, fn) -> "MlpParams":
        """The same network with `fn` applied to every weight and bias."""
        return MlpParams(list(self.layer_sizes),
                         [fn(w) for w in self.weights],
                         [fn(b) for b in self.biases])

    def arrays(self) -> list:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


# -- forward evaluation -------------------------------------------------------


class _Slots(Mapping):
    """Read view of one derivative order of a Jet2: input index -> slot."""

    __slots__ = ("_data", "_slot")

    def __init__(self, data, keys, first):
        self._data = data
        self._slot = {k: first + i for i, k in enumerate(keys)}

    def __getitem__(self, k):
        return self._data[self._slot[k]]

    def __iter__(self):
        return iter(self._slot)

    def __len__(self):
        return len(self._slot)


class Jet2:
    """Value and derivatives of a network output w.r.t. selected inputs,
    stacked on the leading axis of one array or Var `data`:

        slot 0                 the value
        slot 1 + i             first derivative w.r.t. input d1[i]
        slot 1 + len(d1) + j   pure second derivative w.r.t. input d2[j]

    d2 is a subset of d1; cross derivatives are not carried. Slots read as
    `value`, `d1[k]` and `d2[k]` with k an input index (a read of a Var
    slot is taped). An input absent from d1/d2 has derivative identically
    zero.
    """

    __slots__ = ("data", "d1", "d2")

    def __init__(self, data, d1=(), d2=()):
        d1, d2 = tuple(d1), tuple(d2)
        n = 1 + len(d1) + len(d2)
        if value_of(data).shape[:1] != (n,) or not set(d2) <= set(d1) \
                or 1 + len(set(d1)) + len(set(d2)) != n:
            raise ValueError(f"data of shape {value_of(data).shape} does not "
                             f"hold the slots of d1={d1}, d2={d2}")
        self.data = data
        self.d1 = _Slots(data, d1, 1)
        self.d2 = _Slots(data, d2, 1 + len(d1))

    @property
    def value(self):
        return self.data[0]


def _shared_pulls(vjp, pulls):
    """Pulls of one node whose recorded parents all start from the same
    cotangent vjp(g): the first pull computes it and the last drops it."""
    pulls = [(p, fn) for p, fn in pulls
             if isinstance(p, Var) and p.requires_grad]
    memo = []

    def wrap(fn, last):
        def pull(g):
            if not memo:
                memo.append(vjp(g))
            gz = memo[0]
            if last:
                memo.clear()
            return fn(gz)
        return pull

    return tuple((p, wrap(fn, i == len(pulls) - 1))
                 for i, (p, fn) in enumerate(pulls))


def _tanh_jet(z, n1, src):
    """tanh on stacked pre-activation slots, in place over `z`:
    (z, z_k, z_kk) -> (y, s z_k, s z_kk - 2 y s z_k^2), y = tanh z,
    s = 1 - y^2. `src` names the first-derivative slot of each of the
    trailing second-derivative slots. Returns the slots (`z` itself) and
    their vector-Jacobian product, which keeps only those output slots.

    With out_i = s z_i the Jacobian reads from the outputs alone: every
    derivative slot i adds -2 y out_i to the value's cotangent, and a
    second-derivative slot j with source k adds -2 out_k^2 to it and
    -4 y out_k to slot k's; s is recomputed from y = out[0]."""
    y = np.tanh(z[0], out=z[0])
    s = 1.0 - y * y
    second = list(enumerate(src, 1 + n1))   # (slot, its first-derivative slot)
    if second:
        # second-derivative slots first: they read their sources' z_k
        ys2 = 2.0 * y * s
        for j, k in second:
            z[j] *= s
            z[j] -= ys2 * z[k] * z[k]
    z[1:1 + n1] *= s
    out = z

    def vjp(g):
        y = out[0]
        gz = (1.0 - y * y) * g
        gz[0] -= 2.0 * y * (g[1:] * out[1:]).sum(axis=0)
        if second:
            for j, k in second:
                gz[k] -= 4.0 * y * out[k] * g[j]
            # summed slot by slot, without a copy
            gz[0] -= 2.0 * sum(g[j] * out[k] * out[k] for j, k in second)
        return gz

    return out, vjp


def dense(jet: Jet2, w, b, act: bool) -> Jet2:
    """One dense layer, tanh(x @ w + b) if `act` else x @ w + b, on every
    slot of `jet` as one taped node.

    `w` is (a, b) with bias (b,) against (S, ..., a) slots, or stacked per
    block as (..., a, b) with bias (..., b) against (S, ..., m, a) slots.
    One matmul covers all slots and the bias enters the value slot only.
    Without derivative slots a tanh layer is plain tanh; with them
    `_tanh_jet` takes it in place over the matmul's result. Either way a
    taped node keeps its output slots only.
    """
    h, wd, bd = value_of(jet.data), value_of(w), value_of(b)
    bias = bd[..., None, :] if bd.ndim > 1 else bd
    z = h @ wd
    z[0] += bias
    if not act:
        out, vjp = z, (lambda g: g)
    elif z.shape[0] == 1:
        out = np.tanh(z)
        vjp = lambda g: g * (1.0 - out * out)
    else:
        first = list(jet.d1)
        out, vjp = _tanh_jet(z, len(first),
                             [1 + first.index(k) for k in jet.d2])
    if not any(isinstance(p, Var) for p in (jet.data, w, b)):
        return Jet2(out, jet.d1, jet.d2)
    # a cotangent from wider loss algebra is narrowed to the layer's dtype
    dtype = out.dtype
    parents = _shared_pulls(lambda g: vjp(g.astype(dtype, copy=False)), (
        (jet.data, lambda gz: _unbroadcast(gz @ wd.swapaxes(-1, -2),
                                           h.shape)),
        (w, lambda gz: _unbroadcast(h.swapaxes(-1, -2) @ gz, wd.shape)),
        (b, lambda gz: _unbroadcast(gz[0], bias.shape).reshape(bd.shape))))
    return Jet2(Var(out, parents, bool(parents)), jet.d1, jet.d2)


def dense_layers(jet: Jet2, weights, biases) -> Jet2:
    """`dense` through every layer: tanh on all but the last, which is
    affine."""
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        jet = dense(jet, w, b, act=i < last)
    return jet


def mlp_forward_jet(net, x: Array, d1=(), d2=()) -> Jet2:
    """Forward pass of a constant (batch, in) input carrying first
    derivatives w.r.t. the inputs in d1 and pure second derivatives w.r.t.
    those in d2 (a subset of d1); e.g. d1=(0, 1), d2=(0,) for d/dx, d/dt
    and d2/dx2. `net` is an MlpParams of numpy arrays or of tape leaves
    (then each layer is one taped node, so parameter gradients of any slot
    can be pulled back). The jet takes the weights' dtype. Returns a Jet2
    with (batch, out) slots.
    """
    dtype = value_of(net.weights[0]).dtype
    x = np.asarray(x, dtype=dtype)
    n_in = net.layer_sizes[0]
    if x.ndim != 2 or x.shape[1] != n_in:
        raise ValueError(f"input of shape {x.shape} is not (batch, {n_in})")
    if any(not 0 <= k < n_in for k in d1):
        raise ValueError(f"derivative inputs {d1} outside input width {n_in}")
    data = np.zeros((1 + len(d1) + len(d2),) + x.shape, dtype=dtype)
    data[0] = x
    for i, k in enumerate(d1):
        data[1 + i, :, k] = 1.0
    return dense_layers(Jet2(data, d1, d2), net.weights, net.biases)
