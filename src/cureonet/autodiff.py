"""Dense-MLP autodiff engine: reverse-mode tape over float64 numpy arrays,
with order-2 forward jets for first/second derivatives w.r.t. selected
network inputs.

The jet propagation is itself built from taped primitives, so a scalar loss
assembled from any jet slot (value, d1, d2) can be differentiated w.r.t.
network parameters with a single reverse pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Node of the reverse-mode tape. Holds a float64 array, its gradient
    slot, and vjp closures pulling gradient back to its parents.

    Graphs are built implicitly through parent references; each evaluation
    therefore owns a private tape. Parents that do not require gradients
    are never recorded, so frozen networks add no tape overhead.
    """

    __slots__ = ("data", "grad", "_parents", "requires_grad")

    # make ndarray OP Var defer to Var's reflected operators
    __array_ufunc__ = None

    def __init__(self, data, parents=(), requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self.requires_grad = requires_grad

    # -- helpers -----------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Var(shape={self.data.shape}, requires_grad={self.requires_grad})"

    @staticmethod
    def _node(data: Array, pulls) -> "Var":
        parents = tuple((p, fn) for p, fn in pulls if p.requires_grad)
        return Var(data, parents, bool(parents))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Var):
            return Var._node(
                self.data + other.data,
                ((self, lambda g: _unbroadcast(g, self.data.shape)),
                 (other, lambda g: _unbroadcast(g, other.data.shape))),
            )
        return Var._node(
            self.data + other,
            ((self, lambda g: _unbroadcast(g, self.data.shape)),),
        )

    __radd__ = __add__

    def __neg__(self):
        return Var._node(-self.data, ((self, lambda g: -g),))

    def __sub__(self, other):
        if isinstance(other, Var):
            return Var._node(
                self.data - other.data,
                ((self, lambda g: _unbroadcast(g, self.data.shape)),
                 (other, lambda g: _unbroadcast(-g, other.data.shape))),
            )
        return Var._node(
            self.data - other,
            ((self, lambda g: _unbroadcast(g, self.data.shape)),),
        )

    def __rsub__(self, other):
        return Var._node(
            other - self.data,
            ((self, lambda g: _unbroadcast(-g, self.data.shape)),),
        )

    def __mul__(self, other):
        if isinstance(other, Var):
            return Var._node(
                self.data * other.data,
                ((self, lambda g: _unbroadcast(g * other.data, self.data.shape)),
                 (other, lambda g: _unbroadcast(g * self.data, other.data.shape))),
            )
        return Var._node(
            self.data * other,
            ((self, lambda g: _unbroadcast(g * other, self.data.shape)),),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Var):
            inv = 1.0 / other.data
            return Var._node(
                self.data * inv,
                ((self, lambda g: _unbroadcast(g * inv, self.data.shape)),
                 (other, lambda g: _unbroadcast(-g * self.data * inv * inv,
                                                other.data.shape))),
            )
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.data
        return Var._node(
            other * inv,
            ((self, lambda g: _unbroadcast(-g * other * inv * inv,
                                           self.data.shape)),),
        )

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only constant exponents are supported")
        out = self.data ** exponent
        return Var._node(
            out,
            ((self, lambda g: g * exponent * self.data ** (exponent - 1.0)),),
        )

    def __matmul__(self, other):
        if isinstance(other, Var):
            return Var._node(
                self.data @ other.data,
                ((self, lambda g: _unbroadcast(g @ other.data.swapaxes(-1, -2),
                                               self.data.shape)),
                 (other, lambda g: _unbroadcast(self.data.swapaxes(-1, -2) @ g,
                                                other.data.shape))),
            )
        other = np.asarray(other, dtype=np.float64)
        return Var._node(
            self.data @ other,
            ((self, lambda g: _unbroadcast(g @ other.swapaxes(-1, -2),
                                           self.data.shape)),))

    def __rmatmul__(self, other):
        other = np.asarray(other, dtype=np.float64)
        return Var._node(
            other @ self.data,
            ((self, lambda g: _unbroadcast(other.swapaxes(-1, -2) @ g,
                                           self.data.shape)),))

    # -- reductions and shaping ---------------------------------------------

    def sum(self):
        return Var._node(
            np.sum(self.data),
            ((self, lambda g: np.broadcast_to(g, self.data.shape)),),
        )

    def mean(self):
        n = self.data.size
        return Var._node(
            np.mean(self.data),
            ((self, lambda g: np.broadcast_to(g / n, self.data.shape)),),
        )

    def reshape(self, *shape):
        old = self.data.shape
        return Var._node(self.data.reshape(*shape),
                         ((self, lambda g: g.reshape(old)),))

    def tile_rows(self, outer: int, inner: int):
        """Rows replicated as (outer, n, inner) blocks flattened to 2-D:
        output row (o, i, j) equals row i. Cheap reduction on backward."""
        n, q = self.data.shape
        out = np.broadcast_to(self.data[None, :, None, :],
                              (outer, n, inner, q)).reshape(-1, q)
        return Var._node(
            out,
            ((self, lambda g: g.reshape(outer, n, inner, q).sum(axis=(0, 2))),))

    def take_outer(self, idx):
        """Gather blocks along the leading axis (duplicates allowed)."""
        idx = np.asarray(idx, dtype=np.intp)

        def pull(g, idx=idx, shape=self.data.shape):
            out = np.zeros(shape)
            np.add.at(out, idx, g)
            return out

        return Var._node(self.data[idx], ((self, pull),))


# -- dispatchers usable on both Var and ndarray -----------------------------


def tanh(x):
    if isinstance(x, Var):
        y = np.tanh(x.data)
        return Var._node(y, ((x, lambda g: g * (1.0 - y * y)),))
    return np.tanh(x)


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


def reshape(x, *shape):
    if isinstance(x, Var):
        return x.reshape(*shape)
    return np.asarray(x).reshape(*shape)


def tile_rows(x, outer, inner):
    if isinstance(x, Var):
        return x.tile_rows(outer, inner)
    x = np.asarray(x)
    n, q = x.shape
    return np.broadcast_to(x[None, :, None, :],
                           (outer, n, inner, q)).reshape(-1, q)


def take_outer(x, idx):
    if isinstance(x, Var):
        return x.take_outer(idx)
    return np.asarray(x)[np.asarray(idx, dtype=np.intp)]


def value_of(x) -> Array:
    return x.data if isinstance(x, Var) else np.asarray(x)


# -- reverse pass ------------------------------------------------------------


def backward(root: Var) -> None:
    """Reverse-mode sweep from a scalar root. Fills .grad on every tape node
    reachable from it (gradients accumulate; leaves keep theirs)."""
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
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        g = node.grad
        if g is None:
            continue
        for parent, pull in node._parents:
            contrib = pull(g)
            parent.grad = contrib if parent.grad is None else parent.grad + contrib


# -- network parameters -------------------------------------------------------


@dataclass
class MlpParams:
    """Weights of a dense MLP: tanh on hidden layers, identity output.

    weights[i] has shape (layer_sizes[i], layer_sizes[i+1]); biases[i] has
    shape (layer_sizes[i+1],). Default architecture elsewhere in the package
    is 5 hidden layers of 50 neurons.
    """

    layer_sizes: list[int]
    weights: list[Array]
    biases: list[Array]

    def __post_init__(self):
        sizes = list(self.layer_sizes)
        if len(sizes) < 2 or any(int(s) <= 0 for s in sizes):
            raise ValueError(f"bad layer sizes {sizes}")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("weights/biases do not match layer count")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
                raise ValueError(f"layer {i} shape mismatch: {w.shape}, {b.shape}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} contains non-finite entries")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def copy(self) -> "MlpParams":
        return MlpParams(list(self.layer_sizes),
                         [w.copy() for w in self.weights],
                         [b.copy() for b in self.biases])

    def arrays(self) -> list[Array]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


class TapeMlp:
    """MlpParams wrapped as tape leaves. Var data aliases the source arrays,
    so optimizer updates through the source stay visible here."""

    def __init__(self, params: MlpParams, trainable: bool = True):
        self.source = params
        self.trainable = trainable
        self.weights = [Var(w, requires_grad=trainable) for w in params.weights]
        self.biases = [Var(b, requires_grad=trainable) for b in params.biases]

    @property
    def layer_sizes(self):
        return self.source.layer_sizes

    @property
    def n_layers(self):
        return len(self.weights)

    def leaves(self) -> list[Var]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


# -- forward evaluation -------------------------------------------------------


def mlp_forward(params: MlpParams, x: Array) -> Array:
    """Plain numpy forward pass; accepts (in,) or (batch, in)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.shape[1] != params.layer_sizes[0]:
        raise ValueError(
            f"input width {h.shape[1]} != expected {params.layer_sizes[0]}")
    last = params.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if i < last:
            h = np.tanh(h)
    return h[0] if single else h


@dataclass
class Jet2:
    """Value plus first/second directional derivatives of a network output
    w.r.t. tracked input coordinates (pure seconds only; no cross terms).

    Slots are numpy arrays or Vars; d1/d2 are keyed by tracked input index.
    A coordinate absent from d1/d2 has derivative identically zero.
    """

    value: object
    d1: dict = field(default_factory=dict)
    d2: dict = field(default_factory=dict)

    def tracked(self):
        return tuple(sorted(self.d1.keys()))


def jet_tanh(jet: Jet2) -> Jet2:
    y = tanh(jet.value)
    s = 1.0 - y * y
    d1 = {k: s * v for k, v in jet.d1.items()}
    d2 = {k: s * jet.d2[k] - 2.0 * y * s * jet.d1[k] * jet.d1[k]
          for k in jet.d2}
    return Jet2(y, d1, d2)


def jet_linear(jet: Jet2, w, b) -> Jet2:
    return Jet2(jet.value @ w + b,
                {k: v @ w for k, v in jet.d1.items()},
                {k: v @ w for k, v in jet.d2.items()})


def jet_mul(a: Jet2, b: Jet2) -> Jet2:
    """Elementwise product of two jets over the union of tracked coords."""
    keys1 = set(a.d1) | set(b.d1)
    d1 = {}
    for k in keys1:
        terms = []
        if k in a.d1:
            terms.append(a.d1[k] * b.value)
        if k in b.d1:
            terms.append(a.value * b.d1[k])
        d1[k] = terms[0] if len(terms) == 1 else terms[0] + terms[1]
    keys2 = set(a.d2) | set(b.d2)
    d2 = {}
    for k in keys2:
        acc = None
        if k in a.d2:
            acc = a.d2[k] * b.value
        if k in a.d1 and k in b.d1:
            t = 2.0 * a.d1[k] * b.d1[k]
            acc = t if acc is None else acc + t
        if k in b.d2:
            t = a.value * b.d2[k]
            acc = t if acc is None else acc + t
        d2[k] = acc
    return Jet2(a.value * b.value, d1, d2)


def mlp_forward_jet(net, x: Array, tracked=(), order: int = 2) -> Jet2:
    """Forward pass carrying jets w.r.t. `tracked` input indices.

    `tracked` is a tuple of input indices (all at `order`) or a mapping
    {index: order} for mixed orders, e.g. {0: 2, 1: 1} for a second spatial
    and first temporal derivative. `net` is either an MlpParams (pure numpy,
    no tape) or a TapeMlp (every operation recorded so parameter gradients
    of functions of any slot can be pulled back). Input is a constant (in,)
    or (batch, in) array.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    v = x[None, :] if single else x
    n_in = net.layer_sizes[0]
    if v.shape[1] != n_in:
        raise ValueError(f"input width {v.shape[1]} != expected {n_in}")
    orders = dict(tracked) if isinstance(tracked, dict) \
        else {k: order for k in tracked}
    if any(k < 0 or k >= n_in for k in orders):
        raise ValueError(f"tracked indices {tracked} outside input width {n_in}")
    if any(o not in (0, 1, 2) for o in orders.values()) \
            or order not in (0, 1, 2):
        raise ValueError("derivative order must be 0, 1 or 2")

    d1 = {}
    d2 = {}
    for k, k_order in orders.items():
        if k_order >= 1:
            seed = np.zeros((1, n_in))
            seed[0, k] = 1.0
            d1[k] = seed
        if k_order >= 2:
            d2[k] = np.zeros((1, n_in))
    jet = Jet2(v, d1, d2)

    last = net.n_layers - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        jet = jet_linear(jet, w, b)
        if i < last:
            jet = jet_tanh(jet)

    if single:
        squeeze = (lambda t: Var._node(t.data[0], ((t, lambda g: g[None, :]),))
                   if isinstance(t, Var) else t[0])
        jet = Jet2(squeeze(jet.value),
                   {k: squeeze(t) for k, t in jet.d1.items()},
                   {k: squeeze(t) for k, t in jet.d2.items()})
    return jet
