"""Independent re-implementations the tests check the package against:
a plain numpy MLP forward pass, the closed-form Jacobian of the tanh-jet
map, one decoder read out of a model's stacked decoder arrays, a CSV
reader for exported solutions, and design-space membership and
midpoint."""

import csv

import numpy as np

from cureonet.design import VARIABLE_NAMES, DesignPoint
from cureonet.solver import FieldSolution


def contains(space, d) -> bool:
    """Whether design `d` lies inside the box of `space`."""
    return all(space.ranges[n][0] <= getattr(d, n) <= space.ranges[n][1]
               for n in VARIABLE_NAMES)


def midpoint(space) -> DesignPoint:
    """The design at the centre of every range of `space`."""
    return DesignPoint.from_array(
        [0.5 * (space.ranges[n][0] + space.ranges[n][1])
         for n in VARIABLE_NAMES])


def mlp_forward(params, x):
    """Plain numpy forward pass of an MlpParams; accepts (in,) or
    (batch, in)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.shape[1] != params.layer_sizes[0]:
        raise ValueError(
            f"input width {h.shape[1]} != expected {params.layer_sizes[0]}")
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if i < last:
            h = np.tanh(h)
    return h[0] if single else h


def tanh_jet_jacobian(z, d1, d2):
    """Per-element Jacobian of tanh on jet slots, written from the
    pre-activations: slot 0 maps z -> y = tanh z, the slot of input k in d1
    maps z_k -> s z_k, and the slot of input k in d2 maps z_kk ->
    s z_kk - 2 y s z_k^2, with s = 1 - y^2. `z` stacks the slots on axis 0
    as a Jet2 does; returns J with J[a, b] = d out_a / d z_b, of shape
    (S, S) + z.shape[1:]."""
    z = np.asarray(z, dtype=np.float64)
    y = np.tanh(z[0])
    s = 1.0 - y ** 2
    ds = -2.0 * y * s                   # d s / d z
    dys = s * s + y * ds                # d (y s) / d z
    jac = np.zeros((len(z),) + z.shape)
    jac[0, 0] = s
    for i in range(1, 1 + len(d1)):
        jac[i, 0] = ds * z[i]
        jac[i, i] = s
    for j, k in enumerate(d2, 1 + len(d1)):
        i = 1 + list(d1).index(k)
        jac[j, 0] = ds * z[j] - 2.0 * dys * z[i] ** 2
        jac[j, i] = -4.0 * y * s * z[i]
        jac[j, j] = s
    return jac


def decoder(model, k):
    """Decoder k of a DeepONetModel as an MlpParams of views into `dec`."""
    return model.dec.map(lambda a: a[k])


def import_solution_csv(path, design) -> FieldSolution:
    """Rebuild a FieldSolution from `export_solution_csv`'s file."""
    times, tool_rows, part_rows, alpha_rows = [], {}, {}, {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != ["time_s", "x_local", "material", "T_C", "alpha"]:
            raise ValueError(f"unexpected solution CSV header in {path}")
        for row in reader:
            t, _x, mat, temp, al = row
            t = float(t)
            if t not in tool_rows:
                times.append(t)
                tool_rows[t], part_rows[t], alpha_rows[t] = [], [], []
            if mat == "tool":
                tool_rows[t].append(float(temp))
            else:
                part_rows[t].append(float(temp))
                alpha_rows[t].append(float(al))
    return FieldSolution(
        times=np.array(times),
        t_tool=np.array([tool_rows[t] for t in times]),
        t_part=np.array([part_rows[t] for t in times]),
        alpha=np.array([alpha_rows[t] for t in times]),
        design=design,
    )
