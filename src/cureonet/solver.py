"""Implicit finite-difference reference solver for the coupled tool/part
heat equations in local coordinates, with Robin boundaries, interface
continuity rows, and operator-split cure-kinetics integration.

Time stepping is Crank-Nicolson for conduction; the degree of cure advances
per step with one classical RK4 step using start-of-step temperature, and its
increment times the part's b_c is the heat source (always in full: the
training curriculum scales it in the loss only). Boundary and interface
conditions are enforced as algebraic rows (second-order one-sided stencils)
at the new time level. Without heat generation the scheme is second order in
space and time; with it, the lagged (Lie-type) coupling of kinetics and
conduction makes it first order in time.

`solve_batch`, the one entry point, marches designs in lockstep on
(designs, nodes) arrays: each design's conduction matrix is inverted once,
so a step is one batched matrix-vector product, and the kinetics run as one
RK4 over designs x nodes. One design is a batch of one. Every design starts
from process.T0 and process.ALPHA_INIT under its own cure-cycle air, unless
the `forcing` test seam (manufactured solutions) replaces them.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__ as code_version
from .design import VARIABLE_NAMES, DesignPoint
from .process import (ALPHA_EPS, ALPHA_INIT, T0, T_FLOOR_K,
                      CureKineticsParams, DomainError, MaterialSet,
                      air_temperature, atomic_write, celsius_to_kelvin,
                      cure_rate_law, write_json_atomic)

# the solver's numerical scheme, part of the reference cache's stamp: change
# it whenever a change to the scheme moves the solutions
SCHEME = "cn-lie-rk4x1"


class SolverError(RuntimeError):
    """Linear-system failure or non-finite state during time stepping."""


@dataclass(frozen=True)
class Grid1D:
    """Node counts on x1, x2 in [0,1], time step, and horizon (None: run to
    the end of the design's cure cycle)."""

    n_tool: int = 81
    n_part: int = 81
    dt: float = 1.0
    t_end: float | None = None

    def __post_init__(self):
        if self.n_tool < 3 or self.n_part < 3:
            raise ValueError("need at least 3 nodes per material")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end is not None and self.t_end <= 0:
            raise ValueError("t_end must be positive")


@dataclass
class FieldSolution:
    """Discretized T_tool(x1,t), T_part(x2,t), alpha(x2,t) for one design."""

    times: np.ndarray            # (nt,)
    t_tool: np.ndarray           # (nt, n_tool), degC
    t_part: np.ndarray           # (nt, n_part), degC
    alpha: np.ndarray            # (nt, n_part)
    design: DesignPoint
    meta: dict = field(default_factory=dict)

    @property
    def x_tool(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.t_tool.shape[1])

    @property
    def x_part(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.t_part.shape[1])


def solve_batch(designs, props: MaterialSet, grid: Grid1D, *,
                cooldown: bool = False, forcing=None,
                store_every: int = 1) -> list[FieldSolution]:
    """March several designs in lockstep on (designs, nodes) arrays and
    return one FieldSolution per design, in order.

    Each design's solution ends at its own t_end (the grid's, or the end of
    its own cure cycle): every design marches to the batch's last step, but
    stores no step past its own end, so its solution matches, to rounding,
    the one it gets in a batch of one. The solutions' fields are views into
    one padded array per field.
    Each solution's `meta` holds its `grid`, `steps` and stored alpha
    range, and the batch's `wall_s`, `factor_s` (time spent building the
    conduction factors) and `kinetics_s` (time spent advancing the degree
    of cure).
    `forcing`, the test seam for manufactured solutions, applies to every
    design: `forcing.initial(x1, x2)` gives (t_tool0, t_part0) in place of
    T0, `forcing.air(t)` the air at the step times t in place of each
    cycle's, and `forcing.rhs(x1, x2, t_new, t_mid, dt)` an (n_tool +
    n_part,) vector added to that step's right-hand side.
    """
    if store_every < 1:
        raise ValueError("store_every must be >= 1")
    designs = list(designs)
    if not designs:
        raise ValueError("need at least one design")
    n_designs = len(designs)
    wall_start = time.perf_counter()
    dt = grid.dt
    n1, n2 = grid.n_tool, grid.n_part
    n = n1 + n2
    h1 = 1.0 / (n1 - 1)
    h2 = 1.0 / (n2 - 1)
    x1 = np.linspace(0.0, 1.0, n1)
    x2 = np.linspace(0.0, 1.0, n2)

    cycles = [d.cycle(cooldown=cooldown) for d in designs]
    n_steps = np.array([
        max(1, int(round((grid.t_end if grid.t_end is not None
                          else c.duration_s) / dt))) for c in cycles])
    n_max = int(n_steps.max())

    tool, part = props.tool, props.part
    l_tool = np.array([d.l_tool for d in designs])
    l_part = np.array([d.l_part for d in designs])
    r_t = tool.diffusivity / l_tool ** 2 * dt / (2.0 * h1 * h1)
    r_c = part.diffusivity / l_part ** 2 * dt / (2.0 * h2 * h2)
    beta_bot = np.array([d.h_bot for d in designs]) * l_tool / tool.k
    beta_top = np.array([d.h_top for d in designs]) * l_part / part.k

    factor_start = time.perf_counter()
    inv = np.empty((n_designs, n, n))
    for b in range(n_designs):
        a = _conduction_matrix(n1, n2, r_t[b], r_c[b], beta_bot[b],
                               beta_top[b], tool.k / l_tool[b],
                               part.k / l_part[b])
        try:
            inv[b] = np.linalg.inv(a)
        except np.linalg.LinAlgError as err:
            raise SolverError(
                f"design {b}: singular conduction system: {err}") from None
        if not np.all(np.isfinite(inv[b])):
            raise SolverError(f"design {b}: non-finite conduction system")
    factor_s = time.perf_counter() - factor_start

    # per design: the air at each step's new time level, and the start state
    levels = dt * np.arange(1, n_max + 1)
    air = np.empty((n_designs, n_max))
    u = np.full((n_designs, n), T0, dtype=np.float64)
    if forcing is None:
        for b, cycle in enumerate(cycles):
            air[b] = air_temperature(cycle, levels)
    else:
        air[:] = forcing.air(levels)
        u[:, :n1], u[:, n1:] = forcing.initial(x1, x2)
    alpha = np.full((n_designs, n2), ALPHA_INIT, dtype=np.float64)

    # one padded (designs, rows, nodes) array per field, written row by
    # row; a step's row is ceil(step / store_every), so a last step off the
    # stride gets one, and design b's solution is its first n_rows[b] rows
    n_rows = 1 + -(-n_steps // store_every)
    times_out = np.zeros((n_designs, n_rows.max()))
    tool_out, part_out, alpha_out = (np.empty((n_designs, n_rows.max(), m))
                                     for m in (n1, n2, n2))
    tool_out[:, 0], part_out[:, 0] = u[:, :n1], u[:, n1:]
    alpha_out[:, 0] = alpha

    gen = part.heat_gen_coeff
    r_t, r_c = r_t[:, None], r_c[:, None]
    keep_t, keep_c = 1.0 - 2.0 * r_t, 1.0 - 2.0 * r_c
    rhs = np.zeros((n_designs, n))
    kinetics_s = 0.0
    for step in range(1, n_max + 1):
        t_new = step * dt
        kinetics_start = time.perf_counter()
        alpha_new = _advance_alpha(alpha, u[:, n1:], props.kinetics, dt)
        kinetics_s += time.perf_counter() - kinetics_start
        ta_new = air[:, step - 1]
        rhs[:, 0] = -beta_bot * ta_new
        rhs[:, 1:n1 - 1] = (r_t * (u[:, 0:n1 - 2] + u[:, 2:n1])
                            + keep_t * u[:, 1:n1 - 1])
        rhs[:, n1 + 1:n - 1] = (r_c * (u[:, n1:n - 2] + u[:, n1 + 2:n])
                                + keep_c * u[:, n1 + 1:n - 1]
                                + gen * (alpha_new - alpha)[:, 1:-1])
        rhs[:, n - 1] = beta_top * ta_new
        # the interface rows of `rhs` stay 0; forcing adds to a copy
        rhs_step = rhs if forcing is None else rhs + forcing.rhs(
            x1, x2, t_new, (step - 1) * dt + 0.5 * dt, dt)

        u = np.matmul(inv, rhs_step[:, :, None])[:, :, 0]
        alpha = alpha_new
        # a design past its own t_end marches on but stores nothing more
        store = ((step % store_every == 0) & (step <= n_steps)) \
            | (step == n_steps)
        finite = np.isfinite(u).all(axis=1) | (step > n_steps)
        if not finite.all():
            raise SolverError(f"design {np.argmin(finite)}: non-finite "
                              f"temperature at t = {t_new:.1f}s")
        row = -(-step // store_every)
        times_out[store, row] = t_new
        tool_out[store, row] = u[store, :n1]
        part_out[store, row] = u[store, n1:]
        alpha_out[store, row] = alpha[store]

    wall_s = time.perf_counter() - wall_start
    base_meta = {"wall_s": wall_s, "factor_s": factor_s,
                 "kinetics_s": kinetics_s}
    return [
        FieldSolution(
            times=times_out[b, :r], t_tool=tool_out[b, :r],
            t_part=part_out[b, :r], alpha=alpha_out[b, :r], design=design,
            meta={**base_meta,
                  "grid": {"n_tool": n1, "n_part": n2, "dt": dt,
                           "t_end": int(n_steps[b]) * dt},
                  "steps": int(n_steps[b]),
                  "alpha_min": float(alpha_out[b, :r].min()),
                  "alpha_max": float(alpha_out[b, :r].max())})
        for b, (design, r) in enumerate(zip(designs, n_rows))]


def _conduction_matrix(n1, n2, r_t, r_c, beta_bot, beta_top, kt_l, kc_l):
    """Dense new-time-level matrix of one design: Robin rows at both ends,
    Crank-Nicolson interior rows, and the interface value and flux rows
    (one-sided, second-order stencils)."""
    n = n1 + n2
    h1 = 1.0 / (n1 - 1)
    h2 = 1.0 / (n2 - 1)
    a = np.zeros((n, n))
    a[0, 0:3] = (-3.0 / (2 * h1) - beta_bot, 4.0 / (2 * h1),
                 -1.0 / (2 * h1))
    for lo, hi, r in ((1, n1 - 1, r_t), (n1 + 1, n - 1, r_c)):
        i = np.arange(lo, hi)
        a[i, i - 1] = -r
        a[i, i] = 1.0 + 2.0 * r
        a[i, i + 1] = -r
    a[n1 - 1, n1 - 1:n1 + 1] = (1.0, -1.0)
    a[n1, n1 - 3:n1 + 3] = (kt_l * 1.0 / (2 * h1), kt_l * -4.0 / (2 * h1),
                            kt_l * 3.0 / (2 * h1), kc_l * 3.0 / (2 * h2),
                            kc_l * -4.0 / (2 * h2), kc_l * 1.0 / (2 * h2))
    a[n - 1, n - 3:n] = (1.0 / (2 * h2), -4.0 / (2 * h2),
                         3.0 / (2 * h2) + beta_top)
    return a


def _advance_alpha(alpha, t_part_c, p: CureKineticsParams, dt):
    """One classical RK4 step of the cure ODE with temperature frozen at the
    start of the conduction step, so the Arrhenius factor and the critical
    degree of cure are computed once per step. Each stage rate is the guarded
    `cure_rate` (the same ALPHA_EPS and T_FLOOR_K clamps, the same
    `cure_rate_law`). Monotone: every stage rate is nonnegative."""
    law = cure_rate_law(np.maximum(celsius_to_kelvin(t_part_c), T_FLOOR_K), p)

    def rate(a):
        return law(np.minimum(np.maximum(a, ALPHA_EPS), 1.0 - ALPHA_EPS))

    k1 = rate(alpha)
    k2 = rate(alpha + 0.5 * dt * k1)
    k3 = rate(alpha + 0.5 * dt * k2)
    k4 = rate(alpha + dt * k3)
    return np.minimum(alpha + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), 1.0)


def exotherm(sol: FieldSolution):
    """Maximum part temperature with its time and local coordinate. Ties go
    to the earliest time, then the smallest coordinate."""
    if sol.t_part.size == 0:
        raise ValueError("empty solution")
    flat = int(np.argmax(sol.t_part))
    i, j = divmod(flat, sol.t_part.shape[1])
    return float(sol.t_part[i, j]), float(sol.times[i]), float(sol.x_part[j])


_FIELDS = {"tool_temperature": "t_tool", "part_temperature": "t_part",
           "alpha": "alpha"}


def probe(sol: FieldSolution, x, t, field_name: str):
    """Bilinear interpolation of a stored field at local coordinate(s) x and
    time(s) t, broadcast against each other. Scalars give a float; arrays
    give an array of the broadcast shape."""
    if field_name not in _FIELDS:
        raise ValueError(f"unknown field {field_name!r}")
    data = getattr(sol, _FIELDS[field_name])
    xs = sol.x_tool if field_name == "tool_temperature" else sol.x_part
    x, t = np.broadcast_arrays(np.asarray(x, dtype=np.float64),
                               np.asarray(t, dtype=np.float64))
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise DomainError("probe coordinate outside [0, 1]")
    if not np.all((t >= sol.times[0]) & (t <= sol.times[-1])):
        raise DomainError("probe time outside stored range")

    j = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    wx = (x - xs[j]) / (xs[j + 1] - xs[j])
    i = np.clip(np.searchsorted(sol.times, t, side="right") - 1,
                0, len(sol.times) - 2)
    wt = (t - sol.times[i]) / (sol.times[i + 1] - sol.times[i])
    lo = data[i, j] * (1.0 - wx) + data[i, j + 1] * wx
    hi = data[i + 1, j] * (1.0 - wx) + data[i + 1, j + 1] * wx
    out = lo * (1.0 - wt) + hi * wt
    return float(out) if out.ndim == 0 else out


# -- persistence --------------------------------------------------------------


def export_solution_csv(sol: FieldSolution, path) -> None:
    """Rows: (time_s, x_local, material, T_C, alpha); alpha blank for tool."""
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["time_s", "x_local", "material", "T_C", "alpha"])
        x1, x2 = sol.x_tool, sol.x_part
        for i, t in enumerate(sol.times):
            for j, x in enumerate(x1):
                writer.writerow([repr(float(t)), repr(float(x)), "tool",
                                 repr(float(sol.t_tool[i, j])), ""])
            for j, x in enumerate(x2):
                writer.writerow([repr(float(t)), repr(float(x)), "part",
                                 repr(float(sol.t_part[i, j])),
                                 repr(float(sol.alpha[i, j]))])


# run statistics `solve_batch` puts into FieldSolution.meta
SOLVER_STATS = ("steps", "wall_s", "factor_s", "kinetics_s", "alpha_min",
                "alpha_max")


def run_manifest(sol: FieldSolution, props: MaterialSet) -> dict:
    return {
        "design": {k: float(v) for k, v in
                   zip(VARIABLE_NAMES, sol.design.as_array())},
        "grid": sol.meta.get("grid", {}),
        "solver": {k: sol.meta[k] for k in SOLVER_STATS if k in sol.meta},
        "property_hash": props.content_hash(),
        "property_source": props.source,
        "code_version": code_version,
    }


def write_manifest(sol: FieldSolution, props: MaterialSet, path) -> None:
    write_json_atomic(path, run_manifest(sol, props))
