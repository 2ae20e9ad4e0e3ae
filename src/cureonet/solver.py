"""Implicit finite-difference reference solver for the coupled tool/part
heat equations in local coordinates, with Robin boundaries, interface
continuity rows, and operator-split cure-kinetics integration.

Time stepping is Crank-Nicolson for conduction; the degree of cure advances
per step with a sub-stepped RK4 using start-of-step temperature, and its
increment feeds the part's heat-generation source. Boundary and interface
conditions are enforced as algebraic rows (second-order one-sided stencils)
at the new time level, which keeps the scheme second order in space and time.

`solve_batch`, the one entry point, marches designs in lockstep on
(designs, nodes) arrays: each design's conduction matrix is inverted once,
so a step is one batched matrix-vector product, and the kinetics run as one
RK4 over designs x nodes. One design is a batch of one. Every design starts
from process.T0 and process.ALPHA_INIT.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__ as code_version
from .design import DesignPoint
from .process import (ALPHA_EPS, ALPHA_INIT, T0, T_FLOOR_K,
                      CureKineticsParams, DomainError, MaterialSet,
                      air_temperature, atomic_write, celsius_to_kelvin,
                      cure_rate_law, write_json_atomic)

KINETICS_SUBSTEPS = 4  # RK4 sub-steps of the cure ODE per conduction step


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
class MmsForcing:
    """Manufactured-solution hooks: volumetric sources (degC/s), boundary and
    interface inhomogeneities, and initial fields. Test scaffolding only."""

    source_tool: object = None    # f(x1_array, t) -> degC/s
    source_part: object = None    # f(x2_array, t) -> degC/s
    g_bot: object = None          # f(t) -> residual target at tool bottom
    g_top: object = None
    g_val: object = None
    g_flux: object = None
    ic_tool: object = None        # f(x1_array) -> degC
    ic_part: object = None


@dataclass
class FieldSolution:
    """Discretized T_tool(x1,t), T_part(x2,t), alpha(x2,t) for one design."""

    times: np.ndarray            # (nt,)
    t_tool: np.ndarray           # (nt, n_tool), degC
    t_part: np.ndarray           # (nt, n_part), degC
    alpha: np.ndarray            # (nt, n_part)
    design: DesignPoint
    bc_scale: float = 1.0
    meta: dict = field(default_factory=dict)

    @property
    def x_tool(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.t_tool.shape[1])

    @property
    def x_part(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.t_part.shape[1])


def solve_batch(designs, props: MaterialSet, grid: Grid1D, *,
                bc_scale: float = 1.0, cooldown: bool = False,
                forcing: MmsForcing | None = None,
                air_override=None,
                store_every: int = 1) -> list[FieldSolution]:
    """March several designs in lockstep on (designs, nodes) arrays and
    return one FieldSolution per design, in order.

    Each design runs to its own t_end (the grid's, or the end of its own
    cure cycle); once there, its state is frozen and it stops storing, so
    its solution matches, to rounding, the one it gets in a batch of one.
    `forcing` and `air_override` (an f(t) -> degC replacing the cure-cycle
    air profile) apply to every design. Each solution's `meta` holds its
    `steps` and stored alpha range, and the batch's `wall_s` and
    `factor_s` (time spent building the conduction factors).
    """
    if not 0.0 <= bc_scale <= 1.0:
        raise DomainError("bc_scale must lie in [0, 1]")
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

    # air temperature at every step's new time level, per design
    air = np.empty((n_designs, n_max))
    if air_override is not None:
        air[:] = [air_override(step * dt) for step in range(1, n_max + 1)]
    else:
        for b, cycle in enumerate(cycles):
            air[b] = air_temperature(cycle, dt * np.arange(1, n_max + 1))

    fz = forcing or MmsForcing()
    u = np.full((n_designs, n), T0, dtype=np.float64)
    if fz.ic_tool is not None:
        u[:, :n1] = fz.ic_tool(x1)
    if fz.ic_part is not None:
        u[:, n1:] = fz.ic_part(x2)
    alpha = np.full((n_designs, n2), ALPHA_INIT, dtype=np.float64)

    # one output array per design and field, written row by row; a step's
    # row is ceil(step / store_every), so a last step off the stride gets one
    n_rows = 1 + -(-n_steps // store_every)
    times_out = [np.zeros(r) for r in n_rows]
    tool_out = [np.empty((r, n1)) for r in n_rows]
    part_out = [np.empty((r, n2)) for r in n_rows]
    alpha_out = [np.empty((r, n2)) for r in n_rows]
    for b in range(n_designs):
        tool_out[b][0] = u[b, :n1]
        part_out[b][0] = u[b, n1:]
        alpha_out[b][0] = alpha[b]

    gen = bc_scale * part.heat_gen_coeff
    active = np.arange(n_designs)
    r_t, r_c = r_t[:, None], r_c[:, None]
    keep_t, keep_c = 1.0 - 2.0 * r_t, 1.0 - 2.0 * r_c
    rhs = np.zeros((n_designs, n))
    for step in range(1, n_max + 1):
        t_new = step * dt
        alpha_new = _advance_alpha(alpha, u[:, n1:], props.kinetics, dt,
                                   KINETICS_SUBSTEPS)
        ta_new = air[:, step - 1]
        rhs[:, 0] = -beta_bot * ta_new
        rhs[:, 1:n1 - 1] = (r_t * (u[:, 0:n1 - 2] + u[:, 2:n1])
                            + keep_t * u[:, 1:n1 - 1])
        rhs[:, n1 + 1:n - 1] = (r_c * (u[:, n1:n - 2] + u[:, n1 + 2:n])
                                + keep_c * u[:, n1 + 1:n - 1]
                                + gen * (alpha_new - alpha)[:, 1:-1])
        rhs[:, n - 1] = beta_top * ta_new
        if forcing is not None:
            _add_forcing(rhs, fz, n1, x1, x2, t_new,
                         (step - 1) * dt + 0.5 * dt, dt)

        u = np.matmul(inv, rhs[:, :, None])[:, :, 0]
        alpha = alpha_new
        if not np.isfinite(u).all():
            bad = active[np.argmin(np.isfinite(u).all(axis=1))]
            raise SolverError(
                f"design {bad}: non-finite temperature at t = {t_new:.1f}s")

        row = -(-step // store_every)
        stored = step % store_every == 0
        for k, b in enumerate(active):
            if stored or step == n_steps[b]:
                times_out[b][row] = t_new
                tool_out[b][row] = u[k, :n1]
                part_out[b][row] = u[k, n1:]
                alpha_out[b][row] = alpha[k]

        # designs that reached their own t_end leave the batch
        running = n_steps[active] > step
        if not running.all():
            (active, u, alpha, inv, air, rhs, r_t, r_c, keep_t, keep_c,
             beta_bot, beta_top) = (
                x[running] for x in (active, u, alpha, inv, air, rhs, r_t,
                                     r_c, keep_t, keep_c, beta_bot, beta_top))

    wall_s = time.perf_counter() - wall_start
    base_meta = {"property_hash": props.content_hash(),
                 "code_version": code_version, "cooldown": cooldown,
                 "wall_s": wall_s, "factor_s": factor_s}
    return [
        FieldSolution(
            times=times_out[b], t_tool=tool_out[b], t_part=part_out[b],
            alpha=alpha_out[b], design=design, bc_scale=bc_scale,
            meta={**base_meta,
                  "grid": {"n_tool": n1, "n_part": n2, "dt": dt,
                           "t_end": int(n_steps[b]) * dt},
                  "steps": int(n_steps[b]),
                  "alpha_min": float(alpha_out[b].min()),
                  "alpha_max": float(alpha_out[b].max())})
        for b, design in enumerate(designs)]


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


def _add_forcing(rhs, fz: MmsForcing, n1, x1, x2, t_new, t_mid, dt):
    """Add the manufactured-solution sources and inhomogeneities to every
    design's right-hand side."""
    n = rhs.shape[1]
    if fz.g_bot is not None:
        rhs[:, 0] += fz.g_bot(t_new)
    if fz.source_tool is not None:
        rhs[:, 1:n1 - 1] += dt * fz.source_tool(x1[1:-1], t_mid)
    if fz.g_val is not None:
        rhs[:, n1 - 1] = fz.g_val(t_new)
    if fz.g_flux is not None:
        rhs[:, n1] = fz.g_flux(t_new)
    if fz.source_part is not None:
        rhs[:, n1 + 1:n - 1] += dt * fz.source_part(x2[1:-1], t_mid)
    if fz.g_top is not None:
        rhs[:, n - 1] += fz.g_top(t_new)


def _advance_alpha(alpha, t_part_c, p: CureKineticsParams, dt, substeps):
    """Sub-stepped RK4 on the cure ODE with temperature frozen at the start
    of the conduction step, so the Arrhenius factor and the critical degree
    of cure are computed once per step. Each stage rate is the guarded
    `cure_rate` (the same ALPHA_EPS and T_FLOOR_K clamps, the same
    `cure_rate_law`). Monotone: every stage rate is nonnegative."""
    law = cure_rate_law(np.maximum(celsius_to_kelvin(t_part_c), T_FLOOR_K), p)

    def rate(a):
        return law(np.minimum(np.maximum(a, ALPHA_EPS), 1.0 - ALPHA_EPS))

    a = alpha
    h = dt / substeps
    for _ in range(substeps):
        k1 = rate(a)
        k2 = rate(a + 0.5 * h * k1)
        k3 = rate(a + 0.5 * h * k2)
        k4 = rate(a + h * k3)
        a = np.minimum(a + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), 1.0)
    return a


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
SOLVER_STATS = ("steps", "wall_s", "factor_s", "alpha_min", "alpha_max")


def run_manifest(sol: FieldSolution, props: MaterialSet) -> dict:
    return {
        "design": {k: float(v) for k, v in
                   zip(("h_top", "h_bot", "r1", "ht1", "hd1", "r2", "ht2",
                        "hd2", "l_tool", "l_part"), sol.design.as_array())},
        "grid": sol.meta.get("grid", {}),
        "solver": {k: sol.meta[k] for k in SOLVER_STATS if k in sol.meta},
        "bc_scale": sol.bc_scale,
        "property_hash": props.content_hash(),
        "property_source": props.source,
        "code_version": code_version,
    }


def write_manifest(sol: FieldSolution, props: MaterialSet, path) -> None:
    write_json_atomic(path, run_manifest(sol, props))
