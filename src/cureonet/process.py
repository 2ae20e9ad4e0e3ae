"""Thermochemical process model: resin cure kinetics, material properties,
two-hold cure-cycle air profile, and the PDE/BC/interface residual functions
in per-material local coordinates (x1, x2 in [0,1]).

Unit discipline: kinetics run in kelvin, everything user-facing is in
Celsius; the conversion lives here. Residual functions are generic over
plain numpy values and tape Vars (see autodiff). They read a Jet2 only as
`jet.value`, `jet.d1[k]` and `jet.d2[k]`, with input index k = 0 for the
local spatial coordinate and k = 1 for physical time in seconds.

The residuals only compute: they take thicknesses, HTCs and conductivities
as already checked, by `DesignPoint` and `MaterialProps` where those are
built.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .autodiff import Jet2, clip, exp

KELVIN_OFFSET = 273.15
T0 = 20.0          # start temperature of every run (tool, part, air), degC
ALPHA_INIT = 0.05  # start degree of cure of every run
ALPHA_EPS = 1e-9  # guard for fractional powers near alpha = 0 or 1
T_FLOOR_K = 180.0  # kinetics temperature floor, K
PROPERTY_SCHEMA_VERSION = 1


class DomainError(ValueError):
    """Input outside the physical domain of an operation."""


def celsius_to_kelvin(t_c):
    return t_c + KELVIN_OFFSET


# -- kinetics and materials ----------------------------------------------------


@dataclass(frozen=True)
class CureKineticsParams:
    """Constants of the autocatalytic cure-rate law with diffusion limiting."""

    delta_e: float = 66.5e3       # activation energy, J/gmol
    gas_constant: float = 8.314
    pre_exp: float = 1.53e5       # pre-exponential coefficient, 1/s
    m: float = 0.813
    n: float = 2.74
    diff_c: float = 43.1          # diffusion constant
    alpha_c0: float = -1.684      # critical degree of cure at 0 K
    alpha_ct: float = 5.475e-3    # critical degree-of-cure slope, 1/K

    def __post_init__(self):
        if self.pre_exp <= 0 or self.m <= 0 or self.n <= 0:
            raise ValueError("kinetics constants A, m, n must be positive")
        if abs(self.gas_constant - 8.314) > 1e-9:
            raise ValueError("gas constant must be 8.314")


@dataclass(frozen=True)
class MaterialProps:
    """Thermal properties of one material; resin fields only for composites."""

    k: float                 # conductivity, W/m.K
    rho: float               # density, kg/m^3
    cp: float                # specific heat, J/kg.K
    v_r: float = 0.0         # resin volume fraction
    rho_r: float = 0.0       # resin density, kg/m^3
    h_r: float = 0.0         # heat of reaction, J/kg
    name: str = ""

    def __post_init__(self):
        if self.k <= 0 or self.rho <= 0 or self.cp <= 0:
            raise ValueError(f"non-positive thermal property in {self.name!r}")
        if self.v_r < 0 or self.rho_r < 0 or self.h_r < 0:
            raise ValueError(f"negative resin property in {self.name!r}")

    @property
    def diffusivity(self) -> float:
        """a = k / (rho * cp), m^2/s."""
        return self.k / (self.rho * self.cp)

    @property
    def heat_gen_coeff(self) -> float:
        """b = v_r * rho_r * h_r / (rho * cp), kelvin of adiabatic rise."""
        return self.v_r * self.rho_r * self.h_r / (self.rho * self.cp)


@dataclass(frozen=True)
class MaterialSet:
    """Tool + part properties and the kinetics constants, as loaded from a
    property file."""

    tool: MaterialProps
    part: MaterialProps
    kinetics: CureKineticsParams
    schema_version: int = PROPERTY_SCHEMA_VERSION
    source: str = "builtin"

    def content_hash(self) -> str:
        payload = json.dumps({
            "schema_version": self.schema_version,
            "tool": [self.tool.k, self.tool.rho, self.tool.cp],
            "part": [self.part.k, self.part.rho, self.part.cp,
                     self.part.v_r, self.part.rho_r, self.part.h_r],
            "kinetics": [self.kinetics.delta_e, self.kinetics.pre_exp,
                         self.kinetics.m, self.kinetics.n, self.kinetics.diff_c,
                         self.kinetics.alpha_c0, self.kinetics.alpha_ct],
        }, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _material_from_dict(d: dict, name: str) -> MaterialProps:
    return MaterialProps(
        k=float(d["k_w_per_m_k"]),
        rho=float(d["rho_kg_per_m3"]),
        cp=float(d["cp_j_per_kg_k"]),
        v_r=float(d.get("v_r", 0.0)),
        rho_r=float(d.get("rho_r_kg_per_m3", 0.0)),
        h_r=float(d.get("h_r_j_per_kg", 0.0)),
        name=d.get("name", name),
    )


def load_material_set(path=None) -> MaterialSet:
    """Read a property file (JSON, explicit units in key names). With no
    path, loads the packaged default file."""
    if path is None:
        text = resources.files("cureonet.data").joinpath(
            "materials_default.json").read_text()
        source = "builtin"
    else:
        with open(path) as f:
            text = f.read()
        source = str(path)
    raw = json.loads(text)
    version = int(raw.get("schema_version", -1))
    if version != PROPERTY_SCHEMA_VERSION:
        raise ValueError(
            f"property file schema_version {version} != "
            f"supported {PROPERTY_SCHEMA_VERSION}")
    kin = raw["kinetics"]
    kinetics = CureKineticsParams(
        delta_e=float(kin["delta_e_j_per_gmol"]),
        gas_constant=float(kin["gas_constant_j_per_gmol_k"]),
        pre_exp=float(kin["pre_exp_per_s"]),
        m=float(kin["m"]),
        n=float(kin["n"]),
        diff_c=float(kin["diffusion_c"]),
        alpha_c0=float(kin["critical_doc_at_0k"]),
        alpha_ct=float(kin["critical_doc_slope_per_k"]),
    )
    return MaterialSet(
        tool=_material_from_dict(raw["tool"], "tool"),
        part=_material_from_dict(raw["part"], "part"),
        kinetics=kinetics,
        schema_version=version,
        source=source,
    )


# -- files -------------------------------------------------------------------


@contextmanager
def atomic_write(path, mode="w", **open_kw):
    """Open a temp file in `path`'s directory for the block to write, then
    rename it over `path`: a reader sees the old file or the whole new one.
    If the block raises, the temp file is removed and `path` is untouched.
    Every file the package writes goes through here."""
    directory, name = os.path.split(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    # exclusive creation: a new file, with the permissions a plain open gives
    f = open(tmp, mode.replace("w", "x"), **open_kw)
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def savez_atomic(path, **arrays) -> None:
    """`np.savez` through `atomic_write`."""
    with atomic_write(path, "wb") as f:
        np.savez(f, **arrays)


def write_json_atomic(path, obj) -> None:
    """Indented, key-sorted JSON with a final newline, through
    `atomic_write`."""
    with atomic_write(path) as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


# -- cure kinetics ---------------------------------------------------------


def cure_rate(alpha, t_kelvin, p: CureKineticsParams):
    """Cure rate dalpha/dt in 1/s at degree of cure `alpha` and absolute
    temperature `t_kelvin`, for scalars, numpy arrays or tape Vars.

    alpha is clamped to [ALPHA_EPS, 1-ALPHA_EPS] so that the fractional
    powers stay defined for out-of-range iterates, and temperature is
    floored at T_FLOOR_K (network predictions roam before convergence); the
    unclamped law is `cure_rate_law`.
    """
    alpha = clip(alpha, ALPHA_EPS, 1.0 - ALPHA_EPS)
    t_kelvin = clip(t_kelvin, T_FLOOR_K, None)
    return cure_rate_law(t_kelvin, p)(alpha)


def cure_rate_law(t_kelvin, p: CureKineticsParams):
    """The unguarded cure rate dalpha/dt (1/s) at absolute temperature
    `t_kelvin` as a function of alpha, with the Arrhenius factor and the
    critical degree of cure computed once. Generic over numpy and Vars."""
    arrhenius = p.pre_exp * exp(-p.delta_e / (p.gas_constant * t_kelvin))
    alpha_crit = p.alpha_c0 + p.alpha_ct * t_kelvin

    def rate(alpha):
        diffusion = 1.0 + exp(p.diff_c * (alpha - alpha_crit))
        return arrhenius / diffusion * alpha ** p.m * (1.0 - alpha) ** p.n

    return rate


# -- cure cycle --------------------------------------------------------------


@dataclass(frozen=True)
class CureCycleSpec:
    """Two-hold cure cycle: ramp r1 to ht1, hold hd1, ramp r2 to ht2, hold
    hd2; optional cool-down back to t0 at rate r2 (off by default)."""

    r1: float      # degC/min
    r2: float      # degC/min
    ht1: float     # degC
    ht2: float     # degC
    hd1: float     # min
    hd2: float     # min
    t0: float = T0
    cooldown: bool = False

    def __post_init__(self):
        if not (self.ht2 > self.ht1 > self.t0):
            raise ValueError("hold temperatures must satisfy ht2 > ht1 > t0")
        if min(self.r1, self.r2, self.hd1, self.hd2) <= 0:
            raise ValueError("ramp rates and hold durations must be positive")

    def segment_times(self) -> list[float]:
        """Cumulative segment end times in seconds."""
        t1 = (self.ht1 - self.t0) / self.r1 * 60.0
        t2 = t1 + self.hd1 * 60.0
        t3 = t2 + (self.ht2 - self.ht1) / self.r2 * 60.0
        t4 = t3 + self.hd2 * 60.0
        out = [t1, t2, t3, t4]
        if self.cooldown:
            out.append(t4 + (self.ht2 - self.t0) / self.r2 * 60.0)
        return out

    @property
    def duration_s(self) -> float:
        return self.segment_times()[-1]


def air_temperature(cycle: CureCycleSpec, t):
    """Autoclave air temperature in degC at time t (seconds, scalar or
    array). Piecewise linear and continuous; t past the cycle end holds the
    final segment value."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0):
        raise DomainError("time must be nonnegative")
    seg = cycle.segment_times()
    r1_s = cycle.r1 / 60.0
    r2_s = cycle.r2 / 60.0
    out = np.where(
        t < seg[0], cycle.t0 + r1_s * t,
        np.where(
            t < seg[1], cycle.ht1,
            np.where(
                t < seg[2], cycle.ht1 + r2_s * (t - seg[1]),
                cycle.ht2)))
    if cycle.cooldown:
        out = np.where(t >= seg[3],
                       np.maximum(cycle.ht2 - r2_s * (t - seg[3]), cycle.t0),
                       out)
    return out if out.ndim else float(out)


# -- residual functions ------------------------------------------------------
#
# Jet convention: d1/d2 input 0 = local spatial coordinate of the jet's
# material, input 1 = physical time in seconds. All residuals vanish
# identically on exact solutions of the governing equations, the part's
# conduction residual once losses.loss_pde_part subtracts its heat source.


def pde_residual(jet: Jet2, props: MaterialProps, thickness):
    """Conduction residual dT/dt - (a / L^2) d2T/dx^2 of one material, with
    no source term. Thickness may be an array for batched multi-design
    evaluation."""
    coeff = props.diffusivity / thickness ** 2
    return jet.d1[1] - coeff * jet.d2[0]


def bc_residuals(top_jet: Jet2, bot_jet: Jet2, t_air,
                 part: MaterialProps, tool: MaterialProps,
                 h_top, h_bot, l_part, l_tool):
    """Robin boundary residuals at the part top (x2=1) and tool bottom (x1=0).

    top  = dT_c/dx2|1 - (h_top L_c / k_c) (Ta - T_c|1)
    bottom = dT_t/dx1|0 - (h_bot L_t / k_t) (T_t|0 - Ta)

    h_top/h_bot and thicknesses may be arrays for batched evaluation. A zero
    HTC is the insulated limit.
    """
    top = top_jet.d1[0] - (h_top * l_part / part.k) * (t_air - top_jet.value)
    bottom = bot_jet.d1[0] - (h_bot * l_tool / tool.k) \
        * (bot_jet.value - t_air)
    return top, bottom


def continuity_residuals(tool_jet: Jet2, part_jet: Jet2,
                         tool: MaterialProps, part: MaterialProps,
                         l_tool, l_part):
    """Interface continuity residuals between tool (x1=1) and part (x2=0):
    value jump and conductive flux jump (k/L scaling from local coords)."""
    value_residual = tool_jet.value - part_jet.value
    flux_residual = (tool.k / l_tool) * tool_jet.d1[0] \
        - (part.k / l_part) * part_jet.d1[0]
    return value_residual, flux_residual
