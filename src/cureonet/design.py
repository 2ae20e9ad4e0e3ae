"""Design space for the curing scenarios: the ten design variables, their
published ranges at three space sizes, uniform sampling, and encoding of a
batch of designs into the two branch-net input matrices, one row per
design."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .process import (T0, CureCycleSpec, DomainError, air_temperature,
                      atomic_write)

N_SENSORS = 100          # air-profile samples fed to the cycle branch net
SCALAR_NAMES = ("h_top", "h_bot", "l_tool", "l_part")  # scalar branch input
T_REF_HEADROOM = 50.0    # degC above the space's max hold-2 temperature

VARIABLE_NAMES = ("h_top", "h_bot", "r1", "ht1", "hd1",
                  "r2", "ht2", "hd2", "l_tool", "l_part")


@dataclass(frozen=True)
class DesignPoint:
    """One curing scenario: HTCs (W/m^2.K), ramp rates (degC/min), hold
    temperatures (degC), hold durations (min), thicknesses (m). HTCs and
    thicknesses are checked here, once (a zero HTC is the insulated limit);
    the cycle fields by the CureCycleSpec that `cycle` builds."""

    h_top: float
    h_bot: float
    r1: float
    ht1: float
    hd1: float
    r2: float
    ht2: float
    hd2: float
    l_tool: float
    l_part: float

    def __post_init__(self):
        if self.h_top < 0 or self.h_bot < 0:
            raise DomainError("HTCs must be non-negative")
        if self.l_tool <= 0 or self.l_part <= 0:
            raise DomainError("thicknesses must be positive")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in VARIABLE_NAMES])

    @staticmethod
    def from_array(a) -> "DesignPoint":
        return DesignPoint(**{n: float(v) for n, v in zip(VARIABLE_NAMES, a)})

    def cycle(self, t0: float = T0, cooldown: bool = False) -> CureCycleSpec:
        return CureCycleSpec(r1=self.r1, r2=self.r2, ht1=self.ht1,
                             ht2=self.ht2, hd1=self.hd1, hd2=self.hd2,
                             t0=t0, cooldown=cooldown)


# Published ranges for the three space sizes (thicknesses converted cm -> m).
_RANGES = {
    "small": {
        "h_top": (90.0, 120.0), "h_bot": (60.0, 90.0),
        "r1": (1.9, 2.8), "ht1": (110.0, 115.0), "hd1": (55.0, 63.0),
        "r2": (1.9, 2.8), "ht2": (178.0, 183.0), "hd2": (105.0, 115.0),
        "l_tool": (0.02, 0.035), "l_part": (0.025, 0.035),
    },
    "medium": {
        "h_top": (80.0, 120.0), "h_bot": (50.0, 90.0),
        "r1": (1.7, 3.0), "ht1": (105.0, 115.0), "hd1": (52.0, 63.0),
        "r2": (1.7, 3.0), "ht2": (175.0, 185.0), "hd2": (105.0, 120.0),
        "l_tool": (0.02, 0.04), "l_part": (0.025, 0.035),
    },
    "large": {
        "h_top": (70.0, 120.0), "h_bot": (50.0, 100.0),
        "r1": (1.5, 3.0), "ht1": (105.0, 120.0), "hd1": (50.0, 65.0),
        "r2": (1.5, 3.0), "ht2": (170.0, 185.0), "hd2": (105.0, 120.0),
        "l_tool": (0.02, 0.05), "l_part": (0.025, 0.035),
    },
}


@dataclass(frozen=True)
class DesignSpace:
    """Axis-aligned box of design-variable ranges."""

    label: str
    ranges: dict  # variable name -> (lo, hi)

    def __post_init__(self):
        missing = [n for n in VARIABLE_NAMES if n not in self.ranges]
        if missing:
            raise ValueError(f"missing ranges for {missing}")
        for name, (lo, hi) in self.ranges.items():
            if not lo < hi:
                raise ValueError(f"range for {name} must have lo < hi")

    @staticmethod
    def named(label: str) -> "DesignSpace":
        if label not in _RANGES:
            raise ValueError(f"unknown design space {label!r}; "
                             f"expected one of {sorted(_RANGES)}")
        return DesignSpace(label, dict(_RANGES[label]))

    def narrowed(self, factor: float = 0.25) -> "DesignSpace":
        """Shrink every range to the central `factor` fraction of its width.
        Used for desk-scale training studies."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("factor must be in (0, 1]")
        out = {}
        for name, (lo, hi) in self.ranges.items():
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo) * factor
            out[name] = (mid - half, mid + half)
        return DesignSpace(f"{self.label}-narrow{factor:g}", out)

    def t_ref(self) -> float:
        """Output-normalization reference temperature (degC)."""
        return self.ranges["ht2"][1] + T_REF_HEADROOM

    def max_t_air(self) -> float:
        """Largest air temperature attainable in the space (degC)."""
        return self.ranges["ht2"][1]

    def max_cycle_duration(self, cooldown: bool = False) -> float:
        """Longest possible cycle duration over the space, in seconds.

        Duration is linear in ht1 at fixed rates, so the maximum sits at a
        corner: slowest ramps, longest holds, highest ht2, ht1 at an endpoint.
        """
        r1 = self.ranges["r1"][0]
        r2 = self.ranges["r2"][0]
        ht2 = self.ranges["ht2"][1]
        hd1 = self.ranges["hd1"][1]
        hd2 = self.ranges["hd2"][1]
        best = 0.0
        for ht1 in self.ranges["ht1"]:
            cyc = CureCycleSpec(r1=r1, r2=r2, ht1=ht1, ht2=ht2,
                                hd1=hd1, hd2=hd2, cooldown=cooldown)
            best = max(best, cyc.duration_s)
        return best


def sample(space: DesignSpace, n: int, seed: int) -> list[DesignPoint]:
    """n i.i.d. uniform design points; byte-identical for a fixed seed."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    cols = []
    for name in VARIABLE_NAMES:
        lo, hi = space.ranges[name]
        cols.append(rng.uniform(lo, hi, size=n))
    mat = np.stack(cols, axis=1)
    return [DesignPoint.from_array(row) for row in mat]


def encode(designs, space: DesignSpace,
           cooldown: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Branch-net inputs of a batch of designs against their space, one row
    per design: bn1, (n, 4), the min-max normalized scalars named by
    SCALAR_NAMES, and bn2, (n, N_SENSORS), the air profile at N_SENSORS
    fixed fractions of the space's longest cycle, normalized from T0 to the
    space's hottest air. A design whose cycle outlasts that horizon (one
    from outside the space) is refused."""
    horizon = space.max_cycle_duration(cooldown=cooldown)
    times = np.linspace(0.0, horizon, N_SENSORS)
    profiles = []
    for d in designs:
        cycle = d.cycle(cooldown=cooldown)
        if horizon < cycle.duration_s:
            raise DomainError(f"horizon {horizon:.0f}s shorter than cycle "
                              f"{cycle.duration_s:.0f}s")
        profiles.append(air_temperature(cycle, times))
    scalars = np.array([[getattr(d, n) for n in SCALAR_NAMES]
                        for d in designs])
    lo = np.array([space.ranges[n][0] for n in SCALAR_NAMES])
    hi = np.array([space.ranges[n][1] for n in SCALAR_NAMES])
    return ((scalars - lo) / (hi - lo),
            (np.array(profiles) - T0) / (space.max_t_air() - T0))


# -- persistence --------------------------------------------------------------


def save_designs(path, designs, space: DesignSpace, seed: int) -> None:
    """One row per design; floats stored with full round-trip precision."""
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(list(VARIABLE_NAMES) + ["seed", "space"])
        for d in designs:
            writer.writerow([repr(float(getattr(d, n))) for n in VARIABLE_NAMES]
                            + [seed, space.label])


def load_designs(path):
    """Returns (designs, seed, space_label) from a design-set CSV."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header[:len(VARIABLE_NAMES)] != list(VARIABLE_NAMES):
            raise ValueError(f"unexpected design CSV header in {path}")
        designs, seed, label = [], None, None
        for row in reader:
            designs.append(DesignPoint.from_array(
                [float(v) for v in row[:len(VARIABLE_NAMES)]]))
            seed = int(row[len(VARIABLE_NAMES)])
            label = row[len(VARIABLE_NAMES) + 1]
    return designs, seed, label
