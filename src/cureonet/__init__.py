"""Physics-informed operator networks for composite autoclave cure design,
with a finite-difference reference solver for validation and test data."""

__version__ = "0.1.0"

from .autodiff import (Jet2, MlpParams, ParamGradient, TapeMlp, backward,
                       mlp_forward, mlp_forward_jet, scalar_backward)
from .design import (DesignPoint, DesignSpace, SensorizedInput, encode,
                     normalize_query, sample)
from .process import (CureCycleSpec, CureKineticsParams, MaterialProps,
                      MaterialSet, SimulationConstants, air_temperature,
                      cure_rate, load_material_set)
from .solver import (FieldSolution, Grid1D, exotherm, probe, solve,
                     solve_batch)

__all__ = [
    "Jet2", "MlpParams", "ParamGradient", "TapeMlp", "backward",
    "mlp_forward", "mlp_forward_jet", "scalar_backward",
    "DesignPoint", "DesignSpace", "SensorizedInput", "encode",
    "normalize_query", "sample",
    "CureCycleSpec", "CureKineticsParams", "MaterialProps", "MaterialSet",
    "SimulationConstants", "air_temperature", "cure_rate",
    "load_material_set",
    "FieldSolution", "Grid1D", "exotherm", "probe", "solve", "solve_batch",
    "__version__",
]
