"""Physics-informed operator networks for composite autoclave cure design,
with a finite-difference reference solver for validation and test data."""

__version__ = "0.1.0"

from .autodiff import Jet2, MlpParams, backward, mlp_forward_jet
from .design import DesignPoint, DesignSpace, encode, normalize_query, sample
from .process import (CureCycleSpec, CureKineticsParams, MaterialProps,
                      MaterialSet, air_temperature, cure_rate,
                      load_material_set)
from .solver import FieldSolution, Grid1D, exotherm, probe, solve_batch

__all__ = [
    "Jet2", "MlpParams", "backward", "mlp_forward_jet",
    "DesignPoint", "DesignSpace", "encode", "normalize_query", "sample",
    "CureCycleSpec", "CureKineticsParams", "MaterialProps", "MaterialSet",
    "air_temperature", "cure_rate", "load_material_set",
    "FieldSolution", "Grid1D", "exotherm", "probe", "solve_batch",
    "__version__",
]
