"""Exact engine for quasitriangular and pre-Cartier structures on
finite-dimensional Hopf algebras."""

__version__ = "0.1.0"

from .scalars import FieldSpec, get_field
from .families import FamilySpec, build
from .hopf import HopfData, Tensor, delta, counit, verify_bialgebra, verify_hopf

__all__ = [
    "FieldSpec",
    "get_field",
    "FamilySpec",
    "build",
    "HopfData",
    "Tensor",
    "delta",
    "counit",
    "verify_bialgebra",
    "verify_hopf",
]
