"""Exact classical simulation of normalizer circuits over finite Abelian groups.

The package tracks stabilizer labels through Fourier, automorphism,
quadratic-phase and Pauli gates with exact integer phase arithmetic and
reads off the output distribution as a uniform coset. The dense
state-vector oracle that cross-checks the engine at small group orders
lives in `normsim.oracle`, which is not imported here; every other name
stays importable from its submodule.
"""

from .circuits import (
    CircuitError,
    CircuitParseError,
    CircuitValidationError,
    parse_circuit,
)
from .engine import (
    AutomorphismGate,
    CosetInput,
    EngineError,
    FourierGate,
    NotInvertible,
    OutputDistribution,
    PauliGate,
    QuadraticGate,
    sample_stream,
    simulate,
)
from .groups import AbelianGroup, BoundExceeded, GroupElement, GroupMismatchError
from .homs import (
    EndoMatrix,
    InvalidEndomorphism,
    Subgroup,
    auto_inverse,
    endo_validate,
)
from .pauli import pauli_dagger, pauli_label
from .quadratic import InvalidQuadratic, QuadraticEncoding, build_quadratic

__version__ = "0.2.0"

__all__ = [
    "AbelianGroup",
    "AutomorphismGate",
    "BoundExceeded",
    "CircuitError",
    "CircuitParseError",
    "CircuitValidationError",
    "CosetInput",
    "EndoMatrix",
    "EngineError",
    "FourierGate",
    "GroupElement",
    "GroupMismatchError",
    "InvalidEndomorphism",
    "InvalidQuadratic",
    "NotInvertible",
    "OutputDistribution",
    "PauliGate",
    "QuadraticEncoding",
    "QuadraticGate",
    "Subgroup",
    "auto_inverse",
    "build_quadratic",
    "endo_validate",
    "parse_circuit",
    "pauli_dagger",
    "pauli_label",
    "sample_stream",
    "simulate",
]
