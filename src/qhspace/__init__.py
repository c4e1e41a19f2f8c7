"""Finite linear-algebra engine for module categories and their reconstructed
homogeneous-space *-algebras."""

from .certificate import Certificate, Check
from .grouprep import (
    FiniteGroup,
    IrrepTable,
    Subgroup,
    UnitaryRep,
    cyclic_group,
    dihedral_group,
    extract_irreps,
    symmetric_group,
)
from .modcat import (
    BigradedFunctor,
    module_from_pointed,
    module_from_subgroup,
    validate_module,
)
from .reconstruct import (
    SpectralBimodule,
    StarAlgebra,
    build_algebra,
    build_bimodule,
    cp_certificate,
    restriction_morphism,
    validate_morphism,
    verify_algebra,
)
from .tensorcat import CategoryPresentation, from_group, from_pointed, verify_presentation
from .verify import report, run_suite

__version__ = "1.0.0"

__all__ = [
    "BigradedFunctor",
    "CategoryPresentation",
    "Certificate",
    "Check",
    "FiniteGroup",
    "IrrepTable",
    "SpectralBimodule",
    "StarAlgebra",
    "Subgroup",
    "UnitaryRep",
    "build_algebra",
    "build_bimodule",
    "cp_certificate",
    "cyclic_group",
    "dihedral_group",
    "extract_irreps",
    "from_group",
    "from_pointed",
    "module_from_pointed",
    "module_from_subgroup",
    "report",
    "restriction_morphism",
    "run_suite",
    "symmetric_group",
    "validate_module",
    "validate_morphism",
    "verify_algebra",
    "verify_presentation",
]
