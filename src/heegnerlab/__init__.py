"""heegnerlab: exact lattice bookkeeping for Heegner divisors, Kudla cycles,
and irrationality bound certificates for moduli of polarized K3 surfaces."""

from .lattices import (
    DualVector,
    IntegerLattice,
    build_named_lattice,
    direct_sum,
    make_lattice,
    named_lattice,
    orthogonal_complement,
)
from .discriminant import DiscriminantGroup, discriminant_group
from .enumeration import enumerate_by_norm, first_primitive_vector
from .weil import (
    RelationCheck,
    WeilRepresentation,
    build_weil_rep,
    relations_pass,
    verify_sl2_relations,
)
from .cycles import (
    EmbeddingWitness,
    HKIndexFamily,
    HeegnerIndex,
    LabellingWitness,
    cubic_heegner_index,
    embed_k3_lattice,
    gm_heegner_index,
    gm_residue_vector,
    hk_heegner_index,
)
from .arith import factorize, omega, sigma_power
from .bounds import (
    AdmissibilityReport,
    BoundCertificate,
    CaseResult,
    admissibility_report,
    case_a,
    case_b,
    case_c,
    divisor_bound_check,
    fm_partner_count,
    growth_exponent_estimate,
    heegner_irr_exponent,
    irr_bound_certificate,
    kudla_irr_exponent,
    sandwich_check,
)

__version__ = "0.1.0"

__all__ = [
    "DualVector", "IntegerLattice", "build_named_lattice", "direct_sum", "make_lattice",
    "named_lattice", "orthogonal_complement",
    "DiscriminantGroup", "discriminant_group",
    "enumerate_by_norm", "first_primitive_vector",
    "RelationCheck", "WeilRepresentation", "build_weil_rep", "relations_pass",
    "verify_sl2_relations",
    "EmbeddingWitness", "HKIndexFamily", "HeegnerIndex",
    "LabellingWitness", "cubic_heegner_index", "embed_k3_lattice",
    "gm_heegner_index", "gm_residue_vector", "hk_heegner_index",
    "factorize", "omega", "sigma_power",
    "AdmissibilityReport", "BoundCertificate", "CaseResult", "admissibility_report",
    "case_a", "case_b", "case_c", "divisor_bound_check",
    "fm_partner_count", "growth_exponent_estimate", "heegner_irr_exponent",
    "irr_bound_certificate", "kudla_irr_exponent", "sandwich_check",
]
