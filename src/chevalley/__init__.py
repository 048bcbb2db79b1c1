"""Exact adjoint Chevalley groups of types A, D, E over local rings with 1/2."""

from .decompose import (
    FactoredElement,
    PositionTable,
    compose,
    designated_positions,
    entry_formula,
    recover,
)
from .group import (
    Character,
    GroupElement,
    check_torus_conjugation,
    commutator_check,
    congruence_member,
    diagram_automorphisms,
    graph_matrix,
    h_alpha,
    h_elem,
    scalar_elem,
    t_k,
    x_elem,
)
from .lie import ad_x, structure_constants, t_matrix
from .matrices import Mat
from .rings import RingElem, RingError, adjoin_root, is_unit, make_ring, radical_member, residue
from .roots import (
    MarkedSequence,
    RootSystem,
    build_root_system,
    marked_sequence,
    sum_decomposition,
    system,
    verify_marked_properties,
)
from .standardize import (
    Certificate,
    LinSystem,
    build_commutation_system,
    build_linearized_system,
    kernel_dimension,
    standardness_certificate,
)
from .torusext import TorusLift, build_lift, coweight_exponents, lift_exponents, verify_lift

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "Character",
    "FactoredElement",
    "GroupElement",
    "LinSystem",
    "MarkedSequence",
    "Mat",
    "PositionTable",
    "RingElem",
    "RingError",
    "RootSystem",
    "TorusLift",
    "ad_x",
    "adjoin_root",
    "build_commutation_system",
    "build_lift",
    "build_linearized_system",
    "build_root_system",
    "check_torus_conjugation",
    "commutator_check",
    "compose",
    "congruence_member",
    "coweight_exponents",
    "designated_positions",
    "diagram_automorphisms",
    "entry_formula",
    "graph_matrix",
    "h_alpha",
    "h_elem",
    "is_unit",
    "kernel_dimension",
    "lift_exponents",
    "make_ring",
    "marked_sequence",
    "radical_member",
    "recover",
    "residue",
    "scalar_elem",
    "standardness_certificate",
    "structure_constants",
    "sum_decomposition",
    "system",
    "t_k",
    "t_matrix",
    "verify_lift",
    "verify_marked_properties",
    "x_elem",
]
