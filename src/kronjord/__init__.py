"""kronjord: exact realization and certification of Jordan types [1]^c[2]^d
over generalized Kronecker quivers.

The package decides which Jordan types are realizable by indecomposable
Loewy-length-2 modules, constructs explicit matrix witnesses, and certifies
them (equal-kernels property, indecomposability, constant Jordan type) with
exact rational arithmetic.
"""

from .exactmat import ExactMatrix, GF, QQ
from .kronecker import (
    DimVector,
    JordanType,
    KroneckerRep,
    RootClass,
    classify_root,
    coxeter_apply,
    dual,
    euler_form,
    generic_rank,
    is_constant_jordan_type,
    is_in_ijt,
    jordan_type_at,
    pencil,
    tits_form,
    to_module_operators,
    xi,
    xi_inverse,
)
from .cover import (
    TreeQuiver,
    TreeRep,
    build_indecomposable_tree_rep,
    build_root_vector,
    build_source_regular,
    is_inj,
    push_down,
    source_regular_bound_check,
    thin_path_rep,
)
from .bgp import build_preprojective, descend, reflect_functor_source, tau_inverse_tree
from .echelon import EchelonSpec, build_echelon_rep, ekp_echelon_certificate, select_phi, shifted_identity
from .verify import (
    HomSpace,
    ekp_sample_check,
    eip_sample_check,
    end_is_local,
    ext_dim,
    hom_space,
    is_brick,
    restriction_check,
)
from .pipeline import CertifiedWitness, classify, realize

__version__ = "0.1.0"

__all__ = [
    "ExactMatrix", "GF", "QQ",
    "DimVector", "JordanType", "KroneckerRep", "RootClass", "classify_root", "coxeter_apply",
    "dual", "euler_form", "generic_rank", "is_constant_jordan_type", "is_in_ijt",
    "jordan_type_at", "pencil", "tits_form", "to_module_operators",
    "xi", "xi_inverse",
    "TreeQuiver", "TreeRep", "build_indecomposable_tree_rep", "build_root_vector",
    "build_source_regular", "is_inj", "push_down", "source_regular_bound_check", "thin_path_rep",
    "build_preprojective", "descend", "reflect_functor_source", "tau_inverse_tree",
    "EchelonSpec", "build_echelon_rep", "ekp_echelon_certificate", "select_phi", "shifted_identity",
    "HomSpace", "ekp_sample_check", "eip_sample_check", "end_is_local", "ext_dim", "hom_space",
    "is_brick", "restriction_check",
    "CertifiedWitness", "classify", "realize",
]
