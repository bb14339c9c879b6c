"""modrep: modular structure of group algebras kG over small finite fields.

Compute simple modules, radical/Loewy series, projective indecomposable
modules, Cartan matrices and block decompositions of kG in positive
characteristic, with exact dense linear algebra over GF(p^k).
"""

__version__ = "0.1.0"

from .fieldcore import FieldCtx, FieldElem, Poly, field_make, poly_factor
from .linalg import Mat, Subspace, nullspace, rref, solve, subspace_ops
from .permgroup import (
    GroupTable,
    Perm,
    Subgroup,
    builtin,
    conjugacy_data,
    cosets_and_quotient,
    group_generate,
    normal_p_core,
    parse_cycles,
)
from .modalg import (
    AlgebraElem,
    GroupAlgebra,
    Module,
    ModuleHom,
    direct_sum,
    dual_module,
    hom_space,
    induce_module,
    inflate_module,
    is_irreducible,
    modules_isomorphic,
    permutation_module,
    radical_and_socle_series,
    regular_module,
    restrict_module,
    spin,
    sub_quotient,
    trivial_module,
)
from .structure import (
    CartanMatrix,
    PimSet,
    SimpleSet,
    cartan_matrix,
    find_simples,
    jacobson_radical,
    lift_idempotent,
    pim_structure_report,
    primitive_decomposition,
)
from .blocks import (
    BlockPartition,
    block_partition,
    cyclic_idempotents,
    module_block_assignment,
)
from .report import Analysis, StructureReport, analyze_algebra

__all__ = [
    "__version__",
    "FieldCtx",
    "FieldElem",
    "Poly",
    "field_make",
    "poly_factor",
    "Mat",
    "Subspace",
    "nullspace",
    "rref",
    "solve",
    "subspace_ops",
    "GroupTable",
    "Perm",
    "Subgroup",
    "builtin",
    "conjugacy_data",
    "cosets_and_quotient",
    "group_generate",
    "normal_p_core",
    "parse_cycles",
    "AlgebraElem",
    "GroupAlgebra",
    "Module",
    "ModuleHom",
    "direct_sum",
    "dual_module",
    "hom_space",
    "induce_module",
    "inflate_module",
    "is_irreducible",
    "modules_isomorphic",
    "permutation_module",
    "radical_and_socle_series",
    "regular_module",
    "restrict_module",
    "spin",
    "sub_quotient",
    "trivial_module",
    "CartanMatrix",
    "PimSet",
    "SimpleSet",
    "cartan_matrix",
    "find_simples",
    "jacobson_radical",
    "lift_idempotent",
    "pim_structure_report",
    "primitive_decomposition",
    "BlockPartition",
    "block_partition",
    "cyclic_idempotents",
    "module_block_assignment",
    "Analysis",
    "StructureReport",
    "analyze_algebra",
]
