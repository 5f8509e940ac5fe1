"""c4lab: a finite-algebra workbench for C4-type summand conditions.

Builds finite-dimensional algebras over prime fields, decides the
C4 / C4* / semi-weak-CS / strongly-C4* conditions and their arity and
depth extensions on finite right modules, computes defect classes and
the obstruction index, and verifies that all of it transports exactly
along matrix-ring and full-corner equivalences.
"""

from .algebra import (
    AlgebraElement,
    CornerAlgebra,
    FiniteAlgebra,
    IdealBasis,
    PrimeField,
    corner_algebra,
    field_algebra,
    idempotents,
    is_full_idempotent,
    jacobson_radical,
    matrix_algebra,
    poly_quotient_algebra,
    product_algebra,
    quotient_algebra,
    upper_triangular_algebra,
)
from .conditions import (
    DefectReport,
    Decomposition,
    INFINITY,
    ObstructionPair,
    WitnessRecord,
    WitnessRule,
    build_defect_report,
    check_extended,
    decompose_strong,
    def_c4,
    def_c4star,
    enumerate_decompositions,
    evaluate_witness,
    is_c4,
    is_c4_m,
    is_c4star,
    is_semiweak_cs,
    is_strongly_c4star,
    obs_swcs,
    obstruction_index,
    register_rule,
    strong_defect,
)
from .guards import Guards, GuardExceeded, TheoremViolation
from .modules import (
    ModuleHom,
    RightModule,
    Submodule,
    SubmoduleLattice,
    all_submodules,
    classical_predicates,
    composition_length,
    direct_sum,
    hom_basis,
    is_closed,
    is_essential,
    is_orthogonal,
    is_semisimple,
    is_simple,
    is_square_free,
    is_summand,
    is_summand_square_free,
    iso_test,
    regular_module,
    socle,
    submodule_span,
)
from .morita import (
    Progenerator,
    TransportedModule,
    apply_functor,
    build_progenerator,
    corner_progenerator,
    defect_bijection_check,
    end_algebra,
    free_progenerator,
    morita_pair_check,
    transport_hom,
    transport_submodule,
    transport_witness,
)

__version__ = "0.1.0"
