"""gpw — exact-arithmetic workbench for group-graded algebras.

Finite-dimensional graded algebras (optionally with a graded involution) are
given by rational structure constants; the package computes their graded
polynomial identities in fixed multidegrees, codimension slices, cocharacter
multiplicities via highest weight vectors, and classification reports
(bounded-multiplicity witnesses, pairwise commutation lists, and the
single-slot multiplicity-one criteria).  All linear algebra is exact.
"""

__version__ = "0.1.0"

from . import modes
from .algebras import (
    GradedStarAlgebra,
    HomBasis,
    builtin_grassmann2,
    builtin_k,
    builtin_ut2,
)
from .classify import (
    BoundedReport,
    LemmaReport,
    MultOneReport,
    SandwichWitness,
    bounded_multiplicity_report,
    find_sandwich_identity,
    hwv_factorization_check,
    star_multone_report,
    verify_multone_lemmas,
)
from .documents import (
    algebra_digest,
    algebra_to_document,
    document_to_algebra,
    dumps_algebra,
    load_algebra,
    loads_algebra,
    save_algebra,
)
from .evaluator import (
    CocharacterTable,
    EvaluationMatrix,
    build_evaluation_matrix,
    cocharacter_table,
    evaluate,
    identities,
    is_identity,
    is_identity_grid,
    multiplicity,
    slice_codimension,
    total_codimension,
)
from .groups import FiniteGroup, build_group, cyclic, from_table, product_of_cyclics
from .polynomials import (
    GradedPoly,
    Variable,
    commutator,
    circle,
    highest_weight_vector,
    multilinearize,
    parse_poly,
    standard_poly,
)
from .reports import format_shape, parse_shape
from .shapes import (
    Multipartition,
    Multitableau,
    all_multitableaux,
    compositions,
    hook_dimension,
    multipartitions,
    partitions,
    standard_multitableaux,
    tableau_to_permutation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
