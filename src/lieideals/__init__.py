"""Exact computation with finite-dimensional Lie algebras given by
structure constants: core and closure operators, subideal chains, c-ideal
and weak c-ideal certificates, structure predicates, and a recorded
verification suite over a small corpus.
"""

from .errors import (
    AmbientMismatchError,
    BudgetExceededError,
    DuplicateBracketError,
    EnumerationUnsupportedError,
    FieldMismatchError,
    JacobiError,
    LieIdealsError,
    NotAnIdealError,
    NotASubalgebraError,
    NotContainedError,
    ParseError,
    PresetError,
    UnknownLabelError,
)
from .exactfield import GF, QQ, PrimeField, RationalField, field_from_name
from .linspace import (
    DEFAULT_BUDGET,
    EchelonBasis,
    Subspace,
    count_subspaces,
    enumerate_subspaces,
    gaussian_binomial,
    projective_points,
)
from .liecore import (
    DERIVED,
    LOWER_CENTRAL,
    LieAlgebra,
    SeriesReport,
)
from .ideals import (
    CIdealCertificate,
    SubidealChain,
    WeakCIdealCertificate,
    core,
    find_c_witness,
    find_weak_c_witness,
    ideal_closure,
    ideals_of,
    is_weak_c_ideal,
    subalgebras,
    subideal_chain,
    subideal_complement_mod_core,
)
from .structure import (
    OneDimClassification,
    cartan_subalgebras,
    classify_one_dim_weak_c,
    flags,
    frattini,
    is_almost_abelian,
    is_simple,
    is_supersolvable,
    maximal_nilpotent_subalgebras,
    maximal_subalgebras,
    minimal_ideals,
    nilpotent_subalgebras,
    spin,
    structure_report,
)
from .corpus import BuiltAlgebra, build, direct_sum, example34
from .verify import (
    BrokenMember,
    CheckResult,
    CorpusMember,
    Report,
    default_corpus,
    run_check,
    run_suite,
    try_member,
)
from .document import parse_document, render_document

__all__ = [name for name in dir() if not name.startswith("_")]
