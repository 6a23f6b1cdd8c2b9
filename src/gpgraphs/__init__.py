"""Power-residue Cayley graphs over finite fields.

Exact spectra as cyclotomic integers, nature classification, digraph
periods, integral-family enumeration and Waring numbers via BFS diameters.
"""

from .cyclotomic import CyclotomicInteger, ValueClass, quadratic_gauss_sum, root_power, zeta
from .errors import (
    DivisionByZero,
    GPGraphError,
    HypothesisViolated,
    IndexOutOfRange,
    InvariantViolated,
    MixedRootOrders,
    NotDirected,
    NotPrime,
    NotPrimePower,
    NumberDoesNotExist,
    PreconditionViolated,
    SizeBudgetExceeded,
    ZeroHasNoLog,
)
from .families import (
    FAMILY_KINDS,
    FamilyDescriptor,
    FieldCensus,
    census,
    cyclotomic_poly,
    enumerate_family,
    integrality_reasons,
)
from .fields import (
    DEFAULT_SIZE_BUDGET,
    FieldElement,
    FiniteField,
    build_field,
    canonical_modulus,
    irreducible_polynomials,
)
from .graphs import (
    ComponentDecomposition,
    GPGraph,
    StructureLabel,
    build_graph,
    classify_structure,
    components,
    period,
    symmetrize,
)
from .spectra import (
    Eigenvalue,
    Nature,
    PaleyUnionDigraph,
    SpectrumReport,
    boundary_spectrum,
    detect_three_ev_digraph,
    gaussian_period,
    mu,
    nature_arithmetic,
    nature_for,
    numeric_oracle_check,
    spectrum,
    srg_parameters,
    verify_2re,
)
from .verify import CheckOutcome, run_verification, verify_field
from .waring import (
    WaringResult,
    is_primitive_divisor,
    verify_reduction,
    waring_g,
    waring_result,
    waring_w,
    witness,
)

__version__ = "0.1.0"
