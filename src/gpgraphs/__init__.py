"""Power-residue Cayley graphs over finite fields.

Exact spectra as cyclotomic integers, nature classification, digraph
periods, integral-family enumeration and Waring numbers via BFS diameters.
"""

from .errors import (
    GPGraphError,
    HypothesisViolated,
    InvariantViolated,
    NotPrime,
    NotPrimePower,
    NumberDoesNotExist,
    SizeBudgetExceeded,
)
from .families import (
    FAMILY_KINDS,
    FamilyDescriptor,
    FieldCensus,
    census,
    enumerate_family,
)
from .fields import (
    DEFAULT_SIZE_BUDGET,
    FieldElement,
    FiniteField,
    build_field,
    canonical_modulus,
    field_of_order,
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
)
from .spectra import (
    Nature,
    SpectrumReport,
    ValueClass,
    nature_for,
    spectrum,
    srg_parameters,
)
from .verify import CheckOutcome, run_verification, verify_field
from .waring import WaringResult, waring_result, witness

__version__ = "0.1.0"
